"""Scene observations and construction of the two optimization stages.

A scene is one set of read-only per-node arrays (``SceneObservation``): each
node is a 2x2 pixel block with a camera point and up to 12 correspondence
candidates, padded to 12, and every consumer indexes those arrays.  Stage
one is a sparse multi-label model over the full node grid (a node's labels
are its candidates plus an outlier label, always last).  Stage two is a
fully-connected two-label master model over the stage-one inlier nodes,
label 1 meaning "keep the stage-one candidate" and label 0 meaning outlier.
Stage one's pairwise tables are lazy; the master's are built up front, and
every stage-two test of "within the object diameter" reads
``pairwise_distances``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import INF, ContractViolation, GraphicalModel

MAX_CANDIDATES = 12  # 4 pixels x 3 trees


@dataclass(frozen=True)
class HyperParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        # written so that NaN fails the test
        if not (0 < self.alpha < INF and 0 <= self.beta < INF and 0 <= self.gamma < INF):
            raise ContractViolation(f"require finite alpha > 0, beta >= 0 and gamma >= 0: {self}")


STAGE_ONE_DEFAULTS = HyperParams(alpha=0.21, beta=23.1, gamma=0.0048)
STAGE_TWO_DEFAULTS = HyperParams(alpha=0.2, beta=2.0, gamma=0.0)


#: (name, dtype, shape past the node axis) of each per-node scene array
_SCENE_ARRAYS = (("points", float, (3,)), ("candidate_count", np.int64, ()),
                 ("coords", float, (MAX_CANDIDATES, 3)),
                 ("confidence", float, (MAX_CANDIDATES,)),
                 ("source_pixel", np.int64, (MAX_CANDIDATES,)),
                 ("source_tree", np.int64, (MAX_CANDIDATES,)))


@dataclass(frozen=True, eq=False)
class SceneObservation:
    """A node grid with its correspondence candidates, as read-only arrays.

    Node u (row-major) has the camera-space point ``points[u]`` (meters) and
    ``candidate_count[u]`` <= 12 candidates; the count is also its outlier
    label.  Candidate j is the object-frame point ``coords[u, j]`` with
    ``confidence[u, j]`` in [0, 1], from pixel ``source_pixel[u, j]`` (0..3,
    in the node's 2x2 block) of tree ``source_tree[u, j]`` (0..2); entries
    past the count are stored as 0.  Everything is checked once here, and an
    error names ``nodes[u]`` or ``nodes[u].candidates[j]``.
    """

    grid_width: int
    grid_height: int
    object_diameter: float
    points: np.ndarray
    candidate_count: np.ndarray
    coords: np.ndarray
    confidence: np.ndarray
    source_pixel: np.ndarray
    source_tree: np.ndarray

    def __post_init__(self):
        if self.grid_width < 1 or self.grid_height < 1:
            raise ContractViolation("grid dimensions must be >= 1")
        if not 0 < self.object_diameter < INF:
            raise ContractViolation("object_diameter must be positive and finite")
        object.__setattr__(self, "object_diameter", float(self.object_diameter))
        for name, dtype, shape in _SCENE_ARRAYS:
            value = np.asarray(getattr(self, name))
            if value.shape != (self.node_count, *shape) \
                    or (dtype is np.int64 and value.dtype.kind not in "iu"):
                raise ContractViolation(f"{name} must be an array of {np.dtype(dtype).name} "
                                        f"of shape {(self.node_count, *shape)}")
            object.__setattr__(self, name, np.array(value, dtype=dtype))
        count, conf = self.candidate_count, self.confidence
        pixel, tree = self.source_pixel, self.source_tree
        past = np.arange(MAX_CANDIDATES) >= count[:, None]
        for a in (self.coords, conf, pixel, tree):
            a[past] = 0
        for bad, what in (((count < 0) | (count > MAX_CANDIDATES),
                           f"candidate count outside 0..{MAX_CANDIDATES}"),
                          (~np.isfinite(self.points).all(axis=1), "camera point x is not finite"),
                          (~((conf >= 0.0) & (conf <= 1.0)), "confidence outside [0,1]"),
                          ((pixel < 0) | (pixel > 3), "source_pixel outside 0..3"),
                          ((tree < 0) | (tree > 2), "source_tree outside 0..2"),
                          (~np.isfinite(self.coords).all(axis=2), "object coordinate l is not finite")):
            if bad.any():
                u, *j = np.argwhere(bad)[0]
                at = f"candidate at nodes[{u}].candidates[{j[0]}]" if j else f"node at nodes[{u}]"
                raise ContractViolation(f"invalid {at}: {what}")
        for name, _, _ in _SCENE_ARRAYS:
            getattr(self, name).flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.grid_width * self.grid_height


def pairwise_distances(points) -> np.ndarray:
    """(m, m) Euclidean distances between the rows of an (m, 3) point array,
    in the arithmetic of ``synth.object_diameter``."""
    points = np.asarray(points, dtype=float)
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def pairwise_cost(coords, points, diameter: float) -> np.ndarray:
    """Geometric compatibility of every pair of correspondences.

    Entry (i, j) is the absolute difference between the object-frame distance
    of ``coords[i]``, ``coords[j]`` and the camera-frame distance of
    ``points[i]``, ``points[j]``, or inf when the camera points are further
    apart than the object diameter (exactly one diameter stays finite).
    """
    if not diameter > 0:
        raise ContractViolation("diameter must be positive")
    x_dist = pairwise_distances(points)
    cost = np.abs(pairwise_distances(coords) - x_dist)
    cost[x_dist > diameter] = INF
    return cost


def build_sparse_neighborhood(grid_width: int, grid_height: int,
                              keep: int = 48, skip: int = 8) -> np.ndarray:
    """Connect each node to its 9th..56th nearest grid neighbours.

    Neighbours are ranked by Euclidean distance on the node grid with ties
    broken by row-major index; the closest ``skip`` are excluded and the next
    ``keep`` connected.  The returned edge set is the symmetric union,
    deduplicated, as an (E, 2) int64 array of rows (u, v) with u < v in
    increasing order.

    Neighbour (r + dr, c + dc) has index node + dr * W + dc, so the grid
    offsets are ranked once by (dr² + dc², dr * W + dc) and each node takes
    its in-bounds offsets ranked skip + 1 .. skip + keep (rank 0 is the node
    itself).  Every node has a grid quadrant ⌊H/2⌋ rows by ⌊W/2⌋ columns
    deep, so only offsets within the radius whose quarter disc holds
    skip + keep of that quadrant's offsets need ranking.  Nodes are handled
    in blocks to bound the temporaries.
    """
    if grid_width < 1 or grid_height < 1:
        raise ContractViolation("grid dimensions must be >= 1")
    width, height = grid_width, grid_height
    n = width * height
    dr, dc = (a.ravel() for a in np.meshgrid(np.arange(1 - height, height, dtype=np.int32),
                                             np.arange(1 - width, width, dtype=np.int32),
                                             indexing="ij"))
    d2 = dr.astype(np.int64) ** 2 + dc.astype(np.int64) ** 2
    quadrant = np.sort(d2[(dr >= 0) & (dr <= height // 2) & (dc >= 0) & (dc <= width // 2)])
    radius2 = quadrant[skip + keep] if quadrant.size > skip + keep else d2.max()
    near = np.flatnonzero(d2 <= radius2)
    near = near[np.lexsort((dr[near] * width + dc[near], d2[near]))]
    dr, dc = dr[near], dc[near]

    nodes = np.arange(n, dtype=np.int32)
    keys = []
    block = max(1, (1 << 17) // dr.size)
    for lo in range(0, n, block):
        u = nodes[lo:lo + block, None]
        r, c = u // width + dr, u % width + dc
        inside = (r >= 0) & (r < height) & (c >= 0) & (c < width)
        rank = np.cumsum(inside, axis=1, dtype=np.int32) - 1
        pick = inside & (rank > skip) & (rank <= skip + keep)
        v = (r * width + c)[pick].astype(np.int64)
        u = np.broadcast_to(u, pick.shape)[pick]
        keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    return np.stack(np.divmod(np.unique(np.concatenate(keys)), n), axis=1)


def _inlier_unary(confidence, hp: HyperParams):
    return (1.0 - confidence) * hp.alpha


def _outlier_unary(scene: SceneObservation, hp: HyperParams) -> np.ndarray:
    # summed in candidate order (the zero padding adds nothing), divided by a
    # fixed 12; a cumsum, since numpy's pairwise .sum(axis=1) moves the last bit
    return np.cumsum(scene.confidence, axis=1)[:, -1] * hp.alpha / MAX_CANDIDATES


def build_stage_one_model(scene: SceneObservation, hp: HyperParams,
                          keep: int = 48, skip: int = 8) -> GraphicalModel:
    """Sparse multi-label model over the full grid; pairwise tables are lazy.

    An edge table holds the geometric costs between candidate pairs (inf when
    the camera points are further apart than the diameter), gamma on
    candidate/outlier transitions and zero on outlier/outlier.
    """
    count = scene.candidate_count.tolist()
    unary = np.pad(_inlier_unary(scene.confidence, hp), ((0, 0), (0, 1)))
    unary[np.arange(scene.node_count), scene.candidate_count] = _outlier_unary(scene, hp)
    unary[np.arange(MAX_CANDIDATES + 1) > scene.candidate_count[:, None]] = INF
    edges = build_sparse_neighborhood(scene.grid_width, scene.grid_height,
                                      keep=keep, skip=skip)

    points, diameter = scene.points, scene.object_diameter
    # per-node views, made once: slicing in every call slows the table build
    coords = [c[:k] for c, k in zip(scene.coords, count)]
    coord_sq = [c[:k] for c, k in zip((scene.coords ** 2).sum(axis=2), count)]

    def table_fn(u, v):
        ku, kv = count[u], count[v]
        table = np.full((ku + 1, kv + 1), hp.gamma)
        table[ku, kv] = 0.0
        if ku and kv:
            # a 1-D norm, not pairwise_distances: the two differ in the last
            # bit on ~10% of pairs, which would move every TRW-S bound_history
            x_dist = float(np.linalg.norm(points[u] - points[v]))
            if x_dist > diameter:
                table[:ku, :kv] = INF
            else:
                d2 = coord_sq[u][:, None] + coord_sq[v][None, :] \
                    - 2.0 * coords[u] @ coords[v].T
                table[:ku, :kv] = np.abs(np.sqrt(np.maximum(d2, 0.0)) - x_dist)
        return table

    return GraphicalModel(
        labels_per_node=tuple(k + 1 for k in count),
        unary=unary,
        edges=edges,
        table_fn=table_fn,
        pairwise_weight=hp.beta,
    )


def build_stage_two_master(scene: SceneObservation, hp: HyperParams,
                           inliers, stage_one_labels: Sequence[int]) -> GraphicalModel:
    """Fully-connected binary master over the stage-one inlier nodes.

    Master node k corresponds to ``sorted(inliers)[k]``; label 1 keeps that
    node's stage-one candidate, label 0 is the outlier.  Every table is built
    here, with the ``pairwise_cost`` entry at (1,1).  With the default
    gamma = 0 the construction is already in zero form.
    """
    grid_nodes = np.array(sorted(set(int(u) for u in inliers)), dtype=np.int64)
    if not grid_nodes.size:
        raise ContractViolation("stage two needs at least one inlier")
    labels = np.array([int(stage_one_labels[g]) for g in grid_nodes.tolist()])
    bad = np.flatnonzero((labels < 0) | (labels >= scene.candidate_count[grid_nodes]))
    if bad.size:
        raise ContractViolation(f"inlier node {grid_nodes[bad[0]]} has no stage-one candidate")
    unary = np.stack([_outlier_unary(scene, hp)[grid_nodes],
                      _inlier_unary(scene.confidence[grid_nodes, labels], hp)], axis=1)
    cost = pairwise_cost(scene.coords[grid_nodes, labels], scene.points[grid_nodes],
                         scene.object_diameter)
    rows, cols = np.triu_indices(grid_nodes.size, 1)
    tables = np.zeros((rows.size, 2, 2))
    tables[:, 0, 1] = tables[:, 1, 0] = hp.gamma
    tables[:, 1, 1] = cost[rows, cols]
    return GraphicalModel(
        labels_per_node=(2,) * grid_nodes.size,
        unary=unary,
        edges=np.stack([rows, cols], axis=1),
        pairwise=tables,
        pairwise_weight=hp.beta,
    )
