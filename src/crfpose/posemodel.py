"""Scene observations and construction of the two optimization stages.

Stage one is a sparse multi-label model over the full node grid (each node is
a 2x2 pixel block carrying up to 12 correspondence candidates plus an outlier
label, always last).  Stage two is a fully-connected two-label master model
over the stage-one inlier nodes, label 1 meaning "keep the stage-one
candidate" and label 0 meaning outlier.  Stage one's pairwise tables are
lazy; the master's are built up front, and every stage-two test of "within
the object diameter" reads ``pairwise_distances``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import INF, ContractViolation, GraphicalModel, PartialLabeling, UNLABELED

MAX_CANDIDATES = 12  # 4 pixels x 3 trees


@dataclass(frozen=True)
class HyperParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0 or self.gamma < 0:
            raise ContractViolation("require alpha > 0, beta >= 0, gamma >= 0")


STAGE_ONE_DEFAULTS = HyperParams(alpha=0.21, beta=23.1, gamma=0.0048)
STAGE_TWO_DEFAULTS = HyperParams(alpha=0.2, beta=2.0, gamma=0.0)


@dataclass(frozen=True)
class Candidate:
    """One correspondence proposal: an object-frame 3D point with confidence."""

    coord: tuple[float, float, float]
    confidence: float
    source_pixel: int  # 0..3, position inside the node's 2x2 block
    source_tree: int   # 0..2

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractViolation("confidence outside [0,1]")
        if not 0 <= self.source_pixel <= 3:
            raise ContractViolation("source_pixel outside 0..3")
        if not 0 <= self.source_tree <= 2:
            raise ContractViolation("source_tree outside 0..2")
        object.__setattr__(self, "coord", tuple(float(x) for x in self.coord))
        if not np.isfinite(self.coord).all():
            raise ContractViolation("object coordinate l is not finite")


@dataclass(frozen=True)
class NodeObservation:
    x: tuple[float, float, float]  # camera-space point, meters
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if len(self.candidates) > MAX_CANDIDATES:
            raise ContractViolation(f"more than {MAX_CANDIDATES} candidates")
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not np.isfinite(self.x).all():
            raise ContractViolation("camera point x is not finite")
        object.__setattr__(self, "candidates", tuple(self.candidates))

    @property
    def outlier_label(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class SceneObservation:
    grid_width: int
    grid_height: int
    nodes: tuple[NodeObservation, ...]
    object_diameter: float

    def __post_init__(self):
        if self.grid_width < 1 or self.grid_height < 1:
            raise ContractViolation("grid dimensions must be >= 1")
        if len(self.nodes) != self.grid_width * self.grid_height:
            raise ContractViolation("node count does not match the grid")
        if not 0 < self.object_diameter < INF:
            raise ContractViolation("object_diameter must be positive and finite")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_position(self, node: int) -> tuple[int, int]:
        return divmod(node, self.grid_width)

    def points(self) -> np.ndarray:
        return np.array([n.x for n in self.nodes], dtype=float)

    def outlier_labels(self) -> np.ndarray:
        return np.array([n.outlier_label for n in self.nodes], dtype=np.int64)


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
                              keep: int = 48, skip: int = 8) -> tuple[tuple[int, int], ...]:
    """Connect each node to its 9th..56th nearest grid neighbours.

    Neighbours are ranked by Euclidean distance on the node grid with ties
    broken by row-major index; the closest ``skip`` are excluded and the next
    ``keep`` connected.  The returned edge set is the symmetric union,
    deduplicated and canonically ordered (u < v).

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
    lower, upper = np.divmod(np.unique(np.concatenate(keys)), n)
    return tuple(zip(lower.tolist(), upper.tolist()))


def _inlier_unary(candidate: Candidate, hp: HyperParams) -> float:
    return (1.0 - candidate.confidence) * hp.alpha


def _outlier_unary(node: NodeObservation, hp: HyperParams) -> float:
    # summed over the candidates the node actually has; divisor fixed at 12
    return sum(c.confidence for c in node.candidates) * hp.alpha / MAX_CANDIDATES


def build_stage_one_model(scene: SceneObservation, hp: HyperParams,
                          keep: int = 48, skip: int = 8) -> GraphicalModel:
    """Sparse multi-label model over the full grid; pairwise tables are lazy.

    An edge table holds the geometric costs between candidate pairs (inf when
    the camera points are further apart than the diameter), gamma on
    candidate/outlier transitions and zero on outlier/outlier.
    """
    unary = []
    for node in scene.nodes:
        u = [_inlier_unary(c, hp) for c in node.candidates]
        u.append(_outlier_unary(node, hp))
        unary.append(np.array(u))
    edges = build_sparse_neighborhood(scene.grid_width, scene.grid_height,
                                      keep=keep, skip=skip)

    coords = [np.array([c.coord for c in n.candidates]).reshape(-1, 3)
              for n in scene.nodes]
    coord_sq = [(c ** 2).sum(axis=1) for c in coords]
    points = scene.points()
    diameter = scene.object_diameter

    def table_fn(u, v):
        ku, kv = coords[u].shape[0], coords[v].shape[0]
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
        labels_per_node=tuple(n.outlier_label + 1 for n in scene.nodes),
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
    grid_nodes = sorted(set(int(u) for u in inliers))
    if not grid_nodes:
        raise ContractViolation("stage two needs at least one inlier")
    unary, coords = [], []
    for g in grid_nodes:
        node = scene.nodes[g]
        l = int(stage_one_labels[g])
        if not 0 <= l < len(node.candidates):
            raise ContractViolation(f"inlier node {g} has no stage-one candidate")
        unary.append(np.array([_outlier_unary(node, hp),
                               _inlier_unary(node.candidates[l], hp)]))
        coords.append(node.candidates[l].coord)
    cost = pairwise_cost(coords, [scene.nodes[g].x for g in grid_nodes],
                         scene.object_diameter)
    rows, cols = np.triu_indices(len(grid_nodes), 1)
    tables = np.zeros((rows.size, 2, 2))
    tables[:, 0, 1] = tables[:, 1, 0] = hp.gamma
    tables[:, 1, 1] = cost[rows, cols]
    return GraphicalModel(
        labels_per_node=(2,) * len(grid_nodes),
        unary=unary,
        edges=np.stack([rows, cols], axis=1),
        pairwise=tables,
        pairwise_weight=hp.beta,
    )


@dataclass(frozen=True)
class PoseConsistentPixel:
    node: int
    pixel_row: int
    pixel_col: int
    coord: tuple[float, float, float]


def pose_consistent_pixels(scene: SceneObservation, labeling) -> list[PoseConsistentPixel]:
    """The single source pixel of each inlier node's winning candidate.

    Outlier and unlabeled nodes emit nothing.  Accepts a full labeling or a
    PartialLabeling over the grid.
    """
    if isinstance(labeling, PartialLabeling):
        labels = labeling.assignment
    else:
        labels = [int(l) for l in labeling]
    if len(labels) != scene.node_count:
        raise ContractViolation("labeling size does not match the grid")
    out = []
    for u, l in enumerate(labels):
        node = scene.nodes[u]
        if l == UNLABELED or l == node.outlier_label:
            continue
        if not 0 <= l < len(node.candidates):
            raise ContractViolation(f"label {l} out of range at node {u}")
        cand = node.candidates[l]
        r, c = scene.node_position(u)
        out.append(PoseConsistentPixel(
            node=u,
            pixel_row=2 * r + cand.source_pixel // 2,
            pixel_col=2 * c + cand.source_pixel % 2,
            coord=cand.coord,
        ))
    return out
