"""Scene observations and construction of the two optimization stages.

A scene is one set of read-only per-node arrays (``SceneObservation``): each
node is a 2x2 pixel block with a camera point and up to 12 correspondence
candidates, padded to 12, and every consumer indexes those arrays.  Stage
one is a sparse multi-label model over the full node grid (a node's labels
are its candidates plus an outlier label, always last): the stage-one
energy restricted to the labels an optimum can use.  Candidates that
dead-end elimination proves unused are +inf (most of them by a degree bound
that reads no geometry), and only edges between nodes that keep a candidate
carry (lazy) tables.  Its neighbourhood is built once per grid and shared
read-only.  Stage two is a fully-connected two-label master model over the
stage-one inlier nodes, label 1 meaning "keep the stage-one candidate" and
label 0 meaning outlier.  The master's tables are built up front, and every
stage-two test of "within the object diameter" reads
``pairwise_distances``."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import INF, ContractViolation, GraphicalModel, weighted_table

MAX_CANDIDATES = 12  # 4 pixels x 3 trees


@dataclass(frozen=True)
class HyperParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        # written so that NaN fails the test; beta * gamma is an edge's
        # cost of an outlier next to an inlier, so it must not overflow
        if not (0 < self.alpha < INF and 0 <= self.beta < INF and 0 <= self.gamma < INF
                and self.beta * self.gamma < INF):
            raise ContractViolation("require finite alpha > 0, beta >= 0 and gamma >= 0 "
                                    f"with a finite beta * gamma: {self}")


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
    error names the entry as ``<array>[u]`` or ``<array>[u][j]`` (for
    example ``confidence[5][2]``), which is also its path in a scene file.
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
        for name, bad, what in (
                ("candidate_count", (count < 0) | (count > MAX_CANDIDATES),
                 f"outside 0..{MAX_CANDIDATES}"),
                ("points", ~np.isfinite(self.points).all(axis=1), "not finite"),
                ("confidence", ~((conf >= 0.0) & (conf <= 1.0)), "outside [0,1]"),
                ("source_pixel", (pixel < 0) | (pixel > 3), "outside 0..3"),
                ("source_tree", (tree < 0) | (tree > 2), "outside 0..2"),
                ("coords", ~np.isfinite(self.coords).all(axis=2), "not finite")):
            if bad.any():
                at = "".join(f"[{i}]" for i in np.argwhere(bad)[0])
                raise ContractViolation(f"field '{name}{at}' is {what}")
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


@functools.lru_cache(maxsize=8)
def build_sparse_neighborhood(grid_width: int, grid_height: int,
                              keep: int = 48, skip: int = 8) -> np.ndarray:
    """Connect each node to its 9th..56th nearest grid neighbours.

    Neighbours are ranked by Euclidean distance on the node grid with ties
    broken by row-major index; the closest ``skip`` are excluded and the next
    ``keep`` connected.  The returned edge set is the symmetric union,
    deduplicated, as an (E, 2) int64 array of rows (u, v) with u < v in
    increasing order.  It depends on the arguments alone, so it is built
    once per argument tuple (the last few are memoised) and every caller
    shares one read-only array.

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
    edges = np.stack(np.divmod(np.unique(np.concatenate(keys)), n), axis=1)
    edges.flags.writeable = False
    return edges


def _inlier_unary(confidence, hp: HyperParams):
    return (1.0 - confidence) * hp.alpha


def _outlier_unary(scene: SceneObservation, hp: HyperParams) -> np.ndarray:
    # summed in candidate order (the zero padding adds nothing), divided by a
    # fixed 12; a cumsum, since numpy's pairwise .sum(axis=1) moves the last bit
    return np.cumsum(scene.confidence, axis=1)[:, -1] * hp.alpha / MAX_CANDIDATES


#: edges per step of the elimination pass; bounds its (chunk, 12, 12) temporaries
ELIMINATION_CHUNK = 1024


def _refuse_edges(bad: np.ndarray, u: np.ndarray, v: np.ndarray, what: str) -> None:
    if bad.any():
        e = np.flatnonzero(bad)[0]
        raise ContractViolation(f"stage-one edge ({u[e]},{v[e]}): {what}")


def _candidate_minima(scene: SceneObservation, coord_sq: np.ndarray,
                      u: np.ndarray, v: np.ndarray,
                      blocks: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column minima of the candidate blocks C of edges (u[e], v[e]).

    Entry [e, i] of the first (E, 12) array is min_k C_e(i, k) over v's
    candidates k, and of the second min_i C_e(i, k) over u's candidates.
    Both are inf past a node's count, where the other node has no candidate,
    and on every edge whose camera points are further apart than the
    diameter.  Only the edges of the mask ``blocks`` (all by default) get a
    block; the others' minima are inf too.  The arithmetic is the lazy
    table's before weighting, and rounding a product by β >= 0 keeps order,
    so ``weighted_table`` of the minima gives the table's minima to the last
    bit.  A non-finite camera distance (checked on every edge) or a NaN
    object-frame distance raises, naming the edge.
    """
    d = scene.points[u] - scene.points[v]
    with np.errstate(over="ignore"):
        x_dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    _refuse_edges(~np.isfinite(x_dist), u, v, "camera distance is not finite")
    rows = np.full((u.size, MAX_CANDIDATES), INF)
    cols = rows.copy()
    near = x_dist <= scene.object_diameter
    near = np.flatnonzero(near if blocks is None else near & blocks)
    if near.size:
        a, b = u[near], v[near]
        with np.errstate(over="ignore", invalid="ignore"):
            cost = coord_sq[a][:, :, None] + coord_sq[b][:, None, :]
            cost -= 2.0 * scene.coords[a] @ scene.coords[b].transpose(0, 2, 1)
            np.sqrt(np.maximum(cost, 0.0, out=cost), out=cost)
        cost -= x_dist[near][:, None, None]
        np.abs(cost, out=cost)
        count_a, count_b = scene.candidate_count[a], scene.candidate_count[b]
        if (count_a < MAX_CANDIDATES).any() or (count_b < MAX_CANDIDATES).any():
            slot = np.arange(MAX_CANDIDATES)
            cost[(slot >= count_a[:, None])[:, :, None]
                 | (slot >= count_b[:, None])[:, None, :]] = INF
        # slab by slab: numpy's reductions over 12-long axes are slower
        row, col = cost[:, :, 0].copy(), cost[:, 0, :].copy()
        for k in range(1, MAX_CANDIDATES):
            np.minimum(row, cost[:, :, k], out=row)
            np.minimum(col, cost[:, k, :], out=col)
        # np.minimum keeps NaN, so every NaN of a block reaches its row minima
        _refuse_edges(np.isnan(row).any(axis=1), a, b, "object-frame distance is NaN")
        rows[near], cols[near] = row, col
    return rows, cols


def _worst_change(minima: np.ndarray, hp: HyperParams) -> np.ndarray:
    """max(−βγ, βγ − β·m) per candidate minimum m, β·m as ``weighted_table``
    gives it (inf at m = inf, also at β = 0): the most by which an edge's
    weighted cost can change when its node switches from that candidate to
    the outlier."""
    bg = hp.beta * hp.gamma
    return np.maximum(-bg, bg - weighted_table(minima, hp.beta))


def _eliminate_candidates(scene: SceneObservation, hp: HyperParams, unary: np.ndarray,
                          edges: np.ndarray, coord_sq: np.ndarray) -> np.ndarray:
    """(n, 12) mask of the candidates that no optimum of the stage-one energy
    uses (dead-end elimination toward the outlier label o).

    Candidate i of node u goes when U_u(o) − U_u(i) + Σ_e max_k [W_e(o, k) −
    W_e(i, k)] < 0, the sum over u's edges e and the max over all labels k
    of the neighbour, W the β-weighted table.  Then switching u from i to o
    lowers the energy of every labeling that uses i, strictly.  For these
    tables the max is ``_worst_change`` of min_k C_e(i, k), so one chunked
    pass over the edges reads each edge's candidate minima and builds no
    table.

    Each worst change is at most βγ, in floats too, so a degree bound
    decides most candidates with no geometry: i goes if D + d·βγ < 0, with
    d = deg(u) and D = U_u(o) − U_u(i) rounded as the full rule rounds it.
    Its rounding margin: any float sum of d terms in [−βγ, βγ] is within
    g·d·βγ of the exact sum, g = d·r / (1 − d·r) and r = ε/2 the unit
    roundoff, so the full rule's sum is at most d·βγ·(1 + g); the float
    product d·βγ is at least d·βγ·(1 − r).  So a float bound score below
    −d·βγ·(g + r) ≈ −d·(d + 1)·r·βγ makes the full rule's score negative
    too (a float sum has the sign of the exact one).  The bound is taken
    only below −d·(d + 2)·ε·βγ, twice that, which also covers the rounding
    of the margin itself.

    A node whose candidates all go this way is decided, and only an edge
    with an undecided end gets its cost block, in the same 1,024-edge
    chunks over the same edge order, so every undecided node's sum is the
    full rule's bit for bit.  Every camera distance is still checked, in
    chunk order.  When 4·max|l|² overflows, a block may hold a NaN; then
    every edge gets its block, so the NaN refused is the one the full rule
    meets first.
    """
    n, slot = scene.node_count, np.arange(MAX_CANDIDATES)
    candidate = slot < scene.candidate_count[:, None]
    bg, degree = hp.beta * hp.gamma, np.bincount(edges.ravel(), minlength=n)[:, None]
    outlier = unary[np.arange(n), scene.candidate_count]
    gain = outlier[:, None] - unary[:, :MAX_CANDIDATES]
    with np.errstate(over="ignore"):
        bounded = gain + degree * bg < -(degree * (degree + 2) * np.finfo(float).eps * bg)
        nan_free = np.isfinite(4.0 * coord_sq.max())
    undecided = (candidate & ~bounded).any(axis=1)
    total = np.zeros(n * MAX_CANDIDATES)
    for lo in range(0, len(edges), ELIMINATION_CHUNK):
        u, v = edges[lo:lo + ELIMINATION_CHUNK].T
        blocks = undecided[u] | undecided[v] if nan_free else None
        for node, minima in zip((u, v), _candidate_minima(scene, coord_sq, u, v, blocks)):
            # only the bins of the chunk's node range, so a chunk costs no O(n)
            lo, hi = node.min() * MAX_CANDIDATES, (node.max() + 1) * MAX_CANDIDATES
            total[lo:hi] += np.bincount((node[:, None] * MAX_CANDIDATES + slot).ravel() - lo,
                                        weights=_worst_change(minima, hp).ravel(),
                                        minlength=hi - lo)
    # a decided node's sum is partial, but the bound already took all its
    # candidates; elsewhere the bound takes a subset of what the score does
    score = gain + total.reshape(n, MAX_CANDIDATES)
    return candidate & (bounded | (score < 0))


def build_stage_one_model(scene: SceneObservation, hp: HyperParams,
                          keep: int = 48, skip: int = 8) -> GraphicalModel:
    """The stage-one energy restricted to the labels an optimum can use.

    The energy is a sparse multi-label model over the full grid: an edge
    table holds β times the geometric costs between candidate pairs (inf
    when the camera points are further apart than the diameter, also at
    β = 0), βγ on candidate/outlier transitions and zero on
    outlier/outlier.
    ``_eliminate_candidates`` removes candidates no optimum uses; a node left
    with its outlier label alone is fixed.  The model keeps every node and
    label index: an eliminated candidate's unary is +inf, only edges between
    free nodes are kept, their tables lazy, and each fixed neighbour adds
    its βγ (its table's outlier column) to a free node's candidate unaries.
    So every labeling that uses no eliminated label has its full energy, up
    to summation order, and the optima are the full model's.
    """
    count = scene.candidate_count.tolist()
    unary = np.pad(_inlier_unary(scene.confidence, hp), ((0, 0), (0, 1)))
    unary[np.arange(scene.node_count), scene.candidate_count] = _outlier_unary(scene, hp)
    unary[np.arange(MAX_CANDIDATES + 1) > scene.candidate_count[:, None]] = INF
    edges = build_sparse_neighborhood(scene.grid_width, scene.grid_height,
                                      keep=keep, skip=skip)

    with np.errstate(over="ignore"):  # a NaN distance this leads to is refused below
        coord_sq = (scene.coords ** 2).sum(axis=2)
    eliminated = _eliminate_candidates(scene, hp, unary, edges, coord_sq)
    candidate = np.arange(MAX_CANDIDATES) < scene.candidate_count[:, None]
    free = (candidate & ~eliminated).any(axis=1)
    kept = free[edges].all(axis=1)
    fixed_neighbours = np.bincount(edges[~kept].ravel(), minlength=scene.node_count)
    unary[:, :MAX_CANDIDATES] += np.where(candidate, fixed_neighbours[:, None]
                                          * (hp.beta * hp.gamma), 0.0)
    unary[:, :MAX_CANDIDATES][eliminated] = INF
    edges = edges[kept]

    diameter = scene.object_diameter
    # per-node views, made once: slicing in every call slows the table build
    points, coords, coord_sq = list(scene.points), list(scene.coords), list(coord_sq)

    def table_fn(u, v):
        ku, kv = count[u], count[v]
        table = np.full((ku + 1, kv + 1), hp.gamma)
        table[ku, kv] = 0.0
        if ku and kv:
            # the pass's arithmetic on one edge, step for step, over all 12
            # slots: the root of a 1-D dot product (pairwise_distances differs
            # in the last bit on ~10% of pairs) and a 12x12 product (a smaller
            # one differs in the last bit)
            d = points[u] - points[v]
            x_dist = math.sqrt(d @ d)
            if x_dist > diameter:
                table[:ku, :kv] = INF
            else:
                d2 = coord_sq[u][:, None] + coord_sq[v]
                d2 -= 2.0 * coords[u] @ coords[v].T
                np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
                d2 -= x_dist
                table[:ku, :kv] = np.abs(d2[:ku, :kv])
        return weighted_table(table, hp.beta)

    return GraphicalModel(
        labels_per_node=tuple(k + 1 for k in count),
        unary=unary,
        edges=edges,
        table_fn=table_fn,
    )


def build_stage_two_master(scene: SceneObservation, hp: HyperParams,
                           inliers, stage_one_labels: Sequence[int]) -> GraphicalModel:
    """Fully-connected binary master over the stage-one inlier nodes.

    Master node k corresponds to ``sorted(inliers)[k]``; label 1 keeps that
    node's stage-one candidate, label 0 is the outlier.  Every table is built
    here, β-weighted: γ at (0,1) and (1,0) and the ``pairwise_cost`` entry
    at (1,1).  With the default gamma = 0 the construction is already in
    zero form.
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
        pairwise=weighted_table(tables, hp.beta),
    )
