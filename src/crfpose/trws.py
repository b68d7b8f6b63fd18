"""Tree-reweighted message passing on monotone chains, one dependency level at a time.

The edge set is decomposed into monotone chains w.r.t. the fixed row-major
node order (greedy smallest-successor extension).  Each chain owns its edges'
full pairwise costs and an equal share of every member node's unary cost.
The forward sweep visits nodes in increasing order, refreshes the chain DP
messages entering each node from its predecessors and averages the per-chain
min-marginals; the backward sweep does the same in decreasing order.  The
dual bound is the sum of chain minima read off at the end of each backward
sweep.  Averaging never decreases the bound, infinities propagate as
infinities (never NaN), and the whole routine is deterministic.

Each iteration ends by rounding a labeling and taking its energy from the
compiled arrays; energy minus bound is a gap that certifies the labeling
(Kolmogorov, TPAMI 2006).  The solver stops at the first iteration whose
gap is at most ``GAP_TOLERANCE * max(1, |energy|)``, and otherwise after
``TrwsConfig.iterations``.

A node's update reads only its chain neighbours, which are graph neighbours.
So each node gets a level, 1 + the largest level among its lower-index
neighbours: no edge joins two nodes of one level, and every lower-index
neighbour sits in an earlier level.  A sweep updates a whole level in one
array step, and the rounding pass labels a whole level at once; both
give the node-by-node result to the last bit.  That holds because every sum
keeps the order numpy gives a single node's (slots, labels) block: rows
added one by one, except that a single-label node's lone column of 8 or
more rows is added pairwise.  Rounding adds the predecessor rows in slot
order.  Minima are exact in any order.

Every pairwise table is held once, β-weighted and INF-padded, in one
(E, Lmax, Lmax) array indexed by edge id, and the unaries are the model's
(n, Lmax) array, transposed.  The per-slot messages and unary shares are
(Lmax, S) arrays, INF past each node's label count, with the slots
numbered by (level, node, chain order) so that a level is one column
range.  What a slot passes on along its chain is recomputed as message +
share where it is read, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import INF, ContractViolation, GraphicalModel, weighted_table

#: edges weighted per step when the edge tensor is built
WEIGHT_CHUNK = 2048

#: relative gap at which a rounded labeling certifies the bound; it accepts
#: the slightly negative gaps that rounding produces
GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TrwsConfig:
    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ContractViolation("iterations must be >= 1")


@dataclass
class TrwsResult:
    labeling: tuple[int, ...]
    lower_bound: float
    bound_history: tuple[float, ...]
    gap: float  # the labeling's energy - lower_bound; inf if that energy is inf
    diagnostics: dict = field(default_factory=dict)


def monotone_chains(node_count: int, edges) -> list[list[int]]:
    """Cover all edges by node-index-increasing paths, deterministically."""
    forward = [[] for _ in range(node_count)]
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        forward[u].append(v)
    for lst in forward:
        lst.sort(reverse=True)  # pop() yields the smallest successor first
    chains = []
    for start in range(node_count):
        while forward[start]:
            chain = [start]
            cur = start
            while forward[cur]:
                cur = forward[cur].pop()
                chain.append(cur)
            chains.append(chain)
    return chains


def node_levels(node_count: int, edges) -> np.ndarray:
    """Per node, 1 + the largest level among its lower-index neighbours (1 if none)."""
    level = [1] * node_count
    ends = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    # by upper end: a lower end's level is final before any edge leaves it
    ends = ends[np.argsort(ends[:, 1], kind="stable")]
    for u, v in ends.tolist():
        level[v] = max(level[v], level[u] + 1)
    return np.array(level, dtype=np.int64)


class _Level:
    """Index arrays of one level, whose slots are the column range ``cols``."""

    def __init__(self, cols, slot_node, rank, prev, next_, prev_edge, labels):
        lo = cols.start
        self.cols = cols
        self.rank = rank[cols]
        starts = np.flatnonzero(self.rank == 0)
        self.nodes = slot_node[lo + starts]
        self.count = np.diff(np.append(starts, self.rank.size))
        self.kmax = int(self.count.max())
        self.local = np.cumsum(self.rank == 0) - 1  # position of each slot's node
        # single-label nodes with >= 8 slots, grouped by slot count
        lone = (labels[self.nodes] == 1) & (self.count >= 8)
        self.lone_columns = [np.flatnonzero(lone & (self.count == k))
                             for k in np.unique(self.count[lone])]
        self.prev_rows = np.flatnonzero(prev[cols] >= 0)
        self.prev_at = lo + self.prev_rows
        self.prev_slots = prev[self.prev_at]
        self.prev_edges = prev_edge[self.prev_at]
        self.next_at = lo + np.flatnonzero(next_[cols] >= 0)
        self.next_slots = next_[self.next_at]
        self.next_edges = prev_edge[self.next_slots]


def _chain_slots(model: GraphicalModel, labels: np.ndarray):
    """Chain slots numbered by (level, node, chain order), split into levels.

    Returns per slot its node, the chain heads' slots in chain order, the
    levels and the isolated nodes.
    """
    n = model.node_count
    # slots in chain order: node, neighbouring slots, edge id of the link
    # from the predecessor (-1 where there is none)
    old_node, heads = [], []
    for chain in monotone_chains(n, model.edges):
        heads.append(len(old_node))
        old_node += chain
    old_node = np.array(old_node, np.int64)
    index = np.arange(old_node.size)
    is_head = np.isin(index, heads)
    old_prev = np.where(is_head, -1, index - 1)
    old_next = np.where(np.append(is_head[1:], True), -1, index + 1)
    # a link (a, b) has a < b, so its edge id is found by the key a * n + b
    keys = model.edges[:, 0] * n + model.edges[:, 1]
    by_key = np.argsort(keys)
    links = np.flatnonzero(~is_head)
    old_edge = np.full(old_node.size, -1, np.int64)
    old_edge[links] = by_key[np.searchsorted(keys[by_key],
                                             old_node[links - 1] * n + old_node[links])]

    # renumber by (level, node, chain order); lexsort is stable
    level = node_levels(n, model.edges)
    perm = np.lexsort((old_node, level[old_node]))
    new = np.empty_like(perm)
    new[perm] = index
    slot_node = old_node[perm]
    prev = np.where(old_prev[perm] >= 0, new[old_prev[perm]], -1)
    next_ = np.where(old_next[perm] >= 0, new[old_next[perm]], -1)
    prev_edge = old_edge[perm]
    # a node's slots are contiguous; rank is the row within them
    starts = np.diff(slot_node, prepend=-1) != 0
    rank = index - np.maximum.accumulate(np.where(starts, index, 0))
    bounds = np.append(np.unique(level[slot_node], return_index=True)[1], index.size)
    levels = [_Level(slice(lo, hi), slot_node, rank, prev, next_, prev_edge, labels)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    isolated = np.setdiff1d(np.arange(n), slot_node).tolist()
    return slot_node, new[heads], levels, isolated


class _Compiled:
    """Chain structure flattened into level-ordered slot arrays.

    ``tables[e]`` is edge e's β-weighted table, INF-padded to (Lmax, Lmax),
    INF wherever the model's entry is ±inf (also at β = 0).  Edges are stored
    as (u, v) with u < v and chains climb the node order, so a link from a
    predecessor is always (v, u) with v < u and one to a successor (u, v)
    with u < v: no table is ever transposed.
    """

    def __init__(self, model: GraphicalModel):
        n = model.node_count
        labels = np.array(model.labels_per_node, dtype=np.int64)
        self.lmax = lmax = int(labels.max())
        self.tables = np.full((model.edge_count, lmax, lmax), INF)
        source = model.pairwise  # the model's own (E, Lmax, Lmax) stack
        if model.table_fn is not None:
            k = model.labels_per_node
            for e, (u, v) in enumerate(model.edges.tolist()):
                self.tables[e, : k[u], : k[v]] = model.edge_table(e)
            source = self.tables
        # in chunks, so no temporary is full-size
        for lo in range(0, model.edge_count, WEIGHT_CHUNK):
            chunk = slice(lo, lo + WEIGHT_CHUNK)
            self.tables[chunk] = weighted_table(source[chunk], model.pairwise_weight)
        self.unary = np.ascontiguousarray(model.unary.T)  # (Lmax, n), C order as the sweeps expect

        self.slot_node, self.head_slots, self.levels, self.isolated = \
            _chain_slots(model, labels)
        slot_node = self.slot_node
        self.fwd = np.where(np.arange(lmax)[:, None] < labels[slot_node], 0.0, INF)
        self.bwd = self.fwd.copy()
        self.theta = self.unary[:, slot_node] / np.bincount(slot_node, minlength=n)[slot_node]
        self.edges = model.edges

    def outgoing(self, msg: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """What ``slots`` pass on along their chains in the current sweep.

        ``msg + theta`` is final once the slots' level is done in the sweep.
        """
        return msg[:, slots] + self.theta[:, slots]

    def node_sums(self, values: np.ndarray, lv: _Level) -> np.ndarray:
        """(Lmax, nodes) sums of a level's per-slot columns, in slot order."""
        block = np.zeros((lv.kmax, self.lmax, lv.nodes.size))
        block[lv.rank, :, lv.local] = values.T
        sums = block.sum(axis=0)  # adds the rows one by one; zero padding is exact
        for cols in lv.lone_columns:
            k = lv.count[cols[0]]
            sums[0, cols] = np.ascontiguousarray(block[:k, 0, cols].T).sum(axis=1)
        return sums

    def average(self, lv: _Level, flagged: np.ndarray) -> None:
        """Replace the level's unary shares by averaged min-marginals."""
        fwd, bwd = self.fwd[:, lv.cols], self.bwd[:, lv.cols]
        mbar = self.node_sums(fwd + self.theta[:, lv.cols] + bwd, lv) / lv.count
        finite = np.isfinite(mbar)
        flagged[lv.nodes[~finite.any(axis=0)]] = True
        with np.errstate(invalid="ignore"):
            self.theta[:, lv.cols] = np.where(finite[:, lv.local],
                                              mbar[:, lv.local] - fwd - bwd, INF)

    def round_labeling(self) -> tuple[np.ndarray, np.ndarray]:
        """A labeling and its fallback mask, from one conditional forward pass.

        Each node minimizes its original costs given its predecessors'
        labels, with future guidance through the backward messages; a node
        with no finite score, isolated ones included, keeps its unary argmin.
        """
        labeling = self.unary.argmin(axis=0)
        fallback = ~np.isfinite(self.unary).any(axis=0)
        for lv in self.levels:
            score = self.unary[:, lv.nodes] + self.node_sums(self.bwd[:, lv.cols], lv)
            rows = np.zeros((lv.kmax, self.lmax, lv.nodes.size))
            prev_labels = labeling[self.slot_node[lv.prev_slots]]
            rows[lv.rank[lv.prev_rows], :, lv.local[lv.prev_rows]] = \
                self.tables[lv.prev_edges, prev_labels]
            for row in rows:  # predecessor rows in slot order; zero rows change no score
                score += row
            finite = np.isfinite(score).any(axis=0)
            labeling[lv.nodes] = np.where(finite, score.argmin(axis=0), labeling[lv.nodes])
            fallback[lv.nodes] = ~finite
        return labeling, fallback

    def energy(self, labeling: np.ndarray) -> float:
        """Unary plus β-weighted pairwise energy of ``labeling``, from the
        compiled arrays (inf if any term is); the model constant is not in it."""
        u, v = self.edges.T
        return float(self.unary[labeling, np.arange(labeling.size)].sum()
                     + self.tables[np.arange(u.size), labeling[u], labeling[v]].sum())


def solve_trws(model: GraphicalModel, cfg: TrwsConfig | None = None) -> TrwsResult:
    """Run TRW-S until a rounded labeling certifies the bound, or for
    ``cfg.iterations`` iterations.

    Out of contract: on a model with infinite costs where some node has no
    label that fits every neighbour, the greedy rounding can return a
    labeling of infinite energy (``gap`` inf, the node listed under
    ``unary_fallback_nodes``) even when a finite optimum exists.  Stage one
    never meets this, since its outlier label is finite against every label.
    """
    cfg = cfg or TrwsConfig()
    n = model.node_count
    if n == 0:
        raise ContractViolation("empty model")
    comp = _Compiled(model)
    tables = comp.tables
    flagged = np.zeros(n, dtype=bool)

    bound_history = []
    for _ in range(cfg.iterations):
        for lv in comp.levels:  # forward sweep
            if lv.prev_at.size:
                t = np.ascontiguousarray(tables[lv.prev_edges].transpose(1, 2, 0))
                t += comp.outgoing(comp.fwd, lv.prev_slots)[:, None, :]
                comp.fwd[:, lv.prev_at] = t.min(axis=0)
            comp.average(lv, flagged)
        for lv in reversed(comp.levels):  # backward sweep
            if lv.next_at.size:
                t = np.ascontiguousarray(tables[lv.next_edges].transpose(1, 2, 0))
                t += comp.outgoing(comp.bwd, lv.next_slots)[None, :, :]
                comp.bwd[:, lv.next_at] = t.min(axis=1)
            comp.average(lv, flagged)
        # isolated nodes summed as the energy sums its unaries, so that an
        # edgeless model's gap is exactly 0
        bound = model.constant + float(model.unary[comp.isolated].min(axis=1).sum())
        if comp.head_slots.size:
            bound += float(comp.outgoing(comp.bwd, comp.head_slots).min(axis=0).sum())
        bound_history.append(bound)
        labeling, fallback = comp.round_labeling()
        energy = comp.energy(labeling) + model.constant
        if energy < INF and energy - bound <= GAP_TOLERANCE * max(1.0, abs(energy)):
            break

    diagnostics = {}
    if flagged.any():
        diagnostics["infinite_min_marginal_nodes"] = np.flatnonzero(flagged).tolist()
    if fallback.any():
        diagnostics["unary_fallback_nodes"] = np.flatnonzero(fallback).tolist()
    return TrwsResult(
        labeling=tuple(labeling.tolist()),
        lower_bound=bound,
        bound_history=tuple(bound_history),
        gap=energy - bound if energy < INF else INF,
        diagnostics=diagnostics,
    )


def extract_inliers(model: GraphicalModel, labeling, outlier_label) -> np.ndarray:
    """Sorted int64 array of the nodes whose label differs from their
    per-node outlier label."""
    labeling = np.asarray(labeling, dtype=np.int64)
    if labeling.shape != (model.node_count,) or np.shape(outlier_label) != labeling.shape:
        raise ContractViolation("labeling and outlier labels must give one label per node")
    return np.flatnonzero(labeling != np.asarray(outlier_label, dtype=np.int64))
