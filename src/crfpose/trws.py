"""Tree-reweighted message passing on monotone chains, node by node.

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

Every pairwise table is held once, INF-padded, in one (E, Lmax, Lmax)
array indexed by edge id: the model's own stack, or one built from its
lazy tables.  The tables are the energy's pairwise terms, β already
applied, and the unaries are the model's (n, Lmax) array.  The per-slot
messages and unary shares are (S, Lmax) arrays, INF past each node's label
count, with the slots numbered by (node, chain order) so that a node's
slots are one row range.  What a slot passes on along its chain is
recomputed as message + share where it is read, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import INF, ContractViolation, GraphicalModel

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


class _Node:
    """One node with slots: its row range ``rows``, label count ``k`` and
    the slots linked to its slots along their chains."""

    def __init__(self, u, rows, k, slot_node, prev, next_, prev_edge):
        self.u, self.rows, self.k = u, rows, k
        self.prev_at = rows.start + np.flatnonzero(prev[rows] >= 0)
        self.prev_slots = prev[self.prev_at]
        self.prev_nodes = slot_node[self.prev_slots]
        self.prev_edges = prev_edge[self.prev_at]
        self.next_at = rows.start + np.flatnonzero(next_[rows] >= 0)
        self.next_slots = next_[self.next_at]
        self.next_edges = prev_edge[self.next_slots]


def _chain_slots(model: GraphicalModel):
    """Chain slots numbered by (node, chain order).

    Returns per slot its node, its predecessor and successor slots and the
    edge id of the link from its predecessor (-1 where there is none), and
    the chain heads' slots in chain order.
    """
    edge_id = {pair: e for e, pair in enumerate(map(tuple, model.edges.tolist()))}
    # per slot in chain order: its node and the edge id of its link
    old_node, old_edge, heads = [], [], []
    for chain in monotone_chains(model.node_count, model.edges):
        heads.append(len(old_node))
        old_node += chain
        old_edge += [-1] + [edge_id[link] for link in zip(chain, chain[1:])]
    old_node = np.array(old_node, np.int64)
    perm = np.argsort(old_node, kind="stable")
    new = np.argsort(perm)  # the inverse permutation
    prev_edge = np.array(old_edge, np.int64)[perm]
    linked = prev_edge >= 0
    prev = np.where(linked, new[perm - 1], -1)
    next_ = np.full_like(prev, -1)
    next_[prev[linked]] = np.flatnonzero(linked)
    return old_node[perm], prev, next_, prev_edge, new[heads]


class _Compiled:
    """Chain structure flattened into node-ordered slot arrays.

    ``tables[e]`` is edge e's table, INF-padded to (Lmax, Lmax): a
    materialized model's read-only stack itself, or the lazy tables built
    once into a new one.  Edges are stored as (u, v) with u < v and chains
    climb the node order, so a link from a predecessor is always (v, u)
    with v < u and one to a successor (u, v) with u < v: no table is ever
    transposed.
    """

    def __init__(self, model: GraphicalModel):
        n = model.node_count
        labels = np.array(model.labels_per_node, dtype=np.int64)
        lmax = int(labels.max())
        self.tables = model.pairwise
        if model.table_fn is not None:
            self.tables = np.full((model.edge_count, lmax, lmax), INF)
            k = model.labels_per_node
            for e, (u, v) in enumerate(model.edges.tolist()):
                self.tables[e, : k[u], : k[v]] = model.edge_table(e)
        self.unary = model.unary

        slot_node, prev, next_, prev_edge, self.head_slots = _chain_slots(model)
        bounds = np.append(np.flatnonzero(np.diff(slot_node, prepend=-1)), slot_node.size)
        self.nodes = [_Node(int(slot_node[lo]), slice(lo, hi), int(labels[slot_node[lo]]),
                            slot_node, prev, next_, prev_edge)
                      for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        self.isolated = np.setdiff1d(np.arange(n), slot_node).tolist()
        self.fwd = np.where(np.arange(lmax) < labels[slot_node, None], 0.0, INF)
        self.bwd = self.fwd.copy()
        self.theta = self.unary[slot_node] / np.bincount(slot_node, minlength=n)[slot_node, None]
        self.edges = model.edges

    def outgoing(self, msg: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """What ``slots`` pass on along their chains: final once their node
        is done in the current sweep."""
        return msg[slots] + self.theta[slots]

    def average(self, nd: _Node, flagged: np.ndarray) -> None:
        """Replace the node's unary shares by averaged min-marginals."""
        rows, k = nd.rows, nd.k
        fwd, bwd = self.fwd[rows, :k], self.bwd[rows, :k]
        # numpy's order over the (slots, k) slice is the order the pins hold
        mbar = (fwd + self.theta[rows, :k] + bwd).sum(axis=0) / (rows.stop - rows.start)
        finite = np.isfinite(mbar)
        if not finite.any():
            flagged[nd.u] = True
        with np.errstate(invalid="ignore"):
            self.theta[rows, :k] = np.where(finite, mbar - fwd - bwd, INF)

    def round_labeling(self) -> tuple[np.ndarray, np.ndarray]:
        """A labeling and its fallback mask, from one conditional forward pass.

        Each node minimizes its original costs given its predecessors'
        labels, with future guidance through the backward messages; a node
        with no finite score, isolated ones included, keeps its unary argmin.
        """
        labeling = self.unary.argmin(axis=1)
        fallback = ~np.isfinite(self.unary).any(axis=1)
        for nd in self.nodes:
            score = self.unary[nd.u, : nd.k] + self.bwd[nd.rows, : nd.k].sum(axis=0)
            for row in self.tables[nd.prev_edges, labeling[nd.prev_nodes], : nd.k]:
                score += row  # predecessor rows in slot order
            if np.isfinite(score).any():
                labeling[nd.u] = score.argmin()
            else:
                fallback[nd.u] = True
        return labeling, fallback

    def energy(self, labeling: np.ndarray) -> float:
        """Unary plus pairwise energy of ``labeling``, from the compiled
        arrays (inf if any term is); the model constant is not in it."""
        u, v = self.edges.T
        return float(self.unary[np.arange(labeling.size), labeling].sum()
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
        for nd in comp.nodes:  # forward sweep
            if nd.prev_at.size:
                t = tables[nd.prev_edges] + comp.outgoing(comp.fwd, nd.prev_slots)[:, :, None]
                comp.fwd[nd.prev_at] = t.min(axis=1)
            comp.average(nd, flagged)
        for nd in reversed(comp.nodes):  # backward sweep
            if nd.next_at.size:
                t = tables[nd.next_edges] + comp.outgoing(comp.bwd, nd.next_slots)[:, None, :]
                comp.bwd[nd.next_at] = t.min(axis=2)
            comp.average(nd, flagged)
        # isolated nodes summed as the energy sums its unaries, so that an
        # edgeless model's gap is exactly 0
        bound = model.constant + float(model.unary[comp.isolated].min(axis=1).sum())
        if comp.head_slots.size:
            bound += float(comp.outgoing(comp.bwd, comp.head_slots).min(axis=1).sum())
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
