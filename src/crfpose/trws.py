"""Sequential tree-reweighted message passing on monotone chains.

The edge set is decomposed into monotone chains w.r.t. the fixed row-major
node order (greedy smallest-successor extension).  Each chain owns its edges'
full pairwise costs and an equal share of every member node's unary cost.
A sweep visits nodes in order, refreshes the chain DP messages entering the
node, and averages the per-chain min-marginals; the dual bound is the sum of
chain minima read off at the end of each backward sweep.  Averaging never
decreases the bound, infinities propagate as infinities (never NaN), and the
whole routine is deterministic.  Every pairwise table is held once, β-weighted
and INF-padded, in one (E, Lmax, Lmax) array that the sweeps and the rounding
pass index by edge id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import INF, ContractViolation, GraphicalModel


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
    diagnostics: dict = field(default_factory=dict)


def monotone_chains(node_count: int, edges) -> list[list[int]]:
    """Cover all edges by node-index-increasing paths, deterministically."""
    forward = [[] for _ in range(node_count)]
    for u, v in edges:
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


class _Compiled:
    """Chain structure flattened into arrays for per-node batching.

    ``tables[e]`` is edge e's β-weighted table, INF-padded to (Lmax, Lmax),
    INF wherever the model's entry is inf (also at β = 0).  Chain links are
    edge ids.  Edges are stored as (u, v) with u < v and chains climb the
    node order, so a link from a predecessor is always (v, u) with v < u and
    one to a successor (u, v) with u < v: no table is ever transposed.
    """

    def __init__(self, model: GraphicalModel):
        n = model.node_count
        labels = model.labels_per_node
        self.labels = labels
        self.lmax = max(labels)
        w = model.pairwise_weight
        self.tables = np.full((model.edge_count, self.lmax, self.lmax), INF)
        edge_id = {}
        for e, (u, v) in enumerate(model.edges):
            t = model.edge_table(e)
            self.tables[e, : labels[u], : labels[v]] = np.where(np.isinf(t), INF, w * t)
            edge_id[(u, v)] = e

        # per slot: its node, neighbouring slots and the edge id of the link
        # from its predecessor (-1 where there is none)
        slot_node, slot_prev, slot_next, slot_edge = [], [], [], []
        head_slots = []
        for chain in monotone_chains(n, model.edges):
            first = len(slot_node)
            for i, u in enumerate(chain):
                slot_node.append(u)
                slot_prev.append(first + i - 1 if i > 0 else -1)
                slot_next.append(first + i + 1 if i + 1 < len(chain) else -1)
                slot_edge.append(edge_id[(chain[i - 1], u)] if i > 0 else -1)
            head_slots.append(first)
        self.slot_count = len(slot_node)
        self.slot_node = slot_node
        self.head_slots = np.array(head_slots, dtype=np.int64) if head_slots else np.empty(0, np.int64)

        slots_at = [[] for _ in range(n)]
        for s, u in enumerate(slot_node):
            slots_at[u].append(s)
        self.slots_at = [np.array(s, dtype=np.int64) for s in slots_at]
        self.isolated = [u for u in range(n) if not slots_at[u]]

        # per-node message blocks, padded cross-node store for gathering
        self.fwd = [np.zeros((len(slots_at[u]), labels[u])) for u in range(n)]
        self.bwd = [np.zeros((len(slots_at[u]), labels[u])) for u in range(n)]
        self.theta = []
        for u in range(n):
            k = len(slots_at[u])
            share = np.asarray(model.unary[u], dtype=float) / max(k, 1)
            self.theta.append(np.tile(share, (k, 1)))
        self.out_f = np.full((self.slot_count, self.lmax), INF)
        self.out_b = np.full((self.slot_count, self.lmax), INF)

        # rows within the node block that have a predecessor / successor,
        # the matching remote slot ids, and the edge ids of those links
        slot_prev, slot_next, slot_edge = (np.array(a, dtype=np.int64)
                                           for a in (slot_prev, slot_next, slot_edge))
        self.prev_rows, self.prev_slots, self.prev_edges = [], [], []
        self.next_rows, self.next_slots, self.next_edges = [], [], []
        for slots in self.slots_at:
            prev, nxt = slot_prev[slots], slot_next[slots]
            self.prev_rows.append(np.flatnonzero(prev >= 0))
            self.prev_slots.append(prev[prev >= 0])
            self.prev_edges.append(slot_edge[slots][prev >= 0])
            self.next_rows.append(np.flatnonzero(nxt >= 0))
            self.next_slots.append(nxt[nxt >= 0])
            self.next_edges.append(slot_edge[nxt[nxt >= 0]])


def _average(comp: _Compiled, u: int, flagged: set[int]) -> None:
    fwd, bwd = comp.fwd[u], comp.bwd[u]
    m = fwd + comp.theta[u] + bwd
    mbar = m.sum(axis=0) / m.shape[0]
    finite = np.isfinite(mbar)
    if not finite.any():
        flagged.add(u)
    with np.errstate(invalid="ignore"):
        comp.theta[u] = np.where(finite[None, :], mbar[None, :] - fwd - bwd, INF)


def solve_trws(model: GraphicalModel, cfg: TrwsConfig | None = None) -> TrwsResult:
    """Run TRW-S and round a labeling in a final conditional forward pass."""
    cfg = cfg or TrwsConfig()
    n = model.node_count
    if n == 0:
        raise ContractViolation("empty model")
    comp = _Compiled(model)
    labels = comp.labels
    flagged: set[int] = set()

    bound_history = []
    for _ in range(cfg.iterations):
        for u in range(n):  # forward sweep
            if comp.slots_at[u].size == 0:
                continue
            rows = comp.prev_rows[u]
            if rows.size:
                gathered = comp.out_f[comp.prev_slots[u]]
                tables = comp.tables[comp.prev_edges[u], :, : labels[u]]
                comp.fwd[u][rows] = (gathered[:, :, None] + tables).min(axis=1)
            _average(comp, u, flagged)
            comp.out_f[comp.slots_at[u], : labels[u]] = comp.fwd[u] + comp.theta[u]
        for u in range(n - 1, -1, -1):  # backward sweep
            if comp.slots_at[u].size == 0:
                continue
            rows = comp.next_rows[u]
            if rows.size:
                gathered = comp.out_b[comp.next_slots[u]]
                tables = comp.tables[comp.next_edges[u], : labels[u], :]
                comp.bwd[u][rows] = (tables + gathered[:, None, :]).min(axis=2)
            _average(comp, u, flagged)
            comp.out_b[comp.slots_at[u], : labels[u]] = comp.bwd[u] + comp.theta[u]
        bound = model.constant
        for u in comp.isolated:
            bound += float(model.unary[u].min())
        if comp.head_slots.size:
            bound += float(comp.out_b[comp.head_slots].min(axis=1).sum())
        bound_history.append(bound)

    # final forward pass: sequential conditional minimization on the original
    # costs, future guidance through the backward messages
    labeling = []
    fallback_nodes = []
    for u in range(n):
        score = np.asarray(model.unary[u], dtype=float).copy()
        if comp.slots_at[u].size:
            score += comp.bwd[u].sum(axis=0)
            for i in range(comp.prev_rows[u].size):
                prev_slot = comp.prev_slots[u][i]
                l_prev = labeling[comp.slot_node[prev_slot]]
                score += comp.tables[comp.prev_edges[u][i], l_prev, : labels[u]]
        if np.isfinite(score).any():
            labeling.append(int(np.argmin(score)))
        else:
            labeling.append(int(np.argmin(model.unary[u])))
            fallback_nodes.append(u)

    diagnostics = {}
    if flagged:
        diagnostics["infinite_min_marginal_nodes"] = sorted(flagged)
    if fallback_nodes:
        diagnostics["unary_fallback_nodes"] = fallback_nodes
    return TrwsResult(
        labeling=tuple(labeling),
        lower_bound=bound_history[-1],
        bound_history=tuple(bound_history),
        diagnostics=diagnostics,
    )


def extract_inliers(model: GraphicalModel, labeling, outlier_label) -> set[int]:
    """Nodes whose label differs from the outlier label (scalar or per-node)."""
    labeling = list(labeling)
    if len(labeling) != model.node_count:
        raise ContractViolation("labeling size mismatch")
    if np.isscalar(outlier_label):
        outliers = [int(outlier_label)] * model.node_count
    else:
        outliers = [int(o) for o in outlier_label]
        if len(outliers) != model.node_count:
            raise ContractViolation("outlier_label size mismatch")
    return {u for u, l in enumerate(labeling) if int(l) != outliers[u]}
