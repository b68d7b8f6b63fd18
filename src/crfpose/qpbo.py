"""Roof-duality partial optimality for binary pairwise models.

The model is reparameterized into normal form (nonnegative tables with zero
row/column minima).  A one-pass dominance presolve fixes every node one of
whose labels lowers the energy whatever its neighbours take (see
``qpbo``), and the doubled network over the nodes left open is solved with
max-flow, once per model even when no node is left open.  A free node is
labeled only when its two copies land on opposite, consistent sides of the
reachability min-cut.  This yields a persistent partial labeling: some
exact optimum agrees with every labeled node.

Infinite pairwise entries are clamped to a capacity exceeding the whole
model's total finite cost mass; a post-check over all edges demotes any
labeled pair that would realize a truly infinite cost back to unlabeled.

Everything but the max-flow runs as array passes over the model's
(E, 2, 2) table stack.  The nonzero row and column minima are folded into
the unaries in edge order (u before v), the finite mass is summed table by
table in edge order, and the network's arcs come in a fixed order (per
free node its two unary arcs, then per edge between free nodes the arc
pairs for (0,1), (1,0), (1,1) and (0,0)), which fixes the order in which
Dinic's algorithm tries them.
"""

from __future__ import annotations

import numpy as np

from .maxflow import FlowNetwork, max_flow
from .model import (ContractViolation, GraphicalModel, PartialLabeling,
                    UNLABELED)


def binary_tables(model: GraphicalModel) -> np.ndarray:
    """A binary model's (E, 2, 2) table stack; a lazy model has none."""
    if any(k != 2 for k in model.labels_per_node):
        raise ContractViolation("model is not binary (two labels per node)")
    if model.table_fn is not None:
        raise ContractViolation("binary models must hold their tables, not a table_fn")
    return model.pairwise


def count_infinite_pairs(model: GraphicalModel) -> int:
    """Number of edges whose (1,1) cost is infinite."""
    return int(np.isinf(binary_tables(model)[:, 1, 1]).sum())


def qpbo(model: GraphicalModel) -> PartialLabeling:
    """Persistent partial labeling of a binary model (roof duality).

    Presolve: in normal form every table entry is >= 0 and every row and
    column of a table holds an exact 0.  With c_u = U_u(1) - U_u(0) and
    d1_u = sum_e max_y [t_e(1, y) - t_e(0, y)] over u's edges (the max over
    the neighbour's labels), switching u from 0 to 1 changes the energy of
    any labeling by at most c_u + d1_u.  So where that is < 0, every optimum
    has u = 1; likewise u = 0 where -c_u + d0_u < 0, d0_u the sum with 0 and
    1 swapped.  Each difference in these sums is exact (one of its two
    entries is 0) and each max is >= 0.  So the score's rounding error is at
    most about (d + 1)·(ε/2)·(|c_u| + d1_u), d = deg(u): one rounding in c_u,
    d - 1 in summing d terms, one in adding c_u.  The test takes a float
    score below -(d + 2)·ε·(|c_u| + d1_u), over twice that, which also
    covers the rounding of the margin itself.  The test is strict, so every
    optimum of the normal-form model agrees with the fixed nodes.

    An edge with one fixed end moves that end's row or column of its table
    into the free end's unary, and only the free nodes and the edges between
    them go into the doubled network.
    """
    tables = binary_tables(model)
    n = model.node_count
    if not n:
        return PartialLabeling(())
    unary = model.unary.copy()
    if not np.isfinite(unary).all():
        raise ContractViolation("unaries must be finite")

    inf = np.isinf(tables)
    t = np.zeros(tables.shape)
    np.multiply(model.pairwise_weight, tables, out=t, where=~inf)
    # one table's four entries in order, then the tables in edge order
    mass = np.abs(t).reshape(-1, 4)
    edge_mass = mass[:, 0] + mass[:, 1] + mass[:, 2] + mass[:, 3]
    finite_mass = np.cumsum(np.append(np.abs(unary).sum(), edge_mass))[-1]
    t[inf] = 1.0 + finite_mass

    # normal form: fold row then column minima of each table into the
    # unaries (all entries finite here, so subtraction is safe)
    fold = np.empty(t.shape)  # per edge: u's row minima, then v's column minima
    rows, cols = fold[:, 0], fold[:, 1]
    np.minimum(t[:, :, 0], t[:, :, 1], out=rows)
    t[:, :, 0] -= rows
    t[:, :, 1] -= rows
    np.minimum(t[:, 0, :], t[:, 1, :], out=cols)
    t[:, 0, :] -= cols
    t[:, 1, :] -= cols
    # in edge order, u's labels 0 and 1, then v's; adding a 0 is skipped (it
    # leaves every sum as it is, up to the sign of a zero)
    at = np.flatnonzero(fold)
    np.add.at(unary.reshape(-1), 2 * model.edges.reshape(-1)[at // 2] + at % 2,
              fold.reshape(-1)[at])

    # presolve: per edge end, how much the table can rise when that end
    # switches from 0 to 1, over the other end's two labels
    u, v = model.edges.T
    ends = np.concatenate([u, v])
    t00, t01, t10, t11 = t.reshape(-1, 4).T
    rise = (t10 - t00, t11 - t01), (t01 - t00, t11 - t10)  # u's, then v's
    d1 = np.bincount(ends, np.concatenate([np.maximum(*r) for r in rise]), minlength=n)
    d0 = np.bincount(ends, -np.concatenate([np.minimum(*r) for r in rise]), minlength=n)
    margin = (np.bincount(ends, minlength=n) + 2) * np.finfo(float).eps
    c = unary[:, 1] - unary[:, 0]
    assignment = np.full(n, UNLABELED)
    assignment[c + d1 < -margin * (np.abs(c) + d1)] = 1
    assignment[-c + d0 < -margin * (np.abs(c) + d0)] = 0
    free = assignment == UNLABELED
    lu, lv = assignment[u], assignment[v]
    free_u, free_v = lu == UNLABELED, lv == UNLABELED
    to_u, to_v = free_u & ~free_v, free_v & ~free_u
    moved = np.concatenate([t[to_u, :, lv[to_u]], t[to_v, lu[to_v], :]])
    unary += np.bincount((2 * np.concatenate([u[to_u], v[to_v]])[:, None] + [0, 1]).reshape(-1),
                         moved.reshape(-1), minlength=2 * n).reshape(n, 2)

    # doubled network over the k free nodes: copies i and i+k, x=0 <=> i on
    # the source side <=> i+k on the sink side; every logical cost is split
    # in half.  Arcs: per node its two unary arcs, then per edge the pairs
    # for (0,1), (1,0), (1,1) and (0,0).
    k = int(free.sum())
    source, sink = 2 * k, 2 * k + 1
    inner = free_u & free_v
    index = np.cumsum(free) - 1
    fu, fv = index[u[inner]], index[v[inner]]
    node = np.arange(k)
    c = (unary[:, 1] - unary[:, 0])[free]
    up = c > 0
    node_arcs = (np.stack([np.where(up, source, node), np.where(up, node + k, source)], 1),
                 np.stack([np.where(up, node, sink), np.where(up, sink, node + k)], 1),
                 np.repeat(np.abs(c) / 2.0, 2).reshape(k, 2),
                 np.repeat(c != 0, 2).reshape(k, 2))
    pairs = t[inner][:, [0, 1, 1, 0], [1, 0, 1, 0]]
    edge_arcs = (np.stack([fu, fv + k, fv, fu + k, fu + k, fv + k, fu, fv], axis=1),
                 np.stack([fv, fu + k, fu, fv + k, fv, fu, fv + k, fu + k], axis=1),
                 np.repeat(pairs / 2.0, 2, axis=1),
                 np.repeat(pairs > 0, 2, axis=1))
    tails, heads, caps, present = (np.concatenate([a.reshape(-1), b.reshape(-1)])
                                   for a, b in zip(node_arcs, edge_arcs))
    net = FlowNetwork.from_arrays(2 * k + 2, source, sink,
                                  tails[present], heads[present], caps[present])

    side = max_flow(net).source_side
    plain, mirror = side[:k], side[k:2 * k]
    assignment[free] = np.where(plain & ~mirror, 0, np.where(mirror & ~plain, 1, UNLABELED))

    # no labeled pair may realize a truly infinite cost; demotions run in
    # edge order, since an earlier one can leave a later pair unlabeled
    lu, lv = assignment[u], assignment[v]
    hits = (lu != UNLABELED) & (lv != UNLABELED)
    hits[hits] = inf[np.flatnonzero(hits), lu[hits], lv[hits]]
    for a, b in model.edges[hits].tolist():
        if assignment[a] != UNLABELED and assignment[b] != UNLABELED:
            assignment[a] = assignment[b] = UNLABELED
    return PartialLabeling(tuple(assignment.tolist()))
