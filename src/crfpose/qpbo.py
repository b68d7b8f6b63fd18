"""Roof-duality partial optimality for binary pairwise models.

The model is reparameterized into normal form (nonnegative tables with zero
row/column minima), compiled into the symmetric doubled network, and solved
with max-flow.  A node is labeled only when its two copies land on opposite,
consistent sides of the reachability min-cut, which yields a persistent
partial labeling: some exact optimum agrees with every labeled node.

Infinite pairwise entries are clamped to a capacity exceeding the total
finite cost mass; a post-check demotes any labeled pair that would realize a
truly infinite cost back to unlabeled.

Everything up to the max-flow runs as array passes over the model's
(E, 2, 2) table stack.  The result equals a per-edge build to the last bit:
the row and column minima are folded into the unaries in edge order (u
before v), the finite mass is summed table by table in edge order, and the
network's arcs come in a fixed order (per node its two unary arcs, then per
edge the arc pairs for (0,1), (1,0), (1,1) and (0,0)), which fixes the order
in which Dinic's algorithm tries them.
"""

from __future__ import annotations

import numpy as np

from .maxflow import FlowNetwork, max_flow
from .model import (ContractViolation, GraphicalModel, PartialLabeling,
                    UNLABELED)


def require_binary(model: GraphicalModel) -> None:
    if any(k != 2 for k in model.labels_per_node):
        raise ContractViolation("model is not binary (two labels per node)")


def binary_tables(model: GraphicalModel) -> np.ndarray:
    """A binary model's tables as one (E, 2, 2) array (lazy ones built here)."""
    require_binary(model)
    tables = model.pairwise
    if not isinstance(tables, np.ndarray):
        tables = np.array([model.edge_table(e) for e in range(model.edge_count)])
    return tables.reshape(-1, 2, 2)


def count_infinite_pairs(model: GraphicalModel) -> int:
    """Number of edges whose (1,1) cost is infinite."""
    return int(np.isinf(binary_tables(model)[:, 1, 1]).sum())


def qpbo(model: GraphicalModel) -> PartialLabeling:
    tables = binary_tables(model)
    n = model.node_count
    unary = np.array(model.unary, dtype=float).reshape(n, 2)
    if not np.isfinite(unary).all():
        raise ContractViolation("unaries must be finite")

    inf = np.isinf(tables)
    t = np.zeros(tables.shape)
    np.multiply(model.pairwise_weight, tables, out=t, where=~inf)
    # one table's four entries in order, then the tables in edge order
    edge_mass = np.abs(t).reshape(-1, 4).cumsum(axis=1)[:, -1]
    finite_mass = np.cumsum(np.append(np.abs(unary).sum(), edge_mass))[-1]
    t[inf] = 1.0 + finite_mass

    # normal form: fold row then column minima of each table into the
    # unaries (all entries finite here, so subtraction is safe)
    rows = t.min(axis=2)
    t -= rows[:, :, None]
    cols = t.min(axis=1)
    t -= cols[:, None, :]
    # per edge in order: u's labels 0 and 1, then v's
    fold_nodes = np.repeat(model.ends, 2, axis=1).reshape(-1)
    fold_labels = np.tile([0, 1], 2 * model.edge_count)
    np.add.at(unary, (fold_nodes, fold_labels), np.stack([rows, cols], axis=1).reshape(-1))

    # doubled network: copies u and u+n, x_u=0 <=> u on the source side
    # <=> u+n on the sink side; every logical cost is split in half
    source, sink = 2 * n, 2 * n + 1
    u, v = model.ends.T
    node = np.arange(n)
    c = unary[:, 1] - unary[:, 0]
    up = c > 0
    node_arcs = (np.stack([np.where(up, source, node), np.where(up, node + n, source)], 1),
                 np.stack([np.where(up, node, sink), np.where(up, sink, node + n)], 1),
                 np.repeat(np.abs(c) / 2.0, 2).reshape(n, 2),
                 np.repeat(c != 0, 2).reshape(n, 2))
    pairs = t[:, [0, 1, 1, 0], [1, 0, 1, 0]]  # (0,1), (1,0), (1,1), (0,0)
    edge_arcs = (np.stack([u, v + n, v, u + n, u + n, v + n, u, v], axis=1),
                 np.stack([v, u + n, u, v + n, v, u, v + n, u + n], axis=1),
                 np.repeat(pairs / 2.0, 2, axis=1),
                 np.repeat(pairs > 0, 2, axis=1))
    tails, heads, caps, present = (np.concatenate([a.reshape(-1), b.reshape(-1)])
                                   for a, b in zip(node_arcs, edge_arcs))
    net = FlowNetwork.from_arrays(2 * n + 2, source, sink,
                                  tails[present], heads[present], caps[present])

    side = max_flow(net).source_side
    plain, mirror = side[:n], side[n:2 * n]
    assignment = np.where(plain & ~mirror, 0, np.where(mirror & ~plain, 1, UNLABELED))

    # no labeled pair may realize a truly infinite cost; demotions run in
    # edge order, since an earlier one can leave a later pair unlabeled
    lu, lv = assignment[u], assignment[v]
    hits = (lu != UNLABELED) & (lv != UNLABELED)
    hits[hits] = inf[np.flatnonzero(hits), lu[hits], lv[hits]]
    for a, b in model.ends[hits].tolist():
        if assignment[a] != UNLABELED and assignment[b] != UNLABELED:
            assignment[a] = assignment[b] = UNLABELED
    return PartialLabeling(tuple(assignment.tolist()))
