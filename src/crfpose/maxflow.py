"""Max-flow / min-cut via BFS level graphs and shortest augmenting paths.

A network holds its arcs as one record array of (tail, head, capacity),
validated once.  ``max_flow`` turns it into a residual graph in array
passes: residual edge 2i is arc i and 2i + 1 its reverse, and each node's
residual edges are found by one stable argsort of their tails, so a node
tries its edges in arc order.  Only Dinic's augmenting loop runs per arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import ContractViolation

# residuals below RESIDUAL_EPS * max_capacity count as saturated; keeps float
# cancellation noise from leaking reachability across a saturated cut
RESIDUAL_EPS = 1e-10

ARC = np.dtype([("tail", np.int64), ("head", np.int64), ("capacity", float)])


@dataclass
class FlowNetwork:
    """Directed capacitated network; node ids are 0..node_count-1.

    ``arcs`` may be given as (tail, head, capacity) tuples; it is stored as
    a record array of dtype ``ARC``, so ``len(net.arcs)`` is the arc count.
    """

    node_count: int
    source: int
    sink: int
    arcs: np.ndarray = ()

    def __post_init__(self):
        if not (0 <= self.source < self.node_count and 0 <= self.sink < self.node_count):
            raise ContractViolation("source/sink out of range")
        if self.source == self.sink:
            raise ContractViolation("source and sink must differ")
        self.arcs = np.asarray(self.arcs, dtype=ARC).reshape(-1)
        self._check_arcs(self.arcs)

    @classmethod
    def from_arrays(cls, node_count: int, source: int, sink: int,
                    tails, heads, capacities) -> "FlowNetwork":
        arcs = np.empty(len(capacities), dtype=ARC)
        arcs["tail"], arcs["head"], arcs["capacity"] = tails, heads, capacities
        return cls(node_count, source, sink, arcs)

    def _check_arcs(self, arcs):
        ends = np.stack([arcs["tail"], arcs["head"]])
        if ((ends < 0) | (ends >= self.node_count)).any():
            raise ContractViolation("arc endpoint out of range")
        if not (arcs["capacity"] >= 0).all():
            raise ContractViolation("negative or NaN capacity")

    def add_arc(self, a: int, b: int, cap: float) -> None:
        arc = np.array([(a, b, cap)], dtype=ARC)
        self._check_arcs(arc)
        self.arcs = np.append(self.arcs, arc)


@dataclass
class MaxFlowResult:
    flow_value: float
    source_side: np.ndarray  # bool per node, True = source side of the min cut


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Dinic's algorithm; returns the flow value and the reachable-side cut."""
    n = net.node_count
    arcs = net.arcs[net.arcs["tail"] != net.arcs["head"]]
    tails = np.stack([arcs["tail"], arcs["head"]], axis=1).reshape(-1)
    to = np.stack([arcs["head"], arcs["tail"]], axis=1).reshape(-1).tolist()
    res = np.stack([arcs["capacity"], np.zeros(arcs.size)], axis=1).reshape(-1).tolist()
    adj = np.argsort(tails, kind="stable").tolist()
    start = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))]).tolist()
    eps = RESIDUAL_EPS * (float(net.arcs["capacity"].max()) if net.arcs.size else 1.0)

    def bfs_levels():
        level = [-1] * n
        level[net.source] = 0
        q = deque([net.source])
        while q:
            u = q.popleft()
            for e in adj[start[u]:start[u + 1]]:
                v = to[e]
                if res[e] > eps and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[net.sink] >= 0 else None

    total = 0.0
    while True:
        level = bfs_levels()
        if level is None:
            break
        it = start[:-1]  # per node, the position of its next edge in adj
        # iterative blocking-flow search along shortest (level-respecting) paths
        path = []  # arc ids from source to the current node
        u = net.source
        while True:
            if u == net.sink:
                pushed = min(res[e] for e in path)
                for e in path:
                    res[e] -= pushed
                    res[e ^ 1] += pushed
                total += pushed
                # retreat to the first saturated arc on the path
                cut_at = next(i for i, e in enumerate(path) if res[e] <= eps)
                path = path[:cut_at]
                u = net.source if not path else to[path[-1]]
                continue
            advanced = False
            while it[u] < start[u + 1]:
                e = adj[it[u]]
                v = to[e]
                if res[e] > eps and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == net.source:
                break
            level[u] = -1  # dead end; the level check skips it from now on
            path.pop()
            u = net.source if not path else to[path[-1]]

    reach = np.zeros(n, dtype=bool)
    reach[net.source] = True
    q = deque([net.source])
    while q:
        u = q.popleft()
        for e in adj[start[u]:start[u + 1]]:
            v = to[e]
            if res[e] > eps and not reach[v]:
                reach[v] = True
                q.append(v)
    return MaxFlowResult(flow_value=total, source_side=reach)


def cut_capacity(net: FlowNetwork, source_side: np.ndarray) -> float:
    """Total capacity of arcs crossing from the given source side."""
    side = np.asarray(source_side, dtype=bool)
    crossing = side[net.arcs["tail"]] & ~side[net.arcs["head"]]
    return float(net.arcs["capacity"][crossing].sum())
