"""Max-flow / min-cut via BFS level graphs and shortest augmenting paths.

A network holds its arcs as one record array of (tail, head, capacity),
validated once.  ``max_flow`` turns it into a residual graph in array
passes: residual edge 2i is arc i and 2i + 1 its reverse, and one stable
argsort of their tails lists every node's residual edges, in arc order,
with a parallel list of their heads.  The BFS and the augmenting loop run
per edge in Python on those lists.  The loop keeps its path as parallel
edge and node lists, so a retreat reads the node it returns to; each
augmentation is one loop for the bottleneck and one that pushes and finds
the first saturated edge.  A residual edge counts as saturated only at
exactly 0, with no tolerance (see ``max_flow``).  QPBO hands it only the
nodes its presolve leaves open, so most of the pipeline's networks hold
just the source and the sink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ContractViolation

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
        ends = np.stack([self.arcs["tail"], self.arcs["head"]])
        if ((ends < 0) | (ends >= self.node_count)).any():
            raise ContractViolation("arc endpoint out of range")
        if not (self.arcs["capacity"] >= 0).all():
            raise ContractViolation("negative or NaN capacity")

    @classmethod
    def from_arrays(cls, node_count: int, source: int, sink: int,
                    tails, heads, capacities) -> "FlowNetwork":
        arcs = np.empty(len(capacities), dtype=ARC)
        arcs["tail"], arcs["head"], arcs["capacity"] = tails, heads, capacities
        return cls(node_count, source, sink, arcs)


@dataclass
class MaxFlowResult:
    flow_value: float
    source_side: np.ndarray  # bool per node, True = source side of the min cut


def _adjacency(arcs: np.ndarray, n: int) -> tuple[list, list, list]:
    """The residual edges of every node, node by node and in arc order
    (edge 2i is arc i, 2i + 1 its reverse), their heads, and the offset of
    each node's first edge, with the total edge count last."""
    tails = np.stack([arcs["tail"], arcs["head"]], axis=1).reshape(-1)
    order = np.argsort(tails, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))]).tolist()
    heads = tails[order ^ 1].tolist()  # edge e runs from tails[e] to tails[e ^ 1]
    return order.tolist(), heads, start


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Dinic's algorithm; returns the flow value and the reachable-side cut.

    A residual edge is usable while its residual is above 0, and saturated
    only at exactly 0.  An augmentation pushes x, the smallest residual on
    its path, so it leaves its bottleneck edge at exactly x - x = 0 and every
    other edge at r - x > 0 (a float difference of r > x is positive).  So
    each augmentation saturates an edge of the level graph, which stays
    saturated for the rest of the phase (only its reverse, which runs a
    level down, gains residual), and Dinic's bounds on phases and
    augmentations hold in floats.
    """
    n, source, sink = net.node_count, net.source, net.sink
    arcs = net.arcs[net.arcs["tail"] != net.arcs["head"]]
    edges, heads, start = _adjacency(arcs, n)
    res = np.stack([arcs["capacity"], np.zeros(arcs.size)], axis=1).reshape(-1).tolist()

    total = 0.0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:  # breadth first: the list grows while it is read
            next_level = level[u] + 1
            a, b = start[u], start[u + 1]
            for e, v in zip(edges[a:b], heads[a:b]):
                if level[v] < 0 and res[e] > 0.0:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            break
        # blocking flow along level-respecting paths: path[k] is the edge out
        # of nodes[k], and pos[u] is the position of the edge u tries next
        pos = start[:-1]
        path, nodes = [], [source]
        u = source
        while True:
            i, m, next_level = pos[u], start[u + 1], level[u] + 1
            while i < m:
                v = heads[i]
                if level[v] == next_level and res[edges[i]] > 0.0:
                    break
                i += 1
            pos[u] = i
            if i == m:
                if u == source:
                    break
                level[u] = -1  # dead end; the level check skips it from now on
                path.pop()
                nodes.pop()
                u = nodes[-1]
                continue
            path.append(edges[i])
            if v != sink:
                nodes.append(v)
                u = v
                continue
            pushed = res[path[0]]
            for e in path:
                if res[e] < pushed:
                    pushed = res[e]
            # push, and retreat to the tail of the first saturated edge
            first = -1
            for k, e in enumerate(path):
                r = res[e] - pushed
                res[e] = r
                res[e ^ 1] += pushed
                if r == 0.0 and first < 0:
                    first = k
            total += pushed
            del path[first:], nodes[first + 1:]
            u = nodes[-1]
    # the last BFS found no path to the sink: what it reached is the cut
    return MaxFlowResult(flow_value=total, source_side=np.array(level) >= 0)
