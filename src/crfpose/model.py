"""Pairwise graphical models with infinity-aware cost arithmetic.

Costs are plain floats; ``math.inf`` is the forbidden-configuration sentinel.
IEEE arithmetic gives the needed behaviour for free (inf + finite = inf, inf
compares greater than any finite value); subtracting from inf is guarded at
the call sites where it could occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

INF = math.inf

#: Sentinel label value for "unlabeled" entries of a partial labeling.
UNLABELED = -1


class ContractViolation(ValueError):
    """A caller broke an interface precondition."""


def is_inf(value: float) -> bool:
    return math.isinf(value)


@dataclass
class GraphicalModel:
    """A pairwise model: per-node label sets, unary tables, weighted edges.

    ``pairwise`` may be a list of materialized (Lu, Lv) tables (one per edge,
    ``None`` entries allowed) and/or a deterministic ``table_fn(u, v)``
    callback building the table lazily.  Built tables are memoized; the
    callback must be idempotent.  Models are treated as immutable after
    construction apart from that memoization.
    """

    labels_per_node: tuple[int, ...]
    unary: list[np.ndarray]
    edges: tuple[tuple[int, int], ...]
    pairwise: list | None = None
    table_fn: Callable[[int, int], np.ndarray] | None = None
    pairwise_weight: float = 1.0
    constant: float = 0.0

    def __post_init__(self):
        self.labels_per_node = tuple(int(k) for k in self.labels_per_node)
        if any(k < 1 for k in self.labels_per_node):
            raise ContractViolation("every node needs at least one label")
        n = len(self.labels_per_node)
        if len(self.unary) != n:
            raise ContractViolation("one unary table per node required")
        self.unary = [np.asarray(t, dtype=float) for t in self.unary]
        for u, t in enumerate(self.unary):
            if t.shape != (self.labels_per_node[u],):
                raise ContractViolation(f"unary table of node {u} has wrong length")
            if np.isnan(t).any():
                raise ContractViolation(f"unary table of node {u} has a NaN cost")
        seen = set()
        canon = []
        for u, v in self.edges:
            if u == v:
                raise ContractViolation(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u},{v}) out of range")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ContractViolation(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v))
        self.edges = tuple(canon)
        if self.pairwise is None:
            self.pairwise = [None] * len(self.edges)
        else:
            self.pairwise = list(self.pairwise)
        if len(self.pairwise) != len(self.edges):
            raise ContractViolation("one pairwise slot per edge required")
        for e, table in enumerate(self.pairwise):
            if table is None:
                continue
            table = np.asarray(table, dtype=float)
            u, v = self.edges[e]
            if table.shape != (self.labels_per_node[u], self.labels_per_node[v]):
                raise ContractViolation(f"pairwise table of edge {self.edges[e]} has wrong shape")
            if np.isnan(table).any():
                raise ContractViolation(f"pairwise table of edge {self.edges[e]} has a NaN cost")
            self.pairwise[e] = table
            # where both representations exist they must agree
            if self.table_fn is not None:
                lazy = np.asarray(self.table_fn(u, v), dtype=float)
                if lazy.shape != table.shape or not np.array_equal(lazy, table, equal_nan=True):
                    raise ContractViolation(f"lazy and materialized tables disagree on edge {self.edges[e]}")
        if self.table_fn is None and any(t is None for t in self.pairwise):
            raise ContractViolation("edges without tables need a table_fn")

    @property
    def node_count(self) -> int:
        return len(self.labels_per_node)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_table(self, e: int) -> np.ndarray:
        """Materialized (and memoized) cost table of edge ``e``."""
        table = self.pairwise[e]
        if table is None:
            u, v = self.edges[e]
            table = np.asarray(self.table_fn(u, v), dtype=float)
            if table.shape != (self.labels_per_node[u], self.labels_per_node[v]):
                raise ContractViolation(f"table_fn returned wrong shape for edge {(u, v)}")
            if np.isnan(table).any():
                raise ContractViolation(f"table_fn returned a NaN cost for edge {(u, v)}")
            self.pairwise[e] = table
        return table

    def edge_cost(self, e: int, lu: int, lv: int) -> float:
        return float(self.edge_table(e)[lu, lv])

    def neighbors(self) -> list[list[int]]:
        adj = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _check_labeling(model: GraphicalModel, labeling: Sequence[int]) -> None:
    if len(labeling) != model.node_count:
        raise ContractViolation(
            f"labeling has {len(labeling)} entries for {model.node_count} nodes")
    for u, l in enumerate(labeling):
        if not 0 <= int(l) < model.labels_per_node[u]:
            raise ContractViolation(f"label {l} out of range at node {u}")


def weighted_table(table: np.ndarray, weight: float, out: np.ndarray | None = None) -> np.ndarray:
    """``weight * table`` with every ±inf entry +inf, also at weight 0.

    Only the finite entries are multiplied, so ``0 * inf`` never runs.
    Writes into ``out`` (an array of the table's shape) when given.
    """
    if out is None:
        out = np.empty(table.shape)
    out[...] = INF
    np.multiply(weight, table, out=out, where=np.isfinite(table))
    return out


def evaluate_energy(model: GraphicalModel, labeling: Sequence[int]) -> float:
    """Total energy: unaries + pairwise_weight * pairwise + constant.

    Returns inf as soon as any participating term is inf (regardless of the
    pairwise weight).  Summation order is fixed, so repeated evaluation is
    bit-identical.
    """
    _check_labeling(model, labeling)
    total = model.constant
    for u, l in enumerate(labeling):
        c = float(model.unary[u][int(l)])
        if is_inf(c):
            return INF
        total += c
    for e, (u, v) in enumerate(model.edges):
        c = model.edge_cost(e, int(labeling[u]), int(labeling[v]))
        if is_inf(c):
            return INF
        total += model.pairwise_weight * c
    return total


def induce_submodel(model: GraphicalModel, keep) -> tuple[GraphicalModel, tuple[int, ...]]:
    """Restrict ``model`` to the node set ``keep``.

    Keeps all edges internal to ``keep`` with unchanged unary and pairwise
    costs.  Returns the submodel and the node map (new index -> old index).
    The submodel's constant is 0: its energy is exactly the master's unary
    sum over ``keep`` plus the weighted internal pairwise sum.
    """
    keep = sorted(set(int(u) for u in keep))
    if not keep:
        raise ContractViolation("cannot induce a submodel on an empty node set")
    if keep[0] < 0 or keep[-1] >= model.node_count:
        raise ContractViolation("keep contains nodes outside the model")
    old_to_new = {old: new for new, old in enumerate(keep)}
    edges = []
    tables = []
    for e, (u, v) in enumerate(model.edges):
        if u in old_to_new and v in old_to_new:
            edges.append((old_to_new[u], old_to_new[v]))
            tables.append(model.edge_table(e).copy())
    sub = GraphicalModel(
        labels_per_node=tuple(model.labels_per_node[u] for u in keep),
        unary=[model.unary[u].copy() for u in keep],
        edges=tuple(edges),
        pairwise=tables,
        pairwise_weight=model.pairwise_weight,
        constant=0.0,
    )
    return sub, tuple(keep)


@dataclass(frozen=True)
class PartialLabeling:
    """Per-node assignment over {label index, UNLABELED}."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if any(a < UNLABELED for a in self.assignment):
            raise ContractViolation("labels must be >= 0 or UNLABELED")

    @classmethod
    def from_labeling(cls, labeling: Sequence[int]) -> "PartialLabeling":
        return cls(tuple(int(l) for l in labeling))

    def __len__(self) -> int:
        return len(self.assignment)

    def labeled_count(self) -> int:
        return sum(1 for a in self.assignment if a != UNLABELED)

    def labeled_nodes(self) -> tuple[int, ...]:
        return tuple(u for u, a in enumerate(self.assignment) if a != UNLABELED)

    def is_full(self) -> bool:
        return all(a != UNLABELED for a in self.assignment)

    def to_labeling(self) -> tuple[int, ...]:
        if not self.is_full():
            raise ContractViolation("partial labeling has unlabeled nodes")
        return self.assignment

    def agrees_with(self, labeling: Sequence[int]) -> bool:
        """True when every labeled entry matches ``labeling``."""
        return all(a == UNLABELED or a == int(labeling[u])
                   for u, a in enumerate(self.assignment))


def extend_partial(master_size: int, sub: PartialLabeling,
                   node_map: Sequence[int], fill: int = 0) -> PartialLabeling:
    """Place ``sub`` onto a master-sized labeling, filling the rest with ``fill``.

    Unlabeled entries of ``sub`` stay unlabeled; every node outside the
    submodel is labeled ``fill``.
    """
    node_map = tuple(int(t) for t in node_map)
    if len(node_map) != len(sub.assignment):
        raise ContractViolation("node_map and sub labeling sizes differ")
    if any(not 0 <= t < master_size for t in node_map):
        raise ContractViolation("node_map targets outside the master")
    out = [int(fill)] * master_size
    for i, target in enumerate(node_map):
        out[target] = sub.assignment[i]
    return PartialLabeling(tuple(out))
