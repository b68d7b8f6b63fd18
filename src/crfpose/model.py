"""Pairwise graphical models with infinity-aware cost arithmetic.

Costs are plain floats; ``math.inf`` is the forbidden-configuration sentinel.
IEEE arithmetic gives the needed behaviour for free (inf + finite = inf, inf
compares greater than any finite value); subtracting from inf is guarded at
the call sites where it could occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

INF = math.inf

#: Sentinel label value for "unlabeled" entries of a partial labeling.
UNLABELED = -1


class ContractViolation(ValueError):
    """A caller broke an interface precondition."""


def is_inf(value: float) -> bool:
    return math.isinf(value)


def _check_costs(table: np.ndarray, what: str, where) -> None:
    """Raise unless every cost is finite or +inf; names ``what`` ``where``."""
    if not table.min() > -INF:  # the minimum is NaN if any entry is
        kind = "NaN" if np.isnan(table).any() else "-inf"
        raise ContractViolation(f"{what} {where} has a {kind} cost")


@dataclass
class GraphicalModel:
    """A pairwise model: per-node label sets, unary tables, weighted edges.

    ``edges`` may be given in either orientation; each is stored as (u, v)
    with u < v, its table transposed where the caller gave (v, u).
    ``ends`` holds the stored edges as an (E, 2) array.

    ``pairwise`` may be one (E, a, b) array, a list of (Lu, Lv) tables (one
    per edge, ``None`` entries allowed) and/or a deterministic
    ``table_fn(u, v)`` callback building the table lazily.  Materialized
    tables that all share one shape are stored as one (E, a, b) array; the
    rest stay a list whose lazily built entries are memoized (the callback
    must be idempotent).  Models are treated as immutable after construction
    apart from that memoization.  Costs may be +inf, never NaN or -inf.
    """

    labels_per_node: tuple[int, ...]
    unary: list[np.ndarray]
    edges: tuple[tuple[int, int], ...]
    pairwise: list | np.ndarray | None = None
    table_fn: Callable[[int, int], np.ndarray] | None = None
    pairwise_weight: float = 1.0
    constant: float = 0.0
    ends: np.ndarray = field(init=False, repr=False, compare=False)

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
            _check_costs(t, "unary table of node", u)
        given = self._set_edges(n)
        swapped = given[:, 0] > given[:, 1]
        tables = [None] * len(given) if self.pairwise is None else self.pairwise
        if len(tables) != len(given):
            raise ContractViolation("one pairwise slot per edge required")
        if (not isinstance(tables, np.ndarray) and len(tables)
                and all(t is not None for t in tables)
                and len({np.shape(t) for t in tables}) == 1):
            tables = np.array(tables, dtype=float)
        if isinstance(tables, np.ndarray) and tables.ndim == 3 and (
                tables.shape[1] == tables.shape[2] or not swapped.any()):
            self.pairwise = self._checked_stack(np.asarray(tables, dtype=float), given, swapped)
        else:  # lazy tables, or shapes that differ once transposed
            self.pairwise = [t if t is None else self._checked_table(e, t, given[e], swapped[e])
                             for e, t in enumerate(tables)]
            if self.table_fn is None and any(t is None for t in self.pairwise):
                raise ContractViolation("edges without tables need a table_fn")
        if self.table_fn is not None:  # where both representations exist they must agree
            for e, table in enumerate(self.pairwise):
                if table is not None and not np.array_equal(
                        np.asarray(self.table_fn(*self.edges[e]), dtype=float), table):
                    raise ContractViolation(
                        f"lazy and materialized tables disagree on edge {self.edges[e]}")

    def _set_edges(self, n: int) -> np.ndarray:
        """Check the edges, store them as (u, v) with u < v, and return them
        as given."""
        given = np.asarray(self.edges, dtype=np.int64)
        if given.size == 0:
            given = given.reshape(0, 2)
        if given.ndim != 2 or given.shape[1] != 2:
            raise ContractViolation("edges must be (u, v) pairs")
        loops = np.flatnonzero(given[:, 0] == given[:, 1])
        if loops.size:
            raise ContractViolation(f"self-loop at node {given[loops[0], 0]}")
        outside = np.flatnonzero(((given < 0) | (given >= n)).any(axis=1))
        if outside.size:
            raise ContractViolation(f"edge {tuple(given[outside[0]].tolist())} out of range")
        self.ends = np.sort(given, axis=1)
        keys = self.ends[:, 0] * n + self.ends[:, 1]
        order = np.argsort(keys, kind="stable")
        repeated = order[1:][np.diff(keys[order]) == 0]
        if repeated.size:
            u, v = self.ends[repeated.min()].tolist()
            raise ContractViolation(f"duplicate edge ({u},{v})")
        # one int object per node, not two per edge: about 5 MB less at 78k edges
        node = list(range(n)).__getitem__
        self.edges = tuple(zip(map(node, self.ends[:, 0].tolist()),
                               map(node, self.ends[:, 1].tolist())))
        return given

    def _checked_stack(self, tables, given, swapped) -> np.ndarray:
        labels = np.array(self.labels_per_node)
        wrong = (labels[given] != tables.shape[1:]).any(axis=1)
        if wrong.any():
            e = int(np.flatnonzero(wrong)[0])
            raise ContractViolation(f"pairwise table of edge {self.edges[e]} has wrong shape")
        bad = np.flatnonzero(~(tables > -INF).all(axis=(1, 2)))  # NaN compares false too
        if bad.size:
            _check_costs(tables[bad[0]], "pairwise table of edge", self.edges[bad[0]])
        if swapped.any():
            tables = tables.copy()
            tables[swapped] = tables[swapped].transpose(0, 2, 1)
        return tables

    def _checked_table(self, e, table, given, swapped):
        table = np.asarray(table, dtype=float)
        if table.shape != (self.labels_per_node[given[0]], self.labels_per_node[given[1]]):
            raise ContractViolation(f"pairwise table of edge {self.edges[e]} has wrong shape")
        _check_costs(table, "pairwise table of edge", self.edges[e])
        return table.T if swapped else table

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
            _check_costs(table, "table_fn's table for edge", (u, v))
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


def weighted_table(table: np.ndarray, weight: float) -> np.ndarray:
    """``weight * table`` with every ±inf entry +inf, also at weight 0.

    Only the finite entries are multiplied, so ``0 * inf`` never runs.
    """
    out = np.full(table.shape, INF)
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

    Keeps all edges internal to ``keep``, in the model's edge order, with
    unchanged unary and pairwise costs.  Returns the submodel and the node
    map (new index -> old index).  The submodel's constant is 0: its energy
    is exactly the master's unary sum over ``keep`` plus the weighted
    internal pairwise sum.
    """
    keep = np.unique(np.array([int(u) for u in keep], dtype=np.int64))
    if not keep.size:
        raise ContractViolation("cannot induce a submodel on an empty node set")
    if keep[0] < 0 or keep[-1] >= model.node_count:
        raise ContractViolation("keep contains nodes outside the model")
    new_index = np.full(model.node_count, -1)
    new_index[keep] = np.arange(keep.size)
    local = new_index[model.ends]
    internal = np.flatnonzero((local >= 0).all(axis=1))
    if isinstance(model.pairwise, np.ndarray):
        tables = model.pairwise[internal]
    else:
        tables = [model.edge_table(e).copy() for e in internal.tolist()]
    keep = keep.tolist()
    sub = GraphicalModel(
        labels_per_node=tuple(model.labels_per_node[u] for u in keep),
        unary=[model.unary[u].copy() for u in keep],
        edges=local[internal],
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
