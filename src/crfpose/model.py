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


def _check_costs(table: np.ndarray, what: str, where) -> None:
    """Raise unless every cost is finite or +inf; names ``what`` ``where``."""
    if not table.min() > -INF:  # the minimum is NaN if any entry is
        kind = "NaN" if np.isnan(table).any() else "-inf"
        raise ContractViolation(f"{what} {where} has a {kind} cost")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _padded(tables, counts: np.ndarray, size: int, kind: str, item: str, name) -> np.ndarray:
    """A copy of per-item cost tables, given as a list of tables of shape
    ``counts[i]`` or as one array +inf past them, as one array ``size`` long
    on each table axis.  Checked in array passes; errors name ``name(i)``."""
    n, axes = counts.shape
    wrong = f"{kind} table of {item} {{}} has wrong {'length' if axes == 1 else 'shape'}"
    if len(tables) != n:
        raise ContractViolation(f"one {kind} table per {item} required")
    if not isinstance(tables, np.ndarray):
        stack = np.full((n,) + (size,) * axes, INF)
        for i, table in enumerate(tables):
            table = np.asarray(table, dtype=float)
            if table.shape != tuple(counts[i]):
                raise ContractViolation(wrong.format(name(i)))
            stack[(i, *map(slice, counts[i]))] = table
        tables = stack
    tables = np.asarray(tables, dtype=float)
    if tables.ndim != 1 + axes:
        raise ContractViolation(f"{kind} must be an array of one table per {item}")
    outside = np.zeros(tables.shape, dtype=bool)
    for axis, k in enumerate(counts.T, start=1):
        index = np.arange(tables.shape[axis]).reshape((-1,) + (1,) * (axes - axis))
        outside |= index >= k.reshape((-1,) + (1,) * axes)
    per_table = tuple(range(1, 1 + axes))
    bad = (counts > tables.shape[1:]).any(axis=1) | (outside & (tables != INF)).any(axis=per_table)
    if bad.any():
        raise ContractViolation(wrong.format(name(np.flatnonzero(bad)[0])))
    bad = np.flatnonzero(~(tables > -INF).all(axis=per_table))  # NaN compares false too
    if bad.size:
        _check_costs(tables[bad[0]], f"{kind} table of {item}", name(bad[0]))
    out = np.full((n,) + (size,) * axes, INF)
    inner = tables[(slice(None),) + (slice(size),) * axes]  # only +inf is cut off
    out[(slice(None), *map(slice, inner.shape[1:]))] = inner
    return out


@dataclass(eq=False)
class GraphicalModel:
    """A pairwise model: per-node label sets, unary tables, edge tables.

    The model is held as read-only arrays, each stored once, L being the
    largest label count:

    - ``unary``: (n, L), +inf past each node's label count; given as a list
      of per-node tables or as an (n, a) array, +inf past each count.
    - ``edges``: (E, 2) int64, each edge (u, v) with u < v, in the caller's
      order; an edge given as (v, u) has its table transposed.
    - ``pairwise``, materialized: (E, L, L), +inf past each edge's (Lu, Lv)
      block, which ``edge_table(e)`` views; given as a list of (Lu, Lv)
      tables or as an (E, a, b) array, +inf past each block.  Lazy instead:
      ``table_fn(u, v)``, deterministic, called with Python ints by every
      ``edge_table(e)`` call, which checks and returns a fresh table;
      nothing is stored and ``pairwise`` is one ``None`` per edge.

    The tables are the energy's own pairwise terms: a weight such as the
    paper's β is applied where they are made (``weighted_table``), and the
    energy of a labeling is the constant plus its unary and table entries.
    Given arrays are copied, so a model is immutable after construction.
    Costs may be +inf, never NaN or -inf.
    """

    labels_per_node: tuple[int, ...]
    unary: list | np.ndarray
    edges: np.ndarray
    pairwise: list | np.ndarray | None = None
    table_fn: Callable[[int, int], np.ndarray] | None = None
    constant: float = 0.0

    def __post_init__(self):
        self.labels_per_node = tuple(int(k) for k in self.labels_per_node)
        if any(k < 1 for k in self.labels_per_node):
            raise ContractViolation("every node needs at least one label")
        labels = np.array(self.labels_per_node, dtype=np.int64)
        size = int(labels.max(initial=1))
        self.unary = _read_only(_padded(self.unary, labels[:, None], size, "unary", "node", int))
        given = self._set_edges(labels.size)
        if self.table_fn is not None:
            if self.pairwise is not None:
                raise ContractViolation("give pairwise tables or a table_fn, not both")
            # None marks a table that edge_table builds on each call; a
            # tracer wrapping edge_table reads it that way
            self.pairwise = (None,) * len(given)
        else:
            stack = _padded([] if self.pairwise is None else self.pairwise, labels[given],
                            size, "pairwise", "edge", self.edge_pair)
            # a square stack transposes each edge's block into the stored orientation
            swapped = given[:, 0] > given[:, 1]
            stack[swapped] = stack[swapped].transpose(0, 2, 1)
            self.pairwise = _read_only(stack)

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
        self.edges = _read_only(np.sort(given, axis=1))
        keys = self.edges[:, 0] * n + self.edges[:, 1]
        order = np.argsort(keys, kind="stable")
        repeated = order[1:][np.diff(keys[order]) == 0]
        if repeated.size:
            u, v = self.edges[repeated.min()].tolist()
            raise ContractViolation(f"duplicate edge ({u},{v})")
        return given

    def edge_pair(self, e: int) -> tuple[int, int]:
        """Edge ``e`` as a pair of Python ints (u, v), u < v."""
        return tuple(self.edges[e].tolist())

    @property
    def node_count(self) -> int:
        return len(self.labels_per_node)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_table(self, e: int) -> np.ndarray:
        """Cost table of edge ``e``: a read-only view of the stack, or built
        by ``table_fn``."""
        u, v = self.edges[e].tolist()
        ku, kv = self.labels_per_node[u], self.labels_per_node[v]
        if self.table_fn is None:
            return self.pairwise[e, :ku, :kv]
        table = np.asarray(self.table_fn(u, v), dtype=float)
        if table.shape != (ku, kv):
            raise ContractViolation(f"table_fn returned wrong shape for edge {(u, v)}")
        _check_costs(table, "table_fn's table for edge", (u, v))
        return table


def _check_labeling(model: GraphicalModel, labeling: Sequence[int]) -> None:
    if len(labeling) != model.node_count:
        raise ContractViolation(
            f"labeling has {len(labeling)} entries for {model.node_count} nodes")
    for u, l in enumerate(labeling):
        if not 0 <= int(l) < model.labels_per_node[u]:
            raise ContractViolation(f"label {l} out of range at node {u}")


def weighted_table(table: np.ndarray, weight: float) -> np.ndarray:
    """A copy of ``table`` with its finite entries multiplied by ``weight``.

    An inf or NaN entry is kept as it is: ``0 * inf`` never runs, and the
    model's cost check still refuses a NaN or -inf.  Models hold their
    tables weighted, so this runs where tables are built.
    """
    out = np.array(table, dtype=float)
    np.multiply(weight, out, out=out, where=np.isfinite(out))
    return out


def block_energies(model: GraphicalModel, block: np.ndarray) -> np.ndarray:
    """Total energies of the labelings that are the rows of the (B, n) ``block``.

    The one summation order for a model's energy: the constant, then the
    unaries in node order, then the table entries in edge order.  A row
    with any inf term is inf, and repeated evaluation is bit-identical.
    """
    energies = np.full(block.shape[0], model.constant, dtype=float)
    for u in range(model.node_count):
        energies += model.unary[u, block[:, u]]
    for e, (u, v) in enumerate(model.edges.tolist()):
        energies += model.edge_table(e)[block[:, u], block[:, v]]
    return energies


def evaluate_energy(model: GraphicalModel, labeling: Sequence[int]) -> float:
    """Total energy of one labeling: ``block_energies`` of a single row."""
    _check_labeling(model, labeling)
    return float(block_energies(model, np.array([[int(l) for l in labeling]]))[0])


def induce_submodel(model: GraphicalModel, keep) -> tuple[GraphicalModel, tuple[int, ...]]:
    """Restrict ``model`` to the node set ``keep``.

    Keeps all edges internal to ``keep``, in the model's edge order, with
    unchanged unary and pairwise costs.  Returns the submodel and the node
    map (new index -> old index).  The submodel's constant is 0: its energy
    is exactly the master's unary sum over ``keep`` plus its internal
    pairwise sum.  A model with lazy tables is refused.
    """
    if model.table_fn is not None:
        raise ContractViolation("cannot induce a submodel of a model with lazy tables")
    keep = np.unique(np.array([int(u) for u in keep], dtype=np.int64))
    if not keep.size:
        raise ContractViolation("cannot induce a submodel on an empty node set")
    if keep[0] < 0 or keep[-1] >= model.node_count:
        raise ContractViolation("keep contains nodes outside the model")
    new_index = np.full(model.node_count, -1)
    new_index[keep] = np.arange(keep.size)
    local = new_index[model.edges]
    internal = np.flatnonzero((local >= 0).all(axis=1))
    sub = GraphicalModel(
        labels_per_node=tuple(model.labels_per_node[u] for u in keep.tolist()),
        unary=model.unary[keep],
        edges=local[internal],
        pairwise=model.pairwise[internal],
        constant=0.0,
    )
    return sub, tuple(keep.tolist())


@dataclass(frozen=True)
class PartialLabeling:
    """Per-node assignment over {label index, UNLABELED}."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if any(a < UNLABELED for a in self.assignment):
            raise ContractViolation("labels must be >= 0 or UNLABELED")

    def __len__(self) -> int:
        return len(self.assignment)

    def labeled_count(self) -> int:
        return sum(1 for a in self.assignment if a != UNLABELED)


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
