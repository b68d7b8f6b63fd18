"""Inlier components, submodel enumeration, zero form, decomposed solving.

A binary master whose pairwise tables have zeros everywhere except (1,1)
("zero form") can be solved through induced submodels: if some submodel's
node set contains every label-1 node of an exact optimum, the submodel's
optimum extended by zeros attains the master optimum, and a persistent
partial labeling of the submodel is persistent for the master.  Submodels
are generated from connected inlier components so that nodes further apart
than the object diameter (infinite (1,1) cost) land in separate submodels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (ContractViolation, GraphicalModel, PartialLabeling,
                    extend_partial, induce_submodel, weighted_table)
from .posemodel import SceneObservation, pairwise_distances
from .qpbo import binary_tables, qpbo

MIN_COMPONENT_SIZE = 3

_NEIGHBORS_8 = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                     if (dr, dc) != (0, 0))


@dataclass(frozen=True)
class Component:
    serial: int
    nodes: frozenset[int]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class SubmodelSpec:
    seed_component: int
    member_components: frozenset[int]
    node_set: frozenset[int]


def connected_components(inliers, grid_width: int, grid_height: int) -> list[Component]:
    """8-connected components of the inlier mask, serials in row-major
    discovery order."""
    inlier_set = set(int(u) for u in inliers)
    for u in inlier_set:
        if not 0 <= u < grid_width * grid_height:
            raise ContractViolation(f"inlier node {u} outside the grid")
    seen = set()
    components = []
    for start in sorted(inlier_set):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        nodes = []
        while queue:
            u = queue.popleft()
            nodes.append(u)
            r, c = divmod(u, grid_width)
            for dr, dc in _NEIGHBORS_8:
                rr, cc = r + dr, c + dc
                if 0 <= rr < grid_height and 0 <= cc < grid_width:
                    v = rr * grid_width + cc
                    if v in inlier_set and v not in seen:
                        seen.add(v)
                        queue.append(v)
        components.append(Component(serial=len(components), nodes=frozenset(nodes)))
    return components


def filter_components(components, min_size: int = MIN_COMPONENT_SIZE) -> list[Component]:
    """Drop small components and reassign consecutive serials."""
    kept = [c for c in components if len(c) >= min_size]
    return [Component(serial=i, nodes=c.nodes) for i, c in enumerate(kept)]


def enumerate_submodels(components, scene: SceneObservation) -> list[SubmodelSpec]:
    """One spec per component: itself plus every later component whose nodes
    are all within the object diameter of all of the seed's nodes (max
    pairwise camera-space distance)."""
    dist = pairwise_distances(
        scene.points()[[u for c in components for u in sorted(c.nodes)]])
    bounds = np.cumsum([0] + [len(c) for c in components])
    specs = []
    for a, f in enumerate(components):
        members = {f.serial}
        nodes = set(f.nodes)
        for b, g in enumerate(components):
            if g.serial <= f.serial:
                continue
            block = dist[bounds[a]:bounds[a + 1], bounds[b]:bounds[b + 1]]
            if block.max() <= scene.object_diameter:
                members.add(g.serial)
                nodes.update(g.nodes)
        specs.append(SubmodelSpec(
            seed_component=f.serial,
            member_components=frozenset(members),
            node_set=frozenset(nodes),
        ))
    return specs


def per_node_submodels(points: np.ndarray, diameter: float) -> list[SubmodelSpec]:
    """Alternative scheme: one spec per node, containing every node within
    camera distance ``diameter`` of it."""
    return [SubmodelSpec(seed_component=u, member_components=frozenset(),
                         node_set=frozenset(np.flatnonzero(row <= diameter).tolist()))
            for u, row in enumerate(pairwise_distances(points))]


def is_zero_form(model: GraphicalModel) -> bool:
    return not binary_tables(model).reshape(-1, 4)[:, :3].any()


def to_zero_form(model: GraphicalModel) -> tuple[GraphicalModel, float]:
    """Reparameterize a binary model so every edge has zeros at (0,0), (0,1)
    and (1,0), preserving the energy of every labeling exactly.

    Already-zero-form models are returned unchanged with shift 0.  Otherwise
    the pairwise weight is folded into the tables (output weight 1) and the
    moved mass lands in the unaries and the constant; the returned shift is
    the constant added, summed in edge order.  Infinite entries are only
    allowed at (1,1).
    """
    if is_zero_form(model):
        return model, 0.0
    t = binary_tables(model)
    outside = np.flatnonzero(np.isinf(t.reshape(-1, 4)[:, :3]).any(axis=1))
    if outside.size:
        raise ContractViolation(f"edge {model.edges[outside[0]]} has an infinite "
                                "cost outside (1,1); cannot zero it")
    wa, wb, wc, wd = weighted_table(t, model.pairwise_weight).reshape(-1, 4).T
    # w*T(x,y) = wa + (wc-wa)x + (wb-wa)y + (wa+wd-wb-wc)xy
    shift = float(np.cumsum(np.append(0.0, wa))[-1])
    unary = np.array(model.unary, dtype=float).reshape(-1, 2)
    # per edge u before v, in edge order
    np.add.at(unary[:, 1], model.ends.reshape(-1),
              np.stack([wc - wa, wb - wa], axis=1).reshape(-1))
    tables = np.zeros(t.shape)
    tables[:, 1, 1] = wa + wd - wb - wc
    out = GraphicalModel(
        labels_per_node=model.labels_per_node,
        unary=list(unary),
        edges=model.ends,
        pairwise=tables,
        pairwise_weight=1.0,
        constant=model.constant + shift,
    )
    return out, shift


def solve_decomposed(master: GraphicalModel, specs) -> list[tuple[PartialLabeling, SubmodelSpec]]:
    """Run QPBO on each spec's induced submodel and extend to the master.

    Nodes outside a submodel are labeled 0.  The master must be in zero form;
    at least one returned candidate is persistent for the master whenever
    some spec's node set contains all label-1 nodes of a master optimum.
    Results are ordered by seed serial.
    """
    if not is_zero_form(master):
        raise ContractViolation("solve_decomposed requires a zero-form master")
    results = []
    for spec in sorted(specs, key=lambda s: s.seed_component):
        if not spec.node_set:
            raise ContractViolation("submodel spec with empty node set")
        if any(not 0 <= u < master.node_count for u in spec.node_set):
            raise ContractViolation("spec nodes outside the master")
        sub, node_map = induce_submodel(master, spec.node_set)
        partial = qpbo(sub)
        results.append((extend_partial(master.node_count, partial, node_map, fill=0), spec))
    return results
