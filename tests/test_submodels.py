import numpy as np
import pytest

from crfpose.model import (INF, ContractViolation, GraphicalModel,
                           PartialLabeling, UNLABELED, evaluate_energy,
                           induce_submodel, weighted_table)
from crfpose.oracle import (brute_force, check_persistency,
                            sample_binary_model, sample_zero_form_model, _spawn)
from crfpose.posemodel import (MAX_CANDIDATES, STAGE_TWO_DEFAULTS, SceneObservation,
                               build_stage_two_master)
from crfpose.qpbo import count_infinite_pairs
from crfpose.submodels import (Component, SubmodelSpec, connected_components,
                               enumerate_submodels, filter_components,
                               is_zero_form, per_node_submodels,
                               solve_decomposed, to_zero_form)


# ---------------------------------------------------------------------------
# connected components

def test_single_inlier_single_component():
    comps = connected_components({5}, 4, 4)
    assert len(comps) == 1
    assert comps[0].serial == 0
    assert comps[0].nodes == frozenset({5})


def test_diagonal_neighbors_are_connected():
    # nodes (0,0) and (1,1) on a 3x3 grid
    comps = connected_components({0, 4}, 3, 3)
    assert len(comps) == 1
    assert comps[0].nodes == frozenset({0, 4})


def test_empty_inliers_give_empty_list():
    assert connected_components(set(), 3, 3) == []


def flood_fill_oracle(mask, width, height):
    """Independent 8-connectivity labeling, row-major discovery."""
    remaining = set(mask)
    out = []
    for start in sorted(mask):
        if start not in remaining:
            continue
        stack, comp = [start], set()
        remaining.discard(start)
        while stack:
            u = stack.pop()
            comp.add(u)
            r, c = divmod(u, width)
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    v = rr * width + cc
                    if 0 <= rr < height and 0 <= cc < width and v in remaining:
                        remaining.discard(v)
                        stack.append(v)
        out.append(frozenset(comp))
    return out


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        w, h = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        mask = {u for u in range(w * h) if rng.random() < 0.35}
        got = connected_components(mask, w, h)
        want = flood_fill_oracle(mask, w, h)
        assert [c.nodes for c in got] == want
        assert [c.serial for c in got] == list(range(len(want)))


# ---------------------------------------------------------------------------
# filtering and enumeration

def comp(serial, nodes):
    return Component(serial=serial, nodes=frozenset(nodes))


def test_filter_by_size_and_reserialize():
    comps = [comp(0, {1}), comp(1, {2, 3}), comp(2, {4, 5, 6}),
             comp(3, {7, 8, 9, 10, 11})]
    kept = filter_components(comps)
    assert [len(c) for c in kept] == [3, 5]
    assert [c.serial for c in kept] == [0, 1]
    assert filter_components([]) == []
    big = [comp(0, {0, 1, 2}), comp(1, {3, 4, 5})]
    assert [c.nodes for c in filter_components(big)] == [c.nodes for c in big]


def grid_scene(points, width, diameter, coords=(0.0, 0.0, 0.0), confidence=0.5):
    """One candidate per node, at ``coords`` (one row per node, or one for all)."""
    n = len(points)
    candidates = np.zeros((n, MAX_CANDIDATES, 3))
    candidates[:, 0] = coords
    conf = np.zeros((n, MAX_CANDIDATES))
    conf[:, 0] = confidence
    return SceneObservation(grid_width=width, grid_height=n // width,
                            object_diameter=diameter, points=np.asarray(points, dtype=float),
                            candidate_count=np.ones(n, dtype=int), coords=candidates,
                            confidence=conf, source_pixel=np.zeros((n, MAX_CANDIDATES), dtype=int),
                            source_tree=np.zeros((n, MAX_CANDIDATES), dtype=int))


def test_enumerate_three_distant_components():
    # camera points: three groups far beyond the diameter
    points = [(0, 0, 1), (0.01, 0, 1), (1, 0, 1), (1.01, 0, 1), (2, 0, 1), (2.01, 0, 1)]
    scene = grid_scene(points, width=6, diameter=0.05)
    comps = [comp(0, {0, 1}), comp(1, {2, 3}), comp(2, {4, 5})]
    specs = enumerate_submodels(comps, scene)
    assert [s.node_set for s in specs] == [{0, 1}, {2, 3}, {4, 5}]
    assert [s.seed_component for s in specs] == [0, 1, 2]


def test_enumerate_hand_traced_mixed_case():
    # components 0 and 1 mutually within D, component 2 far away
    points = [(0, 0, 1), (0.01, 0, 1), (0.02, 0, 1), (0.03, 0, 1), (2, 0, 1), (2.01, 0, 1)]
    scene = grid_scene(points, width=6, diameter=0.05)
    comps = [comp(0, {0, 1}), comp(1, {2, 3}), comp(2, {4, 5})]
    specs = enumerate_submodels(comps, scene)
    assert specs[0].node_set == frozenset({0, 1, 2, 3})
    assert specs[1].node_set == frozenset({2, 3})
    assert specs[2].node_set == frozenset({4, 5})


def test_enumerate_requires_all_nodes_within_distance():
    # component 1 is within D of part of component 0 but not all of it
    points = [(0, 0, 1), (0.04, 0, 1), (0.07, 0, 1), (0.08, 0, 1)]
    scene = grid_scene(points, width=4, diameter=0.05)
    comps = [comp(0, {0, 1}), comp(1, {2, 3})]
    specs = enumerate_submodels(comps, scene)
    # max pairwise distance 0.08 > 0.05, so no merge
    assert specs[0].node_set == frozenset({0, 1})


def test_enumerate_single_component_and_determinism():
    points = [(0, 0, 1), (0.01, 0, 1), (0.02, 0, 1)]
    scene = grid_scene(points, width=3, diameter=0.05)
    comps = [comp(0, {0, 1, 2})]
    a = enumerate_submodels(comps, scene)
    b = enumerate_submodels(comps, scene)
    assert a == b
    assert len(a) == 1
    assert a[0].node_set == frozenset({0, 1, 2})


def test_spec_invariants():
    points = [(0, 0, 1), (0.01, 0, 1), (0.02, 0, 1), (0.03, 0, 1)]
    scene = grid_scene(points, width=4, diameter=0.05)
    comps = [comp(0, {0, 1}), comp(1, {2, 3})]
    for s in enumerate_submodels(comps, scene):
        # the seed's nodes, plus nodes of later components only
        assert comps[s.seed_component].nodes <= s.node_set
        assert s.node_set <= set().union(*(c.nodes for c in comps[s.seed_component:]))


def test_per_node_scheme():
    points = np.array([[0, 0, 1], [0.01, 0, 1], [0.02, 0, 1], [9, 0, 1.0]])
    specs = per_node_submodels(points, diameter=0.05)
    assert len(specs) == 4
    assert specs[0].node_set == frozenset({0, 1, 2})
    assert specs[3].node_set == frozenset({3})


# ---------------------------------------------------------------------------
# zero form

def test_zero_form_leaves_zero_form_models_untouched():
    m = sample_zero_form_model(np.random.default_rng(0))
    out, shift = to_zero_form(m)
    assert out is m
    assert shift == 0.0


def test_zero_form_single_constant_edge():
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[np.ones((2, 2))])
    out, shift = to_zero_form(m)
    assert is_zero_form(out)
    for l in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert evaluate_energy(out, l) == pytest.approx(evaluate_energy(m, l), abs=1e-15)
    assert shift == out.constant - m.constant


def test_zero_form_preserves_all_energies():
    for rng in _spawn(19, 25):
        m = sample_binary_model(rng, max_nodes=8)
        out, _ = to_zero_form(m)
        assert is_zero_form(out)
        n = m.node_count
        for idx in range(2 ** n):
            l = [(idx >> u) & 1 for u in range(n)]
            assert evaluate_energy(out, l) == pytest.approx(
                evaluate_energy(m, l), abs=1e-12)


def test_zero_form_rejects_infinite_zeroable_entries():
    t = np.array([[INF, 0.0], [0.0, 1.0]])
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),), pairwise=[t])
    with pytest.raises(ContractViolation):
        to_zero_form(m)


def test_zero_form_allows_infinite_1_1():
    t = np.array([[1.0, 0.5], [0.25, INF]])
    for weight in (2.0, 0.0):  # at weight 0 the inf entry stays inf, not 0 * inf
        m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                           pairwise=[weighted_table(t, weight)])
        out, _ = to_zero_form(m)
        assert out.edge_table(0)[1, 1] == INF
        for l in [(0, 0), (0, 1), (1, 0)]:
            assert evaluate_energy(out, l) == pytest.approx(evaluate_energy(m, l), abs=1e-12)
        assert evaluate_energy(out, (1, 1)) == INF == evaluate_energy(m, (1, 1))


# ---------------------------------------------------------------------------
# decomposed solving

def test_solve_decomposed_requires_zero_form():
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[np.ones((2, 2))])
    with pytest.raises(ContractViolation):
        solve_decomposed(m, [SubmodelSpec(0, frozenset({0, 1}))])


def test_solve_decomposed_empty_specs():
    m = sample_zero_form_model(np.random.default_rng(1))
    assert solve_decomposed(m, []) == []


def test_solve_decomposed_spec_covering_optimum_support_is_persistent():
    # attractive triangle on nodes 0-2 with negative (1,1); node 3 repulsive
    unary = [np.array([0.0, -0.5]), np.array([0.0, -0.5]), np.array([0.0, -0.5]),
             np.array([0.0, 5.0])]
    edges = ((0, 1), (0, 2), (1, 2), (2, 3))
    z = np.array([[0.0, 0.0], [0.0, -1.0]])
    rep = np.array([[0.0, 0.0], [0.0, 4.0]])
    m = GraphicalModel((2,) * 4, unary, edges, pairwise=[z, z, z, rep])
    opt = brute_force(m)
    assert opt.optima == [(1, 1, 1, 0)]
    results = solve_decomposed(m, [SubmodelSpec(0, frozenset({0, 1, 2}))])
    extension, _ = results[0]
    # the extension (fill 0 outside the submodel) matches the optimum exactly
    assert check_persistency(m, extension)
    assert extension.assignment == (1, 1, 1, 0)


def test_solve_decomposed_all_zero_optimum_consistent_everywhere():
    unary = [np.array([0.0, 2.0]) for _ in range(5)]
    edges = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
    z = np.array([[0.0, 0.0], [0.0, 1.0]])
    m = GraphicalModel((2,) * 5, unary, edges, pairwise=[z.copy() for _ in edges])
    specs = [SubmodelSpec(0, frozenset({0, 1, 2})),
             SubmodelSpec(1, frozenset({2, 3, 4}))]
    for extension, _ in solve_decomposed(m, specs):
        assert UNLABELED not in extension.assignment
        assert extension.assignment == (0,) * 5


def test_solve_decomposed_randomized_guarantee():
    # whenever a submodel's node set contains the optimum's support, the
    # extension is persistent for the master
    for rng in _spawn(23, 30):
        m = sample_zero_form_model(rng, max_nodes=10)
        opt = brute_force(m)
        support = {u for u, l in enumerate(opt.optima[0]) if l == 1}
        keep = set(support)
        for u in range(m.node_count):
            if rng.random() < 0.4:
                keep.add(u)
        if not keep:
            keep.add(0)
        spec = SubmodelSpec(0, frozenset(keep))
        extension, _ = solve_decomposed(m, [spec])[0]
        assert check_persistency(m, extension)


def test_solve_decomposed_results_sorted_by_seed():
    m = sample_zero_form_model(np.random.default_rng(2), max_nodes=8)
    n = m.node_count
    specs = [SubmodelSpec(2, frozenset(range(n))),
             SubmodelSpec(0, frozenset(range(min(3, n))))]
    results = solve_decomposed(m, specs)
    assert [s.seed_component for _, s in results] == [0, 2]


# ---------------------------------------------------------------------------
# infinite-pair reduction through decomposition

def test_decomposition_reduces_infinite_pairs():
    # two tight clusters far apart: the master mixes them, submodels do not
    points = [(0.001 * i, 0, 1) for i in range(4)] + \
             [(2 + 0.001 * i, 0, 1) for i in range(4)]
    scene = grid_scene(points, 8, 0.05, coords=[(0.001 * (i % 4), 0, 0) for i in range(8)],
                       confidence=0.9)
    master = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, set(range(8)),
                                    [0] * 8)
    assert count_infinite_pairs(master) == 16
    specs = [SubmodelSpec(0, frozenset(range(4))),
             SubmodelSpec(1, frozenset(range(4, 8)))]
    total = 0
    for spec in specs:
        sub, _ = induce_submodel(master, spec.node_set)
        total += count_infinite_pairs(sub)
    assert total < count_infinite_pairs(master)
    assert total == 0
