import math

import numpy as np
import pytest

from crfpose.model import INF, ContractViolation, PartialLabeling, evaluate_energy
from crfpose.pipeline import _geometric_violations
from crfpose.posemodel import (Candidate, HyperParams, MAX_CANDIDATES,
                               NodeObservation, STAGE_ONE_DEFAULTS,
                               STAGE_TWO_DEFAULTS, SceneObservation,
                               build_sparse_neighborhood, build_stage_one_model,
                               build_stage_two_master, pairwise_cost,
                               pairwise_distances, pose_consistent_pixels)
from crfpose.submodels import (Component, enumerate_submodels, is_zero_form,
                               per_node_submodels)


def cand(coord, p=0.5, pixel=0, tree=0):
    return Candidate(coord=tuple(coord), confidence=p, source_pixel=pixel,
                     source_tree=tree)


def tiny_scene(xs, cand_lists, width=None, diameter=1.0):
    width = width or len(xs)
    nodes = tuple(NodeObservation(x=tuple(x), candidates=tuple(cs))
                  for x, cs in zip(xs, cand_lists))
    return SceneObservation(grid_width=width, grid_height=len(xs) // width,
                            nodes=nodes, object_diameter=diameter)


def test_pairwise_cost_equal_distances():
    cost = pairwise_cost([(0, 0, 0), (1, 0, 0)], [(0, 0, 1), (0, 0, 2)], 2.0)
    assert np.array_equal(cost, np.zeros((2, 2)))


def test_pairwise_cost_infinite_beyond_diameter():
    cost = pairwise_cost([(0, 0, 0), (0, 0, 0)], [(0, 0, 0), (3, 0, 0)], 2.0)
    assert cost[0, 1] == cost[1, 0] == INF
    assert cost[0, 0] == cost[1, 1] == 0.0
    # boundary is inclusive: exactly the diameter stays finite
    cost = pairwise_cost([(0, 0, 0), (2, 0, 0)], [(0, 0, 0), (2, 0, 0)], 2.0)
    assert np.array_equal(cost, np.zeros((2, 2)))


def test_pairwise_cost_absolute_difference():
    cost = pairwise_cost([(0, 0, 0), (0.5, 0, 0)], [(0, 0, 0), (0.3, 0, 0)], 1.0)
    assert cost[0, 1] == cost[1, 0] == pytest.approx(0.2, abs=1e-12)


def test_stage_two_diameter_decisions_agree():
    # Pair (0, 2) lies exactly one diameter apart in pairwise_distances, while
    # a 1-D norm of the same difference comes out one ulp larger.
    rng = np.random.default_rng(0)
    points = rng.uniform(-0.03, 0.03, (8, 3)) + (0.0, 0.0, 1.0)
    diameter = float(pairwise_distances(points)[0, 2])
    assert float(np.linalg.norm(points[0] - points[2])) != diameter
    scene = tiny_scene(points, [[cand((0, 0, 0))] for _ in points], diameter=diameter)
    master = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, range(8), [0] * 8)
    enumerated = enumerate_submodels(
        [Component(serial=k, nodes=frozenset({k})) for k in range(8)], scene)
    per_node = per_node_submodels(points, diameter)
    decisions = set()
    for e, (i, j) in enumerate(master.edges):
        ones = PartialLabeling(tuple(int(k in (i, j)) for k in range(8)))
        beyond = {
            master.edge_table(e)[1, 1] == INF,
            j not in enumerated[i].node_set,
            j not in per_node[i].node_set and i not in per_node[j].node_set,
            _geometric_violations([(ones, None)], scene, list(range(8))) == 1,
        }
        assert len(beyond) == 1, (i, j)
        decisions |= beyond
    assert decisions == {True, False}
    assert 2 in enumerated[0].node_set


def test_neighborhood_single_node_grid():
    assert build_sparse_neighborhood(1, 1) == ()


def test_neighborhood_interior_node_of_20x20():
    edges = build_sparse_neighborhood(20, 20)
    assert all(u < v for u, v in edges)
    assert len(edges) == len(set(edges))
    center = 10 * 20 + 10
    neighbors = {v for u, v in edges if u == center} | {u for u, v in edges if v == center}
    assert len(neighbors) == 48
    for v in neighbors:
        r, c = divmod(v, 20)
        assert max(abs(r - 10), abs(c - 10)) > 1  # closest ring excluded
    # independent enumeration: ranks 9..56 by (squared distance, index)
    cells = [(r, c) for r in range(20) for c in range(20)]
    ranked = sorted((( (r - 10) ** 2 + (c - 10) ** 2), r * 20 + c)
                    for r, c in cells if (r, c) != (10, 10))
    expected = {idx for _, idx in ranked[8:56]}
    assert neighbors == expected


def test_neighborhood_boundary_nodes_connect_to_what_exists():
    edges = build_sparse_neighborhood(3, 3)
    # 3x3 grid: every node has only 8 others; all are within the skipped ring
    # except those at rank > 8, so corner nodes still pick nothing
    assert edges == ()


def _neighborhood_by_lexsort(grid_width, grid_height, keep, skip):
    # the per-node definition: rank every node by (distance, row-major index)
    n = grid_width * grid_height
    rows, cols = np.divmod(np.arange(n), grid_width)
    edges = set()
    for u in range(n):
        d2 = (rows - rows[u]) ** 2 + (cols - cols[u]) ** 2
        ranked = np.lexsort((np.arange(n), d2))[1:]
        for v in ranked[skip:skip + keep]:
            edges.add((min(u, int(v)), max(u, int(v))))
    return tuple(sorted(edges))


_GRIDS = [(3, 3), (5, 4), (17, 9), (20, 15), (32, 24), (1, 30), (2, 40), (40, 2)]


@pytest.mark.parametrize("grid, keep, skip",
                         [(g, 48, 8) for g in _GRIDS + [(64, 48)]]
                         + [(g, keep, skip) for g in _GRIDS for keep, skip in ((4, 0), (20, 30))])
def test_neighborhood_matches_the_per_node_ranking(grid, keep, skip):
    assert build_sparse_neighborhood(*grid, keep=keep, skip=skip) == \
        _neighborhood_by_lexsort(*grid, keep, skip)


def test_stage_one_unaries():
    # one candidate with p=0.4 at alpha=0.2 -> inlier unary 0.12
    hp = HyperParams(alpha=0.2, beta=1.0, gamma=0.0)
    scene = tiny_scene([(0, 0, 1)], [[cand((0, 0, 0), p=0.4)]], width=1)
    m = build_stage_one_model(scene, hp)
    assert m.labels_per_node == (2,)
    assert m.unary[0][0] == pytest.approx((1 - 0.4) * 0.2, abs=1e-15)
    # outlier unary: sum of confidences * alpha / 12
    assert m.unary[0][1] == pytest.approx(0.4 * 0.2 / 12, abs=1e-15)


def test_stage_one_outlier_unary_with_full_candidate_set():
    hp = HyperParams(alpha=0.2, beta=1.0, gamma=0.0)
    cands = [cand((0, 0, 0), p=0.5, pixel=i % 4, tree=i % 3) for i in range(12)]
    scene = tiny_scene([(0, 0, 1)], [cands], width=1)
    m = build_stage_one_model(scene, hp)
    assert m.unary[0][12] == pytest.approx(12 * 0.5 * 0.2 / 12, abs=1e-15)


def test_stage_one_all_outlier_labeling_is_finite():
    rng = np.random.default_rng(0)
    xs = [(0.1 * i, 0.05 * j, 1.0 + 0.2 * ((i + j) % 2))
          for j in range(8) for i in range(10)]
    cand_lists = [[cand(rng.uniform(-1, 1, 3), p=float(rng.uniform(0, 1)))
                   for _ in range(3)] for _ in xs]
    scene = tiny_scene(xs, cand_lists, width=10, diameter=0.05)
    m = build_stage_one_model(scene, STAGE_ONE_DEFAULTS)
    outlier = [n.outlier_label for n in scene.nodes]
    assert math.isfinite(evaluate_energy(m, outlier))


def test_stage_one_zero_candidate_node_gets_only_outlier():
    scene = tiny_scene([(0, 0, 1), (0.01, 0, 1)],
                       [[], [cand((0, 0, 0), p=0.9)]], width=2)
    m = build_stage_one_model(scene, STAGE_ONE_DEFAULTS)
    assert m.labels_per_node[0] == 1
    assert m.unary[0][0] == 0.0


def test_stage_two_far_nodes_get_infinite_inlier_pair():
    xs = [(0, 0, 1), (0.02, 0, 1), (0.5, 0, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9)], [cand((0.02, 0, 0), p=0.8)],
                  [cand((0.1, 0, 0), p=0.7)]]
    scene = tiny_scene(xs, cand_lists, width=3, diameter=0.05)
    m = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    assert m.node_count == 3
    assert m.edge_count == 3
    # nodes 0,1 close; node 2 is 0.5m away -> infinite (1,1) on both its edges
    tables = {m.edges[e]: m.edge_table(e) for e in range(3)}
    assert math.isfinite(tables[(0, 1)][1, 1])
    assert tables[(0, 2)][1, 1] == INF
    assert tables[(1, 2)][1, 1] == INF


def test_stage_two_is_zero_form_with_default_gamma():
    xs = [(0, 0, 1), (0.02, 0, 1), (0.01, 0.01, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9)], [cand((0.02, 0, 0), p=0.8)],
                  [cand((0.01, 0.01, 0), p=0.7)]]
    scene = tiny_scene(xs, cand_lists, width=3, diameter=0.05)
    m = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    assert is_zero_form(m)
    # all-zeros energy is the sum of the label-0 unaries
    assert evaluate_energy(m, [0, 0, 0]) == pytest.approx(
        sum(float(m.unary[k][0]) for k in range(3)), abs=0)


def test_stage_two_unaries_follow_both_formulas():
    hp = HyperParams(alpha=0.2, beta=2.0, gamma=0.0)
    xs = [(0, 0, 1), (0.02, 0, 1), (0.01, 0.01, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9), cand((1, 1, 1), p=0.3, pixel=1)],
                  [cand((0.02, 0, 0), p=0.8)],
                  [cand((0.01, 0.01, 0), p=0.7)]]
    scene = tiny_scene(xs, cand_lists, width=3, diameter=0.05)
    m = build_stage_two_master(scene, hp, {0, 1, 2}, [0, 0, 0])
    assert m.unary[0][1] == pytest.approx((1 - 0.9) * 0.2, abs=1e-15)
    assert m.unary[0][0] == pytest.approx((0.9 + 0.3) * 0.2 / 12, abs=1e-15)


def test_stage_two_rejects_bad_inputs():
    scene = tiny_scene([(0, 0, 1)], [[cand((0, 0, 0), p=0.9)]], width=1)
    with pytest.raises(ContractViolation):
        build_stage_two_master(scene, STAGE_TWO_DEFAULTS, set(), [0])
    with pytest.raises(ContractViolation):
        # stage-one label points at the outlier, not a candidate
        build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0}, [1])


def test_stage_two_build_is_deterministic():
    xs = [(0, 0, 1), (0.02, 0, 1), (0.01, 0.01, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9)], [cand((0.02, 0, 0), p=0.8)],
                  [cand((0.01, 0.01, 0), p=0.7)]]
    scene = tiny_scene(xs, cand_lists, width=3, diameter=0.05)
    a = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    b = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    assert a.edges == b.edges
    for e in range(a.edge_count):
        assert np.array_equal(a.edge_table(e), b.edge_table(e))
    for u in range(a.node_count):
        assert np.array_equal(a.unary[u], b.unary[u])


def test_finite_stage_two_energy_keeps_inlier_pairs_within_diameter():
    rng = np.random.default_rng(8)
    xs = [(0.3 * i, 0.0, 1.0) for i in range(5)]
    cand_lists = [[cand(rng.uniform(0, 0.05, 3), p=0.9)] for _ in xs]
    scene = tiny_scene(xs, cand_lists, width=5, diameter=0.05)
    m = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, set(range(5)), [0] * 5)
    points = scene.points()
    for _ in range(50):
        l = [int(rng.integers(2)) for _ in range(5)]
        if math.isfinite(evaluate_energy(m, l)):
            ones = [k for k, x in enumerate(l) if x == 1]
            for i in range(len(ones)):
                for j in range(i + 1, len(ones)):
                    d = np.linalg.norm(points[ones[i]] - points[ones[j]])
                    assert d <= scene.object_diameter


def test_inlier_unary_monotone_in_confidence():
    hp = HyperParams(alpha=0.2, beta=1.0, gamma=0.0)
    unaries = []
    for p in (0.1, 0.5, 0.9, 1.0):
        scene = tiny_scene([(0, 0, 1)], [[cand((0, 0, 0), p=p)]], width=1)
        unaries.append(float(build_stage_one_model(scene, hp).unary[0][0]))
    assert unaries == sorted(unaries, reverse=True)


def test_pose_consistent_pixels_trivial_cases():
    xs = [(0, 0, 1), (0.02, 0, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9, pixel=2, tree=1)],
                  [cand((0.02, 0, 0), p=0.8)]]
    scene = tiny_scene(xs, cand_lists, width=2, diameter=0.05)
    assert pose_consistent_pixels(scene, [1, 1]) == []
    out = pose_consistent_pixels(scene, [0, 1])
    assert len(out) == 1
    px = out[0]
    assert px.node == 0
    # node (0,0), source pixel 2 -> pixel block row 1, col 0
    assert (px.pixel_row, px.pixel_col) == (1, 0)
    assert px.coord == (0.0, 0.0, 0.0)


def test_pose_consistent_pixels_match_planted_coordinates():
    from crfpose.synth import default_scenario, generate_scene
    sigma = 1e-4
    sc = default_scenario(seed=6, coord_noise_sigma=sigma, inlier_rate=0.9,
                          visible_fraction=0.9)
    scene, truth = generate_scene(sc)
    cam_true = {u: sc.true_pose.inverse_apply(np.asarray(scene.nodes[u].x)[None])[0]
                for u, l in enumerate(truth) if l != MAX_CANDIDATES}
    emitted = pose_consistent_pixels(scene, list(truth))
    assert emitted
    close = sum(1 for px in emitted
                if np.linalg.norm(np.asarray(px.coord) - cam_true[px.node]) <= 3 * sigma)
    assert close >= 0.9 * len(emitted)
