import hashlib
import math

import numpy as np
import pytest

from crfpose.model import INF, ContractViolation, PartialLabeling, evaluate_energy
from crfpose.pipeline import _geometric_violations
from crfpose.posemodel import (ELIMINATION_CHUNK, HyperParams, MAX_CANDIDATES,
                               STAGE_ONE_DEFAULTS, STAGE_TWO_DEFAULTS, SceneObservation,
                               build_sparse_neighborhood, build_stage_one_model,
                               build_stage_two_master, pairwise_cost,
                               pairwise_distances, _candidate_minima,
                               _eliminate_candidates, _worst_change)
from crfpose.oracle import stage_one_energy
from crfpose.posefit import cluster_hypotheses
from crfpose.submodels import (Component, SubmodelSpec, enumerate_submodels,
                               is_zero_form, per_node_submodels)


def cand(coord, p=0.5, pixel=0, tree=0):
    return tuple(coord), p, pixel, tree


def scene_arrays(xs, cand_lists):
    """SceneObservation's per-node arrays from per-node lists of ``cand``."""
    n = len(xs)
    arrays = dict(points=np.asarray(xs, dtype=float),
                  candidate_count=np.array([len(cs) for cs in cand_lists]),
                  coords=np.zeros((n, MAX_CANDIDATES, 3)),
                  confidence=np.zeros((n, MAX_CANDIDATES)),
                  source_pixel=np.zeros((n, MAX_CANDIDATES), dtype=int),
                  source_tree=np.zeros((n, MAX_CANDIDATES), dtype=int))
    for u, cs in enumerate(cand_lists):
        for j, values in enumerate(cs):
            for name, value in zip(("coords", "confidence", "source_pixel", "source_tree"),
                                   values):
                arrays[name][u, j] = value
    return arrays


def tiny_scene(xs, cand_lists, width=None, diameter=1.0):
    width = width or len(xs)
    return SceneObservation(grid_width=width, grid_height=len(xs) // width,
                            object_diameter=diameter, **scene_arrays(xs, cand_lists))


def test_scene_observation_checks_every_array_once():
    arrays = scene_arrays([(0, 0, 1), (0.01, 0, 1)],
                          [[cand((0, 0, 0), p=0.9)],
                           [cand((1, 0, 0), p=0.8), cand((0, 1, 0), p=0.7, pixel=3, tree=2)]])

    def build(name=None, index=None, value=None, array=None):
        given = dict(arrays)
        if name is not None:
            given[name] = array if array is not None else given[name].copy()
            if index is not None:
                given[name][index] = value
        return SceneObservation(grid_width=2, grid_height=1, object_diameter=0.05, **given)

    scene = build()
    assert scene.candidate_count.tolist() == [1, 2]
    with pytest.raises(ValueError, match="read-only"):
        scene.coords[0, 0, 0] = 1.0
    for args, message in [
        (("confidence", (1, 1), 1.5), r"^field 'confidence\[1\]\[1\]' is outside \[0,1\]$"),
        (("confidence", (1, 0), np.nan), r"^field 'confidence\[1\]\[0\]' is outside \[0,1\]$"),
        (("source_pixel", (1, 1), 4), r"^field 'source_pixel\[1\]\[1\]' is outside 0\.\.3$"),
        (("source_tree", (0, 0), -1), r"^field 'source_tree\[0\]\[0\]' is outside 0\.\.2$"),
        (("coords", (1, 1, 2), np.inf), r"^field 'coords\[1\]\[1\]' is not finite$"),
        (("points", (1, 0), np.nan), r"^field 'points\[1\]' is not finite$"),
        (("candidate_count", 0, 13), r"^field 'candidate_count\[0\]' is outside 0\.\.12$"),
        (("source_pixel", None, None, arrays["source_pixel"] + 0.0), "source_pixel must be"),
        (("coords", None, None, arrays["coords"][:, :11]), "coords must be"),
    ]:
        with pytest.raises(ContractViolation, match=message):
            build(*args)
    # entries past a node's count are stored as 0, so no consumer reads them
    assert build("confidence", (0, 5), 0.9).confidence[0, 5] == 0.0


def test_outlier_unary_sums_confidences_in_candidate_order():
    # a pairwise sum over the padded row would move the last bit on some nodes
    from crfpose.synth import default_scenario, generate_scene
    scene, _ = generate_scene(default_scenario(seed=0))
    m = build_stage_one_model(scene, STAGE_ONE_DEFAULTS)
    for u, k in enumerate(scene.candidate_count.tolist()):
        assert m.unary[u][k] == \
            sum(scene.confidence[u, :k].tolist()) * STAGE_ONE_DEFAULTS.alpha / MAX_CANDIDATES


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
    assert build_sparse_neighborhood(1, 1).shape == (0, 2)


def test_neighborhood_interior_node_of_20x20():
    edges = [tuple(e) for e in build_sparse_neighborhood(20, 20).tolist()]
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
    assert edges.shape == (0, 2)


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
    return sorted(edges)


_GRIDS = [(3, 3), (5, 4), (17, 9), (20, 15), (32, 24), (1, 30), (2, 40), (40, 2)]


@pytest.mark.parametrize("grid, keep, skip",
                         [(g, 48, 8) for g in _GRIDS + [(64, 48)]]
                         + [(g, keep, skip) for g in _GRIDS for keep, skip in ((4, 0), (20, 30))])
def test_neighborhood_matches_the_per_node_ranking(grid, keep, skip):
    edges = build_sparse_neighborhood(*grid, keep=keep, skip=skip)
    assert edges.dtype == np.int64
    assert [tuple(e) for e in edges.tolist()] == _neighborhood_by_lexsort(*grid, keep, skip)


def test_stage_one_unaries():
    # at alpha=0.2 the p=0.96 candidate (inlier unary 0.008) is cheaper than
    # the outlier ((0.96 + 0.4) * 0.2 / 12) and stays; the p=0.4 one (0.12)
    # is eliminated
    hp = HyperParams(alpha=0.2, beta=1.0, gamma=0.0)
    scene = tiny_scene([(0, 0, 1)], [[cand((0, 0, 0), p=0.96), cand((0, 0, 0), p=0.4)]],
                       width=1)
    m = build_stage_one_model(scene, hp)
    assert m.labels_per_node == (3,)
    assert m.unary[0][0] == pytest.approx((1 - 0.96) * 0.2, abs=1e-15)
    assert m.unary[0][1] == INF
    # outlier unary: sum of confidences * alpha / 12
    assert m.unary[0][2] == pytest.approx((0.96 + 0.4) * 0.2 / 12, abs=1e-15)


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
    outlier = scene.candidate_count.tolist()
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
    tables = {m.edge_pair(e): m.edge_table(e) for e in range(3)}
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


def test_hyper_params_refuse_an_overflowing_beta_times_gamma():
    # each is finite, but an edge's beta * gamma overflows to inf, and the
    # elimination pass would then add an inf and a -inf change
    with pytest.raises(ContractViolation, match=r"finite beta \* gamma"):
        HyperParams(alpha=0.2, beta=1e200, gamma=1e200)
    assert HyperParams(alpha=0.2, beta=1e200, gamma=1e-200).beta == 1e200


def test_stage_two_build_is_deterministic():
    xs = [(0, 0, 1), (0.02, 0, 1), (0.01, 0.01, 1)]
    cand_lists = [[cand((0, 0, 0), p=0.9)], [cand((0.02, 0, 0), p=0.8)],
                  [cand((0.01, 0.01, 0), p=0.7)]]
    scene = tiny_scene(xs, cand_lists, width=3, diameter=0.05)
    a = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    b = build_stage_two_master(scene, STAGE_TWO_DEFAULTS, {0, 1, 2}, [0, 0, 0])
    assert np.array_equal(a.edges, b.edges)
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
    points = scene.points
    for _ in range(50):
        l = [int(rng.integers(2)) for _ in range(5)]
        if math.isfinite(evaluate_energy(m, l)):
            ones = [k for k, x in enumerate(l) if x == 1]
            for i in range(len(ones)):
                for j in range(i + 1, len(ones)):
                    d = np.linalg.norm(points[ones[i]] - points[ones[j]])
                    assert d <= scene.object_diameter


def test_inlier_unary_monotone_in_confidence():
    # a neighbour whose candidate fits exactly keeps every candidate: its
    # edge can rise by beta * gamma = 1 when the candidate goes
    hp = HyperParams(alpha=0.2, beta=1.0, gamma=1.0)
    unaries = []
    for p in (0.1, 0.5, 0.9, 1.0):
        scene = tiny_scene([(0, 0, 1), (0.01, 0, 1)],
                           [[cand((0, 0, 1), p=p)], [cand((0.01, 0, 1), p=0.9)]], width=2)
        m = build_stage_one_model(scene, hp, keep=1, skip=0)
        assert m.edge_count == 1
        unaries.append(float(m.unary[0][0]))
    assert unaries == sorted(unaries, reverse=True)
    assert unaries[0] == pytest.approx(0.9 * 0.2, abs=1e-15)


def test_cluster_hypotheses_pairs_each_labeled_candidate_with_its_point():
    # label-1 nodes pair their stage-one candidate's coordinate with their
    # camera point, in grid order; a node at its outlier label emits nothing
    xs = [(0, 0, 1), (0.02, 0, 1), (0, 0.02, 1), (0.01, 0.01, 1.01)]
    cand_lists = [[cand((0.5, 0, 0)), cand((0, 0, 0))], [cand((0.02, 0, 0))],
                  [cand((0, 0.02, 0))], [cand((0.01, 0.01, 0.01))]]
    scene = tiny_scene(xs, cand_lists, width=2, diameter=0.05)
    spec = SubmodelSpec(seed_component=4, node_set=frozenset(range(4)))
    master_grid_nodes, stage_one = [0, 1, 2, 3], [1, 0, 0, 1]

    def cluster(assignment, labels=stage_one):
        return cluster_hypotheses([(PartialLabeling(assignment), spec)], scene,
                                  master_grid_nodes, labels)

    (h,) = cluster((1, 1, 1, 1))
    assert h.seed_serial == 4
    assert [(y.tolist(), x.tolist()) for y, x in h.correspondences] == \
        [([0, 0, 0], [0, 0, 1]), ([0.02, 0, 0], [0.02, 0, 1]), ([0, 0.02, 0], [0, 0.02, 1])]
    assert np.allclose(h.pose.rotation, np.eye(3)) and np.allclose(h.pose.translation, [0, 0, 1])
    assert cluster((1, 0, 1, 1)) == []  # two pairs are too few
    with pytest.raises(ContractViolation, match="label 3 out of range at node 1"):
        cluster((1, 1, 1, 1), [1, 3, 0, 1])


def test_cluster_hypotheses_pairs_match_planted_coordinates():
    from crfpose.synth import default_scenario, generate_scene
    sigma = 1e-4
    sc = default_scenario(seed=6, coord_noise_sigma=sigma, inlier_rate=0.9,
                          visible_fraction=0.9)
    scene, truth = generate_scene(sc)
    planted = [u for u, l in enumerate(truth) if l != MAX_CANDIDATES]
    spec = SubmodelSpec(seed_component=0, node_set=frozenset(range(len(planted))))
    (h,) = cluster_hypotheses([(PartialLabeling((1,) * len(planted)), spec)], scene,
                              planted, truth)
    assert h.correspondence_count == len(planted)
    close = sum(1 for y, x in h.correspondences
                if np.linalg.norm(y - sc.true_pose.inverse_apply(x[None])[0]) <= 3 * sigma)
    assert close >= 0.9 * len(planted)


def _model_digest(model):
    """sha256 over a walk of a model that reads only its public accessors."""
    h = hashlib.sha256(repr((model.pairwise_weight, model.constant)).encode())
    for u in range(model.node_count):
        k = model.labels_per_node[u]
        h.update(repr(k).encode())
        h.update(np.asarray(model.unary[u], dtype=float)[:k].tobytes())
    for e in range(model.edge_count):
        h.update(repr(tuple(int(x) for x in model.edges[e])).encode())
        h.update(np.asarray(model.edge_table(e), dtype=float).tobytes())
    return h.hexdigest()


def test_model_contents_are_pinned():
    # the scene of test_canonical_report_digest_is_pinned; both digests must
    # survive any change of how a model stores its unaries, edges and tables
    from crfpose.pipeline import desk_scale_config
    from crfpose.synth import default_scenario, generate_bundle
    from crfpose.trws import extract_inliers, solve_trws
    scene = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4)).observation
    cfg = desk_scale_config()
    stage_one = build_stage_one_model(scene, cfg.stage_one)
    labeling = solve_trws(stage_one, cfg.trws).labeling
    inliers = sorted(extract_inliers(stage_one, labeling, scene.candidate_count))
    master = build_stage_two_master(scene, cfg.stage_two, inliers, labeling)
    assert (stage_one.edge_count, master.node_count) == (481, 39)
    assert _model_digest(stage_one) == \
        "38f273462489cfbe1eeaca0fbb791e57a77cfd33576c22b996eff7e82ec204bb"
    assert _model_digest(master) == \
        "5d2d868ac3d502dff598f030638d056b5516c747d909dd07784cdde01e5fedaa"


def _desk_20x15(**kw):
    from crfpose.synth import default_scenario, generate_bundle
    return generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4, **kw))


def test_candidate_minima_are_those_of_the_lazy_tables():
    # every node of the 20x15 scene has 12 candidates; the second scene
    # draws 0..12 per node, so some blocks are short or empty
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from dataclasses import replace
    full = _desk_20x15().observation
    counts = np.random.default_rng(3).integers(0, MAX_CANDIDATES + 1, full.node_count)
    for scene in (full, replace(full, candidate_count=counts)):
        table_fn = build_stage_one_model(scene, DESK_SCALE_STAGE_ONE).table_fn
        u, v = build_sparse_neighborhood(scene.grid_width, scene.grid_height).T
        rows, cols = _candidate_minima(scene, (scene.coords ** 2).sum(axis=2), u, v)
        for e, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
            ka, kb = scene.candidate_count[a], scene.candidate_count[b]
            block = table_fn(a, b)[:ka, :kb]
            assert np.array_equal(rows[e, :ka], block.min(axis=1, initial=INF))
            assert np.array_equal(cols[e, :kb], block.min(axis=0, initial=INF))
            assert (rows[e, ka:] == INF).all() and (cols[e, kb:] == INF).all()


@pytest.mark.parametrize("beta, gamma", [(0.0, 0.5), (5.0, 0.0)], ids=["beta0", "gamma0"])
def test_without_a_weighted_gamma_a_candidate_goes_iff_the_outlier_is_cheaper(beta, gamma):
    # beta * gamma = 0: switching to the outlier can never raise an edge's
    # cost, so only the unaries decide; at beta = 0 the infinite costs of the
    # far edges are never multiplied (0 * inf would raise here)
    hp = HyperParams(alpha=0.3, beta=beta, gamma=gamma)
    # a 2x2 grid: nodes in a row, 0.3 apart, are within the 0.5 diameter;
    # nodes in a column, 0.6 apart, and diagonal ones are not
    xs = [(0, 0, 1), (0.3, 0, 1), (0, 0.6, 1), (0.3, 0.6, 1)]
    ps = [[0.99, 0.5], [0.95], [0.9, 0.97, 0.2], []]
    scene = tiny_scene(xs, [[cand(x, p=p) for p in row] for x, row in zip(xs, ps)],
                       width=2, diameter=0.5)
    full = stage_one_energy(scene, hp, keep=3, skip=0)
    with np.errstate(all="raise"):
        m = build_stage_one_model(scene, hp, keep=3, skip=0)
    outlier = full.unary[np.arange(4), scene.candidate_count][:, None]
    expected = np.isfinite(full.unary) & (full.unary > outlier)
    assert np.array_equal(np.isinf(m.unary) & np.isfinite(full.unary), expected)
    assert expected.sum() == 2  # the p=0.5 and p=0.2 candidates


def test_zero_candidate_neighbour_is_fixed_and_folded_into_the_unary():
    # node 0 has no candidate; node 1's candidate (unary 0) beats its
    # outlier (1.2 / 12 = 0.1) by more than the edge can lose (beta * gamma
    # = 0.04), so it stays, and the fixed node's edge becomes +0.04 on it
    hp = HyperParams(alpha=1.2, beta=2.0, gamma=0.02)
    scene = tiny_scene([(0, 0, 1), (0.01, 0, 1)], [[], [cand((0, 0, 0), p=1.0)]], width=2)
    m = build_stage_one_model(scene, hp, keep=1, skip=0)
    full = stage_one_energy(scene, hp, keep=1, skip=0)
    assert (m.edge_count, full.edge_count) == (0, 1)
    assert m.labels_per_node == full.labels_per_node == (1, 2)
    assert m.unary[1].tolist() == [2.0 * 0.02, 1.2 / 12]
    for labeling in ((0, 0), (0, 1)):
        assert evaluate_energy(m, labeling) == pytest.approx(evaluate_energy(full, labeling),
                                                             abs=1e-15)


@pytest.mark.parametrize("gamma, survives", [(0.5, True), (0.5000001, False)])
def test_node_whose_neighbours_are_all_beyond_the_diameter(gamma, survives):
    # every edge is far: each of a node's 2 edges can lose beta * gamma, and
    # twelve p=1 candidates give an outlier unary of 1 and candidate unaries
    # of 0, so a candidate stays iff 1 - 2 * gamma >= 0 (the rule is strict)
    hp = HyperParams(alpha=1.0, beta=1.0, gamma=gamma)
    xs = [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
    scene = tiny_scene(xs, [[cand((0, 0, 0), p=1.0)] * 12] * 3, diameter=0.5)
    m = build_stage_one_model(scene, hp, keep=2, skip=0)
    assert np.isfinite(m.unary).sum() == (39 if survives else 3)
    assert m.edge_count == (3 if survives else 0)
    if survives:
        assert (m.unary[:, :12] == 0.0).all()


def test_bad_camera_distance_and_object_distance_are_refused_naming_the_edge():
    from dataclasses import replace
    scene = _desk_20x15().observation
    hp = STAGE_ONE_DEFAULTS
    with pytest.raises(ContractViolation, match=r"stage-one edge \(\d+,\d+\): camera distance "
                                                r"is not finite"):
        build_stage_one_model(replace(scene, points=scene.points * 1e200), hp)
    with pytest.raises(ContractViolation, match=r"stage-one edge \(\d+,\d+\): object-frame "
                                                r"distance is NaN"):
        build_stage_one_model(replace(scene, coords=scene.coords * 1e200), hp)


def test_reduced_model_gives_its_labelings_their_full_energy():
    # the TRW-S labeling and the all-outlier labeling of the 20x15 scene
    # use no eliminated label; the reduced model has a fraction of the edges
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from crfpose.trws import solve_trws
    scene = _desk_20x15().observation
    hp = DESK_SCALE_STAGE_ONE
    m = build_stage_one_model(scene, hp)
    full = stage_one_energy(scene, hp, keep=48, skip=8)
    for labeling in (solve_trws(m).labeling, scene.candidate_count):
        assert evaluate_energy(m, labeling) == \
            pytest.approx(evaluate_energy(full, labeling), rel=1e-12)
    alive = np.isfinite(m.unary).sum(axis=1)
    assert m.edge_count < full.edge_count // 4
    assert (alive == 1).sum() > scene.node_count // 2


def _eliminate_by_full_sum(scene, hp, unary, edges, coord_sq):
    """The dead-end rule with every edge's block summed and no degree bound:
    the reference for ``_eliminate_candidates``."""
    n, slot = scene.node_count, np.arange(MAX_CANDIDATES)
    total = np.zeros(n * MAX_CANDIDATES)
    for lo in range(0, len(edges), ELIMINATION_CHUNK):
        u, v = edges[lo:lo + ELIMINATION_CHUNK].T
        for node, minima in zip((u, v), _candidate_minima(scene, coord_sq, u, v)):
            total += np.bincount((node[:, None] * MAX_CANDIDATES + slot).ravel(),
                                 weights=_worst_change(minima, hp).ravel(), minlength=total.size)
    score = unary[np.arange(n), scene.candidate_count][:, None] - unary[:, :MAX_CANDIDATES] \
        + total.reshape(n, MAX_CANDIDATES)
    return (slot < scene.candidate_count[:, None]) & (score < 0)


def _both_rules(scene, hp, unary=None, edges=None, keep=48, skip=8):
    if unary is None:  # the stage-one unaries: candidates, then the outlier
        count = scene.candidate_count
        unary = np.pad((1.0 - scene.confidence) * hp.alpha, ((0, 0), (0, 1)))
        unary[np.arange(scene.node_count), count] = \
            scene.confidence.sum(axis=1) * hp.alpha / MAX_CANDIDATES
        unary[np.arange(MAX_CANDIDATES + 1) > count[:, None]] = INF
    if edges is None:
        edges = build_sparse_neighborhood(scene.grid_width, scene.grid_height, keep=keep, skip=skip)
    with np.errstate(over="ignore"):
        coord_sq = (scene.coords ** 2).sum(axis=2)
    return (_eliminate_candidates(scene, hp, unary, edges, coord_sq),
            _eliminate_by_full_sum(scene, hp, unary, edges, coord_sq))


def test_degree_bound_eliminates_exactly_what_the_full_sum_does():
    from crfpose.oracle import sample_tiny_scene
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    zero_beta = zero_gamma = eliminated = 0
    for rng in np.random.default_rng(7).spawn(600):
        scene, hp, keep, skip = sample_tiny_scene(rng)
        fast, full = _both_rules(scene, hp, keep=keep, skip=skip)
        assert np.array_equal(fast, full)
        zero_beta += hp.beta == 0
        zero_gamma += hp.gamma == 0
        eliminated += int(full.sum())
    assert zero_beta > 50 and zero_gamma > 50 and eliminated > 500
    from crfpose.synth import default_scenario, generate_bundle
    for width, height in ((32, 24), (64, 48)):  # a desk scene and a wide one
        scene = generate_bundle(default_scenario(
            seed=0, grid_width=width, grid_height=height, inlier_rate=0.85,
            visible_fraction=0.8, coord_noise_sigma=1e-4)).observation
        fast, full = _both_rules(scene, DESK_SCALE_STAGE_ONE)
        assert np.array_equal(fast, full)


def test_bound_score_within_the_rounding_margin_is_left_to_the_full_sum():
    # node 0 joined to nodes 1..6; every camera point and every object point
    # coincide, so each edge's candidate minimum is 0 and its worst change
    # exactly beta * gamma.  Six terms of 0.01 sum to 0.060000000000000005 in
    # floats, one ulp above 6 * 0.01; a candidate unary of that sum against
    # an outlier unary of 0 scores exactly 0 in the full rule, so the
    # candidate stays, while the bare bound -0.060000000000000005 + 6 * 0.01
    # is below 0
    hp = HyperParams(alpha=1.0, beta=1.0, gamma=0.01)
    scene = tiny_scene([(0.0, 0.0, 1.0)] * 7, [[cand((0, 0, 0))]] * 7)
    edges = np.array([(0, v) for v in range(1, 7)])
    unary = np.full((7, MAX_CANDIDATES + 1), INF)
    unary[:, :2] = 0.0
    terms = 0.0
    for _ in range(6):
        terms += hp.beta * hp.gamma
    unary[0, 0] = terms
    assert -terms + 6 * (hp.beta * hp.gamma) < 0
    fast, full = _both_rules(scene, hp, unary, edges)
    assert np.array_equal(fast, full)
    assert not fast[0, 0]
    unary[0, 0] = np.nextafter(terms, INF)  # one ulp more and both rules drop it
    fast, full = _both_rules(scene, hp, unary, edges)
    assert np.array_equal(fast, full) and fast[0, 0]


def test_bound_skips_no_refusal():
    # nodes 0 and 1 are decided by the bound (a candidate unary of 10 against
    # an outlier unary of 0), nodes 2 and 3 are not; edge (0, 1) joins two
    # decided nodes and comes first
    hp = HyperParams(alpha=1.0, beta=1.0, gamma=0.01)
    edges = np.array([(0, 1), (1, 2), (2, 3)])
    unary = np.full((4, MAX_CANDIDATES + 1), INF)
    unary[:, :2] = 0.0
    unary[:2, 0] = 10.0

    def refusal(xs, ls):
        scene = tiny_scene(xs, [[cand(l)] for l in ls])
        messages = []
        for rule in (_eliminate_candidates, _eliminate_by_full_sum):
            with pytest.raises(ContractViolation) as err, np.errstate(over="ignore"):
                rule(scene, hp, unary, edges, (scene.coords ** 2).sum(axis=2))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        return messages[0]

    near = [(0, 0, 1), (0, 0, 1.1), (0, 0, 1.2), (0, 0, 1.3)]
    # |l|² = 1e308 is finite, 4·|l|² is not: the fallback builds every block
    huge = [(1e154, 0, 0), (1e154, 0, 0), (0, 0, 0.1), (0, 0, 0.2)]
    assert refusal(near, huge) == "stage-one edge (0,1): object-frame distance is NaN"
    far = [(1e200, 0, 0), (-1e200, 0, 0), (0, 0, 1), (0, 0, 1.1)]
    small = [(0, 0, 0), (0, 0, 0.1), (0, 0, 0.2), (0, 0, 0.3)]
    assert refusal(far, small) == "stage-one edge (0,1): camera distance is not finite"


def test_neighborhood_is_memoised_and_read_only():
    edges = build_sparse_neighborhood(17, 9)
    again = build_sparse_neighborhood(17, 9)
    assert np.array_equal(edges, again) and not again.flags.writeable
    with pytest.raises(ValueError):
        edges[0, 0] = 1
    with pytest.raises(ValueError):
        again[:] = 0
    other = build_sparse_neighborhood(17, 9, keep=4, skip=0)
    assert {tuple(e) for e in other.tolist()} != {tuple(e) for e in edges.tolist()}
