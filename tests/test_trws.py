import hashlib
import warnings

import numpy as np
import pytest

from crfpose.model import (INF, ContractViolation, GraphicalModel,
                           evaluate_energy)
from crfpose.oracle import (brute_force, sample_hard_model, sample_sparse_model,
                            sample_tree_model, _spawn)
from crfpose.posemodel import build_sparse_neighborhood
from crfpose.trws import (TrwsConfig, extract_inliers, monotone_chains, node_levels,
                          solve_trws)


def test_single_node_exact():
    m = GraphicalModel((2,), [np.array([3.0, 5.0])], ())
    res = solve_trws(m, TrwsConfig(iterations=1))
    assert res.labeling == (0,)
    assert res.lower_bound == 3.0
    assert res.bound_history == (3.0,)


def test_config_requires_positive_iterations():
    with pytest.raises(ContractViolation):
        TrwsConfig(iterations=0)


def test_chains_cover_all_edges_monotonically():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = sample_sparse_model(rng, max_nodes=9)
        chains = monotone_chains(m.node_count, m.edges)
        covered = set()
        for chain in chains:
            assert all(a < b for a, b in zip(chain, chain[1:]))
            for a, b in zip(chain, chain[1:]):
                assert (a, b) not in covered
                covered.add((a, b))
        assert covered == set(m.edges)


def test_exact_on_random_chains():
    for rng in _spawn(17, 30):
        n = int(rng.integers(2, 7))
        labels = tuple(int(rng.integers(2, 5)) for _ in range(n))
        edges = tuple((u, u + 1) for u in range(n - 1))
        m = GraphicalModel(labels, [rng.uniform(0, 3, k) for k in labels], edges,
                           pairwise=[rng.uniform(0, 3, (labels[u], labels[v]))
                                     for u, v in edges],
                           pairwise_weight=float(rng.uniform(0.5, 2.0)))
        res = solve_trws(m, TrwsConfig(iterations=10))
        opt = brute_force(m).optimal_energy
        assert res.lower_bound == pytest.approx(opt, abs=1e-9)
        assert evaluate_energy(m, res.labeling) == pytest.approx(opt, abs=1e-9)


def test_exact_on_random_trees():
    for rng in _spawn(123, 30):
        m = sample_tree_model(rng)
        res = solve_trws(m, TrwsConfig(iterations=50))
        assert res.lower_bound == pytest.approx(brute_force(m).optimal_energy,
                                                abs=1e-9)


def test_bound_sandwich_on_sparse_models():
    for rng in _spawn(7, 40):
        m = sample_sparse_model(rng)
        res = solve_trws(m, TrwsConfig(iterations=10))
        opt = brute_force(m).optimal_energy
        assert res.lower_bound <= opt + 1e-9
        assert opt <= evaluate_energy(m, res.labeling) + 1e-12
        assert res.lower_bound == res.bound_history[-1]


def test_bound_history_monotone():
    for rng in _spawn(29, 40):
        m = sample_sparse_model(rng)
        hist = np.asarray(solve_trws(m, TrwsConfig(iterations=12)).bound_history)
        assert hist.size == 12
        assert np.all(np.diff(hist) >= -1e-9)


def test_deterministic():
    rng = np.random.default_rng(15)
    m = sample_sparse_model(rng)
    a = solve_trws(m, TrwsConfig(iterations=8))
    b = solve_trws(m, TrwsConfig(iterations=8))
    assert a.labeling == b.labeling
    assert a.bound_history == b.bound_history


def test_all_infinite_rows_fall_back_to_unary_argmin():
    t = np.full((2, 2), INF)
    m = GraphicalModel((2, 2), [np.array([1.0, 2.0]), np.array([5.0, 4.0])],
                       ((0, 1),), pairwise=[t])
    res = solve_trws(m, TrwsConfig(iterations=3))
    assert res.labeling == (0, 1)  # per-node unary argmins
    assert res.diagnostics.get("unary_fallback_nodes") == [0, 1]
    assert 0 in res.diagnostics.get("infinite_min_marginal_nodes", [])


def test_infinite_entries_do_not_produce_nan():
    rng = np.random.default_rng(77)
    for _ in range(15):
        m = sample_sparse_model(rng, max_nodes=8, max_labels=3)
        for e in range(m.edge_count):
            t = m.edge_table(e)
            if rng.random() < 0.4:
                # an infinite row trims one label but leaves others finite
                t[int(rng.integers(t.shape[0])), :] = INF
        res = solve_trws(m, TrwsConfig(iterations=6))
        assert not any(np.isnan(b) for b in res.bound_history)
        assert res.lower_bound <= evaluate_energy(m, res.labeling) + 1e-9 \
            or evaluate_energy(m, res.labeling) == INF


def test_padded_infinite_tables_at_zero_pairwise_weight():
    # mixed label counts make the sweeps read the INF padding of the shared
    # edge array; at weight 0 an inf entry must stay inf, never 0 * inf = NaN.
    # No inf touches label 0, so the rounding pass can always keep a finite
    # energy: label 0 is compatible with every neighbour's label.
    labels = (2, 4, 3, 2, 4, 3)
    for rng in _spawn(41, 12):
        edges = tuple((u, v) for u in range(6) for v in range(u + 1, 6)
                      if v == u + 1 or rng.random() < 0.5)
        tables = []
        for u, v in edges:
            t = rng.uniform(0, 3, (labels[u], labels[v]))
            t[1:, 1:][rng.random((labels[u] - 1, labels[v] - 1)) < 0.5] = INF
            tables.append(t)
        m = GraphicalModel(labels, [rng.uniform(0, 3, k) for k in labels], edges,
                           pairwise=tables, pairwise_weight=0.0)
        res = solve_trws(m, TrwsConfig(iterations=8))
        assert not np.isnan(res.bound_history).any()
        assert res.lower_bound <= brute_force(m).optimal_energy + 1e-9
        assert np.isfinite(evaluate_energy(m, res.labeling))


def test_zero_pairwise_weight_with_inf_entries_raises_no_warning():
    # valid input: β = 0 must not multiply an inf entry (0 * inf = NaN)
    t = np.array([[0.0, INF], [2.0, INF]])
    m = GraphicalModel((2, 2, 1), [np.array([1.0, 0.5]), np.array([0.0, 3.0]),
                                   np.array([2.0])],
                       ((0, 1), (1, 2)), pairwise=[t, np.array([[1.0], [INF]])],
                       pairwise_weight=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_trws(m, TrwsConfig(iterations=4))
        opt = brute_force(m).optimal_energy
    assert res.labeling == (1, 0, 0)
    assert res.lower_bound == opt == evaluate_energy(m, res.labeling) == 2.5


def test_hard_model_sampler_reaches_the_inf_regimes():
    models = [sample_hard_model(rng) for rng in _spawn(8, 60)]
    assert any(1 in m.labels_per_node for m in models)
    assert any(m.pairwise_weight == 0.0 for m in models)
    assert any(np.isinf(m.edge_table(e)).any() for m in models for e in range(m.edge_count))
    for m in models:  # label 0 is never forbidden
        assert all(np.isfinite(t[0]) for t in m.unary)
        for e in range(m.edge_count):
            t = m.edge_table(e)
            assert np.isfinite(t[0]).all() and np.isfinite(t[:, 0]).all()


def _assert_levels(node_count, edges):
    level = node_levels(node_count, edges)
    lower = [[] for _ in range(node_count)]
    for u, v in edges:
        lower[max(u, v)].append(min(u, v))
        assert level[u] != level[v]
    for v in range(node_count):
        assert level[v] == 1 + max((level[u] for u in lower[v]), default=0)
    return level


def test_levels_on_random_edge_sets():
    for rng in _spawn(91, 40):
        n = int(rng.integers(1, 30))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.05, 0.3, 0.9])]
        rng.shuffle(edges)
        _assert_levels(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])


@pytest.mark.parametrize("width, height, levels", [(20, 15, None), (32, 24, 91),
                                                   (64, 48, 179)])
def test_levels_on_sparse_grids(width, height, levels):
    level = _assert_levels(width * height, build_sparse_neighborhood(width, height))
    if levels is not None:
        assert level.max() == levels


def test_extract_inliers():
    m = GraphicalModel((2,) * 4, [np.zeros(2) for _ in range(4)], ())
    assert extract_inliers(m, [1, 1, 1, 1], 1) == set()
    assert extract_inliers(m, [1, 0, 1, 0], 1) == {1, 3}
    # per-node outlier labels
    assert extract_inliers(m, [1, 0, 1, 0], [1, 1, 0, 0]) == {2, 1}
    with pytest.raises(ContractViolation):
        extract_inliers(m, [0, 0], 1)


def test_stage_one_recovers_planted_inliers():
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from crfpose.posemodel import build_stage_one_model
    from crfpose.synth import default_scenario, generate_scene

    # coordinate noise at 0.2% of the diameter, inside the <= 1% envelope
    scene, truth = generate_scene(default_scenario(
        seed=4, coord_noise_sigma=1e-4, inlier_rate=0.85, visible_fraction=0.8))
    model = build_stage_one_model(scene, DESK_SCALE_STAGE_ONE)
    res = solve_trws(model, TrwsConfig(iterations=10))
    inliers = extract_inliers(model, res.labeling, scene.outlier_labels())
    planted = {u for u, l in enumerate(truth) if l != 12}
    assert len(planted & inliers) >= 0.8 * len(planted)


def _pinned_sparse_model(rng):
    # label counts 1-5, costs over six orders of magnitude, inf entries in
    # half the models, β = 0 in a quarter, and isolated nodes wherever the
    # edge density leaves them
    n = int(rng.integers(1, 11))
    labels = tuple(int(k) for k in rng.integers(1, 6, n))
    density = float(rng.choice([0.15, 0.4, 0.8]))
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < density)
    inf_share = float(rng.choice([0.0, 0.3]))

    def costs(shape):
        t = rng.uniform(0.0, 3.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
        t[rng.random(shape) < inf_share] = INF
        return t

    unary = [costs(k) for k in labels]
    for t in unary:
        t[int(rng.integers(t.size))] = rng.uniform(0.0, 3.0)  # some label stays finite
    weight = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.5, 2.5))
    return GraphicalModel(labels, unary, edges,
                          pairwise=[costs((labels[u], labels[v])) for u, v in edges],
                          pairwise_weight=weight)


def _pinned_star_model(rng, hub_labels):
    # a tree whose hub heads one chain per leaf, more rows than numpy sums
    # row by row when the hub has a single label
    leaves = int(rng.integers(9, 15))
    labels = (hub_labels,) + tuple(int(k) for k in rng.integers(1, 5, leaves))
    edges = tuple((0, v) for v in range(1, leaves + 1))
    return GraphicalModel(
        labels, [rng.uniform(0.0, 3.0, k) * 10.0 ** rng.integers(-3, 4, k) for k in labels],
        edges, pairwise=[rng.uniform(0.0, 3.0, (hub_labels, labels[v])) for _, v in edges],
        pairwise_weight=float(rng.uniform(0.5, 2.5)))


def _solve_digest(models, iterations):
    h = hashlib.sha256()
    for m in models:
        res = solve_trws(m, TrwsConfig(iterations=iterations))
        h.update(repr((res.labeling, [float(b).hex() for b in res.bound_history],
                       sorted(res.diagnostics.items()))).encode())
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solver_output_is_pinned_on_random_models():
    # Pins labeling, bound history and diagnostics to the last bit; a change
    # of the solver's schedule or summation order shows here.
    rngs = _spawn(2718, 120)
    models = [_pinned_sparse_model(rng) for rng in rngs[:80]]
    models += [sample_tree_model(rng) for rng in rngs[80:100]]
    models += [_pinned_star_model(rng, hub_labels=1 + i % 3)
               for i, rng in enumerate(rngs[100:])]
    assert _solve_digest(models, iterations=7) == \
        "227ccb5883ca8d0c2c6618d5368b4673a650f016f3b930de06e0fef3f93814c9"


def test_solver_output_is_pinned_on_a_stage_one_model():
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from crfpose.posemodel import build_stage_one_model
    from crfpose.synth import default_scenario, generate_bundle

    # the scene of test_canonical_report_digest_is_pinned
    bundle = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    model = build_stage_one_model(bundle.observation, DESK_SCALE_STAGE_ONE)
    assert _solve_digest([model], iterations=10) == \
        "8c480b75d47eec61d399adc8c7a2258822d9ad7e2eec82626598ac0ba6aace00"
