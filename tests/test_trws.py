import numpy as np
import pytest

from crfpose.model import (INF, ContractViolation, GraphicalModel,
                           evaluate_energy)
from crfpose.oracle import (brute_force, sample_sparse_model, sample_tree_model,
                            _spawn)
from crfpose.trws import TrwsConfig, extract_inliers, monotone_chains, solve_trws


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
