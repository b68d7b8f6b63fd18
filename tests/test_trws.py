import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from crfpose.model import (INF, ContractViolation, GraphicalModel,
                           evaluate_energy, weighted_table)
from crfpose.oracle import (brute_force, sample_hard_model, sample_sparse_model,
                            sample_tree_model, _spawn)
from crfpose.trws import (GAP_TOLERANCE, TrwsConfig, _chain_slots, _Compiled,
                          extract_inliers, monotone_chains, solve_trws)


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
        assert covered == set(map(tuple, m.edges.tolist()))


def test_chain_slots_give_each_node_one_row_range():
    for rng in _spawn(91, 40):
        n = int(rng.integers(1, 30))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.05, 0.3, 0.9])]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        m = GraphicalModel((2,) * n, np.zeros((n, 2)), tuple(edges),
                           pairwise=np.zeros((len(edges), 2, 2)))
        slot_node, prev, next_, prev_edge, heads = _chain_slots(m)
        assert np.all(np.diff(slot_node) >= 0)
        linked = np.flatnonzero(prev >= 0)
        assert np.array_equal(np.flatnonzero(prev < 0), np.sort(heads))
        assert np.array_equal(next_[prev[linked]], linked)
        assert (next_ >= 0).sum() == linked.size
        # each edge is the link into exactly one slot, from a lower node
        assert np.array_equal(np.sort(prev_edge[linked]), np.arange(m.edge_count))
        assert np.array_equal(m.edges[prev_edge[linked]],
                              np.stack([slot_node[prev[linked]], slot_node[linked]], axis=1))


def test_exact_on_random_chains():
    for rng in _spawn(17, 30):
        n = int(rng.integers(2, 7))
        labels = tuple(int(rng.integers(2, 5)) for _ in range(n))
        edges = tuple((u, u + 1) for u in range(n - 1))
        unary = [rng.uniform(0, 3, k) for k in labels]
        tables = [rng.uniform(0, 3, (labels[u], labels[v])) for u, v in edges]
        weight = float(rng.uniform(0.5, 2.0))
        m = GraphicalModel(labels, unary, edges,
                           pairwise=[weighted_table(t, weight) for t in tables])
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


def _certified(res, energy):
    return res.gap <= GAP_TOLERANCE * max(1.0, abs(energy))


def test_bound_history_monotone():
    stopped = 0
    for rng in _spawn(29, 40):
        m = replace(sample_sparse_model(rng), constant=float(rng.uniform(-50.0, 50.0)))
        res = solve_trws(m, TrwsConfig(iterations=12))
        hist = np.asarray(res.bound_history)
        assert 1 <= hist.size <= 12
        assert np.all(np.diff(hist) >= -1e-9)
        energy = evaluate_energy(m, res.labeling)
        assert res.gap == pytest.approx(energy - res.lower_bound, rel=1e-12, abs=1e-12)
        if hist.size < 12:
            stopped += 1
            assert _certified(res, energy)
    assert 0 < stopped < 40


def test_stop_fires_at_the_first_certified_iteration():
    checked = 0
    for rng in _spawn(29, 40):
        m = sample_sparse_model(rng)
        res = solve_trws(m, TrwsConfig(iterations=12))
        if not 2 <= len(res.bound_history) < 12:
            continue
        # one iteration fewer gives the same bounds, uncertified
        short = solve_trws(m, TrwsConfig(iterations=len(res.bound_history) - 1))
        assert short.bound_history == res.bound_history[:-1]
        assert not _certified(short, evaluate_energy(m, short.labeling))
        checked += 1
    assert checked >= 10


def test_infinite_rounded_energy_runs_to_the_cap():
    # a 6-node model, labels 2-4, one inf entry per table, β = 0: the greedy
    # rounding pass finds no finite labeling although the optimum is finite
    rng = np.random.default_rng(8)
    labels = tuple(int(k) for k in rng.integers(2, 5, 6))
    edges = tuple((u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.6)
    tables = []
    for u, v in edges:
        t = rng.uniform(0, 3, (labels[u], labels[v]))
        t[rng.integers(labels[u]), rng.integers(labels[v])] = INF
        tables.append(t)
    m = GraphicalModel(labels, [rng.uniform(0, 3, k) for k in labels], edges,
                       pairwise=[weighted_table(t, 0.0) for t in tables])
    assert np.isfinite(brute_force(m).optimal_energy)
    res = solve_trws(m, TrwsConfig(iterations=10))
    assert evaluate_energy(m, res.labeling) == INF
    assert res.gap == INF
    assert len(res.bound_history) == 10


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
        tables = [m.edge_table(e).copy() for e in range(m.edge_count)]
        for t in tables:
            if rng.random() < 0.4:
                # an infinite row trims one label but leaves others finite
                t[int(rng.integers(t.shape[0])), :] = INF
        m = GraphicalModel(m.labels_per_node, m.unary, m.edges, pairwise=tables)
        res = solve_trws(m, TrwsConfig(iterations=6))
        assert not any(np.isnan(b) for b in res.bound_history)
        assert res.lower_bound <= evaluate_energy(m, res.labeling) + 1e-9 \
            or evaluate_energy(m, res.labeling) == INF


def test_padded_infinite_tables_weighted_by_zero():
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
                           pairwise=[weighted_table(t, 0.0) for t in tables])
        res = solve_trws(m, TrwsConfig(iterations=8))
        assert not np.isnan(res.bound_history).any()
        assert res.lower_bound <= brute_force(m).optimal_energy + 1e-9
        assert np.isfinite(evaluate_energy(m, res.labeling))


def test_inf_entries_weighted_by_zero_raise_no_warning():
    # valid input: β = 0 must not multiply an inf entry (0 * inf = NaN)
    tables = [np.array([[0.0, INF], [2.0, INF]]), np.array([[1.0], [INF]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = GraphicalModel((2, 2, 1), [np.array([1.0, 0.5]), np.array([0.0, 3.0]),
                                       np.array([2.0])],
                           ((0, 1), (1, 2)), pairwise=[weighted_table(t, 0.0) for t in tables])
        res = solve_trws(m, TrwsConfig(iterations=4))
        opt = brute_force(m).optimal_energy
    assert res.labeling == (1, 0, 0)
    assert res.lower_bound == opt == evaluate_energy(m, res.labeling) == 2.5


def test_hard_model_sampler_reaches_the_inf_regimes():
    models = [sample_hard_model(rng) for rng in _spawn(8, 60)]
    assert any(1 in m.labels_per_node for m in models)
    # a weight of 0 leaves every finite table entry of a model at 0
    assert any(not m.pairwise[np.isfinite(m.pairwise)].any() for m in models if m.edge_count)
    assert any(np.isinf(m.edge_table(e)).any() for m in models for e in range(m.edge_count))
    for m in models:  # label 0 is never forbidden
        assert all(np.isfinite(t[0]) for t in m.unary)
        for e in range(m.edge_count):
            t = m.edge_table(e)
            assert np.isfinite(t[0]).all() and np.isfinite(t[:, 0]).all()


def test_extract_inliers():
    m = GraphicalModel((2,) * 4, [np.zeros(2) for _ in range(4)], ())
    none = extract_inliers(m, [1, 1, 1, 1], [1, 1, 1, 1])
    assert none.dtype == np.int64 and none.tolist() == []
    # per-node outlier labels; the nodes come back sorted
    assert extract_inliers(m, [1, 0, 1, 0], [1, 1, 0, 0]).tolist() == [1, 2]
    with pytest.raises(ContractViolation):
        extract_inliers(m, [0, 0], [1, 1])
    with pytest.raises(ContractViolation):
        extract_inliers(m, [0, 0, 0, 0], [1, 1])


def test_stage_one_recovers_planted_inliers():
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from crfpose.posemodel import build_stage_one_model
    from crfpose.synth import default_scenario, generate_scene

    # coordinate noise at 0.2% of the diameter, inside the <= 1% envelope
    scene, truth = generate_scene(default_scenario(
        seed=4, coord_noise_sigma=1e-4, inlier_rate=0.85, visible_fraction=0.8))
    model = build_stage_one_model(scene, DESK_SCALE_STAGE_ONE)
    res = solve_trws(model, TrwsConfig(iterations=10))
    inliers = extract_inliers(model, res.labeling, scene.candidate_count)
    planted = {u for u, l in enumerate(truth) if l != 12}
    assert len(planted & set(inliers.tolist())) >= 0.8 * len(planted)


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
                          pairwise=[weighted_table(costs((labels[u], labels[v])), weight)
                                    for u, v in edges])


def _pinned_star_model(rng, hub_labels):
    # a tree whose hub heads one chain per leaf, more rows than numpy sums
    # row by row when the hub has a single label
    leaves = int(rng.integers(9, 15))
    labels = (hub_labels,) + tuple(int(k) for k in rng.integers(1, 5, leaves))
    edges = tuple((0, v) for v in range(1, leaves + 1))
    unary = [rng.uniform(0.0, 3.0, k) * 10.0 ** rng.integers(-3, 4, k) for k in labels]
    tables = [rng.uniform(0.0, 3.0, (hub_labels, labels[v])) for _, v in edges]
    weight = float(rng.uniform(0.5, 2.5))
    return GraphicalModel(labels, unary, edges,
                          pairwise=[weighted_table(t, weight) for t in tables])


def _solve_digest(models, iterations):
    h = hashlib.sha256()
    for m in models:
        res = solve_trws(m, TrwsConfig(iterations=iterations))
        h.update(repr((res.labeling, [float(b).hex() for b in res.bound_history],
                       float(res.gap).hex(), sorted(res.diagnostics.items()))).encode())
    return h.hexdigest()


def test_solver_output_is_pinned_on_random_models():
    # Pins labeling, bound history, gap and diagnostics to the last bit; a
    # change of the solver's schedule, stop rule or summation order shows here.
    rngs = _spawn(2718, 120)
    models = [_pinned_sparse_model(rng) for rng in rngs[:80]]
    models += [sample_tree_model(rng) for rng in rngs[80:100]]
    models += [_pinned_star_model(rng, hub_labels=1 + i % 3)
               for i, rng in enumerate(rngs[100:])]
    assert _solve_digest(models, iterations=7) == \
        "bacf8a3dcc8b16e5879eb1d27dcecaaed3de3999a940a7212b4bcba4778c53f3"


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
        "b3e6fefe129f4b54614ed050ff8e15accdc4c5dc9eded0c0d3e29ec307de8b38"


def test_stage_one_model_stores_no_tables():
    from crfpose.pipeline import DESK_SCALE_STAGE_ONE
    from crfpose.posemodel import build_stage_one_model
    from crfpose.synth import default_scenario, generate_bundle

    bundle = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    model = build_stage_one_model(bundle.observation, DESK_SCALE_STAGE_ONE)
    solve_trws(model, TrwsConfig(iterations=1))
    assert all(table is None for table in model.pairwise)
    for e in range(0, model.edge_count, 97):
        first, second = model.edge_table(e), model.edge_table(e)
        assert first is not second and np.array_equal(first, second)


def test_materialized_tables_are_read_in_place():
    # the model's read-only stack is the solver's edge array: no copy
    m = sample_sparse_model(np.random.default_rng(6))
    assert _Compiled(m).tables is m.pairwise


def test_edgeless_model_has_a_zero_gap():
    # the bound sums the isolated nodes' minima as the energy sums the
    # labeling's unaries, so an edgeless model is certified with gap 0
    rng = np.random.default_rng(4)
    labels = tuple(int(k) for k in rng.integers(1, 5, 100))
    m = GraphicalModel(labels, [rng.uniform(0.0, 3.0, k) for k in labels], ())
    res = solve_trws(m)
    assert res.gap == 0.0 and len(res.bound_history) == 1
    assert res.lower_bound == pytest.approx(evaluate_energy(m, res.labeling), rel=1e-12)
