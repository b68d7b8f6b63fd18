from dataclasses import replace

import numpy as np
import pytest

from crfpose import trws

from crfpose.model import (INF, GraphicalModel, PartialLabeling, UNLABELED,
                           evaluate_energy, extend_partial, induce_submodel)
from crfpose.oracle import (StateSpaceTooLarge, brute_force, check_persistency,
                            sample_zero_form_model, verify_elimination, verify_prop1,
                            verify_trws_bounds,
                            _spawn)


def test_single_node_argmin():
    m = GraphicalModel((3,), [np.array([2.0, 0.5, 1.0])], ())
    res = brute_force(m)
    assert res.optimal_energy == 0.5
    assert res.optima == [(1,)]


def test_hand_built_unique_optimum():
    # constructed so that (0,1) is the unique optimum at energy 0
    m = GraphicalModel((2, 2), [np.array([0.0, 5.0]), np.array([5.0, 0.0])],
                       ((0, 1),), pairwise=[np.array([[1.0, 0.0], [5.0, 9.0]])])
    res = brute_force(m)
    assert res.optimal_energy == 0.0
    assert res.optima == [(0, 1)]
    assert not res.truncated


def test_all_infinite_except_all_zeros():
    t = np.full((2, 2), INF)
    t[0, 0] = 0.0
    edges = ((0, 1), (1, 2), (0, 2))
    m = GraphicalModel((2,) * 3, [np.zeros(2)] * 3, edges,
                       pairwise=[t.copy() for _ in edges])
    res = brute_force(m)
    assert res.optimal_energy == 0.0
    assert res.optima == [(0, 0, 0)]


def test_brute_force_is_order_stable():
    rng = np.random.default_rng(5)
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[np.zeros((2, 2))])
    res = brute_force(m)
    # all four labelings tie; listed lexicographically
    assert res.optima == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert brute_force(m).optima == res.optima


def test_truncation_cap():
    m = GraphicalModel((2,) * 12, [np.zeros(2) for _ in range(12)], ())
    res = brute_force(m, cap=100)
    assert res.truncated
    assert len(res.optima) == 100


def test_state_space_guard():
    m = GraphicalModel((10,) * 8, [np.zeros(10) for _ in range(8)], ())
    with pytest.raises(StateSpaceTooLarge):
        brute_force(m)


def test_check_persistency_vacuous_and_exact():
    m = GraphicalModel((2, 2), [np.array([0.0, 5.0]), np.array([5.0, 0.0])],
                       ((0, 1),), pairwise=[np.array([[1.0, 0.0], [5.0, 9.0]])])
    assert check_persistency(m, PartialLabeling((UNLABELED, UNLABELED)))
    assert check_persistency(m, PartialLabeling((0, 1)))
    assert check_persistency(m, PartialLabeling((0, UNLABELED)))
    assert not check_persistency(m, PartialLabeling((1, UNLABELED)))


def test_optimum_is_always_persistent():
    for rng in _spawn(2, 15):
        m = sample_zero_form_model(rng, max_nodes=8)
        res = brute_force(m)
        assert check_persistency(m, PartialLabeling(res.optima[0]))


def test_prop1_identity_induction():
    # keeping every node: the extension is the submodel optimum itself
    for rng in _spawn(9, 10):
        m = sample_zero_form_model(rng, max_nodes=8)
        opt = brute_force(m)
        sub, node_map = induce_submodel(m, range(m.node_count))
        sub_opt = brute_force(sub)
        ext = extend_partial(m.node_count, PartialLabeling(sub_opt.optima[0]),
                             node_map, fill=0)
        assert evaluate_energy(m, ext.assignment) == pytest.approx(
            opt.optimal_energy, abs=1e-12)


def test_prop1_exact_support_induction():
    # keeping exactly the optimum's label-1 nodes
    for rng in _spawn(10, 10):
        m = sample_zero_form_model(rng, max_nodes=8)
        opt = brute_force(m)
        support = [u for u, l in enumerate(opt.optima[0]) if l == 1] or [0]
        sub, node_map = induce_submodel(m, support)
        sub_opt = brute_force(sub)
        ext = extend_partial(m.node_count, PartialLabeling(sub_opt.optima[0]),
                             node_map, fill=0)
        assert evaluate_energy(m, ext.assignment) == pytest.approx(
            opt.optimal_energy, abs=1e-12)


def test_verify_prop1_small_run():
    report = verify_prop1(trials=25, max_nodes=10, seed=123)
    assert report.ok, report.failures


def test_verify_trws_bounds_catches_a_wrong_gap_and_an_uncertified_stop(monkeypatch):
    solve = trws.solve_trws
    monkeypatch.setattr(trws, "solve_trws",
                        lambda m, cfg: replace(solve(m, cfg), gap=solve(m, cfg).gap + 1e-3))
    report = verify_trws_bounds(trials=10, seed=3)
    assert report.passes == 0
    assert all("is not rounded energy - bound" in f for f in report.failures)
    # a solver that always stops after one iteration, certified or not
    monkeypatch.setattr(trws, "solve_trws",
                        lambda m, cfg: solve(m, trws.TrwsConfig(iterations=1)))
    report = verify_trws_bounds(trials=20, seed=3)
    assert not report.ok
    assert any("stopped after 1 iterations" in f for f in report.failures)


def test_verify_elimination_small_run():
    report = verify_elimination(trials=60, seed=1)
    assert report.ok, report.failures


def test_verify_elimination_catches_an_unsound_rule(monkeypatch):
    # a rule that counts every edge as lowering the energy when the
    # candidate goes eliminates labels that optima use
    from crfpose import posemodel
    monkeypatch.setattr(posemodel, "_worst_change",
                        lambda minima, hp: np.full(minima.shape, -hp.beta * hp.gamma))
    report = verify_elimination(trials=200, seed=0)
    assert not report.ok
    assert any("uses an eliminated label" in f for f in report.failures)
