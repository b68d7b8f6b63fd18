import math

import numpy as np
import pytest

from crfpose.model import (INF, UNLABELED, ContractViolation, GraphicalModel,
                           PartialLabeling, evaluate_energy, extend_partial,
                           induce_submodel)
from crfpose.oracle import _spawn, sample_sparse_model


def single_node_model():
    return GraphicalModel((2,), [np.array([3.0, 5.0])], ())


def test_infinity_arithmetic():
    assert INF + 1.0 == INF
    assert INF > 1e300
    assert math.isinf(INF)


def test_unary_only_energy():
    assert evaluate_energy(single_node_model(), [0]) == 3.0
    assert evaluate_energy(single_node_model(), [1]) == 5.0


def test_all_outlier_labeling_has_no_pairwise_contribution():
    # 4 nodes, label 1 acts as the outlier with zero outlier/outlier cost
    table = np.array([[2.0, 0.7], [0.7, 0.0]])
    edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    m = GraphicalModel((2,) * 4, [np.array([0.5, 0.1 * (u + 1)]) for u in range(4)],
                       edges, pairwise=[table.copy() for _ in edges],
                       pairwise_weight=3.0)
    assert evaluate_energy(m, [1, 1, 1, 1]) == pytest.approx(
        sum(0.1 * (u + 1) for u in range(4)), abs=0)


def test_energy_matches_double_loop_resummation():
    # independent oracle: plain double-loop sum
    rng = np.random.default_rng(42)
    labels = (3, 2, 4, 2, 3, 2)
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 2)]
    unary = [rng.uniform(0, 5, k) for k in labels]
    tables = [rng.uniform(0, 5, (labels[u], labels[v])) for u, v in edges]
    m = GraphicalModel(labels, unary, tuple(edges), pairwise=tables,
                       pairwise_weight=2.0, constant=0.25)
    for _ in range(20):
        l = [int(rng.integers(k)) for k in labels]
        expected = 0.25
        for u in range(6):
            expected += unary[u][l[u]]
        for e, (u, v) in enumerate(edges):
            expected += 2.0 * tables[e][l[u], l[v]]
        assert evaluate_energy(m, l) == expected


def test_energy_infinite_term_gives_infinity():
    t = np.array([[INF, 1.0], [1.0, 0.0]])
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),), pairwise=[t])
    assert evaluate_energy(m, [0, 0]) == INF
    assert evaluate_energy(m, [1, 1]) == 0.0
    # infinite pairwise dominates even a zero weight
    m0 = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                        pairwise=[t.copy()], pairwise_weight=0.0)
    assert evaluate_energy(m0, [0, 0]) == INF


def test_energy_evaluation_is_reproducible():
    rng = np.random.default_rng(0)
    m = sample_sparse_model(rng)
    l = [int(rng.integers(k)) for k in m.labels_per_node]
    assert evaluate_energy(m, l) == evaluate_energy(m, l)


def test_evaluate_rejects_bad_labelings():
    m = single_node_model()
    with pytest.raises(ContractViolation):
        evaluate_energy(m, [0, 0])
    with pytest.raises(ContractViolation):
        evaluate_energy(m, [2])


def test_model_construction_contracts():
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 0),),
                       pairwise=[np.zeros((2, 2))])
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1), (1, 0)),
                       pairwise=[np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(3), np.zeros(2)], ())
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[np.zeros((3, 2))])
    # edges without any pairwise representation
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),))


def test_nan_unary_cost_is_rejected_naming_the_node():
    with pytest.raises(ContractViolation, match="node 1"):
        GraphicalModel((2, 2), [np.zeros(2), np.array([0.0, math.nan])], ())


def test_nan_materialized_pairwise_cost_is_rejected_naming_the_edge():
    table = np.zeros((2, 2))
    table[1, 0] = math.nan
    with pytest.raises(ContractViolation, match=r"\(0, 2\)"):
        GraphicalModel((2, 2, 2), [np.zeros(2)] * 3, ((0, 1), (2, 0)),
                       pairwise=[np.zeros((2, 2)), table])


def test_nan_lazy_pairwise_cost_is_rejected_naming_the_edge():
    def table_fn(u, v):
        return np.full((2, 2), math.nan if (u, v) == (1, 2) else 1.0)

    m = GraphicalModel((2, 2, 2), [np.zeros(2)] * 3, ((0, 1), (1, 2)), table_fn=table_fn)
    assert m.edge_cost(0, 1, 1) == 1.0
    with pytest.raises(ContractViolation, match=r"\(1, 2\)"):
        m.edge_table(1)


def test_negative_infinite_unary_is_rejected():
    # the layers disagreed on what -inf means: evaluate_energy read it as
    # +inf, TRW-S chose it, brute force added inf and -inf
    with pytest.raises(ContractViolation, match="node 0 has a -inf cost"):
        GraphicalModel((2, 2), [np.array([-INF, 0.0]), np.zeros(2)], ((0, 1),),
                       pairwise=[np.zeros((2, 2))])


def test_negative_infinite_pairwise_costs_are_rejected_naming_the_edge():
    table = np.zeros((2, 2))
    table[0, 1] = -INF
    for pairwise in ([np.zeros((2, 2)), table], np.stack([np.zeros((2, 2)), table])):
        with pytest.raises(ContractViolation, match=r"edge \(0, 2\) has a -inf cost"):
            GraphicalModel((2, 2, 2), [np.zeros(2)] * 3, ((0, 1), (2, 0)), pairwise=pairwise)
    m = GraphicalModel((2, 2, 2), [np.zeros(2)] * 3, ((0, 1), (1, 2)),
                       table_fn=lambda u, v: table if (u, v) == (1, 2) else np.zeros((2, 2)))
    assert m.edge_cost(0, 1, 1) == 0.0
    with pytest.raises(ContractViolation, match=r"\(1, 2\) has a -inf cost"):
        m.edge_table(1)


@pytest.mark.parametrize("labels", [(2, 2), (2, 3)])
def test_reversed_edge_keeps_the_callers_table(labels):
    # an edge given as (1, 0) carries a table indexed [label of 1, label of 0]
    table = np.arange(labels[1] * labels[0], dtype=float).reshape(labels[1], labels[0]) ** 2
    for pairwise in ([table], table[None]):
        m = GraphicalModel(labels, [np.zeros(k) for k in labels], ((1, 0),), pairwise=pairwise)
        assert m.edges == ((0, 1),)
        for l0 in range(labels[0]):
            for l1 in range(labels[1]):
                assert evaluate_energy(m, (l0, l1)) == table[l1, l0]


def test_table_stack_and_table_list_give_one_model():
    rng = np.random.default_rng(4)
    edges = ((0, 1), (3, 1), (2, 0), (1, 2))
    tables = rng.uniform(0.0, 3.0, (4, 2, 2))
    tables[1, 0, 1] = INF
    unary = [rng.uniform(0.0, 3.0, 2) for _ in range(4)]
    stacked = GraphicalModel((2,) * 4, unary, edges, pairwise=tables, pairwise_weight=1.5)
    listed = GraphicalModel((2,) * 4, unary, edges, pairwise=list(tables), pairwise_weight=1.5)
    assert isinstance(stacked.pairwise, np.ndarray) and isinstance(listed.pairwise, np.ndarray)
    assert stacked.edges == listed.edges == ((0, 1), (1, 3), (0, 2), (1, 2))
    assert np.array_equal(stacked.pairwise, listed.pairwise)
    assert np.array_equal(stacked.ends, np.array(stacked.edges))
    for keep in ({0, 1, 2}, {1, 3}, {0, 3}):
        a, map_a = induce_submodel(stacked, keep)
        b, map_b = induce_submodel(GraphicalModel(
            (2,) * 4, unary, edges, table_fn=lambda u, v: stacked.edge_table(
                stacked.edges.index((u, v))), pairwise_weight=1.5), keep)
        assert map_a == map_b and a.edges == b.edges
        assert all(np.array_equal(a.edge_table(e), b.edge_table(e))
                   for e in range(a.edge_count))


def test_lazy_and_materialized_tables_agree():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        labels = tuple(int(rng.integers(2, 5)) for _ in range(n))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        tables = {e: rng.uniform(0, 3, (labels[e[0]], labels[e[1]])) for e in edges}

        def fn(u, v, tables=tables):
            return tables[(u, v)]

        lazy = GraphicalModel(labels, [rng.uniform(0, 3, k) for k in labels],
                              tuple(edges), table_fn=fn)
        mat = GraphicalModel(labels, [u.copy() for u in lazy.unary], tuple(edges),
                             pairwise=[tables[e].copy() for e in edges])
        for _ in range(30):
            l = [int(rng.integers(k)) for k in labels]
            assert evaluate_energy(lazy, l) == evaluate_energy(mat, l)


def test_representations_must_agree_where_both_exist():
    good = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ContractViolation):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[good], table_fn=lambda u, v: good + 1.0)


def test_induce_identity():
    rng = np.random.default_rng(1)
    m = sample_sparse_model(rng, max_nodes=6)
    sub, node_map = induce_submodel(m, range(m.node_count))
    assert node_map == tuple(range(m.node_count))
    for _ in range(20):
        l = [int(rng.integers(k)) for k in m.labels_per_node]
        # the induced model drops the master constant by contract
        assert evaluate_energy(sub, l) == evaluate_energy(m, l) - m.constant


def test_induce_triangle_keeps_internal_edge():
    t = np.ones((2, 2))
    m = GraphicalModel((2,) * 3, [np.zeros(2)] * 3, ((0, 1), (0, 2), (1, 2)),
                       pairwise=[t.copy() for _ in range(3)])
    sub, node_map = induce_submodel(m, {0, 2})
    assert sub.node_count == 2
    assert sub.edge_count == 1
    assert node_map == (0, 2)


def test_induced_energy_is_master_restriction():
    for rng in _spawn(11, 25):
        m = sample_sparse_model(rng, max_nodes=8)
        keep = sorted(rng.choice(m.node_count, size=min(4, m.node_count),
                                 replace=False))
        sub, node_map = induce_submodel(m, keep)
        for _ in range(10):
            sub_l = [int(rng.integers(sub.labels_per_node[i]))
                     for i in range(sub.node_count)]
            # oracle: master unaries on keep + weighted internal pairwise
            expected = 0.0
            for i, old in enumerate(node_map):
                expected += m.unary[old][sub_l[i]]
            pos = {old: i for i, old in enumerate(node_map)}
            for e, (u, v) in enumerate(m.edges):
                if u in pos and v in pos:
                    expected += m.pairwise_weight * m.edge_table(e)[sub_l[pos[u]], sub_l[pos[v]]]
            assert evaluate_energy(sub, sub_l) == pytest.approx(expected, abs=1e-12)


def test_induce_rejects_empty_keep():
    with pytest.raises(ContractViolation):
        induce_submodel(single_node_model(), set())


def test_extend_partial_empty_submodel_gives_all_fill():
    out = extend_partial(4, PartialLabeling(()), (), fill=0)
    assert out.assignment == (0, 0, 0, 0)
    assert out.is_full()


def test_extend_partial_places_and_propagates():
    sub = PartialLabeling((1,))
    out = extend_partial(5, sub, (3,), fill=0)
    assert out.assignment == (0, 0, 0, 1, 0)
    sub = PartialLabeling((UNLABELED, 2))
    out = extend_partial(4, sub, (0, 2), fill=0)
    assert out.assignment == (UNLABELED, 0, 2, 0)
    assert out.labeled_count() == 3


def test_extend_partial_roundtrips_with_induce():
    for rng in _spawn(3, 20):
        m = sample_sparse_model(rng, max_nodes=8)
        size = int(rng.integers(1, m.node_count + 1))
        keep = sorted(rng.choice(m.node_count, size=size, replace=False))
        sub, node_map = induce_submodel(m, keep)
        sub_l = tuple(int(rng.integers(k)) for k in sub.labels_per_node)
        out = extend_partial(m.node_count, PartialLabeling(sub_l), node_map, fill=0)
        for i, old in enumerate(node_map):
            assert out.assignment[old] == sub_l[i]
        for u in range(m.node_count):
            if u not in keep:
                assert out.assignment[u] == 0


def test_extend_partial_rejects_out_of_range_targets():
    with pytest.raises(ContractViolation):
        extend_partial(3, PartialLabeling((0,)), (5,))


def test_partial_labeling_helpers():
    p = PartialLabeling((0, UNLABELED, 2))
    assert p.labeled_count() == 2
    assert p.labeled_nodes() == (0, 2)
    assert not p.is_full()
    with pytest.raises(ContractViolation):
        p.to_labeling()
    assert p.agrees_with([0, 9, 2])
    assert not p.agrees_with([1, 9, 2])
    full = PartialLabeling.from_labeling([1, 0])
    assert full.to_labeling() == (1, 0)
