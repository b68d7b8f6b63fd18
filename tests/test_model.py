import math

import numpy as np
import pytest

from crfpose.model import (INF, UNLABELED, ContractViolation, GraphicalModel,
                           PartialLabeling, block_energies, evaluate_energy,
                           extend_partial, induce_submodel, weighted_table)
from crfpose.oracle import _spawn, sample_hard_model, sample_sparse_model
from crfpose.qpbo import binary_tables


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
                       edges, pairwise=[weighted_table(table, 3.0) for _ in edges])
    assert evaluate_energy(m, [1, 1, 1, 1]) == pytest.approx(
        sum(0.1 * (u + 1) for u in range(4)), abs=0)


def test_energy_matches_double_loop_resummation():
    # independent oracle: plain double-loop sum
    rng = np.random.default_rng(42)
    labels = (3, 2, 4, 2, 3, 2)
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 2)]
    unary = [rng.uniform(0, 5, k) for k in labels]
    tables = [rng.uniform(0, 5, (labels[u], labels[v])) for u, v in edges]
    m = GraphicalModel(labels, unary, tuple(edges),
                       pairwise=[weighted_table(t, 2.0) for t in tables], constant=0.25)
    for _ in range(20):
        l = [int(rng.integers(k)) for k in labels]
        expected = 0.25
        for u in range(6):
            expected += unary[u][l[u]]
        for e, (u, v) in enumerate(edges):
            expected += 2.0 * tables[e][l[u], l[v]]
        assert evaluate_energy(m, l) == expected


def test_weighted_table_leaves_non_finite_entries_as_they_are():
    # 0 * inf never runs, and a NaN or -inf weighted before the model checks
    # its tables is still refused, materialized or lazy
    table = np.array([[np.nan, INF], [-INF, -2.0]])
    for weight in (0.0, 3.0):
        out = weighted_table(table, weight)
        assert np.isnan(out[0, 0]) and out[0, 1] == INF and out[1, 0] == -INF
        assert out[1, 1] == -2.0 * weight
    for bad, kind in ((table, "NaN"), (np.array([[0.0, -INF], [1.0, 2.0]]), "-inf")):
        weighted = weighted_table(bad, 0.0)
        with pytest.raises(ContractViolation, match=kind):
            GraphicalModel((2, 2), np.zeros((2, 2)), ((0, 1),), pairwise=[weighted])
        lazy = GraphicalModel((2, 2), np.zeros((2, 2)), ((0, 1),),
                              table_fn=lambda u, v: weighted)
        with pytest.raises(ContractViolation, match=kind):
            lazy.edge_table(0)


def test_energy_infinite_term_gives_infinity():
    t = np.array([[INF, 1.0], [1.0, 0.0]])
    m = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),), pairwise=[t])
    assert evaluate_energy(m, [0, 0]) == INF
    assert evaluate_energy(m, [1, 1]) == 0.0
    # infinite pairwise dominates even a zero weight
    m0 = GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                        pairwise=[weighted_table(t, 0.0)])
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
    # a stack entry past an edge's label counts must be +inf
    labels, unary, edges = (2, 2, 3), [np.zeros(k) for k in (2, 2, 3)], ((0, 1), (1, 2))
    stack = np.full((2, 3, 3), INF)
    stack[0, :2, :2] = stack[1, :2, :3] = 1.0
    GraphicalModel(labels, unary, edges, pairwise=stack)
    for past in ((0, 2, 0), (0, 0, 2), (1, 2, 2)):
        bad = stack.copy()
        bad[past] = 1.0
        with pytest.raises(ContractViolation, match="wrong shape"):
            GraphicalModel(labels, unary, edges, pairwise=bad)


def test_unary_array_is_inf_padded_and_checked_naming_the_node():
    labels, edges = (1, 3, 2), ((0, 1), (2, 1))
    listed = [np.array([0.5]), np.array([1.0, INF, 2.0]), np.array([3.0, 4.0])]
    padded = np.full((3, 4), INF)
    for u, t in enumerate(listed):
        padded[u, : t.size] = t
    for unary in (listed, padded, padded[:, :3]):
        m = GraphicalModel(labels, unary, edges, pairwise=[np.zeros((1, 3)), np.zeros((2, 3))])
        assert m.unary.shape == (3, 3)
        assert np.array_equal(m.unary, padded[:, :3])
        assert evaluate_energy(m, (0, 2, 1)) == 0.5 + 2.0 + 4.0
    for u, value, message in ((0, 1.0, "node 0 has wrong length"),
                              (2, 0.0, "node 2 has wrong length"),
                              (1, math.nan, "node 1 has a NaN cost"),
                              (2, -INF, "node 2 has a -inf cost")):
        bad = padded.copy()
        bad[u, labels[u] if "length" in message else 0] = value
        with pytest.raises(ContractViolation, match=message):
            GraphicalModel(labels, bad, (), pairwise=[])
    with pytest.raises(ContractViolation, match="node 1 has wrong length"):
        GraphicalModel(labels, padded[:, :2], ())


def test_model_arrays_are_read_only_copies():
    unary, edges = np.zeros((3, 2)), np.array([[0, 1], [2, 1]])
    stack = np.zeros((2, 2, 2))
    m = GraphicalModel((2,) * 3, unary, edges, pairwise=stack)
    lazy = GraphicalModel((2,) * 3, unary, edges, table_fn=lambda u, v: np.zeros((2, 2)))
    sub, _ = induce_submodel(m, (1, 2))
    for array in (m.unary, m.edges, m.pairwise, m.edge_table(1), lazy.unary, lazy.edges,
                  sub.unary, sub.edges, sub.pairwise):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # the caller's arrays stay theirs: writing them changes no model
    unary[0, 1] = stack[1, 1, 1] = edges[0, 1] = 2
    assert not m.unary.any() and not m.pairwise.any() and not lazy.unary.any()
    assert m.edges.tolist() == lazy.edges.tolist() == [[0, 1], [1, 2]]


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
    assert m.edge_table(0)[1, 1] == 1.0
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
    assert m.edge_table(0)[1, 1] == 0.0
    with pytest.raises(ContractViolation, match=r"\(1, 2\) has a -inf cost"):
        m.edge_table(1)


@pytest.mark.parametrize("labels", [(2, 2), (2, 3)])
def test_reversed_edge_keeps_the_callers_table(labels):
    # an edge given as (1, 0) carries a table indexed [label of 1, label of 0]
    table = np.arange(labels[1] * labels[0], dtype=float).reshape(labels[1], labels[0]) ** 2
    padded = np.full((1, 3, 3), INF)
    padded[0, : labels[1], : labels[0]] = table
    for pairwise in ([table], table[None], padded):
        m = GraphicalModel(labels, [np.zeros(k) for k in labels], ((1, 0),), pairwise=pairwise)
        assert m.edges.tolist() == [[0, 1]]
        for l0 in range(labels[0]):
            for l1 in range(labels[1]):
                assert evaluate_energy(m, (l0, l1)) == table[l1, l0]


def test_table_stack_and_table_list_give_one_model():
    rng = np.random.default_rng(4)
    edges = ((0, 1), (3, 1), (2, 0), (1, 2))
    tables = rng.uniform(0.0, 3.0, (4, 2, 2))
    tables[1, 0, 1] = INF
    unary = [rng.uniform(0.0, 3.0, 2) for _ in range(4)]
    stacked = GraphicalModel((2,) * 4, unary, edges, pairwise=tables)
    listed = GraphicalModel((2,) * 4, unary, edges, pairwise=list(tables))
    assert isinstance(stacked.pairwise, np.ndarray) and isinstance(listed.pairwise, np.ndarray)
    assert stacked.edges.tolist() == listed.edges.tolist() == [[0, 1], [1, 3], [0, 2], [1, 2]]
    assert np.array_equal(stacked.pairwise, listed.pairwise)
    lazy = GraphicalModel((2,) * 4, unary, edges,
                          table_fn=lambda u, v: stacked.edge_table(
                              stacked.edges.tolist().index([u, v])))
    for keep in ({0, 1, 2}, {1, 3}, {0, 3}):
        sub, node_map = induce_submodel(stacked, keep)
        assert node_map == tuple(sorted(keep))
        internal = [e for e, (u, v) in enumerate(stacked.edges) if u in keep and v in keep]
        assert sub.edge_count == len(internal)
        assert all(np.array_equal(sub.edge_table(i), stacked.edge_table(e))
                   for i, e in enumerate(internal))
        # only a model that holds its tables is induced or read as a binary stack
        with pytest.raises(ContractViolation, match="lazy tables"):
            induce_submodel(lazy, keep)
    with pytest.raises(ContractViolation, match="table_fn"):
        binary_tables(lazy)
    # label counts 1-4: one INF-padded (E, 4, 4) stack, each table a view of it
    labels = (1, 4, 2, 3)
    listed = [rng.uniform(0.0, 3.0, (labels[u], labels[v])) for u, v in edges]
    m = GraphicalModel(labels, [np.zeros(k) for k in labels], edges, pairwise=listed)
    assert m.pairwise.shape == (4, 4, 4)
    for e, ((u, v), table) in enumerate(zip(edges, listed)):
        view = m.edge_table(e)
        assert view.base is m.pairwise
        assert np.array_equal(view, table if u < v else table.T)
        past = np.ones((4, 4), dtype=bool)
        past[: view.shape[0], : view.shape[1]] = False
        assert (m.pairwise[e][past] == INF).all()


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
        mat = GraphicalModel(labels, lazy.unary, tuple(edges),
                             pairwise=[tables[e].copy() for e in edges])
        for _ in range(30):
            l = [int(rng.integers(k)) for k in labels]
            assert evaluate_energy(lazy, l) == evaluate_energy(mat, l)


def test_block_energies_follow_the_one_summation_order():
    # the constant, then the unaries in node order, then the pairwise entries
    # in edge order; an inf term makes the row inf, also in a model weighted by 0
    for rng in _spawn(61, 30):
        m = sample_hard_model(rng)
        k = np.array(m.labels_per_node)
        block = (rng.random((40, k.size)) * k).astype(np.int64)
        expected = []
        for row in block.tolist():
            total = m.constant
            for u, l in enumerate(row):
                total += float(m.unary[u, l])
            for e, (u, v) in enumerate(m.edges.tolist()):
                total += float(m.edge_table(e)[row[u], row[v]])
            expected.append(total)
        assert block_energies(m, block).tolist() == expected
        assert [evaluate_energy(m, row) for row in block] == expected


def test_pairwise_and_table_fn_together_are_refused():
    # a model holds its tables one way only, so there is nothing to keep in agreement
    good = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ContractViolation, match="not both"):
        GraphicalModel((2, 2), [np.zeros(2), np.zeros(2)], ((0, 1),),
                       pairwise=[good], table_fn=lambda u, v: good)


def test_induce_identity():
    rng = np.random.default_rng(1)
    m = sample_sparse_model(rng, max_nodes=6)
    sub, node_map = induce_submodel(m, range(m.node_count))
    assert node_map == tuple(range(m.node_count))
    for _ in range(20):
        l = [int(rng.integers(k)) for k in m.labels_per_node]
        # the induced model drops the master constant by contract
        assert evaluate_energy(sub, l) == evaluate_energy(m, l) - m.constant
    # mixed label counts: a submodel with fewer labels gets the stack cut to its own size
    m = GraphicalModel((4, 1, 2, 3), [np.zeros(k) for k in (4, 1, 2, 3)],
                       ((0, 1), (1, 2), (3, 2), (1, 3)),
                       pairwise=[rng.uniform(0.0, 3.0, shape)
                                 for shape in ((4, 1), (1, 2), (3, 2), (1, 3))])
    for keep in (range(4), (1, 2, 3), (1, 2)):
        sub, node_map = induce_submodel(m, keep)
        assert sub.pairwise.shape[1:] == (max(sub.labels_per_node),) * 2
        kept = [e for e, (u, v) in enumerate(m.edges) if u in node_map and v in node_map]
        assert len(kept) == sub.edge_count
        for e_sub, e in enumerate(kept):
            assert np.array_equal(sub.edge_table(e_sub), m.edge_table(e))


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
            # oracle: master unaries on keep + internal pairwise
            expected = 0.0
            for i, old in enumerate(node_map):
                expected += m.unary[old][sub_l[i]]
            pos = {old: i for i, old in enumerate(node_map)}
            for e, (u, v) in enumerate(m.edges):
                if u in pos and v in pos:
                    expected += m.edge_table(e)[sub_l[pos[u]], sub_l[pos[v]]]
            assert evaluate_energy(sub, sub_l) == pytest.approx(expected, abs=1e-12)


def test_induce_rejects_empty_keep():
    with pytest.raises(ContractViolation):
        induce_submodel(single_node_model(), set())


def test_extend_partial_empty_submodel_gives_all_fill():
    out = extend_partial(4, PartialLabeling(()), (), fill=0)
    assert out.assignment == (0, 0, 0, 0)
    assert out.labeled_count() == 4


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
    assert UNLABELED in p.assignment
    with pytest.raises(ContractViolation):
        PartialLabeling((0, UNLABELED - 1))
    full = PartialLabeling([1, 0])
    assert full.assignment == (1, 0) and full.labeled_count() == len(full)
