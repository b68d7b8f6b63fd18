import hashlib
import importlib

import numpy as np
import pytest

from crfpose.maxflow import FlowNetwork, max_flow
from crfpose.model import (INF, GraphicalModel, UNLABELED,
                           ContractViolation)
from crfpose.oracle import (brute_force, check_persistency, sample_binary_model,
                            sample_submodular_binary_model, sample_zero_form_model,
                            _spawn)
from crfpose.qpbo import count_infinite_pairs, qpbo


def test_single_node_unary_argmin():
    m = GraphicalModel((2,), [np.array([1.0, 0.0])], ())
    assert qpbo(m).assignment == (1,)


def test_rejects_non_binary_models():
    m = GraphicalModel((3,), [np.zeros(3)], ())
    with pytest.raises(ContractViolation):
        qpbo(m)


def test_submodular_models_fully_labeled_and_optimal():
    for rng in _spawn(5, 60):
        m = sample_submodular_binary_model(rng)
        partial = qpbo(m)
        assert partial.labeled_count() == m.node_count
        assert check_persistency(m, partial)
        # fully labeled + persistent means the labeling is an exact optimum
        energy = brute_force(m).optimal_energy
        from crfpose.model import evaluate_energy
        assert evaluate_energy(m, partial.to_labeling()) == pytest.approx(energy, abs=1e-9)


def test_frustrated_cycle_is_all_unlabeled():
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    edges = ((0, 1), (1, 2), (0, 2))
    m = GraphicalModel((2,) * 3, [np.zeros(2)] * 3, edges,
                       pairwise=[t.copy() for _ in edges])
    partial = qpbo(m)
    assert partial.assignment == (UNLABELED,) * 3
    assert check_persistency(m, partial)


def test_mixed_models_persistency():
    for rng in _spawn(11, 120):
        m = sample_binary_model(rng)
        assert check_persistency(m, qpbo(m))


def test_permutation_invariance():
    for rng in _spawn(21, 25):
        m = sample_binary_model(rng, max_nodes=10)
        perm = rng.permutation(m.node_count)
        inv = np.argsort(perm)
        # permuted copy: node u of the original becomes perm[u]
        edges, tables = [], []
        for e, (u, v) in enumerate(m.edges):
            a, b = int(perm[u]), int(perm[v])
            t = m.edge_table(e)
            if a > b:
                a, b, t = b, a, t.T
            edges.append((a, b))
            tables.append(t.copy())
        order = np.argsort([e for e, _ in edges], kind="stable")
        pm = GraphicalModel(
            (2,) * m.node_count,
            [m.unary[int(inv[k])].copy() for k in range(m.node_count)],
            tuple(edges[i] for i in order),
            pairwise=[tables[i] for i in order],
            pairwise_weight=m.pairwise_weight)
        got = qpbo(pm)
        want = qpbo(m)
        assert tuple(got.assignment[perm[u]] for u in range(m.node_count)) \
            == want.assignment


def test_count_infinite_pairs():
    finite = GraphicalModel((2, 2), [np.zeros(2)] * 2, ((0, 1),),
                            pairwise=[np.ones((2, 2))])
    assert count_infinite_pairs(finite) == 0
    t = np.array([[0.0, 0.0], [0.0, INF]])
    m = GraphicalModel((2,) * 3, [np.zeros(2)] * 3, ((0, 1), (1, 2)),
                       pairwise=[t.copy(), np.ones((2, 2))])
    assert count_infinite_pairs(m) == 1


def test_infinite_pairs_never_labeled_jointly():
    for rng in _spawn(31, 40):
        m = sample_binary_model(rng, max_nodes=10)
        # plant infinities on a few (1,1) entries
        planted = False
        for e in range(m.edge_count):
            if rng.random() < 0.3:
                m.edge_table(e)[1, 1] = INF
                planted = True
        if not planted and m.edge_count:
            m.edge_table(0)[1, 1] = INF
        partial = qpbo(m)
        for e, (u, v) in enumerate(m.edges):
            if np.isinf(m.edge_table(e)[1, 1]):
                assert not (partial.assignment[u] == 1 and partial.assignment[v] == 1)
        assert check_persistency(m, partial)


# ---------------------------------------------------------------------------
# QPBO and max-flow pinned to the last bit

def _pinned_binary_models():
    rngs = _spawn(1618, 130)
    models = [sample_binary_model(rng, max_nodes=12) for rng in rngs[:40]]
    models += [sample_submodular_binary_model(rng) for rng in rngs[40:70]]
    for rng in rngs[70:100]:
        m = sample_zero_form_model(rng)
        for e in range(m.edge_count):
            if rng.random() < 0.3:
                m.edge_table(e)[1, 1] = INF
        models.append(m)
    for rng in rngs[100:]:
        # costs over six orders of magnitude, inf anywhere, β = 0 in a third
        n = int(rng.integers(2, 13))
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5)

        def costs(shape):
            return rng.uniform(-1.0, 3.0, shape) * 10.0 ** rng.integers(-3, 4, shape)

        tables = [costs((2, 2)) for _ in edges]
        for t in tables:
            t[rng.random((2, 2)) < 0.15] = INF
        weight = 0.0 if rng.random() < 1 / 3 else float(rng.uniform(0.5, 2.5))
        models.append(GraphicalModel((2,) * n, [costs(2) for _ in range(n)], edges,
                                     pairwise=tables, pairwise_weight=weight))
    return models


def _desk_models():
    """The 20x15 scene's master, its zero form, the submodels of its
    components and ten random submodels."""
    from crfpose.model import induce_submodel
    from crfpose.pipeline import desk_scale_config
    from crfpose.posemodel import build_stage_one_model, build_stage_two_master
    from crfpose.submodels import (connected_components, enumerate_submodels,
                                   filter_components, to_zero_form)
    from crfpose.synth import default_scenario, generate_bundle
    from crfpose.trws import extract_inliers, solve_trws

    # the scene of test_canonical_report_digest_is_pinned
    scene = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4)).observation
    cfg = desk_scale_config()
    stage_one = build_stage_one_model(scene, cfg.stage_one)
    labels = solve_trws(stage_one, cfg.trws).labeling
    inliers = sorted(extract_inliers(stage_one, labels, scene.outlier_labels()))
    master = build_stage_two_master(scene, cfg.stage_two, inliers, labels)
    zero, _ = to_zero_form(master)
    to_master = {g: k for k, g in enumerate(inliers)}
    components = filter_components(
        connected_components(inliers, scene.grid_width, scene.grid_height))
    node_sets = [[to_master[g] for g in spec.node_set]
                 for spec in enumerate_submodels(components, scene)]
    rng = np.random.default_rng(5)
    node_sets += [rng.choice(zero.node_count, size=k, replace=False)
                  for k in rng.integers(1, zero.node_count, 10)]
    return [master, zero] + [induce_submodel(zero, keep)[0] for keep in node_sets]


def _network_record(net, result):
    arcs = [(int(a), int(b), float(c).hex()) for a, b, c in net.arcs]
    return (net.node_count, net.source, net.sink, arcs, result.flow_value.hex(),
            np.flatnonzero(result.source_side).tolist())


def _qpbo_digest(models, monkeypatch):
    """sha256 over each model's QPBO assignment and the network it solved."""
    qpbo_module = importlib.import_module("crfpose.qpbo")
    solve, networks = qpbo_module.max_flow, []

    def recording_max_flow(net):
        result = solve(net)
        record = _network_record(net, result)
        # the same network rebuilt from a tuple list solves alike
        rebuilt = FlowNetwork(net.node_count, net.source, net.sink, net.arcs.tolist())
        assert _network_record(rebuilt, solve(rebuilt)) == record
        networks.append(record)
        return result

    monkeypatch.setattr(qpbo_module, "max_flow", recording_max_flow)
    h = hashlib.sha256()
    for m in models:
        h.update(repr(qpbo(m).assignment).encode())
        h.update(repr(networks.pop()).encode())
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_qpbo_is_pinned_on_random_models(monkeypatch):
    # Pins the assignment, every arc of the doubled network (capacities to
    # the last bit), the flow value and the cut.
    assert _qpbo_digest(_pinned_binary_models(), monkeypatch) == \
        "9fb9cac1c94686203015d50c1b4a6881f6609c37ea7187739903c6bd83e69cd0"


def test_qpbo_is_pinned_on_a_desk_master(monkeypatch):
    assert _qpbo_digest(_desk_models(), monkeypatch) == \
        "2a61fecec61b377149aecbecbc545f2a4fca5cc675c455cfa3c41c096c7ea404"


def _random_network(rng):
    # self-loops, parallel arcs and zero capacities included
    n = int(rng.integers(2, 12))
    count = int(rng.integers(0, 4 * n))
    caps = rng.uniform(0.0, 5.0, count) * 10.0 ** rng.integers(-3, 4, count)
    caps[rng.random(count) < 0.1] = 0.0
    arcs = [(int(a), int(b), float(c)) for a, b, c in
            zip(rng.integers(0, n, count), rng.integers(0, n, count), caps)]
    return n, arcs


def test_max_flow_is_pinned_on_random_networks():
    h = hashlib.sha256()
    for rng in _spawn(3141, 200):
        n, arcs = _random_network(rng)
        net = FlowNetwork(n, 0, n - 1, arcs)
        record = _network_record(net, max_flow(net))
        tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
        from_arrays = FlowNetwork.from_arrays(n, 0, n - 1, np.array(tails, dtype=np.int64),
                                              np.array(heads, dtype=np.int64), np.array(caps))
        assert _network_record(from_arrays, max_flow(from_arrays)) == record
        h.update(repr(record).encode())
    assert h.hexdigest() == \
        "95b1702989ef565d92f345dc20aa1a4602b50908bf2080fe83592d92d622ef25"
