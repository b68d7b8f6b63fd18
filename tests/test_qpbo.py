import hashlib
import importlib

import numpy as np
import pytest

from crfpose.maxflow import FlowNetwork, max_flow
from crfpose.model import (INF, GraphicalModel, UNLABELED,
                           ContractViolation, weighted_table)
from crfpose.oracle import (brute_force, check_persistency, sample_binary_model,
                            sample_zero_form_model, _random_edges, _spawn)
from crfpose.qpbo import count_infinite_pairs, qpbo


def sample_submodular_binary_model(rng, max_nodes=12):
    """Random binary model with every edge submodular (QPBO labels everything)."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = _random_edges(rng, n, 0.5)
    tables = []
    for _ in edges:
        a, d = rng.uniform(0.0, 2.0, size=2)
        slack = rng.uniform(0.0, 2.0)
        b = rng.uniform(0.0, a + d + slack)
        c = a + d + slack - b
        tables.append(np.array([[a, b], [c, d]]))
    return GraphicalModel((2,) * n, [rng.uniform(-2.0, 2.0, size=2) for _ in range(n)],
                          tuple(edges), pairwise=tables)


def test_single_node_unary_argmin():
    m = GraphicalModel((2,), [np.array([1.0, 0.0])], ())
    assert qpbo(m).assignment == (1,)


def test_model_without_nodes_gets_an_empty_labeling():
    # this read unary column 1 of a (0, 1) array and raised IndexError
    empty = qpbo(GraphicalModel((), [], ()))
    assert empty.assignment == () and empty.labeled_count() == 0


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
        assert evaluate_energy(m, partial.assignment) == pytest.approx(energy, abs=1e-9)


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
            pairwise=[tables[i] for i in order])
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


def _with_infinite_pairs(m, planted):
    """``m`` rebuilt with an infinite (1,1) entry on every edge in ``planted``."""
    tables = m.pairwise.copy()
    tables[np.array(planted, dtype=bool), 1, 1] = INF
    return GraphicalModel(m.labels_per_node, m.unary, m.edges, pairwise=tables)


def test_infinite_pairs_never_labeled_jointly():
    for rng in _spawn(31, 40):
        m = sample_binary_model(rng, max_nodes=10)
        # plant infinities on a few (1,1) entries
        planted = [rng.random() < 0.3 for _ in range(m.edge_count)]
        if not any(planted) and m.edge_count:
            planted[0] = True
        m = _with_infinite_pairs(m, planted)
        partial = qpbo(m)
        for e, (u, v) in enumerate(m.edges):
            if np.isinf(m.edge_table(e)[1, 1]):
                assert not (partial.assignment[u] == 1 and partial.assignment[v] == 1)
        assert check_persistency(m, partial)


def _tiny_cost_models(count=200):
    """10-node zero-form models whose finite costs (within +-1e-6) sit far
    below one label-1 unary of 1e4 and the clamp of their infinite (1,1)
    entries (20% of the edges)."""
    models = []
    for rng in _spawn(20261018, count):
        edges = tuple((u, v) for u in range(10) for v in range(u + 1, 10)
                      if rng.random() < 0.5)
        tables = np.zeros((len(edges), 2, 2))
        tables[:, 1, 1] = rng.uniform(-1e-6, 1e-6, len(edges))
        tables[rng.random(len(edges)) < 0.2, 1, 1] = INF
        unary = rng.uniform(-1e-6, 1e-6, (10, 2))
        unary[0, 1] = 1e4
        models.append(GraphicalModel((2,) * 10, unary, edges, pairwise=tables))
    return models


def test_tiny_costs_beside_a_large_one_stay_persistent():
    # A residual below a fraction of the largest capacity once counted as
    # saturated, so a cut through such tiny arcs gave non-persistent labels.
    for m in _tiny_cost_models():
        assert check_persistency(m, qpbo(m))


# ---------------------------------------------------------------------------
# QPBO and max-flow pinned to the last bit

def _planted_zero_form_model(rng):
    """A zero-form model with an infinite (1,1) entry on 30% of its edges."""
    m = sample_zero_form_model(rng)
    return _with_infinite_pairs(m, [rng.random() < 0.3 for _ in range(m.edge_count)])


def _wide_range_model(rng):
    """Costs over six orders of magnitude, inf anywhere, β = 0 in a third."""
    n = int(rng.integers(2, 13))
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.5)

    def costs(shape):
        return rng.uniform(-1.0, 3.0, shape) * 10.0 ** rng.integers(-3, 4, shape)

    tables = [costs((2, 2)) for _ in edges]
    for t in tables:
        t[rng.random((2, 2)) < 0.15] = INF
    weight = 0.0 if rng.random() < 1 / 3 else float(rng.uniform(0.5, 2.5))
    return GraphicalModel((2,) * n, [costs(2) for _ in range(n)], edges,
                          pairwise=[weighted_table(t, weight) for t in tables])


def _pinned_binary_models():
    rngs = _spawn(1618, 130)
    models = [sample_binary_model(rng, max_nodes=12) for rng in rngs[:40]]
    models += [sample_submodular_binary_model(rng) for rng in rngs[40:70]]
    models += [_planted_zero_form_model(rng) for rng in rngs[70:100]]
    return models + [_wide_range_model(rng) for rng in rngs[100:]]


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
    inliers = sorted(extract_inliers(stage_one, labels, scene.candidate_count))
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


def test_qpbo_is_pinned_on_random_models(monkeypatch):
    # Pins the assignment, every arc of the network over the free nodes
    # (capacities to the last bit), the flow value and the cut.
    assert _qpbo_digest(_pinned_binary_models(), monkeypatch) == \
        "626cfc2bb285346550e4e618f1be94ddba4566144ae2388ea7617894e836991a"


def test_qpbo_is_pinned_on_a_desk_master(monkeypatch):
    assert _qpbo_digest(_desk_models(), monkeypatch) == \
        "dae7b3e81e741e445801f8e3c5d1e89ba25fc88d16488624a886e72b194caeca"


def test_qpbo_assignments_are_pinned():
    # Assignments alone: they stay put when the network qpbo solves changes.
    h = hashlib.sha256()
    for m in _pinned_binary_models() + _desk_models():
        h.update(repr(qpbo(m).assignment).encode())
    assert h.hexdigest() == \
        "48f812e00055508d0088aa9919f0cc526c2a32f243eead4ad206098330657247"


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


def _layered_network(rng):
    """Source, 4-8 layers of 2-5 nodes, sink; arcs between neighbouring
    layers (each node has one into the next), forward skips that make
    shorter paths, backward arcs, parallel arcs, zero capacities, self-loops."""
    depth = int(rng.integers(4, 9))
    layers, n = [[0]], 1
    for width in rng.integers(2, 6, depth).tolist():
        layers.append(list(range(n, n + width)))
        n += width
    layers.append([n])
    n += 1

    def cap():
        if rng.random() < 0.08:
            return 0.0
        return float(rng.uniform(0.1, 5.0) * 10.0 ** rng.integers(-2, 3))

    def pick(k):
        return int(rng.choice(layers[k]))

    arcs = []
    for k in range(depth + 1):
        arcs += [(a, b, cap()) for a in layers[k] for b in layers[k + 1] if rng.random() < 0.5]
        arcs += [(a, pick(k + 1), cap()) for a in layers[k]]
    skips = [(k, int(rng.integers(k + 2, depth + 2)))
             for k in rng.integers(0, depth, int(rng.integers(2, 6))).tolist()]
    skips += [(0, int(rng.integers(2, depth))), (int(rng.integers(1, depth - 1)), depth + 1)]
    arcs += [(pick(k), pick(j), cap()) for k, j in skips]
    arcs += [(pick(k + 1), pick(k), cap())
             for k in rng.integers(1, depth, int(rng.integers(1, 4))).tolist()]
    arcs += [arcs[i][:2] + (cap(),) for i in rng.integers(0, len(arcs), len(arcs) // 6)]
    arcs += [(u, u, cap()) for u in rng.integers(0, n, 2).tolist()]
    return n, [arcs[i] for i in rng.permutation(len(arcs))]


def _traced_dinic(net):
    """Textbook Dinic in the order ``max_flow`` documents (each node tries
    its arcs in arc order, reverse residual right after its arc; after an
    augmentation, retreat to the first saturated arc; a dead end leaves the
    level graph).  Returns (flow, cut, BFS phases, augmentations that kept a
    non-empty path prefix, dead ends)."""
    n, s, t = net.node_count, net.source, net.sink
    out = [[] for _ in range(n)]  # per node: [residual edge id, head]
    res = []
    for a, b, c in net.arcs.tolist():
        if a != b:
            out[a].append([len(res), b])
            res.append(c)
            out[b].append([len(res), a])
            res.append(0.0)
    flow, phases, mid_retreats, dead_ends = 0.0, 0, 0, 0
    while True:
        phases += 1
        level, queue = [-1] * n, [s]
        level[s] = 0
        for u in queue:
            for e, v in out[u]:
                if res[e] > 0.0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow, [u for u in range(n) if level[u] >= 0], phases, mid_retreats, dead_ends
        pos, path, nodes = [0] * n, [], [s]
        while True:
            u = nodes[-1]
            while pos[u] < len(out[u]):
                e, v = out[u][pos[u]]
                if res[e] > 0.0 and level[v] == level[u] + 1:
                    break
                pos[u] += 1
            else:
                if u == s:
                    break
                level[u] = -1
                dead_ends += 1
                path.pop()
                nodes.pop()
                continue
            path.append(e)
            nodes.append(v)
            if v == t:
                pushed = min(res[e] for e in path)
                for e in path:
                    res[e] -= pushed
                    res[e ^ 1] += pushed
                flow += pushed
                keep = [res[e] == 0.0 for e in path].index(True)
                mid_retreats += keep > 0
                del path[keep:], nodes[keep + 1:]


def test_max_flow_is_pinned_on_deep_networks():
    # Networks whose augmenting paths are long. Every draw must match the
    # textbook trace; the 46 of 48 draws that run at least three BFS phases,
    # retreat to a saturated arc in the middle of a path and prune a dead end
    # (which the pipeline's length-3 paths never do) are pinned.
    h, kept = hashlib.sha256(), 0
    for rng in _spawn(2718, 48):
        n, arcs = _layered_network(rng)
        net = FlowNetwork(n, 0, n - 1, arcs)
        record = _network_record(net, max_flow(net))
        flow, cut, phases, mid_retreats, dead_ends = _traced_dinic(net)
        assert record[4:] == (flow.hex(), cut)
        if phases >= 3 and mid_retreats and dead_ends:
            kept += 1
            h.update(repr(record).encode())
    assert kept == 46
    assert h.hexdigest() == \
        "8adafc331ecb8650316777211e60410014cd50aca12d596ff6046714a9303e56"


# ---------------------------------------------------------------------------
# the presolve against QPBO on the doubled network of every node

def _full_network_qpbo(model):
    """``qpbo``'s assignment from the doubled network of all nodes, with no
    node fixed beforehand: the build ``qpbo`` used before its presolve."""
    n, tables = model.node_count, model.pairwise
    unary, inf = model.unary.copy(), np.isinf(tables)
    t = np.where(inf, 0.0, tables)
    edge_mass = np.abs(t).reshape(-1, 4).cumsum(axis=1)[:, -1]
    t[inf] = 1.0 + np.cumsum(np.append(np.abs(unary).sum(), edge_mass))[-1]
    rows = t.min(axis=2)
    t -= rows[:, :, None]
    cols = t.min(axis=1)
    t -= cols[:, None, :]
    np.add.at(unary, (np.repeat(model.edges, 2, axis=1).reshape(-1),
                      np.tile([0, 1], 2 * model.edge_count)),
              np.stack([rows, cols], axis=1).reshape(-1))
    source, sink = 2 * n, 2 * n + 1
    arcs = []
    for x, c in enumerate((unary[:, 1] - unary[:, 0]).tolist()):
        if c > 0:
            arcs += [(source, x, c / 2), (x + n, sink, c / 2)]
        elif c < 0:
            arcs += [(x, sink, -c / 2), (source, x + n, -c / 2)]
    for (a, b), p in zip(model.edges.tolist(), t[:, [0, 1, 1, 0], [1, 0, 1, 0]].tolist()):
        for (tail, head, mirror_tail, mirror_head), cap in zip(
                ((a, b, b + n, a + n), (b, a, a + n, b + n),
                 (a + n, b, b + n, a), (a, b + n, b, a + n)), p):
            if cap > 0:
                arcs += [(tail, head, cap / 2), (mirror_tail, mirror_head, cap / 2)]
    net = FlowNetwork(2 * n + 2, source, sink, arcs)
    side = max_flow(net).source_side
    plain, mirror = side[:n], side[n:2 * n]
    assignment = np.where(plain & ~mirror, 0, np.where(mirror & ~plain, 1, UNLABELED))
    for (a, b), hard in zip(model.edges.tolist(), inf):
        la, lb = assignment[a], assignment[b]
        if la != UNLABELED and lb != UNLABELED and hard[la, lb]:
            assignment[a] = assignment[b] = UNLABELED
    return tuple(assignment.tolist())


def test_presolve_labels_random_models_as_the_full_network_does():
    samplers = (sample_binary_model, sample_submodular_binary_model,
                _planted_zero_form_model, _wide_range_model)
    models = [samplers[i % 4](rng) for i, rng in enumerate(_spawn(577, 2000))]
    for m in models + _tiny_cost_models():
        assert qpbo(m).assignment == _full_network_qpbo(m)


def test_presolve_labels_corpus_submodels_as_the_full_network_does(monkeypatch):
    from test_report_corpus import CORPUS

    from crfpose.pipeline import desk_scale_config, solve_scene
    from crfpose.synth import default_scenario, generate_bundle
    submodels = importlib.import_module("crfpose.submodels")
    solved = []

    def checked_qpbo(model):
        partial = qpbo(model)
        assert partial.assignment == _full_network_qpbo(model)
        solved.append(model.node_count)
        return partial

    monkeypatch.setattr(submodels, "qpbo", checked_qpbo)
    for width, height, seed in CORPUS:
        solve_scene(generate_bundle(default_scenario(
            seed=seed, grid_width=width, grid_height=height, inlier_rate=0.85,
            visible_fraction=0.8, coord_noise_sigma=1e-4)), desk_scale_config())
    assert len(solved) > len(CORPUS)
