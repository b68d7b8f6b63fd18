import numpy as np
import pytest

from crfpose.maxflow import FlowNetwork, cut_capacity, max_flow
from crfpose.model import ContractViolation


def test_bottleneck_path():
    net = FlowNetwork(4, 0, 3, [(0, 1, 3.0), (1, 3, 2.0)])
    assert max_flow(net).flow_value == 2.0


def test_direct_arc():
    net = FlowNetwork(2, 0, 1, [(0, 1, 5.0)])
    assert max_flow(net).flow_value == 5.0


def test_disconnected_gives_zero_flow_and_trivial_cut():
    net = FlowNetwork(3, 0, 2, [(0, 1, 4.0)])
    res = max_flow(net)
    assert res.flow_value == 0.0
    assert res.source_side[0] and not res.source_side[2]


def brute_min_cut(n, arcs, s, t):
    others = [u for u in range(n) if u not in (s, t)]
    best = float("inf")
    for mask in range(1 << len(others)):
        side = {s} | {u for i, u in enumerate(others) if mask >> i & 1}
        best = min(best, sum(cap for a, b, cap in arcs if a in side and b not in side))
    return best


def test_random_networks_match_cut_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(3, 10))
        arcs = [(a, b, float(rng.uniform(0, 5)))
                for a in range(n) for b in range(n)
                if a != b and rng.random() < 0.45]
        net = FlowNetwork(n, 0, n - 1, arcs)
        res = max_flow(net)
        assert res.flow_value == pytest.approx(brute_min_cut(n, arcs, 0, n - 1), abs=1e-9)
        # max-flow equals the capacity of the returned cut
        assert cut_capacity(net, res.source_side) == pytest.approx(res.flow_value, abs=1e-9)
        assert res.source_side[0] and not res.source_side[n - 1]


def test_network_contracts():
    with pytest.raises(ContractViolation):
        FlowNetwork(2, 0, 0, [])
    with pytest.raises(ContractViolation):
        FlowNetwork(2, 0, 1, [(0, 1, -1.0)])
    with pytest.raises(ContractViolation):
        FlowNetwork(2, 0, 1, [(0, 1, float("nan"))])
    with pytest.raises(ContractViolation):
        FlowNetwork(2, 0, 1, [(0, 5, 1.0)])
    net = FlowNetwork(2, 0, 1, [])
    with pytest.raises(ContractViolation):
        net.add_arc(0, 3, 1.0)
