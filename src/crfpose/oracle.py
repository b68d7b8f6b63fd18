"""Brute-force exact minimization and the randomized verification suites.

Everything here is ground truth for the solvers: exhaustive enumeration,
persistency checking, and the seeded model samplers the acceptance suites
draw from.  Per-trial seeds are spawned deterministically from the master
seed, so trials are independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (INF, ContractViolation, GraphicalModel, PartialLabeling,
                    UNLABELED, evaluate_energy, extend_partial, induce_submodel,
                    weighted_table)

STATE_SPACE_GUARD = 10 ** 7
_CHUNK = 1 << 15


class StateSpaceTooLarge(ValueError):
    """The model's labeling space exceeds the enumeration guard."""


def _guard(model: GraphicalModel) -> int:
    total = 1
    for k in model.labels_per_node:
        total *= k
        if total > STATE_SPACE_GUARD:
            raise StateSpaceTooLarge(
                f"label space exceeds {STATE_SPACE_GUARD}; refusing to enumerate")
    return total


def _weighted_tables(model: GraphicalModel) -> list[np.ndarray]:
    return [weighted_table(model.edge_table(e), model.pairwise_weight)
            for e in range(model.edge_count)]


def _labeling_block(model: GraphicalModel, start: int, stop: int) -> np.ndarray:
    """Rows are labelings ``start..stop`` in lexicographic order (node 0 most
    significant); deterministic, order-stable."""
    n = model.node_count
    idx = np.arange(start, stop, dtype=np.int64)
    block = np.empty((stop - start, n), dtype=np.int64)
    stride = 1
    for u in range(n - 1, -1, -1):
        k = model.labels_per_node[u]
        block[:, u] = (idx // stride) % k
        stride *= k
    return block


def _block_energies(model: GraphicalModel, block: np.ndarray,
                    wtables: list[np.ndarray]) -> np.ndarray:
    e = np.full(block.shape[0], model.constant, dtype=float)
    for u in range(model.node_count):
        e += model.unary[u][block[:, u]]
    for ei, (u, v) in enumerate(model.edges):
        e += wtables[ei][block[:, u], block[:, v]]
    return e


@dataclass
class OracleResult:
    optimal_energy: float
    optima: list[tuple[int, ...]]
    truncated: bool = False
    cap: int = 1024


def brute_force(model: GraphicalModel, cap: int = 1024) -> OracleResult:
    """Exhaustive exact minimization; optima listed lexicographically up to ``cap``."""
    total = _guard(model)
    wtables = _weighted_tables(model)
    best = INF
    optima: list[tuple[int, ...]] = []
    truncated = False
    for start in range(0, total, _CHUNK):
        block = _labeling_block(model, start, min(start + _CHUNK, total))
        energies = _block_energies(model, block, wtables)
        lo = energies.min()
        if lo < best:
            best = lo
            optima = []
            truncated = False
        if lo <= best:
            for row in np.nonzero(energies == best)[0]:
                if len(optima) >= cap:
                    truncated = True
                    break
                optima.append(tuple(int(x) for x in block[row]))
    return OracleResult(optimal_energy=float(best), optima=optima,
                        truncated=truncated, cap=cap)


def check_persistency(model: GraphicalModel, partial: PartialLabeling) -> bool:
    """True iff some exact optimum agrees with every labeled node of ``partial``."""
    if len(partial) != model.node_count:
        raise ContractViolation("partial labeling size mismatch")
    total = _guard(model)
    wtables = _weighted_tables(model)
    labeled = [(u, a) for u, a in enumerate(partial.assignment) if a != UNLABELED]
    best = INF
    for start in range(0, total, _CHUNK):
        block = _labeling_block(model, start, min(start + _CHUNK, total))
        best = min(best, float(_block_energies(model, block, wtables).min()))
    for start in range(0, total, _CHUNK):
        block = _labeling_block(model, start, min(start + _CHUNK, total))
        energies = _block_energies(model, block, wtables)
        mask = energies == best
        for u, a in labeled:
            mask &= block[:, u] == a
        if mask.any():
            return True
    return False


# ---------------------------------------------------------------------------
# seeded model samplers

def _spawn(seed: int, trials: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


def _random_edges(rng: np.random.Generator, n: int, edge_prob: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < edge_prob]


def sample_sparse_model(rng: np.random.Generator, max_nodes: int = 10,
                        max_labels: int = 4, edge_prob: float = 0.4) -> GraphicalModel:
    """Random finite-cost multi-label model with a random pairwise weight."""
    n = int(rng.integers(2, max_nodes + 1))
    labels = tuple(int(rng.integers(2, max_labels + 1)) for _ in range(n))
    edges = _random_edges(rng, n, edge_prob)
    return GraphicalModel(
        labels_per_node=labels,
        unary=[rng.uniform(0.0, 3.0, size=k) for k in labels],
        edges=tuple(edges),
        pairwise=[rng.uniform(0.0, 3.0, size=(labels[u], labels[v])) for u, v in edges],
        pairwise_weight=float(rng.uniform(0.5, 2.5)),
    )


def sample_hard_model(rng: np.random.Generator, max_nodes: int = 8,
                      max_labels: int = 4, edge_prob: float = 0.4) -> GraphicalModel:
    """Random model with hard constraints: inf costs, single-label nodes, β = 0.

    Label counts are 1..``max_labels``; about 30% of the unary and pairwise
    entries are inf, but never one on label 0, so label 0 stays compatible
    with every neighbour and a finite optimum exists.  A quarter of the
    models have pairwise weight 0.
    """
    n = int(rng.integers(2, max_nodes + 1))
    labels = tuple(int(rng.integers(1, max_labels + 1)) for _ in range(n))
    edges = _random_edges(rng, n, edge_prob)

    def costs(shape):
        t = rng.uniform(0.0, 3.0, size=shape)
        t[(rng.random(shape) < 0.3) & (np.indices(shape) > 0).all(axis=0)] = INF
        return t

    return GraphicalModel(
        labels_per_node=labels,
        unary=[costs((k,)) for k in labels],
        edges=tuple(edges),
        pairwise=[costs((labels[u], labels[v])) for u, v in edges],
        pairwise_weight=0.0 if rng.random() < 0.25 else float(rng.uniform(0.5, 2.5)),
    )


def sample_tree_model(rng: np.random.Generator, max_nodes: int = 8,
                      max_labels: int = 4) -> GraphicalModel:
    """Random tree-structured model (uniform random tree via random parents)."""
    n = int(rng.integers(2, max_nodes + 1))
    labels = tuple(int(rng.integers(2, max_labels + 1)) for _ in range(n))
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = int(order[i]), int(order[j])
        edges.append((min(u, v), max(u, v)))
    edges.sort()
    return GraphicalModel(
        labels_per_node=labels,
        unary=[rng.uniform(0.0, 3.0, size=k) for k in labels],
        edges=tuple(edges),
        pairwise=[rng.uniform(0.0, 3.0, size=(labels[u], labels[v])) for u, v in edges],
        pairwise_weight=float(rng.uniform(0.5, 2.5)),
    )


def sample_binary_model(rng: np.random.Generator, max_nodes: int = 14,
                        edge_prob: float = 0.45) -> GraphicalModel:
    """Random two-label model with mixed submodular/supermodular edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = _random_edges(rng, n, edge_prob)
    return GraphicalModel(
        labels_per_node=(2,) * n,
        unary=[rng.uniform(0.0, 3.0, size=2) for _ in range(n)],
        edges=tuple(edges),
        pairwise=[rng.uniform(0.0, 4.0, size=(2, 2)) for _ in edges],
        pairwise_weight=float(rng.uniform(0.5, 2.0)),
    )


def sample_submodular_binary_model(rng: np.random.Generator,
                                   max_nodes: int = 12) -> GraphicalModel:
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
    return GraphicalModel(
        labels_per_node=(2,) * n,
        unary=[rng.uniform(-2.0, 2.0, size=2) for _ in range(n)],
        edges=tuple(edges),
        pairwise=tables,
        pairwise_weight=1.0,
    )


def sample_zero_form_model(rng: np.random.Generator, max_nodes: int = 12,
                           edge_prob: float = 0.5) -> GraphicalModel:
    """Random binary model already in zero form: only the (1,1) entries are
    nonzero, with mixed signs."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = _random_edges(rng, n, edge_prob)
    tables = [np.array([[0.0, 0.0], [0.0, rng.uniform(-2.0, 2.0)]]) for _ in edges]
    return GraphicalModel(
        labels_per_node=(2,) * n,
        unary=[rng.uniform(-1.0, 1.0, size=2) for _ in range(n)],
        edges=tuple(edges),
        pairwise=tables,
        pairwise_weight=1.0,
    )


# ---------------------------------------------------------------------------
# randomized verification suites

@dataclass
class SuiteReport:
    name: str
    trials: int
    passes: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passes == self.trials

    def summary(self) -> str:
        state = "PASS" if self.ok else "FAIL"
        return f"{state} {self.name}: {self.passes}/{self.trials} trials"


def verify_trws_bounds(trials: int = 100, tree_trials: int | None = None,
                       seed: int = 0, tolerance: float = 1e-9) -> SuiteReport:
    """Bound sandwich on random sparse models and on half as many
    hard-constraint models, plus exactness on trees.

    Both samplers always leave a finite optimum, so the rounded labeling
    must have finite energy too.
    """
    from .trws import TrwsConfig, solve_trws

    if tree_trials is None:
        tree_trials = max(1, trials // 2)
    hard_trials = max(1, trials // 2)
    report = SuiteReport("trws-bounds", trials + tree_trials + hard_trials, 0)

    def sandwich(kind, t, m):
        res = solve_trws(m, TrwsConfig(iterations=10))
        opt = brute_force(m).optimal_energy
        rounded = evaluate_energy(m, res.labeling)
        hist = np.asarray(res.bound_history)
        problems = []
        if not np.all(np.diff(hist) >= -tolerance):
            problems.append("bound history decreased")
        if not res.lower_bound <= opt + tolerance:
            problems.append(f"bound {res.lower_bound} above optimum {opt}")
        if not opt <= rounded + tolerance:
            problems.append("optimum above rounded energy")
        if not np.isfinite(rounded):
            problems.append("infinite rounded energy")
        if problems:
            report.failures.append(f"{kind} trial {t}: " + "; ".join(problems))
        else:
            report.passes += 1

    for t, rng in enumerate(_spawn(seed, trials)):
        sandwich("sparse", t, sample_sparse_model(rng, max_nodes=10, max_labels=4))
    for t, rng in enumerate(_spawn(seed + 1, tree_trials)):
        m = sample_tree_model(rng, max_nodes=8, max_labels=4)
        res = solve_trws(m, TrwsConfig(iterations=50))
        opt = brute_force(m).optimal_energy
        if abs(res.lower_bound - opt) <= tolerance:
            report.passes += 1
        else:
            report.failures.append(
                f"tree trial {t}: gap {abs(res.lower_bound - opt):.3e}")
    for t, rng in enumerate(_spawn(seed + 2, hard_trials)):
        sandwich("hard", t, sample_hard_model(rng))
    return report


def verify_qpbo_persistency(trials: int = 500, max_nodes: int = 14,
                            seed: int = 0) -> SuiteReport:
    """Every labeled node of the QPBO output agrees with some exact optimum."""
    from .qpbo import qpbo

    report = SuiteReport("qpbo-persistency", trials, 0)
    for t, rng in enumerate(_spawn(seed, trials)):
        m = sample_binary_model(rng, max_nodes=max_nodes)
        partial = qpbo(m)
        if check_persistency(m, partial):
            report.passes += 1
        else:
            report.failures.append(f"trial {t}: labeled nodes match no optimum")
    return report


def verify_zero_form(trials: int = 100, max_nodes: int = 8, seed: int = 0,
                     tolerance: float = 1e-12) -> SuiteReport:
    """Energies of all labelings preserved by the zero-form transform."""
    from .submodels import to_zero_form

    report = SuiteReport("zero-form", trials, 0)
    for t, rng in enumerate(_spawn(seed, trials)):
        m = sample_binary_model(rng, max_nodes=max_nodes)
        z, _ = to_zero_form(m)
        worst = 0.0
        for start in range(0, 2 ** m.node_count, _CHUNK):
            block = _labeling_block(m, start, min(start + _CHUNK, 2 ** m.node_count))
            for row in block:
                worst = max(worst, abs(evaluate_energy(m, row) - evaluate_energy(z, row)))
        if worst <= tolerance:
            report.passes += 1
        else:
            report.failures.append(f"trial {t}: worst gap {worst:.3e}")
    return report


def verify_kabsch(trials: int = 1000, points: int = 10, seed: int = 0,
                  tolerance: float = 1e-9) -> SuiteReport:
    """Random rigid transforms recovered from noise-free correspondences."""
    from .posefit import kabsch, random_rotation

    report = SuiteReport("kabsch", trials, 0)
    for t, rng in enumerate(_spawn(seed, trials)):
        rot = random_rotation(rng)
        trans = rng.uniform(-2.0, 2.0, 3)
        obj = rng.uniform(-1.0, 1.0, (points, 3))
        scn = obj @ rot.T + trans
        pose = kabsch(list(zip(obj, scn)))
        rot_err = float(np.linalg.norm(pose.rotation - rot))
        trans_err = float(np.linalg.norm(pose.translation - trans))
        if rot_err < tolerance and trans_err < tolerance:
            report.passes += 1
        else:
            report.failures.append(
                f"trial {t}: rotation error {rot_err:.3e}, translation error {trans_err:.3e}")
    return report


def verify_prop1(trials: int = 200, max_nodes: int = 12, seed: int = 0,
                 tolerance: float = 1e-12) -> SuiteReport:
    """Decomposition guarantee, run as an executable proof trace.

    Per trial: sample a zero-form binary model, find an exact optimum, take a
    random node superset of its support, solve the induced submodel exactly,
    extend with zeros, and require the extension to attain the master's
    optimal energy.
    """
    report = SuiteReport("prop1", trials, 0)
    for t, rng in enumerate(_spawn(seed, trials)):
        master = sample_zero_form_model(rng, max_nodes=max_nodes)
        master_opt = brute_force(master)
        l_hat = master_opt.optima[0]
        support = [u for u, l in enumerate(l_hat) if l == 1]
        keep = set(support)
        for u in range(master.node_count):
            if u not in keep and rng.random() < 0.5:
                keep.add(u)
        if not keep:
            keep.add(0)
        sub, node_map = induce_submodel(master, keep)
        sub_opt = brute_force(sub)
        extended = extend_partial(master.node_count,
                                  PartialLabeling.from_labeling(sub_opt.optima[0]),
                                  node_map, fill=0)
        energy = evaluate_energy(master, extended.to_labeling())
        gap = abs(energy - master_opt.optimal_energy)
        if gap <= tolerance:
            report.passes += 1
        else:
            report.failures.append(f"trial {t}: gap {gap:.3e}")
    return report


#: suites runnable from the command line
VERIFY_SUITES = {
    "trws-bounds": verify_trws_bounds,
    "qpbo-persistency": verify_qpbo_persistency,
    "prop1": verify_prop1,
    "zero-form": verify_zero_form,
    "kabsch": verify_kabsch,
}
