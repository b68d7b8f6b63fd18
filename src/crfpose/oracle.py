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
                    UNLABELED, block_energies, evaluate_energy, extend_partial,
                    induce_submodel)

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


@dataclass
class OracleResult:
    optimal_energy: float
    optima: list[tuple[int, ...]]
    truncated: bool = False
    cap: int = 1024


def brute_force(model: GraphicalModel, cap: int = 1024) -> OracleResult:
    """Exhaustive exact minimization; optima listed lexicographically up to ``cap``."""
    total = _guard(model)
    best = INF
    optima: list[tuple[int, ...]] = []
    truncated = False
    for start in range(0, total, _CHUNK):
        block = _labeling_block(model, start, min(start + _CHUNK, total))
        energies = block_energies(model, block)
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
    """True iff some exact optimum agrees with every labeled node of ``partial``,
    that is iff the labelings that agree with it reach the global minimum."""
    if len(partial) != model.node_count:
        raise ContractViolation("partial labeling size mismatch")
    total = _guard(model)
    assignment = np.array(partial.assignment, dtype=np.int64)
    labeled = np.flatnonzero(assignment != UNLABELED)
    best = agreeing = INF
    agrees_anywhere = False
    for start in range(0, total, _CHUNK):
        block = _labeling_block(model, start, min(start + _CHUNK, total))
        energies = block_energies(model, block)
        best = min(best, float(energies.min()))
        agree = (block[:, labeled] == assignment[labeled]).all(axis=1)
        if agree.any():
            agrees_anywhere = True
            agreeing = min(agreeing, float(energies[agree].min()))
    return agrees_anywhere and agreeing == best


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


def sample_tiny_scene(rng: np.random.Generator):
    """Random stage-one input small enough to enumerate: a 2..4 x 2 grid,
    0..3 candidates per node, and (HyperParams, keep, skip).

    About half the candidates sit near the node's camera point shifted by
    one hidden translation, at noise from 1e-4 to 1e-1, and the rest
    anywhere in the object's box; the grid spacing puts some edges beyond
    the unit diameter.  β is 0 in a fifth of the scenes and γ in another
    fifth.
    """
    from .posemodel import MAX_CANDIDATES, HyperParams, SceneObservation

    width, height = int(rng.integers(2, 5)), 2
    n = width * height
    rows, cols = np.divmod(np.arange(n), width)
    points = np.stack([cols, rows, np.zeros(n)], axis=1) * rng.uniform(0.2, 0.7) \
        + rng.uniform(0.0, 0.3, (n, 3))
    shift = rng.uniform(-1.0, 1.0, 3)
    count = rng.integers(0, 4, n)
    true = rng.random((n, MAX_CANDIDATES)) < 0.5
    noise = 10.0 ** rng.uniform(-4, -1)
    coords = np.where(true[:, :, None],
                      points[:, None, :] - shift + rng.normal(0.0, noise, (n, MAX_CANDIDATES, 3)),
                      rng.uniform(-0.5, 0.5, (n, MAX_CANDIDATES, 3)))
    scene = SceneObservation(
        grid_width=width, grid_height=height, object_diameter=1.0, points=points,
        candidate_count=count, coords=coords,
        confidence=np.where(true, rng.uniform(0.8, 1.0, (n, MAX_CANDIDATES)),
                            rng.uniform(0.0, 1.0, (n, MAX_CANDIDATES))),
        source_pixel=np.zeros((n, MAX_CANDIDATES), np.int64),
        source_tree=np.zeros((n, MAX_CANDIDATES), np.int64))
    kind = rng.random()
    hp = HyperParams(alpha=float(rng.uniform(0.05, 1.0)),
                     beta=0.0 if kind < 0.2 else float(rng.uniform(0.5, 30.0)),
                     gamma=0.0 if 0.2 <= kind < 0.4 else float(10.0 ** rng.uniform(-4, -1.5)))
    return scene, hp, int(rng.integers(1, n)), int(rng.integers(0, 2))


def stage_one_energy(scene, hp, keep: int, skip: int) -> GraphicalModel:
    """The unreduced stage-one energy with every table built up front from
    ``pairwise_cost``: the reference for ``build_stage_one_model``."""
    from .posemodel import MAX_CANDIDATES, build_sparse_neighborhood, pairwise_cost

    count = scene.candidate_count.tolist()
    unary = [np.append((1.0 - scene.confidence[u, :k]) * hp.alpha,
                       scene.confidence[u, :k].sum() * hp.alpha / MAX_CANDIDATES)
             for u, k in enumerate(count)]
    edges = build_sparse_neighborhood(scene.grid_width, scene.grid_height, keep=keep, skip=skip)
    tables = []
    for u, v in edges.tolist():
        ku, kv = count[u], count[v]
        table = np.full((ku + 1, kv + 1), hp.gamma)
        table[ku, kv] = 0.0
        cost = pairwise_cost(np.concatenate([scene.coords[u, :ku], scene.coords[v, :kv]]),
                             np.repeat(scene.points[[u, v]], [ku, kv], axis=0),
                             scene.object_diameter)
        table[:ku, :kv] = cost[:ku, ku:]
        tables.append(table)
    return GraphicalModel(labels_per_node=[k + 1 for k in count], unary=unary,
                          edges=edges, pairwise=tables, pairwise_weight=hp.beta)


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
    must have finite energy too.  Every run's ``gap`` must be its rounded
    energy minus its bound, and a run that stopped before its iteration cap
    must hold bound <= optimum <= rounded energy, the rounded labeling
    optimal to within ``tolerance`` relative to its energy.
    """
    from .trws import TrwsConfig, solve_trws

    if tree_trials is None:
        tree_trials = max(1, trials // 2)
    hard_trials = max(1, trials // 2)
    report = SuiteReport("trws-bounds", trials + tree_trials + hard_trials, 0)

    def certificate(res, rounded, opt, cap):
        scale = tolerance * max(1.0, abs(rounded))
        expected = rounded - res.lower_bound if rounded < INF else INF
        problems = []
        if not (res.gap == expected or abs(res.gap - expected) <= scale):
            problems.append(f"gap {res.gap} is not rounded energy - bound {expected}")
        if len(res.bound_history) < cap and not (
                res.lower_bound <= opt + tolerance and opt <= rounded + tolerance
                and rounded - opt <= scale):
            problems.append(f"stopped after {len(res.bound_history)} iterations with "
                            f"bound {res.lower_bound}, optimum {opt}, rounded {rounded}")
        return problems

    def sandwich(kind, t, m):
        res = solve_trws(m, TrwsConfig(iterations=10))
        opt = brute_force(m).optimal_energy
        rounded = evaluate_energy(m, res.labeling)
        hist = np.asarray(res.bound_history)
        problems = certificate(res, rounded, opt, 10)
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
        problems = certificate(res, evaluate_energy(m, res.labeling), opt, 50)
        if abs(res.lower_bound - opt) > tolerance:
            problems.append(f"gap {abs(res.lower_bound - opt):.3e}")
        if problems:
            report.failures.append(f"tree trial {t}: " + "; ".join(problems))
        else:
            report.passes += 1
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
            gap = block_energies(m, block) - block_energies(z, block)
            worst = max(worst, float(np.abs(gap).max()))
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
        extended = extend_partial(master.node_count, PartialLabeling(sub_opt.optima[0]),
                                  node_map, fill=0)
        energy = evaluate_energy(master, extended.assignment)
        gap = abs(energy - master_opt.optimal_energy)
        if gap <= tolerance:
            report.passes += 1
        else:
            report.failures.append(f"trial {t}: gap {gap:.3e}")
    return report


def verify_elimination(trials: int = 400, seed: int = 0,
                       tolerance: float = 1e-9) -> SuiteReport:
    """Stage-one elimination against brute force on tiny random scenes.

    The reduced model must keep every node's labels, no optimum of the
    unreduced energy (``stage_one_energy``) may use a label the reduced
    model eliminated, and the reduced model's optimum must be an optimum of
    the unreduced energy, both energies equal to within ``tolerance``
    relative.
    """
    from .posemodel import build_stage_one_model

    report = SuiteReport("elimination", trials, 0)
    for t, rng in enumerate(_spawn(seed, trials)):
        scene, hp, keep, skip = sample_tiny_scene(rng)
        full = stage_one_energy(scene, hp, keep, skip)
        reduced = build_stage_one_model(scene, hp, keep=keep, skip=skip)
        opt, reduced_opt = brute_force(full), brute_force(reduced)
        eliminated = np.isinf(reduced.unary) & np.isfinite(full.unary)
        scale = tolerance * max(1.0, abs(opt.optimal_energy))
        problems = []
        if reduced.labels_per_node != full.labels_per_node:
            problems.append("label counts differ")
        used = [l for l in opt.optima if eliminated[np.arange(len(l)), l].any()]
        if used:
            problems.append(f"optimum {used[0]} uses an eliminated label")
        energy = evaluate_energy(full, reduced_opt.optima[0])
        if not (abs(reduced_opt.optimal_energy - opt.optimal_energy) <= scale
                and abs(energy - opt.optimal_energy) <= scale):
            problems.append(f"reduced optimum {reduced_opt.optimal_energy} has energy "
                            f"{energy}, full optimum {opt.optimal_energy}")
        if problems:
            report.failures.append(f"trial {t}: " + "; ".join(problems))
        else:
            report.passes += 1
    return report


#: suites runnable from the command line
VERIFY_SUITES = {
    "trws-bounds": verify_trws_bounds,
    "elimination": verify_elimination,
    "qpbo-persistency": verify_qpbo_persistency,
    "prop1": verify_prop1,
    "zero-form": verify_zero_form,
    "kabsch": verify_kabsch,
}
