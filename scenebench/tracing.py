"""Per-layer tracing of crfpose from outside the package.

``Tracer.installed()`` replaces crfpose functions at the names their callers
look them up under with wrappers that record spans and counters, and puts
the originals back on exit.  Spans are aggregated per name as they close:
call count, total seconds and self seconds (total minus the part covered by
direct child spans).  One ``Tracer`` records one scene.

Counters are computed from the arguments and results of the wrapped calls,
outside every span; the TRW-S gap is computed only in ``finish()``, after
the traced solve, so that its energy evaluation is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: stage functions ``crfpose.pipeline`` imports and calls by module-global name
PIPELINE_STAGES = (
    "build_stage_one_model", "solve_trws", "extract_inliers",
    "connected_components", "filter_components", "build_stage_two_master",
    "enumerate_submodels", "per_node_submodels", "to_zero_form",
    "solve_decomposed", "count_infinite_pairs", "cluster_hypotheses",
    "icp_refine", "select_best", "pose_correct",
)

#: (module, attribute) call sites wrapped besides the pipeline stages; the
#: first three are the calls the benchmark itself makes per scene
CALL_SITES = (
    ("crfpose.synth", "load_scene"),
    ("crfpose.pipeline", "solve_scene"),
    ("crfpose.pipeline", "canonical_report"),
    ("crfpose.posemodel", "build_sparse_neighborhood"),
    ("crfpose.submodels", "induce_submodel"),
    ("crfpose.submodels", "qpbo"),
    # crfpose/__init__.py re-exports the qpbo *function* as crfpose.qpbo, so
    # the module is only reachable through sys.modules / importlib
    ("crfpose.qpbo", "max_flow"),
    ("crfpose.posefit", "kabsch"),
)


def call_sites():
    """(owner, attribute) of every wrapped name; raises AttributeError if
    crfpose no longer has one, so a renamed stage cannot read as 0 s."""
    pipeline = importlib.import_module("crfpose.pipeline")
    sites = [(pipeline, attr) for attr in PIPELINE_STAGES]
    sites += [(importlib.import_module(m), attr) for m, attr in CALL_SITES]
    sites.append((importlib.import_module("crfpose.model").GraphicalModel, "edge_table"))
    for owner, attr in sites:
        getattr(owner, attr)
    return sites


def span_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``trws.solve_trws``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span and counter recorder for one traced scene."""

    def __init__(self):
        self._stack = []  # open frames: [name, start, child seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, s, self s]
        self.counters = defaultdict(float)
        self._trws = []  # (stage-one model, TrwsResult), for the gap in finish()

    def _enter(self, name):
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()

    def _exit(self):
        end = perf_counter()
        name, start, child = self._stack.pop()
        took = end - start
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += took
        agg[2] += took - child
        if self._stack:
            self._stack[-1][2] += took

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def _wrap_edge_table(self, fn):
        # only the lazy path (table not yet built) is a span
        @functools.wraps(fn)
        def edge_table(model, e):
            if model.pairwise[e] is not None:
                return fn(model, e)
            self._enter("model.edge_table")
            try:
                return fn(model, e)
            finally:
                self._exit()
        return edge_table

    @contextmanager
    def installed(self):
        """Wrap every traced call site; restore the originals on exit."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        try:
            for owner, attr in call_sites():
                fn = getattr(owner, attr)
                if attr == "edge_table":
                    patch(owner, attr, self._wrap_edge_table(fn))
                else:
                    patch(owner, attr, self._wrap(fn, span_name(fn), _AFTER.get(attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def finish(self, warnings_caught: int) -> None:
        """Derive the counters that need work outside every span."""
        self.counters["pipeline.warnings"] += warnings_caught
        evaluate_energy = importlib.import_module("crfpose.model").evaluate_energy
        for model, result in self._trws:
            energy = evaluate_energy(model, result.labeling)
            self.counters["trws.gap"] += energy - result.lower_bound
        self._trws.clear()

    def seconds(self, name) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_seconds(self, name) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def calls(self, name) -> int:
        return self.spans[name][0] if name in self.spans else 0


def plateau_iteration(bound_history, tol=1e-9) -> int:
    """First 1-based iteration whose bound gain over the previous is < tol."""
    for i in range(1, len(bound_history)):
        if bound_history[i] - bound_history[i - 1] < tol:
            return i + 1
    return len(bound_history)


def _after_solve_trws(tracer, args, result):
    tracer._trws.append((args[0], result))
    tracer.counters["trws.plateau_iteration"] += plateau_iteration(result.bound_history)


def _after_neighborhood(tracer, args, result):
    tracer.counters["posemodel.stage_one_edges"] += len(result)


def _after_master(tracer, args, result):
    tracer.counters["posemodel.master_nodes"] += result.node_count
    tracer.counters["posemodel.master_edges"] += result.edge_count


def _after_extract_inliers(tracer, args, result):
    tracer.counters["trws.inliers"] += len(result)


def _after_solve_decomposed(tracer, args, result):
    specs = list(args[1])
    tracer.counters["submodels.specs"] += len(specs)
    tracer.counters["submodels.distinct_node_sets"] += len({frozenset(s.node_set) for s in specs})


def _after_qpbo(tracer, args, result):
    tracer.counters["qpbo.labeled"] += result.labeled_count()
    tracer.counters["qpbo.nodes"] += len(result.assignment)


def _after_max_flow(tracer, args, result):
    tracer.counters["maxflow.arcs"] += len(args[0].arcs)


def _after_cluster(tracer, args, result):
    keys = {b"".join(y.tobytes() + x.tobytes() for y, x in h.correspondences)
            for h in result}
    tracer.counters["posefit.hypotheses"] += len(result)
    tracer.counters["posefit.distinct_hypotheses"] += len(keys)


def _after_icp(tracer, args, result):
    tracer.counters["posefit.icp_iterations"] += len(result.score_history) - 1


_AFTER = {
    "solve_trws": _after_solve_trws,
    "build_sparse_neighborhood": _after_neighborhood,
    "build_stage_two_master": _after_master,
    "extract_inliers": _after_extract_inliers,
    "solve_decomposed": _after_solve_decomposed,
    "qpbo": _after_qpbo,
    "max_flow": _after_max_flow,
    "cluster_hypotheses": _after_cluster,
    "icp_refine": _after_icp,
}
