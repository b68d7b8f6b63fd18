"""Scene-solve benchmark for crfpose.

    python3 scenebench/run.py --workload desk-components --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the crfpose package is imported from
``src/`` next to this directory, never from anywhere else.  Workloads, the
scenario and the closed-loop shape are defined in ``workloads.json``.

A run generates its scene pool from ``--seed``, writes the scene files into
a temporary directory inside the checkout (removed on exit), then solves the
pool in a closed loop through the public API.  Every report is gated:
status ``ok``, a correct pose, no geometric violations, no exception, and a
canonical report byte-identical to the scene's first solve.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` solves each
scene untraced and then traced (see ``tracing.py``), and prints the
per-layer metrics; span times are medians over traced solves, counts and
fractions are per scene over the pool's first pass and repeat exactly for a
given seed.  A traced run fails itself if a reported span records no calls
or if ``pipeline.solve_scene`` has more untraced residual than
``RESIDUAL_LIMIT``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from time import perf_counter

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: spans reported as total seconds per scene (``<span>.s``)
SPAN_SECONDS = (
    "synth.load_scene", "posemodel.build_sparse_neighborhood",
    "posemodel.build_stage_two_master", "model.induce_submodel",
    "trws.solve_trws", "submodels.to_zero_form", "qpbo.qpbo",
    "qpbo.count_infinite_pairs", "maxflow.max_flow",
    "posefit.cluster_hypotheses", "posefit.icp_refine",
    "pipeline.solve_scene", "pipeline.canonical_report",
)
#: spans reported as self seconds per scene (``<span>.self_s``)
SPAN_SELF_SECONDS = (
    "posemodel.build_stage_one_model", "trws.solve_trws",
    "submodels.solve_decomposed", "qpbo.qpbo", "pipeline.solve_scene",
)
#: spans reported as calls per scene (``<span>.calls``)
SPAN_CALLS = (
    "model.induce_submodel", "qpbo.qpbo", "maxflow.max_flow",
    "posefit.icp_refine", "posefit.kabsch",
)
#: counters reported as their per-scene mean
COUNTERS = (
    "posemodel.stage_one_edges", "posemodel.master_nodes",
    "posemodel.master_edges", "trws.gap", "trws.plateau_iteration",
    "trws.inliers", "submodels.specs", "maxflow.arcs",
    "posefit.icp_iterations", "pipeline.warnings",
)
#: fractions: metric -> (numerator counter, denominator counter)
FRACTIONS = {
    "submodels.distinct_node_set_frac": ("submodels.distinct_node_sets", "submodels.specs"),
    "qpbo.labeled_frac": ("qpbo.labeled", "qpbo.nodes"),
    "posefit.distinct_hypothesis_frac": ("posefit.distinct_hypotheses", "posefit.hypotheses"),
}
#: spans that must record calls in every traced scene of every workload
REQUIRED_SPANS = tuple(sorted({*SPAN_SECONDS, *SPAN_SELF_SECONDS, *SPAN_CALLS,
                               "model.edge_table"}))
#: largest share of ``pipeline.solve_scene`` that no wrapped stage may cover
RESIDUAL_LIMIT = 0.05


def solve(path, cfg):
    """One closed-loop step: (seconds, report, canonical text, warnings).

    The entry points are looked up on their modules at every call, so a
    traced solve goes through the wrappers ``tracing.Tracer`` installs."""
    synth, pipeline = sys.modules["crfpose.synth"], sys.modules["crfpose.pipeline"]
    start = perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle = synth.load_scene(path)
        report = pipeline.solve_scene(bundle, cfg)
        text = pipeline.canonical_report(report)
    return perf_counter() - start, report, text, len(caught)


def import_crfpose():
    """Import crfpose from this checkout's ``src/``; raise ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    import crfpose
    if Path(crfpose.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"crfpose was found at {crfpose.__file__}, not under {SRC}")
    return crfpose


def gate_failure(report) -> str | None:
    """Why a scene report fails the correctness gate, or None if it passes."""
    if report["status"] != "ok":
        return f"status {report['status']}"
    if not report.get("evaluation", {}).get("correct"):
        return "incorrect pose"
    if report["geometric_violations"]:
        return f"{report['geometric_violations']} geometric violations"
    return None


def closed_loop(pool_size, seconds, step) -> float:
    """Call ``step(k, repeat)`` for pool scenes 0, 1, ... cycled; returns the
    loop's wall time.  The first pass always completes; a later step starts
    only while the median step so far would still end within ``seconds``."""
    start = perf_counter()
    deadline = start + seconds
    took = []
    i = 0
    while i < pool_size or perf_counter() + statistics.median(took) <= deadline:
        t = perf_counter()
        step(i % pool_size, i >= pool_size)
        took.append(perf_counter() - t)
        i += 1
    return perf_counter() - start


class Checker:
    """Gates every solve and remembers each scene's first canonical report.

    ``scene_seeds[k]`` is the ``default_scenario`` seed of pool scene ``k``;
    a failure names it, so the scene can be regenerated and solved alone."""

    def __init__(self, scene_seeds):
        self.scene_seeds = scene_seeds
        self.first = [None] * len(scene_seeds)
        self.attempted = 0
        self.failed = 0
        self.errors = []  # run-level problems that are not a failed scene

    def check(self, k, path, cfg):
        """Solve scene ``k``; returns (seconds, report or None, warnings)."""
        self.attempted += 1
        try:
            seconds, report, text, caught = solve(path, cfg)
            reason = gate_failure(report)
        except Exception as exc:  # noqa: BLE001 - a raising scene is a counted failure
            traceback.print_exc()
            self._fail(k, f"raised {type(exc).__name__}: {exc}")
            return None, None, 0
        if reason is None and self.first[k] is None:
            self.first[k] = text
        elif reason is None and text != self.first[k]:
            reason = "canonical report differs from the scene's first solve"
        if reason is not None:
            self._fail(k, reason)
            return seconds, None, caught
        return seconds, report, caught

    def _fail(self, k, reason):
        self.failed += 1
        print(f"scene {k} (scenario seed {self.scene_seeds[k]}): FAILED: {reason}",
              file=sys.stderr)

    def error(self, message):
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def digest(self) -> str:
        """sha256 of the first-pass canonical reports in scene order."""
        h = hashlib.sha256()
        for text in self.first:
            h.update((text or "<failed>\n").encode())
        return h.hexdigest()


def scene_seeds(spec, seed) -> list[int]:
    """``default_scenario`` seeds of a run's pool, in scene order."""
    return [1000 * seed + k for k in range(spec["pool"])]


def make_pool(crfpose, spec, scenario, seed, workdir):
    paths = []
    for k, scene_seed in enumerate(scene_seeds(spec, seed)):
        sc = crfpose.default_scenario(seed=scene_seed,
                                      grid_width=spec["grid_width"],
                                      grid_height=spec["grid_height"], **scenario)
        path = workdir / f"scene-{k}.json"
        crfpose.save_scene(crfpose.generate_bundle(sc), path)
        paths.append(path)
    return paths


def plain_run(paths, cfg, seconds, checker):
    latencies = []

    def step(k, repeat):
        took, _, _ = checker.check(k, paths[k], cfg)
        if took is not None:
            latencies.append(took)

    loop_s = closed_loop(len(paths), seconds, step)
    passed = checker.attempted - checker.failed
    n = len(latencies)
    p50 = statistics.median(latencies) if latencies else float("nan")
    print(f"closed loop, 1 client: {checker.attempted} scenes "
          f"({len(paths)} distinct) in {loop_s:.2f} s")
    print(f"scene latency p50 {p50:.4f} s over n={n} "
          + (f"(p90 {statistics.quantiles(latencies, n=10)[-1]:.4f} s)" if n >= 100
             else "(no tail percentile: fewer than 10 samples beyond p90)"))
    print(f"failed_frac {checker.failed}/{checker.attempted}")
    return {
        "scene_latency_p50_s": (p50, "s"),
        "scenes_per_s": (passed / loop_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_frac": (passed / checker.attempted, "fraction"),
    }


def scene_seconds(tracer) -> dict:
    """Span-time metrics of one traced scene."""
    values = {f"{s}.s": tracer.seconds(s) for s in SPAN_SECONDS}
    values.update({f"{s}.self_s": tracer.self_seconds(s) for s in SPAN_SELF_SECONDS})
    values["model.edge_table.lazy_s"] = tracer.seconds("model.edge_table")
    return values


def scene_counts(tracer) -> dict:
    """Deterministic counters and call counts of one traced scene."""
    values = dict(tracer.counters)
    values.update({f"{s}.calls": tracer.calls(s) for s in SPAN_CALLS})
    values["model.edge_table.lazy_calls"] = tracer.calls("model.edge_table")
    return values


def trace_problems(tracer) -> list[str]:
    """Why a traced scene's per-layer figures cannot be trusted, if they cannot.

    Every reported span runs on every workload, so one with no calls means
    its call site moved and its figures would read 0.  A residual above
    ``RESIDUAL_LIMIT`` of ``pipeline.solve_scene`` means a stage runs that
    no wrapper covers."""
    problems = [f"span {name} recorded no calls" for name in REQUIRED_SPANS
                if not tracer.calls(name)]
    total = tracer.seconds("pipeline.solve_scene")
    residual = tracer.self_seconds("pipeline.solve_scene")
    if total and residual > RESIDUAL_LIMIT * total:
        problems.append(f"pipeline.solve_scene.self_s is {residual / total:.1%} of the "
                        f"span, above {RESIDUAL_LIMIT:.0%}: a stage is not traced")
    return problems


def traced_run(paths, cfg, seconds, checker):
    """Each closed-loop step solves its scene untraced, then traced; the
    tracing overhead is the traced p50 minus the untraced p50."""
    plain_s, traced_s, scene_metrics = [], [], []
    first_pass = [None] * len(paths)

    def step(k, repeat):
        plain, _, _ = checker.check(k, paths[k], cfg)
        if plain is not None:
            plain_s.append(plain)
        tracer = Tracer()
        with tracer.installed():
            took, report, caught = checker.check(k, paths[k], cfg)
        if report is None:
            return
        tracer.finish(caught)
        for problem in trace_problems(tracer):
            checker.error(f"scene {k}: {problem}")
        traced_s.append(took)
        scene_metrics.append(scene_seconds(tracer))
        if not repeat:
            first_pass[k] = scene_counts(tracer)

    loop_s = closed_loop(len(paths), seconds, step)
    print(f"closed loop, 1 client, every scene untraced then traced: "
          f"{checker.attempted} solves ({len(paths)} distinct) in {loop_s:.2f} s")
    if not checker.correct:
        return {}

    metrics = {name: (statistics.median(m[name] for m in scene_metrics), "s")
               for name in scene_metrics[0]}
    totals = {}
    for counters in first_pass:
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value
    for name in (*COUNTERS, *(f"{s}.calls" for s in SPAN_CALLS),
                 "model.edge_table.lazy_calls"):
        unit = {"trws.gap": "energy", "trws.plateau_iteration": "iteration"}.get(name, "count")
        metrics[name] = (totals.get(name, 0) / len(paths), unit)
    for name, (num, den) in FRACTIONS.items():
        metrics[name] = (totals.get(num, 0) / totals[den] if totals.get(den) else 0.0,
                         "fraction")
    traced_p50, plain_p50 = statistics.median(traced_s), statistics.median(plain_s)
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    print(f"tracing overhead: traced p50 {traced_p50:.4f} s minus untraced p50 "
          f"{plain_p50:.4f} s = {traced_p50 - plain_p50:+.4f} s "
          f"(ratio {traced_p50 / plain_p50:.3f}, n={len(traced_s)} alternating pairs)")
    shares = {name: round(value / traced_p50, 3) for name, (value, unit) in metrics.items()
              if unit == "s" and name != "trace.overhead_s"}
    print("share of the traced scene time: " + json.dumps(shares, sort_keys=True))
    return metrics


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, spec["workloads"])
    workload = spec["workloads"][args.workload]
    scenario = {k: v for k, v in spec["scenario"].items() if k not in ("object", "config")}

    start = perf_counter()
    try:
        crfpose = import_crfpose()
    except ImportError as exc:
        print(f"error: cannot import crfpose from {SRC}: {exc}", file=sys.stderr)
        return 1
    import_s = perf_counter() - start
    cfg = crfpose.desk_scale_config(scheme=workload["scheme"])

    workdir = Path(tempfile.mkdtemp(prefix=".scenebench-", dir=ROOT))
    try:
        start = perf_counter()
        paths = make_pool(crfpose, workload, scenario, args.seed, workdir)
        pool_s = perf_counter() - start
        setup_s = import_s + pool_s
        print(f"workload {args.workload}, seed {args.seed}: setup {setup_s:.3f} s "
              f"(import {import_s:.3f} s + pool build {pool_s:.3f} s, {len(paths)} scenes)")
        checker = Checker(scene_seeds(workload, args.seed))
        if args.trace:
            metrics = traced_run(paths, cfg, args.seconds, checker)
        else:
            metrics = plain_run(paths, cfg, args.seconds, checker)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:  # left out, so the result line stays strict JSON
        checker.error(f"non-finite metrics: {', '.join(bad)}")
        metrics = {name: metrics[name] for name in metrics if name not in bad}
    print(f"report digest sha256 {checker.digest()} over {len(paths)} canonical reports")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
