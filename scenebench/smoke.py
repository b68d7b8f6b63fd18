"""Smoke test of the benchmark's tracing on a small grid.

    python3 scenebench/smoke.py

Solves one 20x15 scene per submodel scheme twice under the tracer and
checks that every deterministic counter repeats exactly, that every
reported span records calls and little time escapes the wrapped stages
(``run.trace_problems``), that tracing leaves the canonical report
unchanged, and that every wrapped name is restored afterwards.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import sys
import tempfile

from run import ROOT, import_crfpose, scene_counts, solve, trace_problems
from tracing import Tracer, call_sites


def wrapped_names():
    """Current object behind every traced name, to check restoration."""
    return {(owner, attr): getattr(owner, attr) for owner, attr in call_sites()}


def traced_solve(path, cfg):
    tracer = Tracer()
    with tracer.installed():
        _, _, text, caught = solve(path, cfg)
    tracer.finish(caught)
    return tracer, text


def main() -> int:
    crfpose = import_crfpose()
    before = wrapped_names()
    failures = []
    with tempfile.TemporaryDirectory(prefix=".scenebench-", dir=ROOT) as tmp:
        path = f"{tmp}/scene.json"
        crfpose.save_scene(crfpose.generate_bundle(crfpose.default_scenario(
            seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
            visible_fraction=0.8, coord_noise_sigma=1e-4)), path)
        for scheme in ("components", "per-node"):
            cfg = crfpose.desk_scale_config(scheme=scheme)
            _, _, plain, _ = solve(path, cfg)
            (t1, text1), (t2, text2) = traced_solve(path, cfg), traced_solve(path, cfg)
            c1, c2 = scene_counts(t1), scene_counts(t2)
            if c1 != c2:
                diff = {k: (c1.get(k), c2.get(k)) for k in c1.keys() | c2.keys()
                        if c1.get(k) != c2.get(k)}
                failures.append(f"{scheme}: counters differ between traced runs: {diff}")
            if not text1 == text2 == plain:
                failures.append(f"{scheme}: tracing changed the canonical report")
            for tracer in (t1, t2):
                failures += [f"{scheme}: {problem}" for problem in trace_problems(tracer)]
            print(f"{scheme}: {len(c1)} counters repeat, e.g. lazy tables "
                  f"{c1['model.edge_table.lazy_calls']}, max-flow calls "
                  f"{c1['maxflow.max_flow.calls']}, gap {c1.get('trws.gap')}")
    after = wrapped_names()
    moved = [attr for (owner, attr), obj in before.items() if after[(owner, attr)] is not obj]
    if moved:
        failures.append(f"wrappers not restored: {moved}")
    for failure in failures:
        print("FAILED: " + failure, file=sys.stderr)
    if not failures:
        print("smoke ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
