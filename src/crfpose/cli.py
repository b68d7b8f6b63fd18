"""Command-line front end: generate, solve, verify.

Exit codes: 0 success (a no-detection solve is success), 1 internal failure,
2 usage or input-parsing error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .model import ContractViolation
from .oracle import VERIFY_SUITES
from .pipeline import (SCHEMES, ConfigError, PipelineConfig, load_config, solve_scene,
                       summary_line, write_report)
from .synth import (SceneFormatError, generate_bundle, load_scene, load_scenario,
                    save_scene)

USAGE_ERROR = 2
INTERNAL_ERROR = 1


def _cmd_generate(args) -> int:
    scenario = load_scenario(args.config, seed_override=args.seed)
    bundle = generate_bundle(scenario)
    save_scene(bundle, args.out)
    print(f"wrote scene to {args.out} "
          f"(grid {scenario.grid_width}x{scenario.grid_height}, seed {scenario.rng_seed})")
    return 0


def _cmd_solve(args) -> int:
    bundle = load_scene(args.scene)
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.scheme:
        cfg = replace(cfg, scheme=args.scheme)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = solve_scene(bundle, cfg)
    write_report(report, args.out, canonical=args.canonical)
    print(summary_line(report))
    return 0


def _cmd_verify(args) -> int:
    suite = VERIFY_SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite '{args.suite}'; choose from "
              f"{', '.join(sorted(VERIFY_SUITES))}", file=sys.stderr)
        return USAGE_ERROR
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    report = suite(**kwargs)
    print(report.summary())
    for failure in report.failures[:20]:
        print("  " + failure)
    return 0 if report.ok else INTERNAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crfpose",
        description="Two-stage global pose hypothesis generation on synthetic scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scene file")
    g.add_argument("--config", required=True, help="scenario JSON file")
    g.add_argument("--out", required=True, help="output scene JSON path")
    g.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run the full pipeline on a scene file")
    s.add_argument("--scene", required=True, help="scene JSON file")
    s.add_argument("--config", default=None, help="pipeline config file")
    s.add_argument("--out", required=True, help="output report JSON path")
    s.add_argument("--scheme", choices=SCHEMES, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--canonical", action="store_true",
                   help="write the byte-stable canonical report (no timings)")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run a randomized verification suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        # an OSError with a file name failed on a path given on the command
        # line or in a scenario; its message names the path
        usage = isinstance(exc, (SceneFormatError, ConfigError, ContractViolation)) \
            or isinstance(exc, OSError) and exc.filename is not None
        print(f"error: {exc}" if usage else f"internal error: {exc}", file=sys.stderr)
        return USAGE_ERROR if usage else INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
