"""End-to-end orchestration: scene in, two-stage solve, pose out, report.

Reports are plain dicts serialized as versioned JSON.  The canonical form
drops wall-clock timings and fixes key order, so identical inputs produce
byte-identical canonical reports.  Reports are strict JSON: a score of inf
(no association survived ICP's gate) and a stage-one gap of inf (the rounded
labeling has infinite energy) are written as ``null``, and any other
non-finite number is refused rather than written.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .model import INF
from .posefit import (IcpConfig, cluster_hypotheses, icp_refine,
                      pose_correct, select_best)
from .posemodel import (HyperParams, STAGE_ONE_DEFAULTS, STAGE_TWO_DEFAULTS,
                        build_stage_one_model, build_stage_two_master,
                        pairwise_distances)
from .qpbo import count_infinite_pairs
from .submodels import (connected_components, enumerate_submodels, filter_components,
                        per_node_submodels, solve_decomposed, to_zero_form)
from .synth import SceneBundle
from .trws import TrwsConfig, extract_inliers, solve_trws

REPORT_FORMAT = "crfpose-report"
REPORT_VERSION = 1

SCHEMES = ("components", "per-node")

#: transition penalty rescaled for desk-scale grids (32x24 nodes): the
#: boundary-to-area ratio of an object blob grows as the grid shrinks, so the
#: full-size-image gamma freezes stage one at all-outlier here
DESK_SCALE_STAGE_ONE = HyperParams(alpha=0.21, beta=23.1, gamma=1.2e-4)

#: a submodel count above this suggests a fragmented stage one
SUBMODEL_COUNT_WARN = 20


class ConfigError(ValueError):
    """A pipeline configuration document is malformed."""


@dataclass
class PipelineConfig:
    stage_one: HyperParams = STAGE_ONE_DEFAULTS
    stage_two: HyperParams = STAGE_TWO_DEFAULTS
    trws: TrwsConfig = field(default_factory=TrwsConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)
    scheme: str = "components"
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown submodel scheme '{self.scheme}'")


def desk_scale_config(**overrides) -> PipelineConfig:
    """Defaults adapted to the 32x24 synthetic grids used by the test scenes."""
    params = dict(stage_one=DESK_SCALE_STAGE_ONE)
    params.update(overrides)
    return PipelineConfig(**params)


#: config key -> (PipelineConfig field, its sub-field or None, value parser)
_CONFIG_KEYS = {
    **{f"{stage}.{name}": (stage, name, float)
       for stage in ("stage_one", "stage_two") for name in ("alpha", "beta", "gamma")},
    "trws.iterations": ("trws", "iterations", int),
    "icp.max_iterations": ("icp", "max_iterations", int),
    "icp.trim_fraction": ("icp", "trim_fraction", float),
    "icp.pose_change_tol": ("icp", "pose_change_tol", float),
    "icp.gate_distance": ("icp", "gate_distance", float),
    "submodels.scheme": ("scheme", None, str),
    "seed": ("seed", None, int),
}


def parse_config(text: str) -> PipelineConfig:
    """Flat ``key = value`` lines with dotted sections; '#' starts a comment.

    Each line replaces one field of ``PipelineConfig()``, whose dataclasses
    hold every default and refuse every bad value; an error names the line
    and the key.
    """
    cfg = PipelineConfig()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        name, sub, parse = _CONFIG_KEYS[key]
        try:
            value = parse(val)
            if sub is not None:
                value = replace(getattr(cfg, name), **{sub: value})
            cfg = replace(cfg, **{name: value})
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for '{key}': '{val}' ({exc})") from None
    return cfg


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _pose_dict(pose) -> dict:
    return {"rotation": [[float(x) for x in row] for row in pose.rotation],
            "translation": [float(x) for x in pose.translation]}


def solve_scene(bundle: SceneBundle, cfg: PipelineConfig | None = None) -> dict:
    """Run both stages plus pose fitting on one scene; returns the report."""
    cfg = cfg or PipelineConfig()
    scene = bundle.observation
    timings = {}

    t0 = time.perf_counter()
    stage_one = build_stage_one_model(scene, cfg.stage_one)
    trws_result = solve_trws(stage_one, cfg.trws)
    inliers = extract_inliers(stage_one, trws_result.labeling, scene.candidate_count)
    # eliminated labels are the only infinite unaries of a stage-one model
    alive = np.isfinite(stage_one.unary).sum(axis=1)
    timings["stage_one"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    components = filter_components(
        connected_components(inliers, scene.grid_width, scene.grid_height))
    results = []
    master_info = {"master_node_count": 0, "infinite_pairs": 0,
                   "component_count": len(components),
                   "component_sizes": [len(c) for c in components],
                   "submodel_count": 0, "labeled_counts": []}
    if inliers.size and components:
        # master node k is grid node inliers[k]
        master = build_stage_two_master(scene, cfg.stage_two, inliers, trws_result.labeling)
        grid_to_master = {g: k for k, g in enumerate(inliers.tolist())}
        if cfg.scheme == "components":
            specs = [replace(s, node_set=frozenset(grid_to_master[g] for g in s.node_set))
                     for s in enumerate_submodels(components, scene)]
        else:
            specs = per_node_submodels(scene.points[inliers], scene.object_diameter)
        specs = [s for s in specs if len(s.node_set) >= 3]
        zero_master, _ = to_zero_form(master)
        results = solve_decomposed(zero_master, specs)
        master_info.update(
            master_node_count=master.node_count,
            infinite_pairs=count_infinite_pairs(master),
            submodel_count=len(specs),
            labeled_counts=[p.labeled_count() for p, _ in results],
        )
        if len(specs) > SUBMODEL_COUNT_WARN:
            warnings.warn(f"{len(specs)} submodels (expected at most "
                          f"{SUBMODEL_COUNT_WARN}); stage one looks fragmented")
    timings["stage_two"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hypotheses = cluster_hypotheses(results, scene, inliers, trws_result.labeling)
    if bundle.object_points is None and hypotheses:
        raise ConfigError("scene file has no object_points; cannot refine or score")
    refined = [icp_refine(h, bundle.object_points, cfg.icp) for h in hypotheses]
    best = select_best(refined)
    timings["pose_fit"] = time.perf_counter() - t0

    violations = _geometric_violations(results, scene, inliers)

    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "status": "ok" if best is not None else "no-detection",
        "scene": {
            "grid_width": scene.grid_width,
            "grid_height": scene.grid_height,
            "object_diameter": float(scene.object_diameter),
        },
        "config": {
            "stage_one": asdict(cfg.stage_one),
            "stage_two": asdict(cfg.stage_two),
            "trws_iterations": cfg.trws.iterations,
            "scheme": cfg.scheme,
            "seed": cfg.seed,
        },
        "stage_one": {
            "inlier_count": len(inliers),
            "fixed_nodes": int((alive == 1).sum()),
            "eliminated_labels": int(sum(stage_one.labels_per_node) - alive.sum()),
            "lower_bound": float(trws_result.lower_bound),
            "bound_history": [float(b) for b in trws_result.bound_history],
            "gap": _score(trws_result.gap),
            "diagnostics": {k: list(v) for k, v in trws_result.diagnostics.items()},
        },
        "stage_two": master_info,
        "hypothesis_count": len(refined),
        "hypotheses": [
            {"seed_serial": h.seed_serial,
             "correspondence_count": h.correspondence_count,
             "score": _score(h.score), "refined": h.refined}
            for h in refined
        ],
        "selected": None,
        "geometric_violations": violations,
        "timings": timings,
    }
    if best is not None:
        report["selected"] = {
            "pose": _pose_dict(best.pose),
            "score": _score(best.score),
            "correspondence_count": best.correspondence_count,
            "seed_serial": best.seed_serial,
            "low_confidence": best.low_confidence,
        }
        if bundle.ground_truth is not None:
            correct, avg = pose_correct(best.pose, bundle.ground_truth.pose,
                                        bundle.object_points, scene.object_diameter)
            report["evaluation"] = {"correct": correct, "average_distance": float(avg)}
    return report


def _score(score: float) -> float | None:
    """A hypothesis score or the stage-one gap as JSON: ``None`` for inf,
    which JSON has no token for."""
    return None if score == INF else float(score)


def _geometric_violations(results, scene, master_grid_nodes) -> int:
    """Label-1 node pairs (within one result) further apart than the diameter.

    Partial labelings index master nodes; map back to grid nodes for the
    camera points.  The count is 0 by construction: the master's inf costs
    read the same distances, and QPBO labels no pair that realizes one.
    """
    count = 0
    for partial, _ in results:
        ones = [master_grid_nodes[k] for k, a in enumerate(partial.assignment) if a == 1]
        dist = pairwise_distances(scene.points[ones])
        count += int((dist > scene.object_diameter).sum()) // 2
    return count


def canonical_report(report: dict) -> str:
    """Byte-stable strict JSON: the top-level timings dropped, keys sorted,
    compact separators.

    A NaN or an infinity raises ``ValueError`` instead of being written as a
    token that JSON does not have; ``solve_scene`` writes an inf score as null.
    """
    return json.dumps({k: v for k, v in report.items() if k != "timings"}, sort_keys=True,
                      separators=(",", ":"), allow_nan=False) + "\n"


def write_report(report: dict, path, canonical: bool = False) -> None:
    """Write the report as strict JSON; nothing is written if it holds a
    NaN or an infinity."""
    if canonical:
        text = canonical_report(report)
    else:
        text = json.dumps(report, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def summary_line(report: dict) -> str:
    parts = [f"status={report['status']}",
             f"hypotheses={report['hypothesis_count']}",
             f"submodels={report['stage_two']['submodel_count']}",
             f"inliers={report['stage_one']['inlier_count']}"]
    if report["selected"] is not None:
        score = report["selected"]["score"]
        parts.append("score=inf" if score is None else f"score={score:.4g}")
    if "evaluation" in report:
        parts.append(f"correct={report['evaluation']['correct']}")
        parts.append(f"avg_distance={report['evaluation']['average_distance']:.4g}")
    total = sum(report["timings"].values())
    parts.append(f"time={total:.2f}s")
    return " ".join(parts)
