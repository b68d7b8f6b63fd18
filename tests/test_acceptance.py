"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The end-to-end criteria share one batch of 100 solved scenes.
"""

import json
import time

import pytest

from crfpose.cli import main
from crfpose.oracle import (verify_kabsch, verify_prop1, verify_qpbo_persistency,
                            verify_trws_bounds, verify_zero_form)
from crfpose.pipeline import desk_scale_config, solve_scene
from crfpose.posefit import ransac_iterations
from crfpose.synth import default_scenario, generate_bundle

E2E_SCENES = 100


def report(number, name, ok, details):
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {state} ({details})")
    return ok


def scene_family(seed):
    """Deterministic scenario parameters, all inside the required envelope:
    inlier_rate >= 0.02, noise sigma <= 1% of the diameter (the sphere
    diameter is 0.05 m), visible_fraction >= 0.5."""
    return default_scenario(
        seed=seed,
        inlier_rate=0.70 + 0.05 * (seed % 5),
        visible_fraction=0.55 + 0.10 * ((seed // 5) % 5),
        coord_noise_sigma=(0.5 + 0.35 * (seed % 3)) * 1e-4,
    )


@pytest.fixture(scope="module")
def e2e_runs():
    cfg = desk_scale_config()
    runs = []
    for seed in range(E2E_SCENES):
        bundle = generate_bundle(scene_family(seed))
        t0 = time.perf_counter()
        result = solve_scene(bundle, cfg)
        runs.append((seed, result, time.perf_counter() - t0))
    return runs


def test_criterion_1_decomposition_suite():
    t0 = time.perf_counter()
    rep = verify_prop1(trials=200, max_nodes=12, seed=2024, tolerance=1e-12)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 60.0
    assert report(1, "decomposed optimum attains master optimum",
                  ok, f"{rep.passes}/200 trials, {elapsed:.1f}s"), rep.failures[:5]


def test_criterion_2_qpbo_persistency():
    t0 = time.perf_counter()
    rep = verify_qpbo_persistency(trials=500, max_nodes=14, seed=77)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 120.0
    assert report(2, "QPBO persistency vs exhaustive optima",
                  ok, f"{rep.passes}/500 trials, {elapsed:.1f}s"), rep.failures[:5]


def test_criterion_3_trws_bounds():
    t0 = time.perf_counter()
    rep = verify_trws_bounds(trials=100, tree_trials=50, seed=5, tolerance=1e-9)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 120.0
    assert report(3, "TRW-S bound sandwich and tree exactness",
                  ok, f"{rep.passes}/{rep.trials} trials, {elapsed:.1f}s"), rep.failures[:5]


def test_criterion_4_zero_form_preserves_energies():
    rep = verify_zero_form(trials=100, max_nodes=8, seed=31, tolerance=1e-12)
    assert report(4, "zero-form transform preserves all energies",
                  rep.ok, f"{rep.passes}/100 models"), rep.failures[:5]


def test_criterion_5_kabsch_recovery():
    rep = verify_kabsch(trials=1000, points=10, seed=9, tolerance=1e-9)
    assert report(5, "Kabsch recovers random rigid transforms",
                  rep.ok, f"{rep.passes}/1000 transforms"), rep.failures[:5]


def test_criterion_6_end_to_end_pose_accuracy(e2e_runs):
    correct = sum(1 for _, r, _ in e2e_runs
                  if r.get("evaluation", {}).get("correct", False))
    hyp_in_range = sum(1 for _, r, _ in e2e_runs
                       if 0 <= r["hypothesis_count"] <= 10)
    slow = [(seed, t) for seed, _, t in e2e_runs if t >= 10.0]
    ok = correct >= 95 and hyp_in_range >= 95 and not slow
    assert report(6, "end-to-end synthetic pose accuracy", ok,
                  f"{correct}/{E2E_SCENES} correct, {hyp_in_range}/{E2E_SCENES} "
                  f"with 0-10 hypotheses, slowest "
                  f"{max(t for _, _, t in e2e_runs):.1f}s"), slow


def test_criterion_7_geometric_exclusion(e2e_runs):
    violations = sum(r["geometric_violations"] for _, r, _ in e2e_runs)
    assert report(7, "inlier pairs within the object diameter",
                  violations == 0, f"{violations} violations over {E2E_SCENES} scenes")


def test_criterion_8_ransac_iteration_count():
    n = ransac_iterations(0.005, 0.95)
    ok = abs(n - 24_000_000) <= 0.05 * 24_000_000
    assert report(8, "triplet-sampling iteration count", ok, f"{n:,} iterations")


def test_criterion_9_deterministic_reports(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 17, "grid_width": 32, "grid_height": 24,
        "visible_fraction": 0.8, "inlier_rate": 0.85,
        "coord_noise_sigma": 1e-4,
        "object": {"shape": "sphere", "points": 300, "radius": 0.025},
    }))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stage_one.gamma = 0.00012\n")
    scene = tmp_path / "scene.json"
    assert main(["generate", "--config", str(scenario), "--out", str(scene)]) == 0
    blobs = set()
    for i in range(5):
        out = tmp_path / f"report{i}.json"
        assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                     "--out", str(out), "--canonical"]) == 0
        blobs.add(out.read_bytes())
    assert report(9, "canonical reports byte-identical over 5 runs",
                  len(blobs) == 1, f"{len(blobs)} distinct byte strings")
