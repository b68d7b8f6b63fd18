import hashlib
import json
from dataclasses import replace

import pytest

from crfpose import pipeline
from crfpose.cli import main
from crfpose.model import INF, ContractViolation
from crfpose.pipeline import (ConfigError, PipelineConfig, canonical_report,
                              desk_scale_config, parse_config, solve_scene,
                              write_report)
from crfpose.posemodel import STAGE_ONE_DEFAULTS, STAGE_TWO_DEFAULTS
from crfpose.synth import default_scenario, generate_bundle, save_scene, scene_to_dict

SCENARIO = {
    "seed": 3, "grid_width": 32, "grid_height": 24,
    "visible_fraction": 0.8, "inlier_rate": 0.85, "coord_noise_sigma": 1e-4,
    "object": {"shape": "sphere", "points": 300, "radius": 0.025},
    "pose": {"random": True},
}

DESK_CFG = "stage_one.gamma = 0.00012\n"


@pytest.fixture(scope="module")
def easy_bundle():
    return generate_bundle(default_scenario(
        seed=3, coord_noise_sigma=1e-4, inlier_rate=0.85, visible_fraction=0.8))


@pytest.fixture(scope="module")
def easy_report(easy_bundle):
    return solve_scene(easy_bundle, desk_scale_config())


def test_default_config_pins_published_values():
    cfg = PipelineConfig()
    assert (cfg.stage_one.alpha, cfg.stage_one.beta, cfg.stage_one.gamma) \
        == (0.21, 23.1, 0.0048)
    assert (cfg.stage_two.alpha, cfg.stage_two.beta, cfg.stage_two.gamma) \
        == (0.2, 2.0, 0.0)
    assert cfg.trws.iterations == 10
    assert cfg.stage_one == STAGE_ONE_DEFAULTS
    assert cfg.stage_two == STAGE_TWO_DEFAULTS


def test_parse_config_overrides_and_errors():
    cfg = parse_config("""
# comment
stage_one.gamma = 0.001
trws.iterations = 5
submodels.scheme = per-node
icp.max_iterations = 7
seed = 42
""")
    assert cfg.stage_one.gamma == 0.001
    assert cfg.stage_one.alpha == 0.21  # untouched defaults
    assert cfg.trws.iterations == 5
    assert cfg.scheme == "per-node"
    assert cfg.icp.max_iterations == 7
    assert cfg.seed == 42
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("no.such.key = 1\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("trws.iterations = soon\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some text\n")
    with pytest.raises(ConfigError):
        parse_config("submodels.scheme = magic\n")


def test_easy_scene_solves_correctly(easy_bundle, easy_report):
    r = easy_report
    assert r["status"] == "ok"
    assert r["hypothesis_count"] >= 1
    assert r["selected"]["correspondence_count"] >= 3
    assert r["evaluation"]["correct"] is True
    assert r["evaluation"]["average_distance"] < \
        0.1 * easy_bundle.observation.object_diameter
    assert r["geometric_violations"] == 0


def test_pair_at_the_diameter_is_no_violation():
    # grid nodes 176 and 591 carry the two object points that define the
    # diameter; once posed they lie within one rounding step of it
    bundle = generate_bundle(default_scenario(
        seed=853263472000, inlier_rate=0.85, visible_fraction=0.8,
        coord_noise_sigma=1e-4))
    r = solve_scene(bundle, desk_scale_config())
    assert r["geometric_violations"] == 0
    assert r["evaluation"]["correct"] is True


def test_report_schema(easy_report):
    r = easy_report
    assert r["format"] == "crfpose-report"
    assert r["version"] == 1
    for key in ("status", "scene", "config", "stage_one", "stage_two",
                "hypothesis_count", "hypotheses", "selected",
                "geometric_violations", "timings"):
        assert key in r
    assert r["stage_one"]["lower_bound"] == r["stage_one"]["bound_history"][-1]
    assert len(r["stage_one"]["bound_history"]) <= r["config"]["trws_iterations"]
    assert abs(r["stage_one"]["gap"]) <= 1e-9 * max(1.0, abs(r["stage_one"]["lower_bound"]))
    assert len(r["stage_two"]["labeled_counts"]) == r["stage_two"]["submodel_count"]
    n = r["scene"]["grid_width"] * r["scene"]["grid_height"]
    assert 0 < r["stage_one"]["fixed_nodes"] < n - r["stage_one"]["inlier_count"]
    assert r["stage_one"]["fixed_nodes"] * 12 <= r["stage_one"]["eliminated_labels"] < n * 12
    # the report must be plain JSON
    json.dumps(r)


def test_all_clutter_scene_yields_no_detection():
    bundle = generate_bundle(default_scenario(seed=4, inlier_rate=0.0))
    r = solve_scene(bundle, desk_scale_config())
    assert r["status"] == "no-detection"
    assert r["selected"] is None
    assert r["hypothesis_count"] == 0
    assert "evaluation" not in r


def test_canonical_report_strips_timings_and_is_stable(easy_bundle):
    a = canonical_report(solve_scene(easy_bundle, desk_scale_config()))
    b = canonical_report(solve_scene(easy_bundle, desk_scale_config()))
    assert a == b
    assert "timings" not in a


def test_canonical_report_digest_is_pinned():
    # Pins the whole solve, stage-one bound history and gap included, byte
    # for byte; a declared behaviour change must re-record it.
    bundle = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    text = canonical_report(solve_scene(bundle, desk_scale_config()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "27c7138857d3c933856b73177358f579a2816272c8d5b5077813580fadabd0aa"


@pytest.mark.parametrize("canonical", [True, False])
def test_report_with_nan_is_never_written(tmp_path, canonical):
    report = {"status": "ok", "evaluation": {"average_distance": float("nan")},
              "timings": {}}
    with pytest.raises(ValueError):
        canonical_report(report)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report(report, path, canonical=canonical)
    assert not path.exists()


def test_per_node_scheme_also_finds_the_pose(easy_bundle):
    # one submodel per master node: the known drawback is the submodel count
    with pytest.warns(UserWarning, match="submodels"):
        r = solve_scene(easy_bundle, desk_scale_config(scheme="per-node"))
    assert r["status"] == "ok"
    assert r["evaluation"]["correct"] is True
    assert r["stage_two"]["submodel_count"] > 20


# ---------------------------------------------------------------------------
# command line

def write_scenario(tmp_path, **overrides):
    doc = dict(SCENARIO)
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_generate_and_solve(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    scene = tmp_path / "scene.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK_CFG)
    report = tmp_path / "report.json"
    assert main(["generate", "--config", str(scenario), "--out", str(scene)]) == 0
    assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    doc = json.loads(report.read_text())
    assert doc["evaluation"]["correct"] is True


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_cli_solve_writes_inf_scores_as_null(tmp_path, capsys, monkeypatch):
    # ICP scores a hypothesis inf when no association survives its gate;
    # the report must still be written, as strict JSON.
    monkeypatch.setattr(pipeline, "icp_refine",
                        lambda h, points, cfg: replace(h, score=INF, refined=True))
    scenario = write_scenario(tmp_path)
    scene = tmp_path / "scene.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK_CFG)
    report = tmp_path / "report.json"
    assert main(["generate", "--config", str(scenario), "--out", str(scene)]) == 0
    assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(report)]) == 0
    assert "score=inf" in capsys.readouterr().out
    doc = _strict_json(report.read_text())
    assert doc["hypotheses"]
    assert all(h["score"] is None for h in doc["hypotheses"])
    assert doc["selected"]["score"] is None
    assert doc["selected"]["low_confidence"] is True
    assert _strict_json(canonical_report(doc))["selected"]["score"] is None
    doc["selected"]["score"] = float("nan")
    with pytest.raises(ValueError):
        write_report(doc, tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()


def test_infinite_stage_one_gap_is_written_as_null(easy_bundle, monkeypatch):
    solve_trws = pipeline.solve_trws
    monkeypatch.setattr(pipeline, "solve_trws",
                        lambda model, cfg: replace(solve_trws(model, cfg), gap=INF))
    report = solve_scene(easy_bundle, desk_scale_config())
    assert report["stage_one"]["gap"] is None
    assert _strict_json(canonical_report(report))["stage_one"]["gap"] is None


def test_cli_generate_is_seed_deterministic(tmp_path):
    scenario = write_scenario(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--config", str(scenario), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(scenario), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["generate", "--config", str(scenario), "--out", str(c),
                 "--seed", "99"]) == 0
    assert c.read_bytes() != a.read_bytes()


def test_cli_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["generate", "--config", str(bad), "--out",
                 str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_malformed_scene_field_exits_2(tmp_path, capsys):
    doc = scene_to_dict(generate_bundle(default_scenario(seed=0, grid_width=20,
                                                         grid_height=15)))
    doc["points"][5] = [0.0, 1.0]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "points[5]" in capsys.readouterr().err
    doc["points"][5] = [0.0, 1.0, 2.0]
    doc["ground_truth"]["labels"][3] = "x"
    scene.write_text(json.dumps(doc))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "ground_truth.labels[3]" in capsys.readouterr().err
    doc["ground_truth"]["labels"][3] = doc["candidate_count"][3] + 1
    scene.write_text(json.dumps(doc))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "ground_truth.labels[3]" in capsys.readouterr().err
    doc["ground_truth"]["labels"][3] = 0
    for version in ("true", "2.0"):
        scene.write_text(json.dumps(doc).replace('"version": 2', f'"version": {version}'))
        assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
        assert "field 'version' must be an integer" in capsys.readouterr().err
    doc["candidate_count"][7] = 11  # candidate 11 of node 7 left in place
    scene.write_text(json.dumps(doc))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "field 'coords[7][11][0]' is past the 11 candidates of node 7" \
        in capsys.readouterr().err


def test_cli_version_1_scene_exits_2(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "format": "crfpose-scene", "version": 1, "grid_width": 1, "grid_height": 1,
        "object_diameter": 0.05,
        "nodes": [{"x": [0.0, 0.0, 1.0],
                   "candidates": [{"l": [0.0, 0.0, 0.0], "p": 0.9, "pixel": 2, "tree": 1}]}]}))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "unsupported scene version 1; this build reads version 2" in capsys.readouterr().err


def test_cli_missing_scene_exits_2(tmp_path):
    assert main(["solve", "--scene", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_cli_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    # each of these used to exit 1 with "internal error: [Errno 21] Is a directory"
    folder = tmp_path / "folder"
    folder.mkdir()
    scenario = write_scenario(tmp_path, grid_width=20, grid_height=15)
    scene = tmp_path / "scene.json"
    assert main(["generate", "--config", str(scenario), "--out", str(scene)]) == 0
    capsys.readouterr()
    for argv in (["solve", "--scene", str(folder), "--out", str(tmp_path / "r.json")],
                 ["solve", "--scene", str(scene), "--config", str(folder),
                  "--out", str(tmp_path / "r.json")],
                 ["generate", "--config", str(write_scenario(
                     tmp_path, object={"shape": "xyz", "path": str(folder)})),
                  "--out", str(tmp_path / "x.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err, err


def test_cli_scene_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    # used to exit 1 with "int too large to convert to float", no field named
    doc = scene_to_dict(generate_bundle(default_scenario(seed=0, grid_width=20,
                                                         grid_height=15)))
    doc["object_points"][4][0] = 10**400
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "field 'object_points[4][0]' holds an integer too large" in capsys.readouterr().err


def test_cli_unknown_and_bad_config_key_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    scene = tmp_path / "scene.json"
    main(["generate", "--config", str(scenario), "--out", str(scene)])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus.key = 1\n")
    assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2


def _scaled_20x15(**scale):
    """The scene of test_canonical_report_digest_is_pinned with some of its
    per-node arrays multiplied."""
    bundle = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    scene = bundle.observation
    return replace(bundle, observation=replace(
        scene, **{name: getattr(scene, name) * factor for name, factor in scale.items()}))


def test_every_node_fixed_gives_no_detection_with_a_zero_gap():
    # at the paper's gamma with a diameter no edge is within, each of a
    # node's edges can lose beta * gamma = 0.11 when a candidate goes, more
    # than any candidate saves: every node is fixed and TRW-S has no edge
    bundle = _scaled_20x15(object_diameter=1e-6)
    r = solve_scene(bundle, PipelineConfig())
    s = r["stage_one"]
    assert r["status"] == "no-detection"
    assert (s["inlier_count"], s["fixed_nodes"]) == (0, 300)
    assert s["eliminated_labels"] == int(bundle.observation.candidate_count.sum())
    assert s["gap"] == 0.0 and len(s["bound_history"]) == 1
    assert s["lower_bound"] == s["bound_history"][0] > 0.0


def test_overflowing_camera_points_exit_2_naming_the_edge(tmp_path, capsys):
    # finite camera points scaled by 1e200 overflow every camera distance;
    # this used to end in a no-detection with only numpy warnings
    bundle = _scaled_20x15(points=1e200)
    with pytest.raises(ContractViolation, match=r"stage-one edge \(0,\d+\): camera distance"):
        solve_scene(bundle, desk_scale_config())
    scene = tmp_path / "scene.json"
    save_scene(bundle, scene)
    assert main(["solve", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert "camera distance is not finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_verify_elimination(capsys):
    assert main(["verify", "--suite", "elimination", "--trials", "40"]) == 0
    assert "PASS elimination: 40/40" in capsys.readouterr().out


def test_cli_verify_suites(capsys):
    assert main(["verify", "--suite", "prop1", "--trials", "10"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--suite", "nosuch"]) == 2


def test_cli_usage_error_exits_2():
    assert main(["solve"]) == 2  # missing required arguments
    assert main([]) == 2


def test_cli_solve_canonical_bytes_repeat(tmp_path):
    scenario = write_scenario(tmp_path)
    scene = tmp_path / "scene.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK_CFG)
    main(["generate", "--config", str(scenario), "--out", str(scene)])
    blobs = []
    for i in range(2):
        report = tmp_path / f"rep{i}.json"
        assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                     "--out", str(report), "--canonical"]) == 0
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
