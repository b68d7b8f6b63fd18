import hashlib
import json
from dataclasses import replace

import pytest

from crfpose import pipeline
from crfpose.cli import main
from crfpose.model import INF
from crfpose.pipeline import (ConfigError, PipelineConfig, canonical_report,
                              desk_scale_config, parse_config, solve_scene,
                              write_report)
from crfpose.posemodel import STAGE_ONE_DEFAULTS, STAGE_TWO_DEFAULTS
from crfpose.synth import default_scenario, generate_bundle

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
    assert len(r["stage_two"]["labeled_counts"]) == r["stage_two"]["submodel_count"]
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
    # Pins the whole solve, stage-one bound history included, byte for byte.
    # A declared behaviour change (ROADMAP items 2 and 3) must re-record it.
    bundle = generate_bundle(default_scenario(
        seed=0, grid_width=20, grid_height=15, inlier_rate=0.85,
        visible_fraction=0.8, coord_noise_sigma=1e-4))
    text = canonical_report(solve_scene(bundle, desk_scale_config()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c19c71e45c248cc77e5a4d7424c852f0b0b9f1083306bd7c423dc72bd4bc178e"


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


def test_cli_missing_scene_exits_2(tmp_path):
    assert main(["solve", "--scene", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_cli_unknown_and_bad_config_key_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    scene = tmp_path / "scene.json"
    main(["generate", "--config", str(scenario), "--out", str(scene)])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus.key = 1\n")
    assert main(["solve", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_cli_verify_suites(capsys):
    assert main(["verify", "--suite", "prop1", "--trials", "10"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--suite", "nosuch"]) == 2


def test_cli_usage_error_exits_2():
    assert main(["solve"]) == 2  # missing required arguments
    assert main([]) == 2


def test_cli_bench_runs(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--seed", "1", "--out", str(out)]) == 0
    assert "stage_one" in capsys.readouterr().out
    assert out.exists()


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
