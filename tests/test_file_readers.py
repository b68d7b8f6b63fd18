"""Scenario and pipeline-config files: what each reader gives for valid
documents, pinned byte for byte, and how it refuses bad ones."""

import hashlib
import json
import math
import re

import pytest

from crfpose.cli import main
from crfpose.pipeline import ConfigError, PipelineConfig, parse_config
from crfpose.posefit import IcpConfig
from crfpose.posemodel import HyperParams
from crfpose.synth import (SceneFormatError, default_scenario, generate_bundle,
                           save_scene, scenario_from_dict)
from crfpose.trws import TrwsConfig

#: the scenario example of README.md, "Scenario files"
README_SCENARIO = {
    "seed": 0,
    "grid_width": 32, "grid_height": 24,
    "visible_fraction": 0.8,
    "inlier_rate": 0.85,
    "coord_noise_sigma": 1e-4,
    "object": {"shape": "sphere", "points": 300, "radius": 0.025},
    "pose": {"random": True},
    "confidence": {"true_mean": 0.95, "object_mean": 0.75,
                   "background_mean": 0.10, "spread": 0.03},
}

#: one document per way of giving the object and the pose, and one that sets
#: every numeric field (integer-valued numbers included)
SCENARIOS = {
    "readme": README_SCENARIO,
    "box": {"seed": 4, "grid_width": 16, "grid_height": 12,
            "object": {"shape": "box", "points": 120, "extents": [0.05, 0.03, 0.02]}},
    "xyz": {"seed": 2, "grid_width": 14, "grid_height": 11,
            "object": {"shape": "xyz", "path": "cloud.xyz"}},
    "explicit-pose": {"seed": 1, "grid_width": 15, "grid_height": 10,
                      "pose": {"rotation": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                               "translation": [0.01, -0.02, 0.9]}},
    "every-number": {"seed": 5, "grid_width": 13, "grid_height": 9,
                     "visible_fraction": 1, "inlier_rate": 0.6,
                     "coord_noise_sigma": 2e-4, "depth_noise_sigma": 1e-3,
                     "object": {"shape": "sphere", "points": 120, "radius": 0.03},
                     "pose": {"random": True},
                     "confidence": {"true_mean": 0.9, "object_mean": 0.7,
                                    "background_mean": 0, "spread": 0.05}},
}

SCENE_DIGESTS = {
    "readme":
        "ca97999b402ac2130ed24276b84d38485223b9b9ea3216b2c1d3d42a1badc650",
    "box":
        "94aac1b76cc8b294738ee300b8a1832a0263fbb80c0e0b3775642effd16a500d",
    "xyz":
        "ad560c954fafbaeec307b638b6afead5d50798bd70a14199083ebadf14b523e4",
    "explicit-pose":
        "bfc34603e34ce7b8b330a9ea2945b750821638efb396945324975c8b0678d465",
    "every-number":
        "60edfb96bdbb15537586faf59e71642df3dd1e18d2873a60a7c4b858b8f648cf",
}

#: every config key, each set away from its default
CONFIG_TEXT = """
stage_one.alpha = 0.3
stage_one.beta = 20
stage_one.gamma = 1.2e-4
stage_two.alpha = 0.25
stage_two.beta = 1.5
stage_two.gamma = 0.01
trws.iterations = 7
icp.max_iterations = 12
icp.trim_fraction = 0.7
icp.pose_change_tol = 1e-7
icp.gate_distance = 0.02
submodels.scheme = per-node
seed = 42
"""


def _write_xyz(path):
    # a twisted band: 60 points that fix a rotation, written as exact reprs
    lines = []
    for k in range(60):
        t = 2.0 * math.pi * k / 60
        lines.append(f"{0.03 * math.cos(t)!r} {0.02 * math.sin(t)!r} "
                     f"{0.01 * math.sin(2 * t)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_valid_scenarios_and_config_are_pinned(tmp_path, monkeypatch):
    # neither the scene bytes nor the config may move when a reader is rewritten
    monkeypatch.chdir(tmp_path)
    _write_xyz(tmp_path / "cloud.xyz")
    digests = {}
    for name, doc in SCENARIOS.items():
        path = tmp_path / f"{name}.json"
        save_scene(generate_bundle(scenario_from_dict(doc)), path)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == SCENE_DIGESTS
    assert parse_config(CONFIG_TEXT) == PipelineConfig(
        stage_one=HyperParams(alpha=0.3, beta=20.0, gamma=1.2e-4),
        stage_two=HyperParams(alpha=0.25, beta=1.5, gamma=0.01),
        trws=TrwsConfig(iterations=7),
        icp=IcpConfig(max_iterations=12, trim_fraction=0.7, pose_change_tol=1e-7,
                      gate_distance=0.02),
        scheme="per-node", seed=42)


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=0, grid_width=20, grid_height=15)), path)
    return path


@pytest.mark.parametrize("line, message", [
    ("stage_one.beta = nan", "beta=nan"),
    ("stage_one.gamma = inf", "gamma=inf"),
    ("stage_one.alpha = inf", "alpha=inf"),
    ("stage_two.beta = nan", "beta=nan"),
    ("icp.gate_distance = nan", "gate_distance=nan"),
    ("icp.pose_change_tol = nan", "pose_change_tol=nan"),
    ("icp.trim_fraction = nan", "trim_fraction=nan"),
    ("trws.iterations = 0", "iterations must be >= 1"),
])
def test_non_finite_config_values_exit_2_naming_line_and_key(tmp_path, scene_file,
                                                             capsys, line, message):
    # each of these once reached a solver: exit 1 on a NaN bound, a blamed
    # unary table or max-flow network, or exit 0 with score=inf
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\n{line}\n")
    code = main(["solve", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"line 2: bad value for '{re.escape(key)}'.*{message}", err), err
    with pytest.raises(ConfigError, match=message):
        parse_config(line)


def test_overflowing_beta_times_gamma_names_the_line():
    text = "# run\nstage_one.beta = 1e200\nstage_one.gamma = 1e200\n"
    with pytest.raises(ConfigError,
                       match=r"line 3: bad value for 'stage_one.gamma'.*finite beta \* gamma"):
        parse_config(text)


@pytest.mark.parametrize("doc, message", [
    ({"grid_width": 20.7}, "field 'grid_width' must be an integer"),
    ({"inlier_rat": 0.5}, "unknown field 'inlier_rat'"),
    ({"seed": "x"}, "field 'seed' must be an integer"),
    ({"seed": -1}, "field 'seed' must be >= 0"),
    ({"object": []}, "field 'object' must be an object"),
    ([], "a scenario must be a JSON object"),
    ({"coord_noise_sigma": float("nan")}, "coord_noise_sigma must be finite"),
    ({"depth_noise_sigma": float("inf")}, "depth_noise_sigma must be finite"),
    # refused before the typed reader too; held here with the rest
    ({"inlier_rate": float("nan")}, "inlier_rate outside"),
    ({"inlier_rate": "0.5"}, "field 'inlier_rate' must be a number"),
    ({"grid_height": 0}, "grid_height must be >= 1"),
    ({"object": {"shape": "cone"}}, "field 'object.shape' is 'cone'"),
    ({"object": {"shape": "sphere", "radiu": 0.02}}, "unknown field 'object.radiu'"),
    ({"object": {"shape": "box", "radius": 0.02}}, "unknown field 'object.radius'"),
    ({"object": {"points": 2.5}}, "field 'object.points' must be an integer"),
    ({"object": {"shape": "box", "points": -4}}, "field 'object.points' must be >= 1"),
    ({"object": {"points": 2}}, "object cloud must be finite and fix a rotation"),
    ({"object": {"radius": float("nan")}}, "object cloud must be finite"),
    ({"object": {"shape": "box", "extents": [1, 2]}}, "field 'object.extents'"),
    # refused before the typed reader too; held here with the rest
    ({"object": {"shape": "xyz"}}, "missing required field 'object.path'"),
    ({"pose": {"random": "yes"}}, "field 'pose.random' must be true or false"),
    ({"pose": {"rotate": True}}, "unknown field 'pose.rotate'"),
    ({"pose": {"rotation": "x", "translation": [0, 0, 1]}}, "field 'pose.rotation'"),
    ({"pose": {"rotation": [[1, 0, 0]] * 3, "translation": [0, 0, 1]}},
     "invalid pose at pose: rotation is not orthonormal"),
    ({"confidence": {"sprea": 0.1}}, "unknown field 'confidence.sprea'"),
    ({"confidence": {"spread": -0.1}}, "confidence values must be finite and spread >= 0"),
    ({"confidence": {"true_mean": float("nan")}}, "confidence values must be finite"),
    # used to exit 1 with "int too large to convert to float", no field named
    ({"inlier_rate": 10**400}, "field 'inlier_rate' holds an integer too large for a float"),
    ({"object": {"radius": -10**400}}, "field 'object.radius' holds an integer too large"),
])
def test_bad_scenario_values_exit_2_naming_the_field(tmp_path, capsys, doc, message):
    # each of these was once read as something else, ignored, or an exit 1
    if isinstance(doc, dict):
        doc = {"grid_width": 12, "grid_height": 9, **doc}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity written as literals
    code = main(["generate", "--config", str(path), "--out", str(tmp_path / "scene.json")])
    assert code == 2
    assert re.search(message, capsys.readouterr().err)
    with pytest.raises(SceneFormatError, match=message):
        scenario_from_dict(doc)

