import json

import numpy as np
import pytest

from crfpose.model import ContractViolation
from crfpose.posemodel import MAX_CANDIDATES
from crfpose.synth import (SceneFormatError,
                           UnsupportedVersionError, default_scenario,
                           generate_bundle, generate_scene, load_scene,
                           load_scenario, load_xyz, object_diameter,
                           sample_box_cloud, sample_sphere_cloud, save_scene,
                           scenario_from_dict, scene_from_dict, scene_to_dict)


def test_object_diameter_matches_double_loop():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (40, 3))
    best = 0.0
    for i in range(40):
        for j in range(i + 1, 40):
            best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
    assert object_diameter(pts) == best


def test_scenario_recomputes_diameter():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.25, 0, 0]])
    sc = default_scenario(seed=0)
    sc.object_points = pts
    assert sc.diameter == 1.0


def test_same_seed_gives_bit_identical_scenes():
    a_scene, a_truth = generate_scene(default_scenario(seed=11))
    b_scene, b_truth = generate_scene(default_scenario(seed=11))
    assert a_truth == b_truth
    assert a_scene.object_diameter == b_scene.object_diameter
    for na, nb in zip(a_scene.nodes, b_scene.nodes):
        assert na == nb
    c_scene, c_truth = generate_scene(default_scenario(seed=12))
    assert c_truth != a_truth


def test_zero_inlier_rate_gives_all_outlier_truth():
    _, truth = generate_scene(default_scenario(seed=2, inlier_rate=0.0))
    assert all(l == MAX_CANDIDATES for l in truth)


def test_noise_free_scene_plants_exact_coordinates():
    sc = default_scenario(seed=3, coord_noise_sigma=0.0, inlier_rate=1.0,
                          visible_fraction=1.0)
    scene, truth = generate_scene(sc)
    object_nodes = [u for u, l in enumerate(truth) if l != MAX_CANDIDATES]
    assert object_nodes
    planted = sc.true_pose.inverse_apply(scene.points()[object_nodes])
    for row, u in enumerate(object_nodes):
        node = scene.nodes[u]
        best = max(range(len(node.candidates)),
                   key=lambda j: node.candidates[j].confidence)
        assert best == truth[u]
        assert np.asarray(node.candidates[best].coord) == pytest.approx(
            planted[row], abs=1e-12)


def test_candidate_caps_and_confidence_ranges():
    scene, _ = generate_scene(default_scenario(seed=4))
    for node in scene.nodes:
        assert len(node.candidates) <= MAX_CANDIDATES
        for c in node.candidates:
            assert 0.0 <= c.confidence <= 1.0


def test_visible_fraction_hits_target():
    for fraction in (0.5, 0.7, 0.9):
        sc = default_scenario(seed=5, visible_fraction=fraction, inlier_rate=1.0)
        scene, truth = generate_scene(sc)
        # count object nodes of the fully visible variant as the baseline
        full, full_truth = generate_scene(
            default_scenario(seed=5, visible_fraction=1.0, inlier_rate=1.0))
        total = sum(1 for l in full_truth if l != MAX_CANDIDATES)
        got = sum(1 for l in truth if l != MAX_CANDIDATES)
        assert abs(got / total - fraction) <= 0.05


def test_degenerate_scenario_raises():
    with pytest.raises(ContractViolation, match="no visible object nodes"):
        generate_scene(default_scenario(seed=6, visible_fraction=0.0))


def test_scenario_validation():
    with pytest.raises(ContractViolation):
        default_scenario(seed=0, visible_fraction=1.5)
    with pytest.raises(ContractViolation):
        default_scenario(seed=0, inlier_rate=-0.1)
    with pytest.raises(ContractViolation):
        default_scenario(seed=0, coord_noise_sigma=-1.0)


def test_scene_roundtrip(tmp_path):
    bundle = generate_bundle(default_scenario(seed=7))
    path = tmp_path / "scene.json"
    save_scene(bundle, path)
    loaded = load_scene(path)
    assert loaded.observation == bundle.observation
    assert np.array_equal(loaded.object_points, bundle.object_points)
    assert loaded.ground_truth.labels == bundle.ground_truth.labels
    assert np.array_equal(loaded.ground_truth.pose.rotation,
                          bundle.ground_truth.pose.rotation)
    assert np.array_equal(loaded.ground_truth.pose.translation,
                          bundle.ground_truth.pose.translation)


def test_scene_missing_field_names_the_field():
    doc = scene_to_dict(generate_bundle(default_scenario(seed=8)))
    del doc["nodes"][3]["x"]
    with pytest.raises(SceneFormatError, match=r"nodes\[3\]\.x"):
        scene_from_dict(doc)
    doc2 = scene_to_dict(generate_bundle(default_scenario(seed=8)))
    del doc2["nodes"][0]["candidates"][2]["p"]
    with pytest.raises(SceneFormatError, match=r"candidates\[2\]\.p"):
        scene_from_dict(doc2)
    doc3 = scene_to_dict(generate_bundle(default_scenario(seed=8)))
    del doc3["grid_width"]
    with pytest.raises(SceneFormatError, match="grid_width"):
        scene_from_dict(doc3)


def test_scene_version_mismatch(tmp_path):
    doc = scene_to_dict(generate_bundle(default_scenario(seed=9)))
    doc["version"] = 99
    with pytest.raises(UnsupportedVersionError):
        scene_from_dict(doc)
    doc["version"] = 1
    doc["format"] = "something-else"
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


def test_scene_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "crfpose-scene",\n  broken\n}')
    with pytest.raises(SceneFormatError, match="line 2"):
        load_scene(path)


def test_confidence_out_of_range_rejected():
    doc = scene_to_dict(generate_bundle(default_scenario(seed=10)))
    doc["nodes"][0]["candidates"][0]["p"] = 1.5
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


@pytest.mark.parametrize("field, value, message", [
    (("nodes", 3, "x", 0), float("nan"), r"nodes\[3\]: camera point x"),
    (("nodes", 0, "candidates", 2, "l", 1), float("inf"),
     r"nodes\[0\]\.candidates\[2\]: object coordinate l"),
    (("object_diameter",), float("inf"), "object_diameter"),
    (("object_points", 0, 0), float("nan"), "object_points"),
    (("ground_truth", "rotation", 1, 2), float("nan"),
     r"ground_truth: rotation is not finite"),
    (("ground_truth", "translation", 0), float("nan"),
     r"ground_truth: translation is not finite"),
    (("ground_truth", "translation", 2), float("-inf"),
     r"ground_truth: translation is not finite"),
])
def test_non_finite_scene_input_rejected(tmp_path, field, value, message):
    doc = scene_to_dict(generate_bundle(default_scenario(
        seed=10, grid_width=20, grid_height=15)))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))  # written as NaN / Infinity literals
    with pytest.raises(SceneFormatError, match=message):
        load_scene(path)


def test_load_xyz(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# comment\n0 0 0\n1.5 2 3\n")
    pts = load_xyz(path)
    assert pts.shape == (2, 3)
    assert pts[1, 0] == 1.5
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n")
    with pytest.raises(SceneFormatError, match="three columns"):
        load_xyz(bad)
    empty = tmp_path / "empty.xyz"
    empty.write_text("\n")
    with pytest.raises(SceneFormatError, match="no points"):
        load_xyz(empty)


def test_scenario_from_dict_shapes_and_errors():
    sphere = scenario_from_dict({"seed": 1, "object": {"shape": "sphere", "points": 50}})
    assert sphere.object_points.shape == (50, 3)
    box = scenario_from_dict({"seed": 1, "object": {"shape": "box", "points": 40}})
    assert box.object_points.shape == (40, 3)
    with pytest.raises(SceneFormatError):
        scenario_from_dict({"object": {"shape": "pyramid"}})
    explicit = scenario_from_dict({
        "seed": 2,
        "pose": {"rotation": np.eye(3).tolist(), "translation": [0, 0, 1]}})
    assert np.array_equal(explicit.true_pose.rotation, np.eye(3))
    override = scenario_from_dict({"seed": 2}, seed_override=9)
    assert override.rng_seed == 9


def test_cloud_samplers():
    sphere = sample_sphere_cloud(200, radius=0.03)
    assert sphere.shape == (200, 3)
    assert np.linalg.norm(sphere, axis=1) == pytest.approx(0.03, abs=1e-12)
    assert object_diameter(sphere) <= 0.06 + 1e-12
    box = sample_box_cloud(100, extents=(0.04, 0.02, 0.01), seed=3)
    assert box.shape == (100, 3)
    assert (np.abs(box) <= np.array([0.02, 0.01, 0.005]) + 1e-12).all()
