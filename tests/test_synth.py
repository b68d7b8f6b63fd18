import copy
import hashlib
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


SCENE_ARRAYS = ("points", "candidate_count", "coords", "confidence", "source_pixel",
                "source_tree")


def assert_same_scene(a, b):
    assert (a.grid_width, a.grid_height) == (b.grid_width, b.grid_height)
    assert a.object_diameter == b.object_diameter
    for name in SCENE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def test_same_seed_gives_bit_identical_scenes():
    a_scene, a_truth = generate_scene(default_scenario(seed=11))
    b_scene, b_truth = generate_scene(default_scenario(seed=11))
    assert a_truth == b_truth
    assert_same_scene(a_scene, b_scene)
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
    planted = sc.true_pose.inverse_apply(scene.points[object_nodes])
    for row, u in enumerate(object_nodes):
        best = int(scene.confidence[u, :scene.candidate_count[u]].argmax())
        assert best == truth[u]
        assert scene.coords[u, best] == pytest.approx(planted[row], abs=1e-12)


def test_candidate_caps_and_confidence_ranges():
    scene, _ = generate_scene(default_scenario(seed=4))
    assert (scene.candidate_count == MAX_CANDIDATES).all()
    assert ((0.0 <= scene.confidence) & (scene.confidence <= 1.0)).all()
    for name in SCENE_ARRAYS:
        assert not getattr(scene, name).flags.writeable, name


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
    assert_same_scene(loaded.observation, bundle.observation)
    again = tmp_path / "again.json"
    save_scene(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert np.array_equal(loaded.object_points, bundle.object_points)
    assert loaded.ground_truth.labels == bundle.ground_truth.labels
    assert np.array_equal(loaded.ground_truth.pose.rotation,
                          bundle.ground_truth.pose.rotation)
    assert np.array_equal(loaded.ground_truth.pose.translation,
                          bundle.ground_truth.pose.translation)


@pytest.mark.parametrize("overrides, digest", [
    ({}, "ae623be28e61300e6f3d777c076e23c6c685b0fd28d98892f640880391a61931"),
    # the desk scenario
    (dict(inlier_rate=0.85, visible_fraction=0.8, coord_noise_sigma=1e-4),
     "ca97999b402ac2130ed24276b84d38485223b9b9ea3216b2c1d3d42a1badc650"),
], ids=["default", "desk"])
def test_scene_file_bytes_are_pinned(tmp_path, overrides, digest):
    path = tmp_path / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=0, **overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: each per-slot array's entry past a node's candidate count
SLOT_ZERO = {"coords": [0.0] * 3, "confidence": 0.0, "source_pixel": 0, "source_tree": 0}


def cut_candidates(doc, node, kept):
    """Keep the first ``kept`` candidates of ``node``, zeroing the rest."""
    doc["candidate_count"][node] = kept
    for name, zero in SLOT_ZERO.items():
        doc[name][node][kept:] = [copy.deepcopy(zero) for _ in range(MAX_CANDIDATES - kept)]


def test_scene_with_fewer_candidates_round_trips():
    doc = scene_to_dict(generate_bundle(default_scenario(seed=10, grid_width=20,
                                                         grid_height=15)))
    for node, kept in ((0, 0), (5, 1), (7, 11)):
        cut_candidates(doc, node, kept)
        doc["ground_truth"]["labels"][node] = kept  # the outlier, label 12 before
    scene = scene_from_dict(doc).observation
    assert scene.candidate_count[[0, 5, 7, 8]].tolist() == [0, 1, 11, 12]
    assert not scene.coords[5, 1:].any() and not scene.confidence[7, 11:].any()
    # written back byte for byte
    assert json.dumps(scene_to_dict(scene_from_dict(doc)), indent=1) == json.dumps(doc, indent=1)


def test_scene_file_holds_the_padded_arrays():
    bundle = generate_bundle(default_scenario(seed=0, grid_width=4, grid_height=3))
    doc = scene_to_dict(bundle)
    assert list(doc)[5:11] == list(SCENE_ARRAYS)
    for name in SCENE_ARRAYS:
        assert doc[name] == getattr(bundle.observation, name).tolist(), name


def test_scene_missing_field_names_the_field():
    doc = scene_to_dict(generate_bundle(default_scenario(seed=8)))
    del doc["points"]
    with pytest.raises(SceneFormatError, match=r"missing required field 'points'"):
        scene_from_dict(doc)
    doc2 = scene_to_dict(generate_bundle(default_scenario(seed=8)))
    del doc2["confidence"][0][2]
    with pytest.raises(SceneFormatError, match=r"'confidence\[0\]' must be a list of 12"):
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
    doc["version"] = 2
    doc["format"] = "something-else"
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


#: a version-1 document: one dict per node and per candidate
VERSION_1_SCENE = {
    "format": "crfpose-scene", "version": 1, "grid_width": 1, "grid_height": 1,
    "object_diameter": 0.05,
    "nodes": [{"x": [0.0, 0.0, 1.0],
               "candidates": [{"l": [0.0, 0.0, 0.0], "p": 0.9, "pixel": 2, "tree": 1}]}],
}


def test_version_1_scene_is_refused():
    with pytest.raises(UnsupportedVersionError) as info:
        scene_from_dict(json.loads(json.dumps(VERSION_1_SCENE)))
    assert str(info.value) == "unsupported scene version 1; this build reads version 2"


def test_scene_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "crfpose-scene",\n  broken\n}')
    with pytest.raises(SceneFormatError, match="line 2"):
        load_scene(path)


def test_confidence_out_of_range_rejected():
    doc = scene_to_dict(generate_bundle(default_scenario(seed=10)))
    doc["confidence"][0][0] = 1.5
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


@pytest.mark.parametrize("field, value, message", [
    (("points", 3, 0), float("nan"), r"'points\[3\]' is not finite"),
    (("coords", 0, 2, 1), float("inf"), r"'coords\[0\]\[2\]' is not finite"),
    (("object_diameter",), float("inf"), "object_diameter"),
    (("object_points", 0, 0), float("nan"), "object_points"),
    (("ground_truth", "rotation", 1, 2), float("nan"),
     r"ground_truth: rotation is not finite"),
    (("ground_truth", "translation", 0), float("nan"),
     r"ground_truth: translation is not finite"),
    (("ground_truth", "translation", 2), float("-inf"),
     r"ground_truth: translation is not finite"),
    # wrong lengths and types, which name the field's path
    (("points", 5), [0.0, 1.0], r"'points\[5\]' must be a list of 3 entries"),
    (("points", 5), [0.0, 0.0, 1.0, 2.0], r"'points\[5\]' must be a list of 3 entries"),
    (("coords", 5, 2), [0.0, 0.0], r"'coords\[5\]\[2\]' must be a list of 3 entries"),
    (("coords", 5, 2), [0.0] * 4, r"'coords\[5\]\[2\]' must be a list of 3 entries"),
    (("coords", 5, 2, 1), "0.0", r"'coords\[5\]\[2\]\[1\]' must be a number"),
    (("confidence", 5, 2), "0.5", r"'confidence\[5\]\[2\]' must be a number"),
    (("source_pixel", 5, 2), 1.7, r"'source_pixel\[5\]\[2\]' must be an integer"),
    (("grid_width",), "x", "grid_width"),
    (("ground_truth", "labels", 3), "x", r"ground_truth\.labels\[3\]' must be an integer"),
    (("ground_truth", "labels", 3), 2.5, r"ground_truth\.labels\[3\]' must be an integer"),
    (("ground_truth", "labels", 3), "2", r"ground_truth\.labels\[3\]' must be an integer"),
    (("ground_truth", "labels"), "12", r"ground_truth\.labels' must be a list"),
    (("object_points", 1), [0.0, 1.0], r"object_points\[1\]' must be a list of 3"),
    (("object_points", 1, 2), "0.5", r"object_points\[1\]\[2\]' must be a number"),
    (("object_points",), [], "object_points"),
    # one point, or 50 collinear ones, cannot fix a rotation; both used to
    # load and score correct: true
    (("object_points",), [[0.01, 0.02, 0.03]], "object_points' must be finite and fix"),
    (("object_points",), [[0.001 * k, 0.002 * k, -0.001 * k] for k in range(50)],
     "object_points' must be finite and fix a rotation"),
    # its column sum overflows; this exited 1 with "SVD did not converge"
    (("object_points",), [[1.7e308, 0, 0], [1.7e308, 1, 0], [0, 0, 1]],
     "object_points' must be finite and fix a rotation"),
    # JSON integers a float cannot hold; these exited 1 or named no field
    (("object_points", 1, 2), 10**400,
     r"object_points\[1\]\[2\]' holds an integer too large for a float"),
    (("confidence", 5, 2), -10**400,
     r"'confidence\[5\]\[2\]' holds an integer too large for a float"),
    # indices no int64 holds; these named no field
    (("source_pixel", 5, 2), 2**64, r"^field 'source_pixel\[5\]\[2\]' is outside 0\.\.3$"),
    (("source_tree", 5, 2), -10**400, r"^field 'source_tree\[5\]\[2\]' is outside 0\.\.2$"),
# the names the cases were first collected under, kept so that a message
# edit renames no case
], ids=[
    r"field0-nan-'points\[3\]' is not finite",
    r"field1-inf-'coords\[0\]\[2\]' is not finite",
    "field2-inf-object_diameter",
    "field3-nan-object_points",
    "field4-nan-ground_truth: rotation is not finite",
    "field5-nan-ground_truth: translation is not finite",
    "field6--inf-ground_truth: translation is not finite",
    r"field7-value7-'points\[5\]' must be a list of 3 entries",
    r"field8-value8-'points\[5\]' must be a list of 3 entries",
    r"field9-value9-'coords\[5\]\[2\]' must be a list of 3 entries",
    r"field10-value10-'coords\[5\]\[2\]' must be a list of 3 entries",
    r"field11-0.0-'coords\[5\]\[2\]\[1\]' must be a number",
    r"field12-0.5-'confidence\[5\]\[2\]' must be a number",
    r"field13-1.7-'source_pixel\[5\]\[2\]' must be an integer",
    "field14-x-grid_width",
    r"field15-x-ground_truth\.labels\[3\]' must be an integer",
    r"field16-2.5-ground_truth\.labels\[3\]' must be an integer",
    r"field17-2-ground_truth\.labels\[3\]' must be an integer",
    r"field18-12-ground_truth\.labels' must be a list",
    r"field19-value19-object_points\[1\]' must be a list of 3",
    r"field20-0.5-object_points\[1\]' must be a list of 3",
    "field21-value21-object_points",
    "field22-value22-object_points' must be finite and fix",
    "field23-value23-object_points' must be finite and fix a rotation",
    "object_points-overflowing-sum",
    "object_points-10**400", "p-minus-10**400", "pixel-2**64", "tree-minus-10**400",
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


@pytest.fixture(scope="module")
def small_scene_doc():
    return scene_to_dict(generate_bundle(default_scenario(seed=0, grid_width=4,
                                                          grid_height=3)))


_DROP = object()  # deletes the key instead of setting it
#: node 5 cut to its first three candidates, the rest zero
_CUT = [(("candidate_count", 5), 3)] + [
    ((name, 5, j), zero) for name, zero in SLOT_ZERO.items() for j in range(3, 12)]


@pytest.mark.parametrize("edits, message", [
    ([(("points", 5), 7)], "field 'points[5]' must be a list of 3 entries"),
    ([(("coords", 5, 2), "x")], "field 'coords[5][2]' must be a list of 3 entries"),
    ([(("coords",), _DROP)], "missing required field 'coords'"),
    ([(("coords", 5), {})], "field 'coords[5]' must be a list of 12 entries"),
    ([(("coords", 5, 12), [0.0] * 3)], "field 'coords[5]' must be a list of 12 entries"),
    ([(("points", 5, 1), True)], "field 'points[5][1]' must be a number"),
    ([(("coords", 5, 2, 0), True)], "field 'coords[5][2][0]' must be a number"),
    ([(("confidence", 5, 2), True)], "field 'confidence[5][2]' must be a number"),
    ([(("source_pixel", 5, 2), True)], "field 'source_pixel[5][2]' must be an integer"),
    ([(("source_tree", 5, 2), True)], "field 'source_tree[5][2]' must be an integer"),
    ([(("points", 5, 2), 10**400)],
     "field 'points[5][2]' holds an integer too large for a float"),
    ([(("coords", 5, 2, 1), -10**400)],
     "field 'coords[5][2][1]' holds an integer too large for a float"),
    # the least integer that float() refuses, past one it rounds down
    ([(("coords", 5, 1, 0), 2**1024 - 2**970 - 1), (("coords", 5, 2, 1), 2**1024 - 2**970)],
     "field 'coords[5][2][1]' holds an integer too large for a float"),
    ([(("source_pixel", 5, 2), 3.0)], "field 'source_pixel[5][2]' must be an integer"),
    ([(("source_tree", 5, 2), "4")], "field 'source_tree[5][2]' must be an integer"),
    # the first fault in document order is the one reported
    ([(("source_tree", 5, 0), None), (("source_tree", 4, 11), 1.5)],
     "field 'source_tree[4][11]' must be an integer"),
    ([(("confidence", 5, 2), "0.5"), (("coords", 5, 2), [0.0])],
     "field 'coords[5][2]' must be a list of 3 entries"),
    # the version is an integer field like any other; these loaded as 1
    ([(("version",), True)], "field 'version' must be an integer"),
    ([(("version",), 1.0)], "field 'version' must be an integer"),
    # one label per node, each a candidate or the outlier; these loaded
    ([(("ground_truth", "labels"), [1])],
     "field 'ground_truth.labels' has 1 labels for 12 nodes"),
    ([(("ground_truth", "labels"), [-5] * 40)],
     "field 'ground_truth.labels' has 40 labels for 12 nodes"),
    ([(("ground_truth", "labels", 12), 0)],
     "field 'ground_truth.labels' has 13 labels for 12 nodes"),
    ([(("ground_truth", "labels", 4), -1)],
     "field 'ground_truth.labels[4]' must be a label of node 4 (0..12)"),
    ([(("ground_truth", "labels", 6), 13)],
     "field 'ground_truth.labels[6]' must be a label of node 6 (0..12)"),
    ([(("candidate_count", 6), 0), (("coords", 6), [[0.0] * 3] * 12),
      (("confidence", 6), [0.0] * 12), (("source_pixel", 6), [0] * 12),
      (("source_tree", 6), [0] * 12)],
     "field 'ground_truth.labels[6]' must be a label of node 6 (0..0)"),
    ([(("ground_truth", "labels", 4), 10**400), (("ground_truth", "labels", 9), 13)],
     "field 'ground_truth.labels[4]' must be a label of node 4 (0..12)"),
    ([(("ground_truth", "labels", 9), -2**64)],
     "field 'ground_truth.labels[9]' must be a label of node 9 (0..12)"),
    # new with the array layout: the shapes, the count and the padding
    ([(("points", 11), _DROP)],
     "field 'points' must be a list of one entry per node of the 4x3 grid"),
    ([(("source_tree",), {})],
     "field 'source_tree' must be a list of one entry per node of the 4x3 grid"),
    ([(("candidate_count", 5), [12])], "field 'candidate_count[5]' must be an integer"),
    ([(("candidate_count", 5), 12.0)], "field 'candidate_count[5]' must be an integer"),
    ([(("candidate_count", 5), 13)], "field 'candidate_count[5]' is outside 0..12"),
    ([(("candidate_count", 5), 2**64)], "field 'candidate_count[5]' is outside 0..12"),
    ([(("candidate_count", 5), 3)],
     "field 'coords[5][3][0]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [(("source_pixel", 5, 11), 2)],
     "field 'source_pixel[5][11]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [(("coords", 5, 7, 2), -0.0)],
     "field 'coords[5][7][2]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [(("confidence", 5, 4), float("nan"))],
     "field 'confidence[5][4]' is past the 3 candidates of node 5 and must be 0"),
], ids=["node-not-object", "candidate-not-object", "no-candidates", "candidates-not-list",
        "13-candidates", "x-true", "l-true", "p-true", "pixel-true", "tree-true",
        "x-10**400", "l-minus-10**400", "l-least-overflow", "pixel-float", "tree-string",
        "first-node-fault", "first-candidate-fault", "version-true", "version-float",
        "one-label", "40-labels", "13-labels", "label-minus-1", "label-past-outlier",
        "label-of-a-cut-candidate", "label-10**400", "label-minus-2**64",
        "points-short", "array-not-list", "count-list", "count-float",
        "count-13", "count-2**64", "padding-left-in-place", "padding-pixel",
        "padding-minus-zero", "padding-nan"])
def test_scene_reader_messages_are_exact(small_scene_doc, edits, message):
    doc = json.loads(json.dumps(small_scene_doc))
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        elif isinstance(target, list) and path[-1] == len(target):
            target.append(copy.deepcopy(value))
        else:
            target[path[-1]] = copy.deepcopy(value)
    with pytest.raises(SceneFormatError) as info:
        scene_from_dict(doc)
    assert str(info.value) == message


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
