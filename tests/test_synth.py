import hashlib
import io
import json
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from crfpose.model import ContractViolation
from crfpose.posemodel import MAX_CANDIDATES
from crfpose.synth import (MAX_OBJECT_POINTS, SceneFormatError,
                           UnsupportedVersionError, default_scenario,
                           generate_bundle, generate_scene, load_scene,
                           load_xyz, object_diameter, sample_box_cloud,
                           sample_sphere_cloud, save_scene, scenario_from_dict)


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


def archive_digest(path) -> str:
    """sha256 over each array of a scene archive, header text included, as
    (name, dtype, shape) and data bytes in archive order.  It pins what a
    scene file holds without the zip layout, which may differ between numpy
    and Python versions."""
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as archive:
        for name in archive.files:
            array = archive[name]
            digest.update(repr((name, array.dtype.str, array.shape)).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("overrides, digest", [
    ({}, "7d21cc350a3072cf920b00dbd558f99ede6a3d9f291a20a77913ecf51cfc2872"),
    # the desk scenario
    (dict(inlier_rate=0.85, visible_fraction=0.8, coord_noise_sigma=1e-4),
     "66670c0520232614469dc504f111d28cce2a8f8dcc87beea44edc7a587dbba92"),
], ids=["default", "desk"])
def test_scene_file_bytes_are_pinned(tmp_path, overrides, digest):
    path = tmp_path / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=0, **overrides)), path)
    assert archive_digest(path) == digest


#: the per-slot arrays, padded with 0 past each node's candidate count
SLOT_ARRAYS = ("coords", "confidence", "source_pixel", "source_tree")
DROP = object()  # deletes the member or header field instead of setting it


def read_archive(path) -> tuple[dict, dict]:
    """(header, arrays) of a scene archive, in member order, read by numpy alone."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return json.loads(str(arrays.pop("header"))), arrays


def write_archive(path, header, arrays):
    """A scene archive laid out as ``save_scene`` lays it out, of any header
    (a dict, or its text) and arrays, object arrays too (``np.savez``
    pickles them)."""
    text = header if isinstance(header, str) else json.dumps(header)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(text), **arrays)


def _put(array, index, value):
    array[index] = value
    return array


def edited(header, arrays, edits):
    """Copies of ``header`` and ``arrays`` with each ``(name, index, value)``
    of ``edits`` applied: header field ``index`` if ``name`` is "header",
    else entry ``index`` of array ``name``, or with an index of None the
    whole array, replaced by ``value(array)`` (None for a new one).  A
    value of ``DROP`` deletes the field or the array."""
    header, arrays = dict(header), {name: array.copy() for name, array in arrays.items()}
    for name, index, value in edits:
        target = header if name == "header" else arrays
        key = index if name == "header" else name
        if value is DROP:
            del target[key]
        elif name == "header":
            header[index] = value
        elif index is None:
            arrays[name] = value(arrays.get(name))
        else:
            arrays[name][index] = value
    return header, arrays


def cut(node, kept):
    """Edits that keep the first ``kept`` candidates of ``node``, the rest 0."""
    return [("candidate_count", node, kept)] + [
        (name, (node, slice(kept, None)), 0) for name in SLOT_ARRAYS]


def test_scene_with_fewer_candidates_round_trips(tmp_path):
    path = tmp_path / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=10, grid_width=20, grid_height=15)), path)
    edits = [e for node, kept in ((0, 0), (5, 1), (7, 11)) for e in cut(node, kept)]
    # each cut node's label becomes its outlier, 12 before
    edits += [("ground_truth.labels", node, kept) for node, kept in ((0, 0), (5, 1), (7, 11))]
    write_archive(path, *edited(*read_archive(path), edits))
    scene = load_scene(path).observation
    assert scene.candidate_count[[0, 5, 7, 8]].tolist() == [0, 1, 11, 12]
    assert not scene.coords[5, 1:].any() and not scene.confidence[7, 11:].any()
    # written back byte for byte
    again = tmp_path / "again.json"
    save_scene(load_scene(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_scene_without_extras_round_trips(tmp_path):
    bundle = generate_bundle(default_scenario(seed=0, grid_width=4, grid_height=3))
    path = tmp_path / "scene.json"
    save_scene(replace(bundle, object_points=None, ground_truth=None), path)
    assert list(read_archive(path)[1]) == list(SCENE_ARRAYS)
    loaded = load_scene(path)
    assert loaded.object_points is None and loaded.ground_truth is None
    assert_same_scene(loaded.observation, bundle.observation)


def test_scene_file_holds_the_padded_arrays(tmp_path):
    bundle = generate_bundle(default_scenario(seed=0, grid_width=4, grid_height=3))
    path = tmp_path / "scene.json"
    save_scene(bundle, path)
    header, arrays = read_archive(path)
    assert header == {"format": "crfpose-scene", "version": 3, "grid_width": 4,
                      "grid_height": 3, "object_diameter": bundle.observation.object_diameter}
    assert list(arrays) == [*SCENE_ARRAYS, "object_points", "ground_truth.rotation",
                            "ground_truth.translation", "ground_truth.labels"]
    for name in SCENE_ARRAYS:
        expected = getattr(bundle.observation, name)
        assert arrays[name].dtype == expected.dtype and np.array_equal(arrays[name], expected)
    assert arrays["ground_truth.labels"].tolist() == list(bundle.ground_truth.labels)
    # stored, with numpy's fixed 1980 timestamp: the same bytes on every save
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            assert info.compress_type == zipfile.ZIP_STORED, info.filename
            assert info.date_time == (1980, 1, 1, 0, 0, 0), info.filename


@pytest.fixture(scope="module")
def wide_scene(tmp_path_factory):
    """(header, arrays) of a 20x15 scene."""
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=10, grid_width=20, grid_height=15)), path)
    return read_archive(path)


def test_scene_missing_field_names_the_field(tmp_path, wide_scene):
    path = tmp_path / "scene.json"
    for edit, message in [
            (("points", None, DROP), r"^missing array 'points'$"),
            (("confidence", None, lambda a: a[:, :11]),
             r"^array 'confidence' must be float64 of shape \(300, 12\), "
             r"not float64 of shape \(300, 11\)$"),
            (("header", "grid_width", DROP), r"^missing required field 'grid_width'$")]:
        write_archive(path, *edited(*wide_scene, [edit]))
        with pytest.raises(SceneFormatError, match=message):
            load_scene(path)


def test_scene_version_mismatch(tmp_path, wide_scene):
    path = tmp_path / "scene.json"
    write_archive(path, *edited(*wide_scene, [("header", "version", 99)]))
    with pytest.raises(UnsupportedVersionError,
                       match="^unsupported scene version 99; this build reads version 3$"):
        load_scene(path)
    write_archive(path, *edited(*wide_scene, [("header", "format", "something-else")]))
    with pytest.raises(SceneFormatError, match="^field 'format' must be 'crfpose-scene'$"):
        load_scene(path)


#: a version-1 document: one dict per node and per candidate
VERSION_1_SCENE = {
    "format": "crfpose-scene", "version": 1, "grid_width": 1, "grid_height": 1,
    "object_diameter": 0.05,
    "nodes": [{"x": [0.0, 0.0, 1.0],
               "candidates": [{"l": [0.0, 0.0, 0.0], "p": 0.9, "pixel": 2, "tree": 1}]}],
}
#: a version-2 document: the six arrays as nested JSON lists
VERSION_2_SCENE = {
    "format": "crfpose-scene", "version": 2, "grid_width": 1, "grid_height": 1,
    "object_diameter": 0.05, "points": [[0.0, 0.0, 1.0]], "candidate_count": [1],
    "coords": [[[0.0] * 3] * 12], "confidence": [[0.9] + [0.0] * 11],
    "source_pixel": [[2] + [0] * 11], "source_tree": [[1] + [0] * 11],
}


def assert_json_scene_refused(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    with pytest.raises(UnsupportedVersionError) as info:
        load_scene(path)
    assert str(info.value) == (
        f"{path} is a JSON scene file (version 1 or 2); this build reads version 3 (.npz): "
        "regenerate it with 'crfpose generate'")


def test_version_1_scene_is_refused(tmp_path):
    assert_json_scene_refused(tmp_path, VERSION_1_SCENE)


def test_version_2_scene_is_refused(tmp_path):
    assert_json_scene_refused(tmp_path, VERSION_2_SCENE)


@pytest.mark.parametrize("data", [b"", b"PK\x03\x04 a cut zip", b"\x93NUMPY one array"],
                         ids=["empty", "cut-zip", "npy"])
def test_scene_file_that_is_not_a_zip_is_refused(tmp_path, data):
    path = tmp_path / "scene.npz"
    path.write_bytes(data)
    with pytest.raises(SceneFormatError) as info:
        load_scene(path)
    assert str(info.value) == f"{path} is not a scene file (a .npz archive)"


def test_scene_malformed_json_reports_line(tmp_path, wide_scene):
    path = tmp_path / "scene.json"
    write_archive(path, '{"format": "crfpose-scene",\n  broken\n}', wide_scene[1])
    with pytest.raises(SceneFormatError, match=r"^array 'header': not valid JSON \(.*line 2"):
        load_scene(path)


def _member_bytes(array=None, header=None, data=b""):
    """A ``.npy`` member of ``array``, or of a ``.npy`` header dict and raw data."""
    out = io.BytesIO()
    if array is not None:
        np.lib.format.write_array(out, array)
    else:
        np.lib.format.write_array_header_1_0(out, header)
        out.write(data)
    return out.getvalue()


def test_members_are_checked_before_their_data_is_read(tmp_path, wide_scene):
    header, arrays = wide_scene
    members = {"header": _member_bytes(np.array(json.dumps(header))),
               **{name: _member_bytes(array) for name, array in arrays.items()}}
    path = tmp_path / "scene.json"

    def refusal(**replaced):
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in {**members, **replaced}.items():
                archive.writestr(f"{name}.npy", data)
        with pytest.raises(SceneFormatError) as info:
            load_scene(path)
        return str(info.value)

    coords = {"descr": "<f8", "fortran_order": False, "shape": (300, 12, 3)}
    # a header that claims 10**12 rows in 100 bytes is refused before any
    # allocation; so is one whose data is cut short
    assert refusal(coords=_member_bytes(header={**coords, "shape": (10**12, 12, 3)},
                                        data=b"\0" * 100)) == (
        "array 'coords' must be float64 of shape (300, 12, 3), "
        "not float64 of shape (1000000000000, 12, 3)")
    assert refusal(coords=_member_bytes(header=coords, data=b"\0" * 100)) == (
        "array 'coords' cannot be read: EOF: reading array data, expected 86400 bytes got 100")
    # a member longer than its array and a .npy header can take
    assert refusal(points=members["points"] + b"\0" * 1024) == (
        "array 'points' must be stored in <= 8224 bytes")
    assert refusal(header=_member_bytes(np.array("x" * 2000))) == (
        "array 'header' must be <U1024 of shape (), not <U2000 of shape ()")
    # only version 1.0 .npy headers are read
    assert refusal(points=b"\x93NUMPY\x02\x00" + members["points"][8:]) == (
        "array 'points' cannot be read: only version 1.0 .npy headers are read")
    assert refusal(points=b"not a .npy member").startswith("array 'points' cannot be read: ")


def test_compressed_scene_is_refused(tmp_path, wide_scene):
    path = tmp_path / "scene.json"
    header, arrays = wide_scene
    with open(path, "wb") as fh:
        np.savez_compressed(fh, header=np.array(json.dumps(header)), **arrays)
    with pytest.raises(SceneFormatError,
                       match=r"^array 'header' must be stored uncompressed$"):
        load_scene(path)


def test_confidence_out_of_range_rejected(tmp_path, wide_scene):
    path = tmp_path / "scene.json"
    write_archive(path, *edited(*wide_scene, [("confidence", (0, 0), 1.5)]))
    with pytest.raises(SceneFormatError, match=r"'confidence\[0\]\[0\]' is outside \[0,1\]"):
        load_scene(path)


def _objects(index, value):
    """The array as Python objects, with ``value`` at ``index``: what a
    pickled member would carry."""
    return lambda a: _put(a.astype(object), index, value)


_INT64_MAX, _INT64_MIN = 2**63 - 1, -2**63
_COLLINEAR = np.array([[0.001 * k, 0.002 * k, -0.001 * k] for k in range(50)])


@pytest.mark.parametrize("edit, message", [
    (("points", (3, 0), float("nan")), r"'points\[3\]' is not finite"),
    (("coords", (0, 2, 1), float("inf")), r"'coords\[0\]\[2\]' is not finite"),
    (("header", "object_diameter", float("inf")), "object_diameter must be positive and finite"),
    (("object_points", (0, 0), float("nan")), "object_points' must be finite and fix"),
    (("ground_truth.rotation", (1, 2), float("nan")),
     "invalid pose at ground_truth: rotation is not finite"),
    (("ground_truth.translation", 0, float("nan")),
     r"ground_truth: translation is not finite"),
    (("ground_truth.translation", 2, float("-inf")),
     r"ground_truth: translation is not finite"),
    # wrong shapes and dtypes, which name the array
    (("points", None, lambda a: a[:, :2]),
     r"^array 'points' must be float64 of shape \(300, 3\), not float64 of shape \(300, 2\)$"),
    (("points", None, lambda a: np.hstack([a, a[:, :1]])),
     r"^array 'points' must be float64 of shape \(300, 3\), not float64 of shape \(300, 4\)$"),
    (("coords", None, lambda a: a[..., :2]),
     r"^array 'coords' must be float64 of shape \(300, 12, 3\), not float64 of shape "
     r"\(300, 12, 2\)$"),
    (("coords", None, lambda a: np.concatenate([a, a[..., :1]], axis=2)),
     r"not float64 of shape \(300, 12, 4\)$"),
    (("coords", None, lambda a: a.astype(str)),
     r"^array 'coords' must be float64 of shape \(300, 12, 3\), not <U32 of shape"),
    (("confidence", None, lambda a: a.astype(str)),
     r"^array 'confidence' must be float64 of shape \(300, 12\), not <U32"),
    (("source_pixel", None, lambda a: _put(a.astype(float), (5, 2), 1.7)),
     r"^array 'source_pixel' must be int64 of shape \(300, 12\), not float64"),
    (("header", "grid_width", "x"), "^field 'grid_width' must be an integer$"),
    (("ground_truth.labels", None, lambda a: a.astype(str)),
     r"^array 'ground_truth\.labels' must be int64 of shape \(300,\), not <U21"),
    (("ground_truth.labels", None, lambda a: _put(a.astype(float), 3, 2.5)),
     r"^array 'ground_truth\.labels' must be int64 of shape \(300,\), not float64"),
    (("ground_truth.labels", None, lambda a: a.astype(np.int32)),
     r"^array 'ground_truth\.labels' must be int64 of shape \(300,\), not int32"),
    (("ground_truth.labels", None, lambda a: np.array(12)),
     r"^array 'ground_truth\.labels' must be int64 of shape \(300,\), not int64 of shape \(\)$"),
    (("object_points", None, lambda a: a[:, :2]),
     r"^array 'object_points' must be float64 of shape \(<=100000, 3\), not float64 of shape "
     r"\(300, 2\)$"),
    (("object_points", None, lambda a: a.astype(str)),
     r"^array 'object_points' must be float64 of shape \(<=100000, 3\), not <U"),
    (("object_points", None, lambda a: a[:0]), "object_points' must be finite and fix a rotation"),
    # one point, or 50 collinear ones, cannot fix a rotation; both used to
    # load and score correct: true
    (("object_points", None, lambda a: np.array([[0.01, 0.02, 0.03]])),
     "object_points' must be finite and fix"),
    (("object_points", None, lambda a: _COLLINEAR),
     "object_points' must be finite and fix a rotation"),
    # its column sum overflows; this exited 1 with "SVD did not converge"
    (("object_points", None, lambda a: np.array([[1.7e308, 0, 0], [1.7e308, 1, 0], [0, 0, 1]])),
     "object_points' must be finite and fix a rotation"),
    # Python integers a float cannot hold only come as pickled objects,
    # refused by dtype before anything is unpickled
    (("object_points", None, _objects((1, 2), 10**400)),
     r"^array 'object_points' must be float64 of shape \(<=100000, 3\), not object of shape"),
    (("confidence", None, _objects((5, 2), -10**400)),
     r"^array 'confidence' must be float64 of shape \(300, 12\), not object"),
    # the int64 extremes are indices like any other
    (("source_pixel", (5, 2), _INT64_MAX), r"^field 'source_pixel\[5\]\[2\]' is outside 0\.\.3$"),
    (("source_tree", (5, 2), _INT64_MIN), r"^field 'source_tree\[5\]\[2\]' is outside 0\.\.2$"),
    # a cloud past MAX_OBJECT_POINTS is refused by its .npy header
    (("object_points", None, lambda a: np.zeros((MAX_OBJECT_POINTS + 1, 3))),
     rf"^array 'object_points' must be float64 of shape \(<={MAX_OBJECT_POINTS}, 3\), "
     rf"not float64 of shape \({MAX_OBJECT_POINTS + 1}, 3\)$"),
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
    "object_points-past-the-limit",
])
def test_non_finite_scene_input_rejected(tmp_path, wide_scene, edit, message):
    path = tmp_path / "scene.json"
    write_archive(path, *edited(*wide_scene, [edit]))
    with pytest.raises(SceneFormatError, match=message):
        load_scene(path)


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    """(header, arrays) of a 4x3 scene."""
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(generate_bundle(default_scenario(seed=0, grid_width=4, grid_height=3)), path)
    return read_archive(path)


_CUT = cut(5, 3)
_FLOAT32 = lambda a: a.astype(np.float32)  # noqa: E731


@pytest.mark.parametrize("edits, message", [
    ([("points", None, lambda a: a[:, 0])],
     "array 'points' must be float64 of shape (12, 3), not float64 of shape (12,)"),
    ([("coords", None, lambda a: a[..., 0])],
     "array 'coords' must be float64 of shape (12, 12, 3), not float64 of shape (12, 12)"),
    ([("coords", None, DROP)], "missing array 'coords'"),
    ([("coords", None, lambda a: a[0, 0, 0])],
     "array 'coords' must be float64 of shape (12, 12, 3), not float64 of shape ()"),
    ([("coords", None, lambda a: np.concatenate([a, a[:, :1]], axis=1))],
     "array 'coords' must be float64 of shape (12, 12, 3), not float64 of shape (12, 13, 3)"),
    ([("points", None, lambda a: a > 0)],
     "array 'points' must be float64 of shape (12, 3), not bool of shape (12, 3)"),
    ([("coords", None, lambda a: a > 0)],
     "array 'coords' must be float64 of shape (12, 12, 3), not bool of shape (12, 12, 3)"),
    ([("confidence", None, lambda a: a > 0)],
     "array 'confidence' must be float64 of shape (12, 12), not bool of shape (12, 12)"),
    ([("source_pixel", None, lambda a: a > 0)],
     "array 'source_pixel' must be int64 of shape (12, 12), not bool of shape (12, 12)"),
    ([("source_tree", None, lambda a: a > 0)],
     "array 'source_tree' must be int64 of shape (12, 12), not bool of shape (12, 12)"),
    ([("points", None, _objects((5, 2), 10**400))],
     "array 'points' must be float64 of shape (12, 3), not object of shape (12, 3)"),
    ([("coords", None, _objects((5, 2, 1), -10**400))],
     "array 'coords' must be float64 of shape (12, 12, 3), not object of shape (12, 12, 3)"),
    # integers in a float array, even ones a float holds exactly
    ([("coords", None, lambda a: _put(a.astype(np.int64), (5, 2, 1), 2**53))],
     "array 'coords' must be float64 of shape (12, 12, 3), not int64 of shape (12, 12, 3)"),
    ([("source_pixel", None, lambda a: a.astype(float))],
     "array 'source_pixel' must be int64 of shape (12, 12), not float64 of shape (12, 12)"),
    ([("source_tree", None, lambda a: a.astype(str))],
     "array 'source_tree' must be int64 of shape (12, 12), not <U21 of shape (12, 12)"),
    # the first fault in array order is the one reported
    ([("source_tree", (5, 0), 7), ("source_tree", (4, 11), 5)],
     "field 'source_tree[4][11]' is outside 0..2"),
    ([("confidence", None, _FLOAT32), ("coords", None, _FLOAT32)],
     "array 'coords' must be float64 of shape (12, 12, 3), not float32 of shape (12, 12, 3)"),
    # the version is an integer field like any other
    ([("header", "version", True)], "field 'version' must be an integer"),
    ([("header", "version", 3.0)], "field 'version' must be an integer"),
    # one label per node, each a candidate or the outlier
    ([("ground_truth.labels", None, lambda a: a[:1])],
     "array 'ground_truth.labels' must be int64 of shape (12,), not int64 of shape (1,)"),
    ([("ground_truth.labels", None, lambda a: np.full(40, -5))],
     "array 'ground_truth.labels' must be int64 of shape (12,), not int64 of shape (40,)"),
    ([("ground_truth.labels", None, lambda a: np.append(a, 0))],
     "array 'ground_truth.labels' must be int64 of shape (12,), not int64 of shape (13,)"),
    ([("ground_truth.labels", 4, -1)],
     "field 'ground_truth.labels[4]' must be a label of node 4 (0..12)"),
    ([("ground_truth.labels", 6, 13)],
     "field 'ground_truth.labels[6]' must be a label of node 6 (0..12)"),
    (cut(6, 0), "field 'ground_truth.labels[6]' must be a label of node 6 (0..0)"),
    ([("ground_truth.labels", 4, _INT64_MAX), ("ground_truth.labels", 9, 13)],
     "field 'ground_truth.labels[4]' must be a label of node 4 (0..12)"),
    ([("ground_truth.labels", 9, _INT64_MIN)],
     "field 'ground_truth.labels[9]' must be a label of node 9 (0..12)"),
    # the shapes follow the header's grid; the count and the padding
    ([("points", None, lambda a: a[:11])],
     "array 'points' must be float64 of shape (12, 3), not float64 of shape (11, 3)"),
    ([("source_tree", None, lambda a: a[0, 0])],
     "array 'source_tree' must be int64 of shape (12, 12), not int64 of shape ()"),
    ([("candidate_count", None, lambda a: a[:, None])],
     "array 'candidate_count' must be int64 of shape (12,), not int64 of shape (12, 1)"),
    ([("candidate_count", None, lambda a: a.astype(float))],
     "array 'candidate_count' must be int64 of shape (12,), not float64 of shape (12,)"),
    ([("candidate_count", 5, 13)], "field 'candidate_count[5]' is outside 0..12"),
    ([("candidate_count", 5, _INT64_MAX)], "field 'candidate_count[5]' is outside 0..12"),
    ([("candidate_count", 5, 3)],
     "field 'coords[5][3][0]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [("source_pixel", (5, 11), 2)],
     "field 'source_pixel[5][11]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [("coords", (5, 7, 2), -0.0)],
     "field 'coords[5][7][2]' is past the 3 candidates of node 5 and must be 0"),
    (_CUT + [("confidence", (5, 4), float("nan"))],
     "field 'confidence[5][4]' is past the 3 candidates of node 5 and must be 0"),
    # new with the archive: members, the header and its bounds, byte order
    ([("extra", None, lambda _: np.zeros(3))], "unknown array 'extra'"),
    ([("ground_truth.rotation", None, DROP)], "missing array 'ground_truth.rotation'"),
    ([("ground_truth.labels", None, lambda a: a.astype(object))],
     "array 'ground_truth.labels' must be int64 of shape (12,), not object of shape (12,)"),
    ([("coords", None, lambda a: a.astype(">f8"))],
     "array 'coords' must be float64 of shape (12, 12, 3), not >f8 of shape (12, 12, 3)"),
    ([("header", "format", 3)], "field 'format' must be a string"),
    ([("header", "version", 10**400)],
     "unsupported scene version 10000000...0000 (401 characters); this build reads version 3"),
    ([("header", "grid_width", 10**400)],
     "field 'grid_width' must be <= 1024, not 10000000...0000 (401 characters)"),
    ([("header", "grid_width", 1025)], "field 'grid_width' must be <= 1024, not 1025"),
    ([("header", "grid_height", 0)], "field 'grid_height' must be >= 1, not 0"),
    ([("header", "grid_height", -10**400)],
     "field 'grid_height' must be >= 1, not -1000000...0000 (402 characters)"),
    ([("header", "grid_width", 3)],
     "array 'points' must be float64 of shape (9, 3), not float64 of shape (12, 3)"),
    ([("header", "object_diameter", DROP)], "missing required field 'object_diameter'"),
    ([("header", "object_diameter", "0.05")], "field 'object_diameter' must be a number"),
    ([("header", "object_diameter", 10**400)],
     "field 'object_diameter' holds an integer too large for a float"),
    # 2**1024 - 2**970 is the least integer magnitude float() refuses: one
    # less is read, so the fault reported is the count's
    ([("header", "object_diameter", 2**1024 - 2**970)],
     "field 'object_diameter' holds an integer too large for a float"),
    ([("header", "object_diameter", -(2**1024 - 2**970))],
     "field 'object_diameter' holds an integer too large for a float"),
    ([("header", "object_diameter", 2**1024 - 2**970 - 1), ("candidate_count", 5, 13)],
     "field 'candidate_count[5]' is outside 0..12"),
], ids=["node-not-object", "candidate-not-object", "no-candidates", "candidates-not-list",
        "13-candidates", "x-true", "l-true", "p-true", "pixel-true", "tree-true",
        "x-10**400", "l-minus-10**400", "coords-int64", "pixel-float", "tree-string",
        "first-node-fault", "first-candidate-fault", "version-true", "version-float",
        "one-label", "40-labels", "13-labels", "label-minus-1", "label-past-outlier",
        "label-of-a-cut-candidate", "label-10**400", "label-minus-2**64",
        "points-short", "array-not-list", "count-list", "count-float",
        "count-13", "count-2**64", "padding-left-in-place", "padding-pixel",
        "padding-minus-zero", "padding-nan",
        "unknown-array", "rotation-without-labels", "pickled-labels", "big-endian",
        "format-not-string", "version-10**400", "grid-10**400", "grid-past-limit", "grid-0",
        "grid-minus-10**400", "grid-of-other-size", "no-diameter", "diameter-string",
        "diameter-10**400", "l-least-overflow", "diameter-minus-least-overflow",
        "diameter-below-overflow"])
def test_scene_reader_messages_are_exact(tmp_path, small_scene, edits, message):
    path = tmp_path / "scene.json"
    write_archive(path, *edited(*small_scene, edits))
    with pytest.raises(SceneFormatError) as info:
        load_scene(path)
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
