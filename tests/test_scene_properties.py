"""Property test of the scene reader: mutated scene archives are either read
back exactly, and then solve to a report written as strict JSON, or are
refused with a message that names the array, field or entry at fault.

Each example first moves some values within their ranges (a candidate
count with the padding past it, a confidence, a source index, a
coordinate, a camera point, a label, the diameter, or the ground truth
dropped), so that accepted archives reach the solver, and then may break
anything: a value, a dtype, a shape, a member or a header field."""

import json
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crfpose.pipeline import (ConfigError, canonical_report,  # noqa: E402
                              desk_scale_config, solve_scene)
from crfpose.synth import (SceneFormatError, default_scenario,  # noqa: E402
                           generate_bundle, load_scene, sample_sphere_cloud, save_scene)
from test_synth import SCENE_ARRAYS, SLOT_ARRAYS, read_archive, write_archive  # noqa: E402

GROUND_TRUTH = ("ground_truth.rotation", "ground_truth.translation", "ground_truth.labels")
HEADER_FIELDS = ("format", "version", "grid_width", "grid_height", "object_diameter")


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenes")


@pytest.fixture(scope="module")
def base(scene_dir):
    # a 4x3 grid and a 40-point object cloud keep the archive small
    path = scene_dir / "base.json"
    save_scene(generate_bundle(default_scenario(
        seed=0, grid_width=4, grid_height=3, object_points=sample_sphere_cloud(40))), path)
    return read_archive(path)


def _move(header, arrays, data):
    """Move one value within its range; the archive stays valid."""
    count, labels = arrays["candidate_count"], arrays.get("ground_truth.labels")
    u = data.draw(st.integers(0, len(count) - 1))
    j = data.draw(st.integers(0, max(count[u] - 1, 0)))
    kind = data.draw(st.sampled_from(["count", "confidence", "source_pixel", "source_tree",
                                      "coords", "points", "label", "diameter", "no-truth"]))
    if kind == "count":
        count[u] = data.draw(st.integers(0, 12))
        for name in SLOT_ARRAYS:
            arrays[name][u, count[u]:] = 0
        if labels is not None:
            labels[u] = min(labels[u], count[u])
    elif kind in ("confidence", "source_pixel", "source_tree") and count[u]:
        arrays[kind][u, j] = data.draw({"confidence": st.floats(0.0, 1.0),
                                        "source_pixel": st.integers(0, 3),
                                        "source_tree": st.integers(0, 2)}[kind])
    elif kind == "coords" and count[u]:
        arrays["coords"][u, j] += data.draw(st.floats(-0.05, 0.05))
    elif kind == "points":
        arrays["points"][u] = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    elif kind == "label" and labels is not None:
        labels[u] = data.draw(st.integers(0, count[u]))
    elif kind == "diameter":
        header["object_diameter"] = data.draw(st.floats(1e-3, 10.0))
    elif kind == "no-truth":
        for name in GROUND_TRUTH:
            arrays.pop(name, None)


_FLOATS = st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
_INTEGERS = st.integers(-20, 20) | st.sampled_from([2**63 - 1, -2**63])
# header numbers are JSON: an integer past 2**53 would come back rounded, and
# +-2**64 or +-10**400 hold in no int64 or no float
_HEADER_VALUES = st.one_of(
    st.floats(), st.integers(-2**53, 2**53) | st.sampled_from([2**64, -2**64, 10**400, -10**400]),
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(0, 5), max_size=3),
    st.just({}))
_DTYPES = [np.float64, np.float32, np.int64, np.int32, bool, "<U3", object, ">f8"]


def _break(header, arrays, data):
    """Pick a header field or an array (each alike) and set, retype,
    reshape or drop it, or add a member no scene has."""
    target = data.draw(st.sampled_from(sorted(arrays) + [f"header.{k}" for k in sorted(header)]))
    if target.startswith("header."):
        key = target.removeprefix("header.")
        if data.draw(st.booleans()):
            header[key] = data.draw(_HEADER_VALUES)
        else:
            del header[key]
        return
    array = arrays[target]
    action = data.draw(st.sampled_from(["set", "dtype", "cut", "grow", "axis", "drop", "add"]))
    if action == "set" and array.size:
        index = tuple(data.draw(st.integers(0, n - 1)) for n in array.shape)
        array[index] = data.draw(_FLOATS if array.dtype.kind == "f" else _INTEGERS)
    elif action == "dtype":
        arrays[target] = array.astype(data.draw(st.sampled_from(_DTYPES)))
    elif action == "cut" and array.ndim:
        arrays[target] = array[:-1]
    elif action == "grow" and array.ndim:
        arrays[target] = np.concatenate([array, array[:1]])
    elif action == "axis":
        arrays[target] = array[..., None] if data.draw(st.booleans()) or not array.ndim \
            else array[..., 0]
    elif action == "drop":
        del arrays[target]
    elif action == "add":
        arrays["extra"] = np.zeros(3)


_TOKEN = re.compile(r"[A-Za-z_][\w.]*(?:\[\d+\])*")


def _names_the_fault(message, header, arrays):
    """Whether ``message`` names a header field or an array of the archive,
    an entry inside that array, or (when missing) one a scene may hold."""
    present = {"header", *header, *arrays}
    if any(name in arrays for name in GROUND_TRUTH):
        present.add("ground_truth")  # the pose, as "invalid pose at ground_truth"
    known = {*HEADER_FIELDS, *SCENE_ARRAYS, "object_points", *GROUND_TRUTH}
    for token in _TOKEN.findall(message):
        name, index = token.split("[")[0], [int(i) for i in re.findall(r"\[(\d+)\]", token)]
        if name not in present:
            if message.startswith("missing") and name in known:
                return True
            continue
        shape = arrays[name].shape if name in arrays else ()
        if len(index) <= len(shape) and all(i < n for i, n in zip(index, shape)):
            return True
    return False


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_scene_documents_round_trip_or_name_the_field(scene_dir, base, data):
    header, arrays = dict(base[0]), {name: array.copy() for name, array in base[1].items()}
    # casts of NaN or of large floats to integers warn; what they give is the point
    with np.errstate(all="ignore"):
        for _ in range(data.draw(st.integers(0, 3))):
            _move(header, arrays, data)
        for _ in range(data.draw(st.integers(0, 2))):
            _break(header, arrays, data)
    path = scene_dir / "mutated.json"
    write_archive(path, header, arrays)
    try:
        bundle = load_scene(path)
    except SceneFormatError as exc:
        event("refused")
        assert _names_the_fault(str(exc), header, arrays), str(exc)
        return
    event("accepted")
    # read back exactly: the same header values and the same arrays, bit for bit
    again = scene_dir / "again.json"
    save_scene(bundle, again)
    saved_header, saved = read_archive(again)
    assert saved_header == header
    assert list(saved) == list(arrays)
    for name, array in arrays.items():
        assert (saved[name].dtype, saved[name].shape, saved[name].tobytes()) \
            == (array.dtype, array.shape, array.tobytes()), name
    try:
        report = solve_scene(bundle, desk_scale_config())
    except ConfigError:
        assert bundle.object_points is None
        return
    # canonical_report raises on a NaN or an infinity; loading it back
    # refuses any token that strict JSON does not have
    text = canonical_report(report)
    assert canonical_report(json.loads(text, parse_constant=_refuse)) == text


def _refuse(token):
    raise ValueError(f"non-JSON token {token}")
