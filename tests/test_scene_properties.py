"""Property test of the scene reader: mutated scene documents are either read
back exactly, and then solve to a report written as strict JSON, or are
refused with a message that names where the fault is."""

import copy
import functools
import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crfpose.pipeline import canonical_report, desk_scale_config, solve_scene  # noqa: E402
from crfpose.synth import (SceneFormatError, UnsupportedVersionError,  # noqa: E402
                           default_scenario, generate_bundle, sample_sphere_cloud,
                           scene_from_dict, scene_to_dict)


@functools.lru_cache(maxsize=None)
def _base_doc():
    # a 4x3 grid and a 40-point object cloud keep the document small
    return scene_to_dict(generate_bundle(default_scenario(
        seed=0, grid_width=4, grid_height=3, object_points=sample_sphere_cloud(40))))


# Numbers in float fields are read as floats, so an integer past 2**53 would
# come back rounded. Integers are drawn exactly representable as floats: up to
# 2**53, or +-2**64, which no int64 holds; or +-10**400, which no float holds.
_INTEGERS = st.integers(-2**53, 2**53) | st.sampled_from([2**64, -2**64, 10**400, -10**400])
_VALUES = st.one_of(
    st.floats(), _INTEGERS, st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.floats(-10, 10) | _INTEGERS, max_size=4),
    st.just({}))


def _locations(value, keys=()):
    """(pattern, keys) of every value below ``value``; the pattern is the
    key path without list indices, e.g. ``.coords[][][]``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        path = keys + (key,)
        yield "".join("[]" if isinstance(k, int) else f".{k}" for k in path), path
        yield from _locations(item, path)


def _mutate(doc, data):
    """Pick a kind of field (every kind alike, so a candidate's pixel is as
    likely as the format), then one value of that kind, and replace, drop or
    duplicate it, or cut the list it sits in short."""
    by_pattern = {}
    for pattern, keys in _locations(doc):
        by_pattern.setdefault(pattern, []).append(keys)
    keys = data.draw(st.sampled_from(by_pattern[data.draw(st.sampled_from(sorted(by_pattern)))]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    key, node = keys[-1], parent[keys[-1]]
    action = data.draw(st.sampled_from(["set", "drop", "grow", "cut"]))
    if action == "set":
        parent[key] = data.draw(_VALUES)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        if action == "grow":
            parent.append(copy.deepcopy(node))
        else:
            del parent[key:]


def _paths(value, path=""):
    """Every field path of a document, spelled as the reader spells them."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, f"{path}[{i}]")


_PATH = re.compile(r"[A-Za-z_]\w*(?:\[\d+\])*(?:\.\w+(?:\[\d+\])*)*")


def _names_a_present_path(message, doc):
    present = set(_paths(doc))
    for token in _PATH.findall(message):
        if token in present:
            return True
        # a missing field is named by its own path, under a present parent
        parent = re.sub(r"(?:\.\w+|\[\d+\])$", "", token) if "." in token or "[" in token else ""
        if message.startswith("missing required field") and parent in present:
            return True
    return False


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_scene_documents_round_trip_or_name_the_field(data):
    doc = copy.deepcopy(_base_doc())
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        bundle = scene_from_dict(doc)
    except (SceneFormatError, UnsupportedVersionError) as exc:
        assert _names_a_present_path(str(exc), doc), str(exc)
    else:
        assert scene_to_dict(bundle) == doc
        # canonical_report raises on a NaN or an infinity; loading it back
        # refuses any token that strict JSON does not have
        text = canonical_report(solve_scene(bundle, desk_scale_config()))
        assert canonical_report(json.loads(text, parse_constant=_refuse)) == text


def _refuse(token):
    raise ValueError(f"non-JSON token {token}")
