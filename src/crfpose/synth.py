"""Synthetic scenes standing in for per-pixel forest predictions.

A scenario plants an object (point cloud + true pose) into a node grid:
nodes covered by the visible part of the object carry a noisy correct
candidate with probability ``inlier_rate`` among uniformly wrong ones,
background and occluded nodes carry only wrong candidates, and camera points
come from the posed object or from a clutter plane behind it.  Everything is
deterministic in the scenario seed.

A scene file (version 3) is one uncompressed ``.npz``: a JSON header
(format, version, grid, diameter), the six ``SceneObservation`` arrays
under their own names, and the optional object cloud and ground truth.
``load_scene`` checks each array's size, dtype and shape before reading it;
``SceneObservation`` checks the ranges.  ``_field`` reads header and
scenario values.  A refusal names the array, field or entry at fault, e.g.
``coords``, ``grid_width`` or ``confidence[5][2]``.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .model import INF, ContractViolation
from .posemodel import _SCENE_ARRAYS, MAX_CANDIDATES, SceneObservation
from .posefit import Pose, fixes_rotation, random_rotation

SCENE_FORMAT = "crfpose-scene"
SCENE_VERSION = 3
#: the largest grid side and object cloud a scene or scenario file may give:
#: room for the paper's 160x120 grid and a 20,000-point cloud
MAX_GRID_SIDE = 1024
MAX_OBJECT_POINTS = 100_000

#: fraction of the grid's smaller span the object is scaled to occupy
_GRID_FILL = 0.62


class SceneFormatError(ValueError):
    """A scene or scenario document is malformed; the message names the field."""


class UnsupportedVersionError(SceneFormatError):
    pass


@dataclass(frozen=True)
class ConfidenceModel:
    """Clipped-normal confidence draws in three bands.

    Confidences mostly act as a per-pixel objectness score (a soft
    segmentation): every candidate of a visibly-on-object node draws high,
    background and occluded nodes draw low.  Correct candidates draw from a
    slightly higher band than wrong on-object ones so that the best-scoring
    candidate at a node is its correct one.
    """

    true_mean: float = 0.95
    object_mean: float = 0.75
    background_mean: float = 0.10
    spread: float = 0.03

    def __post_init__(self):
        # written so that NaN fails the test
        if not all(-INF < getattr(self, f.name) < INF for f in fields(self)) or self.spread < 0:
            raise ContractViolation("confidence values must be finite and spread >= 0")

    def draw(self, rng: np.random.Generator, band: str) -> float:
        mean = {"true": self.true_mean, "object": self.object_mean,
                "background": self.background_mean}[band]
        return float(np.clip(rng.normal(mean, self.spread), 0.0, 1.0))


def object_diameter(points: np.ndarray) -> float:
    """Exact max pairwise distance (small clouds; quadratic is fine)."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ContractViolation("need at least two object points")
    best = 0.0
    for i in range(points.shape[0] - 1):
        d = np.linalg.norm(points[i + 1:] - points[i], axis=1).max()
        best = max(best, float(d))
    return best


def sample_sphere_cloud(count: int = 300, radius: float = 0.025) -> np.ndarray:
    """Deterministic Fibonacci-lattice sphere surface."""
    i = np.arange(count, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return radius * np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sample_box_cloud(count: int = 300, extents=(0.04, 0.03, 0.02),
                     seed: int = 0) -> np.ndarray:
    """Random points on a box surface."""
    rng = np.random.default_rng(seed)
    ex = np.asarray(extents, dtype=float)
    pts = rng.uniform(-0.5, 0.5, size=(count, 3)) * ex
    face = rng.integers(0, 3, size=count)
    side = rng.integers(0, 2, size=count)
    for k in range(count):
        pts[k, face[k]] = (side[k] - 0.5) * ex[face[k]]
    return pts


def load_xyz(path) -> np.ndarray:
    """Whitespace-separated x y z per line."""
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise SceneFormatError(f"{path}:{ln}: expected three columns")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise SceneFormatError(f"{path}:{ln}: non-numeric value") from None
    if not rows:
        raise SceneFormatError(f"{path}: no points")
    return np.array(rows)


@dataclass
class SyntheticScenario:
    object_points: np.ndarray
    true_pose: Pose
    grid_width: int = 32
    grid_height: int = 24
    visible_fraction: float = 0.8
    inlier_rate: float = 0.75
    coord_noise_sigma: float = 1e-4
    depth_noise_sigma: float = 0.0
    confidence_model: ConfidenceModel = field(default_factory=ConfidenceModel)
    rng_seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every test
        self.object_points = np.asarray(self.object_points, dtype=float)
        if not fixes_rotation(self.object_points):
            raise ContractViolation("the object cloud must be finite and fix a rotation "
                                    "(three or more points, not all on one line)")
        if not min(self.grid_width, self.grid_height) >= 1:
            raise ContractViolation("grid_width and grid_height must be >= 1")
        for name in ("visible_fraction", "inlier_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractViolation(f"{name} outside [0,1]")
        for name in ("coord_noise_sigma", "depth_noise_sigma"):
            if not 0.0 <= getattr(self, name) < INF:
                raise ContractViolation(f"{name} must be finite and >= 0")

    @property
    def diameter(self) -> float:
        # always recomputed from the cloud, never stored
        return object_diameter(self.object_points)


def default_scenario(seed: int = 0, **overrides) -> SyntheticScenario:
    """Sphere object with a seed-derived random pose; keyword overrides."""
    pose_rng = np.random.default_rng([seed, 0xC0FFEE])
    pose = Pose(random_rotation(pose_rng),
                np.array([0.0, 0.0, 1.0]) + pose_rng.uniform(-0.05, 0.05, 3))
    return SyntheticScenario(**{"object_points": sample_sphere_cloud(), "true_pose": pose,
                                "rng_seed": seed, **overrides})


def generate_scene(sc: SyntheticScenario) -> tuple[SceneObservation, tuple[int, ...]]:
    """Build the observation and the ground-truth labeling (outlier = last label)."""
    rng = np.random.default_rng(sc.rng_seed)
    diameter = sc.diameter
    cam = sc.true_pose.apply(sc.object_points)
    w, h = sc.grid_width, sc.grid_height
    cx, cy = cam[:, 0].mean(), cam[:, 1].mean()
    span_x = max(cam[:, 0].max() - cam[:, 0].min(), 1e-9)
    span_y = max(cam[:, 1].max() - cam[:, 1].min(), 1e-9)
    spacing = max(span_x / (_GRID_FILL * max(w - 1, 1)),
                  span_y / (_GRID_FILL * max(h - 1, 1)))

    def node_center(r, c):
        return (cx + (c - (w - 1) / 2.0) * spacing,
                cy + (r - (h - 1) / 2.0) * spacing)

    # object points -> nearest node; per node keep the laterally closest point
    anchor: dict[int, int] = {}
    anchor_d: dict[int, float] = {}
    for k in range(cam.shape[0]):
        c = round((cam[k, 0] - cx) / spacing + (w - 1) / 2.0)
        r = round((cam[k, 1] - cy) / spacing + (h - 1) / 2.0)
        if not (0 <= r < h and 0 <= c < w):
            continue
        u = r * w + c
        gx, gy = node_center(r, c)
        d = (cam[k, 0] - gx) ** 2 + (cam[k, 1] - gy) ** 2
        if u not in anchor or d < anchor_d[u]:
            anchor[u] = k
            anchor_d[u] = d
    object_nodes = sorted(anchor)
    if not object_nodes:
        raise ContractViolation("degenerate scenario: object covers no grid node")

    # occlusion is spatially coherent: sweep a random direction across the
    # blob and keep the first visible_fraction of nodes
    n_visible = int(round(sc.visible_fraction * len(object_nodes)))
    if n_visible == 0:
        raise ContractViolation("degenerate scenario: no visible object nodes")
    angle = rng.uniform(0.0, 2.0 * math.pi)
    direction = (math.cos(angle), math.sin(angle))
    def sweep_key(u):
        r, c = divmod(u, w)
        return (c * direction[0] + r * direction[1], u)
    visible = set(sorted(object_nodes, key=sweep_key)[:n_visible])

    obj_lo = sc.object_points.min(axis=0)
    obj_hi = sc.object_points.max(axis=0)
    z_clutter = cam[:, 2].max() + 0.3

    n = w * h
    points = np.zeros((n, 3))
    coords = np.zeros((n, MAX_CANDIDATES, 3))
    confidence = np.zeros((n, MAX_CANDIDATES))
    truth = []
    for u in range(n):
        true_slot, band = -1, "background"
        if u in visible:
            k = anchor[u]
            points[u] = cam[k]
            if sc.depth_noise_sigma > 0:
                points[u, 2] += rng.normal(0.0, sc.depth_noise_sigma)
            if rng.random() < sc.inlier_rate:
                true_slot = int(rng.integers(MAX_CANDIDATES))
            band = "object"
        else:
            gx, gy = node_center(*divmod(u, w))
            jitter = rng.uniform(-0.25 * spacing, 0.25 * spacing, 3)
            points[u] = np.array([gx, gy, z_clutter]) + jitter
        truth.append(true_slot if true_slot >= 0 else MAX_CANDIDATES)
        # per candidate: its coordinate, then its confidence
        for slot in range(MAX_CANDIDATES):
            if slot == true_slot:
                coords[u, slot] = sc.object_points[k] + rng.normal(0.0, sc.coord_noise_sigma, 3)
                confidence[u, slot] = sc.confidence_model.draw(rng, "true")
            else:
                coords[u, slot] = rng.uniform(obj_lo, obj_hi)
                confidence[u, slot] = sc.confidence_model.draw(rng, band)

    pixel, tree = np.divmod(np.arange(MAX_CANDIDATES), 3)
    scene = SceneObservation(
        grid_width=w, grid_height=h, object_diameter=diameter, points=points,
        candidate_count=np.full(n, MAX_CANDIDATES), coords=coords,
        confidence=confidence, source_pixel=np.tile(pixel, (n, 1)),
        source_tree=np.tile(tree, (n, 1)))
    return scene, tuple(truth)


# ---------------------------------------------------------------------------
# scene files

@dataclass(frozen=True)
class GroundTruth:
    pose: Pose
    labels: tuple[int, ...]


@dataclass(frozen=True)
class SceneBundle:
    """A scene file's content: the observation plus optional extras."""

    observation: SceneObservation
    object_points: np.ndarray | None = None
    ground_truth: GroundTruth | None = None


# exact JSON types: bool is an int subclass
_NUMBER, _INTEGER, _STRING, _BOOLEAN = (int, float), (int,), (str,), (bool,)
_KINDS = {_NUMBER: "a number", _INTEGER: "an integer", _STRING: "a string",
          _BOOLEAN: "true or false"}

#: the least integer magnitude that ``float()`` refuses: it rounds up to 2**1024
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _field(mapping, key, path="", types=_NUMBER, shape=(), limit=None):
    """``mapping[key]``, a JSON value of ``types`` (a number by default; an
    integer in 1..``limit`` if given) as read, a number once a float can
    hold it, or, given ``shape``, nested lists of numbers of exactly that
    shape as a float array.  A bad entry is named by its path."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise SceneFormatError(f"missing required field '{path}{key}'")
    value = _value(mapping[key], f"{path}{key}", types, shape)
    if limit and not 1 <= value <= limit:
        raise SceneFormatError(f"field '{path}{key}' must be "
                               f"{'>= 1' if value < 1 else f'<= {limit}'}, not {_shown(value)}")
    return value


def _value(value, at, types, shape):
    if shape:
        if type(value) is not list or len(value) != shape[0]:
            raise SceneFormatError(f"field '{at}' must be a list of {shape[0]} entries")
        return np.array([_value(v, f"{at}[{i}]", types, shape[1:])
                         for i, v in enumerate(value)], dtype=float)
    if type(value) not in types:
        raise SceneFormatError(f"field '{at}' must be {_KINDS[types]}")
    if types is _NUMBER and type(value) is int and abs(value) >= _FLOAT_OVERFLOW:
        raise SceneFormatError(f"field '{at}' holds an integer too large for a float")
    return value


def _shown(value) -> str:  # 10**400 is cut to its ends
    text = repr(value)
    return text if len(text) <= 20 else f"{text[:8]}...{text[-4:]} ({len(text)} characters)"


def _pose(rotation, translation, where) -> Pose:
    try:
        return Pose(rotation, translation)
    except ContractViolation as exc:
        raise SceneFormatError(f"invalid pose at {where}: {exc}") from None


def _parse_json(text, where):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError names the line
        raise SceneFormatError(f"{where}: not valid JSON ({exc})") from None


#: a scene archive's members: the header, the observation and the extras
_MEMBERS = {f"{name}.npy" for name in ("header", *(name for name, _, _ in _SCENE_ARRAYS),
                                       "object_points", "ground_truth.rotation",
                                       "ground_truth.translation", "ground_truth.labels")}


def _array(archive, name, dtype, shape) -> np.ndarray:
    """Member ``name`` of a scene archive, checked before its data is read: a
    ``.npy`` array of exactly ``dtype`` and ``shape`` (None: up to ``MAX_OBJECT_POINTS``),
    stored uncompressed in no more bytes than those take plus 1,024."""
    dtype, most = np.dtype(dtype), [MAX_OBJECT_POINTS if s is None else s for s in shape]
    if f"{name}.npy" not in archive.namelist():
        raise SceneFormatError(f"missing array '{name}'")
    info, limit = archive.getinfo(f"{name}.npy"), 1024 + dtype.itemsize * math.prod(most)
    if info.compress_type != zipfile.ZIP_STORED:
        raise SceneFormatError(f"array '{name}' must be stored uncompressed")
    try:
        with archive.open(info) as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("only version 1.0 .npy headers are read")
            got_shape, _, got = np.lib.format.read_array_header_1_0(fh)
            fits = (len(got_shape) == len(shape)
                    and (got == dtype or got.kind == dtype.kind == "U"
                         and got.itemsize <= dtype.itemsize)
                    and all(g == s or s is None and g <= m
                            for g, s, m in zip(got_shape, shape, most)))
            if fits and info.file_size <= limit:
                fh.seek(0)
                return np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
        raise SceneFormatError(f"array '{name}' cannot be read: {exc}") from None
    if not fits:
        sides = [f"<={m}" if s is None else str(s) for s, m in zip(shape, most)]
        raise SceneFormatError(f"array '{name}' must be {dtype} of shape ({', '.join(sides)}"
                               f"{',' * (len(shape) == 1)}), not {got} of shape {got_shape}")
    raise SceneFormatError(f"array '{name}' must be stored in <= {limit} bytes")


def load_scene(path) -> SceneBundle:
    """Read the scene archive at ``path``; a refusal names the array, field or entry."""
    with open(path, "rb") as fh:
        try:
            archive = zipfile.ZipFile(fh)
        except zipfile.BadZipFile:
            fh.seek(0)
            if fh.read(1) == b"{":
                raise UnsupportedVersionError(
                    f"{path} is a JSON scene file (version 1 or 2); this build reads version "
                    f"{SCENE_VERSION} (.npz): regenerate it with 'crfpose generate'") from None
            raise SceneFormatError(f"{path} is not a scene file (a .npz archive)") from None
        with archive:
            return _scene_from_archive(archive, set(archive.namelist()))


def _scene_from_archive(archive, names) -> SceneBundle:
    unknown = sorted(names - _MEMBERS)
    if unknown:
        raise SceneFormatError(f"unknown array '{unknown[0].removesuffix('.npy')}'")
    header = _parse_json(str(_array(archive, "header", "<U1024", ())), "array 'header'")
    if _field(header, "format", types=_STRING) != SCENE_FORMAT:
        raise SceneFormatError(f"field 'format' must be '{SCENE_FORMAT}'")
    version = _field(header, "version", types=_INTEGER)
    if version != SCENE_VERSION:
        raise UnsupportedVersionError(f"unsupported scene version {_shown(version)}; "
                                      f"this build reads version {SCENE_VERSION}")
    width, height = (_field(header, key, types=_INTEGER, limit=MAX_GRID_SIDE)
                     for key in ("grid_width", "grid_height"))
    arrays = {name: _array(archive, name, dtype, (width * height, *shape))
              for name, dtype, shape in _SCENE_ARRAYS}
    try:
        obs = SceneObservation(grid_width=width, grid_height=height,
                               object_diameter=_field(header, "object_diameter"), **arrays)
    except ContractViolation as exc:
        raise SceneFormatError(str(exc)) from None
    # SceneObservation stores each entry past a node's count as 0, so another
    # value there (-0.0 too) would not be written back as it was read
    for name, given in arrays.items():
        bad = np.argwhere(getattr(obs, name).view(np.int64) != given.view(np.int64))
        if bad.size:
            u, *slot = bad[0]
            raise SceneFormatError(f"field '{name}[{u}]{''.join(f'[{i}]' for i in slot)}' is past "
                                   f"the {obs.candidate_count[u]} candidates of node {u} "
                                   "and must be 0")
    object_points = None
    if "object_points.npy" in names:
        object_points = _array(archive, "object_points", float, (None, 3))
        if not fixes_rotation(object_points):
            raise SceneFormatError("field 'object_points' must be finite and fix a rotation "
                                   "(three or more points, not all on one line)")
    ground_truth = None
    if any(name.startswith("ground_truth.") for name in names):
        pose = _pose(_array(archive, "ground_truth.rotation", float, (3, 3)),
                     _array(archive, "ground_truth.translation", float, (3,)), "ground_truth")
        labels = _array(archive, "ground_truth.labels", np.int64, (obs.node_count,))
        bad = np.flatnonzero((labels < 0) | (labels > obs.candidate_count))
        if bad.size:
            u = bad[0]
            raise SceneFormatError(f"field 'ground_truth.labels[{u}]' must be a label of "
                                   f"node {u} (0..{obs.candidate_count[u]})")
        ground_truth = GroundTruth(pose=pose, labels=tuple(labels.tolist()))
    return SceneBundle(observation=obs, object_points=object_points,
                       ground_truth=ground_truth)


def save_scene(bundle: SceneBundle, path) -> None:
    """Write ``bundle`` to ``path`` as a version-3 scene archive, whatever its suffix."""
    obs = bundle.observation
    header = {"format": SCENE_FORMAT, "version": SCENE_VERSION, "grid_width": obs.grid_width,
              "grid_height": obs.grid_height, "object_diameter": obs.object_diameter}
    arrays = {"header": np.array(json.dumps(header)),
              **{name: getattr(obs, name) for name, _, _ in _SCENE_ARRAYS}}
    if bundle.object_points is not None:
        arrays["object_points"] = np.asarray(bundle.object_points, dtype=float)
    if bundle.ground_truth is not None:
        gt = bundle.ground_truth
        arrays.update({"ground_truth.rotation": gt.pose.rotation,
                       "ground_truth.translation": gt.pose.translation,
                       "ground_truth.labels": np.array(gt.labels, dtype=np.int64)})
    # through a handle: given a path, np.savez would append ".npz" to it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# ---------------------------------------------------------------------------
# scenario files (input to scene generation)

#: top-level scenario numbers, each cast with float(); ``seed`` and the grid
#: sizes are JSON integers
_SCENARIO_NUMBERS = ("visible_fraction", "inlier_rate", "coord_noise_sigma",
                     "depth_noise_sigma")
_SCENARIO_GRID = ("grid_width", "grid_height")
#: the ``object`` keys each shape reads besides ``shape``
_SHAPE_KEYS = {"sphere": ("points", "radius"), "box": ("points", "extents"),
               "xyz": ("path",)}


def _known(value, path, keys):
    """``value``, required to be a JSON object whose keys are all in ``keys``."""
    if type(value) is not dict:
        raise SceneFormatError(f"field '{path[:-1]}' must be an object" if path
                               else "a scenario must be a JSON object")
    for key in value:
        if key not in keys:
            raise SceneFormatError(f"unknown field '{path}{key}'")
    return value


def _object_points(obj, seed) -> np.ndarray:
    """The cloud of a scenario's ``object``, each absent key left to the sampler."""
    shape = obj.get("shape", "sphere") if type(obj) is dict else "sphere"
    if type(shape) is not str or shape not in _SHAPE_KEYS:
        raise SceneFormatError(f"field 'object.shape' is {shape!r}; expected one of "
                               f"{', '.join(_SHAPE_KEYS)}")
    _known(obj, "object.", ("shape", *_SHAPE_KEYS[shape]))
    if shape == "xyz":
        points = load_xyz(_field(obj, "path", "object.", _STRING))
        if len(points) > MAX_OBJECT_POINTS:
            raise SceneFormatError(f"field 'object.path' must name a cloud of <= "
                                   f"{MAX_OBJECT_POINTS} points, not {len(points)}")
        return points
    kwargs = {}
    if "points" in obj:
        kwargs["count"] = _field(obj, "points", "object.", _INTEGER, limit=MAX_OBJECT_POINTS)
    if shape == "sphere":
        if "radius" in obj:
            kwargs["radius"] = float(_field(obj, "radius", "object."))
        return sample_sphere_cloud(**kwargs)
    if "extents" in obj:
        kwargs["extents"] = _field(obj, "extents", "object.", shape=(3,))
    return sample_box_cloud(seed=seed, **kwargs)


def scenario_from_dict(doc: dict, seed_override: int | None = None) -> SyntheticScenario:
    """A scenario document read onto ``default_scenario``, which holds every
    default.  Every key is optional and an unknown one is refused; ``seed``,
    the grid sizes and ``object.points`` are JSON integers, every other
    number a JSON number; an error names the field path."""
    _known(doc, "", (*_SCENARIO_NUMBERS, *_SCENARIO_GRID, "seed", "object", "pose",
                     "confidence"))
    given = {k: _field(doc, k, types=_INTEGER, limit=MAX_GRID_SIDE)
             for k in _SCENARIO_GRID if k in doc}
    given.update((k, float(_field(doc, k))) for k in _SCENARIO_NUMBERS if k in doc)
    seed = _field(doc, "seed", types=_INTEGER) if "seed" in doc else 0
    if seed_override is not None:
        seed = int(seed_override)
    if seed < 0:
        raise SceneFormatError(f"field 'seed' must be >= 0, not {_shown(seed)}")
    if "object" in doc:
        given["object_points"] = _object_points(doc["object"], seed)
    if "pose" in doc:
        pose = _known(doc["pose"], "pose.", ("random", "rotation", "translation"))
        if not ("random" in pose and _field(pose, "random", "pose.", _BOOLEAN)):
            given["true_pose"] = _pose(_field(pose, "rotation", "pose.", shape=(3, 3)),
                                       _field(pose, "translation", "pose.", shape=(3,)), "pose")
    try:
        if "confidence" in doc:
            conf = _known(doc["confidence"], "confidence.",
                          [f.name for f in fields(ConfidenceModel)])
            given["confidence_model"] = ConfidenceModel(
                **{k: float(_field(conf, k, "confidence.")) for k in conf})
        return default_scenario(seed, **given)
    except ContractViolation as exc:
        raise SceneFormatError(str(exc)) from None


def load_scenario(path, seed_override: int | None = None) -> SyntheticScenario:
    with open(path) as fh:
        return scenario_from_dict(_parse_json(fh.read(), path), seed_override)


def generate_bundle(sc: SyntheticScenario) -> SceneBundle:
    """Scene plus the extras a solver run needs (model cloud, ground truth)."""
    scene, truth = generate_scene(sc)
    return SceneBundle(observation=scene,
                       object_points=sc.object_points.copy(),
                       ground_truth=GroundTruth(pose=sc.true_pose, labels=truth))
