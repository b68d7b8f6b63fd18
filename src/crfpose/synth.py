"""Synthetic scenes standing in for per-pixel forest predictions.

A scenario plants an object (point cloud + true pose) into a node grid:
nodes covered by the visible part of the object carry a noisy correct
candidate with probability ``inlier_rate`` among uniformly wrong ones,
background and occluded nodes carry only wrong candidates, and camera points
come from the posed object or from a clutter plane behind it.  Everything is
deterministic in the scenario seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ContractViolation
from .posemodel import (MAX_CANDIDATES, Candidate, NodeObservation,
                        SceneObservation)
from .posefit import Pose, random_rotation

SCENE_FORMAT = "crfpose-scene"
SCENE_VERSION = 1

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
        self.object_points = np.asarray(self.object_points, dtype=float)
        if not 0.0 <= self.visible_fraction <= 1.0:
            raise ContractViolation("visible_fraction outside [0,1]")
        if not 0.0 <= self.inlier_rate <= 1.0:
            raise ContractViolation("inlier_rate outside [0,1]")
        if self.coord_noise_sigma < 0 or self.depth_noise_sigma < 0:
            raise ContractViolation("noise sigmas must be >= 0")

    @property
    def diameter(self) -> float:
        # always recomputed from the cloud, never stored
        return object_diameter(self.object_points)


def default_scenario(seed: int = 0, **overrides) -> SyntheticScenario:
    """Sphere object with a seed-derived random pose; keyword overrides."""
    pose_rng = np.random.default_rng([seed, 0xC0FFEE])
    pose = Pose(random_rotation(pose_rng),
                np.array([0.0, 0.0, 1.0]) + pose_rng.uniform(-0.05, 0.05, 3))
    params = dict(object_points=sample_sphere_cloud(), true_pose=pose, rng_seed=seed)
    params.update(overrides)
    return SyntheticScenario(**params)


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

    def wrong_candidate(pixel, tree, band):
        coord = rng.uniform(obj_lo, obj_hi)
        return Candidate(coord=tuple(coord),
                         confidence=sc.confidence_model.draw(rng, band),
                         source_pixel=pixel, source_tree=tree)

    nodes = []
    truth = []
    for u in range(w * h):
        r, c = divmod(u, w)
        if u in visible:
            k = anchor[u]
            x = cam[k].copy()
            if sc.depth_noise_sigma > 0:
                x[2] += rng.normal(0.0, sc.depth_noise_sigma)
            has_true = rng.random() < sc.inlier_rate
            true_slot = int(rng.integers(MAX_CANDIDATES)) if has_true else -1
            cands = []
            for slot in range(MAX_CANDIDATES):
                pixel, tree = divmod(slot, 3)
                if slot == true_slot:
                    coord = sc.object_points[k] + rng.normal(0.0, sc.coord_noise_sigma, 3)
                    cands.append(Candidate(
                        coord=tuple(coord),
                        confidence=sc.confidence_model.draw(rng, "true"),
                        source_pixel=pixel, source_tree=tree))
                else:
                    cands.append(wrong_candidate(pixel, tree, "object"))
            truth.append(true_slot if has_true else MAX_CANDIDATES)
        else:
            gx, gy = node_center(r, c)
            jitter = rng.uniform(-0.25 * spacing, 0.25 * spacing, 3)
            x = np.array([gx, gy, z_clutter]) + jitter
            cands = [wrong_candidate(*divmod(slot, 3), "background")
                     for slot in range(MAX_CANDIDATES)]
            truth.append(MAX_CANDIDATES)
        nodes.append(NodeObservation(x=tuple(x), candidates=tuple(cands)))

    scene = SceneObservation(grid_width=w, grid_height=h, nodes=tuple(nodes),
                             object_diameter=diameter)
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


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SceneFormatError(f"missing required field '{path}{key}'")
    return mapping[key]


def scene_to_dict(bundle: SceneBundle) -> dict:
    obs = bundle.observation
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "grid_width": obs.grid_width,
        "grid_height": obs.grid_height,
        "object_diameter": obs.object_diameter,
        "nodes": [
            {
                "x": list(n.x),
                "candidates": [
                    {"l": list(c.coord), "p": c.confidence,
                     "pixel": c.source_pixel, "tree": c.source_tree}
                    for c in n.candidates
                ],
            }
            for n in obs.nodes
        ],
    }
    if bundle.object_points is not None:
        doc["object_points"] = np.asarray(bundle.object_points, dtype=float).tolist()
    if bundle.ground_truth is not None:
        gt = bundle.ground_truth
        doc["ground_truth"] = {
            "rotation": gt.pose.rotation.tolist(),
            "translation": gt.pose.translation.tolist(),
            "labels": list(gt.labels),
        }
    return doc


def scene_from_dict(doc: dict) -> SceneBundle:
    fmt = _require(doc, "format", "")
    if fmt != SCENE_FORMAT:
        raise SceneFormatError(f"field 'format' is '{fmt}', expected '{SCENE_FORMAT}'")
    version = _require(doc, "version", "")
    if version != SCENE_VERSION:
        raise UnsupportedVersionError(
            f"unsupported scene version {version!r}; this build reads version {SCENE_VERSION}")
    width = _require(doc, "grid_width", "")
    height = _require(doc, "grid_height", "")
    diameter = _require(doc, "object_diameter", "")
    raw_nodes = _require(doc, "nodes", "")
    nodes = []
    for i, nd in enumerate(raw_nodes):
        path = f"nodes[{i}]."
        x = _require(nd, "x", path)
        cands = []
        for j, cd in enumerate(_require(nd, "candidates", path)):
            cpath = f"{path}candidates[{j}]."
            try:
                cands.append(Candidate(
                    coord=tuple(_require(cd, "l", cpath)),
                    confidence=float(_require(cd, "p", cpath)),
                    source_pixel=int(_require(cd, "pixel", cpath)),
                    source_tree=int(_require(cd, "tree", cpath)),
                ))
            except ContractViolation as exc:
                raise SceneFormatError(f"invalid candidate at {cpath[:-1]}: {exc}") from None
        try:
            nodes.append(NodeObservation(x=tuple(x), candidates=tuple(cands)))
        except (ContractViolation, TypeError) as exc:
            raise SceneFormatError(f"invalid node at nodes[{i}]: {exc}") from None
    try:
        obs = SceneObservation(grid_width=int(width), grid_height=int(height),
                               nodes=tuple(nodes), object_diameter=float(diameter))
    except ContractViolation as exc:
        raise SceneFormatError(str(exc)) from None
    object_points = None
    if "object_points" in doc:
        object_points = np.asarray(doc["object_points"], dtype=float)
        if object_points.shape[1:] != (3,) or not np.isfinite(object_points).all():
            raise SceneFormatError("field 'object_points' must be an Nx3 list of finite numbers")
    ground_truth = None
    if "ground_truth" in doc:
        g = doc["ground_truth"]
        try:
            pose = Pose(np.asarray(_require(g, "rotation", "ground_truth."), dtype=float),
                        np.asarray(_require(g, "translation", "ground_truth."), dtype=float))
        except ContractViolation as exc:
            raise SceneFormatError(f"invalid pose at ground_truth: {exc}") from None
        ground_truth = GroundTruth(pose=pose,
                                   labels=tuple(int(l) for l in _require(g, "labels", "ground_truth.")))
    return SceneBundle(observation=obs, object_points=object_points,
                       ground_truth=ground_truth)


def save_scene(bundle: SceneBundle, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(bundle), fh, indent=1)
        fh.write("\n")


def load_scene(path) -> SceneBundle:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from None
    return scene_from_dict(doc)


# ---------------------------------------------------------------------------
# scenario files (input to scene generation)

def scenario_from_dict(doc: dict, seed_override: int | None = None) -> SyntheticScenario:
    seed = int(doc.get("seed", 0)) if seed_override is None else int(seed_override)
    obj = doc.get("object", {"shape": "sphere"})
    shape = obj.get("shape", "sphere")
    if shape == "sphere":
        points = sample_sphere_cloud(int(obj.get("points", 300)),
                                     float(obj.get("radius", 0.025)))
    elif shape == "box":
        points = sample_box_cloud(int(obj.get("points", 300)),
                                  tuple(obj.get("extents", (0.04, 0.03, 0.02))),
                                  seed=seed)
    elif shape == "xyz":
        points = load_xyz(_require(obj, "path", "object."))
    else:
        raise SceneFormatError(f"unknown object.shape '{shape}'")
    if "pose" in doc and not doc["pose"].get("random", False):
        p = doc["pose"]
        try:
            pose = Pose(np.asarray(_require(p, "rotation", "pose."), dtype=float),
                        np.asarray(_require(p, "translation", "pose."), dtype=float))
        except ContractViolation as exc:
            raise SceneFormatError(f"invalid pose: {exc}") from None
    else:
        rng = np.random.default_rng([seed, 0xC0FFEE])
        pose = Pose(random_rotation(rng),
                    np.array([0.0, 0.0, 1.0]) + rng.uniform(-0.05, 0.05, 3))
    conf = doc.get("confidence", {})
    try:
        return SyntheticScenario(
            object_points=points,
            true_pose=pose,
            grid_width=int(doc.get("grid_width", 32)),
            grid_height=int(doc.get("grid_height", 24)),
            visible_fraction=float(doc.get("visible_fraction", 0.8)),
            inlier_rate=float(doc.get("inlier_rate", 0.75)),
            coord_noise_sigma=float(doc.get("coord_noise_sigma", 1e-4)),
            depth_noise_sigma=float(doc.get("depth_noise_sigma", 0.0)),
            confidence_model=ConfidenceModel(
                true_mean=float(conf.get("true_mean", 0.95)),
                object_mean=float(conf.get("object_mean", 0.75)),
                background_mean=float(conf.get("background_mean", 0.10)),
                spread=float(conf.get("spread", 0.03)),
            ),
            rng_seed=seed,
        )
    except ContractViolation as exc:
        raise SceneFormatError(str(exc)) from None


def load_scenario(path, seed_override: int | None = None) -> SyntheticScenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from None
    return scenario_from_dict(doc, seed_override)


def generate_bundle(sc: SyntheticScenario) -> SceneBundle:
    """Scene plus the extras a solver run needs (model cloud, ground truth)."""
    scene, truth = generate_scene(sc)
    return SceneBundle(observation=scene,
                       object_points=sc.object_points.copy(),
                       ground_truth=GroundTruth(pose=sc.true_pose, labels=truth))
