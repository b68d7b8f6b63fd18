"""Rigid pose estimation: Kabsch fits, ICP refinement, hypothesis scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .model import INF, ContractViolation

ORTHONORMALITY_TOL = 1e-9


class DegenerateInput(ValueError):
    """Point configuration does not determine a rigid transform."""


@dataclass(frozen=True)
class Pose:
    """Rigid transform: proper rotation plus translation, meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ContractViolation("pose needs a 3x3 rotation and a 3-vector")
        for name, value in (("rotation", r), ("translation", t)):
            if not np.isfinite(value).all():
                raise ContractViolation(f"{name} is not finite")
        if np.linalg.norm(r.T @ r - np.eye(3)) > ORTHONORMALITY_TOL:
            raise ContractViolation("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise ContractViolation("rotation is not proper (det != +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def inverse_apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.translation) @ self.rotation


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform proper rotation from a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _rank_two(singular_values) -> bool:
    """Whether descending 3x3 singular values show rank >= 2 (a fixed rotation)."""
    return singular_values[1] > max(singular_values[0], 1.0) * 1e-12


def fixes_rotation(points) -> bool:
    """Whether ``points`` is a finite (n, 3) cloud that fixes a rotation:
    ``kabsch``'s rank test on the cloud matched with itself, which fails
    for fewer than three points and for collinear ones."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 3 or points.shape[1] != 3 \
            or not np.isfinite(points).all():
        return False
    centered = points - points.mean(axis=0)
    return _rank_two(np.linalg.svd(centered.T @ centered, compute_uv=False))


def kabsch(correspondences: Sequence[tuple]) -> Pose:
    """Least-squares rigid transform mapping object points onto scene points.

    ``correspondences`` is a sequence of (object point, scene point) pairs.
    The reflection case is corrected through the sign of the smallest
    singular value, so the result is always a proper rotation.
    """
    if len(correspondences) < 3:
        raise DegenerateInput("at least three correspondences required")
    obj = np.array([np.asarray(y, dtype=float) for y, _ in correspondences])
    scn = np.array([np.asarray(x, dtype=float) for _, x in correspondences])
    oc, sc = obj.mean(axis=0), scn.mean(axis=0)
    h = (obj - oc).T @ (scn - sc)
    u, s, vt = np.linalg.svd(h)
    if not _rank_two(s):
        raise DegenerateInput("points are (near) collinear; rotation is ambiguous")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(rotation=rot, translation=sc - rot @ oc)


@dataclass(frozen=True)
class Hypothesis:
    """One pose hypothesis with the correspondences that produced it."""

    correspondences: tuple
    pose: Pose
    score: float = INF
    refined: bool = False
    low_confidence: bool = False
    seed_serial: int = -1
    score_history: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.correspondences) < 3:
            raise ContractViolation("a hypothesis needs at least three correspondences")
        object.__setattr__(self, "correspondences", tuple(self.correspondences))

    @property
    def correspondence_count(self) -> int:
        return len(self.correspondences)


def cluster_hypotheses(decomposed, scene, master_grid_nodes,
                       stage_one_labels) -> list[Hypothesis]:
    """Turn decomposed partial labelings into Kabsch-initialized hypotheses.

    ``decomposed`` is the (partial labeling on master, spec) list;
    ``master_grid_nodes[k]`` maps master node k to its grid node.  Each
    result's label-1 nodes, in grid order, pair their stage-one candidate's
    object coordinate with their camera point; a set of at least three
    pairs whose Kabsch fit is not degenerate is one hypothesis.
    """
    master_grid_nodes = np.asarray(master_grid_nodes, dtype=np.int64)
    labels = np.asarray(stage_one_labels, dtype=np.int64)
    hypotheses = []
    for partial, spec in decomposed:
        nodes = np.sort(master_grid_nodes[np.asarray(partial.assignment) == 1])
        bad = nodes[(labels[nodes] < 0) | (labels[nodes] > scene.candidate_count[nodes])]
        if bad.size:
            raise ContractViolation(f"label {labels[bad[0]]} out of range at node {bad[0]}")
        nodes = nodes[labels[nodes] != scene.candidate_count[nodes]]
        if nodes.size < 3:
            continue
        pairs = tuple(zip(scene.coords[nodes, labels[nodes]], scene.points[nodes]))
        try:
            pose = kabsch(pairs)
        except DegenerateInput:
            continue
        hypotheses.append(Hypothesis(correspondences=pairs, pose=pose,
                                     seed_serial=spec.seed_component))
    return hypotheses


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 20
    trim_fraction: float = 0.8
    pose_change_tol: float = 1e-6  # meters, mean model-point displacement
    gate_distance: float | None = None  # None: half the model bbox diagonal

    def __post_init__(self):
        # written so that NaN fails the test
        if not (self.max_iterations >= 1 and 0 < self.trim_fraction <= 1
                and 0 <= self.pose_change_tol < INF
                and (self.gate_distance is None or 0 < self.gate_distance < INF)):
            raise ContractViolation(f"require max_iterations >= 1, trim_fraction in (0, 1], finite "
                                    f"pose_change_tol >= 0, gate_distance None or finite > 0: {self}")


def _trimmed_mean(distances: np.ndarray, trim_fraction: float) -> float:
    k = max(1, math.ceil(trim_fraction * distances.size))
    return float(np.sort(distances)[:k].mean())


def icp_refine(h: Hypothesis, object_points: np.ndarray,
               cfg: IcpConfig | None = None) -> Hypothesis:
    """Refine a hypothesis by iterated closest-point fits to the model cloud.

    Only the hypothesis's own (pose-consistent) scene points participate.
    Associations beyond the gate distance are ignored; if none survive, the
    input pose is returned with score inf.  The score is the trimmed mean of
    the final closest-point distances.
    """
    cfg = cfg or IcpConfig()
    object_points = np.asarray(object_points, dtype=float)
    if object_points.ndim != 2 or object_points.shape[0] == 0:
        raise ContractViolation("object point cloud must be nonempty (n,3)")
    scene_pts = np.array([np.asarray(x, dtype=float) for _, x in h.correspondences])
    tree = cKDTree(object_points)
    gate = cfg.gate_distance
    if gate is None:
        span = object_points.max(axis=0) - object_points.min(axis=0)
        gate = 0.5 * float(np.linalg.norm(span))

    pose = h.pose
    history = []
    for _ in range(cfg.max_iterations):
        local = pose.inverse_apply(scene_pts)  # rigid, so distances carry over
        dist, idx = tree.query(local)
        history.append(_trimmed_mean(dist, cfg.trim_fraction))
        keep = dist <= gate
        if not keep.any():
            return replace(h, score=INF, refined=True, score_history=tuple(history))
        pairs = list(zip(object_points[idx[keep]], scene_pts[keep]))
        try:
            new_pose = kabsch(pairs)
        except DegenerateInput:
            break
        delta = float(np.linalg.norm(
            object_points @ (new_pose.rotation - pose.rotation).T
            + (new_pose.translation - pose.translation), axis=1).mean())
        pose = new_pose
        if delta < cfg.pose_change_tol:
            break
    dist, _ = tree.query(pose.inverse_apply(scene_pts))
    score = _trimmed_mean(dist, cfg.trim_fraction)
    history.append(score)
    return replace(h, pose=pose, score=score, refined=True,
                   score_history=tuple(history))


def select_best(hypotheses: Sequence[Hypothesis]) -> Hypothesis | None:
    """Lowest score wins; ties go to more correspondences, then lower index.

    When every score is infinite the tie-break winner is returned flagged
    low-confidence.  Empty input yields None.
    """
    if not hypotheses:
        return None
    best_i = min(range(len(hypotheses)),
                 key=lambda i: (hypotheses[i].score,
                                -hypotheses[i].correspondence_count, i))
    best = hypotheses[best_i]
    if math.isinf(best.score):
        best = replace(best, low_confidence=True)
    return best


def pose_correct(estimated: Pose, ground_truth: Pose, object_points: np.ndarray,
                 diameter: float) -> tuple[bool, float]:
    """Mean per-point displacement test, strict at 10% of the diameter."""
    object_points = np.asarray(object_points, dtype=float)
    if object_points.shape[0] == 0:
        raise ContractViolation("object point cloud must be nonempty")
    d = float(np.linalg.norm(estimated.apply(object_points)
                             - ground_truth.apply(object_points), axis=1).mean())
    return d < 0.1 * diameter, d


def ransac_iterations(inlier_rate: float, confidence: float) -> int:
    """Triplet draws needed before a correct triple appears with the given
    confidence, assuming triple success probability inlier_rate**3."""
    if not 0.0 < inlier_rate < 1.0:
        raise ContractViolation("inlier_rate must be in (0,1)")
    if not 0.0 < confidence < 1.0:
        raise ContractViolation("confidence must be in (0,1)")
    return math.ceil(math.log(1.0 - confidence) / math.log1p(-(inlier_rate ** 3)))
