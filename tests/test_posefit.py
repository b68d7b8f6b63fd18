import math

import numpy as np
import pytest

from crfpose.model import INF, ContractViolation, PartialLabeling
from crfpose.oracle import _spawn
from crfpose.posefit import (DegenerateInput, Hypothesis, IcpConfig, Pose,
                             cluster_hypotheses, fixes_rotation, icp_refine, kabsch,
                             pose_correct, random_rotation, ransac_iterations,
                             select_best)
from crfpose.posemodel import MAX_CANDIDATES, SceneObservation
from crfpose.submodels import SubmodelSpec


def pairs(obj, scn):
    return list(zip(obj, scn))


def test_pose_validates_rotation():
    with pytest.raises(ContractViolation):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ContractViolation):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection
    nan_rotation = np.eye(3)
    nan_rotation[0, 1] = np.nan  # every comparison with NaN is False
    with pytest.raises(ContractViolation, match="rotation is not finite"):
        Pose(nan_rotation, np.zeros(3))
    with pytest.raises(ContractViolation, match="translation is not finite"):
        Pose(np.eye(3), np.array([0.0, np.inf, 0.0]))
    p = Pose(np.eye(3), np.zeros(3))
    assert np.array_equal(p.apply(np.ones((2, 3))), np.ones((2, 3)))


def test_kabsch_identity():
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    pose = kabsch(pairs(pts, pts))
    assert np.abs(pose.rotation - np.eye(3)).max() < 1e-12
    assert np.abs(pose.translation).max() < 1e-12


def test_kabsch_pure_translation():
    pts = np.random.default_rng(1).uniform(-1, 1, (8, 3))
    pose = kabsch(pairs(pts, pts + np.array([1.0, 2.0, 3.0])))
    assert np.abs(pose.rotation - np.eye(3)).max() < 1e-12
    assert pose.translation == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_kabsch_recovers_random_rigid_transforms():
    for rng in _spawn(2, 50):
        rot, trans = random_rotation(rng), rng.uniform(-2, 2, 3)
        obj = rng.uniform(-1, 1, (10, 3))
        pose = kabsch(pairs(obj, obj @ rot.T + trans))
        assert np.linalg.norm(pose.rotation - rot) < 1e-9
        assert np.linalg.norm(pose.translation - trans) < 1e-9


def test_kabsch_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        kabsch(pairs(np.zeros((2, 3)), np.zeros((2, 3))))
    line = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    with pytest.raises(DegenerateInput):
        kabsch(pairs(line, line))


def test_kabsch_reflective_degenerate_planar_set_stays_proper():
    rng = np.random.default_rng(3)
    obj = rng.uniform(-1, 1, (6, 3))
    obj[:, 2] = 0.0  # coplanar: rank-2 covariance
    scn = obj.copy()
    scn[:, 1] *= -1.0  # mirrored correspondence
    pose = kabsch(pairs(obj, scn))
    assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9
    assert np.linalg.norm(pose.rotation.T @ pose.rotation - np.eye(3)) < 1e-9


@pytest.mark.filterwarnings("error")
def test_fixes_rotation_past_the_range_of_the_product():
    # centered.T @ centered overflows past about 1e154: the first cloud was
    # refused as not finite or not fixing a rotation
    big = 1e160
    assert fixes_rotation([[big, 0, 0], [0, big, 0], [0, 0, big], [1, 1, 1]])
    assert fixes_rotation([[1e300, 0, 0], [0, 1e300, 0], [0, 0, -1e300], [1, 1, 1]])
    assert not fixes_rotation([[big * k, 2 * big * k, -big * k] for k in range(4)])
    assert not fixes_rotation([[big, 0, 0], [-big, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the column sum overflows too; this raised "SVD did not converge".  The
    # unit offsets are far below the rank test's relative threshold
    assert not fixes_rotation([[1.7e308, 0, 0], [1.7e308, 1, 0], [0, 0, 1]])


def test_hypothesis_needs_three_correspondences():
    with pytest.raises(ContractViolation):
        Hypothesis(correspondences=((np.zeros(3), np.zeros(3)),) * 2,
                   pose=Pose(np.eye(3), np.zeros(3)))


def icp_setup(rng, n_points=300, n_corr=40):
    obj = rng.uniform(-0.5, 0.5, (n_points, 3))
    true = Pose(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
    sel = rng.choice(n_points, n_corr, replace=False)
    corr = tuple((obj[i].copy(), true.apply(obj[i][None])[0]) for i in sel)
    return obj, true, corr


def test_icp_fixed_point_at_ground_truth():
    obj, true, corr = icp_setup(np.random.default_rng(4))
    out = icp_refine(Hypothesis(correspondences=corr, pose=true), obj)
    assert out.score < 1e-12
    assert np.linalg.norm(out.pose.rotation - true.rotation) < 1e-9
    assert out.refined


def test_icp_converges_from_perturbed_pose():
    obj, true, corr = icp_setup(np.random.default_rng(5))
    ang = math.radians(5.0)
    wobble = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                       [math.sin(ang), math.cos(ang), 0.0],
                       [0.0, 0.0, 1.0]])
    diameter = 2 * 0.5 * math.sqrt(3)
    start = Pose(true.rotation @ wobble, true.translation + 0.02 * diameter)
    out = icp_refine(Hypothesis(correspondences=corr, pose=start), obj)
    assert out.score < 0.01 * diameter


def test_icp_score_non_increasing_on_exact_data():
    obj, true, corr = icp_setup(np.random.default_rng(6))
    ang = math.radians(3.0)
    wobble = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                       [math.sin(ang), math.cos(ang), 0.0],
                       [0.0, 0.0, 1.0]])
    start = Pose(true.rotation @ wobble, true.translation + 0.01)
    out = icp_refine(Hypothesis(correspondences=corr, pose=start), obj)
    assert all(b <= a + 1e-12 for a, b in zip(out.score_history, out.score_history[1:]))


def test_icp_association_collapse_returns_input_with_inf_score():
    obj, true, corr = icp_setup(np.random.default_rng(7))
    far = Pose(true.rotation, true.translation + 100.0)
    out = icp_refine(Hypothesis(correspondences=corr, pose=far), obj,
                     IcpConfig(gate_distance=1e-6))
    assert out.score == INF
    assert np.array_equal(out.pose.rotation, far.rotation)
    assert np.array_equal(out.pose.translation, far.translation)


def test_icp_rejects_empty_cloud():
    _, true, corr = icp_setup(np.random.default_rng(8))
    with pytest.raises(ContractViolation):
        icp_refine(Hypothesis(correspondences=corr, pose=true), np.zeros((0, 3)))


def hyp(score, count=3):
    c = ((np.zeros(3), np.zeros(3)),) * count
    return Hypothesis(correspondences=c, pose=Pose(np.eye(3), np.zeros(3)), score=score)


def test_select_best_minimum_and_ties():
    picked = select_best([hyp(0.3), hyp(0.1), hyp(0.2)])
    assert picked.score == 0.1
    assert select_best([]) is None
    # tie on score: larger correspondence count wins
    a, b = hyp(0.5, count=3), hyp(0.5, count=6)
    assert select_best([a, b]).correspondence_count == 6
    # full tie: lower index wins
    assert select_best([a, hyp(0.5, count=3)]) is a


def test_select_best_all_infinite_flags_low_confidence():
    picked = select_best([hyp(INF, count=4), hyp(INF, count=4)])
    assert picked.low_confidence
    assert picked.correspondence_count == 4


def test_select_best_invariant_under_positive_scaling():
    scores = [0.9, 0.2, 0.5, 0.4]
    base = [hyp(s) for s in scores]
    scaled = [hyp(100.0 * s) for s in scores]
    assert select_best(base).score * 100.0 == select_best(scaled).score


def test_pose_correct_exact_and_boundary():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, (50, 3))
    diameter = 2.0
    gt = Pose(random_rotation(rng), rng.uniform(-1, 1, 3))
    ok, dist = pose_correct(gt, gt, pts, diameter)
    assert ok and dist == 0.0
    # translation offset of exactly 10% of the diameter: NOT correct (strict)
    shifted = Pose(gt.rotation, gt.translation + np.array([0.1 * diameter, 0, 0]))
    ok, dist = pose_correct(shifted, gt, pts, diameter)
    assert not ok
    assert dist == pytest.approx(0.1 * diameter, abs=1e-12)


def test_pose_correct_monotone_in_translation():
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (30, 3))
    gt = Pose(np.eye(3), np.zeros(3))
    dists = [pose_correct(Pose(np.eye(3), np.array([t, 0, 0])), gt, pts, 1.0)[1]
             for t in (0.01, 0.05, 0.2, 0.7)]
    assert dists == sorted(dists)


def test_pose_correct_symmetric():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (30, 3))
    a = Pose(random_rotation(rng), rng.uniform(-1, 1, 3))
    b = Pose(random_rotation(rng), rng.uniform(-1, 1, 3))
    assert pose_correct(a, b, pts, 1.0)[1] == pytest.approx(
        pose_correct(b, a, pts, 1.0)[1], abs=1e-12)


def test_ransac_iteration_counts():
    # low-inlier-rate regime used as the headline figure
    n = ransac_iterations(0.005, 0.95)
    assert abs(n - 24_000_000) <= 0.05 * 24_000_000
    # near-certain triple: the formula needs a single draw
    assert ransac_iterations(0.9999, 0.95) == 1
    # vanishing confidence: one iteration
    assert ransac_iterations(0.5, 1e-12) == 1
    with pytest.raises(ContractViolation):
        ransac_iterations(0.0, 0.5)
    with pytest.raises(ContractViolation):
        ransac_iterations(0.5, 1.0)


# ---------------------------------------------------------------------------
# clustering decomposed results into hypotheses

def cluster_scene():
    rng = np.random.default_rng(12)
    obj = rng.uniform(-0.02, 0.02, (6, 3))
    pose = Pose(random_rotation(rng), np.array([0.0, 0.0, 1.0]))
    cam = pose.apply(obj)
    # one candidate per node: obj[i] from pixel i % 4
    coords = np.zeros((6, MAX_CANDIDATES, 3))
    coords[:, 0] = obj
    confidence, pixel = np.zeros((6, MAX_CANDIDATES)), np.zeros((6, MAX_CANDIDATES), dtype=int)
    confidence[:, 0], pixel[:, 0] = 0.9, np.arange(6) % 4
    scene = SceneObservation(grid_width=6, grid_height=1, object_diameter=0.08, points=cam,
                             candidate_count=np.ones(6, dtype=int), coords=coords,
                             confidence=confidence, source_pixel=pixel,
                             source_tree=np.zeros((6, MAX_CANDIDATES), dtype=int))
    return scene, pose


def test_cluster_hypotheses_sizes():
    scene, pose = cluster_scene()
    spec_a = SubmodelSpec(0, frozenset(range(5)))
    spec_b = SubmodelSpec(1, frozenset({4, 5}))
    results = [
        (PartialLabeling((1, 1, 1, 1, 1, 0)), spec_a),   # 5 label-1 nodes
        (PartialLabeling((0, 0, 0, 0, 1, 1)), spec_b),   # only 2: dropped
    ]
    hyps = cluster_hypotheses(results, scene, list(range(6)), [0] * 6)
    assert len(hyps) == 1
    assert hyps[0].correspondence_count == 5
    assert hyps[0].seed_serial == 0
    # initial fit recovers the planting pose
    assert np.linalg.norm(hyps[0].pose.rotation - pose.rotation) < 1e-9


def test_cluster_hypotheses_drops_unlabeled_nodes():
    scene, _ = cluster_scene()
    spec = SubmodelSpec(0, frozenset(range(6)))
    partial = PartialLabeling((1, 1, 1, -1, -1, 0))
    hyps = cluster_hypotheses([(partial, spec)], scene, list(range(6)), [0] * 6)
    assert len(hyps) == 1
    assert hyps[0].correspondence_count == 3
