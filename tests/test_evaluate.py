import numpy as np
import pytest

from viwo import geom
from viwo.evaluate import (RpeReport, TrajectoryRecord, associate, ate_rmse,
                           rigid_align, rpe)


def straight_record(n=600, speed=10.0, dt=0.1):
    t = np.arange(n) * dt
    pos = np.zeros((n, 3))
    pos[:, 0] = speed * t
    quat = np.tile(geom.IDENTITY_QUAT, (n, 1))
    return TrajectoryRecord(t, pos, quat)


def curved_record(n=800, dt=0.1):
    t = np.arange(n) * dt
    heading = 0.02 * t * t
    speed = 12.0
    pos = np.zeros((n, 3))
    quat = np.zeros((n, 4))
    x = y = 0.0
    for k in range(n):
        quat[k] = geom.so3_exp(np.array([0.0, 0.0, heading[k]]))
        pos[k] = [x, y, 0.0]
        x += speed * dt * np.cos(heading[k])
        y += speed * dt * np.sin(heading[k])
    return TrajectoryRecord(t, pos, quat)


def transform_record(rec, r, t_vec):
    pos = rec.pos @ r.T + t_vec
    quat = np.array([geom.quat_mul(geom.rot_to_quat(r), q) for q in rec.quat])
    return TrajectoryRecord(rec.t.copy(), pos, quat)


def test_rpe_identical_zero():
    gt = curved_record()
    report = rpe(gt, gt)
    assert report.percentile_63 == 0.0
    assert report.percentile_95 == 0.0
    assert report.maximum == 0.0
    assert report.segment_count > 100


def test_rpe_constant_offset_invariant():
    gt = curved_record()
    est = TrajectoryRecord(gt.t.copy(), gt.pos + np.array([1.0, 0.0, 0.0]),
                           gt.quat.copy())
    report = rpe(est, gt)
    assert report.maximum < 1e-9


def test_rpe_rigid_transform_invariant():
    gt = curved_record()
    r = geom.quats_to_frames(geom.so3_exp(np.array([0.1, -0.2, 0.7])))
    est = transform_record(gt, r, np.array([5.0, -3.0, 1.0]))
    report = rpe(est, gt)
    assert report.maximum < 1e-8


def test_rpe_scale_inflation_one_percent():
    gt = straight_record()
    est = TrajectoryRecord(gt.t.copy(), gt.pos * 1.01, gt.quat.copy())
    report = rpe(est, gt)
    assert abs(report.percentile_63 - 1.0) < 0.02
    assert abs(report.percentile_95 - 1.0) < 0.02
    assert abs(report.maximum - 1.0) < 0.02


def test_rpe_percentile_ordering_invariant():
    gt = curved_record()
    rng = np.random.default_rng(0)
    est = TrajectoryRecord(gt.t.copy(), gt.pos + rng.normal(0, 0.3, gt.pos.shape),
                           gt.quat.copy())
    report = rpe(est, gt)
    assert report.percentile_63 <= report.percentile_95 <= report.maximum


def test_rpe_too_short_rejected():
    gt = straight_record(n=50)   # 50 m of path
    with pytest.raises(ValueError):
        rpe(gt, gt)


def test_rpe_report_validation():
    with pytest.raises(ValueError):
        RpeReport(2.0, 1.0, 3.0, 10)


def test_associate_tolerance():
    gt = straight_record()
    shifted = TrajectoryRecord(gt.t + 0.004, gt.pos.copy(), gt.quat.copy())
    ei, gi = associate(shifted, gt)
    assert len(ei) == len(gt.t)
    far = TrajectoryRecord(gt.t + 0.02, gt.pos.copy(), gt.quat.copy())
    ei, gi = associate(far, gt)
    assert len(ei) < len(gt.t)


def test_ate_identical_zero():
    gt = curved_record()
    assert ate_rmse(gt, gt) < 1e-12


def test_ate_rigid_motion_absorbed():
    gt = curved_record()
    r = geom.quats_to_frames(geom.so3_exp(np.array([0.0, 0.0, 1.2])))
    est = transform_record(gt, r, np.array([100.0, -50.0, 3.0]))
    assert ate_rmse(est, gt) < 1e-9


def test_ate_single_perturbation_closed_form():
    gt = curved_record(n=400)
    est = TrajectoryRecord(gt.t.copy(), gt.pos.copy(), gt.quat.copy())
    est.pos[200] += np.array([0.0, 3.0, 0.0])
    n = len(gt.t)
    # alignment absorbs a fraction of the outlier; closed form 3/sqrt(n)
    # holds to first order for a large, well-spread trajectory
    assert abs(ate_rmse(est, gt) - 3.0 / np.sqrt(n)) < 0.3 / np.sqrt(n)


def test_ate_requires_three_points():
    t = np.array([0.0, 0.1])
    rec = TrajectoryRecord(t, np.zeros((2, 3)), np.tile(geom.IDENTITY_QUAT, (2, 1)))
    with pytest.raises(ValueError):
        ate_rmse(rec, rec)


def test_rigid_align_degenerate_collinear():
    src = np.zeros((5, 3))
    src[:, 0] = np.arange(5.0)
    with pytest.raises(ValueError):
        rigid_align(src, src + 1.0)


def test_record_validation():
    t = np.array([0.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        TrajectoryRecord(t, np.zeros((3, 3)), np.tile(geom.IDENTITY_QUAT, (3, 1)))
