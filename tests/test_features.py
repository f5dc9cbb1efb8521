import numpy as np
import pytest

from viwo import geom
from viwo.dynamics import GyroParams, NavState, corrected_rate_param_jacobian
from viwo.features import (RHO_CEIL, RHO_FLOOR, CameraExtrinsics,
                           CameraTwist, FeatureState, camera_twist,
                           feature_derivative,
                           feature_jacobians, feature_param_jacobian,
                           feature_to_landmark, landmark_to_feature,
                           linearize_batch)
from viwo.filter import propagate_joint


def random_feature(rng, rho_lo=0.01, rho_hi=2.0):
    d = np.array([1.0, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)])
    q = geom.quat_mul(geom.bearing_from_dir(d),
                      geom.so3_exp(np.array([rng.uniform(-np.pi, np.pi), 0, 0])))
    return FeatureState(q, rng.uniform(rho_lo, rho_hi))


def test_camera_twist_trivial(rng):
    s = NavState(rng.normal(size=3), geom.IDENTITY_QUAT.copy(), np.zeros(3))
    omega = rng.normal(size=3)
    tw = camera_twist(s, omega, CameraExtrinsics())
    assert np.allclose(tw.v_c, s.vel)
    assert np.allclose(tw.omega_c, omega)
    zero = camera_twist(NavState.identity(), np.zeros(3), CameraExtrinsics())
    assert np.allclose(zero.v_c, 0) and np.allclose(zero.omega_c, 0)


def test_camera_twist_lever_arm_cross_oracle():
    lever = np.array([1.5, 0.2, 1.1])
    omega = np.array([0.0, 0.0, 0.5])
    s = NavState(np.array([8.0, 0, 0]), geom.IDENTITY_QUAT.copy(), np.zeros(3))
    tw = camera_twist(s, omega, CameraExtrinsics(np.eye(3), lever))
    assert np.allclose(tw.v_c, s.vel + np.cross(omega, lever), atol=1e-12)


def test_feature_derivative_stationary():
    f = FeatureState(geom.IDENTITY_QUAT.copy(), 0.5)
    dq, drho = feature_derivative(f, CameraTwist(np.zeros(3), np.zeros(3)))
    assert np.allclose(dq, 0) and drho == 0.0


def test_feature_derivative_forward_motion_on_axis():
    # feature straight ahead, pure forward motion: bearing fixed, rho grows
    f = FeatureState(geom.IDENTITY_QUAT.copy(), 0.2)
    tw = CameraTwist(np.array([3.0, 0.0, 0.0]), np.zeros(3))
    dq, drho = feature_derivative(f, tw)
    assert np.allclose(dq, 0, atol=1e-12)
    assert np.isclose(drho, 0.2 ** 2 * 3.0)


def test_feature_derivative_far_feature_pure_rotation(rng):
    f = random_feature(rng)
    f.rho = 1e-3
    omega_c = rng.normal(size=3) * 0.4
    tw = CameraTwist(np.zeros(3), omega_c)
    dq, _ = feature_derivative(f, tw)
    n = geom.projection_n(f.bearing)
    assert np.allclose(dq, -n.T @ omega_c, atol=1e-12)


def _rate_fd_blocks(f, tw, h=1e-6):
    fd = {}
    dqdq = np.empty((2, 2))
    drdq = np.empty(2)
    for j in range(2):
        d = np.zeros(2)
        d[j] = h
        dp, rp = feature_derivative(FeatureState(geom.s2_boxplus(f.bearing, d), f.rho), tw)
        dm, rm = feature_derivative(FeatureState(geom.s2_boxplus(f.bearing, -d), f.rho), tw)
        dqdq[:, j] = (dp - dm) / (2 * h)
        drdq[j] = (rp - rm) / (2 * h)
    fd["dq_dq"], fd["drho_dq"] = dqdq, drdq
    dp, rp = feature_derivative(FeatureState(f.bearing, f.rho + h), tw)
    dm, rm = feature_derivative(FeatureState(f.bearing, f.rho - h), tw)
    fd["dq_drho"] = (dp - dm) / (2 * h)
    fd["drho_drho"] = (rp - rm) / (2 * h)
    dqdv = np.empty((2, 3))
    drdv = np.empty(3)
    dqdw = np.empty((2, 3))
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        dp, rp = feature_derivative(f, CameraTwist(tw.v_c + d, tw.omega_c))
        dm, rm = feature_derivative(f, CameraTwist(tw.v_c - d, tw.omega_c))
        dqdv[:, j] = (dp - dm) / (2 * h)
        drdv[j] = (rp - rm) / (2 * h)
        dp, _ = feature_derivative(f, CameraTwist(tw.v_c, tw.omega_c + d))
        dm, _ = feature_derivative(f, CameraTwist(tw.v_c, tw.omega_c - d))
        dqdw[:, j] = (dp - dm) / (2 * h)
    fd["dq_dvc"], fd["drho_dvc"], fd["dq_dwc"] = dqdv, drdv, dqdw
    return fd


def test_feature_jacobians_match_fd_sweep(rng):
    # spec invariant: rel 1e-5 over 1e3 random configs, rho in [0.01, 2]
    worst = 0.0
    for _ in range(1000):
        f = random_feature(rng)
        tw = CameraTwist(rng.uniform(-15, 15, 3), rng.uniform(-0.6, 0.6, 3))
        jac = feature_jacobians(f, tw)
        fd = _rate_fd_blocks(f, tw)
        for key, ref in fd.items():
            scale = max(np.max(np.abs(ref)), 1e-2)
            worst = max(worst, np.max(np.abs(jac[key] - ref)) / scale)
    assert worst < 1e-5


def test_feature_jacobians_zero_twist(rng):
    f = random_feature(rng)
    jac = feature_jacobians(f, CameraTwist(np.zeros(3), np.zeros(3)))
    for key in ("dq_dq", "dq_drho", "drho_dq", "drho_drho"):
        assert np.allclose(jac[key], 0, atol=1e-12)
    # structural blocks w.r.t. the twist survive
    assert not np.allclose(jac["dq_dwc"], 0)


def test_feature_jacobians_far_feature_translation_insensitive(rng):
    # translation sensitivity scales with rho: far features barely move
    f = random_feature(rng)
    f.rho = 2e-4
    tw = CameraTwist(np.array([10.0, 0, 0]), np.zeros(3))
    jac = feature_jacobians(f, tw)
    assert np.max(np.abs(jac["dq_dvc"])) < 1e-3
    with pytest.raises(ValueError):
        feature_jacobians(FeatureState(f.bearing, 1e-5), tw)


def test_feature_param_jacobian_zero_lever_arm(rng):
    f = random_feature(rng)
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.01)
    omega_m = rng.normal(size=3)
    jw = corrected_rate_param_jacobian(omega_m, params)
    psi = feature_param_jacobian(f, CameraExtrinsics(np.eye(3), np.zeros(3)), jw)
    assert np.allclose(psi[2, :], 0, atol=1e-14)


def test_feature_param_jacobian_fd(rng):
    from viwo.dynamics import correct_gyro
    h = 1e-7
    for _ in range(100):
        f = random_feature(rng)
        ext = CameraExtrinsics(
            geom.quat_to_rot(geom.so3_exp(rng.uniform(-0.3, 0.3, 3))),
            rng.uniform(-2, 2, 3))
        params = GyroParams(rng.normal(size=3) * 0.01, rng.uniform(0.95, 1.05),
                            rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))
        omega_m = rng.normal(size=3) * 0.5
        vel = rng.uniform(-10, 10, 3)
        jw = corrected_rate_param_jacobian(omega_m, params)
        psi = feature_param_jacobian(f, ext, jw)
        vec = params.as_vector()
        fd = np.empty((3, 6))
        for k in range(6):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            s = NavState(vel, geom.IDENTITY_QUAT.copy(), np.zeros(3))
            twp = camera_twist(s, correct_gyro(omega_m, GyroParams.from_vector(vp)), ext)
            twm = camera_twist(s, correct_gyro(omega_m, GyroParams.from_vector(vm)), ext)
            dqp, drp = feature_derivative(f, twp)
            dqm, drm = feature_derivative(f, twm)
            fd[0:2, k] = (dqp - dqm) / (2 * h)
            fd[2, k] = (drp - drm) / (2 * h)
        # remove the velocity channel (fd includes only omega -> twist path
        # because vel is held fixed, matching the analytic definition)
        scale = max(np.max(np.abs(fd)), 1e-2)
        assert np.max(np.abs(psi - fd)) / scale < 1e-5


def test_feature_param_jacobian_misalign_columns_zero_yaw(rng):
    f = random_feature(rng)
    ext = CameraExtrinsics(np.eye(3), np.array([1.0, 0.2, 0.5]))
    params = GyroParams(np.zeros(3), 1.0, 0.0, 0.0)
    omega_m = np.array([0.2, -0.1, 0.0])   # zero yaw rate
    jw = corrected_rate_param_jacobian(omega_m, params)
    psi = feature_param_jacobian(f, ext, jw)
    assert np.allclose(psi[:, 3:6], 0, atol=1e-12)


def test_landmark_round_trip(rng):
    for _ in range(200):
        nav = NavState(rng.normal(size=3), geom.so3_exp(rng.uniform(-1, 1, 3)),
                       rng.normal(size=3) * 10)
        ext = CameraExtrinsics(
            geom.quat_to_rot(geom.so3_exp(rng.uniform(-0.2, 0.2, 3))),
            rng.uniform(-1, 1, 3))
        cam_world = nav.pos + geom.quat_to_rot(nav.quat) @ ext.lever_arm
        fwd_world = geom.quat_to_rot(nav.quat) @ ext.r_cb.T @ np.array([1.0, 0, 0])
        landmark = (cam_world + fwd_world * rng.uniform(2, 50)
                    + rng.normal(size=3) * 0.5)
        f = landmark_to_feature(landmark, nav, ext)
        back = feature_to_landmark(f, nav, ext)
        assert np.allclose(back, landmark, atol=1e-9)


def test_landmark_on_axis():
    nav = NavState.identity()
    f = landmark_to_feature(np.array([5.0, 0.0, 0.0]), nav, CameraExtrinsics())
    assert np.isclose(f.rho, 0.2)
    assert np.allclose(geom.bearing_dir(f.bearing), [1, 0, 0], atol=1e-12)


def test_landmark_behind_camera_rejected():
    nav = NavState.identity()
    with pytest.raises(ValueError):
        landmark_to_feature(np.array([-5.0, 0.0, 0.0]), nav, CameraExtrinsics())


def test_geometric_consistency_oracle():
    """Integrating the feature ODE tracks the true projection of a fixed
    landmark through a 1 s maneuver (RK4, 1 kHz)."""
    ext = CameraExtrinsics(np.eye(3), np.array([1.5, 0.0, 1.0]))
    nav = NavState(np.array([8.0, 0.0, 0.0]), geom.IDENTITY_QUAT.copy(),
                   np.zeros(3))
    landmark = np.array([18.0, 4.0, 2.0])
    feat = landmark_to_feature(landmark, nav, ext)
    qf = feat.bearing[None, :].copy()
    rho = np.array([feat.rho])
    omega = np.array([0.05, -0.08, 0.35])
    g = np.array([0.0, 0.0, -9.81])
    dt = 0.001
    for _ in range(1000):
        r = geom.quat_to_rot(nav.quat)
        accel = -r.T @ g + np.cross(omega, nav.vel)  # hold speed constant
        nav, qf, rho = propagate_joint(nav, qf, rho, omega, accel, dt, ext, g)
        assert rho[0] > 0.0
    truth = landmark_to_feature(landmark, nav, ext)
    angle = np.arccos(np.clip(geom.bearing_dir(qf[0]) @ geom.bearing_dir(truth.bearing),
                              -1.0, 1.0))
    assert angle < 1e-4
    assert abs(rho[0] - truth.rho) / truth.rho < 1e-3


def _assert_linearization_matches_scalar(feats, v_c, w_c, r_cb, lever, jw,
                                         atol=1e-12):
    qf = np.array([f.bearing for f in feats])
    rho = np.array([f.rho for f in feats])
    diag, coup, psi = linearize_batch(qf, rho, v_c, w_c, r_cb, lever, jw)
    ext = CameraExtrinsics(r_cb, lever)
    tw = CameraTwist(v_c, w_c)
    for i, f in enumerate(feats):
        jac = feature_jacobians(f, tw)
        assert np.allclose(diag[i][0:2, 0:2], jac["dq_dq"], rtol=0, atol=atol)
        assert np.allclose(diag[i][0:2, 2], jac["dq_drho"], rtol=0, atol=atol)
        assert np.allclose(diag[i][2, 0:2], jac["drho_dq"], rtol=0, atol=atol)
        assert np.isclose(diag[i][2, 2], jac["drho_drho"], rtol=0, atol=atol)
        assert np.allclose(coup[i][0:2, :], jac["dq_dvc"] @ r_cb, rtol=0, atol=atol)
        assert np.allclose(coup[i][2, :], jac["drho_dvc"] @ r_cb, rtol=0, atol=atol)
        assert np.allclose(psi[i], feature_param_jacobian(f, ext, jw), rtol=0,
                           atol=atol)


def test_batched_helpers_match_scalar(rng):
    cnt = 16
    feats = [random_feature(rng) for _ in range(cnt)]
    v_c = rng.uniform(-10, 10, 3)
    w_c = rng.uniform(-0.5, 0.5, 3)
    r_cb = geom.quat_to_rot(geom.so3_exp(rng.uniform(-0.3, 0.3, 3)))
    lever = rng.uniform(-2, 2, 3)
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.02)
    jw = corrected_rate_param_jacobian(rng.normal(size=3), params)
    _assert_linearization_matches_scalar(feats, v_c, w_c, r_cb, lever, jw)


def test_linearize_batch_edge_cases(rng):
    """Closed-form blocks at the ends of the state range: no lever arm,
    inverse depth at the floor and ceiling, bearings 60 deg off the axis."""
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.02)
    jw = corrected_rate_param_jacobian(rng.normal(size=3), params)
    r_cb = geom.quat_to_rot(geom.so3_exp(rng.uniform(-0.3, 0.3, 3)))
    v_c = rng.uniform(-10, 10, 3)
    w_c = rng.uniform(-0.5, 0.5, 3)
    off_axis = []
    for az in np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False):
        d = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3) * np.cos(az),
                      np.sin(np.pi / 3) * np.sin(az)])
        spin = geom.so3_exp(np.array([rng.uniform(-np.pi, np.pi), 0.0, 0.0]))
        off_axis.append(FeatureState(geom.quat_mul(geom.bearing_from_dir(d), spin),
                                     rng.uniform(0.01, 2.0)))
    floor = [FeatureState(random_feature(rng).bearing, RHO_FLOOR * 1.01)
             for _ in range(4)]
    ceil = [FeatureState(random_feature(rng).bearing, RHO_CEIL) for _ in range(4)]
    for feats in (off_axis, floor, ceil, off_axis + floor + ceil):
        _assert_linearization_matches_scalar(feats, v_c, w_c, r_cb, np.zeros(3), jw)
        _assert_linearization_matches_scalar(feats, v_c, w_c, r_cb,
                                             rng.uniform(-2, 2, 3), jw)
    diag, coup, psi = linearize_batch(np.zeros((0, 4)), np.zeros(0), v_c, w_c,
                                      r_cb, np.zeros(3), jw)
    assert diag.shape == (0, 3, 3) and coup.shape == (0, 3, 3)
    assert psi.shape == (0, 3, 6)


