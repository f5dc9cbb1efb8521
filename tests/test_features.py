import numpy as np
import pytest

from viwo import geom
from viwo.dynamics import (GRAVITY_VEC, GyroParams, NavState, correct_gyro,
                           corrected_rate_param_jacobian)
from landmarks import FeatureState, landmark_to_feature
from viwo.features import RHO_CEIL, RHO_FLOOR, CameraExtrinsics, linearize_batch
from viwo.filter import propagate_joint


def random_feature(rng, rho_lo=0.01, rho_hi=2.0):
    d = np.array([1.0, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)])
    q = geom.quat_mul(geom.bearing_from_dir(d),
                      geom.so3_exp(np.array([rng.uniform(-np.pi, np.pi), 0, 0])))
    return FeatureState(q, rng.uniform(rho_lo, rho_hi))


def feature_ode(bearing, rho, v_c, omega_c):
    """The feature ODE of the features module docstring as one 3-vector
    [bearing tangent rate (2), inverse-depth rate]."""
    frame = geom.quats_to_frames(bearing)
    p, n = frame[:, 0], frame[:, 1:3]
    return np.append(-n.T @ (omega_c + rho * np.cross(p, v_c)), rho ** 2 * (p @ v_c))


def fd_feature_blocks(f, v_c, w_c, r_cb, lever, omega_m, params, h=1e-6):
    """Central differences of feature_ode at one feature and camera twist:
    (diag over [bearing tangent, rho], coupling to the body velocity,
    parameter rows).  A step in the body velocity moves v_C by R_CB dv; a
    step in the gyro parameters moves the corrected rate by dw, so omega_C
    by R_CB dw and v_C by R_CB (dw x lever)."""
    def diff(plus, minus):
        return (feature_ode(*plus) - feature_ode(*minus)) / (2 * h)

    diag = np.empty((3, 3))
    for j in range(2):
        d = np.zeros(2)
        d[j] = h
        diag[:, j] = diff((geom.s2_boxplus(f.bearing, d), f.rho, v_c, w_c),
                          (geom.s2_boxplus(f.bearing, -d), f.rho, v_c, w_c))
    diag[:, 2] = diff((f.bearing, f.rho + h, v_c, w_c), (f.bearing, f.rho - h, v_c, w_c))
    coupling = np.empty((3, 3))
    for j in range(3):
        dv = r_cb[:, j] * h
        coupling[:, j] = diff((f.bearing, f.rho, v_c + dv, w_c),
                              (f.bearing, f.rho, v_c - dv, w_c))
    psi = np.empty((3, 6))
    base = params.as_vector()
    omega = correct_gyro(omega_m, params)
    for k in range(6):
        twists = []
        for sgn in (1.0, -1.0):
            vec = base.copy()
            vec[k] += sgn * h
            dw = correct_gyro(omega_m, GyroParams.from_vector(vec)) - omega
            twists.append((f.bearing, f.rho, v_c + r_cb @ np.cross(dw, lever),
                           w_c + r_cb @ dw))
        psi[:, k] = diff(*twists)
    return diag, coupling, psi


def _rel(an, fd):
    return np.max(np.abs(an - fd)) / max(np.max(np.abs(fd)), 1e-2)


def linearization_fd_error(feats, v_c, w_c, r_cb, lever, omega_m, params):
    """Worst relative error of one linearize_batch call over the features,
    judged per sub-block: bearing and rho rows apart, and in the diagonal
    block bearing and rho columns apart."""
    qf = np.array([f.bearing for f in feats])
    rho = np.array([f.rho for f in feats])
    jw = corrected_rate_param_jacobian(omega_m, params)
    diag, coup, psi = linearize_batch(qf, rho, v_c, w_c, r_cb, lever, jw)
    worst = 0.0
    for i, f in enumerate(feats):
        fd_diag, fd_coup, fd_psi = fd_feature_blocks(f, v_c, w_c, r_cb, lever,
                                                     omega_m, params)
        for rows in (slice(0, 2), 2):
            worst = max(worst, _rel(diag[i][rows, 0:2], fd_diag[rows, 0:2]),
                        _rel(diag[i][rows, 2], fd_diag[rows, 2]),
                        _rel(coup[i][rows], fd_coup[rows]),
                        _rel(psi[i][rows], fd_psi[rows]))
    return worst


def test_feature_jacobians_match_fd_sweep(rng):
    # spec invariant: rel 1e-5 over 1e3 random configs, rho in [0.01, 2];
    # the extrinsics and gyro parameters come from a second stream, so the
    # feature and twist draws depend on rng alone
    ext_rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        f = random_feature(rng)
        v_c, w_c = rng.uniform(-15, 15, 3), rng.uniform(-0.6, 0.6, 3)
        r_cb = geom.quats_to_frames(geom.so3_exp(ext_rng.uniform(-0.3, 0.3, 3)))
        lever = ext_rng.uniform(-2, 2, 3)
        params = GyroParams(ext_rng.normal(size=3) * 0.01, ext_rng.uniform(0.95, 1.05),
                            ext_rng.uniform(-0.03, 0.03), ext_rng.uniform(-0.03, 0.03))
        omega_m = ext_rng.normal(size=3) * 0.5
        worst = max(worst, linearization_fd_error([f], v_c, w_c, r_cb, lever,
                                                  omega_m, params))
    assert worst < 1e-5


def test_linearize_batch_edge_cases(rng):
    """FD agreement at the ends of the state range, several features per
    call: no lever arm, inverse depth at the floor and ceiling, bearings
    60 deg off the axis."""
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.02)
    omega_m = rng.normal(size=3)
    r_cb = geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.3, 0.3, 3)))
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
        for lever in (np.zeros(3), rng.uniform(-2, 2, 3)):
            assert linearization_fd_error(feats, v_c, w_c, r_cb, lever,
                                          omega_m, params) < 1e-5
    jw = corrected_rate_param_jacobian(omega_m, params)
    diag, coup, psi = linearize_batch(np.zeros((0, 4)), np.zeros(0), v_c, w_c,
                                      r_cb, np.zeros(3), jw)
    assert diag.shape == (0, 3, 3) and coup.shape == (0, 3, 3)
    assert psi.shape == (0, 3, 6)


def _linearize_one(f, v_c, w_c, lever, omega_m, params):
    jw = corrected_rate_param_jacobian(omega_m, params)
    diag, coup, psi = linearize_batch(f.bearing[None], np.array([f.rho]), v_c, w_c,
                                      np.eye(3), lever, jw)
    return diag[0], coup[0], psi[0]


def test_feature_jacobians_zero_twist(rng):
    f = random_feature(rng)
    diag, _, psi = _linearize_one(f, np.zeros(3), np.zeros(3), np.zeros(3),
                                  rng.normal(size=3), GyroParams())
    assert np.allclose(diag, 0.0, atol=1e-12)
    # the rate path to the bearing survives
    assert not np.allclose(psi[0:2, 0:3], 0.0)


def test_feature_jacobians_far_feature_translation_insensitive(rng):
    # translation sensitivity scales with rho: far features barely move
    f = random_feature(rng)
    f.rho = 2e-4
    _, coup, _ = _linearize_one(f, np.array([10.0, 0, 0]), np.zeros(3), np.zeros(3),
                                rng.normal(size=3), GyroParams())
    assert np.max(np.abs(coup[0:2])) < 1e-3


def test_feature_param_jacobian_zero_lever_arm(rng):
    f = random_feature(rng)
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.01)
    _, _, psi = _linearize_one(f, rng.uniform(-10, 10, 3), rng.uniform(-0.5, 0.5, 3),
                               np.zeros(3), rng.normal(size=3), params)
    assert np.allclose(psi[2, :], 0, atol=1e-14)


def test_feature_param_jacobian_misalign_columns_zero_yaw(rng):
    f = random_feature(rng)
    omega_m = np.array([0.2, -0.1, 0.0])   # zero yaw rate
    _, _, psi = _linearize_one(f, rng.uniform(-10, 10, 3), omega_m,
                               np.array([1.0, 0.2, 0.5]), omega_m, GyroParams())
    assert np.allclose(psi[:, 3:6], 0, atol=1e-12)


def _one_step(f, vel, omega, dt=0.01):
    """propagate_joint over one step with the camera on the body axes at the
    body origin; without gravity, the specific force omega x v holds the body
    velocity constant."""
    nav = NavState(vel, geom.IDENTITY_QUAT.copy(), np.zeros(3))
    _, qf, rho = propagate_joint(nav, f.bearing[None].copy(), np.array([f.rho]), omega[None],
                                 np.cross(omega, vel)[None], np.array([dt]), CameraExtrinsics(),
                                 np.zeros(3))
    return qf[1, 0], rho[1, 0]


def test_feature_derivative_stationary():
    f = FeatureState(geom.IDENTITY_QUAT.copy(), 0.5)
    qf, rho = _one_step(f, np.zeros(3), np.zeros(3))
    assert np.allclose(qf, f.bearing, atol=1e-15) and rho == f.rho


def test_feature_derivative_forward_motion_on_axis():
    # feature straight ahead, pure forward motion: bearing fixed, and
    # drho/dt = 3 rho^2 gives rho(t) = rho0 / (1 - 3 rho0 t)
    f = FeatureState(geom.IDENTITY_QUAT.copy(), 0.2)
    qf, rho = _one_step(f, np.array([3.0, 0.0, 0.0]), np.zeros(3))
    assert np.allclose(geom.quats_to_dirs(qf), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.isclose(rho, 0.2 / (1.0 - 3.0 * 0.2 * 0.01), rtol=1e-10, atol=0)


def test_feature_derivative_far_feature_pure_rotation(rng):
    # no translation: the direction turns against the camera rotation,
    # p(t) = exp(-omega_C t) p0, and the inverse depth stays put
    f = random_feature(rng)
    f.rho = 1e-3
    omega = rng.normal(size=3) * 0.4
    qf, rho = _one_step(f, np.zeros(3), omega)
    expect = geom.quats_to_frames(geom.so3_exp(-omega * 0.01)) @ geom.quats_to_dirs(f.bearing)
    assert np.allclose(geom.quats_to_dirs(qf), expect, atol=1e-12)
    assert rho == pytest.approx(f.rho, rel=4 * np.finfo(float).eps, abs=0)


def test_transport_is_the_exact_rigid_motion(rng):
    """One propagate_joint step moves every feature onto the feature state of
    the same world point at the new pose, with random extrinsics, speeds up
    to 21 m/s and inverse depths up to 1.9 /m."""
    dt = 0.01
    for _ in range(40):
        nav = NavState(geom.quats_to_dirs(geom.so3_exp(rng.uniform(-np.pi, np.pi, 3)))
                       * rng.uniform(0.0, 21.0),
                       geom.so3_exp(rng.uniform(-1, 1, 3)), rng.normal(size=3) * 10)
        ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.3, 0.3, 3))),
                               rng.uniform(-2, 2, 3))
        r_wc = geom.quats_to_frames(nav.quat) @ ext.r_cb.T
        cam_world = nav.pos + geom.quats_to_frames(nav.quat) @ ext.lever_arm
        landmarks = []
        for _ in range(6):
            d = np.array([1.0, *rng.uniform(-0.6, 0.6, 2)])
            landmarks.append(cam_world + r_wc @ (d / np.linalg.norm(d))
                             / rng.uniform(0.02, 1.9))
        feats = [landmark_to_feature(x, nav, ext) for x in landmarks]
        navs, qfs, rhos = propagate_joint(
            nav, np.array([f.bearing for f in feats]), np.array([f.rho for f in feats]),
            rng.normal(size=(1, 3)) * 0.5, rng.normal(size=(1, 3)) * 3, np.array([dt]), ext,
            GRAVITY_VEC)
        nav_new = NavState.from_row(navs[1])
        for x, q, r in zip(landmarks, qfs[1], rhos[1]):
            truth = landmark_to_feature(x, nav_new, ext)
            # the chord between unit vectors is the angle to O(angle^3)
            assert np.linalg.norm(geom.quats_to_dirs(q) - geom.quats_to_dirs(truth.bearing)) < 1e-12
            assert abs(r - truth.rho) < 1e-12 * truth.rho


def test_chunk_transport_matches_single_steps(rng):
    """A T-step propagate_joint call returns, bit for bit, the states of T
    one-step calls with the rho clip between them; one feature, 0.27 m
    ahead of a camera moving at 10 m/s, passes RHO_CEIL mid-chunk."""
    steps = 12
    ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.02, 0.02, 3))),
                           rng.uniform(-0.05, 0.05, 3))
    nav = NavState(np.array([10.0, 0.1, 0.0]), geom.so3_exp(rng.uniform(-0.1, 0.1, 3)),
                   rng.normal(size=3) * 10)
    feats = [random_feature(rng) for _ in range(5)]
    qf = np.array([geom.IDENTITY_QUAT] + [f.bearing for f in feats])
    rho = np.array([1.0 / 0.27] + [f.rho for f in feats])
    omega = rng.normal(size=(steps, 3)) * 0.05
    accel = -GRAVITY_VEC + rng.normal(size=(steps, 3)) * 0.1
    dts = rng.uniform(0.004, 0.006, steps)
    navs, qfs, rhos = propagate_joint(nav, qf, rho, omega, accel, dts, ext, GRAVITY_VEC)
    assert navs.shape == (steps + 1, 10)
    assert qfs.shape == (steps + 1, 6, 4) and rhos.shape == (steps + 1, 6)

    s, q, r = nav, qf, rho
    past_ceil = []
    for k in range(steps + 1):
        if 0 < k < steps:   # the last state is returned unclipped
            if r[0] > RHO_CEIL:
                past_ceil.append(k)
            r = np.clip(r, RHO_FLOOR, RHO_CEIL)
        assert np.array_equal(navs[k], np.concatenate((s.vel, s.quat, s.pos))), k
        assert np.array_equal(qfs[k], q) and np.array_equal(rhos[k], r), k
        if k < steps:
            one = slice(k, k + 1)
            n1, q1, r1 = propagate_joint(s, q, r, omega[one], accel[one], dts[one], ext,
                                         GRAVITY_VEC)
            s, q, r = NavState.from_row(n1[1]), q1[1], r1[1]
    assert past_ceil and 1 < past_ceil[0] < steps - 1

    # without features a chunk still steps the nav state
    navs0, qfs0, rhos0 = propagate_joint(nav, qf[:0], rho[:0], omega, accel, dts, ext,
                                         GRAVITY_VEC)
    assert qfs0.shape == (steps + 1, 0, 4) and rhos0.shape == (steps + 1, 0)
    assert np.array_equal(navs0, navs)


def test_landmark_round_trip(rng):
    for _ in range(200):
        nav = NavState(rng.normal(size=3), geom.so3_exp(rng.uniform(-1, 1, 3)),
                       rng.normal(size=3) * 10)
        ext = CameraExtrinsics(
            geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.2, 0.2, 3))),
            rng.uniform(-1, 1, 3))
        cam_world = nav.pos + geom.quats_to_frames(nav.quat) @ ext.lever_arm
        fwd_world = geom.quats_to_frames(nav.quat) @ ext.r_cb.T @ np.array([1.0, 0, 0])
        landmark = (cam_world + fwd_world * rng.uniform(2, 50)
                    + rng.normal(size=3) * 0.5)
        f = landmark_to_feature(landmark, nav, ext)
        d_cam = geom.quats_to_dirs(f.bearing) / f.rho
        back = cam_world + geom.quats_to_frames(nav.quat) @ ext.r_cb.T @ d_cam
        assert np.allclose(back, landmark, atol=1e-9)


def test_landmark_on_axis():
    nav = NavState.identity()
    f = landmark_to_feature(np.array([5.0, 0.0, 0.0]), nav, CameraExtrinsics())
    assert np.isclose(f.rho, 0.2)
    assert np.allclose(geom.quats_to_dirs(f.bearing), [1, 0, 0], atol=1e-12)


def test_landmark_behind_camera_rejected():
    nav = NavState.identity()
    with pytest.raises(ValueError):
        landmark_to_feature(np.array([-5.0, 0.0, 0.0]), nav, CameraExtrinsics())


def test_geometric_consistency_oracle():
    """Propagating a feature tracks the true projection of a fixed landmark
    through a 1 s maneuver (1 kHz steps)."""
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
        r = geom.quats_to_frames(nav.quat)
        accel = -r.T @ g + np.cross(omega, nav.vel)  # hold speed constant
        navs, qfs, rhos = propagate_joint(nav, qf, rho, omega[None], accel[None],
                                          np.array([dt]), ext, g)
        nav, qf, rho = NavState.from_row(navs[1]), qfs[1], rhos[1]
        assert rho[0] > 0.0
    truth = landmark_to_feature(landmark, nav, ext)
    angle = np.arccos(np.clip(geom.quats_to_dirs(qf[0]) @ geom.quats_to_dirs(truth.bearing),
                              -1.0, 1.0))
    assert angle < 1e-4
    assert abs(rho[0] - truth.rho) / truth.rho < 1e-3
