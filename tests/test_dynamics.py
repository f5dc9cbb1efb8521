import numpy as np
import pytest

from viwo import geom
from viwo.dynamics import (GRAVITY, GRAVITY_VEC, GyroParams, NavState,
                           _deriv_flat, apply_gyro_error, correct_gyro,
                           corrected_rate_param_jacobian, rk4_nav)
from viwo.features import CameraExtrinsics
from viwo.filter import NAV_DIM, assemble_linearization


def level_gravity_cancel():
    return np.array([0.0, 0.0, GRAVITY])


def nav_linearization(nav, omega_m, params, ext=None):
    """(F, Psi) of the nav error state: assemble_linearization over one step
    with no features."""
    f, psi = assemble_linearization(np.concatenate((nav.vel, nav.quat, nav.pos))[None],
                                    np.zeros((1, 0, 4)), np.zeros((1, 0)),
                                    correct_gyro(omega_m, params)[None], omega_m[None],
                                    params, ext or CameraExtrinsics(), GRAVITY_VEC)
    assert f.shape == (1, NAV_DIM, NAV_DIM) and psi.shape == (1, NAV_DIM, 6)
    return f[0], psi[0]


def test_apply_gyro_error_identity(rng):
    omega = rng.normal(size=3)
    assert np.allclose(apply_gyro_error(omega, GyroParams()), omega)


def test_apply_gyro_error_yaw_scale():
    p = GyroParams(np.zeros(3), 1.01, 0.0, 0.0)
    out = apply_gyro_error(np.array([0.0, 0.0, 1.0]), p)
    assert np.allclose(out, [0.0, 0.0, 1.01])


def test_apply_gyro_error_matches_matrix_oracle(rng):
    for _ in range(200):
        p = GyroParams(rng.normal(size=3) * 0.02, rng.uniform(0.9, 1.1),
                       rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        omega = rng.normal(size=3)
        m = np.array([[1, 0, -p.misalign_yx],
                      [0, 1, p.misalign_xy],
                      [0, 0, p.yaw_scale]])
        assert np.allclose(apply_gyro_error(omega, p), m @ omega + p.bias,
                           atol=1e-14)


def test_correct_gyro_identity_and_bias(rng):
    omega_m = rng.normal(size=3)
    assert np.allclose(correct_gyro(omega_m, GyroParams()), omega_m)
    b = rng.normal(size=3) * 0.01
    p = GyroParams(b, 1.0, 0.0, 0.0)
    assert np.allclose(correct_gyro(b, p), np.zeros(3), atol=1e-15)


def test_correct_gyro_round_trip_sweep(rng):
    # spec invariant: identity composition within 1e-12 over 1e4 draws
    worst = 0.0
    for _ in range(10_000):
        p = GyroParams(rng.normal(size=3) * 0.02, rng.uniform(0.9, 1.1),
                       rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
        omega_m = rng.normal(size=3)
        back = apply_gyro_error(correct_gyro(omega_m, p), p)
        worst = max(worst, np.max(np.abs(back - omega_m)))
    assert worst < 1e-12


def test_correct_gyro_degenerate_scale():
    with pytest.raises(ValueError):
        correct_gyro(np.zeros(3), GyroParams(np.zeros(3), 1e-7, 0.0, 0.0))


def test_corrected_rate_param_jacobian_fd(rng):
    h = 1e-7
    for _ in range(100):
        p = GyroParams(rng.normal(size=3) * 0.02, rng.uniform(0.9, 1.1),
                       rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        omega_m = rng.normal(size=3)
        jac = corrected_rate_param_jacobian(omega_m, p)
        vec = p.as_vector()
        fd = np.empty((3, 6))
        for k in range(6):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            fd[:, k] = (correct_gyro(omega_m, GyroParams.from_vector(vp))
                        - correct_gyro(omega_m, GyroParams.from_vector(vm))) / (2 * h)
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-7)


def test_corrected_rate_param_jacobian_zero_yaw():
    p = GyroParams(np.zeros(3), 1.02, 0.01, -0.01)
    omega_m = apply_gyro_error(np.array([0.3, -0.2, 0.0]), p)
    jac = corrected_rate_param_jacobian(omega_m, p)
    assert np.allclose(jac[:, 3], 0.0, atol=1e-12)   # scale column
    assert np.allclose(jac[:, 4], 0.0, atol=1e-12)   # misalignment columns
    assert np.allclose(jac[:, 5], 0.0, atol=1e-12)


def nav_derivative(s, omega, accel):
    """(vdot, qdot, pdot) from _deriv_flat, the stage derivative of rk4_nav."""
    d = np.array(_deriv_flat(*s.vel.tolist(), *s.quat.tolist(), *omega.tolist(),
                             *accel.tolist(), *GRAVITY_VEC.tolist()))
    return d[0:3], d[3:7], d[7:10]


def test_nav_derivative_static_equilibrium():
    s = NavState.identity()
    vdot, qdot, pdot = nav_derivative(s, np.zeros(3), level_gravity_cancel())
    assert np.allclose(vdot, 0) and np.allclose(qdot, 0) and np.allclose(pdot, 0)


def test_nav_derivative_coriolis_cross_oracle(rng):
    v = np.array([10.0, 0.0, 0.0])
    omega = np.array([0.0, 0.0, 0.5])
    s = NavState(v, geom.IDENTITY_QUAT.copy(), np.zeros(3))
    vdot, _, pdot = nav_derivative(s, omega, level_gravity_cancel())
    assert np.allclose(vdot, -np.cross(omega, v), atol=1e-12)
    assert np.allclose(pdot, v)


def test_nav_derivative_matches_model(rng):
    # vdot = a + R^T g - omega x v, qdot = q (0, omega) / 2, pdot = R v
    for _ in range(50):
        s = NavState(rng.normal(size=3) * 5, geom.so3_exp(rng.uniform(-2, 2, 3)),
                     rng.normal(size=3) * 50)
        omega, accel = rng.normal(size=3), rng.normal(size=3) * 3
        r = geom.quats_to_frames(s.quat)
        vdot, qdot, pdot = nav_derivative(s, omega, accel)
        assert np.allclose(vdot, accel + r.T @ GRAVITY_VEC - np.cross(omega, s.vel),
                           atol=1e-12)
        assert np.allclose(qdot, 0.5 * geom._mul_raw(s.quat, np.array([0.0, *omega])),
                           atol=1e-15)
        assert np.allclose(pdot, r @ s.vel, atol=1e-12)


def nav_step(s, omega, accel, dt):
    """The NavState after one rk4_nav step: the T = 1 chunk."""
    return NavState.from_row(rk4_nav(s, omega[None], accel[None], GRAVITY_VEC,
                                     np.array([dt]))[1])


def test_propagate_zero_motion():
    s = NavState.identity()
    out = nav_step(s, correct_gyro(np.zeros(3), GyroParams()), level_gravity_cancel(), 0.01)
    assert np.allclose(out.vel, 0, atol=1e-15)
    assert np.allclose(out.pos, 0, atol=1e-15)
    assert np.allclose(out.quat, [1, 0, 0, 0], atol=1e-15)


def test_propagate_constant_yaw_closed_form():
    rate = 0.4
    s = NavState.identity()
    for _ in range(500):
        s = nav_step(s, correct_gyro(np.array([0, 0, rate]), GyroParams()),
                     level_gravity_cancel(), 0.01)
    heading = geom.so3_log(s.quat)
    assert abs(heading[2] - rate * 5.0) < 1e-6
    assert abs(heading[0]) < 1e-9 and abs(heading[1]) < 1e-9


def test_propagate_straight_drive_closed_form():
    s = NavState(np.array([10.0, 0, 0]), geom.IDENTITY_QUAT.copy(), np.zeros(3))
    for _ in range(100):
        s = nav_step(s, correct_gyro(np.zeros(3), GyroParams()), level_gravity_cancel(), 0.01)
    assert abs(s.pos[0] - 10.0) < 1e-6
    assert np.allclose(s.vel, [10, 0, 0], atol=1e-9)


def test_propagate_free_fall_closed_form():
    # zero specific force, zero rates: v follows the gravity projection
    q0 = geom.so3_exp(np.array([0.3, -0.2, 0.9]))
    s = NavState(np.array([1.0, 2.0, 3.0]), q0, np.zeros(3))
    g_body = geom.quats_to_frames(q0).T @ np.array([0, 0, -GRAVITY])
    for _ in range(200):
        s = nav_step(s, correct_gyro(np.zeros(3), GyroParams()), np.zeros(3), 0.005)
    assert np.allclose(s.vel, np.array([1.0, 2.0, 3.0]) + g_body * 1.0, atol=1e-9)


def test_quaternion_norm_long_run():
    # spec invariant: unit norm within 1e-9 after 1e6 steps, checked after
    # step 1, every 10 000 steps after it and after the last; the steps run
    # in one rk4_nav chunk per checkpoint
    s = NavState(np.array([5.0, 0, 0]), geom.IDENTITY_QUAT.copy(), np.zeros(3))
    omega = correct_gyro(np.array([0.02, -0.01, 0.3]), GyroParams())
    accel = level_gravity_cancel()
    worst = 0.0
    done = 0
    for stop in [1, *range(10_001, 1_000_000, 10_000), 1_000_000]:
        steps = stop - done
        rows = rk4_nav(s, np.tile(omega, (steps, 1)), np.tile(accel, (steps, 1)),
                       GRAVITY_VEC, np.full(steps, 0.001))
        s = NavState.from_row(rows[-1])
        worst = max(worst, abs(np.linalg.norm(s.quat) - 1.0))
        done = stop
    assert done == 1_000_000 and worst < 1e-9


def test_nav_jacobian_trivial_blocks():
    s = NavState.identity()
    f, _ = nav_linearization(s, np.zeros(3), GyroParams())
    assert np.allclose(f[0:3, 0:3], 0)
    assert np.allclose(f[6:9, 0:3], np.eye(3))
    assert np.allclose(f[6:9, 3:6], 0)      # v = 0
    assert np.allclose(f[3:6, :], 0)        # attitude rows always zero


def test_nav_jacobian_matches_flow_fd(rng):
    from viwo.jacobian_check import fd_flow_matrices, random_sample
    samples = [random_sample(rng) for _ in range(20)]
    for s, f_fd in zip(samples, fd_flow_matrices(samples)[0]):
        f, _ = nav_linearization(s.nav, s.omega_m, s.params, s.ext)
        fd = f_fd[0:9, 0:9]
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(f - fd)) / scale < 1e-5


def test_nav_param_jacobian_zero_velocity():
    s = NavState.identity()
    _, psi = nav_linearization(s, np.array([0.1, 0.2, 0.3]), GyroParams())
    assert np.allclose(psi[0:3, :], 0)
    assert np.allclose(psi[6:9, :], 0)


def test_nav_param_jacobian_matches_flow_fd(rng):
    from viwo.jacobian_check import fd_flow_matrices, random_sample
    samples = [random_sample(rng) for _ in range(20)]
    for s, psi_fd in zip(samples, fd_flow_matrices(samples)[1]):
        _, psi = nav_linearization(s.nav, s.omega_m, s.params, s.ext)
        fd = psi_fd[0:9, :]
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(psi - fd)) / scale < 1e-5


def test_propagate_nav_matches_joint_propagator(rng):
    # the scalar fast path and the filter's coupled propagator must agree
    from viwo.filter import propagate_joint
    for _ in range(50):
        s = NavState(rng.uniform(-10, 10, 3),
                     geom.so3_exp(rng.uniform(-1, 1, 3)),
                     rng.uniform(-5, 5, 3))
        params = GyroParams(rng.normal(size=3) * 0.01, rng.uniform(0.95, 1.05),
                            rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
        omega_m = rng.uniform(-0.5, 0.5, 3)
        accel = rng.uniform(-2, 2, 3)
        dt = rng.uniform(0.001, 0.02)
        a = nav_step(s, correct_gyro(omega_m, params), accel, dt)
        navs, _, _ = propagate_joint(s, np.zeros((0, 4)), np.zeros(0),
                                     correct_gyro(omega_m, params)[None], accel[None],
                                     np.array([dt]), CameraExtrinsics(), GRAVITY_VEC)
        b = NavState.from_row(navs[1])
        assert np.allclose(a.vel, b.vel, atol=1e-13)
        assert np.allclose(a.quat, b.quat, atol=1e-13)
        assert np.allclose(a.pos, b.pos, atol=1e-13)
