import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from landmarks import landmark_to_feature
from oracles import PlainEkf, batch_rls, imu_rows
from viwo import geom
from viwo.dynamics import (GRAVITY_VEC, GyroParams, NavState,
                           apply_gyro_error, correct_gyro)
from viwo.features import CameraExtrinsics
from viwo.filter import (GATE_LIMIT, GATE_QUANTILE, NAV_DIM, PREDICT_BLOCK_MAX,
                         AdaptiveEkf, NoiseConfig, RowGroup, _load_flapack,
                         _mahalanobis3, assemble_linearization, kalman_step,
                         rls_step)
from viwo.sensors import VehicleVelocityMeasurement

GRAV_CANCEL = np.array([0.0, 0.0, 9.81])


def make_filter(capacity=4, **kw):
    ekf = AdaptiveEkf(noise=NoiseConfig(), ext=CameraExtrinsics(),
                      capacity=capacity, rho_sg=0.004, **kw)
    ekf.initialize(0.0, NavState.identity())
    return ekf


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(lam=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(sigma_wheel=-1.0)
    # every field finite; every noise density, process noise and standard
    # deviation positive; each error names its key
    for name, value in [("sigma_wheel", np.nan), ("rho0", np.nan), ("lam", np.nan),
                        ("lateral_max_ay", np.inf), ("gyro_noise", -np.inf),
                        ("p0_vel", -1.0), ("pos_process", 0.0), ("s0_bias", -0.1),
                        ("sigma_rho0", 0.0), ("sigma_track_px", -1.0)]:
        with pytest.raises(ValueError, match=f"noise.{name} "):
            NoiseConfig(**{name: value})


def test_predict_rejects_bad_dt():
    ekf = make_filter()
    with pytest.raises(ValueError):
        ekf.predict(imu_rows([(0.0, np.zeros(3), GRAV_CANCEL)]))
    with pytest.raises(ValueError):
        ekf.predict(imu_rows([(0.5, np.zeros(3), GRAV_CANCEL)]))
    # a block whose third row repeats the second row's stamp is refused
    # before any of its steps is applied
    ekf.predict(imu_rows((k * 0.01, np.array([0.01, -0.02, 0.1]), GRAV_CANCEL)
                         for k in range(1, 4)))
    before = {name: getattr(ekf, name).copy() for name in ("cov", "upsilon")}
    t, nav, predicts = ekf.t, ekf.nav.copy(), ekf.counters["predicts"]
    block = imu_rows((t, np.array([0.01, -0.02, 0.1]), GRAV_CANCEL)
                     for t in (0.04, 0.05, 0.05, 0.06))
    with pytest.raises(ValueError, match=r"dt=0\.0000 "):
        ekf.predict(block)
    assert ekf.t == t and ekf.counters["predicts"] == predicts
    for name in ("vel", "quat", "pos"):
        assert np.array_equal(getattr(ekf.nav, name), getattr(nav, name))
    for name, value in before.items():
        assert np.array_equal(getattr(ekf, name), value), name


def test_transition_structure_nav_to_feature_zero(rng):
    # the nav rows never couple into feature columns
    ekf = make_filter()
    for i in range(3):
        d = np.array([1.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)])
        ekf.init_feature(i, geom.bearing_from_dir(d))
        ekf._rho[i] = 0.2
    qf = ekf._qf[0:3]
    rho = ekf._rho[0:3]
    nav = np.concatenate(([10.0, 0.5, 0.0], geom.so3_exp(rng.uniform(-1, 1, 3)),
                          np.zeros(3)))[None]
    f, psi = assemble_linearization(nav, qf[None], rho[None], np.array([[0.1, 0.0, 0.4]]),
                                    np.array([[0.1, 0.0, 0.4]]), GyroParams(),
                                    ekf.ext, GRAVITY_VEC)
    f, psi = f[0], psi[0]
    assert np.allclose(f[0:NAV_DIM, NAV_DIM:], 0.0)
    # feature rows couple only through the velocity columns of the nav block
    assert np.allclose(f[NAV_DIM:, 3:NAV_DIM], 0.0)
    assert not np.allclose(f[NAV_DIM:, 0:3], 0.0)
    # parameter sensitivity present for nav attitude rows and feature rows
    assert not np.allclose(psi[3:6, :], 0.0)
    assert np.allclose(psi[6:9, :], 0.0)


def _dense_predict_reference(ekf, omega_m, dt):
    """(cov, upsilon) after one predict step, with Phi scattered by np.ix_
    and Q built slot by slot."""
    from viwo.dynamics import correct_gyro
    omega = correct_gyro(omega_m, ekf.params)
    act = np.nonzero(ekf._active)[0]
    nav = np.concatenate((ekf.nav.vel, ekf.nav.quat, ekf.nav.pos))[None]
    f_c, psi_c = assemble_linearization(nav, ekf._qf[act][None], ekf._rho[act][None],
                                        omega[None], omega_m[None], ekf.params, ekf.ext,
                                        GRAVITY_VEC)
    f_c, psi_c = f_c[0], psi_c[0]
    idx = list(range(NAV_DIM))
    for i in act:
        idx.extend(NAV_DIM + 3 * i + k for k in range(3))
    phi = np.eye(ekf.dim)
    phi[np.ix_(idx, idx)] += f_c * dt
    q_diag = np.zeros(ekf.dim)
    q_diag[0:3] = ekf.noise.accel_noise ** 2 * dt
    q_diag[3:6] = ekf.noise.gyro_noise ** 2 * dt
    q_diag[6:9] = ekf.noise.pos_process ** 2 * dt
    for i in act:
        o = NAV_DIM + 3 * i
        q_diag[o:o + 2] = ekf.noise.bearing_process ** 2 * dt
        q_diag[o + 2] = ekf.noise.rho_process ** 2 * dt
    expect = phi @ ekf.cov @ phi.T
    expect[np.diag_indices_from(expect)] += q_diag
    expect = 0.5 * (expect + expect.T)
    expect_ups = phi @ ekf.upsilon
    expect_ups[idx, :] += psi_c * dt
    return expect, expect_ups


def test_predict_covariance_matches_dense_oracle(rng):
    ekf = make_filter(capacity=2)
    d = np.array([1.0, 0.1, -0.2])
    ekf.init_feature(0, geom.bearing_from_dir(d))
    ekf._rho[0] = 0.3
    ekf.nav = NavState(np.array([5.0, 0.2, -0.1]),
                       geom.so3_exp(np.array([0.05, -0.02, 0.4])),
                       np.zeros(3))
    omega_m = np.array([0.02, -0.01, 0.3])
    dt = 0.01
    expect, expect_ups = _dense_predict_reference(ekf, omega_m, dt)
    ekf.predict(imu_rows([(dt, omega_m, GRAV_CANCEL)]))
    assert np.allclose(ekf.cov, expect, atol=1e-18, rtol=0)
    assert np.allclose(ekf.upsilon, expect_ups, atol=1e-18, rtol=0)


def test_predict_follows_active_set_changes(rng):
    # features come and go between predict steps, and the active set returns
    # to sets seen before; each step must use the current set's indices
    ekf = make_filter(capacity=5)
    ekf.nav = NavState(np.array([9.0, 0.3, -0.1]),
                       geom.so3_exp(np.array([0.02, -0.03, 0.7])),
                       np.array([1.0, 2.0, 0.0]))

    def init(slot):
        d = np.array([1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)])
        ekf.init_feature(slot, geom.bearing_from_dir(d))
        ekf._rho[slot] = rng.uniform(0.05, 0.5)

    schedule = [lambda: None, lambda: init(1), lambda: (init(3), init(0)),
                lambda: ekf.drop_feature(3), lambda: None, lambda: init(3),
                lambda: (ekf.drop_feature(0), ekf.drop_feature(3)),
                lambda: (ekf.drop_feature(1), init(2)),
                lambda: (ekf.drop_feature(2), init(1)),
                lambda: init(0), lambda: ekf.drop_feature(1),
                lambda: ekf.drop_feature(0), lambda: (init(4), init(2))]
    seen = []
    for change in schedule:
        change()
        seen.append(tuple(np.flatnonzero(ekf._active).tolist()))
        omega_m = rng.uniform(-0.3, 0.3, 3)
        dt = rng.uniform(0.005, 0.02)
        expect, expect_ups = _dense_predict_reference(ekf, omega_m, dt)
        ekf.predict(imu_rows([(ekf.t + dt, omega_m, GRAV_CANCEL)]))
        assert np.max(np.abs(ekf.cov - expect)) <= 1e-14 * np.max(np.abs(expect))
        assert (np.max(np.abs(ekf.upsilon - expect_ups))
                <= 1e-14 * np.max(np.abs(expect_ups)))
    assert len(set(seen)) < len(seen)   # some active sets came back


@pytest.mark.parametrize("cnt", [0, 14])
def test_stacked_linearization_matches_single_steps(rng, cnt):
    """Step k of a stacked call is bit-identical to the one-step call,
    whatever the number of stacked steps."""
    ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.3, 0.3, 3))),
                           rng.uniform(-2, 2, 3))
    params = GyroParams(rng.normal(size=3) * 0.01, 1.02, 0.01, -0.02)
    for steps in (1, 3, 10):
        navs = [NavState(rng.uniform(-15, 15, 3), geom.so3_exp(rng.uniform(-1.5, 1.5, 3)),
                         rng.uniform(-50, 50, 3)) for _ in range(steps)]
        qf = np.array([[geom.so3_exp(rng.uniform(-1.0, 1.0, 3)) for _ in range(cnt)]
                       for _ in range(steps)]).reshape(steps, cnt, 4)
        rho = rng.uniform(0.01, 2.0, (steps, cnt))
        omega_m = rng.uniform(-0.6, 0.6, (steps, 3))
        omega = correct_gyro(omega_m, params)
        rows = np.array([np.concatenate((s.vel, s.quat, s.pos)) for s in navs])
        f, psi = assemble_linearization(rows, qf, rho, omega, omega_m, params, ext,
                                        GRAVITY_VEC)
        assert f.shape == (steps, NAV_DIM + 3 * cnt, NAV_DIM + 3 * cnt)
        for k in range(steps):
            one = slice(k, k + 1)
            f_k, psi_k = assemble_linearization(rows[one], qf[one], rho[one], omega[one],
                                                omega_m[one], params, ext, GRAVITY_VEC)
            assert np.array_equal(f[k], f_k[0])
            assert np.array_equal(psi[k], psi_k[0])


def test_block_predict_matches_single_samples(rng):
    """A block predict equals the same samples given one at a time, across
    feature initialization and drops between blocks, a block longer than
    the cap and blocks with every slot active."""
    params = GyroParams(np.array([0.01, -0.005, 0.008]), 1.01, 0.004, -0.003)
    ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(np.array([0.05, -0.1, 0.02]))),
                           np.array([1.8, 0.1, 1.2]))
    filters = []
    for _ in range(2):
        ekf = AdaptiveEkf(noise=NoiseConfig(), ext=ext, capacity=6, rho_sg=0.004,
                          params=params)
        ekf.initialize(0.0, NavState(np.array([10.0, 0.2, 0.0]), geom.IDENTITY_QUAT.copy(),
                                     np.zeros(3)))
        filters.append(ekf)
    bearings = [geom.bearing_from_dir(np.array([1.0, *rng.uniform(-0.4, 0.4, 2)]))
                for _ in range(6)]
    t = 0.0
    schedule = [([("init", 0), ("init", 1), ("init", 4)], 10),
                ([("init", 2), ("drop", 0)], 7),
                ([("drop", 4), ("init", 5), ("init", 0)], 45),
                ([("init", 3), ("init", 4)], 40),   # every slot active
                ([], 1)]
    for lifecycle, length in schedule:
        for ekf in filters:
            for action, slot in lifecycle:
                if action == "init":
                    ekf.init_feature(slot, bearings[slot])
                    ekf._rho[slot] = 0.05 + 0.1 * slot
                else:
                    ekf.drop_feature(slot)
        block = []
        for _ in range(length):
            t += 0.01
            block.append((t, rng.normal(0.0, 0.2, 3), GRAV_CANCEL + rng.normal(0.0, 0.5, 3)))
        filters[0].predict(imu_rows(block))
        for imu in block:
            filters[1].predict(imu_rows([imu]))
        a, b = filters
        assert a.t == b.t
        for name in ("vel", "quat", "pos"):
            assert np.array_equal(getattr(a.nav, name), getattr(b.nav, name))
        for name in ("_qf", "_rho", "cov", "upsilon"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.counters["predicts"] == b.counters["predicts"]


def test_zero_range_predict_raises_and_changes_nothing():
    """A feature that the camera reaches within a chunk has no direction:
    predict raises FloatingPointError and leaves the state as it was.  At
    8 m/s and 1/16 s steps the camera is exactly 1 m further after two."""
    ekf = make_filter(capacity=3)
    ekf.nav.vel = np.array([8.0, 0.0, 0.0])
    ekf.init_feature(0, geom.IDENTITY_QUAT)      # 1 m straight ahead
    ekf._rho[0] = 1.0
    ekf.init_feature(2, geom.bearing_from_dir(np.array([1.0, 0.2, 0.1])))
    before = {name: getattr(ekf, name).copy() for name in ("_qf", "_rho", "cov", "upsilon")}
    nav = ekf.nav.copy()
    block = imu_rows((k / 16.0, np.zeros(3), GRAV_CANCEL) for k in range(1, 5))
    with pytest.raises(FloatingPointError, match="feature state"):
        ekf.predict(block)
    assert ekf.t == 0.0 and ekf.counters["predicts"] == 0
    for name in ("vel", "quat", "pos"):
        assert np.array_equal(getattr(ekf.nav, name), getattr(nav, name))
    for name, value in before.items():
        assert np.array_equal(getattr(ekf, name), value), name


def test_non_finite_nav_predict_raises_and_changes_nothing():
    """A block whose third IMU sample sends the nav state to inf: predict
    raises FloatingPointError and leaves the state as it was."""
    ekf = make_filter(capacity=0)
    ekf.nav.vel = np.array([8.0, 0.0, 0.0])
    before = {name: getattr(ekf, name).copy() for name in ("cov", "upsilon")}
    nav = ekf.nav.copy()
    block = imu_rows((k * 0.01, np.zeros(3), GRAV_CANCEL) for k in range(1, 6))
    block[2, 4:7] = [1e308, 0.0, 9.81]
    with pytest.raises(FloatingPointError, match="non-finite nav state"):
        ekf.predict(block)
    assert ekf.t == 0.0 and ekf.counters["predicts"] == 0
    for name in ("vel", "quat", "pos"):
        assert np.array_equal(getattr(ekf.nav, name), getattr(nav, name))
    for name, value in before.items():
        assert np.array_equal(getattr(ekf, name), value), name


def test_gate_three_row_closed_form_matches_solve(rng):
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-6.0, 2.0)
        a = rng.normal(size=(3, 3))
        sig = scale * (a @ a.T + 0.2 * np.eye(3))
        r = np.sqrt(scale) * rng.normal(size=3)
        ref = float(r @ np.linalg.solve(sig, r))
        assert abs(_mahalanobis3(sig, r) - ref) <= 1e-12 * ref


def test_zero_residual_changes_nothing():
    ekf = make_filter()
    ekf.nav.vel = np.array([12.0, -0.05, 0.0])
    d = np.array([1.0, 0.2, 0.1])
    ekf.init_feature(0, geom.bearing_from_dir(d))
    ekf._rho[0] = 0.2
    nav_before = ekf.nav.copy()
    params_before = ekf.params.as_vector()
    qf_before = ekf._qf[0].copy()

    groups = [ekf.bearing_groups([0], ekf._qf[[0]].copy())]
    veh = VehicleVelocityMeasurement(12.0, 0.0125)
    # craft a vehicle measurement whose residual is exactly zero
    from viwo.sensors import vehicle_predicted_measurement, vehicle_velocity_measurement
    pred = vehicle_predicted_measurement(ekf.nav.vel, 12.0, 0.0125, ekf.rho_sg)
    z = vehicle_velocity_measurement(12.0, 0.0125, ekf.rho_sg)
    if not np.allclose(z - pred, 0):
        # solve for v_y making the lateral residual zero
        ekf.nav.vel[1] = -ekf.rho_sg * 0.0125 * 12.0
        ekf.nav.vel[2] = 0.0
        nav_before = ekf.nav.copy()
    groups.append(ekf.vehicle_group(VehicleVelocityMeasurement(ekf.nav.vel[0], 0.0125)))
    for g in groups:
        assert np.allclose(g.residual, 0, atol=1e-12)
    ekf.update(groups)
    assert np.allclose(ekf.nav.vel, nav_before.vel, atol=1e-12)
    assert np.allclose(ekf.nav.quat, nav_before.quat, atol=1e-12)
    assert np.allclose(ekf.params.as_vector(), params_before, atol=1e-15)
    assert np.allclose(ekf._qf[0], qf_before, atol=1e-12)


def test_gate_boundary_chi2():
    ekf = make_filter()
    o = NAV_DIM
    ekf.init_feature(0, geom.IDENTITY_QUAT.copy())
    ekf._rho[0] = 0.2
    # bearing block covariance = (sigma^2) I so Sigma = (cov + R) I
    sig2 = ekf.cov[o, o] + ekf.noise.sigma_bearing ** 2
    limit = chi2.ppf(0.99, 2)
    r_keep = np.sqrt(sig2 * (limit - 1e-6))
    r_drop = np.sqrt(sig2 * (limit + 1e-6))
    cols = np.array([[o, o + 1]])
    r_diag = np.full(2, ekf.noise.sigma_bearing ** 2)
    keep = RowGroup("bearing", (0,), np.array([[r_keep, 0.0]]), cols, np.eye(2), r_diag)
    drop = RowGroup("bearing", (0,), np.array([[r_drop, 0.0]]), cols, np.eye(2), r_diag)
    assert ekf.gate(keep) == [0]
    assert not ekf.gate(drop)
    zero = RowGroup("bearing", (0,), np.zeros((1, 2)), cols, np.eye(2), r_diag)
    assert ekf.gate(zero) == [0]
    big = RowGroup("bearing", (0,), np.array([[10.0 * np.sqrt(sig2), 0.0]]), cols,
                   np.eye(2), r_diag)
    assert not ekf.gate(big)
    # the four as one stack: the same decisions
    stack = RowGroup("bearing", (0,) * 4,
                     np.concatenate([g.residual for g in (keep, drop, zero, big)]),
                     np.repeat(cols, 4, axis=0), np.eye(2), r_diag)
    assert ekf.gate(stack) == [0, 2]


def test_gate_limit_table_is_the_chi2_quantile():
    assert GATE_LIMIT == {dof: chi2.ppf(GATE_QUANTILE, dof) for dof in (2, 3)}


@pytest.mark.parametrize("m", [1, 4])
def test_gate_rejects_group_sizes_the_filter_never_makes(m):
    ekf = make_filter()
    group = RowGroup("vehicle", (None,), np.zeros((1, m)), np.arange(m)[None], np.eye(m),
                     np.ones(m))
    with pytest.raises(ValueError, match=f"{m} rows"):
        ekf.gate(group)


def run_probe(probe):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy_stats():
    # scipy.stats took most of the package's import time for two numbers, and
    # the scipy.linalg package over half of the rest for two LAPACK routines
    probe = ("import sys, viwo, viwo.pipeline, viwo.jacobian_check; "
             "print([sorted(m for m in sys.modules if m.startswith(prefix)) "
             "for prefix in ('scipy.stats', 'scipy.linalg')])")
    assert run_probe(probe) == "[[], ['scipy.linalg._flapack']]"


def test_scipy_linalg_imported_later_shares_the_lapack_module():
    probe = ("import viwo.filter; from scipy.stats import chi2; "
             "from scipy.linalg.lapack import dpotrf, dpotrs; "
             "print(dpotrf is viwo.filter.dpotrf, dpotrs is viwo.filter.dpotrs)")
    assert run_probe(probe) == "True True"


def test_missing_lapack_module_names_the_folder(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        _load_flapack(str(tmp_path))


def test_kalman_step_singular_sigma_returns_none():
    p = np.zeros((3, 3))
    h = np.eye(3)[:1]
    assert kalman_step(p, h, np.zeros(1), np.zeros(1)) is None


def test_not_positive_definite_steps_return_none():
    # a negative measurement variance makes the innovation matrices of both
    # steps negative definite
    assert kalman_step(np.eye(3), np.eye(3), np.full(3, -2.0), np.ones(3)) is None
    assert rls_step(np.eye(6), np.zeros((3, 6)), -np.eye(3), np.ones(3), 0.999) is None


def test_not_positive_definite_update_is_skipped_and_changes_nothing():
    """Two velocity groups that each pass the gate, but whose stacked
    innovation matrix is not positive definite: the update is counted as
    skipped and leaves the state as it was."""
    ekf = make_filter(capacity=0)
    ekf.predict(imu_rows((k * 0.01, np.array([0.01, -0.02, 0.1]), GRAV_CANCEL)
                         for k in range(1, 6)))
    assert np.abs(ekf.upsilon).max() > 0.0
    p_vel = ekf.cov[0, 0]
    groups = [RowGroup("vehicle", (None,), np.zeros((1, 3)), np.arange(3)[None], np.eye(3),
                       np.full(3, 0.01 * p_vel)),
              RowGroup("zupt", (None,), np.zeros((1, 3)), np.arange(3)[None], np.eye(3),
                       np.full(3, -0.5 * p_vel))]
    assert all(ekf.gate(g) for g in groups)
    before = {name: getattr(ekf, name).copy()
              for name in ("cov", "upsilon", "param_cov")}
    nav, params = ekf.nav.copy(), ekf.params.as_vector()
    counters = dict(ekf.counters)
    report = ekf.update(groups)
    assert report["skipped"] and len(report["kept"]) == 2
    assert ekf.counters == {**counters, "updates_skipped": 1}
    for name, value in before.items():
        assert getattr(ekf, name).tobytes() == value.tobytes(), name
    for name in ("vel", "quat", "pos"):
        assert getattr(ekf.nav, name).tobytes() == getattr(nav, name).tobytes(), name
    assert ekf.params.as_vector().tobytes() == params.tobytes()


def _random_stacks(rng, ekf):
    """Stacks of every shape the gate takes: the vehicle block with and
    without its lateral row, ZUPT, bearings with the shared identity and
    camera units with their own h_local and variances.  Residuals are drawn on the scale
    of each unit's innovation, with zero and far-out ones among them."""
    def residuals(units, m):
        r = rng.normal(size=(units, m)) * rng.choice([0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0],
                                                     size=(units, 1))
        r[rng.integers(units)] = 0.0
        return r

    slots = rng.permutation(ekf.capacity)[:rng.integers(2, ekf.capacity + 1)]
    offsets = NAV_DIM + 3 * np.sort(slots)
    units = len(offsets)
    tangent = offsets[:, None] + np.arange(2)
    return [
        RowGroup("vehicle", (None,), residuals(1, 3), np.arange(3)[None],
                 np.eye(3) + rng.normal(0, 0.01, (3, 3)),
                 rng.uniform(1e-4, 1e-2, 3)),
        RowGroup("vehicle", (None,) * 2, residuals(2, 2), np.array([[0, 1, 2]] * 2),
                 rng.normal(size=(2, 2, 3)), rng.uniform(1e-4, 1e-2, 2)),
        RowGroup("zupt", (None,), residuals(1, 3), np.arange(3)[None], np.eye(3),
                 np.full(3, 4e-4)),
        RowGroup("bearing", np.sort(slots).tolist(), residuals(units, 2), tangent,
                 np.eye(2), np.full(2, 2.25e-6)),
        RowGroup("intensity", np.sort(slots).tolist(), residuals(units, 2), tangent,
                 rng.normal(0.0, 50.0, (units, 2, 2)),
                 rng.choice([16.0, 6.4e-7], size=(units, 1)) * np.ones(2)),
        RowGroup("vehicle", (None,) * 3, residuals(3, 3),
                 np.array([rng.permutation(ekf.dim)[:3] for _ in range(3)]),
                 rng.normal(size=(3, 3, 3)), rng.uniform(1e-4, 1e-2, 3)),
    ]


def _units(group):
    """The units of a stack, each as a stack of one."""
    return [RowGroup(group.label, (slot,), group.residual[i:i + 1], group.cols[i:i + 1],
                     group.h_local if group.h_local.ndim == 2 else group.h_local[i],
                     group.r_diag if group.r_diag.ndim == 1 else group.r_diag[i])
            for i, slot in enumerate(group.slots)]


def _busy_filter(rng, capacity=5):
    """A filter with every slot active and a predicted, correlated state."""
    ekf = make_filter(capacity=capacity)
    ekf.nav.vel = np.array([10.0, 0.2, -0.1])
    for slot in range(capacity):
        d = np.array([1.0, *rng.uniform(-0.4, 0.4, 2)])
        ekf.init_feature(slot, geom.bearing_from_dir(d))
        ekf._rho[slot] = rng.uniform(0.05, 0.5)
    ekf.predict(imu_rows((0.01 * k, rng.normal(0, 0.1, 3), GRAV_CANCEL + rng.normal(0, 0.3, 3))
                         for k in range(1, 21)))
    return ekf


def test_gate_on_stacks_decides_as_units_alone(rng):
    """A stack's decisions are those of its units gated one per stack: for
    2- and 3-row units, shared and per-unit h_local, zero residuals, units
    on either side of the limit and units whose innovation matrix has
    det <= 0 (from a covariance that is not positive definite)."""
    seen = {"kept": 0, "gated": 0, "det <= 0": 0}
    for trial in range(40):
        ekf = _busy_filter(rng)
        if trial % 2:
            a = rng.normal(size=(ekf.dim, ekf.dim))
            ekf.cov = 1e-3 * (a + a.T)     # indefinite
        for group in _random_stacks(rng, ekf):
            singular = []
            for i, unit in enumerate(_units(group)):
                h = unit.h_local if unit.h_local.ndim == 2 else unit.h_local[0]
                sig = h @ ekf.cov[np.ix_(unit.cols[0], unit.cols[0])] @ h.T
                sig += np.diag(unit.r_diag)
                det = np.linalg.det(sig)
                if det <= 0.0:
                    singular.append(i)
                elif i % 2:
                    # on the limit, to the rounding of the unit's own bits:
                    # a stack whose products differ in the last bit decides
                    # some of these the other way
                    d2 = unit.residual[0] @ np.linalg.solve(sig, unit.residual[0])
                    if d2 > 0.0:
                        group.residual[i] *= np.sqrt(GATE_LIMIT[len(sig)] / d2)
            alone = [i for i, unit in enumerate(_units(group)) if ekf.gate(unit)]
            assert ekf.gate(group) == alone
            assert not set(singular) & set(alone)
            seen["kept"] += len(alone)
            seen["gated"] += len(group.slots) - len(alone) - len(singular)
            seen["det <= 0"] += len(singular)
    assert min(seen.values()) >= 20, seen


def test_update_from_stacks_matches_units_one_per_stack(rng):
    """One update from stacks leaves the same bytes of the state, the
    covariances, the sensitivities and the parameters as the same units
    passed one per stack, and reports the same units kept and gated."""
    gated = 0
    for _ in range(12):
        ekf = _busy_filter(rng)
        groups = _random_stacks(rng, ekf)
        twin = copy.deepcopy(ekf)
        report = ekf.update(groups)
        assert twin.update([u for g in groups for u in _units(g)]) == report
        assert not report["skipped"] and ekf.counters == twin.counters
        gated += len(report["gated"])
        for name in ("cov", "upsilon", "param_cov", "_qf", "_rho"):
            assert getattr(ekf, name).tobytes() == getattr(twin, name).tobytes(), name
        for name in ("vel", "quat", "pos"):
            assert getattr(ekf.nav, name).tobytes() == getattr(twin.nav, name).tobytes()
        assert ekf.params.as_vector().tobytes() == twin.params.as_vector().tobytes()
    assert gated > 0


# the clamp of each gyro parameter: offsets [rad/s], yaw scale, misalignments
PARAM_BOUNDS = [(-0.1, 0.1)] * 3 + [(0.5, 2.0)] + [(-0.1, 0.1)] * 2


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("index", range(6))
def test_param_step_past_a_bound_is_clipped_and_counted_once(index, side):
    ekf = make_filter()
    start = ekf.params.as_vector()
    bound = PARAM_BOUNDS[index][side]
    dtheta = np.full(6, 0.01)
    dtheta[index] = bound - start[index] + (0.05 if side else -0.05)
    ekf._apply_param_step(dtheta)
    want = start + dtheta
    want[index] = bound
    assert ekf.params.as_vector().tobytes() == want.tobytes()
    assert ekf.counters["param_clamps"] == 1
    # back towards the start, inside every bound: not counted
    ekf._apply_param_step(0.5 * (start - want))
    assert ekf.counters["param_clamps"] == 1


def test_batch_equals_sequential_updates(rng):
    # order invariance on a linear system: one stacked update equals two
    # sequential updates with independent rows (within first-order tolerance)
    n = 6
    a = rng.normal(size=(n, n))
    p = a @ a.T + np.eye(n)
    h1 = rng.normal(size=(2, n))
    h2 = rng.normal(size=(3, n))
    r1 = np.full(2, 0.5)
    r2 = np.full(3, 0.8)
    x = rng.normal(size=n)
    z1 = rng.normal(size=2)
    z2 = rng.normal(size=3)

    # stacked
    h = np.vstack([h1, h2])
    resid = np.concatenate([z1 - h1 @ x, z2 - h2 @ x])
    dx, p_batch, _, _, _ = kalman_step(p, h, np.concatenate([r1, r2]), resid)
    x_batch = x + dx

    # sequential
    dx1, p_mid, _, _, _ = kalman_step(p, h1, r1, z1 - h1 @ x)
    x_mid = x + dx1
    dx2, p_seq, _, _, _ = kalman_step(p_mid, h2, r2, z2 - h2 @ x_mid)
    x_seq = x_mid + dx2

    assert np.allclose(x_batch, x_seq, atol=1e-8)
    assert np.allclose(p_batch, p_seq, atol=1e-8)


def test_scalar_rls_matches_batch_oracle(rng):
    """Adaptive loop on a scalar system: theta converges to the injected
    value and the recursive estimate equals batch least squares."""
    phi, psi_d, h = 1.0, 0.05, 1.0
    theta_true = 0.7
    lam = 0.999
    s = np.array([[1.0]])
    s0 = s.copy()
    theta = np.array([0.0])
    theta0 = theta.copy()
    p = 1.0
    q, r = 1e-6, 0.01
    x_true, x_hat, ups = 0.0, 0.0, np.array([[0.0]])
    omegas, sigmas, ytildes, theta_hats = [], [], [], []
    for k in range(1000):
        x_true = phi * x_true + psi_d * theta_true
        x_hat_pred = phi * x_hat + psi_d * theta[0]
        p = phi * p * phi + q
        ups_pred = phi * ups + psi_d
        z = x_true + 0.0  # noise-free measurement keeps the oracle exact
        ytilde = np.array([z - h * x_hat_pred])
        sigma = np.array([[h * p * h + r]])
        kgain = p * h / sigma[0, 0]
        omega_reg = h * ups_pred
        out = rls_step(s, omega_reg, sigma, ytilde, lam)
        assert out is not None
        dtheta, s, gamma = out
        omegas.append(omega_reg.copy())
        sigmas.append(sigma.copy())
        ytildes.append(ytilde.copy())
        theta_hats.append(theta.copy())
        x_hat = x_hat_pred + kgain * ytilde[0] + (ups_pred @ dtheta).item()
        theta = theta + dtheta
        p = (1.0 - kgain * h) * p
        ups = (1.0 - kgain * h) * ups_pred
    assert abs(theta[0] - theta_true) < 1e-3
    theta_batch = batch_rls(omegas, sigmas, ytildes, theta_hats, s0, theta0, lam)
    assert abs(theta[0] - theta_batch[0]) < 1e-6


def _static_scene(rng, n_feat=6):
    ext = CameraExtrinsics(np.eye(3), np.array([1.5, 0.0, 1.0]))
    nav = NavState.identity()
    landmarks = []
    for k in range(n_feat):
        landmarks.append(np.array([8.0 + 3.0 * k, rng.uniform(-4, 4),
                                   rng.uniform(0, 3)]))
    return ext, nav, landmarks


def test_parameter_stationarity_with_truth_supplied(rng):
    """True parameters plus exact measurements: the estimate must not move."""
    ext, nav, landmarks = _static_scene(rng)
    true_params = GyroParams(np.array([0.002, -0.001, 0.004]), 1.01, 0.005, -0.003)
    ekf = AdaptiveEkf(noise=NoiseConfig(), ext=ext, capacity=8,
                      rho_sg=0.0, params=true_params)
    ekf.initialize(0.0, nav)
    for i, lm in enumerate(landmarks):
        f = landmark_to_feature(lm, nav, ext)
        ekf.init_feature(i, f.bearing)
        ekf._rho[i] = f.rho
    theta0 = ekf.params.as_vector()
    t = 0.0
    omega_m = apply_gyro_error(np.zeros(3), true_params)
    for step in range(100):
        t += 0.01
        ekf.predict(imu_rows([(t, omega_m, GRAV_CANCEL)]))
        if step % 10 == 9:
            obs = []
            for i, lm in enumerate(landmarks):
                obs.append((i, landmark_to_feature(lm, ekf.nav, ext).bearing))
            ekf.process_bearing_frame(t, obs, None)
    drift = np.abs(ekf.params.as_vector() - theta0)
    assert np.max(drift) < 1e-9 * 100


def test_standstill_bias_convergence(rng):
    """Stationary vehicle, camera on: offsets converge toward the injection."""
    ext, nav, landmarks = _static_scene(rng)
    bias = np.array([0.005, -0.003, 0.008])
    true_params = GyroParams(bias.copy())
    ekf = AdaptiveEkf(noise=NoiseConfig(), ext=ext, capacity=8, rho_sg=0.0)
    ekf.initialize(0.0, nav)
    for i, lm in enumerate(landmarks):
        f = landmark_to_feature(lm, nav, ext)
        ekf.init_feature(i, f.bearing)
        ekf._rho[i] = f.rho
    t = 0.0
    omega_m = apply_gyro_error(np.zeros(3), true_params)
    for step in range(1000):
        t += 0.01
        ekf.predict(imu_rows([(t, omega_m, GRAV_CANCEL)]))
        ekf.note_wheel(t, 0.0)
        if step % 10 == 9:
            obs = [(i, landmark_to_feature(lm, NavState.identity(), ext).bearing)
                   for i, lm in enumerate(landmarks)]
            veh = VehicleVelocityMeasurement(0.0, 0.0)
            ekf.process_bearing_frame(t, obs, veh)
    err0 = np.linalg.norm(bias)
    err = np.linalg.norm(ekf.params.bias - bias)
    assert err < 0.2 * err0
    assert ekf.counters["zupt_rows"] > 0


def test_standstill_requires_hold():
    ekf = make_filter()
    ekf.note_wheel(0.0, 0.0)
    assert not ekf.standstill_active(0.3)
    assert ekf.standstill_active(0.6)
    ekf.note_wheel(0.7, 1.0)   # moving again
    assert not ekf.standstill_active(0.8)
    ekf.note_wheel(0.9, 0.0)
    assert not ekf.standstill_active(1.2)
    assert ekf.standstill_active(1.5)


def test_manage_features_miss_and_health(rng):
    ekf = make_filter(capacity=3)
    d = np.array([1.0, 0.1, 0.0])
    ekf.init_feature(0, geom.bearing_from_dir(d))
    ekf._rho[0] = 0.2
    ekf.init_feature(1, geom.bearing_from_dir(np.array([1.0, -0.1, 0.1])))
    ekf._rho[1] = 0.2
    # slot 1 stops being observed: dropped after 3 misses
    for k in range(3):
        obs = [(0, ekf._qf[0].copy())]
        ekf.process_bearing_frame(0.1 * (k + 1), obs, None)
    assert ekf._active[0] and not ekf._active[1]
    # runaway bearing variance marks the slot for dropping
    o = NAV_DIM
    ekf.cov[o, o] = 0.3 ** 2
    assert ekf._health_drop()[0]
    ekf.cov[o, o] = 1e-4
    assert not ekf._health_drop()[0]
    # inverse depth pinned at its floor is culled through the frame path;
    # since the slot is still observed it restarts from the fresh bearing
    ekf._rho[0] = 1e-4
    drops_before = ekf.counters["features_dropped"]
    ekf.process_bearing_frame(0.9, [(0, ekf._qf[0].copy())], None)
    assert ekf.counters["features_dropped"] == drops_before + 1
    assert ekf._active[0] and np.isclose(ekf._rho[0], ekf.noise.rho0)
    # unknown slots initialize after the update
    ekf.process_bearing_frame(1.0, [(2, geom.bearing_from_dir(np.array([1.0, 0, 0.2])))], None)
    assert ekf._active[2]
    assert np.isclose(ekf._rho[2], ekf.noise.rho0)
    blk = ekf.cov[NAV_DIM + 6:NAV_DIM + 9, NAV_DIM + 6:NAV_DIM + 9]
    assert np.allclose(np.diag(blk),
                       [ekf.noise.sigma_bearing0 ** 2,
                        ekf.noise.sigma_bearing0 ** 2,
                        ekf.noise.sigma_rho0 ** 2])
    assert np.allclose(ekf.upsilon[NAV_DIM + 6:NAV_DIM + 9, :], 0.0)


def test_out_of_range_slot_ignored():
    ekf = make_filter(capacity=2)
    ekf.process_bearing_frame(0.1, [(7, geom.IDENTITY_QUAT.copy())], None)
    assert ekf.counters["slots_ignored"] == 1
    assert not ekf._active.any()


def test_frozen_parameter_channel_reduces_to_plain_ekf(tmp_path):
    """With the channel enabled and S0 = 0 the filter is the plain EKF, bit
    for bit, and the parameters never move.  (The disabled channel against
    the plain EKF is acceptance criterion 7.)"""
    from viwo.pipeline import RunConfig, cmd_simulate, load_dataset
    from viwo.sim import Arc, Stop, Straight, TrajectorySpec
    import viwo.pipeline as pl

    cfg = RunConfig(out_dir=str(tmp_path), seed=11,
                    inject_bias_dps=(0.2, -0.1, 0.3), feature_slots=6)
    spec = TrajectorySpec([Stop(3.0), Straight(200.0, 12.0), Arc(25.0, 90.0, 7.0),
                           Straight(150.0, 12.0)])
    old = pl.build_scenario
    pl.build_scenario = lambda c: spec
    try:
        cmd_simulate(cfg)
    finally:
        pl.build_scenario = old
    ds = load_dataset(tmp_path, "bearing")

    noise = NoiseConfig()
    nav0 = NavState.identity()
    nav0.pos = ds.gt[0, 1:4].copy()
    nav0.quat = geom.quat_normalize(ds.gt[0, 4:8].copy())
    nav0.vel = np.array([ds.wheel[0, 1], 0.0, 0.0])

    frozen = AdaptiveEkf(noise=noise, ext=ds.ext, intr=ds.intr, capacity=6,
                         rho_sg=ds.rho_sg, calibrate=True)
    frozen.param_cov = np.zeros((6, 6))
    frozen.initialize(0.0, nav0)
    plain = PlainEkf(noise, ds.ext, 6, ds.rho_sg, GRAVITY_VEC, nav0, 0.0)

    frames = dict(ds.bearing_frames)
    poses_f, poses_p = [], []
    for k in range(ds.imu.shape[0]):
        t = ds.imu[k, 0]
        frozen.predict(ds.imu[k:k + 1])
        plain.predict(ds.imu[k:k + 1])
        frozen.note_wheel(ds.wheel[k, 0], ds.wheel[k, 1])
        plain.note_wheel(ds.wheel[k, 0], ds.wheel[k, 1])
        if t in frames:
            veh = VehicleVelocityMeasurement(ds.wheel[k, 1], ds.imu[k, 5])
            frozen.process_bearing_frame(t, frames[t], veh)
            plain.frame(t, frames[t], veh)
            poses_f.append(frozen.nav.pos.copy())
            poses_p.append(plain.nav.pos.copy())
    assert len(poses_f) > 100
    assert np.array_equal(np.array(poses_f), np.array(poses_p))
    assert np.array_equal(frozen.params.as_vector(), GyroParams().as_vector())


def _noisy_frame(rng, ekf, landmarks, t):
    """Noisy bearings of the visible landmarks and a noisy vehicle row."""
    obs = []
    for i, lm in enumerate(landmarks):
        try:
            f = landmark_to_feature(lm, ekf.nav, ekf.ext)
        except ValueError:
            continue
        obs.append((i, geom.s2_boxplus(f.bearing, rng.normal(0, 1e-3, 2))))
    veh = VehicleVelocityMeasurement(ekf.nav.vel[0] + rng.normal(0, 0.05), rng.normal(0, 0.2))
    return obs, veh


def test_covariance_psd_over_cycles(rng):
    ext, nav, landmarks = _static_scene(rng, n_feat=5)
    ekf = AdaptiveEkf(noise=NoiseConfig(), ext=ext, capacity=6, rho_sg=0.002,
                      check_psd=True)
    ekf.initialize(0.0, nav)
    t = 0.0
    for step in range(400):
        t += 0.01
        omega_m = np.array([0.01, -0.02, 0.2]) + rng.normal(0, 1e-3, 3)
        ekf.predict(imu_rows([(t, omega_m, GRAV_CANCEL + rng.normal(0, 1e-3, 3))]))
        if step % 10 == 9:
            ekf.process_bearing_frame(t, *_noisy_frame(rng, ekf, landmarks, t))
    assert -1e-9 <= ekf.min_eig_p < np.inf
    assert -1e-9 <= ekf.min_eig_s < np.inf


def test_check_psd_minima_match_per_step_reference(rng):
    """With check_psd, block predicts fold the smallest eigenvalue of P after
    every step into min_eig_p, and the frames fold in P and S; the minima
    equal eigvalsh after every step and frame of one-sample predicts.  The
    check changes no state."""
    ext, nav, landmarks = _static_scene(rng, n_feat=5)
    checked, ref = [AdaptiveEkf(noise=NoiseConfig(), ext=ext, capacity=4, rho_sg=0.002,
                                check_psd=psd) for psd in (True, False)]
    for ekf in (checked, ref):
        ekf.initialize(0.0, nav)
    ref_p, ref_s = np.inf, float(np.linalg.eigvalsh(ref.param_cov)[0])
    assert checked.min_eig_s == ref_s and ref.min_eig_s == np.inf
    t = 0.0
    inner_minima = 0   # blocks whose new minimum falls strictly inside a chunk
    for k, length in enumerate([10] * 8 + [45] + [10] * 8):   # one block past the cap
        block = []
        for _ in range(length):
            t += 0.01
            omega_m = np.array([0.01, -0.02, 0.2]) + rng.normal(0, 0.2, 3)
            block.append((t, omega_m, GRAV_CANCEL + rng.normal(0, 0.5, 3)))
        checked.predict(imu_rows(block))
        eigs = []
        for imu in block:
            ref.predict(imu_rows([imu]))
            eigs.append(float(np.linalg.eigvalsh(ref.cov)[0]))
        chunk_ends = eigs[PREDICT_BLOCK_MAX - 1::PREDICT_BLOCK_MAX] + eigs[-1:]
        inner_minima += min(eigs) < min(ref_p, *chunk_ends)
        ref_p = min(ref_p, *eigs)
        assert checked.min_eig_p == ref_p
        obs, veh = _noisy_frame(rng, checked, landmarks, t)
        if 3 <= k < 7:   # slot 0 unseen until it is dropped, then re-initialized
            obs = [o for o in obs if o[0] != 0]
        for ekf in (checked, ref):
            ekf.process_bearing_frame(t, obs, veh)
        ref_p = min(ref_p, float(np.linalg.eigvalsh(ref.cov)[0]))
        ref_s = min(ref_s, float(np.linalg.eigvalsh(ref.param_cov)[0]))
        assert (checked.min_eig_p, checked.min_eig_s) == (ref_p, ref_s)
        assert np.array_equal(checked.cov, ref.cov)
        assert np.array_equal(checked.param_cov, ref.param_cov)
    assert checked.counters["features_dropped"] > 0 and inner_minima > 0
    assert ref.min_eig_p == ref.min_eig_s == np.inf


def test_zero_slot_filter_matches_empty_slot(rng):
    """A wheel-IMU-only filter has no feature slots; it must evolve exactly
    like a one-slot filter whose slot stays empty, standstill included."""
    params = GyroParams(np.array([0.002, -0.001, 0.004]), 1.0, 0.0, 0.0)
    ekfs = [AdaptiveEkf(noise=NoiseConfig(), ext=CameraExtrinsics(),
                        capacity=cap, rho_sg=0.004) for cap in (0, 1)]
    for ekf in ekfs:
        ekf.initialize(0.0, NavState(np.array([8.0, 0.0, 0.0]),
                                     geom.IDENTITY_QUAT.copy(), np.zeros(3)))
    zupts = 0
    for k in range(1, 401):
        t = 0.01 * k
        braking = 1.0 <= t < 3.0                 # 8 m/s to a stop for the last 1 s
        speed = 8.0 - 4.0 * min(max(t - 1.0, 0.0), 2.0)
        omega = np.array([0.0, 0.0, 0.1 if speed else 0.0])
        accel = GRAV_CANCEL + np.array([-4.0 if braking else 0.0, 0.1 * speed, 0.0])
        imu = imu_rows([(t, apply_gyro_error(omega, params) + rng.normal(0, 1e-3, 3),
                         accel + rng.normal(0, 1e-2, 3))])
        veh = VehicleVelocityMeasurement(speed + rng.normal(0, 0.02), imu[0, 5])
        for ekf in ekfs:
            ekf.predict(imu)
            ekf.note_wheel(t, speed)
            if k % 10 == 0:
                report = ekf.process_bearing_frame(t, [], veh)
        if k % 10 == 0:
            zupts += ("zupt", None) in report["kept"]
    assert zupts > 0 and ekfs[0].counters == ekfs[1].counters
    zero, one = ekfs
    assert zero.dim == NAV_DIM and one.dim == NAV_DIM + 3
    assert np.array_equal(zero.nav.vel, one.nav.vel)
    assert np.array_equal(zero.nav.quat, one.nav.quat)
    assert np.array_equal(zero.nav.pos, one.nav.pos)
    assert np.array_equal(zero.params.as_vector(), one.params.as_vector())
    assert np.array_equal(zero.param_cov, one.param_cov)
    assert np.array_equal(zero.cov, one.cov[:NAV_DIM, :NAV_DIM])
    assert np.array_equal(zero.upsilon, one.upsilon[:NAV_DIM])
