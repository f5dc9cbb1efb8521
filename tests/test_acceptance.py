"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The simulated datasets and
filter runs are shared through session fixtures; every tolerance is asserted
exactly as specified, with wall-clock budgets where stated.
"""

import time

import numpy as np
import pytest

from viwo import dataio, geom
from viwo.dynamics import GyroParams
from viwo.evaluate import TrajectoryRecord, rpe
from viwo.filter import NoiseConfig
from viwo.jacobian_check import format_report, run_audit
from viwo.pipeline import (RunConfig, cmd_simulate, load_dataset,
                           load_pose_csv, run_filter)

INJECT_BIAS_DPS = (0.3, -0.2, 0.5)
INJECT_YAW_SCALE = 1.01
INJECT_MISALIGN_DEG = (0.5, 0.5)


def _line(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _simulate(tmp, name, **kw):
    cfg = RunConfig(out_dir=str(tmp / name), seed=17, **kw)
    cmd_simulate(cfg)
    return cfg


def _gt_record(dataset_dir):
    return load_pose_csv(dataset_dir / "gt.csv")


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


# -- criterion 1 ----------------------------------------------------------------

def test_criterion_1_jacobian_audit():
    t0 = time.time()
    worst = run_audit(n_configs=1000, seed=0)
    elapsed = time.time() - t0
    text, ok = format_report(worst, 1e-4)
    ok = ok and elapsed < 10.0
    detail = (f"jacobian audit over 1000 configs, worst block "
              f"{max(worst.values()):.2e} (tol 1e-4), {elapsed:.1f}s (< 10 s)")
    assert _line(1, ok, detail), "\n" + text


# -- criteria 2-4: calibration convergence ---------------------------------------

@pytest.fixture(scope="session")
def bias_run(ws):
    cfg = _simulate(ws, "ds_bias", scenario="urban_loop",
                    inject_bias_dps=INJECT_BIAS_DPS, check_psd=True)
    t0 = time.time()
    ds = load_dataset(cfg.out_dir, "bearing")
    result = run_filter(ds, cfg)
    return cfg, result, time.time() - t0


def test_criterion_2_gyro_offset_convergence(bias_run):
    cfg, result, elapsed = bias_run
    window = (result.params_t >= 50.0) & (result.params_t <= 60.0)
    est_dps = np.rad2deg(result.params[window, 0:3].mean(axis=0))
    err = np.abs(est_dps - np.array(INJECT_BIAS_DPS))
    ok = bool(err.max() <= 0.05 and elapsed < 30.0)
    detail = (f"offsets {np.round(est_dps, 4)} deg/s vs injected "
              f"{INJECT_BIAS_DPS}, max err {err.max():.4f} deg/s "
              f"(tol 0.05), {elapsed:.1f}s (< 30 s)")
    assert _line(2, ok, detail)


@pytest.fixture(scope="session")
def yaw_scale_run(ws):
    cfg = _simulate(ws, "ds_scale", scenario="urban_loop",
                    inject_yaw_scale=INJECT_YAW_SCALE, check_psd=True)
    t0 = time.time()
    ds = load_dataset(cfg.out_dir, "bearing")
    result = run_filter(ds, cfg)
    return cfg, result, time.time() - t0


def test_criterion_3_yaw_scale_convergence(yaw_scale_run):
    cfg, result, elapsed = yaw_scale_run
    # the second turn of the loop is complete before t = 70 s
    after = result.params_t >= 70.0
    rel_err = np.abs(result.params[after, 3] - INJECT_YAW_SCALE) / INJECT_YAW_SCALE
    final = result.params[-1, 3]
    ok = bool(rel_err.max() <= 1e-3 and elapsed < 30.0)
    detail = (f"yaw scale {final:.5f} vs injected {INJECT_YAW_SCALE}, worst "
              f"rel err after 2nd turn {rel_err.max():.2e} (tol 1e-3), "
              f"{elapsed:.1f}s (< 30 s)")
    assert _line(3, ok, detail)


@pytest.fixture(scope="session")
def misalign_run(ws):
    cfg = _simulate(ws, "ds_mis", scenario="urban_loop",
                    inject_misalign_deg=INJECT_MISALIGN_DEG, check_psd=True)
    t0 = time.time()
    ds = load_dataset(cfg.out_dir, "bearing")
    result = run_filter(ds, cfg)
    return cfg, result, time.time() - t0


def test_criterion_4_misalignment_convergence(misalign_run):
    cfg, result, elapsed = misalign_run
    est_deg = np.rad2deg(result.params[-1, 4:6])
    err = np.abs(est_deg - np.array(INJECT_MISALIGN_DEG))
    ok = bool(err.max() <= 0.1)
    detail = (f"misalignments {np.round(est_deg, 4)} deg vs injected "
              f"{INJECT_MISALIGN_DEG}, max err {err.max():.4f} deg (tol 0.1)")
    assert _line(4, ok, detail)


# -- criterion 5: ablation ordering ----------------------------------------------

@pytest.fixture(scope="session")
def ablation_runs(ws):
    sim_cfg = _simulate(ws, "ds_hwy", scenario="highway", feature_slots=10,
                        inject_bias_dps=INJECT_BIAS_DPS,
                        inject_yaw_scale=INJECT_YAW_SCALE,
                        inject_misalign_deg=INJECT_MISALIGN_DEG)
    ds_cam = load_dataset(sim_cfg.out_dir, "bearing")
    gt = _gt_record(ws / "ds_hwy")

    def run(tag, **kw):
        cfg = RunConfig(out_dir=str(ws / f"run_{tag}"), seed=17,
                        feature_slots=10, check_psd=True, **kw)
        result = run_filter(ds_cam, cfg)
        report = rpe(TrajectoryRecord(result.t, result.pos, result.quat), gt)
        return result, report

    t0 = time.time()
    results = {}
    results["full"] = run("full")
    # freeze the completed calibration for the calibrated wheel-IMU variant
    params_path = ws / "run_full_params.txt"
    dataio.save_gyro_params(params_path,
                            GyroParams.from_vector(results["full"][0].params[-1]))
    # offset-only calibration: the classic proprioceptive baseline
    offsets_path = ws / "offsets_only.txt"
    dataio.save_gyro_params(offsets_path,
                            GyroParams(np.deg2rad(np.array(INJECT_BIAS_DPS))))
    results["no_lateral"] = run("nolat", disable_lateral_model=True)
    results["wheel_uncal"] = run("wiuncal", wheel_imu_only=True,
                                 disable_gyro_calibration=True,
                                 init_params=str(offsets_path))
    results["wheel_cal"] = run("wical", wheel_imu_only=True,
                               disable_gyro_calibration=True,
                               init_params=str(params_path))
    return results, time.time() - t0


def test_criterion_5_ablation_ordering(ablation_runs):
    results, elapsed = ablation_runs
    p95 = {k: v[1].percentile_95 for k, v in results.items()}
    ordered = (p95["wheel_cal"] <= p95["full"] <= p95["wheel_uncal"])
    lateral_hit = p95["no_lateral"] >= 1.25 * p95["full"]
    ok = bool(ordered and lateral_hit and elapsed < 120.0)
    detail = ("95th-pct RPE [%]: calibrated wheel-IMU "
              f"{p95['wheel_cal']:.3f} <= full {p95['full']:.3f} <= "
              f"uncalibrated wheel-IMU {p95['wheel_uncal']:.3f}; "
              f"no-lateral {p95['no_lateral']:.3f} >= 1.25x full "
              f"{1.25 * p95['full']:.3f}; {elapsed:.0f}s (< 120 s)")
    assert _line(5, ok, detail)


# -- criterion 6: closed-loop sanity ---------------------------------------------

def test_criterion_6_closed_loop(ws):
    cfg = _simulate(ws, "ds_clean", scenario="urban_loop", zero_noise=True)
    ds = load_dataset(cfg.out_dir, "bearing")
    result = run_filter(ds, cfg)
    report = rpe(TrajectoryRecord(result.t, result.pos, result.quat),
                 _gt_record(ws / "ds_clean"))
    ok = bool(report.maximum < 0.05)
    detail = (f"zero-noise RPE p63 {report.percentile_63:.4f} / p95 "
              f"{report.percentile_95:.4f} / max {report.maximum:.4f} % "
              f"(all < 0.05 %)")
    assert _line(6, ok, detail)


# -- criterion 7: reduction equivalence ------------------------------------------

def test_criterion_7_reduction_equivalence(ws):
    import viwo.pipeline as pl
    from viwo.dynamics import GRAVITY_VEC, NavState
    from viwo.filter import AdaptiveEkf
    from viwo.sensors import VehicleVelocityMeasurement
    from viwo.sim import Arc, Stop, Straight, TrajectorySpec
    from oracles import PlainEkf

    cfg = RunConfig(out_dir=str(ws / "ds_red"), seed=23,
                    inject_bias_dps=(0.2, -0.1, 0.3), feature_slots=6)
    spec = TrajectorySpec([Stop(3.0), Straight(300.0, 12.0), Arc(30.0, 90.0, 7.0),
                           Straight(250.0, 12.0)])   # a bit over 60 s
    orig = pl.build_scenario
    pl.build_scenario = lambda c: spec
    try:
        cmd_simulate(cfg)
    finally:
        pl.build_scenario = orig
    ds = load_dataset(cfg.out_dir, "bearing")
    assert ds.imu[-1, 0] >= 60.0

    noise = NoiseConfig()
    nav0 = NavState.identity()
    nav0.pos = ds.gt[0, 1:4].copy()
    nav0.quat = geom.quat_normalize(ds.gt[0, 4:8].copy())
    nav0.vel = np.array([ds.wheel[0, 1], 0.0, 0.0])
    adaptive = AdaptiveEkf(noise=noise, ext=ds.ext, intr=ds.intr, capacity=6,
                           rho_sg=ds.rho_sg, calibrate=False)
    adaptive.initialize(0.0, nav0)
    plain = PlainEkf(noise, ds.ext, 6, ds.rho_sg, GRAVITY_VEC, nav0, 0.0)
    frames = dict(ds.bearing_frames)
    pos_a, pos_p = [], []
    for k in range(ds.imu.shape[0]):
        t = ds.imu[k, 0]
        adaptive.predict(ds.imu[k:k + 1])
        plain.predict(ds.imu[k:k + 1])
        adaptive.note_wheel(ds.wheel[k, 0], ds.wheel[k, 1])
        plain.note_wheel(ds.wheel[k, 0], ds.wheel[k, 1])
        if t in frames:
            veh = VehicleVelocityMeasurement(ds.wheel[k, 1], ds.imu[k, 5])
            adaptive.process_bearing_frame(t, frames[t], veh)
            plain.frame(t, frames[t], veh)
            pos_a.append(adaptive.nav.pos.copy())
            pos_p.append(plain.nav.pos.copy())
    identical = np.array_equal(np.array(pos_a), np.array(pos_p))
    ok = bool(identical and len(pos_a) > 500)
    detail = (f"disabled parameter channel vs plain EKF over "
              f"{ds.imu[-1, 0]:.0f}s: trajectories bit-identical = {identical} "
              f"({len(pos_a)} compared poses)")
    assert _line(7, ok, detail)


# -- criterion 8: RLS batch oracle ------------------------------------------------

def test_criterion_8_rls_batch_oracle():
    from oracles import batch_rls
    from viwo.filter import rls_step
    phi, psi_d, h = 1.0, 0.05, 1.0
    theta_true, lam = 0.7, 0.999
    s = np.array([[1.0]])
    s0 = s.copy()
    theta = np.array([0.0])
    theta0 = theta.copy()
    p, q, r = 1.0, 1e-6, 0.01
    x_true = x_hat = 0.0
    ups = np.array([[0.0]])
    logs = ([], [], [], [])
    for _ in range(1000):
        x_true = phi * x_true + psi_d * theta_true
        x_pred = phi * x_hat + psi_d * theta[0]
        p = phi * p * phi + q
        ups_pred = phi * ups + psi_d
        ytilde = np.array([x_true - h * x_pred])
        sigma = np.array([[h * p * h + r]])
        kgain = p * h / sigma[0, 0]
        omega = h * ups_pred
        dtheta, s, gamma = rls_step(s, omega, sigma, ytilde, lam)
        for log, val in zip(logs, (omega.copy(), sigma.copy(), ytilde.copy(),
                                   theta.copy())):
            log.append(val)
        x_hat = x_pred + kgain * ytilde[0] + (ups_pred @ dtheta).item()
        theta = theta + dtheta
        p = (1.0 - kgain * h) * p
        ups = (1.0 - kgain * h) * ups_pred
    theta_batch = batch_rls(*logs, s0, theta0, lam)
    gap = abs(theta[0] - theta_batch[0])
    conv = abs(theta[0] - theta_true)
    ok = bool(gap < 1e-6 and conv < 1e-3)
    detail = (f"recursive {theta[0]:.8f} vs batch {theta_batch[0]:.8f} "
              f"(gap {gap:.2e} < 1e-6) after 1000 steps; "
              f"converged to injected {theta_true} within {conv:.2e}")
    assert _line(8, ok, detail)


# -- criterion 9: covariance health -----------------------------------------------

def test_criterion_9_covariance_health(bias_run, yaw_scale_run, misalign_run,
                                       ablation_runs):
    worst_p = np.inf
    worst_s = np.inf
    runs = [bias_run[1], yaw_scale_run[1], misalign_run[1]]
    runs += [v[0] for v in ablation_runs[0].values()]
    for result in runs:
        worst_p = min(worst_p, result.min_eig_p)
        worst_s = min(worst_s, result.min_eig_s)
    ok = bool(worst_p >= -1e-9 and worst_s >= -1e-9)
    detail = (f"min eig P {worst_p:.2e}, min eig S {worst_s:.2e} over all "
              f"criteria 2-5 runs (>= -1e-9)")
    assert _line(9, ok, detail)
