import errno
import sys
import threading

import numpy as np
import pytest

from viwo import geom, pipeline
from viwo.dynamics import GRAVITY_VEC, GyroParams, correct_gyro, rk4_nav
from viwo.features import landmark_to_feature
from viwo.image import save_pgm
from viwo.sensors import DEFAULT_INTRINSICS
from viwo.sim import (CAMERA_EXTRINSICS, CAMERA_STRIDE, IMAGE_NOISE, WHEEL_NOISE, Arc,
                      SensorErrorSpec, Stop, Straight, TrajectorySpec, ensure_coverage,
                      generate_trajectory, generate_world, highway_route, mini_loop,
                      render_frame, synthesize_bearings, synthesize_imu,
                      synthesize_wheel, urban_loop, visible_landmarks)


def test_single_straight_duration_and_heading():
    spec = TrajectorySpec([Straight(100.0, 10.0)])
    truth = generate_trajectory(spec)
    assert abs(truth[-1].t - 10.0) < 1e-9
    headings = [geom.so3_log(s.nav.quat)[2] for s in truth]
    assert np.allclose(headings, headings[0], atol=1e-12)
    assert abs(truth[-1].nav.pos[0] - 100.0) < 1e-3


def test_arc_yaw_rate_plateau():
    spec = TrajectorySpec([Arc(20.0, 90.0, 10.0)])
    truth = generate_trajectory(spec)
    rates = np.array([s.omega[2] for s in truth[1:]])
    plateau = np.isclose(rates, 0.5, atol=1e-9)
    assert plateau.mean() > 0.9  # whole arc is a plateau without neighbours
    turn = (geom.so3_log(truth[-1].nav.quat)[2]
            - geom.so3_log(truth[0].nav.quat)[2])
    assert abs(turn - np.pi / 2) < 2e-3


def test_stop_segment_standstill():
    spec = TrajectorySpec([Stop(3.0), Straight(50.0, 8.0)])
    truth = generate_trajectory(spec)
    for s in truth:
        if s.t < 2.9:
            assert np.allclose(s.omega, 0.0)
            assert np.linalg.norm(s.nav.vel) < 1e-12
    assert np.linalg.norm(truth[-1].nav.vel) > 7.0


def test_infeasible_arc_rejected():
    with pytest.raises(ValueError):
        TrajectorySpec([Arc(15.0, 90.0, 14.0)])   # 13 m/s^2 lateral
    with pytest.raises(ValueError):
        TrajectorySpec([Arc(0.5, 90.0, 1.0)])
    with pytest.raises(ValueError):
        TrajectorySpec([Straight(100.0, -3.0)])


def test_kinematic_consistency_invariant():
    truth = generate_trajectory(urban_loop())
    worst = 0.0
    for k in range(1, len(truth) - 1, 7):
        pdot = (truth[k + 1].nav.pos - truth[k - 1].nav.pos) / (
            truth[k + 1].t - truth[k - 1].t)
        rv = geom.quat_to_rot(truth[k].nav.quat) @ truth[k].nav.vel
        worst = max(worst, float(np.max(np.abs(pdot - rv))))
    assert worst < 1e-4


def test_lateral_model_self_consistency():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    rates = np.array([s.omega[2] for s in truth])
    steady = np.abs(rates - 0.4) < 1e-9
    assert steady.sum() > 500
    worst = 0.0
    for k in np.nonzero(steady)[0]:
        s = truth[k]
        pred = -spec.rho_sg * s.accel[1] * s.nav.vel[0]
        worst = max(worst, abs(s.nav.vel[1] - pred) / abs(s.nav.vel[1]))
    assert worst < 0.02


def test_closed_loop_zero_noise():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    err = SensorErrorSpec(GyroParams(), zero_noise=True)
    imu = synthesize_imu(truth, err)
    nav = truth[0].nav.copy()
    t = 0.0
    worst = 0.0
    for s, m in zip(truth[1:], imu):
        nav = rk4_nav(nav, correct_gyro(m.omega_m, GyroParams()), m.accel_m,
                      GRAVITY_VEC, m.t - t)
        t = m.t
        worst = max(worst, float(np.max(np.abs(nav.pos - s.nav.pos))))
    assert worst < 1e-3


def test_imu_forward_error_model(rng):
    spec = TrajectorySpec([Straight(50.0, 10.0), Arc(30.0, 45.0, 8.0)])
    truth = generate_trajectory(spec)
    params = GyroParams(np.array([0.01, -0.02, 0.005]), 1.02, 0.01, -0.015)
    err = SensorErrorSpec(params, zero_noise=True)
    imu = synthesize_imu(truth, err)
    for s, m in list(zip(truth[1:], imu))[::37]:
        assert np.allclose(correct_gyro(m.omega_m, params), s.omega, atol=1e-12)


def test_injected_standstill_bias_visible():
    spec = TrajectorySpec([Stop(2.0)])
    truth = generate_trajectory(spec)
    bias = np.deg2rad(np.array([0.0, 0.0, 0.5]))
    err = SensorErrorSpec(GyroParams(bias.copy()), zero_noise=True)
    imu = synthesize_imu(truth, err)
    mean_z = np.mean([m.omega_m[2] for m in imu])
    assert abs(mean_z - bias[2]) < 1e-12


def test_wheel_standstill_and_noise_stats():
    spec = TrajectorySpec([Stop(1.0), Straight(1200.0, 10.0)])
    truth = generate_trajectory(spec)
    err = SensorErrorSpec(GyroParams(), seed=5)
    wheel = synthesize_wheel(truth, err)
    still = [v for t, v in wheel if t < 0.9]
    assert all(v == 0.0 for v in still)
    moving = np.array([v - 10.0 for t, v in wheel if 12.0 < t])  # past the ramp
    assert len(moving) > 10_000
    assert abs(np.std(moving) - WHEEL_NOISE) / WHEEL_NOISE < 0.05


def test_determinism_bit_identical():
    spec = TrajectorySpec([Straight(80.0, 10.0), Arc(30.0, 30.0, 8.0)])
    t1 = generate_trajectory(spec)
    t2 = generate_trajectory(spec)
    assert all(np.array_equal(a.nav.pos, b.nav.pos) for a, b in zip(t1, t2))
    err = SensorErrorSpec(GyroParams(), seed=9)
    i1 = synthesize_imu(t1, err)
    i2 = synthesize_imu(t2, err)
    assert all(np.array_equal(a.omega_m, b.omega_m) for a, b in zip(i1, i2))
    w1 = generate_world(t1, seed=2)
    w2 = generate_world(t2, seed=2)
    assert np.array_equal(w1, w2)


def test_world_coverage_invariant():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    world = generate_world(truth, seed=0)
    world = ensure_coverage(world, truth)
    for s in truth[::CAMERA_STRIDE * 5]:
        assert len(visible_landmarks(world, s.nav)) >= 8


def test_bearings_match_landmark_oracle():
    spec = TrajectorySpec([Straight(60.0, 10.0)])
    truth = generate_trajectory(spec)
    world = generate_world(truth, seed=1)
    err = SensorErrorSpec(GyroParams(), seed=0, zero_noise=True)
    frames = synthesize_bearings(truth, world, err, n_slots=8)
    t_by_time = {round(s.t, 6): s for s in truth}
    checked = 0
    for t, rows in frames[::4]:
        nav = t_by_time[round(t, 6)].nav
        for slot, bearing in rows:
            p_obs = geom.quats_to_dirs(bearing)
            angles = []
            for pt in world:
                try:
                    f = landmark_to_feature(pt, nav, CAMERA_EXTRINSICS)
                except ValueError:
                    continue
                angles.append(np.arccos(np.clip(
                    p_obs @ geom.quats_to_dirs(f.bearing), -1, 1)))
            assert min(angles) < 1e-7  # arccos resolution near zero angle
            checked += 1
    assert checked > 20


def test_bearing_slot_persistence():
    spec = TrajectorySpec([Straight(120.0, 10.0)])
    truth = generate_trajectory(spec)
    world = generate_world(truth, seed=3)
    err = SensorErrorSpec(GyroParams(), zero_noise=True)
    frames = synthesize_bearings(truth, world, err, n_slots=6)
    # slots persist: most frame-to-frame transitions track one landmark
    # smoothly; occasional jumps mark slot reuse after a track ends
    prev = {}
    jumps = 0
    smooth = 0
    run = {}
    best_run = 0
    for t, rows in frames:
        cur = {slot: geom.quats_to_dirs(b) for slot, b in rows}
        for slot in cur:
            if slot in prev:
                ang = np.arccos(np.clip(cur[slot] @ prev[slot], -1, 1))
                if ang > 0.2:
                    jumps += 1
                    run[slot] = 0
                else:
                    smooth += 1
                    run[slot] = run.get(slot, 0) + 1
                    best_run = max(best_run, run[slot])
        prev = cur
    assert smooth > 10 * max(jumps, 1)
    assert best_run >= 10


def test_render_frame_blob_positions():
    spec = TrajectorySpec([Straight(30.0, 5.0)])
    truth = generate_trajectory(spec)
    world = np.array([[25.0, 2.0, 1.5]])
    nav = truth[0].nav
    img = render_frame(nav, world, None)
    from viwo.image import detect_features
    from viwo.sensors import project
    feat = landmark_to_feature(world[0], nav, CAMERA_EXTRINSICS)
    (u, v), _ = project(feat.bearing, DEFAULT_INTRINSICS)
    pts = detect_features(img)
    assert len(pts), "blob not detected"
    assert np.hypot(pts[0][0] - u, pts[0][1] - v) < 0.5


def test_simulated_frames_match_a_serial_render(tmp_path):
    # simulate draws each frame's noise on a worker thread one frame ahead;
    # every frame must still be the one a serial render writes, whose noise
    # is the next rng.normal draw of a fresh frame generator
    seed = 6
    out = tmp_path / "ds"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)    # switch threads often, so a race would show
    try:
        pipeline.cmd_simulate(pipeline.RunConfig(out_dir=str(out), scenario="mini_loop",
                                                 seed=seed, measurement_mode="image"))
    finally:
        sys.setswitchinterval(interval)
    truth = generate_trajectory(mini_loop())
    world = ensure_coverage(generate_world(truth, seed=seed), truth, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    shape = (DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width)
    serial = tmp_path / "serial.pgm"
    names = []
    for k, s in enumerate(truth[::CAMERA_STRIDE]):
        if s.t == 0.0:
            continue
        names.append(f"{k:06d}.pgm")
        save_pgm(serial, render_frame(s.nav, world, rng.normal(0.0, IMAGE_NOISE, shape)))
        assert serial.read_bytes() == (out / "frames" / names[-1]).read_bytes(), names[-1]
    assert sorted(p.name for p in (out / "frames").iterdir()) == names


def test_simulate_leaves_no_thread_after_a_failed_write(tmp_path, monkeypatch):
    real_save_pgm = pipeline.save_pgm
    threads_at_save = []

    def save_pgm_failing_third(path, img):
        threads_at_save.append(threading.active_count())
        if len(threads_at_save) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_save_pgm(path, img)

    monkeypatch.setattr(pipeline, "save_pgm", save_pgm_failing_third)
    cfg = pipeline.RunConfig(out_dir=str(tmp_path / "ds"), scenario="mini_loop",
                             seed=1, measurement_mode="image")
    before = threading.active_count()
    with pytest.raises(OSError):
        pipeline.cmd_simulate(cfg)
    assert threads_at_save == [before + 1] * 3    # the noise worker ran
    assert threading.active_count() == before
    assert not list(tmp_path.rglob("*.pgm.tmp"))


def test_highway_route_length_and_validity():
    spec = highway_route()
    truth = generate_trajectory(spec)
    d = 0.0
    for k in range(len(truth) - 1):
        d += np.linalg.norm(truth[k + 1].nav.pos - truth[k].nav.pos)
    assert d > 4900.0
    speeds = np.array([np.linalg.norm(s.nav.vel) for s in truth if s.t > 15.0])
    lat = np.array([abs(s.accel[1]) for s in truth])
    assert speeds.min() > 10.0     # stays inside the lateral-model validity
    assert lat.max() < 4.0

