import errno
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from landmarks import FeatureState, landmark_to_feature
from oracles import imu_rows
from viwo import geom, pipeline, sim
from viwo.dynamics import (GRAVITY, GRAVITY_VEC, GyroParams, NavState,
                           apply_gyro_error, correct_gyro, rk4_nav)
from viwo.features import RHO_CEIL
from viwo.image import Image, save_pgm
from viwo.sensors import DEFAULT_INTRINSICS, pixel, project
from viwo.sim import (ACCEL_NOISE, CAMERA_EXTRINSICS, CAMERA_STRIDE, GYRO_NOISE, IMAGE_NOISE,
                      IMU_RATE_HZ, MAX_RANGE, PIXEL_NOISE, VIEW_BLOCK_POSES, WHEEL_NOISE, Arc,
                      Phase, SensorErrorSpec, Stop, Straight, Trajectory, TrajectorySpec,
                      camera_table, camera_view, ensure_coverage, generate_trajectory,
                      generate_world, highway_route, mini_loop, render_frame,
                      synthesize_bearings, synthesize_imu, synthesize_wheel, urban_loop)


def nav_at(truth: Trajectory, i: int) -> NavState:
    return NavState.from_row(truth.nav[i])


def one_sample(truth: Trajectory, i: int) -> Trajectory:
    """The trajectory of truth's sample i alone: one camera pose."""
    return Trajectory(truth.t[i:i + 1], truth.nav[i:i + 1], truth.omega[i:i + 1],
                      truth.accel[i:i + 1])


def test_single_straight_duration_and_heading():
    spec = TrajectorySpec([Straight(100.0, 10.0)])
    truth = generate_trajectory(spec)
    assert abs(truth.t[-1] - 10.0) < 1e-9
    headings = [geom.so3_log(q)[2] for q in truth.quat]
    assert np.allclose(headings, headings[0], atol=1e-12)
    assert abs(truth.pos[-1, 0] - 100.0) < 1e-3


def test_arc_yaw_rate_plateau():
    spec = TrajectorySpec([Arc(20.0, 90.0, 10.0)])
    truth = generate_trajectory(spec)
    rates = truth.omega[1:, 2]
    plateau = np.isclose(rates, 0.5, atol=1e-9)
    assert plateau.mean() > 0.9  # whole arc is a plateau without neighbours
    turn = geom.so3_log(truth.quat[-1])[2] - geom.so3_log(truth.quat[0])[2]
    assert abs(turn - np.pi / 2) < 2e-3


def test_stop_segment_standstill():
    spec = TrajectorySpec([Stop(3.0), Straight(50.0, 8.0)])
    truth = generate_trajectory(spec)
    still = truth.t < 2.9
    assert still.sum() > 200
    assert np.allclose(truth.omega[still], 0.0)
    assert np.linalg.norm(truth.nav[still, 0:3], axis=1).max() < 1e-12
    assert np.linalg.norm(truth.nav[-1, 0:3]) > 7.0


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
    for k in range(1, len(truth.t) - 1, 7):
        pdot = (truth.pos[k + 1] - truth.pos[k - 1]) / (truth.t[k + 1] - truth.t[k - 1])
        rv = geom.quats_to_frames(truth.quat[k]) @ truth.nav[k, 0:3]
        worst = max(worst, float(np.max(np.abs(pdot - rv))))
    assert worst < 1e-4


def test_lateral_model_self_consistency():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    steady = np.abs(truth.omega[:, 2] - 0.4) < 1e-9
    assert steady.sum() > 500
    vel, accel = truth.nav[steady, 0:3], truth.accel[steady]
    pred = -spec.rho_sg * accel[:, 1] * vel[:, 0]
    assert np.max(np.abs(vel[:, 1] - pred) / np.abs(vel[:, 1])) < 0.02


def test_closed_loop_zero_noise():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    err = SensorErrorSpec(GyroParams(), zero_noise=True)
    imu = synthesize_imu(truth, err)
    nav = nav_at(truth, 0).copy()
    t = 0.0
    worst = 0.0
    for pos, m in zip(truth.pos[1:], imu):
        nav = NavState.from_row(rk4_nav(nav, correct_gyro(m[1:4], GyroParams())[None],
                                        m[None, 4:7], GRAVITY_VEC, np.array([m[0] - t]))[1])
        t = m[0]
        worst = max(worst, float(np.max(np.abs(nav.pos - pos))))
    assert worst < 1e-3


def test_imu_forward_error_model(rng):
    spec = TrajectorySpec([Straight(50.0, 10.0), Arc(30.0, 45.0, 8.0)])
    truth = generate_trajectory(spec)
    params = GyroParams(np.array([0.01, -0.02, 0.005]), 1.02, 0.01, -0.015)
    err = SensorErrorSpec(params, zero_noise=True)
    imu = synthesize_imu(truth, err)
    for omega, m in list(zip(truth.omega[1:], imu))[::37]:
        assert np.allclose(correct_gyro(m[1:4], params), omega, atol=1e-12)


def test_injected_standstill_bias_visible():
    spec = TrajectorySpec([Stop(2.0)])
    truth = generate_trajectory(spec)
    bias = np.deg2rad(np.array([0.0, 0.0, 0.5]))
    err = SensorErrorSpec(GyroParams(bias.copy()), zero_noise=True)
    imu = synthesize_imu(truth, err)
    mean_z = np.mean(imu[:, 3])
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
    assert np.array_equal(t1.nav, t2.nav)
    err = SensorErrorSpec(GyroParams(), seed=9)
    i1 = synthesize_imu(t1, err)
    i2 = synthesize_imu(t2, err)
    assert np.array_equal(i1, i2)
    w1 = generate_world(t1, seed=2)
    w2 = generate_world(t2, seed=2)
    assert np.array_equal(w1, w2)


def bearings_of(truth, world, err, n_slots):
    """synthesize_bearings on the camera view of truth's poses, as frames
    (t, [(slot, bearing)])."""
    cameras = camera_table(truth)
    t_obs, slots, bearings = synthesize_bearings(cameras, camera_view(world, cameras), err,
                                                 n_slots)
    frames = {}
    for t, slot, q in zip(t_obs.tolist(), slots.tolist(), bearings):
        frames.setdefault(t, []).append((slot, q))
    return list(frames.items())


def test_world_coverage_invariant():
    spec = urban_loop()
    truth = generate_trajectory(spec)
    cameras = camera_table(truth)
    world = ensure_coverage(generate_world(truth, seed=0), cameras)
    assert np.diff(camera_view(world, cameras).start).min() >= 8
    for row in truth.nav[::CAMERA_STRIDE * 5]:
        assert len(reference_visible_landmarks(world, NavState.from_row(row))) >= 8


def test_bearings_match_landmark_oracle():
    spec = TrajectorySpec([Straight(60.0, 10.0)])
    truth = generate_trajectory(spec)
    world = generate_world(truth, seed=1)
    err = SensorErrorSpec(GyroParams(), seed=0, zero_noise=True)
    frames = bearings_of(truth, world, err, 8)
    checked = 0
    for t, rows in frames[::4]:
        nav = nav_at(truth, int(np.nonzero(truth.t == t)[0][0]))
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
    frames = bearings_of(truth, world, err, 6)
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
    nav = nav_at(truth, 0)
    img = render_frame(camera_view(world, camera_table(one_sample(truth, 0))).bearings, None)
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
    cameras = camera_table(truth)
    view = camera_view(ensure_coverage(generate_world(truth, seed=seed), cameras, seed=seed),
                       cameras)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    shape = (DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width)
    serial = tmp_path / "serial.pgm"
    names = []
    for k, t in enumerate(cameras.t):
        if t == 0.0:
            continue
        names.append(f"{k:06d}.pgm")
        save_pgm(serial, render_frame(view.bearings[view.rows(k)],
                                      rng.normal(0.0, IMAGE_NOISE, shape)))
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
    d = np.linalg.norm(np.diff(truth.pos, axis=0), axis=1).sum()
    assert d > 4900.0
    speeds = np.linalg.norm(truth.nav[truth.t > 15.0, 0:3], axis=1)
    lat = np.abs(truth.accel[:, 1])
    assert speeds.min() > 10.0     # stays inside the lateral-model validity
    assert lat.max() < 4.0



# --- the per-sample and per-landmark simulator, kept as the reference ---------
#
# The simulator computes its trajectory inputs, world, sensor streams and
# bearings in array passes.  The functions below are the loops those passes
# replaced, kept verbatim (a Phase's polynomials were its methods); every
# array pass must give their bytes.

@dataclass
class TrajectorySample:
    t: float
    nav: NavState
    omega: np.ndarray    # true body rate over the interval ending at t
    accel: np.ndarray    # true specific force over the same interval


class ReferencePhase(Phase):
    @property
    def kdot(self):
        return (self.k1 - self.k0) / self.duration

    def speed(self, tau: float) -> float:
        c0, c1, c2, c3 = self.c
        return c0 + tau * (c1 + tau * (c2 + tau * c3))

    def speed_dot(self, tau: float) -> float:
        _, c1, c2, c3 = self.c
        return c1 + tau * (2.0 * c2 + 3.0 * tau * c3)

    def distance(self, tau: float) -> float:
        c0, c1, c2, c3 = self.c
        return tau * (c0 + tau * (c1 / 2.0 + tau * (c2 / 3.0 + tau * c3 / 4.0)))

    def chi_increment(self, tau: float) -> float:
        c0, c1, c2, c3 = self.c
        kd = self.kdot
        k0 = self.k0
        return (k0 * self.distance(tau)
                + kd * tau ** 2 * (c0 / 2.0 + tau * (c1 / 3.0
                                                     + tau * (c2 / 4.0 + tau * c3 / 5.0))))


class ReferenceProfile:
    """Analytic lookup of (V, Vdot, kappa, kappadot, chi) over time."""

    def __init__(self, phases: list[Phase]):
        self.phases = phases
        self.starts = np.concatenate([[0.0], np.cumsum([p.duration for p in phases])])
        self.chi0 = np.zeros(len(phases) + 1)
        for i, p in enumerate(phases):
            self.chi0[i + 1] = self.chi0[i] + p.chi_increment(p.duration)

    @property
    def total_time(self) -> float:
        return float(self.starts[-1])

    def at(self, t: float):
        idx = int(np.searchsorted(self.starts, t, side="right") - 1)
        idx = min(max(idx, 0), len(self.phases) - 1)
        p = self.phases[idx]
        tau = t - self.starts[idx]
        v = p.speed(tau)
        k = p.k0 + p.kdot * tau
        chi = self.chi0[idx] + p.chi_increment(tau)
        return v, p.speed_dot(tau), k, p.kdot, chi


def reference_generate_trajectory(spec: TrajectorySpec) -> list[TrajectorySample]:
    profile = ReferenceProfile([ReferencePhase(p.duration, p.c, p.k0, p.k1)
                                for p in sim._compile_phases(spec)])
    dt = 1.0 / IMU_RATE_HZ
    steps = int(np.floor(profile.total_time / dt + 1e-9))
    rho = spec.rho_sg

    def inputs_at(t_mid):
        v, vdot, k, kdot, chi = profile.at(t_mid)
        a_lat = v * v * k
        psi = chi + rho * a_lat
        psidot = v * k + rho * (2.0 * v * vdot * k + v * v * kdot)
        beta = np.arctan(-rho * a_lat) if v > 0 else 0.0
        v_body = np.array([v * np.cos(beta), v * np.sin(beta), 0.0])
        # world acceleration of the axle point, then specific force
        pxdd = vdot * np.cos(chi) - v * (v * k) * np.sin(chi)
        pydd = vdot * np.sin(chi) + v * (v * k) * np.cos(chi)
        cos_p, sin_p = np.cos(psi), np.sin(psi)
        a_body = np.array([cos_p * pxdd + sin_p * pydd,
                           -sin_p * pxdd + cos_p * pydd,
                           GRAVITY])
        omega = np.array([0.0, 0.0, psidot])
        return omega, a_body, psi, v_body

    omega0, accel0, psi0, vbody0 = inputs_at(0.0)
    nav = NavState(vbody0, geom.so3_exp(np.array([0.0, 0.0, psi0])), np.zeros(3))
    out = [TrajectorySample(0.0, nav.copy(), omega0, accel0)]
    t = 0.0
    for k in range(steps):
        t_next = (k + 1) * dt
        omega, accel, _, _ = inputs_at(t + dt / 2.0)
        nav = NavState.from_row(rk4_nav(nav, omega[None], accel[None], GRAVITY_VEC,
                                        np.array([dt]))[1])
        out.append(TrajectorySample(t_next, nav.copy(), omega, accel))
        t = t_next
    return out


def reference_generate_world(truth: list[TrajectorySample], seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEED]))
    pts = []
    dist = 0.0
    last = truth[0].nav.pos
    for s in truth:
        step = np.linalg.norm(s.nav.pos - last)
        dist += step
        last = s.nav.pos
        if dist >= 10.0 or not pts:
            dist = 0.0
            heading = geom.quats_to_dirs(s.nav.quat)
            lateral_dir = np.array([-heading[1], heading[0], 0.0])
            for _ in range(4):
                side = rng.choice([-1.0, 1.0])
                off = rng.uniform(3.0, 30.0)
                h = rng.uniform(-1.0, 10.0)
                ahead = rng.uniform(5.0, 40.0)
                pts.append(s.nav.pos + heading * ahead
                           + lateral_dir * side * off + np.array([0, 0, h]))
    return np.array(pts)


def reference_visible_landmarks(world: np.ndarray, nav: NavState) -> list[int]:
    intr, ext = DEFAULT_INTRINSICS, CAMERA_EXTRINSICS
    r_wb = geom.quats_to_frames(nav.quat)
    cam_world = nav.pos + r_wb @ ext.lever_arm
    d_cam = (world - cam_world) @ (ext.r_cb @ r_wb.T).T
    rng_m = np.sqrt((d_cam * d_cam).sum(axis=1))
    ok = (d_cam[:, 0] > 1e-6) & (rng_m >= 2.0) & (rng_m <= 80.0)
    if not ok.any():
        return []
    (u, v), _ = pixel(d_cam[ok, 0], d_cam[ok, 1], d_cam[ok, 2], intr)
    in_img = ((u >= 8.0) & (u <= intr.width - 1 - 8.0)
              & (v >= 8.0) & (v <= intr.height - 1 - 8.0))
    idx = np.nonzero(ok)[0][in_img]
    order = np.argsort(rng_m[idx], kind="stable")
    return [int(i) for i in idx[order]]


def reference_ensure_coverage(world: np.ndarray, truth: list[TrajectorySample],
                              seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    pts = list(world)
    for s in truth[::CAMERA_STRIDE]:
        for _ in range(40):
            vis = reference_visible_landmarks(np.array(pts), s.nav)
            if len(vis) >= 8:
                break
            heading = geom.quats_to_dirs(s.nav.quat)
            lateral_dir = np.array([-heading[1], heading[0], 0.0])
            pts.append(s.nav.pos + heading * rng.uniform(8, 35)
                       + lateral_dir * rng.uniform(-12, 12)
                       + np.array([0, 0, rng.uniform(0.0, 6.0)]))
    return np.array(pts)


def reference_synthesize_imu(truth: list[TrajectorySample],
                             err: SensorErrorSpec) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 1]))
    noisy = not err.zero_noise
    sg = GYRO_NOISE * np.sqrt(IMU_RATE_HZ)
    sa = ACCEL_NOISE * np.sqrt(IMU_RATE_HZ)
    out = []
    for s in truth[1:]:
        omega_m = apply_gyro_error(s.omega, err.params)
        if noisy:
            omega_m = omega_m + rng.normal(0.0, sg, 3)
        accel_m = s.accel + (rng.normal(0.0, sa, 3) if noisy else 0.0)
        out.append((s.t, omega_m, accel_m))
    return imu_rows(out)


def reference_synthesize_wheel(truth: list[TrajectorySample],
                               err: SensorErrorSpec) -> list[tuple[float, float]]:
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 2]))
    out = []
    for s in truth[1:]:
        v = float(s.nav.vel[0])
        if abs(v) < 5e-3:
            out.append((s.t, 0.0))
        else:
            n = 0.0 if err.zero_noise else rng.normal(0.0, WHEEL_NOISE)
            out.append((s.t, v + n))
    return out


def reference_landmark_to_feature(landmark_world: np.ndarray, s: NavState,
                                  ext) -> FeatureState:
    r_wb = geom.quats_to_frames(s.quat)
    cam_world = s.pos + r_wb @ ext.lever_arm
    d_cam = ext.r_cb @ (r_wb.T @ (landmark_world - cam_world))
    rng = np.sqrt(d_cam @ d_cam)
    if d_cam[0] <= 0.0:
        raise ValueError("landmark behind the camera")
    if rng < 1.0 / RHO_CEIL:
        raise ValueError(f"landmark range {rng} below minimum depth {1.0 / RHO_CEIL}")
    return FeatureState(geom.bearing_from_dir(d_cam / rng), 1.0 / rng)


def reference_synthesize_bearings(truth: list[TrajectorySample], world: np.ndarray,
                                  err: SensorErrorSpec, n_slots: int):
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 3]))
    sigma_tan = PIXEL_NOISE / DEFAULT_INTRINSICS.fx
    slot_of: dict[int, int] = {}
    frames = []
    for s in truth[::CAMERA_STRIDE]:
        if s.t == 0.0:
            continue
        vis = reference_visible_landmarks(world, s.nav)
        vis_set = set(vis)
        for lm, slot in list(slot_of.items()):
            if lm not in vis_set:
                del slot_of[lm]
        free = sorted(set(range(n_slots)) - set(slot_of.values()))
        # assign fresh slots to far landmarks: they stay in view longest
        for lm in reversed(vis):
            if lm not in slot_of and free:
                slot_of[lm] = free.pop(0)
        observed = sorted(slot_of.items(), key=lambda kv: kv[1])
        bearings = np.array([reference_landmark_to_feature(world[lm], s.nav,
                                                           CAMERA_EXTRINSICS).bearing
                             for lm, _ in observed]).reshape(-1, 4)
        if not err.zero_noise and observed:
            bearings = geom.s2_boxplus_rows(
                bearings, rng.normal(0.0, sigma_tan, (len(observed), 2)))
        frames.append((s.t, [(slot, q) for (_, slot), q in zip(observed, bearings)]))
    return frames


def reference_render_frame(nav: NavState, world: np.ndarray, noise: np.ndarray | None) -> Image:
    intr = DEFAULT_INTRINSICS
    data = np.full((intr.height, intr.width), 10.0)
    for idx in reference_visible_landmarks(world, nav):
        feat = reference_landmark_to_feature(world[idx], nav, CAMERA_EXTRINSICS)
        (u, v), _ = project(feat.bearing, intr, require_in_image=False)
        lo_u, hi_u = int(max(0, u - 6)), int(min(intr.width, u + 7))
        lo_v, hi_v = int(max(0, v - 6)), int(min(intr.height, v + 7))
        if lo_u >= hi_u or lo_v >= hi_v:
            continue
        uu, vv = np.meshgrid(np.arange(lo_u, hi_u, dtype=float),
                             np.arange(lo_v, hi_v, dtype=float))
        data[lo_v:hi_v, lo_u:hi_u] += 200.0 * np.exp(
            -((uu - u) ** 2 + (vv - v) ** 2) / (2.0 * 1.5 ** 2))
    if noise is not None:
        data += noise
    return Image(np.clip(data, 0.0, 255.0, out=data))


def _truth_bytes(truth: Trajectory) -> bytes:
    return np.column_stack((truth.t, truth.nav, truth.omega, truth.accel)).tobytes()


def _reference_truth_bytes(truth: list[TrajectorySample]) -> bytes:
    return np.array([[s.t, *s.nav.vel, *s.nav.quat, *s.nav.pos, *s.omega, *s.accel]
                     for s in truth]).tobytes()


def _observation_bytes(t_obs, slots, bearings) -> tuple:
    return t_obs.tobytes(), slots.tolist(), bearings.tobytes()


def _reference_observation_bytes(frames) -> tuple:
    """The reference's frames (t, [(slot, bearing)]) as one row per
    observation, as synthesize_bearings gives them."""
    return _observation_bytes(np.array([t for t, seen in frames for _ in seen]),
                              np.array([slot for _, seen in frames for slot, _ in seen]),
                              np.array([q for _, seen in frames for _, q in seen]))


# mini_loop, and highway's standstill, first straight and first curve
SCENARIOS = {"mini_loop": mini_loop(),
             "highway_prefix": TrajectorySpec(highway_route().segments[:3])}
INJECTED = GyroParams(np.deg2rad([0.3, -0.2, 0.5]), 1.01, np.deg2rad(0.5), np.deg2rad(0.5))


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def simulated(request):
    """A scenario's truth and world, from the array passes and from the
    reference loops."""
    spec = SCENARIOS[request.param]
    truth = generate_trajectory(spec)
    ref_truth = reference_generate_trajectory(spec)
    world = generate_world(truth, seed=17)
    ref_world = reference_generate_world(ref_truth, seed=17)
    cameras = camera_table(truth)
    covered = ensure_coverage(world, cameras, seed=17)
    return {"truth": truth, "ref_truth": ref_truth,
            "world": world, "ref_world": ref_world,
            "covered": covered,
            "ref_covered": reference_ensure_coverage(ref_world, ref_truth, seed=17),
            "cameras": cameras, "view": camera_view(covered, cameras)}


def test_truth_and_world_match_the_reference_loops(simulated):
    assert _truth_bytes(simulated["truth"]) == _reference_truth_bytes(simulated["ref_truth"])
    assert simulated["world"].tobytes() == simulated["ref_world"].tobytes()
    assert simulated["covered"].shape[0] > simulated["world"].shape[0]   # points added
    assert simulated["covered"].tobytes() == simulated["ref_covered"].tobytes()


@pytest.mark.parametrize("zero_noise", [False, True], ids=["noisy", "zero_noise"])
def test_sensor_streams_match_the_reference_loops(simulated, zero_noise):
    truth, ref_truth, world = simulated["truth"], simulated["ref_truth"], simulated["covered"]
    err = SensorErrorSpec(INJECTED.copy(), seed=17, zero_noise=zero_noise)
    assert synthesize_imu(truth, err).tobytes() == reference_synthesize_imu(
        ref_truth, err).tobytes()
    assert synthesize_wheel(truth, err).tobytes() == np.array(
        reference_synthesize_wheel(ref_truth, err)).tobytes()
    observations = synthesize_bearings(simulated["cameras"], simulated["view"], err, 14)
    assert _observation_bytes(*observations) == _reference_observation_bytes(
        reference_synthesize_bearings(ref_truth, world, err, n_slots=14))


def test_rendered_frames_match_the_reference_loop(simulated):
    world, cameras, view = simulated["covered"], simulated["cameras"], simulated["view"]
    for k in range(1, len(cameras.t), 40):
        assert (render_frame(view.bearings[view.rows(k)], None).data.tobytes()
                == reference_render_frame(NavState.from_row(cameras.nav[k]), world,
                                          None).data.tobytes())


def test_overlapping_blobs_add_in_bearing_order():
    # two landmarks under 3 px apart in the image: the pixels both blobs
    # cover take 10 + near + far, in that order, as the reference loop adds
    # them
    truth = generate_trajectory(TrajectorySpec([Straight(30.0, 5.0)]))
    world = np.array([[25.5, 2.1, 1.45], [25.0, 2.0, 1.5], [60.0, -3.0, 4.0]])
    view = camera_view(world, camera_table(one_sample(truth, 0)))
    assert view.landmarks.tolist() == [1, 0, 2]
    near, far = (project(q, DEFAULT_INTRINSICS)[0] for q in view.bearings[:2])
    assert 0.0 < np.hypot(near[0] - far[0], near[1] - far[1]) < 3.0
    assert (render_frame(view.bearings, None).data.tobytes()
            == reference_render_frame(nav_at(truth, 0), world, None).data.tobytes())


@pytest.fixture(scope="module")
def urban_worlds():
    """Seed-17 urban_loop's camera table and three worlds: the generated
    one, the densified one, and the first station's four points alone."""
    truth = generate_trajectory(urban_loop())
    cameras = camera_table(truth)
    world = generate_world(truth, seed=17)
    return cameras, {"generated": world, "densified": ensure_coverage(world, cameras, seed=17),
                     "first_station": world[:4]}


@pytest.mark.parametrize("name", ["generated", "densified", "first_station"])
def test_view_matches_the_scalar_visibility(urban_worlds, name):
    cameras, worlds = urban_worlds
    world = worlds[name]
    view = camera_view(world, cameras)
    seen = np.diff(view.start)
    assert len(cameras.t) > 16 * VIEW_BLOCK_POSES
    assert seen.max() > 0
    if name == "first_station":
        assert (seen == 0).any()
    assert_view_is_the_scalar_visibility(world, cameras, view)


def test_view_keeps_the_points_at_the_range_limits():
    # points at 79.9, 80.0 and 80.1 m and near 2 m from the first and the
    # last camera of a 64-pose block; on a straight, the last camera's far
    # points are the block's farthest visible ones from its hub, which the
    # range prefilter must keep
    truth = generate_trajectory(TrajectorySpec([Straight(300.0, 14.0)]))
    cameras = camera_table(truth)
    assert len(cameras.t) > 2 * VIEW_BLOCK_POSES
    dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.3, -0.1], [1.0, -0.35, 0.2]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]      # camera frame, all in the image
    ranges = [1.99, 2.0, 2.01, MAX_RANGE - 0.1, MAX_RANGE, MAX_RANGE + 0.1]
    poses = (VIEW_BLOCK_POSES, 2 * VIEW_BLOCK_POSES - 1)
    pts = [cameras.centers[k] + cameras.r_cw[k].T @ (d * r)
           for k in poses for r in ranges for d in dirs]
    world = np.array(pts + pts[9:12])     # repeated points tie in range
    view = camera_view(world, cameras)
    assert_view_is_the_scalar_visibility(world, cameras, view)
    per_pose = len(ranges) * len(dirs)
    for i, k in enumerate(poses):
        seen = set(view.landmarks[view.rows(k)].tolist())
        first = i * per_pose
        assert set(range(first + 6, first + 12)) <= seen, k      # 2.01 and 79.9 m
        assert not seen & set(range(first, first + 3)), k        # 1.99 m
        assert not seen & set(range(first + 15, first + 18)), k  # 80.1 m


def test_view_of_a_lone_nearby_point_at_the_range_limit():
    # the range prefilter leaves one point in the block of a camera turned
    # by about 45 degrees; one-row and many-row products round the camera
    # frame apart in the last bit for some of these points 80 m away, so the
    # view must take the product the whole world takes
    truth = generate_trajectory(mini_loop())
    cameras = camera_table(truth)
    k = int(np.argmin(np.abs(np.abs(cameras.r_cw[:, 0, 1]) - 0.7)))
    i = CAMERA_STRIDE * k
    one_pose = camera_table(one_sample(truth, i))
    nav, center, r_wc = nav_at(truth, i), one_pose.centers[0], one_pose.r_cw[0].T
    far = center + np.array([1e4, 0.0, 0.0])
    dirs = np.random.default_rng(0).normal(size=(20, 3)) * [0.05, 0.3, 0.2] + [1.0, 0.0, 0.0]
    for d in dirs / np.linalg.norm(dirs, axis=1)[:, None]:
        at_limit = r_wc @ (d * MAX_RANGE)
        for ulps in range(-6, 7):
            world = np.array([center + at_limit * (1.0 + ulps * 1.1e-16), far])
            assert (camera_view(world, one_pose).landmarks.tolist()
                    == reference_visible_landmarks(world, nav)), (d, ulps)


def test_coverage_counts_an_added_point_at_the_range_limit_as_the_view_does():
    # a second camera 80 m (to within 4 ulps) from the first point that
    # ensure_coverage adds for the first, which looks at that point from all
    # around: the coverage count of the second camera is the view's, so the
    # view gives it the 8 landmarks ensure_coverage promises.  One-row and
    # many-row products round the camera frame apart in the last bit, which
    # decides the pair for some of these cameras.
    seed = 1
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    first = np.array([rng.uniform(8, 35), rng.uniform(-12, 12), rng.uniform(0.0, 6.0)])
    far = np.array([[1e4, 1e4, 0.0], [1e4 + 1.0, 1e4, 0.0]])   # seen by neither camera
    nav = np.zeros((CAMERA_STRIDE + 1, 10))
    nav[:, 3] = 1.0
    short = []
    for yaw in np.linspace(0.0, 2.0 * np.pi, 144, endpoint=False):
        axis = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        r_wb = np.array([axis, [-axis[1], axis[0], 0.0], [0.0, 0.0, 1.0]]).T
        nav[-1, 3:7] = [np.cos(yaw / 2.0), 0.0, 0.0, np.sin(yaw / 2.0)]
        for ulps in range(-4, 5):
            center = first - (MAX_RANGE + ulps * np.spacing(MAX_RANGE)) * axis
            nav[-1, 7:10] = center - r_wb @ CAMERA_EXTRINSICS.lever_arm
            cameras = camera_table(Trajectory(np.arange(len(nav)) * 0.01, nav,
                                              np.zeros((len(nav), 3)), np.zeros((len(nav), 3))))
            world = ensure_coverage(far, cameras, seed=seed)
            assert world[2].tobytes() == first.tobytes()
            if np.diff(camera_view(world, cameras).start).min() < 8:
                short.append((float(yaw), ulps))
    assert short == []


def assert_view_is_the_scalar_visibility(world, cameras, view):
    for k, row in enumerate(cameras.nav):
        nav = NavState.from_row(row)
        vis = reference_visible_landmarks(world, nav)
        assert view.landmarks[view.rows(k)].tolist() == vis, k
        if vis:
            assert (view.bearings[view.rows(k)].tobytes()
                    == landmark_to_feature(world[vis], nav, CAMERA_EXTRINSICS).bearing.tobytes())


@pytest.mark.parametrize("offset", [[-5.0, 0.3, 0.2], [0.05, 0.0, 0.01]],
                         ids=["behind_the_camera", "below_minimum_depth"])
def test_landmark_kernel_raises_like_the_scalar(offset):
    nav = nav_at(generate_trajectory(mini_loop()), 500)
    r_wb = geom.quats_to_frames(nav.quat)
    cam = nav.pos + r_wb @ CAMERA_EXTRINSICS.lever_arm
    bad = cam + r_wb @ CAMERA_EXTRINSICS.r_cb.T @ np.array(offset)
    good = cam + r_wb @ np.array([20.0, 1.0, 0.5])
    with pytest.raises(ValueError) as scalar:
        reference_landmark_to_feature(bad, nav, CAMERA_EXTRINSICS)
    for stack in (bad, np.array([bad]), np.array([good, bad, good])):
        with pytest.raises(ValueError) as rows:
            landmark_to_feature(stack, nav, CAMERA_EXTRINSICS)
        assert str(rows.value) == str(scalar.value)
    feat = landmark_to_feature(np.array([good, good]), nav, CAMERA_EXTRINSICS)
    ref = reference_landmark_to_feature(good, nav, CAMERA_EXTRINSICS)
    assert feat.bearing.tobytes() == np.array([ref.bearing, ref.bearing]).tobytes()
    assert feat.rho.tobytes() == np.array([ref.rho, ref.rho]).tobytes()


def test_profile_matches_the_reference_phases_at_any_time():
    # random times, most of them in curvature blends, where the pow(tau, 2)
    # term counts: it and tau * tau round apart for about 1 tau in 1200,
    # which the trajectories' few thousand midpoints need not reach
    rng = np.random.default_rng(3)
    for spec in (urban_loop(), highway_route(), mini_loop()):
        phases = sim._compile_phases(spec)
        profile = sim._Profile(phases)
        ref = ReferenceProfile([ReferencePhase(p.duration, p.c, p.k0, p.k1) for p in phases])
        t = np.concatenate([rng.uniform(0.0, profile.total_time, 2000)]
                           + [profile.starts[i] + rng.uniform(0.0, p.duration, 4000)
                              for i, p in enumerate(phases) if p.k1 != p.k0])
        got = np.column_stack(profile.at(t))
        want = np.array([[float(x) for x in ref.at(ti)] for ti in t])
        assert got.tobytes() == want.tobytes()
