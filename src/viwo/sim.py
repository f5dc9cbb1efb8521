"""Deterministic ground-truth and sensor synthesis at desk scale.

A scenario is an ordered list of segments (straights, arcs, stops).  The
compiler turns it into time phases with piecewise-linear speed and curvature
(clothoid-style blends at curvature changes, acceleration-limited speed
ramps), from which body rates and specific forces follow analytically.  The
rear-axle sideslip follows the single-track relation, so the lateral-velocity
model holds exactly in steady cornering:

    v_y = -rho_sg * a_y * v_x,   heading = path tangent + rho_sg * V^2 * kappa

Ground truth is *defined* as the RK4 flow of the nav dynamics under the
emitted rate/force samples (sampled mid-interval): one dynamics.rk4_nav
call over the whole trajectory, the kernel the filter's predict runs.
Sensors synthesized from that flow are therefore exactly kinematically
consistent with it: a filter fed noise-free streams reproduces the truth to
integrator precision.  The truth is one Trajectory of arrays, the sample
times, the rk4_nav rows and the rates and forces, which the world, the
camera table, the sensor streams and the gt.csv write read row by row.

The rates are fixed: ground truth, IMU and wheel speed at IMU_RATE_HZ
(100 Hz), camera frames (bearings or rendered images) at every
CAMERA_STRIDE-th sample (10 Hz).

The camera's view is worked out once per dataset, in array passes:
camera_table holds each camera pose's rotations and position, and
camera_view finds the landmarks every pose sees, nearest first, and their
bearings.  Visibility is one (n, 3) @ (3, 3) product per pose, stacked
VIEW_BLOCK_POSES poses at a time so that its arrays stay small.  A block
takes only the world points within MAX_RANGE + its reach (+ 1 m) of its
middle camera, where reach is the farthest of its cameras from that one:
by the triangle inequality no other point is in range of any of them, and
the kept points stay in index order, so the view is the one of the whole
world, bit for bit.  The blocks keep 5 % of the (pose, point) pairs on
the highway route and 27 % on urban_loop.
ensure_coverage counts from one such pass over the generated world and
one per added point over the poses within MAX_RANGE of it;
synthesize_bearings and render_frame read the view of the densified world
and project nothing again, and synthesize_bearings returns the observations
as arrays, which bearings.csv takes with one direction conversion.

A rendered frame takes its image noise as an argument: render_frame adds a
given (height, width) array, which draw_image_noise fills from the frame
generator, so the caller decides where and when the noise is drawn.

The body origin sits at the rear-axle center, so wheel speed and the lateral
model need no extra lever arm.

The rig is fixed too: every dataset comes from one camera,
sensors.DEFAULT_INTRINSICS, mounted as CAMERA_EXTRINSICS, and from one set of
sensor-noise levels, the *_NOISE constants below.  A dataset either has all
five noise levels or, with SensorErrorSpec.zero_noise, none of them.
Other rigs and sensor faults are to be made by editing simulated datasets,
not by settings here.

A simulated dataset is fixed to the byte: datasets from the seeds named in
ROADMAP.md and the acceptance suite are what every accuracy figure rests
on.  The trajectory, the world and the sensor streams are computed in
array passes, per frame or per stream, that do the operations of the
per-sample and per-landmark loops kept in tests/test_sim.py, in the same
order, and must match them bit for bit: rotations of stacked vectors are
one matrix-vector product per row, norms one 1-D dot per row, powers go
through the scalar pow (np.float_power, not the array ``**``, which
squares), each stream's normal draws are taken in the serial order, and
overlapping blobs add at a pixel in landmark order.
scripts/ab_outputs.py checks the written datasets against another tree.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geom
from .dynamics import (GRAVITY, GRAVITY_VEC, GyroParams, NavState, apply_gyro_error,
                       rk4_nav)
from .features import CameraExtrinsics
from .image import Image
from .sensors import DEFAULT_INTRINSICS, pixel, project_rows

IMU_RATE_HZ = 100.0         # IMU, wheel and ground-truth sample rate
CAMERA_STRIDE = 10          # IMU samples per camera frame: 10 Hz frames
MAX_LATERAL_ACCEL = 8.0     # m/s^2, feasibility gate for arcs
ACCEL_LIMIT = 1.5           # m/s^2, longitudinal ramp limit
BLEND_TIME_S = 1.2          # curvature blend duration

# camera mount: axes aligned with the body, 1.8 m ahead of and 1.2 m above
# the rear axle
CAMERA_EXTRINSICS = CameraExtrinsics(np.eye(3), np.array([1.8, 0.0, 1.2]))
GYRO_NOISE = 2.618e-4       # rad/s/sqrt(Hz)  (0.015 deg/s/sqrt(Hz))
ACCEL_NOISE = 2.0e-3        # m/s^2/sqrt(Hz)
WHEEL_NOISE = 0.05          # m/s
PIXEL_NOISE = 0.5           # px equivalent bearing noise
IMAGE_NOISE = 0.5           # intensity units (image mode)


@dataclass
class Straight:
    length: float
    speed: float


@dataclass
class Arc:
    radius: float
    angle_deg: float          # signed: positive turns left
    speed: float


@dataclass
class Stop:
    duration: float


@dataclass
class TrajectorySpec:
    segments: list
    rho_sg: float = 0.004        # s^2/m

    def __post_init__(self):
        for seg in self.segments:
            if isinstance(seg, (Straight, Arc)) and seg.speed < 0:
                raise ValueError("segment speeds must be non-negative")
            if isinstance(seg, Arc):
                if seg.radius <= 1.0:
                    raise ValueError("arc radius must exceed 1 m")
                a_lat = seg.speed ** 2 / seg.radius
                if a_lat > MAX_LATERAL_ACCEL:
                    raise ValueError(
                        f"infeasible arc: lateral acceleration {a_lat:.1f} m/s^2")


@dataclass
class SensorErrorSpec:
    """Injected gyro errors, the noise seed, and whether the streams carry
    the *_NOISE levels (the default) or no noise at all."""
    params: GyroParams = field(default_factory=GyroParams)
    seed: int = 0
    zero_noise: bool = False


@dataclass
class Trajectory:
    """Ground truth at IMU_RATE_HZ.  Sample i, at time t[i], has the nav
    state nav[i], a [vel, quat, pos] row of rk4_nav, reached under the true
    body rate omega[i] and specific force accel[i] of the interval ending at
    t[i] (sample 0: the inputs at t = 0)."""
    t: np.ndarray        # (n,)
    nav: np.ndarray      # (n, 10)
    omega: np.ndarray    # (n, 3)
    accel: np.ndarray    # (n, 3)

    @property
    def quat(self) -> np.ndarray:
        return self.nav[:, 3:7]

    @property
    def pos(self) -> np.ndarray:
        return self.nav[:, 7:10]


@dataclass
class Phase:
    """Time phase: cubic speed polynomial, linear curvature.

    v(tau) = c0 + c1 tau + c2 tau^2 + c3 tau^3,  kappa(tau) = k0 + kd tau.
    Speed ramps are smoothstep-shaped so acceleration is continuous across
    phase boundaries (midpoint-sampled inputs then integrate cleanly).
    """
    duration: float
    c: tuple[float, float, float, float]
    k0: float
    k1: float

    @staticmethod
    def const(duration: float, v: float, k0: float, k1: float) -> "Phase":
        return Phase(duration, (v, 0.0, 0.0, 0.0), k0, k1)

    @staticmethod
    def ramp(duration: float, v0: float, v1: float, kappa: float) -> "Phase":
        dv = v1 - v0
        t = duration
        return Phase(t, (v0, 0.0, 3.0 * dv / t ** 2, -2.0 * dv / t ** 3),
                     kappa, kappa)


def _compile_phases(spec: TrajectorySpec) -> list[Phase]:
    """Segments -> time phases with ramps and curvature blends carved in.

    Speed ramps live in the faster neighbour, so segment boundaries are
    crossed at the slower segment's speed; curvature blends straddle each
    boundary (half in each neighbour) at that boundary speed.
    """
    items = []
    for seg in spec.segments:
        if isinstance(seg, Stop):
            items.append({"kind": "stop", "duration": seg.duration})
        elif isinstance(seg, Straight):
            items.append({"kind": "drive", "length": seg.length,
                          "kappa": 0.0, "speed": seg.speed})
        else:
            items.append({"kind": "drive",
                          "length": abs(np.deg2rad(seg.angle_deg)) * seg.radius,
                          "kappa": np.sign(seg.angle_deg) / seg.radius,
                          "speed": seg.speed})

    def neighbour_speed(i, step):
        j = i + step
        if 0 <= j < len(items):
            return 0.0 if items[j]["kind"] == "stop" else items[j]["speed"]
        return None

    def neighbour_kappa(i, step):
        j = i + step
        if 0 <= j < len(items) and items[j]["kind"] == "drive":
            return items[j]["kappa"]
        return None

    phases: list[Phase] = []
    for i, item in enumerate(items):
        if item["kind"] == "stop":
            phases.append(Phase.const(item["duration"], 0.0, 0.0, 0.0))
            continue
        v = item["speed"]
        kappa = item["kappa"]
        length = item["length"]
        prev_v = neighbour_speed(i, -1)
        next_v = neighbour_speed(i, 1)
        v_in = v if prev_v is None else min(v, prev_v)
        v_out = v if next_v is None else min(v, next_v)
        prev_k = neighbour_kappa(i, -1)
        next_k = neighbour_kappa(i, 1)

        pieces = []
        if prev_k is not None and prev_k != kappa:
            t_b = BLEND_TIME_S / 2.0
            pieces.append(Phase.const(t_b, v_in, 0.5 * (prev_k + kappa), kappa))
            length -= v_in * t_b
        if v_in < v:
            # smoothstep ramp: peak accel 1.5 dv/T kept inside the limit
            t_r = 1.5 * (v - v_in) / ACCEL_LIMIT
            pieces.append(Phase.ramp(t_r, v_in, v, kappa))
            length -= (v + v_in) / 2.0 * t_r
        tail = []
        if v_out < v:
            t_r = 1.5 * (v - v_out) / ACCEL_LIMIT
            tail.append(Phase.ramp(t_r, v, v_out, kappa))
            length -= (v + v_out) / 2.0 * t_r
        if next_k is not None and next_k != kappa:
            t_b = BLEND_TIME_S / 2.0
            tail.append(Phase.const(t_b, v_out, kappa, 0.5 * (kappa + next_k)))
            length -= v_out * t_b
        if length <= 0.0:
            raise ValueError("segment too short for its ramps and blends")
        pieces.append(Phase.const(length / v, v, kappa, kappa))
        phases.extend(pieces)
        phases.extend(tail)
    return [p for p in phases if p.duration > 1e-9]


def _chi_increment(c: np.ndarray, k0: np.ndarray, kd: np.ndarray,
                   tau: np.ndarray) -> np.ndarray:
    """Heading change after tau into phases with speed coefficients c (n, 4)
    and curvature k0 + kd tau: the integral of kappa V."""
    c0, c1, c2, c3 = c.T
    distance = tau * (c0 + tau * (c1 / 2.0 + tau * (c2 / 3.0 + tau * c3 / 4.0)))
    tail = c0 / 2.0 + tau * (c1 / 3.0 + tau * (c2 / 4.0 + tau * c3 / 5.0))
    # pow, as the scalar tau ** 2 takes it; the array ** would square
    return k0 * distance + kd * np.float_power(tau, 2.0) * tail


class _Profile:
    """Analytic lookup of (V, Vdot, kappa, kappadot, chi) at an array of
    times."""

    def __init__(self, phases: list[Phase]):
        self.c = np.array([p.c for p in phases], dtype=float)
        self.k0 = np.array([p.k0 for p in phases], dtype=float)
        durations = np.array([p.duration for p in phases], dtype=float)
        self.kdot = (np.array([p.k1 for p in phases], dtype=float) - self.k0) / durations
        self.starts = np.concatenate([[0.0], np.cumsum(durations)])
        # chi0[i + 1] = chi0[i] + increment of phase i, from chi0[0] = 0.0
        self.chi0 = np.cumsum(np.concatenate(
            [[0.0], _chi_increment(self.c, self.k0, self.kdot, durations)]))

    @property
    def total_time(self) -> float:
        return float(self.starts[-1])

    def at(self, t: np.ndarray):
        idx = np.clip(np.searchsorted(self.starts, t, side="right") - 1, 0, len(self.k0) - 1)
        tau = t - self.starts[idx]
        c = self.c[idx]
        c0, c1, c2, c3 = c.T
        k0, kd = self.k0[idx], self.kdot[idx]
        v = c0 + tau * (c1 + tau * (c2 + tau * c3))
        vdot = c1 + tau * (2.0 * c2 + 3.0 * tau * c3)
        chi = self.chi0[idx] + _chi_increment(c, k0, kd, tau)
        return v, vdot, k0 + kd * tau, kd, chi


def generate_trajectory(spec: TrajectorySpec) -> Trajectory:
    """Ground-truth stream: RK4 flow of the analytic rate/force profiles."""
    profile = _Profile(_compile_phases(spec))
    dt = 1.0 / IMU_RATE_HZ
    steps = int(np.floor(profile.total_time / dt + 1e-9))
    rho = spec.rho_sg

    # the inputs at t = 0 and at each step's midpoint k dt + dt / 2
    t_in = np.concatenate([[0.0], np.arange(steps) * dt + dt / 2.0])
    v, vdot, k, kdot, chi = profile.at(t_in)
    a_lat = v * v * k
    psi = chi + rho * a_lat
    # world acceleration of the axle point, then specific force
    pxdd = vdot * np.cos(chi) - v * (v * k) * np.sin(chi)
    pydd = vdot * np.sin(chi) + v * (v * k) * np.cos(chi)
    cos_p, sin_p = np.cos(psi), np.sin(psi)
    accel = np.empty((steps + 1, 3))
    accel[:, 0] = cos_p * pxdd + sin_p * pydd
    accel[:, 1] = -sin_p * pxdd + cos_p * pydd
    accel[:, 2] = GRAVITY
    omega = np.zeros((steps + 1, 3))
    omega[:, 2] = v * k + rho * (2.0 * v * vdot * k + v * v * kdot)

    v0 = v[0]
    beta0 = np.arctan(-rho * a_lat[0]) if v0 > 0 else 0.0
    nav = NavState(np.array([v0 * np.cos(beta0), v0 * np.sin(beta0), 0.0]),
                   geom.so3_exp(np.array([0.0, 0.0, psi[0]])), np.zeros(3))
    # step i runs on the inputs of sample i
    navs = rk4_nav(nav, omega[1:], accel[1:], GRAVITY_VEC, np.full(steps, dt))
    return Trajectory(np.arange(steps + 1) * dt, navs, omega, accel)


# --- worlds -------------------------------------------------------------------

def generate_world(truth: Trajectory, seed: int = 0) -> np.ndarray:
    """(n, 3) world points, a corridor of landmarks along the driven path:
    every 10 m, four points 3-30 m to either side and 1 m below to 10 m
    above the axle."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEED]))
    pos = truth.pos
    delta = np.diff(pos, axis=0, prepend=pos[:1])
    drops = []
    dist = 0.0
    # the path length since the last drop, step by step in sample order
    for i, step in enumerate(np.sqrt(geom.matmul_dot_rows(delta, delta)).tolist()):
        dist += step
        if dist >= 10.0 or not drops:
            dist = 0.0
            drops.append(i)
    # per point, in drop order: side, offset, height, distance ahead; the
    # side as rng.choice([-1.0, 1.0]) draws it, 5x faster
    draws = np.array([((-1.0, 1.0)[rng.integers(2)], rng.uniform(3.0, 30.0),
                       rng.uniform(-1.0, 10.0), rng.uniform(5.0, 40.0))
                      for _ in range(4 * len(drops))])
    side, off, h, ahead = draws.T[:, :, None]
    i = np.repeat(drops, 4)
    heading = geom.quats_to_dirs(truth.quat[i])
    lateral_dir = np.column_stack((-heading[:, 1], heading[:, 0], np.zeros(len(i))))
    up = np.zeros((len(i), 3))
    up[:, 2:] = h
    return pos[i] + heading * ahead + lateral_dir * side * off + up


# --- the camera's view ----------------------------------------------------------

VIEW_BLOCK_POSES = 64   # poses per stacked visibility pass, which bounds its arrays
NOISE_BLOCK_ROWS = 1024  # bearings per noise retraction, which bounds its arrays
MAX_RANGE = 80.0        # m, the farthest a camera sees a landmark


@dataclass
class CameraTable:
    """The camera poses of a trajectory, every CAMERA_STRIDE-th sample from
    t = 0, and per pose its time and truth row, the body-to-world rotation,
    the world-to-camera rotation and the camera's world position."""
    t: np.ndarray          # (m,)
    nav: np.ndarray        # (m, 10)
    r_wb: np.ndarray       # (m, 3, 3)
    r_cw: np.ndarray       # (m, 3, 3)
    centers: np.ndarray    # (m, 3)


def camera_table(truth: Trajectory) -> CameraTable:
    """The camera table of every CAMERA_STRIDE-th sample, t = 0 included."""
    nav = truth.nav[::CAMERA_STRIDE]
    ext = CAMERA_EXTRINSICS
    r_wb = geom.quats_to_frames(nav[:, 3:7])
    centers = nav[:, 7:10] + np.matmul(r_wb, ext.lever_arm)
    return CameraTable(truth.t[::CAMERA_STRIDE], nav, r_wb,
                       np.matmul(ext.r_cb, r_wb.transpose(0, 2, 1)), centers)


def _near(points: np.ndarray, hub: np.ndarray, radius: float) -> np.ndarray:
    """The indices, in increasing order, of the (n, 3) points within radius
    of hub, with 1 m to spare for rounding."""
    d = points - hub
    return np.nonzero((d * d).sum(axis=1) <= (radius + 1.0) ** 2)[0]


def _pairs(world: np.ndarray, r_cw: np.ndarray, centers: np.ndarray):
    """The (pose, landmark) index pairs of the (n, 3) world points 2 m to
    MAX_RANGE from the cameras (rotations r_cw, positions centers) that
    project at least 8 px inside the image, pose by pose in landmark order,
    and their ranges."""
    intr = DEFAULT_INTRINSICS
    # one (n, 3) @ (3, 3) product per pose.  numpy multiplies a lone row
    # with BLAS's vector kernel, whose last bits differ from the matrix
    # kernel's and can decide a pair at the range limit or the image border,
    # so a lone point goes in twice and its first row is kept
    rows = np.vstack((world, world)) if len(world) == 1 else world
    d_cam = np.matmul(rows[None] - centers[:, None], r_cw.transpose(0, 2, 1))[:, :len(world)]
    rng_m = np.sqrt((d_cam * d_cam).sum(axis=2))
    pose, lm = np.nonzero((d_cam[:, :, 0] > 1e-6) & (rng_m >= 2.0) & (rng_m <= MAX_RANGE))
    d_ok = d_cam[pose, lm]
    (u, v), _ = pixel(d_ok[:, 0], d_ok[:, 1], d_ok[:, 2], intr)
    in_img = ((u >= 8.0) & (u <= intr.width - 1 - 8.0)
              & (v >= 8.0) & (v <= intr.height - 1 - 8.0))
    pose, lm = pose[in_img], lm[in_img]
    return pose, lm, rng_m[pose, lm]


def _visible(world: np.ndarray, r_cw: np.ndarray, centers: np.ndarray):
    """The _pairs of the world, a block of at most VIEW_BLOCK_POSES cameras
    at a time."""
    for b in range(0, len(centers), VIEW_BLOCK_POSES):
        e = b + VIEW_BLOCK_POSES
        cams = centers[b:e]
        hub = cams[len(cams) // 2]
        # a point a camera sees is within MAX_RANGE of it, so within
        # MAX_RANGE + reach of the hub; the rest are left out, the others
        # kept in index order
        reach = np.sqrt(((cams - hub) ** 2).sum(axis=1).max())
        near = _near(world, hub, MAX_RANGE + reach)
        pose, lm, rng_m = _pairs(world[near], r_cw[b:e], cams)
        yield pose + b, near[lm], rng_m


@dataclass
class CameraView:
    """What each pose of a CameraTable sees of a world: pose k sees the
    landmarks landmarks[rows(k)], nearest first and ties in landmark order,
    along bearings[rows(k)]."""
    start: np.ndarray       # (m + 1,) row offsets
    landmarks: np.ndarray   # (total,) world indices
    bearings: np.ndarray    # (total, 4)

    def rows(self, k: int) -> slice:
        return slice(int(self.start[k]), int(self.start[k + 1]))


def camera_view(world: np.ndarray, cameras: CameraTable) -> CameraView:
    """The landmarks each camera pose sees and their exact bearings.  A
    bearing is the camera-frame direction of its landmark: a world-to-body
    then a body-to-camera matrix-vector product and a 1-D dot for the
    range, row by row, so that a row has the bits of a one-point pass."""
    blocks = []
    for pose, lm, rng_m in _visible(world, cameras.r_cw, cameras.centers):
        order = np.lexsort((rng_m, pose))
        pose, lm = pose[order], lm[order]
        rel = (world[lm] - cameras.centers[pose])[:, :, None]
        d_cam = np.matmul(CAMERA_EXTRINSICS.r_cb,
                          np.matmul(cameras.r_wb[pose].transpose(0, 2, 1), rel))[:, :, 0]
        blocks.append((pose, lm, geom.bearing_from_dir_rows(
            d_cam / np.sqrt(geom.matmul_dot_rows(d_cam, d_cam))[:, None])))
    pose, lm, bearings = (np.concatenate(part) for part in zip(*blocks))
    return CameraView(np.searchsorted(pose, np.arange(len(cameras.t) + 1)), lm, bearings)


def ensure_coverage(world: np.ndarray, cameras: CameraTable, seed: int = 1) -> np.ndarray:
    """Densify the world until every camera pose sees at least 8 landmarks,
    pose by pose, adding at most 40 points per pose.  The counts come from
    one visibility pass over the given world; each added point is then
    checked against the poses that remain within MAX_RANGE of it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    pts = [np.array(world, dtype=float)]
    seen = np.bincount(np.concatenate([pose for pose, _, _ in _visible(
        pts[0], cameras.r_cw, cameras.centers)]), minlength=len(cameras.t))
    for k in np.nonzero(seen < 8)[0].tolist():
        pos, heading = cameras.nav[k, 7:10], geom.quats_to_dirs(cameras.nav[k, 3:7])
        lateral_dir = np.array([-heading[1], heading[0], 0.0])
        for _ in range(40):
            if seen[k] >= 8:
                break
            pt = (pos + heading * rng.uniform(8, 35)
                  + lateral_dir * rng.uniform(-12, 12)
                  + np.array([0, 0, rng.uniform(0.0, 6.0)]))[None]
            pts.append(pt)
            near = k + _near(cameras.centers[k:], pt[0], MAX_RANGE)
            pose, _, _ = _pairs(pt, cameras.r_cw[near], cameras.centers[near])
            seen[near[pose]] += 1
    return np.vstack(pts)


# --- sensor synthesis -----------------------------------------------------------

def synthesize_imu(truth: Trajectory, err: SensorErrorSpec) -> np.ndarray:
    """imu.csv rows (n, 7) for the samples after the first: t, measured
    rates (the forward gyro error model) and measured forces, each plus
    white noise (none with zero_noise).  The noise is one draw per row of
    three gyro then three accelerometer values, as sample-by-sample draws
    take them."""
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 1]))
    omega_m = apply_gyro_error(truth.omega[1:], err.params)
    accel = truth.accel[1:]
    if err.zero_noise:
        accel_m = accel + 0.0    # as the per-sample form: a -0.0 force is written 0
    else:
        sg = GYRO_NOISE * np.sqrt(IMU_RATE_HZ)
        sa = ACCEL_NOISE * np.sqrt(IMU_RATE_HZ)
        noise = rng.normal(0.0, [sg, sg, sg, sa, sa, sa], (len(accel), 6))
        omega_m = omega_m + noise[:, :3]
        accel_m = accel + noise[:, 3:]
    return np.column_stack((truth.t[1:], omega_m, accel_m))


def synthesize_wheel(truth: Trajectory, err: SensorErrorSpec) -> np.ndarray:
    """wheel.csv rows (n, 2) for the samples after the first: t and the
    measured v_x, exact zero at standstill and otherwise plus one noise draw
    (none with zero_noise), in sample order."""
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 2]))
    v = truth.nav[1:, 0]
    moving = ~(np.abs(v) < 5e-3)
    v_m = np.zeros(len(v))
    v_m[moving] = v[moving] if err.zero_noise else (
        v[moving] + rng.normal(0.0, WHEEL_NOISE, int(moving.sum())))
    return np.column_stack((truth.t[1:], v_m))


def synthesize_bearings(cameras: CameraTable, view: CameraView, err: SensorErrorSpec,
                        n_slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bearing observations of the camera poses after t = 0, with
    persistent slot ids: per observation the frame time (N,), the slot (N,)
    and the bearing (N, 4), frame by frame and by slot within a frame.  The
    bearing noise is one normal draw of every observation's two tangent
    values, which is the frame-by-frame draws joined."""
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 3]))
    sigma_tan = PIXEL_NOISE / DEFAULT_INTRINSICS.fx
    tracked: list[int | None] = [None] * n_slots    # the landmark in each slot
    start, landmarks = view.start.tolist(), view.landmarks.tolist()
    counts, slots, observed_rows = [], [], []
    for k, t in enumerate(cameras.t.tolist()):
        if t == 0.0:
            counts.append(0)
            continue
        vis = landmarks[start[k]:start[k + 1]]
        row_of = dict(zip(vis, range(start[k], start[k + 1])))
        tracked = [lm if lm in row_of else None for lm in tracked]
        free = [slot for slot, lm in enumerate(tracked) if lm is None]
        # fill the free slots in order with the farthest new landmarks: they
        # stay in view longest
        new = (lm for lm in reversed(vis) if lm not in tracked)
        for slot, lm in zip(free, new):
            tracked[slot] = lm
        observed = [slot for slot, lm in enumerate(tracked) if lm is not None]
        counts.append(len(observed))
        slots += observed
        observed_rows += [row_of[tracked[slot]] for slot in observed]
    bearings = view.bearings[np.array(observed_rows, dtype=int)]
    if not err.zero_noise:
        noise = rng.normal(0.0, sigma_tan, (len(observed_rows), 2))
        for i in range(0, len(noise), NOISE_BLOCK_ROWS):
            block = slice(i, i + NOISE_BLOCK_ROWS)
            bearings[block] = geom.s2_boxplus_rows(bearings[block], noise[block])
    return np.repeat(cameras.t, counts), np.array(slots, dtype=int), bearings


def draw_image_noise(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with IMAGE_NOISE white noise from rng and return it: the
    same draws and the same bits as rng.normal(0.0, IMAGE_NOISE, out.shape),
    since the scale is a power of two, with no new array."""
    rng.standard_normal(out=out)
    out *= IMAGE_NOISE
    return out


def render_frame(bearings: np.ndarray, noise: np.ndarray | None) -> Image:
    """The landmarks seen along (m, 4) bearings, the view rows of one camera
    pose, drawn as Gaussian blobs (sigma 1.5 px, peak 200) on a uniform
    background of 10, plus noise, a (height, width) array that the caller
    drew (see draw_image_noise), or none when noise is None.  A blob at
    (u, v) covers columns int(u - 6) to int(u + 7) and rows int(v - 6) to
    int(v + 7), the end excluded and clipped to the image; where blobs
    overlap, a pixel adds them in bearing order."""
    intr = DEFAULT_INTRINSICS
    data = np.full((intr.height, intr.width), 10.0)
    uv = project_rows(bearings, intr)[0]
    lo = np.maximum(0.0, uv - 6.0).astype(int)
    size = np.minimum([intr.width, intr.height], uv + 7.0).astype(int) - lo
    span = np.arange(size.max(initial=0))
    cols = lo[:, 0:1] + span
    rows = lo[:, 1:2] + span
    du2 = (cols - uv[:, 0:1]) ** 2
    dv2 = (rows - uv[:, 1:2]) ** 2
    blobs = 200.0 * np.exp(-(du2[:, None, :] + dv2[:, :, None]) / (2.0 * 1.5 ** 2))
    inside = (span < size[:, 1:2])[:, :, None] & (span < size[:, 0:1])[:, None, :]
    np.add.at(data.reshape(-1), (rows[:, :, None] * intr.width + cols[:, None, :])[inside],
              blobs[inside])
    if noise is not None:
        data += noise
    return Image(np.clip(data, 0.0, 255.0, out=data))


# --- scenario presets -----------------------------------------------------------

def urban_loop(laps: int = 1, rho_sg: float = 0.004) -> TrajectorySpec:
    """Square loop: four 200 m straights at 14 m/s joined by 90-degree turns
    (R=15 m) at 6 m/s, preceded by a 10 s standstill.  Turns run slow enough
    to stay feasible."""
    segs: list = [Stop(10.0)]
    for _ in range(laps):
        for _ in range(4):
            segs.append(Straight(200.0, 14.0))
            segs.append(Arc(15.0, 90.0, 6.0))
    return TrajectorySpec(segs, rho_sg=rho_sg)


def mini_loop(rho_sg: float = 0.004) -> TrajectorySpec:
    """Short mixed scenario (~40 s) for smoke tests and examples."""
    return TrajectorySpec([Stop(2.0), Straight(150.0, 12.0), Arc(25.0, 90.0, 7.0),
                           Straight(100.0, 12.0)], rho_sg=rho_sg)


def highway_route(rho_sg: float = 0.004) -> TrajectorySpec:
    """Sweeping-curve route that keeps the lateral-velocity model inside its
    validity envelope (v > 10 m/s, |a_y| < 4 m/s^2): nine 500 m straights and
    eight alternating 90-degree curves (R=60 m), all at 13 m/s, after a 5 s
    standstill; about 5 km total."""
    segs: list = [Stop(5.0)]
    for i in range(8):
        segs.append(Straight(500.0, 13.0))
        segs.append(Arc(60.0, 90.0 if i % 2 == 0 else -90.0, 13.0))
    segs.append(Straight(500.0, 13.0))
    return TrajectorySpec(segs, rho_sg=rho_sg)
