"""Deterministic ground-truth and sensor synthesis at desk scale.

A scenario is an ordered list of segments (straights, arcs, stops).  The
compiler turns it into time phases with piecewise-linear speed and curvature
(clothoid-style blends at curvature changes, acceleration-limited speed
ramps), from which body rates and specific forces follow analytically.  The
rear-axle sideslip follows the single-track relation, so the lateral-velocity
model holds exactly in steady cornering:

    v_y = -rho_sg * a_y * v_x,   heading = path tangent + rho_sg * V^2 * kappa

Ground truth is *defined* as the RK4 flow (dynamics.rk4_nav) of the nav
dynamics under the emitted rate/force samples (sampled mid-interval).
Sensors synthesized from that flow are therefore exactly kinematically
consistent with it: a filter fed noise-free streams reproduces the truth to
integrator precision.

The rates are fixed: ground truth, IMU and wheel speed at IMU_RATE_HZ
(100 Hz), camera frames (bearings or rendered images) at every
CAMERA_STRIDE-th sample (10 Hz).

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
"""

from dataclasses import dataclass, field

import numpy as np

from . import geom
from .dynamics import (GRAVITY, GRAVITY_VEC, GyroParams, ImuSample, NavState,
                       apply_gyro_error, rk4_nav)
from .features import CameraExtrinsics, landmark_to_feature
from .image import Image
from .sensors import DEFAULT_INTRINSICS, distort, project

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
class TrajectorySample:
    t: float
    nav: NavState
    omega: np.ndarray    # true body rate over the interval ending at t
    accel: np.ndarray    # true specific force over the same interval


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


class _Profile:
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


def generate_trajectory(spec: TrajectorySpec) -> list[TrajectorySample]:
    """Ground-truth stream: RK4 flow of the analytic rate/force profiles."""
    profile = _Profile(_compile_phases(spec))
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
        nav = rk4_nav(nav, omega, accel, GRAVITY_VEC, dt)
        out.append(TrajectorySample(t_next, nav.copy(), omega, accel))
        t = t_next
    return out


# --- worlds -------------------------------------------------------------------

def generate_world(truth: list[TrajectorySample], seed: int = 0) -> np.ndarray:
    """(n, 3) world points, a corridor of landmarks along the driven path:
    every 10 m, four points 3-30 m to either side and 1 m below to 10 m
    above the axle."""
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


def visible_landmarks(world: np.ndarray, nav: NavState) -> list[int]:
    """Indices of world points 2-80 m from the camera that project at
    least 8 px inside the image, nearest first."""
    intr, ext = DEFAULT_INTRINSICS, CAMERA_EXTRINSICS
    r_wb = geom.quat_to_rot(nav.quat)
    cam_world = nav.pos + r_wb @ ext.lever_arm
    d_cam = (world - cam_world) @ (ext.r_cb @ r_wb.T).T
    rng_m = np.sqrt((d_cam * d_cam).sum(axis=1))
    ok = (d_cam[:, 0] > 1e-6) & (rng_m >= 2.0) & (rng_m <= 80.0)
    if not ok.any():
        return []
    rx = -d_cam[ok, 1] / d_cam[ok, 0]
    ry = -d_cam[ok, 2] / d_cam[ok, 0]
    dx, dy, _, _ = distort(rx, ry, intr)
    u = intr.cx + intr.fx * dx
    v = intr.cy + intr.fy * dy
    in_img = ((u >= 8.0) & (u <= intr.width - 1 - 8.0)
              & (v >= 8.0) & (v <= intr.height - 1 - 8.0))
    idx = np.nonzero(ok)[0][in_img]
    order = np.argsort(rng_m[idx], kind="stable")
    return [int(i) for i in idx[order]]


def ensure_coverage(world: np.ndarray, truth: list[TrajectorySample],
                    seed: int = 1) -> np.ndarray:
    """Densify the world until every camera pose sees at least 8 landmarks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    pts = list(world)
    for s in truth[::CAMERA_STRIDE]:
        for _ in range(40):
            vis = visible_landmarks(np.array(pts), s.nav)
            if len(vis) >= 8:
                break
            heading = geom.quats_to_dirs(s.nav.quat)
            lateral_dir = np.array([-heading[1], heading[0], 0.0])
            pts.append(s.nav.pos + heading * rng.uniform(8, 35)
                       + lateral_dir * rng.uniform(-12, 12)
                       + np.array([0, 0, rng.uniform(0.0, 6.0)]))
    return np.array(pts)


# --- sensor synthesis -----------------------------------------------------------

def synthesize_imu(truth: list[TrajectorySample],
                   err: SensorErrorSpec) -> list[ImuSample]:
    """Measured rates/forces: forward gyro error model plus white noise
    (none with zero_noise)."""
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
        out.append(ImuSample(s.t, omega_m, accel_m))
    return out


def synthesize_wheel(truth: list[TrajectorySample],
                     err: SensorErrorSpec) -> list[tuple[float, float]]:
    """(t, v_x measured) stream; exact zero at standstill."""
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


def synthesize_bearings(truth: list[TrajectorySample], world: np.ndarray,
                        err: SensorErrorSpec, n_slots: int = 16):
    """Per-frame (t, slot, bearing) observations with persistent slot ids."""
    rng = np.random.default_rng(np.random.SeedSequence([err.seed, 3]))
    sigma_tan = PIXEL_NOISE / DEFAULT_INTRINSICS.fx
    slot_of: dict[int, int] = {}
    frames = []
    for s in truth[::CAMERA_STRIDE]:
        if s.t == 0.0:
            continue
        vis = visible_landmarks(world, s.nav)
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
        bearings = np.array([landmark_to_feature(world[lm], s.nav,
                                                 CAMERA_EXTRINSICS).bearing
                             for lm, _ in observed]).reshape(-1, 4)
        if not err.zero_noise and observed:
            bearings = geom.s2_boxplus_rows(
                bearings, rng.normal(0.0, sigma_tan, (len(observed), 2)))
        frames.append((s.t, [(slot, q) for (_, slot), q in zip(observed, bearings)]))
    return frames


def draw_image_noise(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with IMAGE_NOISE white noise from rng and return it: the
    same draws and the same bits as rng.normal(0.0, IMAGE_NOISE, out.shape),
    since the scale is a power of two, with no new array."""
    rng.standard_normal(out=out)
    out *= IMAGE_NOISE
    return out


def render_frame(nav: NavState, world: np.ndarray, noise: np.ndarray | None) -> Image:
    """Landmarks drawn as Gaussian blobs (sigma 1.5 px, peak 200) on a
    uniform background of 10, plus noise, a (height, width) array that the
    caller drew (see draw_image_noise), or none when noise is None."""
    intr = DEFAULT_INTRINSICS
    data = np.full((intr.height, intr.width), 10.0)
    for idx in visible_landmarks(world, nav):
        feat = landmark_to_feature(world[idx], nav, CAMERA_EXTRINSICS)
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
