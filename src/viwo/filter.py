"""Adaptive error-state Kalman filter with separated RLS parameter estimation.

The error state stacks the nav tangent [velocity, attitude, position] and one
[bearing tangent (2), inverse depth (1)] block per feature slot:

    index 0:3   body velocity error
    index 3:6   world-side attitude error (exp on the left)
    index 6:9   world position error
    index 9+3i  slot i feature error

Prediction steps the nav state with RK4 at IMU rate and moves each feature
by the exact rigid transform between the camera poses before and after the
step (propagate_joint); it propagates the covariance with the Euler
transition matrix Phi = I + F dt of the joint nav/feature ODE, whose F the
Jacobian audit differences against the ODE flow.
Between two camera frames only the IMU changes the state: the active slots
and the gyro parameters stay fixed.  So predict takes the whole block of
imu.csv rows up to the next frame, a (T, 7) array, in chunks of at most
PREDICT_BLOCK_MAX; a chunk's stamps, rates and specific forces are column
slices of it.  Per chunk one propagate_joint call runs the RK4 nav steps,
forms every step's rigid transform in one stacked pass and keeps only the
per-feature recurrence in a per-step loop; one stacked
assemble_linearization call forms every step's F and Psi; all Phi are built
at once; and then the per-step Phi P Phi^T + Q and Phi Upsilon + Psi dt
recursion runs.  F is assembled over the active slots only.  When they cover
the whole state (every slot active, or a filter without slots) Phi is F dt
plus the identity; otherwise F dt is scattered onto the identity through
flat indices, which are cached per active-slot set together with the state
indices and the process-noise diagonal.

Batch invariance: step k's states, F and Psi are bit-identical whatever the
chunk length, so a block predict equals the same rows predicted one at a
time, as one-row blocks.  The stacked transport and linearization use only
elementwise arithmetic and products whose per-step operands have the shapes
of a single step; a stacked array never goes through one BLAS product whose
kernel could depend on its row count.  The frame update keeps the same rule
for its bearings: the residuals come from one geom.s2_boxminus_rows call and
the retraction from one s2_boxplus_rows call, and those row kernels are
elementwise, so they equal the scalar S^2 maps row by row.

The update stacks all measurement rows of a frame (vehicle and ZUPT rows,
plus the camera rows of the active slots), performs a standard EKF
innovation, and then a recursive-least-squares innovation with forgetting
factor on the six gyroscope parameters through the regressor matrix
Omega = H * Upsilon, where Upsilon tracks the sensitivity of the error state
to the parameters.  Residuals are measured-minus-predicted everywhere.
The rows reach the update as RowGroups, each a stack of gating units of
one row type and shape: the vehicle group and the ZUPT group are stacks of
one, and a frame's camera rows one stack of one unit per slot (in image
mode each unit with its own h_local and variances).  gate tests a whole
stack in one pass: one stacked H C H^T product, whose slices are the 2-D
products of the units alone, and each unit's closed form on Python floats,
so no decision or bit depends on the stacking.  The kept units' rows enter
H in a fixed order (vehicle, ZUPT, then the camera rows by slot), which
fixes kalman_step's bits.

Feature slots have fixed capacity and stable indices; inactive slots keep a
placeholder unit variance and zero cross-covariance, and their sensitivity
rows are zeroed on (re)initialization.  A wheel-IMU-only filter has zero
slots: its error state is the nav block alone, and its frames carry no
camera rows.

With check_psd, min_eig_p and min_eig_s keep the smallest eigenvalue of P
(after every step of the predict recursion and every frame) and of S (at
construction and after every frame; a predict never changes S).
"""

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import geom
from .dynamics import (GRAVITY_VEC, MAX_STEP_S, PARAM_LOWER, PARAM_UPPER, GyroParams,
                       NavState, apply_gyro_error, correct_gyro, corrected_rate_param_jacobian,
                       rk4_nav)
from .features import RHO_CEIL, RHO_FLOOR, CameraExtrinsics, linearize_batch
from .image import (Image, build_pyramid, detect_features, extract_patch_set,
                    klt_align)
from .sensors import (CameraIntrinsics, ProjectionError,
                      VehicleVelocityMeasurement,
                      camera_measurement_jacobian, project_rows, unproject,
                      vehicle_measurement_jacobian,
                      vehicle_predicted_measurement,
                      vehicle_velocity_measurement)


def _load_flapack(folder: str):
    """scipy's compiled LAPACK module, scipy.linalg._flapack, loaded from
    folder without running the scipy.linalg package's __init__, which takes
    over half of viwo's import time.  It is registered under its own name, so
    a later `import scipy.linalg` finds and re-exports this same module."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no compiled scipy.linalg._flapack module in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack(os.path.join(os.path.dirname(scipy.__file__), "linalg"))
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

NAV_DIM = 9
FEAT_DIM = 3

GATE_QUANTILE = 0.99          # chi-square quantile of the Mahalanobis gate
# chi2.ppf(GATE_QUANTILE, dof) for every group size the filter makes: vehicle
# (2 or 3 rows), ZUPT (3), bearing and QR-compressed intensity (2).  Written
# out, since viwo imports neither scipy.stats nor the scipy.linalg package that
# scipy.stats loads: either would take most of viwo's import time.
GATE_LIMIT = {2: 9.21034037197618, 3: 11.344866730144373}
MAX_MISSES = 3                # frames a slot may go unmeasured or gated
KLT_MAX_SHIFT_PX = 20.0       # image mode: cap on the detection gate radius
PHOTOMETRIC_BASIN_PX = 1.0    # farther alignments become bearing rows
PREDICT_BLOCK_MAX = 32        # IMU samples per stacked linearization
ZUPT_HOLD_S = 0.5             # s of zero wheel speed before ZUPT rows

# NoiseConfig fields that are no noise density, process noise or standard
# deviation, so need not be positive
_NOT_STD_FIELDS = ("lam", "rho0", "lateral_min_speed", "lateral_max_ay",
                   "lateral_inflation")


@dataclass
class NoiseConfig:
    """Process/measurement noise levels, initial covariances, RLS settings."""
    gyro_noise: float = 2.618e-4        # rad/s/sqrt(Hz)
    accel_noise: float = 2.0e-3         # m/s^2/sqrt(Hz)
    pos_process: float = 1.0e-4         # m/sqrt(s), covariance regularization
    bearing_process: float = 2.0e-4     # rad/sqrt(s) per feature
    rho_process: float = 2.0e-3         # (1/m)/sqrt(s) per feature

    sigma_wheel: float = 0.05           # m/s
    sigma_lateral: float = 0.08         # m/s
    sigma_vertical: float = 0.1         # m/s
    sigma_bearing: float = 1.5e-3       # rad, direct-bearing mode
    sigma_intensity: float = 4.0        # 8-bit intensity units
    sigma_track_px: float = 0.4         # px, aligned-track fallback rows
    sigma_zupt: float = 0.02            # m/s

    lam: float = 0.9995                 # RLS forgetting factor
    p0_vel: float = 0.1
    p0_att: float = 0.01
    p0_pos: float = 0.01
    s0_bias: float = 0.02               # rad/s
    s0_scale: float = 0.03
    s0_misalign: float = 0.03

    sigma_bearing0: float = 0.01        # rad, new-feature bearing std
    rho0: float = 0.1                   # 1/m, new-feature inverse depth
    sigma_rho0: float = 0.5

    lateral_min_speed: float = 10.0     # validity gate for the lateral row
    lateral_max_ay: float = 4.0
    lateral_inflation: float = 100.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError naming the first field that is not finite, or a
        noise density, process noise or standard deviation that is not
        positive; the forgetting factor must be in (0, 1]."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"noise.{f.name} must be finite, found {value}")
            if f.name not in _NOT_STD_FIELDS and value <= 0.0:
                raise ValueError(f"noise.{f.name} must be positive, found {value}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"noise.lam (forgetting factor) must be in (0, 1], "
                             f"found {self.lam}")

    def s0_matrix(self) -> np.ndarray:
        return np.diag([self.s0_bias ** 2] * 3 + [self.s0_scale ** 2]
                       + [self.s0_misalign ** 2] * 2)


@dataclass
class RowGroup:
    """A stack of g gating units of one row type and one shape: each unit is
    m rows over k state columns (a feature's rows, or the vehicle or ZUPT
    block), gated as a whole.

    Rows are stored sparsely: unit i's rows are h_local over the state
    columns cols[i], with residual[i] and the variances r_diag; h_local
    (m, k) and r_diag (m,) are shared by every unit, or given per unit as
    (g, m, k) and (g, m).  The dense stacked H is materialized per update.
    """
    label: str               # row type: vehicle, zupt, bearing or intensity
    slots: Sequence          # feature slot per unit, None for vehicle and ZUPT
    residual: np.ndarray     # (g, m)
    cols: np.ndarray         # (g, k) state column indices
    h_local: np.ndarray      # (m, k) or (g, m, k)
    r_diag: np.ndarray       # (m,) or (g, m)


# the counter that counts each row type's rows
_ROW_COUNTER = {"vehicle": "vehicle_rows", "zupt": "zupt_rows",
                "bearing": "camera_rows", "intensity": "camera_rows"}


# --- joint propagation and linearization (also used by the jacobian audit) ---

# p0.m and p0 x m from one product of two takes: columns 0:3 the terms
# p_i m_i of the dot product, 3:6 minus 6:9 the cross product (the index
# pairs of geom.CROSS_A and CROSS_B)
_DOT_CROSS_P = np.concatenate((np.arange(3), geom.CROSS_A, geom.CROSS_B))
_DOT_CROSS_M = np.concatenate((np.arange(3), geom.CROSS_B, geom.CROSS_A))


def propagate_joint(nav: NavState, qf: np.ndarray, rho: np.ndarray,
                    omega: np.ndarray, accel: np.ndarray, dt: np.ndarray,
                    ext: CameraExtrinsics, g: np.ndarray):
    """The nav state and the features it carries over a chunk of IMU steps
    (corrected rates).

    omega and accel (T, 3), dt (T,), qf (n, 4), rho (n,) -> (navs (T + 1,
    10), qfs (T + 1, n, 4), rhos (T + 1, n)), the states before each step
    and after the last, navs as [vel, quat, pos] rows.  Between the steps of
    a chunk rho is clipped to [RHO_FLOOR, RHO_CEIL], as the filter clips
    after every step; the last rho is returned unclipped.  So a chunk gives,
    bit for bit, the states of T one-step chunks with the clip between them.

    The nav block is one dynamics.rk4_nav call over all steps.  A feature is a
    static point p / rho in the camera frame, so it moves with the exact
    rigid transform between the camera poses before and after the step, not
    by integrating its ODE.  With body attitudes R0, R1, body positions p_W0,
    p_W1 and the lever arm l:

        A = R_CB R1^T R0 R_CB^T,   b = R_CB (R1^T (R0 l + p_W0 - p_W1) - l)
        m = A p + rho b,           p' = m / |m|,   rho' = rho / |m|

    All nav steps run first; every step's A and b then come from one stacked
    pass (row-kernel frames and per-step products, so the bits of a step do
    not depend on T), and only the per-feature recurrence is step by step.
    The bearing quaternions are re-attached with the minimal (spin-free)
    rotation taking p onto p', matching the left N-lift tangent convention
    to O(dt^3).  Raises FloatingPointError on a non-finite or zero range.
    """
    navs = rk4_nav(nav, omega, accel, g, dt)
    steps = len(navs) - 1
    cnt = qf.shape[0]
    qfs = np.empty((steps + 1, cnt, 4))
    rhos = np.empty((steps + 1, cnt))
    qfs[0], rhos[0] = qf, rho
    if cnt:
        frames = geom.quats_to_frames(navs[:, 3:7])
        pos = navs[:, 7:10]
        r0, r1t = frames[:-1], np.swapaxes(frames[1:], 1, 2)
        r_cb, lever = ext.r_cb, ext.lever_arm
        a_all = r_cb @ (r1t @ r0) @ r_cb.T
        shift = (r1t @ (r0 @ lever + pos[:-1] - pos[1:])[:, :, None])[:, :, 0] - lever
        b_all = (r_cb @ shift[:, :, None])[:, :, 0]
        norms = np.empty((steps, cnt))
        dq = np.empty((cnt, 4))
        # the geom row kernels quats_to_dirs, cross_rows and quat_mul_batch,
        # inlined: the same products and sums in the same order (the sign of
        # a direction entry folded into its scale, exact for a factor of
        # +-1; a sum over an axis of four adds in sequence)
        left, right, scale, sign, eye = geom.DIR_TABLE
        scale = scale * sign
        # a zero range has no direction; it and a non-finite one are caught
        # once the chunk is done, the steps after them only carry inf and nan
        with np.errstate(all="ignore"):
            for k in range(steps):
                terms = qf.take(left, axis=1) * (qf.take(right, axis=1) * scale)
                p0 = terms[:, 0] + terms[:, 1]
                p0 += eye
                m = p0 @ a_all[k].T
                m += rho[:, None] * b_all[k]
                norm = np.sqrt((m * m).sum(axis=1), out=norms[k])
                # minimal rotation p0 -> p1 = m / |m|: the quaternion
                # [1 + p0.p1, p0 x p1] times |m|, a scale that the
                # renormalization below removes
                prod = p0.take(_DOT_CROSS_P, axis=1) * m.take(_DOT_CROSS_M, axis=1)
                np.add(norm, prod[:, 0:3].sum(axis=1), out=dq[:, 0])
                np.subtract(prod[:, 3:6], prod[:, 6:9], out=dq[:, 1:4])
                raw = (dq[:, :, None] * (qf.take(geom.QUAT_PERM, axis=1)
                                         * geom.QUAT_SIGN)).sum(axis=1)
                qf = np.divide(raw, np.sqrt((raw * raw).sum(axis=1))[:, None],
                               out=qfs[k + 1])
                rho = np.divide(rho, norm, out=rhos[k + 1])
                if k + 1 < steps:   # np.clip, without its wrapper's cost
                    np.maximum(rho, RHO_FLOOR, out=rho)
                    np.minimum(rho, RHO_CEIL, out=rho)
        if not (np.isfinite(norms).all() and norms.all()):
            raise FloatingPointError("non-finite feature state after propagation")
    return navs, qfs, rhos


def assemble_linearization(navs: np.ndarray, qf: np.ndarray, rho: np.ndarray,
                           omega: np.ndarray, omega_m: np.ndarray,
                           params: GyroParams, ext: CameraExtrinsics,
                           g: np.ndarray):
    """(F, Psi) over [nav, features] of T steps in one pass (compact layout).

    navs (T, 10) [vel, quat, pos] rows, qf (T, n, 4), rho (T, n), omega and
    omega_m (T, 3) -> F (T, dim, dim), Psi (T, dim, 6).  Step k's matrices
    are bit-identical whatever T is: every operation is elementwise or a
    product per step (see the module docstring).
    """
    vel, quat = navs[:, 0:3], navs[:, 3:7]
    steps, cnt = qf.shape[0], qf.shape[1]
    n = NAV_DIM + FEAT_DIM * cnt
    r = geom.quats_to_frames(quat)
    f = np.zeros((steps, n, n))
    f[:, 0:3, 0:3] = -geom.skew_rows(omega)
    f[:, 0:3, 3:6] = np.swapaxes(r, 1, 2) @ geom.skew_rows(g)
    f[:, 6:9, 0:3] = r
    f[:, 6:9, 3:6] = -geom.skew_rows((r @ vel[:, :, None])[:, :, 0])

    jw = corrected_rate_param_jacobian(omega_m, params)
    psi = np.zeros((steps, n, 6))
    psi[:, 0:3, :] = geom.skew_rows(vel) @ jw
    psi[:, 3:6, :] = r @ jw

    if cnt:
        v_c = (ext.r_cb @ (vel + geom.cross_rows(omega, ext.lever_arm))[:, :, None])[:, :, 0]
        w_c = (ext.r_cb @ omega[:, :, None])[:, :, 0]
        diag, coupling, psi_blocks = linearize_batch(
            qf, rho, v_c, w_c, ext.r_cb, ext.lever_arm, jw)
        # block diagonal of the feature rows and columns
        rows, cols = _feature_diag_indices(cnt)
        f[:, rows, cols] = diag
        f[:, NAV_DIM:, 0:3] = coupling.reshape(steps, -1, 3)
        psi[:, NAV_DIM:] = psi_blocks.reshape(steps, -1, 6)
    return f, psi


def _feature_diag_indices(cnt: int):
    """Row and column index arrays (cnt, 3, 3) of the 3x3 feature blocks on
    the diagonal of the compact layout."""
    base = NAV_DIM + FEAT_DIM * np.arange(cnt)[:, None, None]
    return base + np.arange(3)[:, None], base + np.arange(3)


def assemble_f_compact(nav: NavState, qf: np.ndarray, rho: np.ndarray,
                       omega: np.ndarray, ext: CameraExtrinsics) -> np.ndarray:
    """Error-state dynamics matrix over [nav, features] (compact layout)."""
    omega_m = apply_gyro_error(omega, GyroParams())
    row = np.concatenate((nav.vel, nav.quat, nav.pos))[None]
    return assemble_linearization(row, qf[None], rho[None], omega[None], omega_m[None],
                                  GyroParams(), ext, GRAVITY_VEC)[0][0]


def assemble_psi_compact(nav: NavState, qf: np.ndarray, rho: np.ndarray,
                         omega_m: np.ndarray, params: GyroParams,
                         ext: CameraExtrinsics) -> np.ndarray:
    """Parameter-sensitivity matrix Psi over [nav, features] (compact)."""
    omega = correct_gyro(omega_m, params)
    row = np.concatenate((nav.vel, nav.quat, nav.pos))[None]
    return assemble_linearization(row, qf[None], rho[None], omega[None], omega_m[None],
                                  params, ext, GRAVITY_VEC)[1][0]


def kalman_step(p: np.ndarray, h: np.ndarray, r_diag: np.ndarray,
                residual: np.ndarray):
    """Shared EKF innovation: returns (dx, p_new, k, ikh, sigma) or None when
    the innovation covariance is not positive definite."""
    pht = p @ h.T
    sigma = h @ pht + np.diag(r_diag)
    # the LAPACK routines of scipy's cho_factor and cho_solve, without
    # their wrappers' checks
    chol, info = dpotrf(0.5 * (sigma + sigma.T), lower=1, clean=0)
    if info > 0:
        return None
    k = dpotrs(chol, pht.T, lower=1)[0].T
    dx = k @ residual
    ikh = np.eye(p.shape[0]) - k @ h
    p_new = ikh @ p
    p_new = 0.5 * (p_new + p_new.T)
    return dx, p_new, k, ikh, sigma


def rls_step(s: np.ndarray, omega: np.ndarray, sigma: np.ndarray,
             residual: np.ndarray, lam: float):
    """RLS innovation with forgetting: returns (dtheta, s_new, gamma) or None.

    gamma = S Omega^T (sigma + Omega S Omega^T)^-1,
    s_new = (S - gamma Omega S) / lam.
    """
    lam_mat = sigma + omega @ s @ omega.T
    chol, info = dpotrf(0.5 * (lam_mat + lam_mat.T), lower=1, clean=0)
    if info > 0:
        return None
    gamma = dpotrs(chol, omega @ s, lower=1)[0].T
    dtheta = gamma @ residual
    s_new = (s - gamma @ omega @ s) / lam
    s_new = 0.5 * (s_new + s_new.T)
    return dtheta, s_new, gamma


def retract(nav: NavState, dx_nav: np.ndarray) -> NavState:
    """Apply a 9-vector nav error-state correction."""
    return NavState(nav.vel + dx_nav[0:3],
                    geom.quat_mul(geom.so3_exp(dx_nav[3:6]), nav.quat),
                    nav.pos + dx_nav[6:9])


_VEL_COLS = np.array([[0, 1, 2]])   # cols of the vehicle and ZUPT units
_BEARING_COLS = np.arange(2)        # a slot's tangent columns, from its offset
_EYE2 = np.eye(2)            # h_local of every bearing group
_EYE2.flags.writeable = False
_EYE3 = np.eye(3)            # h_local of the ZUPT group
_EYE3.flags.writeable = False


def _mahalanobis2(sig, r) -> float | None:
    """r^T sig^-1 r for a 2x2 sig (nested rows) in closed form; None unless
    det > 0."""
    (a, b), (c, d) = sig
    det = a * d - b * c
    if det <= 0.0:
        return None
    r0, r1 = r
    return (d * r0 * r0 - 2.0 * b * r0 * r1 + a * r1 * r1) / det


def _mahalanobis3(sig, r) -> float | None:
    """r^T sig^-1 r for a 3x3 sig (nested rows) by its adjugate; None unless
    det > 0."""
    (a, b, c), (d, e, f), (g, h, i) = sig
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c00 + b * c01 + c * c02
    if det <= 0.0:
        return None
    r0, r1, r2 = r
    adj_r0 = c00 * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2
    adj_r1 = c01 * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2
    adj_r2 = c02 * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2
    return (r0 * adj_r0 + r1 * adj_r1 + r2 * adj_r2) / det


_MAHALANOBIS = {2: _mahalanobis2, 3: _mahalanobis3}


def prepare_frame(img: Image) -> tuple[list[Image], np.ndarray]:
    """The part of an image frame that reads no filter state: the frame's
    pyramid and its FAST detections on level 0."""
    return build_pyramid(img), detect_features(img)


class AdaptiveEkf:
    """Single-writer filter instance; see module docstring for conventions."""

    def __init__(self, noise: NoiseConfig | None = None,
                 ext: CameraExtrinsics | None = None,
                 intr: CameraIntrinsics | None = None,
                 capacity: int = 16,
                 rho_sg: float = 0.0,
                 calibrate: bool = True,
                 use_lateral: bool = True,
                 params: GyroParams | None = None,
                 check_psd: bool = False):
        self.noise = noise or NoiseConfig()
        self.ext = ext or CameraExtrinsics()
        self.intr = intr
        self.capacity = int(capacity)
        self.rho_sg = float(rho_sg)
        self.calibrate = bool(calibrate)
        self.use_lateral = bool(use_lateral)
        self.check_psd = bool(check_psd)

        self.t = 0.0
        self.nav = NavState.identity()
        self.params = (params or GyroParams()).copy()
        self._qf = np.tile(geom.IDENTITY_QUAT, (self.capacity, 1))
        self._rho = np.full(self.capacity, self.noise.rho0)
        self._active = np.zeros(self.capacity, dtype=bool)
        self.patches: list = [None] * self.capacity
        n = NAV_DIM + FEAT_DIM * self.capacity
        self.dim = n
        p0 = np.zeros(n)
        p0[0:3] = self.noise.p0_vel ** 2
        p0[3:6] = self.noise.p0_att ** 2
        p0[6:9] = self.noise.p0_pos ** 2
        p0[NAV_DIM:] = 1.0  # inactive placeholder
        self.cov = np.diag(p0)
        self.param_cov = self.noise.s0_matrix() if self.calibrate else np.zeros((6, 6))
        self.upsilon = np.zeros((n, 6))
        self._eye = np.eye(n)
        self._active_key = None      # active mask the cache below is for
        self._active_cache = None
        self._miss = np.zeros(self.capacity, dtype=int)
        self._gated = np.zeros(self.capacity, dtype=int)
        self._wheel_zero_since = None
        self.min_eig_p = np.inf
        self.min_eig_s = float(np.linalg.eigvalsh(self.param_cov)[0]) if check_psd else np.inf
        self.counters = {
            "predicts": 0, "updates": 0, "updates_skipped": 0,
            "groups_gated": 0, "camera_rows": 0, "vehicle_rows": 0,
            "zupt_rows": 0, "features_initialized": 0, "features_dropped": 0,
            "param_clamps": 0, "slots_ignored": 0,
        }

    # -- bookkeeping ---------------------------------------------------------

    def initialize(self, t: float, nav: NavState) -> None:
        self.t = float(t)
        self.nav = nav.copy()

    def _state_indices(self, act) -> np.ndarray:
        base = NAV_DIM + FEAT_DIM * np.asarray(act, dtype=int)
        feat = base[:, None] + np.arange(FEAT_DIM)
        return np.concatenate((np.arange(NAV_DIM), feat.ravel()))

    def _active_set(self):
        """(active slots, their state indices, flat indices of the
        index x index block of a dim x dim matrix or None when the indices
        cover the whole state, process-noise variance per second), rebuilt
        only when the active set changes."""
        key = self._active.tobytes()
        if key != self._active_key:
            act = np.flatnonzero(self._active)
            idx = self._state_indices(act)
            q_rate = np.zeros(self.dim)
            q_rate[0:3] = self.noise.accel_noise ** 2
            q_rate[3:6] = self.noise.gyro_noise ** 2
            q_rate[6:9] = self.noise.pos_process ** 2
            q_rate[idx[NAV_DIM:]] = np.tile([self.noise.bearing_process ** 2] * 2
                                            + [self.noise.rho_process ** 2], len(act))
            flat = None if len(idx) == self.dim else (idx[:, None] * self.dim + idx).ravel()
            self._active_cache = (act, idx, flat, q_rate)
            self._active_key = key
        return self._active_cache

    # -- prediction ----------------------------------------------------------

    def predict(self, imu: np.ndarray) -> None:
        """Propagate through a (T, 7) block of imu.csv rows [t, omega_m,
        accel_m]; one sample is a one-row block.

        Over a block the active set and the gyro parameters stay fixed, so
        the states of a chunk come from one propagate_joint call, the
        linearizations of all its steps from one stacked call, and the
        covariance and sensitivity recursion then runs step by step.  A
        block is processed in chunks of at most PREDICT_BLOCK_MAX rows; a
        step outside (0, MAX_STEP_S] anywhere in the block raises ValueError
        before any state changes, and a FloatingPointError leaves the chunk
        it is raised in unapplied.
        """
        stamps = np.concatenate(([self.t], imu[:, 0]))
        dts = stamps[1:] - stamps[:-1]
        ok = (dts > 0.0) & (dts <= MAX_STEP_S)
        if not ok.all():
            raise ValueError(f"IMU step dt={dts[ok.argmin()]:.4f} outside (0, {MAX_STEP_S}]")
        for start in range(0, len(imu), PREDICT_BLOCK_MAX):
            self._predict_chunk(imu[start:start + PREDICT_BLOCK_MAX])

    def _predict_chunk(self, block: np.ndarray) -> None:
        act, idx, flat, q_rate = self._active_set()
        t, omega_m = block[:, 0], block[:, 1:4]
        omegas = correct_gyro(omega_m, self.params)
        stamps = np.concatenate(([self.t], t))
        dts = stamps[1:] - stamps[:-1]      # np.diff, without its wrapper's cost
        navs, qfs, rhos = propagate_joint(
            self.nav, self._qf[act], self._rho[act], omegas, block[:, 4:7], dts,
            self.ext, GRAVITY_VEC)

        f_c, psi_c = assemble_linearization(navs[:-1], qfs[:-1], rhos[:-1],
                                            omegas, omega_m, self.params,
                                            self.ext, GRAVITY_VEC)
        steps = len(block)
        # F dt, Psi dt and Q dt of every step, formed in place where they can be
        f_c *= dts[:, None, None]
        psi_c *= dts[:, None, None]
        q_dts = q_rate * dts[:, None]
        if flat is None:     # F covers the whole state
            f_c += self._eye
            phis = f_c
        else:
            # F dt scattered onto zeros, then the identity added: the sums of
            # adding F dt onto the identity, without a copy of it per step
            phis = np.zeros((steps, self.dim, self.dim))
            phis.reshape(steps, -1)[:, flat] = f_c.reshape(steps, -1)
            phis += self._eye

        cov, ups = self.cov, self.upsilon
        diag = slice(None, None, self.dim + 1)
        for phi, psi_dt, q_dt in zip(phis, psi_c, q_dts):
            cov = phi @ cov @ phi.T
            cov_diag = cov.reshape(-1)[diag]
            cov_diag += q_dt
            cov = cov + cov.T
            cov *= 0.5
            ups = phi @ ups
            if flat is None:
                ups += psi_dt
            else:
                ups[idx] += psi_dt
            if self.check_psd:
                self.min_eig_p = min(self.min_eig_p, float(np.linalg.eigvalsh(cov)[0]))
        self.cov = cov
        self.upsilon = ups

        self.nav = NavState.from_row(navs[-1])
        if len(act):
            self._qf[act] = qfs[-1]
            self._rho[act] = np.clip(rhos[-1], RHO_FLOOR, RHO_CEIL)
        self.t = t[-1]
        self.counters["predicts"] += steps

    # -- measurement row construction ----------------------------------------

    def note_wheel(self, t: float, v_x_m: float) -> None:
        """Track standstill state from the wheel-speed stream."""
        if v_x_m != 0.0:
            self._wheel_zero_since = None
        elif self._wheel_zero_since is None:
            self._wheel_zero_since = t

    def standstill_active(self, t: float) -> bool:
        return (self._wheel_zero_since is not None
                and t - self._wheel_zero_since >= ZUPT_HOLD_S)

    def vehicle_group(self, veh: VehicleVelocityMeasurement) -> RowGroup:
        z = vehicle_velocity_measurement(veh.v_x_m, veh.a_y_m, self.rho_sg)
        pred = vehicle_predicted_measurement(self.nav.vel, veh.v_x_m, veh.a_y_m,
                                             self.rho_sg)
        hv = vehicle_measurement_jacobian(self.rho_sg, veh.a_y_m)
        residual = z - pred
        sig_lat = self.noise.sigma_lateral
        if (abs(veh.v_x_m) < self.noise.lateral_min_speed
                or abs(veh.a_y_m) > self.noise.lateral_max_ay):
            sig_lat *= self.noise.lateral_inflation
        rows = [0, 1, 2] if self.use_lateral else [0, 2]
        r_map = {0: self.noise.sigma_wheel, 1: sig_lat, 2: self.noise.sigma_vertical}
        return RowGroup("vehicle", (None,), residual[None, rows], _VEL_COLS,
                        hv[rows, :], np.array([r_map[r] ** 2 for r in rows]))

    def zupt_group(self) -> RowGroup:
        return RowGroup("zupt", (None,), -self.nav.vel[None], _VEL_COLS,
                        _EYE3, np.full(3, self.noise.sigma_zupt ** 2))

    def _vehicle_and_zupt_groups(self, t: float,
                                 vehicle: VehicleVelocityMeasurement | None
                                 ) -> list[RowGroup]:
        """The vehicle row group, plus the ZUPT group at a standstill."""
        groups = [] if vehicle is None else [self.vehicle_group(vehicle)]
        if self.standstill_active(t):
            groups.append(self.zupt_group())
        return groups

    def bearing_groups(self, slots: list[int], observed: np.ndarray) -> RowGroup:
        """One stack of two-row units, one unit per slot, in the order of
        slots; observed holds the (m, 4) measured bearings.  The residuals
        come from one s2_boxminus_rows call."""
        residuals = geom.s2_boxminus_rows(observed, self._qf[slots])
        offsets = NAV_DIM + FEAT_DIM * np.array(slots)
        return RowGroup("bearing", slots, residuals, offsets[:, None] + _BEARING_COLS,
                        _EYE2, np.full(2, self.noise.sigma_bearing ** 2))

    def _gate_slots(self, detections: np.ndarray) -> list[tuple]:
        """(slot, predicted (u, v), start) of each active slot with a
        template, in front of the camera and projecting inside the image, and
        exactly one detection (a row (u, v) of detections) inside its
        prediction gate, in slot order.  With none or several candidates the
        slot is skipped this frame, rejecting ambiguous associations between
        identical-looking targets."""
        if not len(detections):
            return []   # a featureless frame: no slot has a candidate
        slots = [slot for slot in np.flatnonzero(self._active).tolist()
                 if self.patches[slot] is not None]
        uv, seen = project_rows(self._qf[slots], self.intr)
        slots, uv = np.array(slots, dtype=int)[seen], uv[seen]
        var = np.diagonal(self.cov)[NAV_DIM:].reshape(-1, FEAT_DIM)[slots]
        # max() and min() of the scalar gate, elementwise
        var = np.where(var[:, 1] > var[:, 0], var[:, 1], var[:, 0])
        r_gate = 3.0 * (np.sqrt(var) * self.intr.fx) + 3.0
        r_gate = np.where(KLT_MAX_SHIFT_PX < r_gate, KLT_MAX_SHIFT_PX, r_gate)
        near = np.hypot(detections[:, 0] - uv[:, :1],
                        detections[:, 1] - uv[:, 1:]) <= r_gate[:, None]
        one = np.flatnonzero(near.sum(axis=1) == 1)
        return [(slot, (u0, v0), detections[k]) for slot, (u0, v0), k in zip(
            slots[one].tolist(), uv[one].tolist(), near[one].argmax(axis=1).tolist())]

    def intensity_group(self, slot: int, pyramid: list[Image],
                        predicted: tuple[float, float],
                        aligned: tuple[float, float]) -> tuple | None:
        """Camera rows for one feature in image mode, from the position its
        template was aligned to: the (residual (2,), h_local (2, 2), r_diag
        (2,)) of its unit over the slot's tangent columns.

        Within the photometric basin of the predicted position (the slot's
        projection this frame) the rows are the intensity residuals with the
        full measurement chain (QR-compressed to two rows); when the prior
        lands farther out, the aligned position becomes a direct bearing
        observation so the linearization stays valid.  Returns None when not
        measurable.
        """
        bearing = self._qf[slot]
        (u0, v0), (u, v) = predicted, aligned
        if np.hypot(u - u0, v - v0) > PHOTOMETRIC_BASIN_PX:
            try:
                observed = unproject(u, v, self.intr)
            except ProjectionError:
                return None
            sigma_tan = self.noise.sigma_track_px / self.intr.fx
            return (geom.s2_boxminus(observed, bearing), _EYE2,
                    np.full(2, sigma_tan ** 2))
        out = camera_measurement_jacobian(bearing, self.patches[slot], pyramid, self.intr)
        if out is None:
            return None
        residual, h_tan = out
        q, r2 = np.linalg.qr(h_tan)
        if abs(r2[0, 0]) < 1e-9:
            return None  # textureless: no constraint
        return q.T @ residual, r2, np.full(2, self.noise.sigma_intensity ** 2)

    # -- update --------------------------------------------------------------

    def gate(self, group: RowGroup) -> list[int]:
        """Mahalanobis test of each unit of a stack at the GATE_QUANTILE
        chi-square quantile; returns the positions of the units that pass.

        One stacked H C H^T product gives every unit's innovation matrix (its
        slices are the 2-D products of the unit alone), and each unit's
        closed form then runs on Python floats, so a unit's decision and bits
        do not depend on the stack it is in.  Raises ValueError for units of
        other than 2 or 3 rows."""
        r = group.residual
        m = r.shape[1]
        if m not in _MAHALANOBIS:
            raise ValueError(f"{group.label} group of {m} rows: gate takes 2 or 3")
        cols = group.cols
        h = group.h_local
        sig = h @ self.cov[cols[:, :, None], cols[:, None, :]] @ h.swapaxes(-1, -2)
        sig.reshape(len(r), -1)[:, ::m + 1] += group.r_diag
        mahalanobis, limit = _MAHALANOBIS[m], GATE_LIMIT[m]
        return [i for i, (s, res) in enumerate(zip(sig.tolist(), r.tolist()))
                if (d2 := mahalanobis(s, res)) is not None and d2 <= limit]

    def update(self, groups: list[RowGroup]) -> dict:
        """Stacked EKF + RLS update; returns the (label, slot) of each unit
        kept and gated.

        H stacks the kept units' rows in the order of groups (vehicle, ZUPT,
        then the camera rows by slot), each group's in the order of its
        units; that order fixes kalman_step's bits."""
        report = {"kept": [], "gated": [], "skipped": False}
        kept = []
        m_total = 0
        for g in groups:
            keep = self.gate(g)
            units = len(g.residual)
            if len(keep) < units:
                gated = [i for i in range(units) if i not in keep]
                report["gated"] += [(g.label, g.slots[i]) for i in gated]
                self.counters["groups_gated"] += len(gated)
            if keep:
                report["kept"] += [(g.label, g.slots[i]) for i in keep]
                n_rows = len(keep) * g.residual.shape[1]
                kept.append((g, slice(None) if len(keep) == units else keep, n_rows))
                m_total += n_rows
        if not kept:
            return report

        h = np.zeros((m_total, self.dim))
        residual = np.empty(m_total)
        r_diag = np.empty(m_total)
        row = 0
        for g, sel, n_rows in kept:
            # one fancy-index assignment writes a group's kept H rows
            res = g.residual[sel]
            end = row + n_rows
            rows = np.arange(row, end).reshape(res.shape)
            h_local = g.h_local if g.h_local.ndim == 2 else g.h_local[sel]
            h[rows[:, :, None], g.cols[sel][:, None, :]] = h_local
            residual[row:end] = res.ravel()
            r_diag[row:end].reshape(res.shape)[:] = (
                g.r_diag if g.r_diag.ndim == 1 else g.r_diag[sel])
            row = end

        step = kalman_step(self.cov, h, r_diag, residual)
        if step is None:
            report["skipped"] = True
            self.counters["updates_skipped"] += 1
            return report
        dx, p_new, k, ikh, sigma = step

        if self.calibrate:
            omega_reg = h @ self.upsilon
            rls = rls_step(self.param_cov, omega_reg, sigma, residual,
                           self.noise.lam)
            if rls is not None:
                dtheta, s_new, _ = rls
                dx = dx + self.upsilon @ dtheta
                self._apply_param_step(dtheta)
                self.param_cov = s_new
            self.upsilon = ikh @ self.upsilon

        self.cov = p_new
        self.nav = retract(self.nav, dx[0:NAV_DIM])
        act, idx, _, _ = self._active_set()
        if len(act):
            dx_feat = dx[idx[NAV_DIM:]].reshape(-1, FEAT_DIM)
            self._qf[act] = geom.s2_boxplus_rows(self._qf[act], dx_feat[:, 0:2])
            self._rho[act] = np.clip(self._rho[act] + dx_feat[:, 2], RHO_FLOOR, RHO_CEIL)

        for g, _, n_rows in kept:
            self.counters[_ROW_COUNTER[g.label]] += n_rows
        self.counters["updates"] += 1
        return report

    def _apply_param_step(self, dtheta: np.ndarray) -> None:
        vec = self.params.as_vector() + dtheta
        clipped = np.clip(vec, PARAM_LOWER, PARAM_UPPER)
        # NaN != NaN, so a NaN parameter counts as a clamp
        if (clipped != vec).any():
            self.counters["param_clamps"] += 1
        self.params = GyroParams.from_vector(clipped)

    # -- feature lifecycle ----------------------------------------------------

    def init_feature(self, slot: int, bearing: np.ndarray, patch=None) -> None:
        self._active[slot] = True
        self._qf[slot] = geom.quat_normalize(np.asarray(bearing, dtype=float))
        self._rho[slot] = self.noise.rho0
        self.patches[slot] = patch
        bearing_var = self.noise.sigma_bearing0 ** 2
        self._reset_slot(slot, (bearing_var, bearing_var, self.noise.sigma_rho0 ** 2))
        self.counters["features_initialized"] += 1

    def drop_feature(self, slot: int) -> None:
        self._active[slot] = False
        self.patches[slot] = None
        self._reset_slot(slot, (1.0, 1.0, 1.0))
        self.counters["features_dropped"] += 1

    def _reset_slot(self, slot: int, variances) -> None:
        """Decouple the slot's rows: covariance rows and columns zero but for
        the given diagonal variances, sensitivity rows zero, counts zero."""
        o = NAV_DIM + FEAT_DIM * slot
        self.cov[o:o + 3, :] = 0.0
        self.cov[:, o:o + 3] = 0.0
        self.cov[o:o + 3, o:o + 3] = np.diag(variances)
        self.upsilon[o:o + 3, :] = 0.0
        self._miss[slot] = 0
        self._gated[slot] = 0

    def _age_slots(self, measured: list[int], report: dict) -> None:
        """Count this frame against every active slot: a gated slot counts a
        gating, a measured one clears both counts, any other counts a miss.
        A slot is dropped at MAX_MISSES of either count or by _health_drop.
        Array passes over the active mask; a filter without active slots has
        nothing to count."""
        act = self._active
        if not act.any():
            return
        hit = np.zeros(self.capacity, dtype=bool)
        hit[measured] = True
        gated_slots = [slot for _, slot in report["gated"] if slot is not None]
        if gated_slots:
            gated = np.zeros(self.capacity, dtype=bool)
            gated[gated_slots] = True
            self._gated += gated
            hit &= ~gated
            self._miss += act > (hit | gated)
        else:
            self._miss += act > hit
        self._gated[hit] = 0
        self._miss[hit] = 0
        drop = act & ((np.maximum(self._miss, self._gated) >= MAX_MISSES)
                      | self._health_drop())
        for slot in np.flatnonzero(drop).tolist():
            self.drop_feature(slot)

    def _health_drop(self) -> np.ndarray:
        """Mask of the slots to cull: degenerate depth or runaway bearing
        variance (the larger of the two tangent variances, as max() picks)."""
        diag = np.diagonal(self.cov)
        v0, v1 = diag[NAV_DIM::FEAT_DIM], diag[NAV_DIM + 1::FEAT_DIM]
        return ((self._rho <= RHO_FLOOR) | (self._rho >= RHO_CEIL)
                | (np.where(v1 > v0, v1, v0) > 0.2 ** 2))

    # -- per-frame orchestration ----------------------------------------------

    def process_bearing_frame(self, t: float, observations: list[tuple[int, np.ndarray]],
                              vehicle: VehicleVelocityMeasurement | None = None
                              ) -> dict:
        """Direct-bearing camera frame: update then feature management.  With
        no observations it is a vehicle-only update (wheel-IMU-only runs).
        An observation of a slot out of range, and one that a later
        observation of its slot replaces, counts in slots_ignored."""
        obs = {}
        for slot, q_obs in observations:
            if 0 <= slot < self.capacity:
                self.counters["slots_ignored"] += slot in obs
                obs[slot] = np.asarray(q_obs, dtype=float)
            else:
                self.counters["slots_ignored"] += 1
        groups = self._vehicle_and_zupt_groups(t, vehicle)
        measured = [slot for slot in sorted(obs) if self._active[slot]]
        if measured:
            groups.append(self.bearing_groups(measured,
                                              np.array([obs[s] for s in measured])))
        report = self.update(groups)
        self._age_slots(measured, report)
        # every observed inactive slot starts from this frame's bearing: new
        # slots, and dropped ones still observed (a slot gated persistently
        # was re-assigned upstream)
        for slot, q_obs in sorted(obs.items()):
            if not self._active[slot]:
                self.init_feature(slot, q_obs)
        self._check_covariances()
        return report

    def process_image_frame(self, t: float, pyramid: list[Image], detections: np.ndarray,
                            vehicle: VehicleVelocityMeasurement | None = None
                            ) -> dict:
        """Rendered/recorded-frame update via patch intensity residuals,
        from a frame's pyramid and detections (prepare_frame's products):
        update then feature management.  Neither is kept after the call:
        the stored templates are new arrays, so the caller may reuse the
        pyramid's memory for another frame."""
        if self.intr is None:
            raise ValueError("image mode requires camera intrinsics")
        groups = self._vehicle_and_zupt_groups(t, vehicle)
        # every gated template is aligned in one lockstep call; the groups
        # keep slot order, which fixes the order of the stacked rows
        gated = self._gate_slots(detections)
        tracks = klt_align([self.patches[slot] for slot, _, _ in gated], pyramid,
                           [start for _, _, start in gated])
        measured, units = [], []
        for (slot, predicted, _), u, v, ok in zip(gated, *tracks):
            if not ok:
                continue
            unit = self.intensity_group(slot, pyramid, predicted, (u, v))
            if unit is not None:
                measured.append(slot)
                units.append(unit)
        if units:
            # one stack, each unit with its own h_local and r_diag
            residual, h_local, r_diag = (np.array(x) for x in zip(*units))
            offsets = NAV_DIM + FEAT_DIM * np.array(measured)
            groups.append(RowGroup("intensity", measured, residual,
                                   offsets[:, None] + _BEARING_COLS, h_local, r_diag))
        report = self.update(groups)
        self._age_slots(measured, report)

        # top up empty slots from this frame's detections, keeping a margin
        # from the features still being tracked
        free = np.flatnonzero(~self._active).tolist()
        if free:
            # every slot adds at most one taken position
            taken = np.empty((self.capacity, 2))
            uv, seen = project_rows(self._qf[self._active], self.intr)
            m = int(seen.sum())
            taken[:m] = uv[seen]
            for u, v in detections:
                if not free:
                    break
                if (np.hypot(u - taken[:m, 0], v - taken[:m, 1]) < 12.0).any():
                    continue
                patch = extract_patch_set(pyramid, u, v)
                if patch is None:
                    continue
                self.init_feature(free.pop(0), unproject(u, v, self.intr),
                                  patch=patch)
                taken[m] = u, v
                m += 1
        self._check_covariances()
        return report

    def _check_covariances(self) -> None:
        """With check_psd, fold P and S after a frame into the minima."""
        if self.check_psd:
            self.min_eig_p = min(self.min_eig_p, float(np.linalg.eigvalsh(self.cov)[0]))
            self.min_eig_s = min(self.min_eig_s, float(np.linalg.eigvalsh(self.param_cov)[0]))
