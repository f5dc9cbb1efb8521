"""Finite-difference audit of every analytic Jacobian in the package.

The dynamics blocks are audited against the *flow*: a state (or parameter)
perturbation is pushed through one short RK4 integration step and differenced
in tangent coordinates, with Richardson extrapolation in the step length to
remove the first-order transition-matrix term.  This definition resolves the
tangent-transport subtleties of the manifold blocks (attitude and bearing
rows) and is exactly the object the covariance propagation needs.

Measurement blocks (vehicle rows, projection chain, photometric chain) are
audited with plain central differences of their predicted-measurement
functions.  The photometric probe keeps its sample points away from bilinear
cell boundaries, where the interpolant is not differentiable.
"""

from dataclasses import dataclass

import numpy as np

from . import geom
from .dynamics import (GRAVITY_VEC, GyroParams, NavState, apply_gyro_error,
                       correct_gyro)
from .features import CameraExtrinsics
from .filter import NAV_DIM, assemble_f_compact, assemble_psi_compact
from .image import Image, build_pyramid, extract_patch_set
from .sensors import (DEFAULT_INTRINSICS, CameraIntrinsics,
                      camera_measurement_jacobian, project,
                      vehicle_measurement_jacobian,
                      vehicle_predicted_measurement)


@dataclass
class JointSample:
    """One random linearization point for the dynamics audit."""
    nav: NavState
    qf: np.ndarray
    rho: np.ndarray
    omega_m: np.ndarray
    accel: np.ndarray
    params: GyroParams
    ext: CameraExtrinsics


def random_sample(rng: np.random.Generator) -> JointSample:
    """A random linearization point with one feature."""
    nav = NavState(rng.uniform(-15, 15, 3),
                   geom.so3_exp(rng.uniform(-1.5, 1.5, 3)),
                   rng.uniform(-50, 50, 3))
    d = np.array([1.0, *rng.uniform(-0.5, 0.5, 2)])
    qf = geom.quat_mul(geom.bearing_from_dir(d),
                       geom.so3_exp(np.array([rng.uniform(-np.pi, np.pi), 0, 0])))[None]
    rho = rng.uniform(0.01, 2.0, 1)
    params = GyroParams(rng.uniform(-0.02, 0.02, 3),
                        rng.uniform(0.97, 1.03),
                        rng.uniform(-0.02, 0.02),
                        rng.uniform(-0.02, 0.02))
    ext = CameraExtrinsics(geom.quat_to_rot(geom.so3_exp(rng.uniform(-0.3, 0.3, 3))),
                           rng.uniform(-2, 2, 3))
    omega_m = apply_gyro_error(rng.uniform(-0.6, 0.6, 3), params)
    accel = rng.uniform(-3, 3, 3)
    return JointSample(nav, qf, rho, omega_m, accel, params, ext)


# batched state tuple: (vel (B,3), quat (B,4), pos (B,3), qf (B,4), rho (B,))
# with one feature per scenario and per-scenario corrected rates (B,3).

def _flow_batch(vel, quat, pos, qf, rho, omega, accel, ext, dt):
    """Batched RK4 step of the coupled dynamics (one feature per scenario)."""

    def deriv(v, q, p, bq, br):
        r = geom.quats_to_frames(q)
        vdot = (accel[None, :] + np.einsum("bji,j->bi", r, GRAVITY_VEC)
                - geom.cross_rows(omega, v))
        om4 = np.concatenate([np.zeros((omega.shape[0], 1)), omega], axis=1)
        qdot = 0.5 * geom.quat_mul_rows(q, om4)
        pdot = np.einsum("bij,bj->bi", r, v)
        v_c = (v + geom.cross_rows(omega, ext.lever_arm)) @ ext.r_cb.T
        w_c = omega @ ext.r_cb.T
        pdir = geom.quats_to_dirs(bq)
        nt = geom.quats_to_tangents(bq)
        rate3 = w_c + br[:, None] * geom.cross_rows(pdir, v_c)
        dtan = -np.einsum("bxt,bx->bt", nt, rate3)
        om_left = np.zeros((bq.shape[0], 4))
        om_left[:, 1:4] = np.einsum("bxt,bt->bx", nt, dtan)
        bqdot = 0.5 * geom.quat_mul_rows(om_left, bq)
        brdot = br ** 2 * (pdir * v_c).sum(axis=1)
        return vdot, qdot, pdot, bqdot, brdot

    y = (vel, quat, pos, qf, rho)
    k1 = deriv(*y)
    k2 = deriv(*(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = deriv(*(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = deriv(*(yi + dt * ki for yi, ki in zip(y, k3)))
    out = [yi + dt / 6.0 * (a + 2 * b + 2 * c + d)
           for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    out[1] = out[1] / np.sqrt((out[1] * out[1]).sum(axis=1))[:, None]
    out[3] = out[3] / np.sqrt((out[3] * out[3]).sum(axis=1))[:, None]
    return tuple(out)


def _tangent_diff(a, b) -> np.ndarray:
    """(B, 12) tangent difference between batched joint states."""
    out = np.empty((a[0].shape[0], 12))
    out[:, 0:3] = a[0] - b[0]
    conj = b[1] * np.array([1.0, -1.0, -1.0, -1.0])
    out[:, 3:6] = geom.so3_log(geom.quat_mul_rows(a[1], conj))
    out[:, 6:9] = a[2] - b[2]
    out[:, 9:11] = geom.s2_boxminus_rows(a[3], b[3])
    out[:, 11] = a[4] - b[4]
    return out


_FD_H = 2e-5           # state and parameter step of the flow differences
_FD_DT = 1e-3          # longest flow step of the Richardson extrapolation
_FD_H_MEAS = 1e-6      # step of the measurement-side central differences


def _perturbed_states(s: JointSample):
    """Stack of 24 scenarios: +_FD_H then -_FD_H along each of the 12
    tangent dims.

    Positions are taken about the origin: the dynamics do not depend on
    position, and flowing positions of tens of metres and then differencing
    them would cost the position rows most of their digits.
    """
    deltas = np.vstack([np.eye(12) * _FD_H, -np.eye(12) * _FD_H])
    cnt = deltas.shape[0]
    vel = np.tile(s.nav.vel, (cnt, 1)) + deltas[:, 0:3]
    pos = deltas[:, 6:9]
    quat = geom.quat_mul_batch(geom.so3_exp_rows(deltas[:, 3:6]), s.nav.quat)
    qf = geom.s2_boxplus_rows(np.tile(s.qf[0], (cnt, 1)), deltas[:, 9:11])
    rho = np.full(cnt, s.rho[0]) + deltas[:, 11]
    return vel, quat, pos, qf, rho


def fd_flow_matrices(s: JointSample) -> tuple[np.ndarray, np.ndarray]:
    """Flow-based FD of the error-state dynamics matrix F and sensitivity Psi.

    All state and parameter perturbations for one dt level are flowed as a
    single batch; three-level Richardson extrapolation in the step length
    removes the O(dt) and O(dt^2) terms.
    """
    vel_s, quat_s, pos_s, qf_s, rho_s = _perturbed_states(s)
    omega0 = correct_gyro(s.omega_m, s.params)

    base = s.params.as_vector()
    omegas = np.empty((12, 3))
    for k in range(6):
        for sgn, row in ((1.0, k), (-1.0, 6 + k)):
            vec = base.copy()
            vec[k] += sgn * _FD_H
            omegas[row] = correct_gyro(s.omega_m, GyroParams.from_vector(vec))

    vel = np.vstack([vel_s, np.tile(s.nav.vel, (12, 1))])
    quat = np.vstack([quat_s, np.tile(s.nav.quat, (12, 1))])
    pos = np.vstack([pos_s, np.zeros((12, 3))])
    qf = np.vstack([qf_s, np.tile(s.qf[0], (12, 1))])
    rho = np.concatenate([rho_s, np.full(12, s.rho[0])])
    omega = np.vstack([np.tile(omega0, (24, 1)), omegas])

    def at(step):
        flowed = _flow_batch(vel, quat, pos, qf, rho, omega, s.accel, s.ext, step)
        phi = _tangent_diff(tuple(x[0:12] for x in flowed),
                            tuple(x[12:24] for x in flowed)).T / (2.0 * _FD_H)
        f_mat = (phi - np.eye(12)) / step
        psi = _tangent_diff(tuple(x[24:30] for x in flowed),
                            tuple(x[30:36] for x in flowed)).T / (2.0 * _FD_H * step)
        return f_mat, psi

    (f1, p1), (f2, p2), (f4, p4) = at(_FD_DT), at(_FD_DT / 2.0), at(_FD_DT / 4.0)
    f_out = (4.0 * (2.0 * f4 - f2) - (2.0 * f2 - f1)) / 3.0
    p_out = (4.0 * (2.0 * p4 - p2) - (2.0 * p2 - p1)) / 3.0
    return f_out, p_out


def _rel_err(analytic: np.ndarray, fd: np.ndarray, scale: float = 0.0) -> float:
    """Block max-abs difference over the block scale.

    Structurally-zero blocks are judged against a fraction of the full-matrix
    scale so FD noise in an exactly-zero block is not read as 100% error.
    """
    denom = max(float(np.max(np.abs(fd))), 1e-2 * scale, 1e-6)
    return float(np.max(np.abs(analytic - fd))) / denom


# --- measurement-side probes -------------------------------------------------

def _central_diff(f, dim: int) -> np.ndarray:
    """Columns (f(+h e_j) - f(-h e_j)) / 2h, j < dim, with h = _FD_H_MEAS."""
    cols = []
    for j in range(dim):
        d = np.zeros(dim)
        d[j] = _FD_H_MEAS
        cols.append((f(d) - f(-d)) / (2 * _FD_H_MEAS))
    return np.stack(cols, axis=1)


def render_smooth_probe(intr: CameraIntrinsics, u: float, v: float) -> Image:
    """Blob plus tilted plane: smooth scene with gradient everywhere."""
    uu, vv = np.meshgrid(np.arange(intr.width, dtype=float),
                         np.arange(intr.height, dtype=float))
    blob = 120.0 * np.exp(-((uu - u) ** 2 + (vv - v) ** 2) / (2.0 * 6.0 ** 2))
    plane = 40.0 + 0.12 * uu + 0.07 * vv
    return Image(np.clip(plane + blob, 0.0, 255.0))


def _probe_off_lattice(u: float, v: float) -> bool:
    """Keep patch sample fractions clear of bilinear cell boundaries."""
    for scale in (1.0, 2.0):
        for c in (u / scale, v / scale):
            frac = (c + 0.5) % 1.0
            if frac < 0.02 or frac > 0.98:
                return False
    return True


def fd_camera_chain(rng: np.random.Generator, intr: CameraIntrinsics):
    """(analytic H, FD H) for the full photometric chain on a smooth scene.

    Both come from the filter's camera_measurement_jacobian: H as returned,
    and each FD column from its residuals at the bearing moved by +-_FD_H_MEAS,
    on the first of 50 drawn bearings that makes a valid probe.
    """
    for _ in range(50):
        d = np.array([1.0, rng.uniform(-0.35, 0.35), rng.uniform(-0.25, 0.25)])
        bearing = geom.bearing_from_dir(d)
        try:
            (u, v), _ = project(bearing, intr)
        except Exception:
            continue
        if not (16 < u < intr.width - 16 and 16 < v < intr.height - 16):
            continue
        if not _probe_off_lattice(u, v):
            continue
        img = render_smooth_probe(intr, u + 2.0, v + 1.5)
        pyramid = build_pyramid(img)
        patch = extract_patch_set(pyramid, u, v)
        if patch is None:
            continue
        # an inverse depth the chain does not depend on; still drawn, so the
        # random stream, and every later configuration of a seeded audit,
        # stays as it was
        rng.uniform(0.05, 0.5)
        out = camera_measurement_jacobian(bearing, patch, pyramid, intr)
        if out is None:
            continue
        fd = _central_diff(lambda delta: camera_measurement_jacobian(
            geom.s2_boxplus(bearing, delta), patch, pyramid, intr)[0], 2)
        return out[1], fd
    raise RuntimeError("could not draw a valid photometric probe")


# --- the audit ----------------------------------------------------------------

DYNAMIC_BLOCKS = {
    "dvdot_dv": (slice(0, 3), slice(0, 3)),
    "dvdot_dtheta": (slice(0, 3), slice(3, 6)),
    "dpdot_dv": (slice(6, 9), slice(0, 3)),
    "dpdot_dtheta": (slice(6, 9), slice(3, 6)),
    "f_att_rows": (slice(3, 6), slice(0, 9)),
    "f_feat_diag": (slice(9, 12), slice(9, 12)),
    "f_feat_vel": (slice(9, 12), slice(0, 3)),
}

PARAM_BLOCKS = {
    "psi_vel": slice(0, 3),
    "psi_att": slice(3, 6),
    "psi_pos": slice(6, 9),
    "psi_feat": slice(9, 12),
}


def run_audit(n_configs: int = 1000, seed: int = 0) -> dict[str, float]:
    """Max relative error per named block over random configurations;
    format_report judges them against the tolerance."""
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    for i in range(n_configs):
        s = random_sample(rng)
        f_an = assemble_f_compact(s.nav, s.qf, s.rho,
                                  correct_gyro(s.omega_m, s.params), s.ext)
        f_fd, psi_fd = fd_flow_matrices(s)
        f_scale = float(np.max(np.abs(f_fd)))
        for name, (r, c) in DYNAMIC_BLOCKS.items():
            err = _rel_err(f_an[r, c], f_fd[r, c], f_scale)
            worst[name] = max(worst.get(name, 0.0), err)

        psi_an = assemble_psi_compact(s.nav, s.qf, s.rho, s.omega_m,
                                      s.params, s.ext)
        psi_scale = float(np.max(np.abs(psi_fd)))
        for name, r in PARAM_BLOCKS.items():
            err = _rel_err(psi_an[r, :], psi_fd[r, :], psi_scale)
            worst[name] = max(worst.get(name, 0.0), err)

        vel = rng.uniform(-20, 20, 3)
        v_x_m, a_y_m = float(vel[0]), rng.uniform(-4, 4)
        rho_sg = rng.uniform(0.0, 0.006)
        hv_an = vehicle_measurement_jacobian(rho_sg, a_y_m)
        hv_fd = _central_diff(lambda d: vehicle_predicted_measurement(
            vel + d, v_x_m, a_y_m, rho_sg), 3)
        worst["h_vehicle"] = max(worst.get("h_vehicle", 0.0),
                                 _rel_err(hv_an, hv_fd))

        d = np.array([1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)])
        bearing = geom.bearing_from_dir(d)
        _, j_an = project(bearing, DEFAULT_INTRINSICS, require_in_image=False)
        j_fd = _central_diff(lambda delta: np.array(project(
            geom.s2_boxplus(bearing, delta), DEFAULT_INTRINSICS,
            require_in_image=False)[0]), 2)
        worst["projection_tangent"] = max(worst.get("projection_tangent", 0.0),
                                          _rel_err(j_an, j_fd))

        if i % 20 == 0:
            h_an, h_fd = fd_camera_chain(rng, DEFAULT_INTRINSICS)
            worst["camera_chain"] = max(worst.get("camera_chain", 0.0),
                                        _rel_err(h_an, h_fd))
    return worst


def format_report(worst: dict[str, float], tol: float = 1e-4) -> tuple[str, bool]:
    lines = [f"{'block':<22} {'max rel err':>12}  status"]
    ok = True
    for name in sorted(worst):
        passed = worst[name] <= tol
        ok &= passed
        lines.append(f"{name:<22} {worst[name]:>12.3e}  {'pass' if passed else 'FAIL'}")
    lines.append(f"tolerance {tol:g}: {'all blocks pass' if ok else 'FAILURES present'}")
    return "\n".join(lines), ok
