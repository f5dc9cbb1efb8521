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

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .dynamics import (GRAVITY_VEC, GyroParams, NavState, apply_gyro_error,
                       correct_gyro)
from .features import CameraExtrinsics
from .filter import assemble_f_compact, assemble_psi_compact
from .image import Image, build_pyramid, extract_patch_set
from .sensors import (DEFAULT_INTRINSICS, CameraIntrinsics, ProjectionError,
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
    ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(rng.uniform(-0.3, 0.3, 3))),
                           rng.uniform(-2, 2, 3))
    omega_m = apply_gyro_error(rng.uniform(-0.6, 0.6, 3), params)
    accel = rng.uniform(-3, 3, 3)
    return JointSample(nav, qf, rho, omega_m, accel, params, ext)


# batched state tuple: (vel (B,3), quat (B,4), pos (B,3), qf (B,4), rho (B,))
# with one feature per row and per-row corrected rates (B,3).

def _flow_batch(vel, quat, pos, qf, rho, omega, accel, lever_arm, r_cb, dt):
    """Batched RK4 step of the coupled dynamics (one feature per row).

    accel, lever_arm and the step length dt are per row.  r_cb (G, 3, 3)
    holds the camera rotation of each of G equal groups of consecutive rows;
    each group is rotated by its own matrix product, so the products keep
    the shape, and the bits, of a flow of that group alone.
    """
    groups = r_cb.shape[0]
    r_bc = np.swapaxes(r_cb, 1, 2)

    def to_camera(x):
        return (x.reshape(groups, -1, 3) @ r_bc).reshape(x.shape)

    om4 = np.concatenate([np.zeros((omega.shape[0], 1)), omega], axis=1)
    w_c = to_camera(omega)

    def deriv(v, q, p, bq, br):
        r = geom.quats_to_frames(q)
        vdot = (accel + np.einsum("bji,j->bi", r, GRAVITY_VEC)
                - geom.cross_rows(omega, v))
        qdot = 0.5 * geom.quat_mul_rows(q, om4)
        pdot = np.einsum("bij,bj->bi", r, v)
        v_c = to_camera(v + geom.cross_rows(omega, lever_arm))
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

    def per_row(h):
        """The per-row step h, shaped to scale each state component."""
        return [h[:, None] if yi.ndim == 2 else h for yi in y]

    half, full, sixth = per_row(0.5 * dt), per_row(dt), per_row(dt / 6.0)
    k1 = deriv(*y)
    k2 = deriv(*(yi + hi * ki for yi, hi, ki in zip(y, half, k1)))
    k3 = deriv(*(yi + hi * ki for yi, hi, ki in zip(y, half, k2)))
    k4 = deriv(*(yi + hi * ki for yi, hi, ki in zip(y, full, k3)))
    out = [yi + hi * (a + 2 * b + 2 * c + d)
           for yi, hi, a, b, c, d in zip(y, sixth, k1, k2, k3, k4)]
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
# flow step lengths of the Richardson extrapolation, longest first
_FD_DTS = np.array([1e-3, 1e-3 / 2.0, 1e-3 / 4.0])
_FD_H_MEAS = 1e-6      # step of the measurement-side central differences
_FLOW_ROWS = 36        # flowed rows per sample and step length
# samples per fd_flow_matrices call of run_audit: larger blocks gain little
# speed and cost memory (all 1000 of a full audit in one block peak at
# three times the resident memory)
_AUDIT_BLOCK = 20


def _flow_rows(samples: list[JointSample]):
    """The _FLOW_ROWS rows each sample flows at every step length, as
    (vel, quat, pos, qf, rho, omega), each (S, _FLOW_ROWS, ...).

    A sample's rows are 24 state perturbations, +_FD_H then -_FD_H along
    each of the 12 tangent dims, then the unperturbed state under +_FD_H
    and then -_FD_H along each of the 6 gyro parameters.  Positions are
    taken about the origin: the dynamics do not depend on position, and
    flowing positions of tens of metres and then differencing them would
    cost the position rows most of their digits.
    """
    n = len(samples)
    deltas = np.vstack([np.eye(12) * _FD_H, -np.eye(12) * _FD_H])
    states = deltas.shape[0]
    nav_quat = np.array([s.nav.quat for s in samples])
    qf0 = np.array([s.qf[0] for s in samples])
    rho0 = np.array([s.rho[0] for s in samples])

    vel = np.repeat(np.array([s.nav.vel for s in samples])[:, None], _FLOW_ROWS, axis=1)
    vel[:, :states] += deltas[:, 0:3]
    quat = np.repeat(nav_quat[:, None], _FLOW_ROWS, axis=1)
    quat[:, :states] = geom.quat_mul_batch(geom.so3_exp_rows(deltas[:, 3:6]),
                                           nav_quat[:, None])
    pos = np.zeros((n, _FLOW_ROWS, 3))
    pos[:, :states] = deltas[:, 6:9]
    qf = np.repeat(qf0[:, None], _FLOW_ROWS, axis=1)
    qf[:, :states] = geom.s2_boxplus_rows(np.repeat(qf0, states, axis=0),
                                          np.tile(deltas[:, 9:11], (n, 1))
                                          ).reshape(n, states, 4)
    rho = np.repeat(rho0[:, None], _FLOW_ROWS, axis=1)
    rho[:, :states] += deltas[:, 11]

    omega = np.empty((n, _FLOW_ROWS, 3))
    for s, rates in zip(samples, omega):
        rates[:states] = correct_gyro(s.omega_m, s.params)
        base = s.params.as_vector()
        for k in range(6):
            for sgn, row in ((1.0, k), (-1.0, 6 + k)):
                vec = base.copy()
                vec[k] += sgn * _FD_H
                rates[states + row] = correct_gyro(s.omega_m, GyroParams.from_vector(vec))
    return vel, quat, pos, qf, rho, omega


def fd_flow_matrices(samples: list[JointSample]) -> tuple[np.ndarray, np.ndarray]:
    """Flow-based FD of the error-state dynamics matrix F (S, 12, 12) and
    sensitivity Psi (S, 12, 6) of each of S samples.

    Every sample's state and parameter perturbations are flowed at all
    three step lengths in one batch, each (sample, step length) a group of
    _FLOW_ROWS consecutive rows; three-level Richardson extrapolation in the
    step length removes the O(dt) and O(dt^2) terms.  Each sample's result
    does not depend on the other samples of the block.
    """
    n = len(samples)
    levels = len(_FD_DTS)
    reps = levels * _FLOW_ROWS
    vel, quat, pos, qf, rho, omega = (
        np.repeat(x, levels, axis=0).reshape((n * reps,) + x.shape[2:])
        for x in _flow_rows(samples))
    flowed = _flow_batch(
        vel, quat, pos, qf, rho, omega,
        np.repeat([s.accel for s in samples], reps, axis=0),
        np.repeat([s.ext.lever_arm for s in samples], reps, axis=0),
        np.repeat([s.ext.r_cb for s in samples], levels, axis=0),
        np.repeat(np.tile(_FD_DTS, n), _FLOW_ROWS))

    def group_rows(lo, hi):
        """Rows lo:hi of every group of the flowed state."""
        return tuple(x.reshape((n * levels, _FLOW_ROWS) + x.shape[1:])[:, lo:hi]
                     .reshape((-1,) + x.shape[1:]) for x in flowed)

    steps = _FD_DTS[:, None, None]
    state_diff = _tangent_diff(group_rows(0, 12), group_rows(12, 24))
    phi = np.swapaxes(state_diff.reshape(n, levels, 12, 12), 2, 3) / (2.0 * _FD_H)
    f_mat = (phi - np.eye(12)) / steps
    param_diff = _tangent_diff(group_rows(24, 30), group_rows(30, 36))
    psi = np.swapaxes(param_diff.reshape(n, levels, 6, 12), 2, 3) / (2.0 * _FD_H * steps)

    def richardson(m):
        m1, m2, m4 = m[:, 0], m[:, 1], m[:, 2]
        return (4.0 * (2.0 * m4 - m2) - (2.0 * m2 - m1)) / 3.0

    return richardson(f_mat), richardson(psi)


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


# half side [px] of the rendered square of a probe.  fd_camera_chain's patch
# lies 2.5 px from the blob centre, and the pixels the chain reads through
# both pyramid levels (patch, bilinear cells, the 5-tap smoothing and the
# 2x2 averaging) lie within 16 px of it, so inside the square and clear of
# the probe's bottom and right edges.
_PROBE_RADIUS = 32


def render_smooth_probe(intr: CameraIntrinsics, u: float, v: float) -> Image:
    """Blob at (u, v) plus tilted plane: smooth scene with gradient
    everywhere near the blob.

    Only the top-left part of the frame is returned, ending at the
    bottom-right corner of the square of pixels within _PROBE_RADIUS of
    (u, v) along each axis; the square is rendered and the rest holds 0.
    """
    cu, cv = math.floor(u), math.floor(v)
    c0, r0 = max(cu - _PROBE_RADIUS, 0), max(cv - _PROBE_RADIUS, 0)
    c1 = min(cu + _PROBE_RADIUS + 1, intr.width)
    r1 = min(cv + _PROBE_RADIUS + 1, intr.height)
    uu, vv = np.meshgrid(np.arange(c0, c1, dtype=float),
                         np.arange(r0, r1, dtype=float))
    blob = 120.0 * np.exp(-((uu - u) ** 2 + (vv - v) ** 2) / (2.0 * 6.0 ** 2))
    plane = 40.0 + 0.12 * uu + 0.07 * vv
    data = np.zeros((r1, c1))
    data[r0:, c0:] = np.clip(plane + blob, 0.0, 255.0)
    return Image(data)


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
        except ProjectionError:
            continue
        if not (16 < u < intr.width - 16 and 16 < v < intr.height - 16):
            continue
        if not _probe_off_lattice(u, v):
            continue
        pyramid = build_pyramid(render_smooth_probe(intr, u + 2.0, v + 1.5))
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
    format_report judges them against the tolerance.

    The configurations are drawn one after another from one stream; the
    flow differences of each block of _AUDIT_BLOCK of them then run in one
    fd_flow_matrices call.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def note(name: str, err: float) -> None:
        worst[name] = max(worst.get(name, 0.0), err)

    for start in range(0, n_configs, _AUDIT_BLOCK):
        samples = []
        # (block name, error) of the measurement-side probes, noted after
        # the dynamics blocks so that worst keeps its order of names
        measured = []
        for i in range(start, min(start + _AUDIT_BLOCK, n_configs)):
            samples.append(random_sample(rng))

            vel = rng.uniform(-20, 20, 3)
            v_x_m, a_y_m = float(vel[0]), rng.uniform(-4, 4)
            rho_sg = rng.uniform(0.0, 0.006)
            hv_an = vehicle_measurement_jacobian(rho_sg, a_y_m)
            hv_fd = _central_diff(lambda d: vehicle_predicted_measurement(
                vel + d, v_x_m, a_y_m, rho_sg), 3)
            measured.append(("h_vehicle", _rel_err(hv_an, hv_fd)))

            d = np.array([1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)])
            bearing = geom.bearing_from_dir(d)
            _, j_an = project(bearing, DEFAULT_INTRINSICS, require_in_image=False)
            j_fd = _central_diff(lambda delta: np.array(project(
                geom.s2_boxplus(bearing, delta), DEFAULT_INTRINSICS,
                require_in_image=False)[0]), 2)
            measured.append(("projection_tangent", _rel_err(j_an, j_fd)))

            if i % 20 == 0:
                h_an, h_fd = fd_camera_chain(rng, DEFAULT_INTRINSICS)
                measured.append(("camera_chain", _rel_err(h_an, h_fd)))

        for s, f_fd, psi_fd in zip(samples, *fd_flow_matrices(samples)):
            f_an = assemble_f_compact(s.nav, s.qf, s.rho,
                                      correct_gyro(s.omega_m, s.params), s.ext)
            f_scale = float(np.max(np.abs(f_fd)))
            for name, (r, c) in DYNAMIC_BLOCKS.items():
                note(name, _rel_err(f_an[r, c], f_fd[r, c], f_scale))

            psi_an = assemble_psi_compact(s.nav, s.qf, s.rho, s.omega_m,
                                          s.params, s.ext)
            psi_scale = float(np.max(np.abs(psi_fd)))
            for name, r in PARAM_BLOCKS.items():
                note(name, _rel_err(psi_an[r, :], psi_fd[r, :], psi_scale))
        for name, err in measured:
            note(name, err)
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
