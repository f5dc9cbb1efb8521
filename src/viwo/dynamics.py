"""IMU strapdown motion model and the six-parameter gyroscope error model.

State derivative (body velocity v, attitude q body-to-world, world position p):

    vdot = a + R(q)^T g - omega x v
    qdot = 0.5 * q * (0, omega)
    pdot = R(q) v

The gyroscope error model maps true rates to measured rates through an
upper-triangular matrix M plus an offset b:

    omega_m = M(yaw_scale, misalign) @ omega + bias
    M = [[1, 0, -m_yx], [0, 1, m_xy], [0, 0, s_z]]

The filter always consumes corrected rates omega = M^-1 (omega_m - bias); all
parameter Jacobians are taken through this inverse map.

The nav error state is [velocity, attitude, position] with the attitude error
applied on the world side (see geom module docstring); its Jacobians are the
nav block of filter.assemble_linearization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geom

GRAVITY = 9.81
GRAVITY_VEC = np.array([0.0, 0.0, -GRAVITY])   # world frame, z up
GRAVITY_VEC.flags.writeable = False

MAX_STEP_S = 0.1
MIN_YAW_SCALE = 1e-6
# bounds of the gyro parameters, in GyroParams.as_vector order: offsets
# [rad/s], yaw scale, misalignments [rad]
PARAM_LOWER = np.array([-0.1, -0.1, -0.1, 0.5, -0.1, -0.1])
PARAM_UPPER = np.array([0.1, 0.1, 0.1, 2.0, 0.1, 0.1])


@dataclass
class NavState:
    """Body-frame velocity [m/s], attitude quaternion (body->world), world position [m]."""
    vel: np.ndarray
    quat: np.ndarray
    pos: np.ndarray

    @staticmethod
    def identity() -> "NavState":
        return NavState(np.zeros(3), geom.IDENTITY_QUAT.copy(), np.zeros(3))

    def copy(self) -> "NavState":
        return NavState(self.vel.copy(), self.quat.copy(), self.pos.copy())

    @staticmethod
    def from_row(y: np.ndarray) -> "NavState":
        """The state of a [vel, quat, pos] row (10,), as views of it."""
        return NavState(y[0:3], y[3:7], y[7:10])


@dataclass
class GyroParams:
    """Gyroscope offsets [rad/s], yaw-rate scale, yaw-rate cross coupling (small angles)."""
    bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_scale: float = 1.0
    misalign_yx: float = 0.0
    misalign_xy: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.array([self.bias[0], self.bias[1], self.bias[2],
                         self.yaw_scale, self.misalign_yx, self.misalign_xy])

    @staticmethod
    def from_vector(v: np.ndarray) -> "GyroParams":
        return GyroParams(np.asarray(v[:3], dtype=float).copy(),
                          float(v[3]), float(v[4]), float(v[5]))

    def copy(self) -> "GyroParams":
        return GyroParams(self.bias.copy(), self.yaw_scale,
                          self.misalign_yx, self.misalign_xy)


def error_matrix(params: GyroParams) -> np.ndarray:
    """Upper-triangular rate-error matrix M."""
    return np.array([
        [1.0, 0.0, -params.misalign_yx],
        [0.0, 1.0, params.misalign_xy],
        [0.0, 0.0, params.yaw_scale],
    ])


def apply_gyro_error(omega_true: np.ndarray, params: GyroParams) -> np.ndarray:
    """Forward error map: what the gyro outputs for a true rate, or row by
    row for a stack of them (..., 3); each row is its own matrix-vector
    product, so it has the bits of a one-rate call."""
    return np.matmul(error_matrix(params), omega_true[..., None])[..., 0] + params.bias


def correct_gyro(omega_m: np.ndarray, params: GyroParams) -> np.ndarray:
    """Invert the error model: estimated true rate from a measurement, or
    row by row from a stack of them (..., 3)."""
    if params.yaw_scale <= MIN_YAW_SCALE:
        raise ValueError(f"degenerate yaw scale {params.yaw_scale}")
    u = omega_m - params.bias
    s = params.yaw_scale
    out = np.empty(u.shape)
    out[..., 2] = wz = u[..., 2] / s
    out[..., 0] = u[..., 0] + params.misalign_yx * wz
    out[..., 1] = u[..., 1] - params.misalign_xy * wz
    return out


def corrected_rate_param_jacobian(omega_m: np.ndarray,
                                  params: GyroParams) -> np.ndarray:
    """3x6 derivative of the corrected rate w.r.t. (bias, s_z, m_yx, m_xy).

    Columns follow GyroParams.as_vector ordering.  A stack of measured rates
    (..., 3) gives a stack of Jacobians (..., 3, 6), entry by entry the same.
    """
    s = params.yaw_scale
    minv = np.array([
        [1.0, 0.0, params.misalign_yx / s],
        [0.0, 1.0, -params.misalign_xy / s],
        [0.0, 0.0, 1.0 / s],
    ])
    wz = (omega_m[..., 2] - params.bias[2]) / s  # corrected yaw rate
    jac = np.zeros(omega_m.shape[:-1] + (3, 6))
    jac[..., :3] = -minv
    jac[..., 0, 3] = -params.misalign_yx * wz / s
    jac[..., 1, 3] = params.misalign_xy * wz / s
    jac[..., 2, 3] = -wz / s
    jac[..., 0, 4] = wz
    jac[..., 1, 5] = -wz
    return jac


def _deriv_flat(vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, ax, ay, az, gx, gy, gz):
    """RK4 stage derivative (vdot, qdot, pdot) in plain float math (hot
    path); the position does not enter it."""
    r00 = 1.0 - 2.0 * (qy * qy + qz * qz)
    r01 = 2.0 * (qx * qy - qw * qz)
    r02 = 2.0 * (qx * qz + qw * qy)
    r10 = 2.0 * (qx * qy + qw * qz)
    r11 = 1.0 - 2.0 * (qx * qx + qz * qz)
    r12 = 2.0 * (qy * qz - qw * qx)
    r20 = 2.0 * (qx * qz - qw * qy)
    r21 = 2.0 * (qy * qz + qw * qx)
    r22 = 1.0 - 2.0 * (qx * qx + qy * qy)
    return (
        ax + r00 * gx + r10 * gy + r20 * gz - (wy * vz - wz * vy),
        ay + r01 * gx + r11 * gy + r21 * gz - (wz * vx - wx * vz),
        az + r02 * gx + r12 * gy + r22 * gz - (wx * vy - wy * vx),
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        r00 * vx + r01 * vy + r02 * vz,
        r10 * vx + r11 * vy + r12 * vz,
        r20 * vx + r21 * vy + r22 * vz,
    )


def rk4_nav(s: NavState, omega: np.ndarray, accel: np.ndarray,
            g: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """RK4 steps of the nav state for corrected rates, in scalar float math.

    omega and accel (T, 3), dt (T,) -> (T + 1, 10) rows [vel, quat, pos]: s,
    then the state after each step.  Each step is done alone, so a chunk
    gives the states of T one-step (T = 1) calls bit for bit.  Each step
    normalizes the quaternion; a non-finite state raises FloatingPointError.
    """
    # Python floats: the same IEEE arithmetic as numpy scalars, faster
    gx, gy, gz = g.tolist()
    y = (*s.vel.tolist(), *s.quat.tolist(), *s.pos.tolist())
    vx, vy, vz, qw, qx, qy, qz, px, py, pz = y
    rows = [y]
    for (wx, wy, wz), (ax, ay, az), h in zip(omega.tolist(), accel.tolist(),
                                             np.asarray(dt, dtype=float).tolist()):
        half = 0.5 * h
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = _deriv_flat(
            vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, ax, ay, az, gx, gy, gz)
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = _deriv_flat(
            vx + half * a0, vy + half * a1, vz + half * a2, qw + half * a3,
            qx + half * a4, qy + half * a5, qz + half * a6,
            wx, wy, wz, ax, ay, az, gx, gy, gz)
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = _deriv_flat(
            vx + half * b0, vy + half * b1, vz + half * b2, qw + half * b3,
            qx + half * b4, qy + half * b5, qz + half * b6,
            wx, wy, wz, ax, ay, az, gx, gy, gz)
        d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = _deriv_flat(
            vx + h * c0, vy + h * c1, vz + h * c2, qw + h * c3,
            qx + h * c4, qy + h * c5, qz + h * c6,
            wx, wy, wz, ax, ay, az, gx, gy, gz)
        sixth = h / 6.0
        y = (vx + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             vy + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             vz + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             qw + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
             qx + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
             qy + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
             qz + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
             px + sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7),
             py + sixth * (a8 + 2.0 * b8 + 2.0 * c8 + d8),
             pz + sixth * (a9 + 2.0 * b9 + 2.0 * c9 + d9))
        if not all(map(math.isfinite, y)):
            raise FloatingPointError("non-finite nav state after propagation step")
        vx, vy, vz, qw, qx, qy, qz, px, py, pz = y
        norm = math.sqrt(qw ** 2 + qx ** 2 + qy ** 2 + qz ** 2)
        qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
        rows.append((vx, vy, vz, qw, qx, qy, qz, px, py, pz))
    return np.array(rows)
