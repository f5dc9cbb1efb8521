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


@dataclass
class ImuSample:
    t: float
    omega_m: np.ndarray   # measured angular rate [rad/s]
    accel_m: np.ndarray   # measured specific force [m/s^2]


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


def _deriv_flat(y, wx, wy, wz, ax, ay, az, gx, gy, gz):
    """RK4 stage derivative in plain float math (hot path)."""
    vx, vy, vz, qw, qx, qy, qz, px, py, pz = y
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
            g: np.ndarray, dt: float) -> NavState:
    """One RK4 step of the nav state for corrected rates, in scalar float math."""
    # Python floats: the same IEEE arithmetic as numpy scalars, faster
    args = (*omega.tolist(), *accel.tolist(), *g.tolist())
    y0 = (*s.vel.tolist(), *s.quat.tolist(), *s.pos.tolist())
    dt = float(dt)
    half = 0.5 * dt
    k1 = _deriv_flat(y0, *args)
    y_b = [a + half * b for a, b in zip(y0, k1)]
    k2 = _deriv_flat(y_b, *args)
    y_c = [a + half * b for a, b in zip(y0, k2)]
    k3 = _deriv_flat(y_c, *args)
    y_d = [a + dt * b for a, b in zip(y0, k3)]
    k4 = _deriv_flat(y_d, *args)
    sixth = dt / 6.0
    y1 = [a + sixth * (b + 2.0 * c + 2.0 * d + e)
          for a, b, c, d, e in zip(y0, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y1)):
        raise FloatingPointError("non-finite nav state after propagation step")
    norm = math.sqrt(y1[3] ** 2 + y1[4] ** 2 + y1[5] ** 2 + y1[6] ** 2)
    y = np.array(y1)
    return NavState(y[0:3], y[3:7] / norm, y[7:10])


