"""Per-feature bearing/inverse-depth state and its camera-twist dynamics.

A feature j is (q_f, rho): a bearing quaternion in the camera frame and the
inverse of the range along it.  With p = R(q_f) e1 and tangent basis N, the
dynamics under a camera twist (v_C, omega_C) are

    bearing tangent rate: ddelta = -N^T (omega_C + rho * p x v_C)
    inverse-depth rate:   drho   = rho^2 * p . v_C

All Jacobian blocks below are derived from these two equations (the package
treats finite differences of the flow as the authority; see the jacobian
audit).  Division by rho never occurs, but a floor is enforced because the
inverse-depth state itself degenerates at rho -> 0.

The bearing frame R(q_f) = [p n1 n2] is a right-handed rotation, so with
N = [n1 n2] and J = [[0, -1], [1, 0]]:

    N^T [p]x       = [-n2^T; n1^T]
    N^T [a]x N     = (a . p) J          for any 3-vector a
    N^T [v]x [p]x N = -(v . p) I_2

which reduce every batched block (linearize_batch) to dot products of the
frame axes with v_C, omega_C and the columns of the twist chain.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geom
from .dynamics import NavState

RHO_FLOOR = 1e-4
RHO_CEIL = 10.0


@dataclass
class FeatureState:
    bearing: np.ndarray          # unit quaternion, camera frame
    rho: float                   # inverse depth [1/m]

    def copy(self) -> "FeatureState":
        return FeatureState(self.bearing.copy(), self.rho)


@dataclass
class CameraExtrinsics:
    """Body-to-camera rotation and the body-frame camera lever arm [m]."""
    r_cb: np.ndarray = field(default_factory=lambda: np.eye(3))
    lever_arm: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass
class CameraTwist:
    v_c: np.ndarray
    omega_c: np.ndarray


def camera_twist(s: NavState, omega: np.ndarray,
                 ext: CameraExtrinsics) -> CameraTwist:
    """Camera-frame velocity and rate from body velocity and body rate."""
    v_c = ext.r_cb @ (s.vel + geom.cross3(omega, ext.lever_arm))
    return CameraTwist(v_c, ext.r_cb @ omega)


def feature_derivative(f: FeatureState, tw: CameraTwist) -> tuple[np.ndarray, float]:
    """(bearing tangent rate [rad/s] as 2-vector, inverse-depth rate [1/(m s)])."""
    p = geom.bearing_dir(f.bearing)
    n = geom.projection_n(f.bearing)
    dbear = -n.T @ (tw.omega_c + f.rho * geom.cross3(p, tw.v_c))
    drho = f.rho ** 2 * (p @ tw.v_c)
    return dbear, drho


def feature_jacobians(f: FeatureState, tw: CameraTwist) -> dict[str, np.ndarray]:
    """Analytic blocks of the feature flow.

    Keys: 'dq_dq' (2x2), 'dq_drho' (2,), 'drho_dq' (2,), 'drho_drho' (scalar),
    'dq_dvc' (2x3), 'drho_dvc' (3,), 'dq_dwc' (2x3).
    """
    if f.rho <= RHO_FLOOR:
        raise ValueError(f"inverse depth {f.rho} at or below floor {RHO_FLOOR}")
    p = geom.bearing_dir(f.bearing)
    n = geom.projection_n(f.bearing)
    v, w = tw.v_c, tw.omega_c
    rho = f.rho
    pxv = geom.cross3(p, v)
    dq_dq = (-n.T @ geom.skew(w + rho * pxv) @ n
             - rho * n.T @ geom.skew(v) @ geom.skew(p) @ n)
    dq_drho = -n.T @ pxv
    drho_dq = -rho ** 2 * (v @ geom.skew(p) @ n)
    drho_drho = 2.0 * rho * (p @ v)
    dq_dvc = -rho * n.T @ geom.skew(p)
    drho_dvc = rho ** 2 * p
    dq_dwc = -n.T
    return {
        "dq_dq": dq_dq, "dq_drho": dq_drho,
        "drho_dq": drho_dq, "drho_drho": drho_drho,
        "dq_dvc": dq_dvc, "drho_dvc": drho_dvc, "dq_dwc": dq_dwc,
    }


def feature_rate_jacobian(f: FeatureState, ext: CameraExtrinsics) -> np.ndarray:
    """3x3 sensitivity of (dbearing, drho) to the body rate omega.

    Folds the twist chain: omega_C = R_CB omega and
    v_C = R_CB (v + omega x lever) so d v_C/d omega = -R_CB [lever x].
    """
    p = geom.bearing_dir(f.bearing)
    n = geom.projection_n(f.bearing)
    dvc_dw = -ext.r_cb @ geom.skew(ext.lever_arm)
    out = np.zeros((3, 3))
    out[0:2, :] = -n.T @ ext.r_cb - f.rho * n.T @ geom.skew(p) @ dvc_dw
    out[2, :] = f.rho ** 2 * p @ dvc_dw
    return out


def feature_param_jacobian(f: FeatureState, ext: CameraExtrinsics,
                           jw: np.ndarray) -> np.ndarray:
    """3x6 sensitivity of the feature flow to the gyro parameters.

    jw is the 3x6 corrected-rate parameter Jacobian (dynamics module).
    """
    return feature_rate_jacobian(f, ext) @ jw


def landmark_to_feature(landmark_world: np.ndarray, s: NavState,
                        ext: CameraExtrinsics,
                        min_depth: float = 1.0 / RHO_CEIL) -> FeatureState:
    """Exact feature state of a world point (simulator / oracle use)."""
    r_wb = geom.quat_to_rot(s.quat)
    cam_world = s.pos + r_wb @ ext.lever_arm
    d_cam = ext.r_cb @ (r_wb.T @ (landmark_world - cam_world))
    rng = np.sqrt(d_cam @ d_cam)
    if d_cam[0] <= 0.0:
        raise ValueError("landmark behind the camera")
    if rng < min_depth:
        raise ValueError(f"landmark range {rng} below minimum depth {min_depth}")
    return FeatureState(geom.bearing_from_dir(d_cam / rng), 1.0 / rng)


def feature_to_landmark(f: FeatureState, s: NavState,
                        ext: CameraExtrinsics) -> np.ndarray:
    """World point of a feature state (inverse of landmark_to_feature)."""
    r_wb = geom.quat_to_rot(s.quat)
    cam_world = s.pos + r_wb @ ext.lever_arm
    d_cam = geom.bearing_dir(f.bearing) / f.rho
    return cam_world + r_wb @ (ext.r_cb.T @ d_cam)


# --- batched versions used in the filter's inner loops ----------------------

def linearize_batch(qf: np.ndarray, rho: np.ndarray, v_c: np.ndarray,
                    omega_c: np.ndarray, r_cb: np.ndarray,
                    lever_arm: np.ndarray, jw: np.ndarray):
    """Fused per-feature blocks for the filter's prediction step.

    Returns (diag (..., n,3,3), vel coupling (..., n,3,3), parameter rows
    (..., n,3,6)), rows ordered [bearing tangent (2), rho].  By the frame
    identities of the module docstring every block is an elementwise
    combination of one product: the frame rows [p; n1; n2] against the
    columns [v_C, omega_C, R_CB, R_CB J_w, (d v_C/d omega) J_w].

    Leading axes stack IMU steps: qf (..., n, 4), rho (..., n), v_c and
    omega_c (..., 3), jw (..., 3, 6).  Each step is its own (3n, 3) @ (3, 17)
    product, so a step's blocks do not depend on how many are stacked.
    """
    lead, cnt = qf.shape[:-2], qf.shape[-2]
    rows = np.swapaxes(geom.quats_to_frames(qf), -1, -2).reshape(lead + (3 * cnt, 3))
    cols = np.empty(lead + (3, 17))
    cols[..., 0] = v_c
    cols[..., 1] = omega_c
    cols[..., 2:5] = r_cb
    cols[..., 5:11] = r_cb @ jw
    cols[..., 11:17] = -r_cb @ (geom.skew(lever_arm) @ jw)   # d v_C/d omega J_w
    g = (rows @ cols).reshape(lead + (cnt, 3, 17))   # [feature, p|n1|n2, column]
    rho2 = rho * rho
    rpv = rho * g[..., 0, 0]
    n1v = g[..., 1, 0]
    n2v = g[..., 2, 0]
    pw = g[..., 0, 1]

    diag = np.empty(lead + (cnt, 3, 3))
    diag[..., 0, 0] = rpv
    diag[..., 1, 1] = rpv
    diag[..., 2, 2] = 2.0 * rpv
    diag[..., 0, 1] = pw
    diag[..., 1, 0] = -pw
    diag[..., 0, 2] = n2v
    diag[..., 1, 2] = -n1v
    diag[..., 2, 0] = -rho2 * n2v
    diag[..., 2, 1] = rho2 * n1v

    # rows [n2, n1, p] scaled by [rho, -rho, rho^2]: the coupling block and
    # the lever-arm half of the parameter rows
    row_scale = np.empty(lead + (cnt, 3, 1))
    row_scale[..., 0, 0] = rho
    row_scale[..., 1, 0] = -rho
    row_scale[..., 2, 0] = rho2
    scaled = g[..., ::-1, 2:] * row_scale
    coupling = scaled[..., 0:3]
    psi = scaled[..., 9:15]
    psi[..., 0:2, :] -= g[..., 1:3, 5:11]
    return diag, coupling, psi
