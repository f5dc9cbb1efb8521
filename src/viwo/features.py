"""Per-feature bearing/inverse-depth state, its camera-twist dynamics and
their batched linearization (linearize_batch).

A feature j is (q_f, rho): a bearing quaternion in the camera frame and the
inverse of the range along it.  With p = R(q_f) e1 and tangent basis N, the
dynamics under a camera twist (v_C, omega_C) are

    bearing tangent rate: ddelta = -N^T (omega_C + rho * p x v_C)
    inverse-depth rate:   drho   = rho^2 * p . v_C

with v_C = R_CB (v + omega x lever) and omega_C = R_CB omega from the body
velocity and the corrected body rate.  linearize_batch differentiates these
two equations with respect to the feature state, the body velocity and the
gyro parameters.  The filter does not integrate them: a feature is a static
point, so filter.propagate_joint moves it by the exact rigid transform
between two camera poses, which is their flow.  The package treats finite
differences as the authority: the tests difference the two equations, and
the jacobian audit differences their RK4 flow.  Division by rho never
occurs, but a floor is enforced because the inverse-depth state itself
degenerates at rho -> 0.

The bearing frame R(q_f) = [p n1 n2] is a right-handed rotation, so with
N = [n1 n2] and J = [[0, -1], [1, 0]]:

    N^T [p]x       = [-n2^T; n1^T]
    N^T [a]x N     = (a . p) J          for any 3-vector a
    N^T [v]x [p]x N = -(v . p) I_2

which reduce every block of linearize_batch to dot products of the
frame axes with v_C, omega_C and the columns of the twist chain.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geom

RHO_FLOOR = 1e-4
RHO_CEIL = 10.0


@dataclass
class CameraExtrinsics:
    """Body-to-camera rotation and the body-frame camera lever arm [m]."""
    r_cb: np.ndarray = field(default_factory=lambda: np.eye(3))
    lever_arm: np.ndarray = field(default_factory=lambda: np.zeros(3))


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
    cols[..., 11:17] = -r_cb @ (geom.skew_rows(lever_arm) @ jw)   # d v_C/d omega J_w
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
