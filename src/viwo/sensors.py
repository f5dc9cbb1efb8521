"""Camera and vehicle measurement models.

Camera frame convention matches the body frame style (x forward along the
optical axis, y left, z up).  Normalized image coordinates are

    r_x = -p_y / p_x,   r_y = -p_z / p_x

so u grows to the right and v grows downward in the image.  The forward
distortion is radial (two coefficients):

    [u, v] = [cx + fx * rx * s,  cy + fy * ry * s],  s = 1 + k1 r^2 + k2 r^4

The vehicle velocity measurement stacks wheel-encoder longitudinal speed, a
model-based lateral velocity and a zero vertical pseudo-measurement.  Both
the measured vector and the predicted-measurement function are defined here;
the measurement Jacobian is the derivative of the latter, so residual and
linearization cannot get out of sync.
"""

from dataclasses import dataclass

import numpy as np

from . import geom
from .image import Image, PatchLevel, intensity_residual


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    k1: float
    k2: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")
        # the distorted radius r + k1 r^3 + k2 r^5 must keep increasing until
        # it reaches the farthest image corner, or unproject has no inverse
        # there; its slope 1 + 3 k1 x + 5 k2 x^2 (x = r^2) first vanishes at
        # the least positive root
        corner = max(np.hypot((u - self.cx) / self.fx, (v - self.cy) / self.fy)
                     for u in (0, self.width - 1) for v in (0, self.height - 1))
        roots = np.roots([5.0 * self.k2, 3.0 * self.k1, 1.0])
        folds = roots[(roots.imag == 0) & (roots.real > 0)].real
        if len(folds):
            r = np.sqrt(folds.min())
            peak = r + self.k1 * r ** 3 + self.k2 * r ** 5
            if peak <= corner:
                raise ValueError(
                    f"radial distortion k1 {self.k1}, k2 {self.k2} folds inside the "
                    f"image: the distorted radius peaks at {peak:.3f}, short of the "
                    f"farthest corner's {corner:.3f}")


# the camera of every simulated dataset and of the Jacobian audit
DEFAULT_INTRINSICS = CameraIntrinsics(500.0, 500.0, 320.0, 240.0,
                                      -0.05, 0.01, 640, 480)


class ProjectionError(ValueError):
    pass


def distort(rx, ry, intr):
    """Radially distorted normalized coordinates (dx, dy), the factor s and
    r^2; elementwise on arrays."""
    r2 = rx * rx + ry * ry
    s = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    return rx * s, ry * s, s, r2


def pixel(px, py, pz, intr):
    """Pixel position (u, v) of camera-frame directions [px, py, pz] in front
    of the camera, and the chain it came from (the direction, the
    normalized coordinates, the distortion factor and r^2); elementwise, so
    a row of arrays gets the bits of the direction alone."""
    rx = -py / px
    ry = -pz / px
    dx, dy, s, r2 = distort(rx, ry, intr)
    return (intr.cx + intr.fx * dx, intr.cy + intr.fy * dy), (px, py, pz, rx, ry, s, r2)


def _in_image(u, v, intr):
    return (0.0 <= u) & (u <= intr.width - 1) & (0.0 <= v) & (v <= intr.height - 1)


def _tangent_jacobian(frame, chain, intr):
    """d[u,v]/d(bearing tangent) of a bearing with frame [p N] and the
    chain that pixel gives for p."""
    px, py, pz, rx, ry, s, r2 = chain
    ds_dr2 = intr.k1 + 2.0 * intr.k2 * r2
    j_dist = np.array([
        [s + 2.0 * rx * rx * ds_dr2, 2.0 * rx * ry * ds_dr2],
        [2.0 * rx * ry * ds_dr2, s + 2.0 * ry * ry * ds_dr2],
    ])
    j_pix = np.array([[intr.fx, 0.0], [0.0, intr.fy]]) @ j_dist
    px2, inv = px ** 2, -1.0 / px
    j_norm = np.array([[py / px2, inv, 0.0], [pz / px2, 0.0, inv]])
    dp_dtan = -geom.skew_rows(frame[:, 0]) @ frame[:, 1:3]
    return j_pix @ j_norm @ dp_dtan


def project(bearing: np.ndarray, intr: CameraIntrinsics,
            require_in_image: bool = True):
    """Pixel position of a bearing plus the 2x2 bearing-tangent Jacobian.

    Returns ((u, v), J) with J = d[u,v]/d(bearing tangent).  Raises
    ProjectionError behind the camera or (optionally) outside the image.
    """
    frame = geom.quats_to_frames(bearing)   # [p N]
    px, py, pz = frame[:, 0]
    if px <= 1e-9:
        raise ProjectionError("bearing behind the camera")
    (u, v), chain = pixel(px, py, pz, intr)
    if require_in_image and not _in_image(u, v, intr):
        raise ProjectionError(f"projection ({u:.1f}, {v:.1f}) outside image")
    return (u, v), _tangent_jacobian(frame, chain, intr)


def project_rows(bearings: np.ndarray, intr: CameraIntrinsics):
    """Pixel positions (m, 2) of (m, 4) bearings and the mask (m,) of those
    in front of the camera and inside the image: project's arithmetic row
    by row, without the Jacobian."""
    p = geom.quats_to_dirs(bearings)
    with np.errstate(all="ignore"):
        (u, v), _ = pixel(p[:, 0], p[:, 1], p[:, 2], intr)
    return np.column_stack((u, v)), (p[:, 0] > 1e-9) & _in_image(u, v, intr)


def unproject(u: float, v: float, intr: CameraIntrinsics) -> np.ndarray:
    """Bearing quaternion of a pixel: at most 20 Newton steps of the
    distortion inversion, to a residual of 1e-10 on the normalized plane."""
    if not (0.0 <= u <= intr.width - 1 and 0.0 <= v <= intr.height - 1):
        raise ProjectionError("pixel outside image")
    dx = (u - intr.cx) / intr.fx
    dy = (v - intr.cy) / intr.fy
    rx, ry = dx, dy
    for _ in range(20):
        ex, ey, s, r2 = distort(rx, ry, intr)
        ex -= dx
        ey -= dy
        if ex * ex + ey * ey < 1e-10 * 1e-10:
            break
        # Newton step with the exact forward-distortion Jacobian
        ds = intr.k1 + 2.0 * intr.k2 * r2
        j00 = s + 2.0 * rx * rx * ds
        j01 = 2.0 * rx * ry * ds
        j11 = s + 2.0 * ry * ry * ds
        det = j00 * j11 - j01 * j01
        if abs(det) < 1e-12:
            raise ProjectionError("distortion inversion singular")
        rx -= (j11 * ex - j01 * ey) / det
        ry -= (j00 * ey - j01 * ex) / det
    else:
        raise ProjectionError("distortion inversion did not converge")
    p = np.array([1.0, -rx, -ry])
    return geom.bearing_from_dir(p)


def camera_measurement_jacobian(bearing: np.ndarray, patch: list[PatchLevel],
                                pyramid: list[Image], intr: CameraIntrinsics):
    """Intensity residual rows of every pyramid level, stacked, and their
    bearing-tangent Jacobian for one feature.

    Chain: d(residual)/d[u,v] from patch gradients at the bearing's pixel
    (project, the pixel project_rows gives), then the projection chain
    d[u,v]/d(bearing tangent), once for all levels.  The inverse-depth
    column of the measurement is structurally zero and is not represented.
    Returns (residual, H) or None when the feature is not measurable this
    frame.
    """
    try:
        at, j_proj = project(bearing, intr)
    except ProjectionError:
        return None
    res_rows = []
    for level in range(len(patch)):
        res = intensity_residual(patch, pyramid, at, level)
        if res is None:
            return None
        res_rows.append(res)
    return np.concatenate(res_rows), np.vstack([lv.grad @ j_proj for lv in patch])


# --- vehicle velocity --------------------------------------------------------

@dataclass
class VehicleVelocityMeasurement:
    v_x_m: float      # wheel-derived longitudinal speed [m/s]
    a_y_m: float      # lateral accelerometer channel [m/s^2]


def vehicle_velocity_measurement(v_x_m: float, a_y_m: float,
                                 rho_sg: float) -> np.ndarray:
    """Measured velocity vector: wheel speed, model lateral velocity, zero up."""
    return np.array([v_x_m, -rho_sg * a_y_m * v_x_m, 0.0])


def vehicle_predicted_measurement(vel: np.ndarray, v_x_m: float, a_y_m: float,
                                  rho_sg: float) -> np.ndarray:
    """Predicted measurement as a function of the body velocity state.

    The lateral component is anchored at the wheel measurement so the
    residual reduces to -(v_y + rho_sg a_y v_x), the single-track relation.
    """
    c = rho_sg * a_y_m
    return np.array([vel[0], vel[1] + c * (vel[0] - v_x_m), vel[2]])


def vehicle_measurement_jacobian(rho_sg: float, a_y_m: float) -> np.ndarray:
    """3x3 derivative of the predicted measurement w.r.t. body velocity."""
    h = np.eye(3)
    h[1, 0] = rho_sg * a_y_m
    return h
