"""Quaternion, rotation-matrix and unit-sphere algebra.

Conventions used across the package (stated once, asserted in tests):

* Quaternions are Hamilton, stored as ``[w, x, y, z]`` numpy arrays.
* ``R(q_B)`` maps body coordinates to world coordinates (passive attitude).
* Attitude error/retraction is applied on the left (world side):
  ``q <- exp(delta_theta) * q``.
* A bearing is a unit quaternion ``q_f`` whose rotation maps ``e1`` onto the
  viewing direction: ``p = R(q_f) @ e1``.  Its 2-dof tangent uses the basis
  ``N(q_f) = R(q_f) @ [e2 e3]`` and the retraction
  ``q_f <- exp(N @ delta) * q_f``.
"""

import numpy as np

QUAT_TOL = 1e-9
_SMALL_ANGLE = 1e-8

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    q = np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])
    return q / np.sqrt(q @ q)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(q @ q)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (body-to-world for attitudes)."""
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate v by q via the quaternion sandwich (used as the matrix oracle)."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    out = _mul_raw(_mul_raw(q, qv), quat_conj(q))
    return out[1:]


def _mul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def skew(v: np.ndarray) -> np.ndarray:
    """Matrix form of the cross product: skew(v) @ u == v x u."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (np.cross has high scalar overhead)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def so3_exp(theta: np.ndarray) -> np.ndarray:
    """Rotation-vector exponential onto a unit quaternion."""
    angle = np.sqrt(theta @ theta)
    if angle < _SMALL_ANGLE:
        # first-order map, exact enough below the branch point
        q = np.array([1.0, 0.5 * theta[0], 0.5 * theta[1], 0.5 * theta[2]])
        return q / np.sqrt(q @ q)
    half = 0.5 * angle
    s = np.sin(half) / angle
    return np.array([np.cos(half), theta[0] * s, theta[1] * s, theta[2] * s])


def so3_log(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion, |theta| < pi (shortest arc)."""
    if q[0] < 0.0:
        q = -q
    vec = q[1:]
    n = np.sqrt(vec @ vec)
    if n < _SMALL_ANGLE:
        return 2.0 * vec / q[0]
    angle = 2.0 * np.arctan2(n, q[0])
    return vec * (angle / n)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Quaternion of a rotation matrix (Shepperd's method, w >= 0)."""
    t = np.trace(r)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s,
                      0.25 * s,
                      (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s,
                      (r[0, 1] + r[1, 0]) / s,
                      0.25 * s,
                      (r[1, 2] + r[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s,
                      (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.sqrt(q @ q)


# --- S^2 bearings -----------------------------------------------------------

def bearing_dir(q_f: np.ndarray) -> np.ndarray:
    """Viewing direction p = R(q_f) @ e1 (unit)."""
    w, x, y, z = q_f
    return np.array([
        1.0 - 2.0 * (y * y + z * z),
        2.0 * (x * y + w * z),
        2.0 * (x * z - w * y),
    ])


def projection_n(q_f: np.ndarray) -> np.ndarray:
    """3x2 tangent basis orthogonal to the bearing: columns 2,3 of R(q_f)."""
    w, x, y, z = q_f
    return np.array([
        [2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def bearing_from_dir(p: np.ndarray) -> np.ndarray:
    """A bearing quaternion whose direction is p (gauge: shortest arc from e1)."""
    p = p / np.sqrt(p @ p)
    c = p[0]  # e1 . p
    axis = np.array([0.0, -p[2], p[1]])  # e1 x p
    s = np.sqrt(axis @ axis)
    if s < 1e-12:
        if c > 0.0:
            return IDENTITY_QUAT.copy()
        # antipodal: rotate pi about e3
        return np.array([0.0, 0.0, 0.0, 1.0])
    angle = np.arctan2(s, c)
    return so3_exp(axis * (angle / s))


def s2_boxplus(q_f: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Retract a 2-vector tangent step onto the bearing."""
    n = projection_n(q_f)
    return quat_mul(so3_exp(n @ delta), q_f)


def s2_boxminus(q_a: np.ndarray, q_b: np.ndarray) -> np.ndarray:
    """Tangent difference delta with s2_boxplus(q_b, delta) pointing like q_a.

    Only the directions enter; the gauge rotation about the bearing axis is
    quotiented out.  Raises for antipodal directions (undefined tangent).
    """
    pa = bearing_dir(q_a)
    pb = bearing_dir(q_b)
    cross = cross3(pb, pa)
    s = np.sqrt(cross @ cross)
    c = pb @ pa
    if c < -1.0 + 1e-9:
        raise ValueError("antipodal bearings have no unique tangent difference")
    if s < 1e-12:
        theta = cross  # angle ~ sin(angle); first order
    else:
        theta = cross * (np.arctan2(s, c) / s)
    return projection_n(q_b).T @ theta


# --- vectorized helpers (used by the filter's batched feature math) ---------

def _frame_coefficients() -> np.ndarray:
    """(16, 9) map from the products q_i q_j to R(q) - I, both flattened."""
    w, x, y, z = range(4)
    terms = {
        (0, 0): {(y, y): -2, (z, z): -2},
        (0, 1): {(x, y): 2, (w, z): -2},
        (0, 2): {(x, z): 2, (w, y): 2},
        (1, 0): {(x, y): 2, (w, z): 2},
        (1, 1): {(x, x): -2, (z, z): -2},
        (1, 2): {(y, z): 2, (w, x): -2},
        (2, 0): {(x, z): 2, (w, y): -2},
        (2, 1): {(y, z): 2, (w, x): 2},
        (2, 2): {(x, x): -2, (y, y): -2},
    }
    coef = np.zeros((4, 4, 3, 3))
    for (r, c), entry in terms.items():
        for (i, j), val in entry.items():
            coef[i, j, r, c] = val
    return coef.reshape(16, 9)


_FRAME_COEF = _frame_coefficients()
_EYE_FLAT = np.eye(3).reshape(9)


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products a_i b_j of (n,k) and (n,m) (or (m,)) -> (n, k*m).

    Every bilinear row-wise map below (frames, cross products, quaternion
    products) is this array times a constant coefficient matrix: one product
    instead of a chain of per-component numpy calls."""
    out = a[:, :, None] * b[..., None, :]
    return out.reshape(a.shape[0], a.shape[1] * b.shape[-1])


def quats_to_dirs(qf: np.ndarray) -> np.ndarray:
    """Bearing directions for an (n,4) quaternion array -> (n,3)."""
    return _outer_rows(qf, qf) @ _FRAME_COEF[:, 0::3] + _EYE_FLAT[0::3]


_CROSS_COEF = np.array([cross3(a, b) for a in np.eye(3) for b in np.eye(3)])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product (n,3) x (n,3) or (n,3) x (3,) -> (n,3)."""
    return _outer_rows(a, b) @ _CROSS_COEF


def quats_to_tangents(qf: np.ndarray) -> np.ndarray:
    """Tangent bases for an (n,4) quaternion array -> (n,3,2)."""
    return quats_to_frames(qf)[:, :, 1:3]


def quats_to_frames(qf: np.ndarray) -> np.ndarray:
    """Full bearing frames for (n,4) quaternions -> rotation matrices (n,3,3).

    Column 0 is the viewing direction, columns 1:3 the tangent basis.
    """
    return (_outer_rows(qf, qf) @ _FRAME_COEF + _EYE_FLAT).reshape(-1, 3, 3)


_QUAT_PRODUCT = np.array([_mul_raw(a, b) for a in np.eye(4) for b in np.eye(4)])


def quat_mul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products of (n,4) arrays, renormalized."""
    out = _outer_rows(a, b) @ _QUAT_PRODUCT
    return out / np.sqrt((out * out).sum(axis=1))[:, None]


def quat_mul_left_vec(omega: np.ndarray, qf: np.ndarray) -> np.ndarray:
    """Batched pure-vector left product (0, omega_i) * q_i -> (n,4).

    This is the raw product (no normalization); it is the quaternion rate
    kernel: qdot = 0.5 * (0, omega) * q for world/left rates.
    """
    return _outer_rows(omega, qf) @ _QUAT_PRODUCT[4:]
