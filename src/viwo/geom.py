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

Each map is written once, as a row kernel over ``(..., k)`` arrays, except
four scalar maps kept beside their row twins for a measured reason:

* ``bearing_from_dir`` is a single-item hot path, where a one-row call of
  the row kernel costs 2-4x as much: the image front end calls it once per
  pixel it turns into a bearing (``sensors.unproject``).
* ``so3_exp``, ``quat_mul`` and ``quat_normalize`` take their norms with
  ``@``, which differs in the last bit from the row kernels' elementwise
  sums (in 2007 of 20 000 random rows for ``so3_exp``, 1127 of 10 000 for
  ``quat_mul``); the filter's outputs depend on those bits.
"""

import numpy as np

_SMALL_ANGLE = 1e-8

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
_ANTIPODAL_BEARING = np.array([0.0, 0.0, 0.0, 1.0])  # pi about e3: e1 -> -e1


def _mul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, renormalized."""
    return quat_normalize(_mul_raw(a, b))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(q @ q)


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

def bearing_from_dir(p: np.ndarray) -> np.ndarray:
    """A bearing quaternion whose direction is p (gauge: shortest arc from e1)."""
    p = p / np.sqrt(p @ p)
    c = p[0]  # e1 . p
    axis = np.array([0.0, -p[2], p[1]])  # e1 x p
    s = np.sqrt(axis @ axis)
    if s < 1e-12:
        if c > 0.0:
            return IDENTITY_QUAT.copy()
        return _ANTIPODAL_BEARING.copy()
    angle = np.arctan2(s, c)
    return so3_exp(axis * (angle / s))


def matmul_dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i @ b_i of (..., k) arrays as stacked matmuls: the same
    bits as the 1-D ``@`` (and ``np.linalg.norm``) of the scalar maps, which
    an elementwise sum does not reproduce."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def bearing_from_dir_rows(p: np.ndarray) -> np.ndarray:
    """bearing_from_dir (with its so3_exp) of each row of an (m, 3) array
    -> (m, 4), bit for bit.  The scalar stays for one direction at a time,
    where it is cheaper than a one-row call."""
    p = p / np.sqrt(matmul_dot_rows(p, p))[:, None]
    c = p[:, 0]
    axis = np.zeros_like(p)
    axis[:, 1] = -p[:, 2]
    axis[:, 2] = p[:, 1]
    s = np.sqrt(matmul_dot_rows(axis, axis))
    on_axis = s < 1e-12
    theta = axis * (np.arctan2(s, c) / np.where(on_axis, 1.0, s))[:, None]
    angle = np.sqrt(matmul_dot_rows(theta, theta))
    small = angle < _SMALL_ANGLE
    half = 0.5 * angle
    out = np.empty((p.shape[0], 4))
    out[:, 0] = np.cos(half)
    out[:, 1:4] = theta * (np.sin(half) / np.where(small, 1.0, angle))[:, None]
    if small.any():
        q = np.concatenate((np.ones((small.sum(), 1)), 0.5 * theta[small]), axis=1)
        out[small] = q / np.sqrt(matmul_dot_rows(q, q))[:, None]
    out[on_axis] = np.where((c[on_axis] > 0.0)[:, None], IDENTITY_QUAT, _ANTIPODAL_BEARING)
    return out


def s2_boxplus(q_f: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Retract a 2-vector tangent step onto the bearing (one-row
    s2_boxplus_rows)."""
    return s2_boxplus_rows(q_f[None], np.asarray(delta, dtype=float)[None])[0]


def s2_boxminus(q_a: np.ndarray, q_b: np.ndarray) -> np.ndarray:
    """Tangent difference delta with s2_boxplus(q_b, delta) pointing like q_a
    (one-row s2_boxminus_rows)."""
    return s2_boxminus_rows(q_a[None], q_b[None])[0]


# --- row kernels: one item per row of (..., k) arrays -------------------------
#
# Every kernel below is elementwise arithmetic, with no BLAS product and no
# reduction kernel, so the bits of a row never depend on how many rows are
# stacked with it.  The filter relies on this: a frame update over m bearings
# and the scalar S^2 maps above give identical results row by row.

# R(q) entry by entry, row-major: s * (q_i 2q_j + q_k (+-2q_l)) + delta with
# w, x, y, z = 0..3; e.g. R_01 = x 2y - w 2z and R_00 = 1 - (y 2y + z 2z)
_FRAME_LEFT = np.array([[2, 1, 1, 1, 1, 2, 1, 2, 1],
                        [3, 0, 0, 0, 3, 0, 0, 0, 2]])
_FRAME_RIGHT = np.array([[2, 2, 3, 2, 1, 3, 3, 3, 1],
                         [3, 3, 2, 3, 3, 1, 2, 1, 2]])
_FRAME_SCALE = 2.0 * np.array([[1.0] * 9, [1, -1, 1, 1, 1, -1, -1, 1, 1]])
_FRAME_SIGN = np.array([-1.0, 1, 1, 1, -1, 1, 1, 1, -1])
_FRAME_TABLE = (_FRAME_LEFT, _FRAME_RIGHT, _FRAME_SCALE, _FRAME_SIGN, np.eye(3).reshape(9))
# column 0 of R (entries 0, 3, 6): the viewing direction.  DIR_TABLE,
# CROSS_A/B and QUAT_PERM/SIGN are public: filter.propagate_joint runs its
# per-step feature recurrence on them without the kernels' call overhead.
DIR_TABLE = tuple(np.ascontiguousarray(t[..., [0, 3, 6]]) for t in _FRAME_TABLE)


def _frame_entries(qf: np.ndarray, table) -> np.ndarray:
    left, right, scale, sign, eye = table
    terms = qf.take(left, axis=-1) * (qf.take(right, axis=-1) * scale)
    return (terms[..., 0, :] + terms[..., 1, :]) * sign + eye


def quats_to_frames(qf: np.ndarray) -> np.ndarray:
    """Rotation matrices of (..., 4) quaternions -> (..., 3, 3).

    For a bearing, column 0 is the viewing direction and columns 1:3 the
    tangent basis N.
    """
    return _frame_entries(qf, _FRAME_TABLE).reshape(qf.shape[:-1] + (3, 3))


def quats_to_dirs(qf: np.ndarray) -> np.ndarray:
    """Bearing directions p = R(q) e1 of (..., 4) quaternions -> (..., 3)."""
    return _frame_entries(qf, DIR_TABLE)


def quats_to_tangents(qf: np.ndarray) -> np.ndarray:
    """Tangent bases N of (..., 4) quaternions -> (..., 3, 2)."""
    return quats_to_frames(qf)[..., 1:3]


CROSS_A = np.array([1, 2, 0])
CROSS_B = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (..., 3) arrays (either may be one 3-vector)."""
    return (a.take(CROSS_A, axis=-1) * b.take(CROSS_B, axis=-1)
            - a.take(CROSS_B, axis=-1) * b.take(CROSS_A, axis=-1))


def skew_rows(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of (..., 3) vectors -> (..., 3, 3):
    skew_rows(v) @ u == v x u."""
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _dot3_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a * b
    return prod[..., 0] + prod[..., 1] + prod[..., 2]


# a * b = ((a_w b + a_x (X b)) + a_y (Y b)) + a_z (Z b), with X, Y, Z the
# signed permutations of the Hamilton product
QUAT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
QUAT_SIGN = np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]])


def quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products a_i * b_i of (..., 4) arrays, not
    renormalized (for pure-vector a_i, 2 qdot = (0, omega) * q)."""
    terms = a[..., :, None] * (b.take(QUAT_PERM, axis=-1) * QUAT_SIGN)
    return ((terms[..., 0, :] + terms[..., 1, :]) + terms[..., 2, :]) + terms[..., 3, :]


def _unit_rows(q: np.ndarray) -> np.ndarray:
    sq = q * q
    return q / np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3])[..., None]


def quat_mul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products of (..., 4) arrays, renormalized."""
    return _unit_rows(quat_mul_rows(a, b))


def so3_exp_rows(theta: np.ndarray) -> np.ndarray:
    """so3_exp of each row of an (m, 3) array -> (m, 4), same branches."""
    angle = np.sqrt(_dot3_rows(theta, theta))
    small = angle < _SMALL_ANGLE
    half = 0.5 * angle
    out = np.empty((theta.shape[0], 4))
    out[:, 0] = np.where(small, 1.0, np.cos(half))
    out[:, 1:4] = theta * np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))[:, None]
    if small.any():
        # first-order map, exact enough below the branch point
        out[small] = _unit_rows(out[small])
    return out


def so3_log(q: np.ndarray) -> np.ndarray:
    """Rotation vectors of (..., 4) unit quaternions -> (..., 3), |theta| <= pi
    (shortest arc)."""
    q = np.where(q[..., :1] < 0.0, -q, q)
    vec = q[..., 1:]
    n = np.sqrt(_dot3_rows(vec, vec))
    angle = 2.0 * np.arctan2(n, q[..., 0])
    small = n < 1e-12   # 2 atan2(n, w) ~ 2 n / w: first order
    scale = np.where(small, 2.0 / np.where(small, q[..., 0], 1.0),
                     angle / np.maximum(n, 1e-300))
    return vec * scale[..., None]


def s2_boxplus_rows(qf: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Retract each row of (m, 2) tangent steps onto the (m, 4) bearings:
    q_f <- exp(N(q_f) delta) * q_f."""
    frames = quats_to_frames(qf)
    theta = frames[:, :, 1] * delta[:, 0:1] + frames[:, :, 2] * delta[:, 1:2]
    return quat_mul_batch(so3_exp_rows(theta), qf)


def s2_boxminus_rows(q_a: np.ndarray, q_b: np.ndarray) -> np.ndarray:
    """Tangent differences (m, 2) with s2_boxplus_rows(q_b, delta) pointing
    like q_a, row by row.

    Only the directions enter; the gauge rotation about the bearing axis is
    quotiented out.  Raises for antipodal directions (undefined tangent).
    """
    pa = quats_to_dirs(q_a)
    frames_b = quats_to_frames(q_b)
    pb = frames_b[:, :, 0]
    cross = cross_rows(pb, pa)
    s = np.sqrt(_dot3_rows(cross, cross))
    c = _dot3_rows(pb, pa)
    if (c < -1.0 + 1e-9).any():
        raise ValueError("antipodal bearings have no unique tangent difference")
    small = s < 1e-12   # angle ~ sin(angle): first order
    scale = np.where(small, 1.0, np.arctan2(s, c) / np.where(small, 1.0, s))
    theta = cross * scale[:, None]
    out = np.empty((q_a.shape[0], 2))
    out[:, 0] = _dot3_rows(frames_b[:, :, 1], theta)
    out[:, 1] = _dot3_rows(frames_b[:, :, 2], theta)
    return out
