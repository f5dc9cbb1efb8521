import numpy as np
import pytest

from viwo import geom


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rotate(q, v):
    """Rotate v by q via the quaternion sandwich q (0, v) q*: the oracle of
    the rotation matrix."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    return geom._mul_raw(geom._mul_raw(q, qv), quat_conj(q))[1:]


def random_quat(rng):
    return geom.so3_exp(rng.uniform(-np.pi, np.pi, 3) * rng.uniform(0, 1))


def test_quat_mul_identity_and_inverse(rng):
    q = random_quat(rng)
    assert np.allclose(geom.quat_mul(geom.IDENTITY_QUAT, q), q, atol=1e-12)
    prod = geom.quat_mul(q, quat_conj(q))
    assert np.allclose(np.abs(prod), [1, 0, 0, 0], atol=1e-12)


def test_quat_mul_matches_matrix_product(rng):
    for _ in range(200):
        a, b = random_quat(rng), random_quat(rng)
        left = geom.quats_to_frames(geom.quat_mul(a, b))
        right = geom.quats_to_frames(a) @ geom.quats_to_frames(b)
        assert np.allclose(left, right, atol=1e-12)


def test_quats_to_frames_identity_and_yaw():
    assert np.allclose(geom.quats_to_frames(geom.IDENTITY_QUAT), np.eye(3))
    yaw90 = geom.so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(geom.quats_to_frames(yaw90) @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_quats_to_frames_orthonormal_and_sandwich(rng):
    for _ in range(200):
        q = random_quat(rng)
        r = geom.quats_to_frames(q)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-9)
        v = rng.normal(size=3)
        assert np.allclose(r @ v, rotate(q, v), atol=1e-9)


def test_double_cover(rng):
    q = random_quat(rng)
    assert np.allclose(geom.quats_to_frames(q), geom.quats_to_frames(-q), atol=1e-12)


def test_skew():
    assert np.allclose(geom.skew_rows(np.zeros(3)), np.zeros((3, 3)))
    s = geom.skew_rows(np.array([1.0, 0.0, 0.0]))
    assert s[2, 1] == 1.0 and s[1, 2] == -1.0
    rng = np.random.default_rng(0)
    v, u = rng.normal(size=(100, 3)), rng.normal(size=(100, 3))
    sk = geom.skew_rows(v)
    assert np.allclose((sk @ u[:, :, None])[:, :, 0], np.cross(v, u), atol=1e-12)
    assert np.allclose(np.swapaxes(sk, 1, 2), -sk)


def test_so3_exp_log_special_cases():
    assert np.allclose(geom.so3_exp(np.zeros(3)), [1, 0, 0, 0])
    yaw = geom.so3_exp(np.array([0, 0, np.pi / 2]))
    assert np.allclose(yaw, [np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)], atol=1e-12)
    assert np.allclose(geom.so3_log(geom.IDENTITY_QUAT), np.zeros(3))
    # w < 0: the other cover of the same rotation
    assert np.allclose(geom.so3_log(-yaw), [0, 0, np.pi / 2], atol=1e-12)


def test_so3_round_trip_sweep(rng):
    # spec invariant: 1e4 samples within 1e-8 (|theta| < pi for uniqueness)
    axes = rng.normal(size=(10_000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    thetas = axes * rng.uniform(0, np.pi * 0.98, (10_000, 1))
    quats = np.array([geom.so3_exp(th) for th in thetas])
    assert np.max(np.abs(geom.so3_log(quats) - thetas)) < 1e-8
    # either cover, one row at a time or stacked
    assert np.max(np.abs(geom.so3_log(-quats) - thetas)) < 1e-8
    assert np.array_equal(geom.so3_log(quats[7]), geom.so3_log(quats)[7])


def test_so3_small_angle_round_trip(rng):
    for _ in range(200):
        th = rng.normal(size=3) * 1e-9
        assert np.allclose(geom.so3_log(geom.so3_exp(th)), th, atol=1e-10)
    # below so3_log's first-order branch point (|vec| < 1e-12)
    tiny = rng.normal(size=(200, 3)) * 1e-13
    quats = np.array([geom.so3_exp(th) for th in tiny])
    assert np.allclose(geom.so3_log(quats), tiny, rtol=1e-9, atol=0.0)


def test_rot_to_quat_round_trip(rng):
    for _ in range(200):
        q = random_quat(rng)
        r = geom.quats_to_frames(q)
        assert np.allclose(geom.quats_to_frames(geom.rot_to_quat(r)), r, atol=1e-9)


def test_projection_n_basis_case():
    n = geom.quats_to_tangents(geom.IDENTITY_QUAT)
    assert np.allclose(n[:, 0], [0, 1, 0])
    assert np.allclose(n[:, 1], [0, 0, 1])


def test_projection_n_orthogonality_sweep(rng):
    # spec invariant: N^T p = 0 and N^T N = I over 1e4 random bearings
    qs = np.array([random_quat(rng) for _ in range(10_000)])
    p = geom.quats_to_dirs(qs)
    n = geom.quats_to_tangents(qs)
    assert np.all(np.abs(np.einsum("kxt,kx->kt", n, p)) < 1e-9)
    assert np.allclose(np.swapaxes(n, 1, 2) @ n, np.eye(2), atol=1e-9)
    assert np.all(np.abs(np.linalg.norm(p, axis=1) - 1.0) < 1e-9)


def test_s2_boxplus_zero_and_round_trip(rng):
    q = random_quat(rng)
    assert np.allclose(np.abs(geom.s2_boxplus(q, np.zeros(2))), np.abs(q), atol=1e-12)
    assert np.allclose(geom.s2_boxminus(q, q), np.zeros(2), atol=1e-12)
    for _ in range(500):
        qb = random_quat(rng)
        delta = rng.uniform(-1, 1, 2) * rng.uniform(0, 0.9 * np.pi / np.sqrt(2))
        rec = geom.s2_boxminus(geom.s2_boxplus(qb, delta), qb)
        assert np.allclose(rec, delta, atol=1e-8)


def test_s2_boxminus_antipodal_raises():
    q = geom.IDENTITY_QUAT
    q_anti = geom.bearing_from_dir(np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        geom.s2_boxminus(q_anti, q)


@pytest.mark.parametrize("rows", [1, 2, 14])
def test_s2_row_kernels_match_scalar(rng, rows):
    # row k of a stacked call equals the scalar call, bit for bit; row 0
    # takes the small-angle branches (tiny step, identical bearings)
    qa = np.array([random_quat(rng) for _ in range(rows)])
    qb = np.array([random_quat(rng) for _ in range(rows)])
    delta = rng.uniform(-0.5, 0.5, (rows, 2))
    delta[0] = [3e-9, -4e-9]
    qa[0] = qb[0]
    plus = geom.s2_boxplus_rows(qb, delta)
    minus = geom.s2_boxminus_rows(qa, qb)
    for k in range(rows):
        assert np.array_equal(plus[k], geom.s2_boxplus(qb[k], delta[k]))
        assert np.array_equal(minus[k], geom.s2_boxminus(qa[k], qb[k]))
    assert np.array_equal(minus[0], np.zeros(2))
    assert np.allclose(geom.s2_boxminus(plus[0], qb[0]), delta[0], rtol=1e-6, atol=0.0)


def test_s2_boxminus_rows_antipodal_raises(rng):
    q_anti = geom.bearing_from_dir(np.array([-1.0, 0.0, 0.0]))
    q = random_quat(rng)
    with pytest.raises(ValueError):
        geom.s2_boxminus_rows(np.array([q, q_anti]), np.array([q, geom.IDENTITY_QUAT]))


def test_bearing_from_dir(rng):
    for _ in range(200):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        assert np.allclose(geom.quats_to_dirs(geom.bearing_from_dir(d)), d, atol=1e-9)


def test_bearing_from_dir_rows_matches_scalar_bits(rng):
    # the dataset loader lifts bearings.csv with the row kernel, everything
    # else one direction at a time with the scalar: both give the same bits
    e1 = np.array([1.0, 0.0, 0.0])
    dirs = np.vstack([
        rng.normal(size=(10000, 3)) * rng.uniform(0.01, 100.0, size=(10000, 1)),
        [e1, -e1, 3.0 * e1, -0.5 * e1],
        [[1.0, 1e-13, 0.0], [1.0, 0.0, -1e-13], [1.0, 7e-14, 7e-14],
         [-1.0, 1e-13, 0.0], [1.0, 1e-10, 0.0], [1.0, 0.0, 1e-9]],
    ])
    rows = geom.bearing_from_dir_rows(dirs)
    scalar = np.array([geom.bearing_from_dir(d) for d in dirs])
    assert np.array_equal(rows, scalar)
    assert np.array_equal(geom.bearing_from_dir_rows(dirs[:1]), scalar[:1])


def test_frame_convention_body_to_world():
    # R(q_B) maps body coordinates into the world frame: after a +90 degree
    # yaw the body x axis points along world y.
    q_b = geom.so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    body_forward = np.array([1.0, 0.0, 0.0])
    assert np.allclose(geom.quats_to_frames(q_b) @ body_forward, [0, 1, 0], atol=1e-12)


def test_vectorized_helpers_match_scalar(rng):
    qs = np.array([random_quat(rng) for _ in range(64)])
    om = np.zeros((64, 4))
    om[:, 1:4] = rng.normal(size=(64, 3))
    prod = geom.quat_mul_rows(om, qs)
    for i, q in enumerate(qs):
        ref = geom._mul_raw(om[i], q)
        assert np.allclose(prod[i], ref, atol=1e-12)
