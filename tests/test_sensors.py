import numpy as np
import pytest

from viwo import geom
from viwo.filter import NAV_DIM, AdaptiveEkf
from viwo.image import build_pyramid, extract_patch_set
from viwo.jacobian_check import fd_camera_chain, render_smooth_probe
from viwo.sensors import (CameraIntrinsics, ProjectionError,
                          camera_measurement_jacobian, project, project_rows,
                          unproject,
                          vehicle_measurement_jacobian,
                          vehicle_predicted_measurement,
                          vehicle_velocity_measurement)

INTR = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 0.0, 0.0, 640, 480)
INTR_DIST = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, -0.3, 0.05, 640, 480)


def test_project_optical_axis():
    (u, v), _ = project(geom.IDENTITY_QUAT, INTR)
    assert np.isclose(u, 320.0) and np.isclose(v, 240.0)


def test_project_known_bearing_pinhole():
    # direction 10 deg to the left (+y): u = cx - fx*tan(10 deg)
    ang = np.deg2rad(10.0)
    d = np.array([np.cos(ang), np.sin(ang), 0.0])
    (u, v), _ = project(geom.bearing_from_dir(d), INTR)
    assert np.isclose(u, 320.0 - 500.0 * np.tan(ang), atol=1e-9)
    assert np.isclose(v, 240.0, atol=1e-9)


def test_project_behind_camera():
    with pytest.raises(ProjectionError):
        project(geom.bearing_from_dir(np.array([-1.0, 0, 0])), INTR)



def test_project_rows_match_project(rng):
    """project_rows gives project's (u, v) bit for bit, and its mask is set
    exactly where project does not raise: bearings in front and behind,
    inside the image and out, on a distorted camera."""
    d = np.column_stack((rng.uniform(-0.2, 1.0, 400), rng.uniform(-1.0, 1.0, (400, 2))))
    d[:3] = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1e-12, 0.3, 0.0]]
    bearings = geom.bearing_from_dir_rows(d)
    uv, ok = project_rows(bearings, INTR_DIST)
    assert ok.any() and not ok.all()
    for bearing, row, inside in zip(bearings, uv, ok):
        try:
            (u, v), _ = project(bearing, INTR_DIST)
        except ProjectionError:
            assert not inside
            continue
        assert inside and np.array([u, v]).tobytes() == row.tobytes()


def test_camera_rows_at_the_projection_match_their_own_projection(rng):
    """Handed the bearing's projected (u, v), the camera rows are the bytes
    of the rows that project the bearing themselves."""
    pyramid = build_pyramid(render_smooth_probe(INTR_DIST, 322.0, 241.5))
    patch = extract_patch_set(pyramid, 322.0, 241.5)
    for _ in range(20):
        bearing = geom.s2_boxplus(geom.IDENTITY_QUAT, rng.uniform(-0.01, 0.01, 2))
        (u, v), _ = project(bearing, INTR_DIST)
        own = camera_measurement_jacobian(bearing, patch, pyramid, INTR_DIST)
        handed = camera_measurement_jacobian(bearing, patch, pyramid, INTR_DIST, at=(u, v))
        assert own[0].any()
        assert [x.tobytes() for x in own] == [x.tobytes() for x in handed]

def test_project_jacobian_fd(rng):
    h = 1e-7
    for _ in range(100):
        d = np.array([1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)])
        b = geom.bearing_from_dir(d)
        _, jac = project(b, INTR_DIST, require_in_image=False)
        fd = np.empty((2, 2))
        for j in range(2):
            dd = np.zeros(2)
            dd[j] = h
            (up, vp), _ = project(geom.s2_boxplus(b, dd), INTR_DIST,
                                  require_in_image=False)
            (um, vm), _ = project(geom.s2_boxplus(b, -dd), INTR_DIST,
                                  require_in_image=False)
            fd[:, j] = [(up - um) / (2 * h), (vp - vm) / (2 * h)]
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-4


def test_unproject_principal_point():
    b = unproject(320.0, 240.0, INTR)
    assert np.allclose(geom.quats_to_dirs(b), [1, 0, 0], atol=1e-12)


def test_unproject_round_trip_sweep(rng):
    # spec invariant: <= 1e-6 px over in-image pixels at default distortion
    worst = 0.0
    for _ in range(500):
        u = rng.uniform(1.0, 638.0)
        v = rng.uniform(1.0, 478.0)
        b = unproject(u, v, INTR_DIST)
        (u2, v2), _ = project(b, INTR_DIST, require_in_image=False)
        worst = max(worst, abs(u2 - u), abs(v2 - v))
    assert worst < 1e-6


def test_unproject_outside_image():
    with pytest.raises(ProjectionError):
        unproject(-5.0, 10.0, INTR)


def test_bearing_measurement_boxplus_consistency(rng):
    """The direct-bearing rows as the filter forms them: an observation
    s2_boxplus(q, delta) of slot bearing q gives residual delta on the
    slot's two tangent columns with h_local = I."""
    ekf = AdaptiveEkf(capacity=4)
    for slot in range(3):
        d = np.array([1.0, *rng.uniform(-0.5, 0.5, 2)])
        ekf.init_feature(slot, geom.bearing_from_dir(d))
        ekf._rho[slot] = 0.5
    ekf.init_feature(3, geom.IDENTITY_QUAT.copy())
    ekf._rho[3] = 0.2
    slots = [0, 1, 2, 3]
    for _ in range(25):
        deltas = rng.uniform(-0.05, 0.05, (4, 2))
        deltas[0] = 0.0            # zero residual
        deltas[3] = [0.01, 0.0]    # known offset on the optical axis
        observed = np.array([geom.s2_boxplus(ekf._qf[s], d)
                             for s, d in zip(slots, deltas)])
        group = ekf.bearing_groups(slots, observed)
        assert list(group.slots) == slots
        assert np.array_equal(group.h_local, np.eye(2))
        for slot, cols, residual, delta in zip(group.slots, group.cols,
                                               group.residual, deltas):
            o = NAV_DIM + 3 * slot
            assert np.array_equal(cols, [o, o + 1])
            assert np.allclose(residual, delta, atol=1e-8)
        assert np.allclose(group.residual[0], 0.0, atol=1e-12)
        assert np.allclose(group.residual[3], [0.01, 0.0], atol=1e-9)


def test_camera_chain_jacobian_fd(rng):
    for seed in range(10):
        an, fd = fd_camera_chain(np.random.default_rng(seed), INTR_DIST)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(an - fd)) / scale < 1e-3


def test_camera_chain_zero_gradient_zero_rows():
    from viwo.image import Image
    flat = Image(np.full((480, 640), 77.0))
    pyr = build_pyramid(flat)
    patch = extract_patch_set(pyr, 320.0, 240.0)
    out = camera_measurement_jacobian(geom.IDENTITY_QUAT.copy(), patch, pyr, INTR)
    assert out is not None
    residual, h = out
    assert residual.shape == (2 * 64,) and h.shape == (2 * 64, 2)  # both levels
    assert np.allclose(residual, 0) and np.allclose(h, 0)


def test_vehicle_velocity_measurement_values():
    assert np.allclose(vehicle_velocity_measurement(5.0, 1.0, 0.0), [5, 0, 0])
    y = vehicle_velocity_measurement(20.0, 3.0, 0.0024)
    assert np.isclose(y[1], -0.144)
    assert y[2] == 0.0
    assert np.allclose(vehicle_velocity_measurement(0.0, 2.0, 0.01), [0, 0, 0])


def test_vehicle_jacobian_trivial():
    assert np.allclose(vehicle_measurement_jacobian(0.0, 3.0), np.eye(3))
    assert np.allclose(vehicle_measurement_jacobian(0.002, 0.0), np.eye(3))


def test_vehicle_jacobian_fd(rng):
    h = 1e-7
    for _ in range(100):
        vel = rng.uniform(-20, 20, 3)
        v_x_m, a_y_m = float(vel[0] + rng.normal() * 0.05), rng.uniform(-4, 4)
        rho_sg = rng.uniform(0, 0.006)
        hv = vehicle_measurement_jacobian(rho_sg, a_y_m)
        fd = np.empty((3, 3))
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            fd[:, j] = (vehicle_predicted_measurement(vel + d, v_x_m, a_y_m, rho_sg)
                        - vehicle_predicted_measurement(vel - d, v_x_m, a_y_m, rho_sg)) / (2 * h)
        assert np.allclose(hv, fd, atol=1e-7)


def test_vehicle_residual_centered_at_truth(rng):
    # at the true velocity the residual reduces to the model discrepancy only
    for _ in range(100):
        rho_sg = rng.uniform(0, 0.006)
        v_x = rng.uniform(10, 30)
        a_y = rng.uniform(-4, 4)
        vel = np.array([v_x, -rho_sg * a_y * v_x, 0.0])  # single-track truth
        z = vehicle_velocity_measurement(v_x, a_y, rho_sg)
        pred = vehicle_predicted_measurement(vel, v_x, a_y, rho_sg)
        assert np.allclose(z - pred, 0, atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(-1.0, 500.0, 320.0, 240.0, 0.0, 0.0, 640, 480)
    with pytest.raises(ValueError):
        CameraIntrinsics(500.0, 500.0, 900.0, 240.0, 0.0, 0.0, 640, 480)
