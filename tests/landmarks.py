"""Exact feature states of world points, the test oracle of the simulator's
bearings (sim.camera_view computes the same rows for every camera pose at
once) and the ground truth of the feature and filter tests."""

from dataclasses import dataclass

import numpy as np

from viwo import geom
from viwo.dynamics import NavState
from viwo.features import RHO_CEIL, CameraExtrinsics


@dataclass
class FeatureState:
    bearing: np.ndarray          # unit quaternion(s) (..., 4), camera frame
    rho: float | np.ndarray      # inverse depth(s) (...) [1/m]


def landmark_to_feature(landmarks: np.ndarray, s: NavState,
                        ext: CameraExtrinsics) -> FeatureState:
    """Exact feature states of (..., 3) world points seen from s: bearings
    (..., 4) and inverse depths (...).

    Each point is rotated by its own matrix-vector product and its range is
    a 1-D dot, so a row has the bits of a one-point call however many are
    stacked.  Raises ValueError for the first point behind the camera or
    nearer than 1 / RHO_CEIL.
    """
    r_wb = geom.quats_to_frames(s.quat)
    cam_world = s.pos + r_wb @ ext.lever_arm
    rel = np.reshape(landmarks - cam_world, (-1, 3, 1))
    d_cam = np.matmul(ext.r_cb, np.matmul(r_wb.T, rel))[:, :, 0]
    rng = np.sqrt(geom.matmul_dot_rows(d_cam, d_cam))
    bad = (d_cam[:, 0] <= 0.0) | (rng < 1.0 / RHO_CEIL)
    if bad.any():
        k = int(np.argmax(bad))
        if d_cam[k, 0] <= 0.0:
            raise ValueError("landmark behind the camera")
        raise ValueError(f"landmark range {rng[k]} below minimum depth {1.0 / RHO_CEIL}")
    lead = np.shape(landmarks)[:-1]
    return FeatureState(geom.bearing_from_dir_rows(d_cam / rng[:, None]).reshape(lead + (4,)),
                        (1.0 / rng).reshape(lead))
