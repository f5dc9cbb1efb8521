"""Trajectory accuracy metrics: segment-relative pose error and aligned RMSE.

The relative pose error (RPE) anchors a segment at every pose, finds the
ground-truth point a fixed arc length ahead (100 m by default), expresses
both end poses in their respective start frames and reports the translation
error as a percentage of the segment length.  Percentiles are computed over
segments with linear interpolation.  The absolute metric (ATE RMSE) is the
root-mean-square position residual after a closed-form rigid alignment
(rotation + translation, no scale).
"""

from dataclasses import dataclass

import numpy as np

from . import geom

ASSOC_TOL_S = 0.010


@dataclass
class TrajectoryRecord:
    """Timestamped poses: positions (n,3), attitude quaternions (n,4)."""
    t: np.ndarray
    pos: np.ndarray
    quat: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if len(self.t) != len(self.pos) or len(self.t) != len(self.quat):
            raise ValueError("inconsistent record lengths")


@dataclass
class RpeReport:
    percentile_63: float
    percentile_95: float
    maximum: float
    segment_count: int

    def __post_init__(self):
        if not (self.percentile_63 <= self.percentile_95 <= self.maximum + 1e-12):
            raise ValueError("percentiles must be ordered")


def associate(est: TrajectoryRecord, gt: TrajectoryRecord):
    """Indices (est, gt) of nearest-timestamp pairs within ASSOC_TOL_S."""
    gi = np.searchsorted(gt.t, est.t)
    gi = np.clip(gi, 1, len(gt.t) - 1)
    left = np.abs(gt.t[gi - 1] - est.t)
    right = np.abs(gt.t[gi] - est.t)
    gi = np.where(left < right, gi - 1, gi)
    ok = np.abs(gt.t[gi] - est.t) <= ASSOC_TOL_S
    return np.nonzero(ok)[0], gi[ok]


def rpe(est: TrajectoryRecord, gt: TrajectoryRecord,
        segment_length_m: float = 100.0) -> RpeReport:
    """Relative pose error over fixed-arc-length segments, dense anchors.

    Percentiles are over segments (noted in the report header by the cli).
    """
    ei, gi = associate(est, gt)
    if len(ei) < 3:
        raise ValueError("trajectories share too few associated samples")
    p_est = est.pos[ei]
    q_est = est.quat[ei]
    p_gt = gt.pos[gi]
    q_gt = gt.quat[gi]

    steps = np.linalg.norm(np.diff(p_gt, axis=0), axis=1)
    dist = np.concatenate([[0.0], np.cumsum(steps)])
    if dist[-1] < 2.0 * segment_length_m:
        raise ValueError("trajectory shorter than two evaluation segments")

    errors = []
    ends = np.searchsorted(dist, dist + segment_length_m)
    r_gt = geom.quats_to_frames(q_gt)
    r_est = geom.quats_to_frames(q_est)
    for a in range(len(dist)):
        b = ends[a]
        if b >= len(dist):
            break
        # relative displacement in each start frame
        d_gt = r_gt[a].T @ (p_gt[b] - p_gt[a])
        d_est = r_est[a].T @ (p_est[b] - p_est[a])
        seg_len = dist[b] - dist[a]
        errors.append(np.linalg.norm(d_est - d_gt) / seg_len * 100.0)
    if not errors:
        raise ValueError("no complete segments")
    errors = np.array(errors)
    return RpeReport(float(np.percentile(errors, 63)),
                     float(np.percentile(errors, 95)),
                     float(errors.max()), len(errors))


def rigid_align(src: np.ndarray, dst: np.ndarray):
    """Closed-form rotation+translation minimizing |R src + t - dst|^2."""
    if len(src) < 3:
        raise ValueError("need at least 3 points for alignment")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (dst - mu_d).T @ (src - mu_s) / len(src)
    u, sv, vt = np.linalg.svd(cov)
    if sv[1] < 1e-12 * max(sv[0], 1e-300):
        raise ValueError("degenerate point set: alignment rank deficient")
    s = np.eye(3)
    if np.linalg.det(u @ vt) < 0:
        s[2, 2] = -1.0
    r = u @ s @ vt
    t = mu_d - r @ mu_s
    return r, t


def ate_rmse(est: TrajectoryRecord, gt: TrajectoryRecord) -> float:
    """RMS position error after rigid alignment of the estimate to truth."""
    ei, gi = associate(est, gt)
    if len(ei) < 3:
        raise ValueError("fewer than 3 associated pairs")
    r, t = rigid_align(est.pos[ei], gt.pos[gi])
    res = (est.pos[ei] @ r.T + t) - gt.pos[gi]
    return float(np.sqrt(np.mean(np.sum(res ** 2, axis=1))))
