"""Visual-inertial-wheel localization with online gyroscope calibration."""

import os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: the filter's matrices are at most 51 x 51, too small to gain from
# BLAS's threads, and in an image run those threads take the CPU the frame
# worker needs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .dynamics import GyroParams, NavState
from .features import CameraExtrinsics
from .filter import AdaptiveEkf, NoiseConfig
from .sensors import CameraIntrinsics

__all__ = [
    "AdaptiveEkf", "CameraExtrinsics", "CameraIntrinsics", "GyroParams", "NavState",
    "NoiseConfig",
]

__version__ = "0.1.0"
