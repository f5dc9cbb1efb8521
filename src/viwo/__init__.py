"""Visual-inertial-wheel localization with online gyroscope calibration."""

from .dynamics import GyroParams, ImuSample, NavState
from .features import CameraExtrinsics
from .filter import AdaptiveEkf, NoiseConfig
from .sensors import CameraIntrinsics

__all__ = [
    "AdaptiveEkf", "CameraExtrinsics", "CameraIntrinsics", "GyroParams", "ImuSample",
    "NavState", "NoiseConfig",
]

__version__ = "0.1.0"
