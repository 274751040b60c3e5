"""Shared geometric types and sensor/world frame transforms.

Conventions used throughout the package:

* world up is +z,
* the sensor boresight at rest (pan = tilt = 0) points along world +x,
* pan is a counter-clockwise rotation about the world z axis,
* tilt is positive upward, applied about the panned y axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class Frame(enum.Enum):
    SENSOR = "sensor"
    WORLD = "world"


class FrameMismatchError(ValueError):
    """Raised when a cloud is supplied in the wrong coordinate frame."""


@dataclass
class PointCloud:
    """The returns of one frame: row i of ``xyz`` is point i, in meters."""

    frame_id: Frame
    xyz: np.ndarray  # (n, 3)

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=float)
        if xyz.shape[-1:] != (3,):
            raise ValueError(f"point coordinates need a last axis of 3, got shape {xyz.shape}")
        self.xyz = xyz.reshape(-1, 3)
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("point coordinates must be finite")

    def __len__(self) -> int:
        return len(self.xyz)

    @classmethod
    def empty(cls, frame_id: Frame) -> "PointCloud":
        return cls(frame_id, np.empty((0, 3)))

    def select(self, mask: np.ndarray) -> "PointCloud":
        """New cloud keeping the masked points in order."""
        return PointCloud(self.frame_id, self.xyz[mask])


@dataclass(frozen=True)
class PanTiltPose:
    """Turret orientation: pan CCW about world +z, tilt positive upward."""

    pan: float
    tilt: float

    def __post_init__(self):
        if not -math.pi <= self.pan <= math.pi:
            raise ValueError(f"pan {self.pan} outside [-pi, pi]")
        if not -math.pi / 2 <= self.tilt <= math.pi / 2:
            raise ValueError(f"tilt {self.tilt} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class SensorPose:
    """Sensor mounting point (world frame) plus pan/tilt orientation."""

    origin: tuple[float, float, float]
    orientation: PanTiltPose = field(default_factory=lambda: PanTiltPose(0.0, 0.0))

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.origin):
            raise ValueError("sensor origin must be finite")


def pan_tilt_to_rotation(pose: PanTiltPose) -> np.ndarray:
    """3x3 rotation taking sensor-frame vectors into the world frame.

    Pan about world z first, then tilt about the panned y axis, so the
    boresight (+x in the sensor frame) maps to
    (cos tilt * cos pan, cos tilt * sin pan, sin tilt).
    """
    cp, sp = math.cos(pose.pan), math.sin(pose.pan)
    ct, st = math.cos(pose.tilt), math.sin(pose.tilt)
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])  # Ry(-tilt): +tilt pitches the boresight up
    return rz @ ry


def transform_cloud(cloud: PointCloud, pose: SensorPose) -> PointCloud:
    """Transform a sensor-frame cloud into the world frame.

    Each point maps to R @ p + origin; ordering and point count are preserved.
    """
    if cloud.frame_id is not Frame.SENSOR:
        raise FrameMismatchError(f"expected a sensor-frame cloud, got {cloud.frame_id}")
    rot = pan_tilt_to_rotation(pose.orientation)
    xyz = cloud.xyz @ rot.T + np.asarray(pose.origin, dtype=float)
    return PointCloud(Frame.WORLD, xyz)
