"""Shared geometric types and the sensor-to-world transform.

Conventions used throughout the package:

* world up is +z,
* the sensor boresight at rest (pan = tilt = 0) points along world +x,
* pan is a counter-clockwise rotation about the world z axis,
* tilt is positive upward, applied about the panned y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Hard stops of the turret, rad: pan in [-PAN_LIMIT, PAN_LIMIT], tilt in
# [-TILT_LIMIT, TILT_LIMIT]. PanTiltPose enforces them; the turret clamps to them.
PAN_LIMIT = math.pi
TILT_LIMIT = math.pi / 2

# Largest magnitude of a position coordinate, m: target waypoints, the sensor
# mount and the tracker's surveillance corners. 10,000 km is beyond any
# sensor range, and distances and their squares stay far from overflow.
MAX_COORDINATE = 1e7


@dataclass
class PointCloud:
    """World-frame returns: row i of ``xyz`` is point i, in meters."""

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

    def select(self, mask: np.ndarray) -> "PointCloud":
        """New cloud keeping the masked points in order.

        ``mask`` must be a boolean array of the cloud's length: np.compress
        would truncate a short mask and read an index array as truth values.
        The copy runs along the array's contiguous axis, so a column block
        (the .T of a C-ordered (3, n) array) stays one. A subset of a checked
        cloud is finite, so it is not checked again.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self.xyz),):
            raise ValueError(f"select needs a boolean mask of shape ({len(self.xyz)},), "
                             f"got {mask.dtype} of shape {mask.shape}")
        if self.xyz.flags.c_contiguous:
            return PointCloud._checked(np.compress(mask, self.xyz, axis=0))
        return PointCloud._checked(np.compress(mask, self.xyz.T, axis=1).T)

    @classmethod
    def _checked(cls, xyz: np.ndarray) -> "PointCloud":
        """Cloud of an (n, 3) float array already known to be finite."""
        cloud = cls.__new__(cls)
        cloud.xyz = xyz
        return cloud


@dataclass(frozen=True)
class PanTiltPose:
    """Turret orientation: pan CCW about world +z, tilt positive upward."""

    pan: float
    tilt: float

    def __post_init__(self):
        if not -PAN_LIMIT <= self.pan <= PAN_LIMIT:
            raise ValueError(f"pan {self.pan} outside [-pi, pi]")
        if not -TILT_LIMIT <= self.tilt <= TILT_LIMIT:
            raise ValueError(f"tilt {self.tilt} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class SensorPose:
    """Sensor mounting point (world frame) plus pan/tilt orientation."""

    origin: tuple[float, float, float]
    orientation: PanTiltPose = field(default_factory=lambda: PanTiltPose(0.0, 0.0))

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.origin):
            raise ValueError("sensor origin must be finite")
        if not all(abs(c) <= MAX_COORDINATE for c in self.origin):
            raise ValueError(f"sensor origin coordinates must be at most {MAX_COORDINATE:g} m "
                             f"in magnitude")


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


def transform_cloud(points: np.ndarray, pose: SensorPose) -> PointCloud:
    """World-frame cloud of sensor-frame points, an (n, 3) array.

    Each point maps to R @ p + origin; ordering and point count are preserved.
    The product runs on the (3, n) transpose, the layout scan's points have.
    """
    rot = pan_tilt_to_rotation(pose.orientation)
    return PointCloud((rot @ points.T).T + np.asarray(pose.origin, dtype=float))
