"""Simulated pan-tilt turret: raster commands for the background build,
estimate-centering commands while tracking, and rate-limited dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PAN_LIMIT, TILT_LIMIT, PanTiltPose, SensorPose


# Most rows the raster may have. The config holds the raster's turret steps
# (scan_duration * filter_rate: 14000x the bundled 75) to the same bound, as
# only the config knows the filter clock. The raster is stepped one command
# at a time, so a larger count stops at parse time.
MAX_RASTER_STEPS = 2**20


@dataclass(frozen=True)
class TurretParams:
    origin: tuple[float, float, float] = (0.0, 0.0, 1.0)  # sensor mount, world frame
    max_slew_rate: float = math.pi          # rad/s, per axis
    deadband: float = math.radians(0.5)
    scan_pan_min: float = -0.6
    scan_pan_max: float = 0.6
    scan_tilt_min: float = 0.0
    scan_tilt_max: float = 0.25
    scan_line_spacing: float = 0.25
    scan_duration: float = 5.0

    def __post_init__(self):
        SensorPose(self.origin)  # the mount's own rule
        if self.max_slew_rate <= 0:
            raise ValueError("max_slew_rate must be positive")
        if self.deadband < 0:
            raise ValueError("deadband must be >= 0")
        if self.scan_pan_min >= self.scan_pan_max:
            raise ValueError("scan area must have positive pan extent")
        if self.scan_tilt_min > self.scan_tilt_max:
            raise ValueError("scan_tilt_min must be <= scan_tilt_max")
        try:  # the raster's corners are poses
            PanTiltPose(self.scan_pan_min, self.scan_tilt_min)
            PanTiltPose(self.scan_pan_max, self.scan_tilt_max)
        except ValueError as exc:
            raise ValueError(f"scan area must lie within pose limits: {exc}") from None
        if not 0 < self.scan_line_spacing < math.inf:
            raise ValueError("scan_line_spacing must be positive and finite")
        span, row_rate = self.scan_tilt_max - self.scan_tilt_min, 1.0 / self.scan_line_spacing
        if not span * row_rate <= MAX_RASTER_STEPS:  # 0 * inf is NaN: refused too
            raise ValueError(f"(scan_tilt_max - scan_tilt_min) * (1 / scan_line_spacing) "
                             f"({span:g} * {row_rate:g}) exceeds {MAX_RASTER_STEPS} raster rows")
        if not 0 < self.scan_duration < math.inf:
            raise ValueError("scan_duration must be positive and finite")

    @property
    def scan_rows(self) -> int:
        """The first row plus one per scan_line_spacing that fits the tilt range."""
        # Not sensor.event_count: angles such as pi/50 have no exact value, and
        # counted exactly 0..pi/2 at pi/50 would give 25 rows, not 26.
        span = self.scan_tilt_max - self.scan_tilt_min
        return math.floor(span * (1.0 / self.scan_line_spacing) + 1e-9) + 1


@dataclass
class TurretState:
    pose: PanTiltPose = field(default_factory=lambda: PanTiltPose(0.0, 0.0))
    t: float = 0.0


def scan_mode_command(t: float, params: TurretParams) -> PanTiltPose:
    """Serpentine raster over the scan area, completing once in scan_duration.

    Tilt rows are scan_line_spacing apart, the top one clamped to
    scan_tilt_max (row * spacing may overshoot it by float error); pan sweeps
    alternately left-to-right and right-to-left at constant rate. Times outside
    [0, scan_duration] clamp to the nearest endpoint.
    """
    t = min(max(t, 0.0), params.scan_duration)
    rows = params.scan_rows
    row_time = params.scan_duration / rows
    row = min(int(t / row_time), rows - 1)
    frac = (t - row * row_time) / row_time
    frac = min(max(frac, 0.0), 1.0)
    tilt = min(params.scan_tilt_min + row * params.scan_line_spacing, params.scan_tilt_max)
    if row % 2 == 0:
        pan = params.scan_pan_min + frac * (params.scan_pan_max - params.scan_pan_min)
    else:
        pan = params.scan_pan_max - frac * (params.scan_pan_max - params.scan_pan_min)
    return PanTiltPose(pan, tilt)


def tracking_command(state: TurretState, target, params: TurretParams) -> PanTiltPose:
    """Point the boresight, mounted at params.origin, at the target position
    (the track estimate's); hold inside the deadband.

    The command is pan = atan2(dy, dx), tilt = atan2(dz, hypot(dx, dy)). When
    both axes would move less than the deadband the current pose is returned
    unchanged, so repeated calls with the same target are idempotent.
    """
    d = np.asarray(target, dtype=float) - np.asarray(params.origin, dtype=float)
    horiz = math.hypot(d[0], d[1])
    if horiz == 0.0:
        # gimbal singularity: target straight above/below the pan axis
        tilt = math.copysign(TILT_LIMIT, d[2]) if d[2] != 0.0 else TILT_LIMIT
        return PanTiltPose(state.pose.pan, tilt)
    pan = math.atan2(d[1], d[0])
    tilt = math.atan2(d[2], horiz)
    if (abs(pan - state.pose.pan) < params.deadband
            and abs(tilt - state.pose.tilt) < params.deadband):
        return state.pose
    return PanTiltPose(pan, tilt)


def step_dynamics(state: TurretState, command: PanTiltPose, dt: float,
                  params: TurretParams) -> TurretState:
    """Advance each axis toward the command by at most max_slew_rate * dt.

    Arrival is exact once the remaining error fits in the step budget. Axes
    are treated as linear with hard stops (pan does not wrap through +-pi);
    poses are clamped to the physical limits.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    budget = params.max_slew_rate * dt

    def follow(current: float, target: float, lo: float, hi: float) -> float:
        delta = min(max(target - current, -budget), budget)
        return min(max(current + delta, lo), hi)

    pose = PanTiltPose(
        follow(state.pose.pan, command.pan, -PAN_LIMIT, PAN_LIMIT),
        follow(state.pose.tilt, command.tilt, -TILT_LIMIT, TILT_LIMIT),
    )
    return TurretState(pose=pose, t=state.t + dt)
