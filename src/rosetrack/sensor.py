"""Rosette-scan LiDAR model: beam pattern generation and simulated frames.

The rosette is modelled as the sum of two counter-rotating elliptical
phasors (a two-prism beam steering approximation): the phase opposition at
t = 0 puts the beam on the boresight, and the beam re-crosses the centre at
a rate of f1 + f2, which is what concentrates points in the middle of the
field of view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import SensorPose, pan_tilt_to_rotation
from .scene import GROUND, TARGET, Scene, ray_cast_arrays, return_probability_arrays


@dataclass(frozen=True)
class RosetteParams:
    """Two-prism rosette pattern plus frame/return bookkeeping.

    f1 and f2 are the prism rotation frequencies; the pattern repeats with
    period 1/gcd(f1, f2), so slightly incommensurate pairs give the
    non-repetitive coverage growth the sensor is known for.
    """

    f1: float = 50.0
    f2: float = 31.0
    fov_h: float = math.radians(70.4)
    fov_v: float = math.radians(77.2)
    point_rate: float = 240_000.0
    lidar_rate: float = 10.0  # frames per second; each integrates for one period
    range_max: float = 260.0
    range_noise_sigma: float = 0.02

    def __post_init__(self):
        if self.f1 == self.f2:
            raise ValueError("prism frequencies must differ")
        if not (0 < self.f1 < math.inf and 0 < self.f2 < math.inf):
            raise ValueError("prism frequencies must be positive and finite")
        if max(self.f1, self.f2) > MAX_PRISM_FREQUENCY:
            raise ValueError(f"prism frequencies must be at most {MAX_PRISM_FREQUENCY:g} Hz")
        if not 0 < self.fov_h < math.pi:
            raise ValueError("fov_h must be in (0, pi)")
        if not 0 < self.fov_v < math.pi:
            raise ValueError("fov_v must be in (0, pi)")
        if not 0 < self.range_max < math.inf:
            raise ValueError("range_max must be positive and finite")
        if not (0 <= self.range_noise_sigma < math.inf and self.range_noise_sigma <= self.range_max):
            raise ValueError("range_noise_sigma must be finite, >= 0 and <= range_max")
        if not 0 < self.lidar_rate < math.inf:
            raise ValueError(f"lidar_rate ({self.lidar_rate:g}) must be positive and finite")
        if not 0 < self.point_rate < math.inf:
            raise ValueError(f"point_rate ({self.point_rate:g}) must be positive and finite")
        # a frame lasts one period, so its rays are point_rate / lidar_rate
        given = f"point_rate / lidar_rate ({self.point_rate:g} / {self.lidar_rate:g})"
        if self.point_rate * self.integration_time > MAX_RAYS_PER_FRAME:
            raise ValueError(f"{given} exceeds {MAX_RAYS_PER_FRAME} rays per frame")
        if event_count(self.integration_time, self.point_rate) < 1:
            raise ValueError(f"{given} gives no ray per frame")

    @property
    def integration_time(self) -> float:
        """One frame's length, s: frames follow each other without a gap."""
        return 1.0 / self.lidar_rate

    def deflections(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Angular offsets (a_h, a_v) from the boresight at the given times."""
        t = np.asarray(times, dtype=float)
        th1 = 2.0 * math.pi * self.f1 * t
        th2 = -2.0 * math.pi * self.f2 * t + math.pi
        amp_h = self.fov_h / 2.0
        amp_v = self.fov_v / 2.0
        a_h = 0.5 * amp_h * (np.cos(th1) + np.cos(th2))
        a_v = 0.5 * amp_v * (np.sin(th1) + np.sin(th2))
        return a_h, a_v

    def directions(self, times: np.ndarray) -> np.ndarray:
        """(n, 3) unit ray directions at the n times, the transpose of a
        C-ordered (3, n) block."""
        a_h, a_v = self.deflections(times)
        return _angles_to_directions(a_h, a_v)

    @functools.cached_property
    def period(self) -> float:
        """Exact repeat period of the pattern, or inf unless both frequencies
        read by exact() have denominators <= 10^6."""
        fa, fb = exact(self.f1), exact(self.f2)
        if max(fa.denominator, fb.denominator) > 10**6:
            return math.inf
        g = Fraction(math.gcd(fa.numerator * fb.denominator, fb.numerator * fa.denominator),
                     fa.denominator * fb.denominator)
        return float(1 / g)

    @functools.cached_property
    def frame_phases(self) -> float:
        """Pattern phases at which consecutive frames start before they
        repeat: the numerator of period / integration_time, both read by
        exact(), or inf when the pattern does not repeat."""
        if self.period == math.inf:
            return math.inf
        return (exact(self.period) / exact(self.integration_time)).numerator


# Fastest prism rotation, Hz: about 6,000x the bundled 161 Hz. The beam phase
# 2 pi f t of a frame overflows near 1e308 Hz, so a faster prism stops at parse.
MAX_PRISM_FREQUENCY = 1e6

# Most rays one frame may cast: 175x the bundled 24,000. Each frame holds
# several (3, n) float blocks, so a larger count stops at parse time.
MAX_RAYS_PER_FRAME = 2**22


@functools.lru_cache(maxsize=2**12)
def exact(x: float) -> Fraction:
    """The fraction with denominator at most 10^6 whose float is x, or else
    x's own binary fraction: a rate or a time written as a decimal reads as
    that decimal. Every clock decision is made on values read this way.

    Cached, as reading a value costs about 20 us: runs of one config read
    the same rates and frame starts again."""
    binary = Fraction(x)
    near = binary.limit_denominator(10**6)
    return near if float(near) == x else binary


def event_count(span: float, rate: float) -> int:
    """Events at the given rate that fit in the span: floor(span * rate) in
    exact arithmetic, so that 100 rays/s over 0.29 s gives 29 rays, not the
    28 of the float product. Rays per frame, frames and filter ticks are all
    counted with it."""
    return math.floor(exact(span) * exact(rate))


def _angles_to_directions(a_h: np.ndarray, a_v: np.ndarray) -> np.ndarray:
    cv = np.cos(a_v)
    return np.stack([cv * np.cos(a_h), cv * np.sin(a_h), np.sin(a_v)]).T


# Frames whose start times share a pattern phase reuse one (3, n) direction
# block, read-only since every frame at that phase gets the same array. A
# pattern whose frames start at more than CACHED_PHASES phases would evict
# each block before reuse.
CACHED_PHASES = 32


@functools.lru_cache(maxsize=1)
def _frame_offsets(integration_time: float, point_rate: float) -> np.ndarray:
    """Read-only emission times of the event_count(integration_time,
    point_rate) rays of a frame, from its start."""
    n = event_count(integration_time, point_rate)
    offsets = np.arange(n) * (integration_time / n)
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=CACHED_PHASES)
def _phase_directions(params: RosetteParams, phase: Fraction) -> np.ndarray:
    """(3, n) C-ordered block of the directions of a frame starting at the phase."""
    offsets = _frame_offsets(params.integration_time, params.point_rate)
    dirs = params.directions(float(phase) + offsets).T
    dirs.flags.writeable = False
    return dirs


def _frame_directions(params: RosetteParams, t0: float) -> np.ndarray:
    """(3, n) C-ordered directions of the frame starting at t0; cached iff
    the frames start at no more than CACHED_PHASES pattern phases. The phase
    key is exact(t0) modulo exact(period)."""
    if params.frame_phases > CACHED_PHASES:
        return params.directions(t0 + _frame_offsets(params.integration_time, params.point_rate)).T
    return _phase_directions(params, exact(t0) % exact(params.period))


def scan(scene: Scene, pose: SensorPose, t0: float, params, rng: np.random.Generator, *,
         floor: float = -math.inf):
    """Simulate one integration frame; returns (points, surface codes): the
    kept points as an (n, 3) sensor-frame array (the transpose of a C-ordered
    (3, n) block), and per point its code as in scene.ray_cast_arrays.

    Emits event_count(integration_time, point_rate) rays at uniform time
    steps, casts each into the scene (one whose target is None gives the
    static background), keeps hits within range_max with the range/weather
    keep probability, and perturbs kept ranges with Gaussian noise e along
    the ray. Zero points is a valid result.

    ``floor`` is a world height that the caller's range gate keeps only
    points above (ground_z + ground_margin, summed as range_filter sums it).
    A GROUND return with |e| < slack = (floor - ground_z) / 2 lands at most
    |e| above the ground plus rounding, so below the floor: no point is
    built for it, provided the slack exceeds the rounding bound
    1e-6 * (1 + |ground_z| + |origin z| + range_max). Every random draw is
    still made, and other surfaces are never dropped this way. Nor is a
    frame cut down to one point: numpy multiplies a lone column with gemv,
    whose rounding differs from the gemm that transform_cloud runs on two or
    more, so the first other return stays beside it, for the gate to drop.
    """
    if not 0.0 <= t0 < math.inf:
        raise ValueError("frame start time must be finite and >= 0")
    offsets = _frame_offsets(params.integration_time, params.point_rate)
    dirs_sensor = _frame_directions(params, t0)  # (3, n)

    rot = pan_tilt_to_rotation(pose.orientation)
    dirs_world = rot @ dirs_sensor
    origin = np.asarray(pose.origin, dtype=float)
    times = t0 + offsets

    ranges, surf = ray_cast_arrays(scene, origin, dirs_world.T, times)
    kept = np.flatnonzero(ranges <= params.range_max)  # ranges are inf exactly on MISS
    r = ranges[kept]
    s = surf[kept]
    keep = rng.random(len(kept)) < return_probability_arrays(r, s == TARGET, scene)
    kept = kept[keep]
    r = r[keep]
    s = s[keep]
    noise = 0.0
    if params.range_noise_sigma > 0:
        noise = params.range_noise_sigma * rng.standard_normal(len(kept))
        r += noise
    slack = (floor - scene.ground_z) / 2
    if slack > 1e-6 * (1.0 + abs(scene.ground_z) + abs(origin[2]) + params.range_max):
        out = np.flatnonzero((s != GROUND) | (np.abs(noise) >= slack))
        if len(out) == 1 < len(s):  # keep a pair: see the docstring
            out = np.array([0, max(out[0], 1)])
        kept, r, s = kept[out], r[out], s[out]
    pts = np.take(dirs_sensor, kept, axis=1)
    pts *= r
    return pts.T, s
