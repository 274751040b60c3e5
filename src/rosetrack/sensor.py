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
from .scene import Scene, ray_cast_arrays, return_probability_arrays


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
    integration_time: float = 0.1
    range_max: float = 260.0
    range_noise_sigma: float = 0.02

    def __post_init__(self):
        if self.f1 == self.f2:
            raise ValueError("prism frequencies must differ")
        if self.f1 <= 0 or self.f2 <= 0:
            raise ValueError("prism frequencies must be positive")
        if not 0 < self.fov_h < math.pi:
            raise ValueError("fov_h must be in (0, pi)")
        if not 0 < self.fov_v < math.pi:
            raise ValueError("fov_v must be in (0, pi)")
        if self.range_max <= 0:
            raise ValueError("range_max must be positive")
        if self.range_noise_sigma < 0:
            raise ValueError("range_noise_sigma must be >= 0")
        if not (0 < self.point_rate < math.inf and 0 < self.integration_time < math.inf):
            raise ValueError("point_rate and integration_time must be positive and finite")
        if self.point_rate * self.integration_time > MAX_RAYS_PER_FRAME:
            raise ValueError(f"point_rate * integration_time ({self.point_rate:g} * "
                             f"{self.integration_time:g}) exceeds {MAX_RAYS_PER_FRAME} rays per frame")
        if event_count(self.integration_time, self.point_rate) < 1:
            raise ValueError(f"point_rate * integration_time ({self.point_rate:g} * "
                             f"{self.integration_time:g}) gives no ray per frame")

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

    @property
    def period(self) -> float:
        """Exact repeat period of the pattern, or inf unless both frequencies
        equal fractions with denominators <= 10^6 exactly."""
        fa = Fraction(self.f1).limit_denominator(10**6)
        fb = Fraction(self.f2).limit_denominator(10**6)
        if float(fa) != self.f1 or float(fb) != self.f2:
            return math.inf
        g = Fraction(math.gcd(fa.numerator * fb.denominator, fb.numerator * fa.denominator),
                     fa.denominator * fb.denominator)
        return float(1 / g)


# Most rays one frame may cast: 175x the bundled 24,000. Each frame holds
# several (3, n) float blocks, so a larger count stops at parse time.
MAX_RAYS_PER_FRAME = 2**22


def event_count(span: float, rate: float) -> int:
    """Events at the given rate that fit in the span: floor(span * rate),
    guarded against float error so that e.g. 100 rays/s over 0.29 s gives 29
    rays, not 28. Rays per frame, frames and filter ticks are all counted
    with it."""
    return int(math.floor(span * rate + 1e-9))


def _angles_to_directions(a_h: np.ndarray, a_v: np.ndarray) -> np.ndarray:
    cv = np.cos(a_v)
    return np.stack([cv * np.cos(a_h), cv * np.sin(a_h), np.sin(a_v)]).T


# Pattern directions repeat with the pattern period, so frames whose start
# times share a phase reuse one precomputed (3, n) direction block. Every
# frame at that phase gets the same array, so the blocks are read-only.
@functools.lru_cache(maxsize=32)
def _phase_directions(params: RosetteParams, phase: float, n: int) -> np.ndarray:
    """(3, n) C-ordered block of the directions of an n-ray frame starting at the phase."""
    dirs = params.directions(phase + np.arange(n) * (params.integration_time / n)).T
    dirs.flags.writeable = False
    return dirs


def _frame_directions(params: RosetteParams, t0: float, offsets: np.ndarray) -> np.ndarray:
    """(3, n) C-ordered block of the ray directions at times t0 + offsets."""
    period = params.period
    if not math.isfinite(period) or period > 10.0:
        return params.directions(t0 + offsets).T
    return _phase_directions(params, round(t0 % period, 9), len(offsets))


def scan(scene: Scene, pose: SensorPose, t0: float, params, rng: np.random.Generator):
    """Simulate one integration frame; returns (points, surface codes): the
    kept points as an (n, 3) sensor-frame array (the transpose of a C-ordered
    (3, n) block), and per point its code as in scene.ray_cast_arrays.

    Emits event_count(integration_time, point_rate) rays at uniform time
    steps, casts each into the scene (one whose target is None gives the
    static background), keeps hits within range_max with the range/weather
    keep probability, and perturbs kept ranges with Gaussian noise along the
    ray. Zero points is a valid result.
    """
    if not 0.0 <= t0 < math.inf:
        raise ValueError("frame start time must be finite and >= 0")
    n = event_count(params.integration_time, params.point_rate)
    offsets = np.arange(n) * (params.integration_time / n)
    dirs_sensor = _frame_directions(params, t0, offsets)  # (3, n)

    rot = pan_tilt_to_rotation(pose.orientation)
    dirs_world = rot @ dirs_sensor
    origin = np.asarray(pose.origin, dtype=float)
    times = t0 + offsets

    ranges, surf = ray_cast_arrays(scene, origin, dirs_world.T, times)
    hit = (surf >= 0) & (ranges <= params.range_max)
    kept = np.nonzero(hit)[0]
    p = return_probability_arrays(ranges[kept], surf[kept] == 2, scene)
    kept = kept[rng.random(len(kept)) < p]

    r = ranges[kept]
    if params.range_noise_sigma > 0:
        r = r + rng.normal(0.0, params.range_noise_sigma, len(kept))
    return (np.take(dirs_sensor, kept, axis=1) * r).T, surf[kept]
