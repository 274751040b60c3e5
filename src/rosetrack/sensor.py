"""Rosette-scan LiDAR model: beam pattern generation and simulated frames.

The rosette is modelled as the sum of two counter-rotating elliptical
phasors (a two-prism beam steering approximation): the phase opposition at
t = 0 puts the beam on the boresight, and the beam re-crosses the centre at
a rate of f1 + f2, which is what concentrates points in the middle of the
field of view.

A reference ring scanner (evenly spaced elevation rings, spinning azimuth)
is included for relative point-count comparisons; it shares the ray casting
and return model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Frame, PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation
from .scene import Scene, ray_cast_arrays, return_probability_arrays


@dataclass(frozen=True)
class BeamDirection:
    """Unit beam direction in the sensor frame (+x is the boresight)."""

    u: tuple[float, float, float]

    def __post_init__(self):
        if abs(math.sqrt(sum(c * c for c in self.u)) - 1.0) > 1e-9:
            raise ValueError("beam direction must be a unit vector")


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
        if not (0 < self.fov_h < math.pi and 0 < self.fov_v < math.pi):
            raise ValueError("fov angles must be in (0, pi)")
        _check_rays_per_frame(self)
        if self.range_noise_sigma < 0:
            raise ValueError("range_noise_sigma must be >= 0")

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
        a_h, a_v = self.deflections(times)
        return _angles_to_directions(a_h, a_v)

    @property
    def period(self) -> float:
        """Exact repeat period of the pattern, or inf if none within 10^6 s."""
        fa = Fraction(self.f1).limit_denominator(10**6)
        fb = Fraction(self.f2).limit_denominator(10**6)
        g = Fraction(math.gcd(fa.numerator * fb.denominator, fb.numerator * fa.denominator),
                     fa.denominator * fb.denominator)
        return float(1 / g) if g > 0 else math.inf


@dataclass(frozen=True)
class RingScanParams:
    """Reference scanner: n_rings fixed elevations, azimuth spinning at spin_rate."""

    n_rings: int = 16
    spin_rate: float = 10.0
    fov_v: float = math.radians(77.2)
    point_rate: float = 240_000.0
    integration_time: float = 0.1
    range_max: float = 260.0
    range_noise_sigma: float = 0.02

    def __post_init__(self):
        if self.n_rings < 1:
            raise ValueError("need at least one ring")
        if self.spin_rate <= 0:
            raise ValueError("spin_rate must be positive")
        _check_rays_per_frame(self)

    @property
    def ring_elevations(self) -> np.ndarray:
        if self.n_rings == 1:
            return np.zeros(1)
        return np.linspace(-self.fov_v / 2.0, self.fov_v / 2.0, self.n_rings)

    def directions(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        az = (2.0 * math.pi * self.spin_rate * t) % (2.0 * math.pi)
        elev = self.ring_elevations[np.arange(len(t)) % self.n_rings]
        return _angles_to_directions(az, elev)


def _rays_per_frame(params) -> int:
    """floor(point_rate * integration_time), guarded against float error so
    that e.g. 100 rays/s over 0.29 s gives 29 rays, not 28."""
    return int(math.floor(params.point_rate * params.integration_time + 1e-9))


def _check_rays_per_frame(params) -> None:
    if params.point_rate <= 0 or params.integration_time <= 0:
        raise ValueError("point_rate and integration_time must be positive")
    if _rays_per_frame(params) < 1:
        raise ValueError(f"point_rate * integration_time ({params.point_rate:g} * "
                         f"{params.integration_time:g}) gives no ray per frame")


def _angles_to_directions(a_h: np.ndarray, a_v: np.ndarray) -> np.ndarray:
    cv = np.cos(a_v)
    return np.stack([cv * np.cos(a_h), cv * np.sin(a_h), np.sin(a_v)], axis=1)


def rosette_direction(t: float, params: RosetteParams) -> BeamDirection:
    """Beam direction at time t for the rosette pattern."""
    if t < 0:
        raise ValueError("time must be >= 0")
    u = params.directions(np.array([t]))[0]
    u = u / np.linalg.norm(u)
    return BeamDirection((float(u[0]), float(u[1]), float(u[2])))


# Pattern directions repeat with the pattern period, so frames whose start
# times share a phase reuse one precomputed direction block.
_DIR_CACHE: dict[tuple, np.ndarray] = {}
_DIR_CACHE_MAX = 32


def _frame_directions(params, t0: float, offsets: np.ndarray) -> np.ndarray:
    period = getattr(params, "period", math.inf)
    if not math.isfinite(period) or period > 10.0:
        return params.directions(t0 + offsets)
    phase = round(t0 % period, 9)
    key = (params, phase, len(offsets))
    dirs = _DIR_CACHE.get(key)
    if dirs is None:
        dirs = params.directions(phase + offsets)
        if len(_DIR_CACHE) >= _DIR_CACHE_MAX:
            _DIR_CACHE.clear()
        _DIR_CACHE[key] = dirs
    return dirs


def scan(scene: Scene, pose: SensorPose, t0: float, params,
         rng: np.random.Generator, include_target: bool = True,
         return_surfaces: bool = False):
    """Simulate one integration frame; returns a sensor-frame cloud.

    Emits floor(point_rate * integration_time + 1e-9) rays at uniform time steps,
    casts each into the scene, keeps hits within range_max with the
    range/weather keep probability, and perturbs kept ranges with Gaussian
    noise along the ray. An empty cloud is a valid result. With
    return_surfaces=True a (cloud, surface-code array) pair comes back
    (codes as in scene.ray_cast_arrays, one per kept point).
    """
    if t0 < 0:
        raise ValueError("frame start time must be >= 0")
    n = _rays_per_frame(params)
    t_end = t0 + params.integration_time
    offsets = np.arange(n) * (params.integration_time / n)
    dirs_sensor = _frame_directions(params, t0, offsets)

    rot = pan_tilt_to_rotation(pose.orientation)
    dirs_world = dirs_sensor @ rot.T
    origin = np.asarray(pose.origin, dtype=float)
    times = t0 + offsets

    ranges, surf = ray_cast_arrays(scene, origin, dirs_world, times, include_target)
    hit = (surf >= 0) & (ranges <= params.range_max)
    kept = np.nonzero(hit)[0]
    p = np.empty(0)
    if len(kept):
        p = return_probability_arrays(ranges[kept], surf[kept] == 2, scene)
        keep = rng.random(len(kept)) < p
        kept, p = kept[keep], p[keep]
    if len(kept) == 0:
        cloud = PointCloud.empty(Frame.SENSOR, t0, t_end)
        return (cloud, np.empty(0, dtype=np.int8)) if return_surfaces else cloud

    r = ranges[kept]
    if params.range_noise_sigma > 0:
        r = r + rng.normal(0.0, params.range_noise_sigma, len(kept))
    xyz = dirs_sensor[kept] * r[:, None]
    cloud = PointCloud(Frame.SENSOR, times[kept], xyz, p, t0, t_end)
    return (cloud, surf[kept]) if return_surfaces else cloud
