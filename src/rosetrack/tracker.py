"""Particle filter over the target position: predict, update, resample,
estimate, and the stable/lost track-status rule.

The state is position-only with random-walk prediction. The measurement
model weights particles with a Gaussian kernel on their distance to the
filtered cloud's centroid (robust for small compact clusters). Weights are
normalised in log space so a distant cloud can never underflow the whole
weight vector. The track is Stable once the particle spread falls under
1.5 * sigma_pred.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .geometry import MAX_COORDINATE, PointCloud


class TrackStatus(enum.Enum):
    SEARCHING = "searching"
    STABLE = "stable"
    LOST = "lost"


# Most particles a filter may hold: 2000x the bundled 500. Every tick makes
# several (n, 3) float arrays, so a larger count stops at parse time.
MAX_PARTICLES = 2**20
# Largest predict-step noise, m: 10,000x the bundled 0.1. Far larger noise
# throws the particles far outside any surveillance volume, and at 1e200 m
# their spread overflows to inf.
MAX_SIGMA_PRED = 1e3


@dataclass(frozen=True)
class TrackerParams:
    n_particles: int = 500
    sigma_pred: float = 0.1
    sigma_meas: float = 0.15
    lost_after_misses: int = 10
    surveillance_lo: tuple[float, float, float] = (1.0, -4.0, 0.2)
    surveillance_hi: tuple[float, float, float] = (8.0, 4.0, 3.0)

    def __post_init__(self):
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ValueError(f"n_particles must be between 1 and {MAX_PARTICLES}")
        if not 0 <= self.sigma_pred <= MAX_SIGMA_PRED or self.sigma_meas <= 0:
            raise ValueError(f"sigma_pred must be between 0 and {MAX_SIGMA_PRED:g} m "
                             f"and sigma_meas > 0")
        if self.lost_after_misses < 1:
            raise ValueError("lost_after_misses must be >= 1")
        if not all(abs(c) <= MAX_COORDINATE for c in (*self.surveillance_lo, *self.surveillance_hi)):
            raise ValueError(f"surveillance corner coordinates must be at most "
                             f"{MAX_COORDINATE:g} m in magnitude")
        if not all(lo < hi for lo, hi in zip(self.surveillance_lo, self.surveillance_hi)):
            raise ValueError("surveillance volume must have positive extent")

    @property
    def stability_threshold(self) -> float:
        return 1.5 * self.sigma_pred


@dataclass
class ParticleSet:
    """Particles and weights. Every step builds new arrays and never writes
    one in place, so consecutive sets may share them."""

    positions: np.ndarray          # (n, 3) world frame
    weights: np.ndarray            # (n,) normalised
    rng: np.random.Generator
    last_measurement_age: int = 0
    degenerate: bool = False

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class TrackEstimate:
    position: np.ndarray
    sigma_particles: float
    status: TrackStatus


def init_filter(params: TrackerParams, seed) -> ParticleSet:
    """Particles uniform over the surveillance volume with uniform weights."""
    rng = np.random.default_rng(seed)  # a Generator passes through as itself
    positions = rng.uniform(params.surveillance_lo, params.surveillance_hi,
                            size=(params.n_particles, 3))
    weights = np.full(params.n_particles, 1.0 / params.n_particles)
    return ParticleSet(positions, weights, rng)


def predict(pset: ParticleSet, params: TrackerParams) -> ParticleSet:
    """Random-walk step: add zero-mean Gaussian noise per axis; weights kept."""
    if params.sigma_pred == 0.0:
        return pset
    positions = pset.positions + pset.rng.normal(0.0, params.sigma_pred,
                                                 size=pset.positions.shape)
    return replace(pset, positions=positions)


def update(pset: ParticleSet, cloud: PointCloud, params: TrackerParams) -> ParticleSet:
    """Bayes update against the filtered cloud.

    An empty cloud only bumps the missing-measurement age. Otherwise weights
    get multiplied by exp(-d^2 / (2 sigma_meas^2)) with d the distance to the
    cloud centroid and are renormalised.
    """
    if not len(cloud):
        return replace(pset, last_measurement_age=pset.last_measurement_age + 1)
    # where d or (d / sigma_meas)^2 overflows for every particle, each loglik
    # is -inf and the shift leaves NaN, which ends in the degenerate branch
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(pset.positions - cloud.xyz.mean(axis=0), axis=1)
        loglik = -0.5 * (d / params.sigma_meas) ** 2
        loglik -= loglik.max()
    weights = pset.weights * np.exp(loglik)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        # degenerate likelihood: keep positions, flatten weights, flag the set
        weights = np.full(len(pset), 1.0 / len(pset))
        return replace(pset, weights=weights, last_measurement_age=0, degenerate=True)
    return replace(pset, weights=weights / total, last_measurement_age=0, degenerate=False)


def systematic_indices(weights: np.ndarray, offset: float) -> np.ndarray:
    """Ancestor indices for systematic resampling with one uniform offset.

    offset must lie in [0, 1/n). Pointer j = offset + j/n selects the particle
    whose cumulative-weight interval contains it.
    """
    n = len(weights)
    if not 0.0 <= offset < 1.0 / n:
        raise ValueError("offset must be in [0, 1/n)")
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against accumulated rounding
    pointers = offset + np.arange(n) / n
    return np.searchsorted(cum, pointers, side="right")


def resample(pset: ParticleSet) -> ParticleSet:
    """Systematic resampling; output weights are uniform.

    The expected copy count of particle i is n * w_i, exact to within one
    copy for the systematic scheme.
    """
    n = len(pset)
    offset = pset.rng.random() / n
    idx = systematic_indices(pset.weights, offset)
    return replace(pset, positions=pset.positions[idx], weights=np.full(n, 1.0 / n))


def estimate(pset: ParticleSet, params: TrackerParams) -> TrackEstimate:
    """Weighted mean plus spread; Lost beats the spread test.

    sigma_particles is the average of the weighted per-axis standard
    deviations; the track is Stable when it is under the stability threshold.
    """
    w = pset.weights
    mean = w @ pset.positions
    var = w @ (pset.positions - mean) ** 2
    sigma = float(np.mean(np.sqrt(var)))
    if pset.last_measurement_age >= params.lost_after_misses:
        status = TrackStatus.LOST
    elif not pset.degenerate and sigma < params.stability_threshold:
        status = TrackStatus.STABLE
    else:
        status = TrackStatus.SEARCHING
    return TrackEstimate(mean, sigma, status)


def step(pset: ParticleSet, cloud: PointCloud | None,
         params: TrackerParams) -> tuple[ParticleSet, TrackEstimate]:
    """One filter tick: predict always; update + resample only on a new cloud.

    The estimate is taken from the weighted set before resampling so
    resampling noise never degrades the reported state. A delivered-but-empty
    cloud counts as a missing measurement (age bump, no reweighting).
    """
    pset = predict(pset, params)
    if cloud is None:
        return pset, estimate(pset, params)
    pset = update(pset, cloud, params)
    est = estimate(pset, params)
    if len(cloud):
        pset = resample(pset)
    return pset, est
