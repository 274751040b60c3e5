"""Exact oracle twins of the fast paths in src/, and the reference scanner,
for the tests to compare with.

Each twin computes the same result as its fast counterpart by the direct
O(n^2) or pointer-walk method, so the two must agree exactly. The reference
scanner, RingScanParams, is the spinning 16-ring LiDAR that the rosette's
return density is compared with (acceptance criterion 7); sensor.scan runs
it through the same ray casting and return model.
"""

import math
from dataclasses import dataclass

import numpy as np

from rosetrack.sensor import _angles_to_directions


def brute_force_ror(cloud, radius, min_neighbors):
    """Twin of filters.radius_outlier_removal from all pairwise distances."""
    d = np.linalg.norm(cloud.xyz[:, None, :] - cloud.xyz[None, :, :], axis=2)
    counts = np.sum(d <= radius, axis=1) - 1  # drop self
    return cloud.select(counts >= min_neighbors)


def brute_force_sor(cloud, k, alpha):
    """Twin of filters.statistical_outlier_removal from sorted pairwise distances."""
    if len(cloud) <= k:
        return cloud
    d = np.linalg.norm(cloud.xyz[:, None, :] - cloud.xyz[None, :, :], axis=2)
    d_sorted = np.sort(d, axis=1)
    mean_knn = d_sorted[:, 1:k + 1].mean(axis=1)  # column 0 is the self-distance
    mu = mean_knn.mean()
    sigma = mean_knn.std()
    return cloud.select(mean_knn <= mu + alpha * sigma)


def cdf_walk_indices(weights, offset):
    """Twin of tracker.systematic_indices: walk the cumulative weights with a pointer comb."""
    n = len(weights)
    out = np.empty(n, dtype=int)
    cum = weights[0]
    i = 0
    for j in range(n):
        pointer = offset + j / n
        while pointer >= cum and i < n - 1:
            i += 1
            cum += weights[i]
        out[j] = i
    return out


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

    # no exact repeat period, so sensor.scan evaluates every frame's directions
    period = math.inf

    @property
    def ring_elevations(self) -> np.ndarray:
        if self.n_rings == 1:
            return np.zeros(1)
        return np.linspace(-self.fov_v / 2.0, self.fov_v / 2.0, self.n_rings)

    def directions(self, times: np.ndarray) -> np.ndarray:
        """(n, 3) unit ray directions at the n times, the transpose of a
        C-ordered (3, n) block."""
        t = np.asarray(times, dtype=float)
        az = (2.0 * math.pi * self.spin_rate * t) % (2.0 * math.pi)
        elev = self.ring_elevations[np.arange(len(t)) % self.n_rings]
        return _angles_to_directions(az, elev)
