"""Exact oracle twins of the fast paths in src/, for the tests to compare with.

Each twin computes the same result as its fast counterpart by the direct
O(n^2) or pointer-walk method, so the two must agree exactly.
"""

import numpy as np


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
