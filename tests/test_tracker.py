import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cdf_walk_indices

from rosetrack.geometry import PointCloud
from rosetrack.tracker import (ParticleSet, TrackStatus, TrackerParams, estimate,
                               init_filter, predict, resample, step, systematic_indices,
                               update)

PARAMS = TrackerParams()


def cloud_at(points):
    return PointCloud(points)


EMPTY = cloud_at(np.empty((0, 3)))


def manual_set(positions, weights, seed=0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    weights = np.asarray(weights, dtype=float)
    return ParticleSet(positions, weights / weights.sum(), np.random.default_rng(seed))


class TestInitFilter:
    def test_count_and_uniform_weights(self):
        pset = init_filter(TrackerParams(n_particles=500), seed=1)
        assert len(pset) == 500
        assert np.allclose(pset.weights, 0.002)

    def test_degenerate_volume_rejected(self):
        with pytest.raises(ValueError):
            TrackerParams(surveillance_lo=(0, 0, 0), surveillance_hi=(0, 1, 1))

    def test_zero_particles_rejected(self):
        with pytest.raises(ValueError):
            TrackerParams(n_particles=0)

    def test_empirical_mean_near_volume_centroid(self):
        params = TrackerParams(n_particles=100_000,
                               surveillance_lo=(0.0, -2.0, 1.0),
                               surveillance_hi=(4.0, 2.0, 3.0))
        pset = init_filter(params, seed=7)
        centroid = np.array([2.0, 0.0, 2.0])
        extent = np.array([4.0, 4.0, 2.0])
        assert np.all(np.abs(pset.positions.mean(axis=0) - centroid) < 0.01 * extent)

    def test_deterministic_under_seed(self):
        a = init_filter(PARAMS, seed=42)
        b = init_filter(PARAMS, seed=42)
        assert np.array_equal(a.positions, b.positions)


class TestPredict:
    def test_zero_sigma_keeps_positions(self):
        pset = init_filter(PARAMS, seed=0)
        out = predict(pset, TrackerParams(sigma_pred=0.0))
        assert np.array_equal(out.positions, pset.positions)
        assert np.array_equal(out.weights, pset.weights)

    def test_fixed_seed_bit_identical(self):
        a = predict(init_filter(PARAMS, seed=5), PARAMS)
        b = predict(init_filter(PARAMS, seed=5), PARAMS)
        assert np.array_equal(a.positions, b.positions)

    def test_spread_grows_like_variance_addition(self):
        # Monte Carlo oracle: after k no-measurement predicts the per-axis
        # sigma approaches sqrt(sigma_0^2 + k * sigma_pred^2)
        params = TrackerParams(n_particles=4000, sigma_pred=0.1)
        rng = np.random.default_rng(3)
        positions = rng.normal(0.0, 0.2, (4000, 3))
        pset = ParticleSet(positions, np.full(4000, 1 / 4000), np.random.default_rng(9))
        k = 25
        for _ in range(k):
            pset = predict(pset, params)
        want = math.sqrt(0.2 ** 2 + k * 0.1 ** 2)
        got = pset.positions.std(axis=0).mean()
        assert abs(got - want) / want < 0.05


class TestUpdate:
    def test_empty_cloud_bumps_age_only(self):
        pset = init_filter(PARAMS, seed=0)
        out = update(pset, EMPTY, PARAMS)
        assert out.last_measurement_age == 1
        assert np.array_equal(out.weights, pset.weights)
        out2 = update(out, EMPTY, PARAMS)
        assert out2.last_measurement_age == 2

    def test_equidistant_particles_share_weight(self):
        pset = manual_set([[1, 0, 0], [-1, 0, 0]], [0.5, 0.5])
        out = update(pset, cloud_at([[0, 0, 0]]), PARAMS)
        assert np.allclose(out.weights, [0.5, 0.5])
        assert out.last_measurement_age == 0

    def test_gaussian_kernel_weight_ratio(self):
        # particles at distance 0 and sigma_meas from the centroid: the
        # posterior weight ratio is exp(1/2)
        sigma = PARAMS.sigma_meas
        pset = manual_set([[0, 0, 0], [sigma, 0, 0]], [0.5, 0.5])
        out = update(pset, cloud_at([[0, 0, 0]]), PARAMS)
        assert out.weights[0] / out.weights[1] == pytest.approx(math.exp(0.5), rel=1e-9)

    def test_weights_renormalised(self):
        pset = init_filter(PARAMS, seed=1)
        out = update(pset, cloud_at([[4.0, 0.0, 1.0]]), PARAMS)
        assert abs(out.weights.sum() - 1.0) < 1e-12

    def test_centroid_of_cloud_is_the_measurement(self):
        # two clouds with the same centroid weight particles identically
        pset = manual_set([[0, 0, 0], [1, 1, 1]], [0.5, 0.5], seed=2)
        a = update(pset, cloud_at([[0.5, 0.5, 0.5]]), PARAMS)
        b = update(pset, cloud_at([[0.4, 0.4, 0.4], [0.6, 0.6, 0.6]]), PARAMS)
        assert np.allclose(a.weights, b.weights)

    def test_distant_cloud_cannot_zero_all_weights(self):
        # log-space normalisation keeps the nearest particle at finite weight
        pset = init_filter(PARAMS, seed=3)
        out = update(pset, cloud_at([[500.0, 500.0, 500.0]]), PARAMS)
        assert not out.degenerate
        assert abs(out.weights.sum() - 1.0) < 1e-12
        assert out.weights.max() > 0

    def test_all_zero_weights_reach_the_degenerate_branch(self):
        # unreachable from step (see TestStep), kept for direct API calls
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pset = ParticleSet(positions, np.zeros(2), np.random.default_rng(0),
                           last_measurement_age=3)
        out = update(pset, cloud_at([[0.5, 0.0, 0.0]]), PARAMS)
        assert out.degenerate
        assert np.array_equal(out.weights, [0.5, 0.5])
        assert np.array_equal(out.positions, positions)
        assert out.last_measurement_age == 0
        assert estimate(out, PARAMS).status is TrackStatus.SEARCHING


class TestResample:
    def test_uniform_weights_copy_every_particle_once(self):
        for seed in range(5):
            pset = init_filter(PARAMS, seed=seed)
            out = resample(pset)
            assert np.array_equal(np.sort(out.positions, axis=0),
                                  np.sort(pset.positions, axis=0))
            assert np.allclose(out.weights, 1.0 / len(pset))

    def test_degenerate_weight_vector_copies_winner(self):
        n = 64
        weights = np.zeros(n)
        weights[17] = 1.0
        pset = ParticleSet(np.arange(n * 3, dtype=float).reshape(n, 3), weights,
                           np.random.default_rng(0))
        out = resample(pset)
        assert np.all(out.positions == pset.positions[17])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_matches_cdf_walk_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        weights = rng.random(n) + 1e-9
        weights /= weights.sum()
        offset = float(rng.random()) / n
        assert np.array_equal(systematic_indices(weights, offset),
                              cdf_walk_indices(weights, offset))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_copy_counts_within_one_of_expectation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 300))
        weights = rng.random(n) + 1e-9
        weights /= weights.sum()
        offset = float(rng.random()) / n
        counts = np.bincount(systematic_indices(weights, offset), minlength=n)
        assert np.all(np.abs(counts - n * weights) <= 1.0 + 1e-9)

    def test_mean_preserved_within_statistical_bound(self):
        rng = np.random.default_rng(123)
        violations = 0
        for trial in range(1000):
            n = 400
            positions = rng.normal(0, 1.0, (n, 3))
            weights = rng.random(n)
            weights /= weights.sum()
            pset = ParticleSet(positions, weights, np.random.default_rng(trial))
            mean_before = weights @ positions
            sigma = np.sqrt(weights @ (positions - mean_before) ** 2).mean()
            out = resample(pset)
            mean_after = out.positions.mean(axis=0)
            if np.linalg.norm(mean_after - mean_before) > 3 * sigma / math.sqrt(n):
                violations += 1
        assert violations == 0

    def test_particle_count_invariant(self):
        pset = init_filter(PARAMS, seed=0)
        out = resample(update(predict(pset, PARAMS), cloud_at([[4, 0, 1]]), PARAMS))
        assert len(out) == len(pset)


class TestEstimate:
    def test_collapsed_cloud_is_stable_with_zero_sigma(self):
        pset = manual_set([[2, 2, 2]] * 4, [0.25] * 4)
        est = estimate(pset, PARAMS)
        assert est.sigma_particles == 0.0
        assert est.status is TrackStatus.STABLE
        assert np.allclose(est.position, [2, 2, 2])

    def test_sigma_just_over_threshold_is_not_stable(self):
        # sigma_particles 0.16 m vs threshold 0.15 m (1.5 x sigma_pred)
        rng = np.random.default_rng(0)
        n = 200_000
        positions = rng.normal(0.0, 0.16, (n, 3))
        pset = ParticleSet(positions, np.full(n, 1 / n), rng)
        est = estimate(pset, PARAMS)
        assert 0.155 < est.sigma_particles < 0.165
        assert est.status is TrackStatus.SEARCHING
        assert PARAMS.stability_threshold == pytest.approx(0.15)

    def test_lost_after_consecutive_misses(self):
        params = TrackerParams(lost_after_misses=10)
        pset = manual_set([[0, 0, 0]] * 3, [1, 1, 1])
        for _ in range(11):
            pset = update(pset, EMPTY, params)
        est = estimate(pset, params)
        assert est.status is TrackStatus.LOST

    def test_lost_takes_precedence_over_sigma(self):
        params = TrackerParams(lost_after_misses=1)
        pset = manual_set([[0, 0, 0]] * 3, [1, 1, 1])
        pset = update(pset, EMPTY, params)
        est = estimate(pset, params)
        assert est.sigma_particles < params.stability_threshold
        assert est.status is TrackStatus.LOST

    def test_weighted_mean_used(self):
        pset = manual_set([[0, 0, 0], [1, 0, 0]], [0.75, 0.25])
        est = estimate(pset, PARAMS)
        assert np.allclose(est.position, [0.25, 0, 0])


class TestStep:
    def test_no_measurement_branch_is_predict_only(self):
        a = init_filter(PARAMS, seed=11)
        b = init_filter(PARAMS, seed=11)
        out_a, est = step(a, None, PARAMS)
        out_b = predict(b, PARAMS)
        assert np.array_equal(out_a.positions, out_b.positions)
        assert out_a.last_measurement_age == 0
        assert est.status is TrackStatus.SEARCHING

    def test_measurement_branch_resamples_to_uniform_weights(self):
        pset = init_filter(PARAMS, seed=11)
        out, _ = step(pset, cloud_at([[4, 0, 1]]), PARAMS)
        assert np.allclose(out.weights, 1.0 / len(out))

    def test_empty_cloud_counts_as_missing_measurement(self):
        pset = init_filter(PARAMS, seed=11)
        out, _ = step(pset, EMPTY, PARAMS)
        assert out.last_measurement_age == 1

    def test_hovering_target_locks_within_two_updates(self):
        # simulated lock-on: uniform prior over the arena, measurements of a
        # hovering target every lidar-period tick
        target = np.array([4.0, -0.9, 1.2])
        rng = np.random.default_rng(0)
        locked_runs = 0
        for seed in range(20):
            pset = init_filter(PARAMS, seed=seed)
            updates = 0
            sigma_ok = False
            for k in range(15):
                meas = cloud_at(target + rng.normal(0, 0.02, (25, 3)))
                deliver = k % 3 != 2  # every third tick is predict-only
                pset, est = step(pset, meas if deliver else None, PARAMS)
                if deliver:
                    updates += 1
                if deliver and updates <= 2 and est.sigma_particles < 0.15:
                    sigma_ok = True
                    break
            if sigma_ok:
                locked_runs += 1
        assert locked_runs >= 19

    @given(seed=st.integers(0, 2**32 - 1), n_particles=st.integers(1, 60),
           sigma_pred=st.floats(0.0, 0.5), sigma_meas=st.floats(1e-3, 1.0),
           frames=st.lists(st.tuples(st.sampled_from(["none", "empty", "cloud"]),
                                     st.integers(1, 30), st.floats(1.0, 1e4)),
                           min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_step_never_degenerate_on_finite_clouds(self, seed, n_particles, sigma_pred,
                                                     sigma_meas, frames):
        # every set step reaches has positive uniform weights (init_filter,
        # then resampling), and the log-space shift gives the most likely
        # particle factor 1, so the weight total stays positive; clouds
        # reach up to 1e4 m, far past any sensor range. Consecutive sets share
        # arrays, so each one is read-only: a step that wrote in place raises
        params = TrackerParams(n_particles=n_particles, sigma_pred=sigma_pred,
                               sigma_meas=sigma_meas)
        rng = np.random.default_rng(seed)
        pset = init_filter(params, rng)
        for kind, n_points, scale in frames:
            cloud = {"none": None, "empty": EMPTY,
                     "cloud": cloud_at(rng.uniform(-scale, scale, (n_points, 3)))}[kind]
            pset.positions.flags.writeable = False
            pset.weights.flags.writeable = False
            pset, _ = step(pset, cloud, params)
            assert not pset.degenerate

    def test_step_reaches_degenerate_only_when_distances_overflow(self):
        # a cloud so far away that (d / sigma_meas)^2 overflows for every
        # particle gives -inf log-likelihoods, whose shift is NaN; step
        # handles both without a RuntimeWarning
        pset = init_filter(PARAMS, seed=0)
        out, est = step(pset, cloud_at([[1e200, 0.0, 0.0]]), PARAMS)
        assert out.degenerate
        assert est.status is TrackStatus.SEARCHING
        assert np.allclose(out.weights, 1.0 / len(out))

    def test_sigma_nondecreasing_without_measurements(self):
        # inflation property, in expectation across seeds
        params = TrackerParams(n_particles=500)
        deltas = []
        for seed in range(30):
            pset = init_filter(params, seed=seed)
            pset = resample(update(pset, cloud_at([[4, 0, 1]]), params))
            sigmas = []
            for _ in range(20):
                pset, est = step(pset, None, params)
                sigmas.append(est.sigma_particles)
            deltas.append(np.diff(sigmas))
        assert np.mean(np.vstack(deltas), axis=0).min() > 0
