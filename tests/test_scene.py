import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack.scene import (Box, Scene, Surface, TargetModel, Trajectory, WeatherModel,
                             make_pattern, ray_cast, return_probability)


def brute_force_ray_cast(scene, origin, direction, t):
    """Exhaustive intersection over all primitives (slab method for boxes)."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    best, surface = math.inf, None
    if direction[2] != 0.0:
        tg = (scene.ground_z - origin[2]) / direction[2]
        if 1e-9 < tg < best:
            best, surface = tg, Surface.GROUND
    for box in scene.obstacles:
        tmin, tmax = -math.inf, math.inf
        ok = True
        for ax in range(3):
            if direction[ax] == 0.0:
                if not box.lo[ax] <= origin[ax] <= box.hi[ax]:
                    ok = False
                    break
            else:
                t1 = (box.lo[ax] - origin[ax]) / direction[ax]
                t2 = (box.hi[ax] - origin[ax]) / direction[ax]
                tmin = max(tmin, min(t1, t2))
                tmax = min(tmax, max(t1, t2))
        if ok and tmax >= max(tmin, 1e-9):
            thit = tmin if tmin > 1e-9 else tmax
            if 1e-9 < thit < best:
                best, surface = thit, Surface.OBSTACLE
    if scene.target is not None:
        c = scene.target.trajectory.position(t)
        r = scene.target.diameter / 2
        oc = origin - c
        b = float(oc @ direction)
        disc = b * b - (float(oc @ oc) - r * r)
        if disc >= 0:
            for thit in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                if 1e-9 < thit < best:
                    best, surface = thit, Surface.TARGET
                    break
    return None if surface is None else (best, surface)


class TestTrajectory:
    def test_hold_phase_returns_first_waypoint(self):
        traj = Trajectory([((1, 2, 3), 2.0), ((4, 2, 3), 0.0)], segment_duration=3.0)
        for t in (0.0, 0.5, 1.999):
            assert np.allclose(traj.position(t), (1, 2, 3))

    def test_segment_midpoint_is_geometric_midpoint(self):
        traj = Trajectory([((0, 0, 1), 1.0), ((1.8, 0, 1), 0.0)], segment_duration=3.0)
        assert np.allclose(traj.position(1.0 + 1.5), (0.9, 0, 1), atol=1e-12)

    def test_fast_segment_peak_speed(self):
        # raised-cosine profile: peak speed is (pi/2) * mean speed; for the
        # 1.8 m fast segment flown in 2.25 s that is ~1.2566 m/s, matching a
        # quad flying "around 1.2 m/s"
        traj = Trajectory([((0, 0, 1), 0.1), ((1.8, 0, 1), 0.1)], segment_duration=2.25)
        ts = np.linspace(0.1, 0.1 + 2.25, 20001)
        speeds = traj.speed(ts)
        peak = float(np.max(speeds))
        assert abs(peak - (math.pi / 2) * (1.8 / 2.25)) < 1e-4
        assert 1.2 < peak < 1.3
        # numeric differentiation agrees with the analytic profile speed
        eps = 1e-5
        mid = 0.1 + 2.25 / 2
        numeric = np.linalg.norm(traj.position(mid + eps) - traj.position(mid - eps)) / (2 * eps)
        assert abs(numeric - peak) < 1e-4

    @given(t=st.floats(0.0, 40.0))
    @settings(max_examples=150)
    def test_position_continuity(self, t):
        traj = make_pattern("vertical")
        v_max = 1.8 * math.pi / (2 * 3.0) + 1e-9
        eps = 1e-3
        step = np.linalg.norm(traj.position(t + eps) - traj.position(t))
        assert step <= v_max * eps + 1e-9

    def test_holds_last_waypoint_after_final_repeat(self):
        traj = Trajectory([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)], 2.0, repeat_count=2)
        end = traj.total_duration
        assert np.allclose(traj.position(end + 5.0), traj.position(end + 50.0))

    def test_start_time_offset_parks_at_first_waypoint(self):
        traj = Trajectory([((1, 1, 1), 1.0), ((2, 1, 1), 0.0)], 2.0, start_time=5.0)
        assert np.allclose(traj.position(0.0), (1, 1, 1))
        assert np.allclose(traj.position(4.9), (1, 1, 1))
        assert np.allclose(traj.position(5.0 + 1.0 + 1.0), (1.5, 1, 1))

    def test_invariants(self):
        with pytest.raises(ValueError):
            Trajectory([], 1.0)
        with pytest.raises(ValueError):
            Trajectory([((0, 0, 0), 0.0)], 0.0)
        with pytest.raises(ValueError):
            Trajectory([((0, 0, 0), 0.0)], 1.0, repeat_count=0)


class TestRayCast:
    def test_straight_down_hits_ground(self):
        scene = Scene(0.0, [], None, WeatherModel())
        hit = ray_cast(scene, (0, 0, 10.0), (0, 0, -1.0), 0.0)
        assert hit == (10.0, Surface.GROUND)

    def test_sphere_chord_range(self):
        target = TargetModel(0.35, 1.0, Trajectory([((5, 0, 1), 1.0)], 1.0))
        scene = Scene(-10.0, [], target, WeatherModel())
        hit = ray_cast(scene, (0, 0, 1.0), (1.0, 0, 0), 0.0)
        assert hit is not None
        rng, surf = hit
        assert surf is Surface.TARGET
        assert abs(rng - (5.0 - 0.175)) < 1e-12

    def test_obstacle_occludes_target(self):
        target = TargetModel(0.35, 1.0, Trajectory([((6, 0, 1), 1.0)], 1.0))
        box = Box((3.0, -0.5, 0.0), (3.2, 0.5, 2.0))
        scene = Scene(-10.0, [box], target, WeatherModel())
        hit = ray_cast(scene, (0, 0, 1.0), (1.0, 0, 0), 0.0)
        assert hit == (3.0, Surface.OBSTACLE)

    def test_requires_unit_direction(self):
        scene = Scene(0.0, [], None, WeatherModel())
        with pytest.raises(ValueError):
            ray_cast(scene, (0, 0, 1), (0, 0, -2.0), 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_oracle_on_random_scenes(self, seed):
        rng = np.random.default_rng(seed)
        boxes = []
        for _ in range(rng.integers(0, 4)):
            lo = rng.uniform([-10, -10, 0], [10, 10, 3])
            hi = lo + rng.uniform(0.2, 3.0, 3)
            boxes.append(Box(tuple(lo), tuple(hi)))
        target = TargetModel(float(rng.uniform(0.1, 1.0)), 1.0,
                             Trajectory([(tuple(rng.uniform([-8, -8, 1], [8, 8, 3])), 1.0)], 1.0))
        scene = Scene(float(rng.uniform(-1, 0.2)), boxes, target, WeatherModel())
        origin = rng.uniform([-5, -5, 1], [5, 5, 4])
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        got = ray_cast(scene, origin, d, 0.5)
        want = brute_force_ray_cast(scene, origin, d, 0.5)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1] is want[1]
            assert abs(got[0] - want[0]) < 1e-9


class TestReturnProbability:
    def scene_with(self, beta=0.0, threshold=0.02, r_sat=90.0, refl=0.5):
        target = TargetModel(0.35, refl, Trajectory([((5, 0, 1), 1.0)], 1.0))
        return Scene(0.0, [], target, WeatherModel(beta, threshold, r_sat))

    def test_near_field_saturation_equals_reflectivity(self):
        scene = self.scene_with(refl=0.5)
        assert return_probability(10.0, True, scene) == pytest.approx(0.5)
        assert return_probability(90.0, True, scene) == pytest.approx(0.5)

    def test_clear_vs_fog_ratio_is_exp_three(self):
        # two-way extinction: exp(2 * 0.03 * 50) = e^3
        clear = self.scene_with(beta=0.0, threshold=1e-9, refl=0.9)
        foggy = self.scene_with(beta=0.03, threshold=1e-9, refl=0.9)
        ratio = return_probability(50.0, True, clear) / return_probability(50.0, True, foggy)
        assert ratio == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_background_uses_unit_reflectivity(self):
        scene = self.scene_with(refl=0.25)
        assert return_probability(50.0, False, scene) == pytest.approx(1.0)
        assert return_probability(50.0, True, scene) == pytest.approx(0.25)

    def test_threshold_zeroes_weak_returns(self):
        scene = self.scene_with(threshold=0.3, refl=0.9, r_sat=50.0)
        assert return_probability(200.0, True, scene) == 0.0  # 0.9*(50/200)^2 ~ 0.056 < 0.3
        assert return_probability(60.0, True, scene) > 0.0

    @given(r1=st.floats(1.0, 200.0), r2=st.floats(1.0, 200.0),
           beta=st.floats(0.0, 0.1))
    @settings(max_examples=100)
    def test_monotone_nonincreasing_in_range_and_beta(self, r1, r2, beta):
        lo, hi = sorted((r1, r2))
        scene = self.scene_with(beta=beta, threshold=1e-9, refl=0.8)
        assert return_probability(hi, True, scene) <= return_probability(lo, True, scene) + 1e-15
        clearer = self.scene_with(beta=0.0, threshold=1e-9, refl=0.8)
        assert return_probability(hi, True, scene) <= return_probability(hi, True, clearer) + 1e-15

    def test_rejects_non_positive_range(self):
        with pytest.raises(ValueError):
            return_probability(0.0, True, self.scene_with())


class TestMakePattern:
    def test_vertical_traversed_three_times(self):
        traj = make_pattern("vertical")
        assert traj.repeat_count == 3
        # 4 waypoints, wait 2 s each, 3 s segments, closing segments between passes
        per_pass = 4 * 2.0 + 3 * 3.0
        expected = per_pass * 3 + 3.0 * 2  # 2 closing segments
        assert traj.total_duration == pytest.approx(expected)
        assert np.allclose(traj.start_position, traj.waypoints[0][0])

    def test_fast_segment_duration(self):
        traj = make_pattern("fast")
        assert traj.segment_duration == 2.25
        assert traj.repeat_count == 4

    def test_lost_and_found_middle_waypoint_occludable(self):
        # the bundled geometry: an obstacle between the sensor and the middle
        # waypoint blocks the line of sight exactly there
        traj = make_pattern("lost_and_found", center=(4.0, 0.0, 1.2), extent=1.8)
        box = Box((2.0, -0.5, 0.0), (2.4, 0.5, 2.4))
        target = TargetModel(0.1, 0.9, traj)
        scene = Scene(0.0, [box], target, WeatherModel())
        origin = np.array([0.0, 0.0, 1.0])
        mids = {0: None, 1: None, 2: None}
        for i, (wp, _) in enumerate(traj.waypoints):
            d = np.asarray(wp) - origin
            d /= np.linalg.norm(d)
            hit = ray_cast(Scene(0.0, [box], None, WeatherModel()), origin, d, 0.0)
            mids[i] = hit
        assert mids[1] is not None and mids[1][1] is Surface.OBSTACLE
        assert mids[0] is None and mids[2] is None

    def test_range_sweep_speed_cap(self):
        traj = make_pattern("range_sweep", center=(8.0, 0.0, 3.0), max_range=150.0,
                            sweep_speed=6.0)
        ts = np.linspace(0.0, traj.total_duration, 50001)
        assert float(np.max(traj.speed(ts))) <= 6.0 + 1e-6

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("spiral")


class TestDomainInvariants:
    def test_box_positive_extent(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), (1, 0, 1))

    def test_target_model_invariants(self):
        traj = Trajectory([((0, 0, 0), 1.0)], 1.0)
        with pytest.raises(ValueError):
            TargetModel(0.0, 0.5, traj)
        with pytest.raises(ValueError):
            TargetModel(0.1, 0.0, traj)
        with pytest.raises(ValueError):
            TargetModel(0.1, 1.5, traj)

    def test_weather_model_invariants(self):
        with pytest.raises(ValueError):
            WeatherModel(extinction_beta=-0.1)
        with pytest.raises(ValueError):
            WeatherModel(detection_threshold=0.0)
        with pytest.raises(ValueError):
            WeatherModel(detection_threshold=1.0)
