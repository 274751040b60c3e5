import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import RingScanParams, gather_twice_scan

from rosetrack.config import parse_config
from rosetrack.filters import FilterParams, range_filter
from rosetrack.geometry import PanTiltPose, SensorPose, pan_tilt_to_rotation, transform_cloud
from rosetrack.scene import (GROUND, TARGET, Box, Scene, TargetModel, Trajectory, WeatherModel,
                             ray_cast_arrays)
from rosetrack.harness import event_times
from rosetrack.sensor import (CACHED_PHASES, MAX_RAYS_PER_FRAME, RosetteParams, _frame_directions,
                              _phase_directions, event_count, exact, scan)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

NO_CUTOFF = WeatherModel(extinction_beta=0.0, detection_threshold=1e-6, saturation_range=1e6)


def static_target(pos, diameter=0.35, reflectivity=1.0):
    return TargetModel(diameter, reflectivity, Trajectory([(tuple(pos), 1.0)], 1.0))


class TestRosetteDirection:
    def test_boresight_at_time_zero(self):
        # the two phasors start in phase opposition, cancelling exactly
        u = RosetteParams().directions(np.array([0.0]))[0]
        assert np.allclose(u, (1.0, 0.0, 0.0), atol=1e-12)

    def test_centre_crossings_at_phase_opposition(self):
        # the deflection vanishes whenever the phasor angles differ by pi,
        # i.e. at multiples of 1 / (f1 + f2)
        p = RosetteParams(f1=50.0, f2=31.0)
        for k in (1, 2, 5, 17):
            t = k / (p.f1 + p.f2)
            a_h, a_v = p.deflections(np.array([t]))
            assert abs(a_h[0]) < 1e-9 and abs(a_v[0]) < 1e-9

    def test_deflection_amplitude_reaches_half_fov(self):
        # dense numerical sweep: max |a_h| approaches fov_h / 2
        p = RosetteParams(f1=50.0, f2=31.0)
        t = np.linspace(0.0, 1.0, 1_000_000, endpoint=False)
        a_h, a_v = p.deflections(t)
        assert abs(np.max(np.abs(a_h)) - p.fov_h / 2) < 1e-3
        assert np.max(np.abs(a_h)) <= p.fov_h / 2 + 1e-12
        assert np.max(np.abs(a_v)) <= p.fov_v / 2 + 1e-12

    def test_unit_norm(self):
        u = RosetteParams().directions(np.array([0.0, 0.013, 0.27, 1.9]))
        assert np.all(np.abs(np.linalg.norm(u, axis=1) - 1.0) < 1e-9)

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            RosetteParams(f1=10.0, f2=10.0)
        with pytest.raises(ValueError):
            RosetteParams(fov_h=0.0)
        with pytest.raises(ValueError):
            RosetteParams(point_rate=-1)

    def test_rays_per_frame_cap_is_inclusive(self):
        # constructing the parameters allocates nothing, so the cap itself is probed
        params = RosetteParams(point_rate=float(MAX_RAYS_PER_FRAME), lidar_rate=1.0)
        assert params.rays_per_frame == MAX_RAYS_PER_FRAME
        with pytest.raises(ValueError, match="rays per frame"):
            RosetteParams(point_rate=float(MAX_RAYS_PER_FRAME + 1), lidar_rate=1.0)
        for bad in ({"point_rate": math.inf}, {"lidar_rate": 0.0}, {"lidar_rate": 5e-324},
                    {"point_rate": 1e300, "lidar_rate": 1e-300}):
            with pytest.raises(ValueError):
                RosetteParams(**bad)


# the bundled configs and one pattern within 1e-6 of theirs but not equal:
# there is no exact period to reuse blocks by
CACHE_CASES = {**{p.stem: (p, []) for p in sorted(CONFIG_DIR.glob("*.cfg"))},
               "indoor_fast-f1=161.0000001": (CONFIG_DIR / "indoor_fast.cfg",
                                              ["sensor.f1=161.0000001"])}


def frame_starts(path, overrides):
    """A config's pattern and the exact start times of its raster and
    tracking frames, as run_scenario passes them to scan."""
    cfg = parse_config(path, overrides)
    lr, t_track0 = exact(cfg.lidar_rate), exact(cfg.turret.scan_duration)
    raster = [k / lr for k in range(event_count(cfg.turret.scan_duration, cfg.lidar_rate))]
    tracking = [t_track0 + k / lr for k in range(event_count(cfg.duration, cfg.lidar_rate))]
    return cfg.sensor, raster + tracking


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_bundled_frames_start_at_their_logged_times(path):
    # a bundled frame's rays are timed from float(exact start): that is the
    # float start t0 + k / lidar_rate of the logs, so the rays keep their times
    cfg = parse_config(path)
    floats = np.concatenate([event_times(0.0, cfg.turret.scan_duration, cfg.lidar_rate),
                             event_times(cfg.turret.scan_duration, cfg.duration, cfg.lidar_rate)])
    assert [float(t0) for t0 in frame_starts(path, [])[1]] == floats.tolist()


class TestDirectionCache:
    @pytest.mark.parametrize("case", list(CACHE_CASES))
    def test_cached_directions_match_direct_evaluation(self, case):
        # frames at the same pattern phase share one block keyed by the exact
        # phase, exact(t0) % period; at every exact frame start of the raster and
        # of the tracking phase that block must equal directions at the frame's
        # own times. The bundled configs share one pattern and many frame starts,
        # so a case checks only the starts that no earlier case with its pattern checks
        cases = list(CACHE_CASES.values())
        k = list(CACHE_CASES).index(case)
        params, starts = frame_starts(*cases[k])
        starts = set(starts)
        for earlier in cases[:k]:
            earlier_params, earlier_starts = frame_starts(*earlier)
            if earlier_params == params:
                starts -= set(earlier_starts)
        n = params.rays_per_frame
        offsets = np.arange(n) * (params.integration_time / n)
        worst = max((np.max(np.abs(_frame_directions(params, t0)
                                   - params.directions(float(t0) + offsets).T))
                     for t0 in sorted(starts)),
                    default=0.0)
        assert worst <= 1e-9

    @pytest.mark.parametrize("f1, f2, blocks, hits", [
        (50.2, 31.0, 0, 0),  # period 5 s: 50 frames, more than the cache holds
        (50.5, 31.0, 20, 80),  # period 2 s
        # period 3.2 s, exactly CACHED_PHASES frames; t0 = 9.6 s, whose float
        # modulo 3.2 is 3.2 s less an ulp, is exactly phase 0, not a 33rd key
        (50.3125, 31.25, CACHED_PHASES, 68),
        (50.0000001, 31.0, 0, 0),  # no exact period
    ])
    def test_pattern_cached_iff_its_period_fits_the_cache(self, f1, f2, blocks, hits):
        # 100 consecutive 0.1 s frames: a cached pattern keeps one block per
        # phase and reads it again on every later lap
        params = RosetteParams(f1=f1, f2=f2, point_rate=240.0)
        _phase_directions.cache_clear()
        for k in range(100):
            _frame_directions(params, k / 10)
        info = _phase_directions.cache_info()
        assert (info.currsize, info.hits) == (blocks, hits)

    @pytest.mark.parametrize("lidar_rate, blocks, hits", [
        (10.0, 10, 90),  # the 1 s period spans 10 frames
        # 9.7 frames per period: frame starts visit 97 phases, so none is cached
        (9.7, 0, 0),
    ])
    def test_pattern_cached_iff_its_frames_start_at_few_phases(self, lidar_rate, blocks, hits):
        params = RosetteParams(point_rate=24 * lidar_rate, lidar_rate=lidar_rate)
        _phase_directions.cache_clear()
        for k in range(100):
            _frame_directions(params, k / lidar_rate)
        info = _phase_directions.cache_info()
        assert (info.currsize, info.hits) == (blocks, hits)

    def test_cached_blocks_are_read_only(self):
        # every frame at one phase shares the block: an in-place write must
        # raise instead of changing the directions of later frames
        params = RosetteParams()
        dirs = _frame_directions(params, 0.0)
        assert _frame_directions(params, params.period) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        with pytest.raises(ValueError):
            dirs *= 2.0


class TestPatternDensity:
    def test_coverage_grows_over_successive_frames(self):
        # non-repetitiveness: new angular cells keep getting visited
        p = RosetteParams()
        n = int(p.point_rate * p.integration_time)
        seen = set()
        counts = []
        for k in range(5):
            t = k * p.integration_time + np.arange(n) / p.point_rate
            a_h, a_v = p.deflections(t)
            ix = np.floor((a_h / (p.fov_h / 2) + 1.0) / 2.0 * 64).astype(int)
            iy = np.floor((a_v / (p.fov_v / 2) + 1.0) / 2.0 * 64).astype(int)
            seen.update(zip(np.clip(ix, 0, 63).tolist(), np.clip(iy, 0, 63).tolist()))
            counts.append(len(seen))
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_centre_density_beats_outer_annulus(self):
        # points per unit pattern area: central 10% vs the outer 10% ring
        p = RosetteParams()
        n = int(p.point_rate * p.integration_time)
        t = np.arange(n) / p.point_rate
        a_h, a_v = p.deflections(t)
        rho = np.hypot(a_h / (p.fov_h / 2), a_v / (p.fov_v / 2))
        inner = np.sum(rho <= 0.1) / (math.pi * 0.1 ** 2)
        outer = np.sum((rho >= 0.9) & (rho <= 1.0)) / (math.pi * (1.0 - 0.9 ** 2))
        assert inner >= 2.0 * outer

    def test_every_point_inside_fov_and_range(self):
        p = RosetteParams(range_noise_sigma=0.01)
        scene = Scene(0.0, [], static_target((6.0, 0.5, 1.0)), NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 1.0)), 0.0, p, np.random.default_rng(1))
        assert len(points)
        u = points / np.linalg.norm(points, axis=1, keepdims=True)
        a_h = np.arctan2(u[:, 1], u[:, 0])
        a_v = np.arctan2(u[:, 2], np.hypot(u[:, 0], u[:, 1]))
        assert np.all(np.abs(a_h) <= p.fov_h / 2 + 1e-9)
        assert np.all(np.abs(a_v) <= p.fov_v / 2 + 1e-9)
        assert np.all(np.linalg.norm(points, axis=1) <= p.range_max + 5 * p.range_noise_sigma)


class TestScan:
    def test_empty_scene_empty_cloud(self):
        scene = Scene(-100.0, [], None, NO_CUTOFF)  # ground far below every ray
        p = RosetteParams(range_max=50.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        points, codes = scan(scene, SensorPose((0, 0, 1.0)), 0.0, p, rng)
        assert points.shape == (0, 3) and points.dtype == np.float64
        assert codes.shape == (0,) and codes.dtype == np.int8
        assert rng.bit_generator.state == before

    def test_ray_count_bound(self):
        p = RosetteParams(point_rate=5000, lidar_rate=10.0)
        wall = Box((9.9, -50, -50), (10.1, 50, 50))
        scene = Scene(-100.0, [wall], None, NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 0)), 0.5, p,
                         np.random.default_rng(0))
        assert len(points) <= int(p.point_rate * p.integration_time)

    def test_ray_count_not_truncated_by_float_error(self):
        # 24960 * (1 / 1.04) == 23999.999999999996 in floating point; the
        # frame still holds 24000 rays, all of which hit the wall
        p = RosetteParams(point_rate=24960.0, lidar_rate=1.04)
        assert p.point_rate * p.integration_time < 24000 == p.rays_per_frame
        wall = Box((9.9, -50, -50), (10.1, 50, 50))
        scene = Scene(-100.0, [wall], None, NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 0)), 0.0, p, np.random.default_rng(0))
        assert len(points) == 24000

    def test_rays_per_frame_reads_the_rates_not_the_frame_length(self):
        # 1 / 0.29 is no decimal rate: 100 rays/s over its exact period of
        # 1 / 3.4482758620689657 s is 28.99... rays, so 28 is exact
        p = RosetteParams(point_rate=100.0, lidar_rate=1 / 0.29)
        assert p.rays_per_frame == 28

    @given(centi_rate=st.integers(100, 10_000), n=st.integers(1, 10_000))
    @example(centi_rate=104, n=24_000)
    @settings(max_examples=300, deadline=None)
    def test_whole_rays_per_frame_at_decimal_rates(self, centi_rate, n):
        # a 2-decimal frame rate in [1, 100] Hz and point_rate = n * rate:
        # whenever the float product round-trips (it is the float of the
        # decimal n * rate, as a config writes it), the frame has n rays
        rate = centi_rate / 100
        point_rate = n * rate
        assume(float(Fraction(n * centi_rate, 100)) == point_rate)
        assert RosetteParams(point_rate=point_rate, lidar_rate=rate).rays_per_frame == n

    @pytest.mark.parametrize("t0", [-0.1, math.nan, math.inf])
    def test_frame_start_must_be_finite_and_non_negative(self, t0):
        # rejected before the direction cache, which would keep a dead entry;
        # the cache sees neither a hit nor a miss (a full cache keeps its size)
        scene = Scene(-100.0, [], None, NO_CUTOFF)
        cached = _phase_directions.cache_info()
        with pytest.raises(ValueError, match="frame start time must be finite and >= 0"):
            scan(scene, SensorPose((0, 0, 1.0)), t0, RosetteParams(), np.random.default_rng(0))
        assert _phase_directions.cache_info() == cached

    def test_less_than_one_ray_per_frame_rejected(self):
        with pytest.raises(ValueError, match="no ray per frame"):
            RosetteParams(point_rate=5.0, lidar_rate=10.0)

    def test_plane_ranges_match_analytic_intersection(self):
        # a wall face perpendicular to the boresight at 10 m: every return's
        # range must equal 10 / cos(angle from boresight)
        p = RosetteParams(point_rate=20000, lidar_rate=10.0,
                          range_noise_sigma=0.0, range_max=100.0)
        wall = Box((10.0, -60.0, -60.0), (10.5, 60.0, 60.0))
        scene = Scene(-100.0, [wall], None, NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 0)), 0.0, p, np.random.default_rng(0))
        assert len(points) > 1000
        ranges = np.linalg.norm(points, axis=1)
        cos_off = points[:, 0] / ranges
        assert np.allclose(ranges, 10.0 / cos_off, atol=1e-9)

    def test_centered_target_gets_more_returns_than_off_axis(self):
        # Monte Carlo across frames: a sphere on the boresight collects at
        # least twice the returns of the same sphere at 80% of the half-FoV
        p = RosetteParams(point_rate=24000, lidar_rate=10.0,
                          range_noise_sigma=0.0)
        rng = np.random.default_rng(42)
        r = 8.0
        off_angle = 0.8 * p.fov_h / 2
        center_scene = Scene(-100.0, [], static_target((r, 0.0, 0.0)), NO_CUTOFF)
        off_scene = Scene(-100.0, [], static_target(
            (r * math.cos(off_angle), r * math.sin(off_angle), 0.0)), NO_CUTOFF)
        pose = SensorPose((0, 0, 0))

        def target_hits(scene):
            total = 0
            for k in range(100):
                _, surf = scan(scene, pose, k * 0.1, p, rng)
                total += int(np.sum(surf == 2))
            return total

        assert target_hits(center_scene) >= 2 * target_hits(off_scene)

    def test_deterministic_under_fixed_seed(self):
        p = RosetteParams(point_rate=10000)
        scene = Scene(0.0, [], static_target((5, 0, 1)), WeatherModel())
        pose = SensorPose((0, 0, 1.0))
        a, _ = scan(scene, pose, 0.2, p, np.random.default_rng(123))
        b, _ = scan(scene, pose, 0.2, p, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_range_noise_perturbs_along_ray(self):
        p = RosetteParams(point_rate=20000, range_noise_sigma=0.05, range_max=100.0)
        wall = Box((10.0, -60.0, -60.0), (10.5, 60.0, 60.0))
        scene = Scene(-100.0, [wall], None, NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 0)), 0.0, p, np.random.default_rng(5))
        ranges = np.linalg.norm(points, axis=1)
        cos_off = points[:, 0] / ranges
        resid = ranges - 10.0 / cos_off
        assert 0.03 < resid.std() < 0.07
        assert abs(resid.mean()) < 0.01

    @given(seed=st.integers(0, 2**32 - 1), sigma=st.just(0.0) | st.floats(1e-4, 0.5),
           beta=st.just(0.0) | st.floats(1e-4, 0.1), r_sat=st.floats(2.0, 40.0),
           threshold=st.floats(1e-4, 0.5), refl=st.none() | st.floats(0.05, 1.0),
           t0=st.floats(0.0, 20.0), pan=st.floats(-0.6, 0.6), tilt=st.floats(-0.5, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_equals_gather_twice_oracle_bit_for_bit(self, seed, sigma, beta, r_sat, threshold,
                                                      refl, t0, pan, tilt):
        # the wall and the ground return ranges of about 3-40 m, on both sides
        # of the saturation range; refl None is a scene without a target. The
        # points, the codes and the generator state afterwards must all agree
        params = RosetteParams(point_rate=30000.0, range_noise_sigma=sigma, range_max=35.0)
        wall = Box((12.0, -40.0, -5.0), (12.5, 40.0, 40.0))
        target = None if refl is None else static_target((6.0, 0.5, 1.2), 0.6, refl)
        scene = Scene(0.0, [wall], target, WeatherModel(beta, threshold, r_sat))
        pose = SensorPose((0.0, 0.0, 1.5), PanTiltPose(pan, tilt))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        points, surfaces = scan(scene, pose, t0, params, rng)
        want_points, want_surfaces = gather_twice_scan(scene, pose, t0, params, oracle_rng)
        assert points.tobytes() == want_points.tobytes() and points.shape == want_points.shape
        assert surfaces.tobytes() == want_surfaces.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def gated_scan(scene, pose, t0, params, seed, margin, floor):
    """range_filter(transform_cloud(scan(...))) with the given floor, the
    scan's surface codes and the generator after it."""
    rng = np.random.default_rng(seed)
    points, surfaces = scan(scene, pose, t0, params, rng, floor=floor)
    gate = FilterParams(near_min=1e-3, far_max=1e4, ground_margin=margin)
    cloud = range_filter(transform_cloud(points, pose), gate, scene.ground_z, pose.origin)
    return cloud, surfaces, rng


class TestGroundFloor:
    """scan builds no point for a ground return that the range gate above
    floor = ground_z + ground_margin must drop; the gated cloud, every other
    return and the random draws must equal those of a scan without a floor."""

    @given(seed=st.integers(0, 2**32 - 1), ground_z=st.floats(-2.0, 2.0),
           height=st.floats(0.2, 3.0), below=st.booleans(), n_boxes=st.integers(0, 2),
           with_target=st.booleans(), pan=st.floats(-math.pi, math.pi),
           tilt=st.floats(-1.5, 1.5), margin=st.sampled_from([0.0, -0.3, 1e-9, 0.3, 1e3]),
           sigma=st.just(0.0) | st.floats(1e-4, 0.5), threshold=st.floats(1e-4, 0.3),
           range_pick=st.floats(0.0, 1.0), nudge=st.sampled_from([-1, 0, 1]),
           t0=st.floats(0.0, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_gated_cloud_equals_the_scan_without_a_floor(
            self, seed, ground_z, height, below, n_boxes, with_target, pan, tilt, margin,
            sigma, threshold, range_pick, nudge, t0):
        # the origin lies above or below the ground; boxes stand on the ground
        # around the sensor, so obstacle returns fall on both sides of the
        # floor; range_max is one of the frame's hit ranges, or its float
        # neighbour, so a hit lies at or next to the range limit
        rng = np.random.default_rng(seed)
        origin = (0.0, 0.0, ground_z - height if below else ground_z + height)
        boxes = []
        for _ in range(n_boxes):
            lo = rng.uniform([-8.0, -8.0, ground_z - 1.0], [8.0, 8.0, ground_z])
            boxes.append(Box(tuple(lo), tuple(lo + rng.uniform([0.3, 0.3, 0.2], [3.0, 3.0, 3.0]))))
        target = static_target(rng.uniform([-4.0, -4.0, ground_z], [4.0, 4.0, ground_z + 2.0]),
                               0.6) if with_target else None
        scene = Scene(ground_z, boxes, target, WeatherModel(0.0, threshold, 20.0))
        pose = SensorPose(origin, PanTiltPose(pan, tilt))
        base = RosetteParams(point_rate=30000.0, range_noise_sigma=0.0)
        dirs = pan_tilt_to_rotation(pose.orientation) @ _frame_directions(base, t0)
        ranges, _ = ray_cast_arrays(scene, np.asarray(origin), dirs.T,
                                    t0 + np.arange(dirs.shape[1]) * (base.integration_time
                                                                     / dirs.shape[1]))
        hits = np.sort(ranges[np.isfinite(ranges)])
        range_max = 30.0
        if len(hits):
            range_max = float(hits[int(range_pick * (len(hits) - 1))])
            if nudge:
                range_max = float(np.nextafter(range_max, nudge * math.inf))
        params = RosetteParams(point_rate=30000.0, range_noise_sigma=min(sigma, range_max),
                               range_max=range_max)
        floor = ground_z + margin
        got, got_surf, got_rng = gated_scan(scene, pose, t0, params, seed, margin, floor)
        want, want_surf, want_rng = gated_scan(scene, pose, t0, params, seed, margin, -math.inf)
        assert got.xyz.shape == want.xyz.shape
        assert got.xyz.tobytes() == want.xyz.tobytes()
        assert np.array_equal(got_surf[got_surf != GROUND], want_surf[want_surf != GROUND])
        assert np.sum(got_surf == TARGET) == np.sum(want_surf == TARGET)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_floor_keeps_a_ground_point_that_rounding_lifts_above_it(self):
        # one ray straight down from 1.5 m: its ground range is exactly 1.5 m,
        # and the point lands at z = 1.5 - fl(1.5 + e), which for a noise
        # e < 0 rounding can put a few ulps above |e|. With the floor between
        # |e| and that z, the gate keeps the point although |e| < margin:
        # only a slack of half the margin leaves it to the gate
        params = RosetteParams(point_rate=10.0, range_noise_sigma=0.05, range_max=5.0)
        scene = Scene(0.0, [], None, NO_CUTOFF)
        pose = SensorPose((0.0, 0.0, 1.5), PanTiltPose(0.0, -math.pi / 2))
        checked = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            rng.random(1)  # the keep draw; the noise follows it
            e = abs(float(params.range_noise_sigma * rng.standard_normal(1)[0]))
            want, _, _ = gated_scan(scene, pose, 0.0, params, seed, 0.0, -math.inf)
            if len(want) != 1 or not np.nextafter(e, math.inf) < want.xyz[0, 2]:
                continue
            margin = float(np.nextafter(e, math.inf))  # e < margin < z
            got, _, _ = gated_scan(scene, pose, 0.0, params, seed, margin, margin)
            assert len(got) == 1 and got.xyz.tobytes() == want.xyz.tobytes()
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("margin", [0.3, 1e3])
    def test_ground_returns_leave_the_scan(self, margin):
        # a level-ground frame: the floor drops most ground returns before
        # any point is built; what it keeps are points of the full scan
        params = RosetteParams(point_rate=30000.0, range_noise_sigma=0.05, range_max=40.0)
        scene = Scene(0.0, [], None, NO_CUTOFF)
        pose = SensorPose((0.0, 0.0, 1.5), PanTiltPose(0.0, -0.6))
        full, codes = scan(scene, pose, 0.0, params, np.random.default_rng(1))
        culled, culled_codes = scan(scene, pose, 0.0, params, np.random.default_rng(1),
                                    floor=margin)
        assert len(full) > 1000 and np.all(codes == GROUND)
        assert len(culled) < len(full) / 10 and np.all(culled_codes == GROUND)
        assert {row.tobytes() for row in culled} <= {row.tobytes() for row in full}
        if margin == 1e3:  # far above every point
            assert len(culled) == 0

    def test_a_frame_is_never_cut_down_to_one_point(self):
        # numpy multiplies a lone column with gemv, which rounds differently
        # from the gemm of two or more: where one return would survive the
        # cull, the frame's first other return stays beside it. In clear air
        # with no cutoff every candidate is kept, so the noise draws, and with
        # them the survivors, can be replayed
        params = RosetteParams(point_rate=3000.0, range_noise_sigma=0.05, range_max=40.0)
        scene = Scene(0.0, [], None, NO_CUTOFF)
        pose = SensorPose((0.0, 0.0, 1.5), PanTiltPose(0.0, -0.6))
        dirs = pan_tilt_to_rotation(pose.orientation) @ _frame_directions(params, 0.0)
        ranges, _ = ray_cast_arrays(scene, np.asarray(pose.origin), dirs.T,
                                    np.zeros(dirs.shape[1]))
        n = np.count_nonzero(ranges <= params.range_max)
        lone = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            rng.random(n)
            survivors = np.count_nonzero(np.abs(0.05 * rng.standard_normal(n)) >= 0.15)
            points, _ = scan(scene, pose, 0.0, params, np.random.default_rng(seed), floor=0.3)
            assert len(points) == (2 if survivors == 1 else survivors)
            got, _, _ = gated_scan(scene, pose, 0.0, params, seed, 0.3, 0.3)
            want, _, _ = gated_scan(scene, pose, 0.0, params, seed, 0.3, -math.inf)
            assert got.xyz.tobytes() == want.xyz.tobytes()
            lone += survivors == 1
        assert lone >= 5

    @pytest.mark.parametrize("margin", [-0.3, 0.0, 1e-9])
    def test_floor_within_the_rounding_bound_culls_nothing(self, margin):
        params = RosetteParams(point_rate=30000.0, range_noise_sigma=0.02, range_max=40.0)
        scene = Scene(0.0, [], None, NO_CUTOFF)
        pose = SensorPose((0.0, 0.0, 1.5), PanTiltPose(0.0, -0.6))
        full, _ = scan(scene, pose, 0.0, params, np.random.default_rng(1))
        kept, _ = scan(scene, pose, 0.0, params, np.random.default_rng(1), floor=margin)
        assert kept.tobytes() == full.tobytes()


class TestRingPattern:
    def test_ring_elevations_evenly_spaced(self):
        p = RingScanParams(n_rings=16)
        elev = p.ring_elevations
        assert len(elev) == 16
        assert np.allclose(np.diff(elev), elev[1] - elev[0])
        assert math.isclose(elev[0], -p.fov_v / 2) and math.isclose(elev[-1], p.fov_v / 2)

    def test_ring_directions_cycle_through_rings(self):
        p = RingScanParams(n_rings=4, point_rate=1000)
        dirs = p.directions(np.arange(8) / 1000.0)
        elev = np.arcsin(dirs[:, 2])
        assert np.allclose(elev[:4], p.ring_elevations, atol=1e-12)
        assert np.allclose(elev[4:], p.ring_elevations, atol=1e-12)

    def test_ring_scan_produces_cloud(self):
        p = RingScanParams(point_rate=20000)
        scene = Scene(0.0, [], static_target((5, 0, 1)), NO_CUTOFF)
        points, _ = scan(scene, SensorPose((0, 0, 1.0)), 0.0, p, np.random.default_rng(0))
        assert len(points) > 0
