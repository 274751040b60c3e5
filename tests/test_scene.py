import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import clamped_return_probability, list_bounding_ball

from rosetrack.scene import (_BLOCK, Box, Scene, TargetModel, Trajectory, WeatherModel,
                             make_pattern, ray_cast_arrays, return_probability_arrays)

GROUND, OBSTACLE, TARGET = 0, 1, 2  # ray_cast_arrays surface codes; -1 is a miss


def brute_force_ray_cast(scene, origin, direction, t):
    """Exhaustive intersection over all primitives (slab method for boxes);
    (range, surface code) as ray_cast_arrays gives them, (inf, -1) on a miss.
    A ray parallel to a slab must start strictly inside it: box faces are
    open to rays that lie in their plane."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    best, surface = math.inf, -1
    if direction[2] != 0.0:
        tg = (scene.ground_z - origin[2]) / direction[2]
        if 1e-9 < tg < best:
            best, surface = tg, GROUND
    for box in scene.obstacles:
        tmin, tmax = -math.inf, math.inf
        ok = True
        for ax in range(3):
            if direction[ax] == 0.0:
                if not box.lo[ax] < origin[ax] < box.hi[ax]:
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
                best, surface = thit, OBSTACLE
    if scene.target is not None:
        c = scene.target.trajectory.position(t)[0]
        r = scene.target.diameter / 2
        oc = origin - c
        b = float(oc @ direction)
        disc = b * b - (float(oc @ oc) - r * r)
        if disc >= 0:
            for thit in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                if 1e-9 < thit < best:
                    best, surface = thit, TARGET
                    break
    return best, surface


def cast(scene, origin, dirs, t=0.0):
    """ray_cast_arrays for rays sharing one origin and one emission time."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return ray_cast_arrays(scene, np.asarray(origin, dtype=float), dirs, np.full(len(dirs), t))


def unculled_ray_cast_arrays(scene, origin, dirs, times):
    """Oracle twin of ray_cast_arrays without the target-cone cull: every ray
    gets its own trajectory lookup and sphere test, and the slab test reduces
    over the axis columns with np.max / np.min."""
    eps = 1e-9
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = len(dirs)
    best = np.full(n, np.inf)
    surf = np.full(n, -1, dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        tg = (scene.ground_z - origin[2]) * inv[:, 2]  # NaN for a level ray at ground height
    hit = (dirs[:, 2] != 0.0) & (tg > eps) & (tg < best)
    best[hit] = tg[hit]
    surf[hit] = 0
    for box in scene.obstacles:
        lo = np.asarray(box.lo) - origin
        hi = np.asarray(box.hi) - origin
        with np.errstate(invalid="ignore"):
            t1 = lo[None, :] * inv
            t2 = hi[None, :] * inv
        tmin = np.max(np.fmin(t1, t2), axis=1)
        tmax = np.min(np.fmax(t1, t2), axis=1)
        thit = np.where(tmin > eps, tmin, tmax)
        hit = (tmax >= np.maximum(tmin, eps)) & (thit > eps) & (thit < best)
        best[hit] = thit[hit]
        surf[hit] = 1
    if scene.target is not None:
        centers = np.atleast_2d(scene.target.trajectory.position(np.asarray(times, dtype=float)))
        r = scene.target.diameter / 2.0
        oc = origin[None, :] - centers
        b = np.einsum("ij,ij->i", oc, dirs)
        c = np.einsum("ij,ij->i", oc, oc) - r * r
        disc = b * b - c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_near = -b - sq
        t_far = -b + sq
        thit = np.where(t_near > eps, t_near, t_far)
        hit = ok & (thit > eps) & (thit < best)
        best[hit] = thit[hit]
        surf[hit] = 2
    return best, surf


def column_block(dirs):
    """The same rays as the .T of a C-ordered (3, n) block, the layout scan
    passes to ray_cast_arrays."""
    return np.ascontiguousarray(dirs.T).T


@st.composite
def trajectories(draw):
    """Multi-waypoint schedules, often with a start_time offset and zero waits."""
    n = draw(st.integers(1, 4))
    coord = st.floats(-6.0, 6.0)
    wps = [((draw(coord), draw(coord), draw(st.floats(0.5, 3.0))),
            draw(st.sampled_from([0.0, 0.3, 1.0]))) for _ in range(n)]
    return Trajectory(wps, segment_duration=draw(st.floats(0.2, 2.0)),
                      repeat_count=draw(st.integers(1, 3)),
                      start_time=draw(st.sampled_from([0.0, 0.7, 2.5])))


@st.composite
def frame_windows(draw, traj):
    """[t_lo, t_hi] placed across a phase boundary (the phase starts include
    start_time and the terminal hold) or anywhere in the schedule."""
    length = draw(st.floats(1e-3, 1.5))
    if draw(st.booleans()):
        anchor = float(draw(st.sampled_from(list(traj._t0))))
    else:
        anchor = draw(st.floats(0.0, traj.total_duration + 1.0))
    t_lo = max(0.0, anchor - draw(st.floats(0.0, 1.0)) * length)
    return t_lo, t_lo + length


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

    def test_zero_length_batch_gives_empty_positions(self):
        traj = make_pattern("fast")
        assert traj.position(np.empty(0)).shape == (0, 3)

    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan]), -0.1,
                                   math.inf, np.array([0.5, math.inf])])
    def test_nan_or_negative_time_rejected(self, t):
        # NaN used to fall through every phase test and return the terminal
        # hold, and so did inf
        with pytest.raises(ValueError):
            make_pattern("fast").position(t)

    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan]), -1.0,
                                   math.inf, np.array([0.5, math.inf])])
    def test_speed_rejects_nan_or_negative_time(self, t):
        # both used to fall into a hold phase and give speed 0.0
        with pytest.raises(ValueError):
            make_pattern("fast").speed(t)

    @given(traj=trajectories(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounding_ball_holds_every_position_in_window(self, traj, data):
        t_lo, t_hi = data.draw(frame_windows(traj))
        centre, radius = traj.bounding_ball(t_lo, t_hi)
        ts = np.concatenate([[t_lo, t_hi], np.linspace(t_lo, t_hi, 257)])
        dist = np.linalg.norm(traj.position(ts) - centre, axis=1)
        assert np.all(dist <= radius + 1e-12 * (1.0 + radius + np.linalg.norm(centre)))

    @given(traj=trajectories(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounding_ball_matches_list_oracle(self, traj, data):
        # the ball read from the phase arrays equals, bit for bit, the one
        # read from Python list copies of them
        t_lo, t_hi = data.draw(frame_windows(traj))
        centre, radius = traj.bounding_ball(t_lo, t_hi)
        want_centre, want_radius = list_bounding_ball(traj, t_lo, t_hi)
        assert centre.tobytes() == want_centre.tobytes()
        assert radius.hex() == want_radius.hex()

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
        ranges, surfaces = cast(scene, (0, 0, 10.0), (0, 0, -1.0))
        assert (ranges[0], surfaces[0]) == (10.0, GROUND)

    def test_sphere_chord_range(self):
        target = TargetModel(0.35, 1.0, Trajectory([((5, 0, 1), 1.0)], 1.0))
        scene = Scene(-10.0, [], target, WeatherModel())
        ranges, surfaces = cast(scene, (0, 0, 1.0), (1.0, 0, 0))
        assert surfaces[0] == TARGET
        assert abs(ranges[0] - (5.0 - 0.175)) < 1e-12

    def test_obstacle_occludes_target(self):
        target = TargetModel(0.35, 1.0, Trajectory([((6, 0, 1), 1.0)], 1.0))
        box = Box((3.0, -0.5, 0.0), (3.2, 0.5, 2.0))
        scene = Scene(-10.0, [box], target, WeatherModel())
        ranges, surfaces = cast(scene, (0, 0, 1.0), (1.0, 0, 0))
        assert (ranges[0], surfaces[0]) == (3.0, OBSTACLE)

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
        ranges, surfaces = cast(scene, origin, d, 0.5)
        want_range, want_surface = brute_force_ray_cast(scene, origin, d, 0.5)
        assert surfaces[0] == want_surface
        if want_surface < 0:
            assert ranges[0] == math.inf
        else:
            assert abs(ranges[0] - want_range) < 1e-9

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("face", ["lo", "hi"])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0.0", "-0.0"])
    def test_ray_in_face_plane_misses(self, axis, face, zero):
        # the ray travels along the next axis through the box's middle, lying
        # in one face plane; the other two direction components are +-0.0
        box = Box((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        scene = Scene(-10.0, [box])
        along = (axis + 1) % 3
        origin = np.full(3, 2.0)
        origin[along] = -5.0
        origin[axis] = getattr(box, face)[axis]
        d = np.full(3, zero)
        d[along] = 1.0
        miss = (math.inf, -1)
        for ranges, surfaces in (cast(scene, origin, d),
                                 unculled_ray_cast_arrays(scene, origin, d[None], np.zeros(1))):
            assert (ranges[0], surfaces[0]) == miss
        assert brute_force_ray_cast(scene, origin, d, 0.0) == miss
        origin[axis] = 2.0  # the same ray inside the slab hits the near face
        ranges, surfaces = cast(scene, origin, d)
        assert (ranges[0], surfaces[0]) == (6.0, OBSTACLE)
        assert brute_force_ray_cast(scene, origin, d, 0.0) == (6.0, OBSTACLE)

    @pytest.mark.parametrize("dirs_shape, n_times", [((5, 3), 2), ((4, 3), 5), ((5, 2), 5)],
                             ids=["5-rays-2-times", "4-rays-5-times", "2-column-dirs"])
    def test_mismatched_shapes_rejected(self, dirs_shape, n_times):
        dirs = np.zeros(dirs_shape)
        dirs[:, 0] = 1.0
        with pytest.raises(ValueError, match="dirs"):
            ray_cast_arrays(Scene(0.0), np.zeros(3), dirs, np.zeros(n_times))


class TestRayLayout:
    """ray_cast_arrays takes (n, 3) rays in any memory layout: a C-ordered
    array and the .T of a C-ordered (3, n) block give the same ranges and
    codes bit for bit, and both equal the unculled oracle."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("face", ["lo", "hi"])
    def test_column_block_matches_row_array(self, axis, face):
        # the origin lies on a box face plane; the batch crosses a block
        # boundary and holds, at both ends of it, the 12 axis-parallel rays
        # (other components +0.0 or -0.0; one of them lies in the face plane),
        # then random rays and rays aimed at the moving target
        box = Box((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        along = (axis + 1) % 3
        origin = np.full(3, 2.0)
        origin[along] = -5.0
        origin[axis] = getattr(box, face)[axis]
        traj = make_pattern("fast", center=(-4.0, -4.0, 7.0))  # no origin sees it behind the box
        scene = Scene(-10.0, [box], TargetModel(0.3, 1.0, traj), WeatherModel())
        rng = np.random.default_rng(3 * axis + len(face))
        n = _BLOCK + 40
        times = rng.uniform(1.5, 4.0, n)  # the target holds, then flies its segment
        dirs = rng.normal(size=(n, 3))
        aimed = rng.random(n) < 0.4
        dirs[aimed] = traj.position(times[aimed]) - origin
        axial = np.array([np.where(np.arange(3) == k, sign, zero)
                          for zero in (0.0, -0.0) for k in range(3) for sign in (1.0, -1.0)])
        dirs[:12] = axial
        dirs[_BLOCK - 6:_BLOCK + 6] = axial
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]

        want = unculled_ray_cast_arrays(scene, origin, dirs, times)
        assert {-1, GROUND, OBSTACLE, TARGET} <= set(want[1].tolist())
        for layout in (dirs, column_block(dirs)):
            got = ray_cast_arrays(scene, origin, layout, times)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def edge_case_cast(traj, data, seed, n_boxes, origin_inside, n_rays):
    """(scene, origin, dirs, times) of a batch with direction components that
    are exactly 0.0 or -0.0 (1/d = +-inf), box faces and ground through the
    origin (0 * inf = NaN), and half the rays aimed at the target."""
    rng = np.random.default_rng(seed)
    t_lo, t_hi = data.draw(frame_windows(traj))
    times = rng.uniform(t_lo, t_hi, n_rays)
    diameter = 0.3
    if origin_inside:
        centre, radius = traj.bounding_ball(t_lo, t_hi)
        origin = centre + rng.uniform(-1.0, 1.0, 3) * (radius + diameter / 2.0) / 2.0
    else:
        origin = rng.uniform([-8.0, -8.0, 0.5], [8.0, 8.0, 4.0])
    boxes = []
    for _ in range(n_boxes):
        lo = rng.uniform([-8.0, -8.0, 0.0], [8.0, 8.0, 3.0])
        on_plane = rng.random(3) < 0.5
        lo[on_plane] = origin[on_plane]
        boxes.append(Box(tuple(lo), tuple(lo + rng.uniform(0.2, 3.0, 3))))
    ground_z = float(origin[2]) if rng.random() < 0.25 else float(rng.uniform(-1.0, 0.3))
    scene = Scene(ground_z, boxes, TargetModel(diameter, 1.0, traj), WeatherModel())

    aimed = rng.random(n_rays) < 0.5
    dirs = np.where(aimed[:, None], traj.position(times) - origin, 0.0)
    dirs += rng.normal(scale=np.where(aimed, 0.05, 1.0)[:, None], size=(n_rays, 3))
    zeroed = rng.random((n_rays, 3)) < 0.3
    dirs[zeroed] = np.where(rng.random(int(zeroed.sum())) < 0.5, 0.0, -0.0)
    dirs[~dirs.any(axis=1), 2] = -1.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return scene, origin, dirs, times


class TestTargetConeCull:
    """ray_cast_arrays sphere-tests only the rays in the cone around the
    target's bounding ball; the result must equal the unculled oracle bit
    for bit."""

    @given(traj=trajectories(), data=st.data(), seed=st.integers(0, 2**32 - 1),
           n_boxes=st.integers(0, 3), diameter=st.floats(0.05, 1.0),
           origin_inside=st.booleans(), n_rays=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_unculled_oracle(self, traj, data, seed, n_boxes, diameter,
                                     origin_inside, n_rays):
        rng = np.random.default_rng(seed)
        t_lo, t_hi = data.draw(frame_windows(traj))
        times = rng.uniform(t_lo, t_hi, n_rays)  # unsorted emission times
        centres = traj.position(times)
        r = diameter / 2.0
        if origin_inside:  # inside the ball that bounds the target over the window
            centre, radius = traj.bounding_ball(t_lo, t_hi)
            origin = centre + rng.uniform(-1.0, 1.0, 3) * (radius + r) / 2.0
        else:
            origin = rng.uniform([-8.0, -8.0, 0.5], [8.0, 8.0, 4.0])
        boxes = []
        for _ in range(n_boxes):
            lo = rng.uniform([-8.0, -8.0, 0.0], [8.0, 8.0, 3.0])
            boxes.append(Box(tuple(lo), tuple(lo + rng.uniform(0.2, 3.0, 3))))
        scene = Scene(float(rng.uniform(-1.0, 0.3)), boxes,
                      TargetModel(diameter, 1.0, traj), WeatherModel())

        # a third random, a third aimed into the sphere, a third passing the
        # centre at a distance within a relative 1e-16..1e-9 of the radius
        # (rounding decides some of these): the ray through centre + g * perp
        # passes at g * L / sqrt(L^2 + g^2)
        to_centre = centres - origin
        length = np.linalg.norm(to_centre, axis=1)
        perp = np.cross(to_centre, rng.normal(size=(n_rays, 3)))
        perp /= np.linalg.norm(perp, axis=1)[:, None]
        kind = rng.integers(0, 3, n_rays)
        miss = r * (1.0 + rng.uniform(-1.0, 1.0, n_rays) * 10.0 ** rng.uniform(-16, -9, n_rays))
        grazing = np.where(length > miss, miss * length / np.sqrt(np.maximum(
            length ** 2 - miss ** 2, 1e-300)), miss)
        inside = r * rng.uniform(0.0, 1.0, n_rays)
        dirs = np.where((kind == 0)[:, None], rng.normal(size=(n_rays, 3)),
                        to_centre + perp * np.where(kind == 1, inside, grazing)[:, None])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]

        want = unculled_ray_cast_arrays(scene, origin, dirs, times)
        for layout in (dirs, column_block(dirs)):
            got = ray_cast_arrays(scene, origin, layout, times)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("origin_inside", [False, True])
    @pytest.mark.parametrize("n_rays", [0, 1, 4095, 4096, 4097, 8199,
                                        _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    @given(traj=trajectories(), data=st.data(), seed=st.integers(0, 2**32 - 1),
           n_boxes=st.integers(0, 3))
    @settings(max_examples=3, deadline=None)
    def test_matches_unculled_oracle_across_blocks(self, traj, data, seed, n_boxes,
                                                    origin_inside, n_rays):
        # batches that end inside, at and just past a block boundary, and
        # at half-block sizes that fill one block or spill a few rays
        scene, origin, dirs, times = edge_case_cast(traj, data, seed, n_boxes, origin_inside,
                                                    n_rays)
        want = unculled_ray_cast_arrays(scene, origin, dirs, times)
        for layout in (dirs, column_block(dirs)):
            got = ray_cast_arrays(scene, origin, layout, times)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @given(traj=trajectories(), data=st.data(), seed=st.integers(0, 2**32 - 1),
           n_boxes=st.integers(0, 3), origin_inside=st.booleans(), n_rays=st.integers(0, 300),
           with_target=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_range_is_inf_exactly_on_a_miss(self, traj, data, seed, n_boxes, origin_inside,
                                            n_rays, with_target):
        # scan keeps a ray iff its range is at most the finite range_max,
        # which relies on this: every hit has a finite range, every miss inf
        scene, origin, dirs, times = edge_case_cast(traj, data, seed, n_boxes, origin_inside,
                                                    n_rays)
        if not with_target:
            scene = replace(scene, target=None)
        ranges, surfaces = ray_cast_arrays(scene, origin, column_block(dirs), times)
        assert np.array_equal(ranges == np.inf, surfaces == -1)
        assert np.all(np.isfinite(ranges[surfaces != -1]))

    def test_zero_rays_with_target(self):
        traj = Trajectory([((5.0, 0.0, 1.0), 1.0)], 1.0)
        scene = Scene(0.0, [Box((1, -1, 0), (2, 1, 2))], TargetModel(0.2, 1.0, traj),
                      WeatherModel())
        ranges, surfaces = ray_cast_arrays(scene, np.zeros(3), np.empty((0, 3)), np.empty(0))
        assert ranges.shape == (0,) and surfaces.shape == (0,)
        assert surfaces.dtype == np.int8


class TestBoxFreeCast:
    """A scene without boxes is cast in one pass that inverts only the z
    row; it must equal the unculled oracle bit for bit at every batch size,
    around the block sizes of box scenes too."""

    @pytest.mark.parametrize("with_target", [False, True])
    @pytest.mark.parametrize("n_rays", [0, 4095, 4096, 4097, 8193, 24000])
    def test_matches_unculled_oracle(self, n_rays, with_target):
        # random and target-aimed rays with components that are exactly 0.0
        # or -0.0 (1/d = +-inf); the second ground passes through the
        # origin, where a level ray gives 0 * inf = NaN
        rng = np.random.default_rng(n_rays)
        traj = make_pattern("fast")
        origin = np.array([0.0, 0.0, 1.0])
        times = rng.uniform(1.5, 4.0, n_rays)
        aimed = rng.random(n_rays) < 0.3
        dirs = np.where(aimed[:, None], traj.position(times) - origin, 0.0)
        dirs += rng.normal(scale=np.where(aimed, 0.05, 1.0)[:, None], size=(n_rays, 3))
        zeroed = rng.random((n_rays, 3)) < 0.2
        dirs[zeroed] = np.where(rng.random(int(zeroed.sum())) < 0.5, 0.0, -0.0)
        dirs[~dirs.any(axis=1), 2] = -1.0
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        target = TargetModel(0.3, 1.0, traj) if with_target else None
        for ground_z in (-0.5, 1.0):
            scene = Scene(ground_z, [], target, WeatherModel())
            want = unculled_ray_cast_arrays(scene, origin, dirs, times)
            if n_rays and ground_z < origin[2]:
                codes = {-1, GROUND, TARGET} if with_target else {-1, GROUND}
                assert codes <= set(want[1].tolist())
            for layout in (dirs, column_block(dirs)):
                got = ray_cast_arrays(scene, origin, layout, times)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[1].dtype == np.int8


TARGET_HITS = np.array([True, True])


class TestReturnProbability:
    def scene_with(self, beta=0.0, threshold=0.02, r_sat=90.0, refl=0.5):
        target = TargetModel(0.35, refl, Trajectory([((5, 0, 1), 1.0)], 1.0))
        return Scene(0.0, [], target, WeatherModel(beta, threshold, r_sat))

    def test_near_field_saturation_equals_reflectivity(self):
        scene = self.scene_with(refl=0.5)
        p = return_probability_arrays(np.array([10.0, 90.0]), TARGET_HITS, scene)
        assert p == pytest.approx([0.5, 0.5])

    def test_clear_vs_fog_ratio_is_exp_three(self):
        # two-way extinction: exp(2 * 0.03 * 50) = e^3
        clear = self.scene_with(beta=0.0, threshold=1e-9, refl=0.9)
        foggy = self.scene_with(beta=0.03, threshold=1e-9, refl=0.9)
        r = np.array([50.0])
        ratio = (return_probability_arrays(r, TARGET_HITS[:1], clear)[0]
                 / return_probability_arrays(r, TARGET_HITS[:1], foggy)[0])
        assert ratio == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_background_uses_unit_reflectivity(self):
        scene = self.scene_with(refl=0.25)
        p = return_probability_arrays(np.array([50.0, 50.0]), np.array([False, True]), scene)
        assert p == pytest.approx([1.0, 0.25])

    def test_threshold_zeroes_weak_returns(self):
        scene = self.scene_with(threshold=0.3, refl=0.9, r_sat=50.0)
        p = return_probability_arrays(np.array([200.0, 60.0]), TARGET_HITS, scene)
        assert p[0] == 0.0  # 0.9*(50/200)^2 ~ 0.056 < 0.3
        assert p[1] > 0.0

    @given(r1=st.floats(1.0, 200.0), r2=st.floats(1.0, 200.0),
           beta=st.floats(0.0, 0.1))
    @settings(max_examples=100)
    def test_monotone_nonincreasing_in_range_and_beta(self, r1, r2, beta):
        lo_hi = np.array(sorted((r1, r2)))
        scene = self.scene_with(beta=beta, threshold=1e-9, refl=0.8)
        p_lo, p_hi = return_probability_arrays(lo_hi, TARGET_HITS, scene)
        assert p_hi <= p_lo + 1e-15
        clearer = self.scene_with(beta=0.0, threshold=1e-9, refl=0.8)
        assert p_hi <= return_probability_arrays(lo_hi, TARGET_HITS, clearer)[1] + 1e-15

    @given(seed=st.integers(0, 2**32 - 1), r_sat=st.floats(1.0, 200.0),
           threshold=st.floats(1e-6, 0.9), beta=st.just(0.0) | st.floats(1e-4, 0.1),
           refl=st.none() | st.floats(0.01, 1.0), ranges=st.lists(st.floats(1e-3, 500.0), max_size=8))
    @settings(max_examples=200)
    def test_equals_clamped_oracle_bit_for_bit(self, seed, r_sat, threshold, beta, refl, ranges):
        # ranges spread over a decade on both sides of the saturation range,
        # target and background returns, and a scene without a target (refl
        # None): every factor is in [0, 1], so dropping the clamp and the
        # where changes no bit
        rng = np.random.default_rng(seed)
        ranges = np.concatenate([r_sat * 10.0 ** rng.uniform(-1.0, 1.0, 64), ranges])
        weather = WeatherModel(beta, threshold, r_sat)
        if refl is None:
            scene = Scene(0.0, [], None, weather)
            is_target = np.zeros(len(ranges), dtype=bool)
        else:
            scene = Scene(0.0, [], self.scene_with(refl=refl).target, weather)
            is_target = rng.random(len(ranges)) < 0.5
        got = return_probability_arrays(ranges, is_target, scene)
        want = clamped_return_probability(ranges, is_target, scene)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMakePattern:
    def test_vertical_traversed_three_times(self):
        traj = make_pattern("vertical")
        assert traj.repeat_count == 3
        # 4 waypoints, wait 2 s each, 3 s segments, closing segments between passes
        per_pass = 4 * 2.0 + 3 * 3.0
        expected = per_pass * 3 + 3.0 * 2  # 2 closing segments
        assert traj.total_duration == pytest.approx(expected)
        assert np.allclose(traj.position(0.0), traj.waypoints[0][0])

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
        d = np.array([wp for wp, _ in traj.waypoints]) - origin
        d /= np.linalg.norm(d, axis=1)[:, None]
        _, surfaces = cast(Scene(0.0, [box], None, WeatherModel()), origin, d)
        assert surfaces.tolist() == [-1, OBSTACLE, -1]

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
