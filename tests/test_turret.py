import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack.geometry import TILT_LIMIT, PanTiltPose, pan_tilt_to_rotation
from rosetrack.turret import (MAX_RASTER_STEPS, TurretParams, TurretState, scan_mode_command,
                              step_dynamics, tracking_command)

PARAMS = TurretParams(origin=(0.0, 0.0, 0.0), scan_pan_min=-0.6, scan_pan_max=0.6,
                      scan_tilt_min=0.0, scan_tilt_max=0.4,
                      scan_line_spacing=0.2, scan_duration=6.0)


def decimal(x: float) -> Fraction:
    """The number a config writes for x: its shortest repr, exactly."""
    return Fraction(repr(x))


def oracle_rows(p) -> int:
    """Raster rows counted in the decimals of the tilt keys, free of float error."""
    return int((decimal(p.scan_tilt_max) - decimal(p.scan_tilt_min)) // decimal(p.scan_line_spacing)) + 1


def raster_oracle(t, p):
    """Closed-form serpentine schedule: equal time per row, pan linear."""
    t = min(max(t, 0.0), p.scan_duration)
    rows = oracle_rows(p)
    row_time = p.scan_duration / rows
    row = min(int(t // row_time), rows - 1)
    frac = (t - row * row_time) / row_time
    span = p.scan_pan_max - p.scan_pan_min
    pan = p.scan_pan_min + frac * span if row % 2 == 0 else p.scan_pan_max - frac * span
    return pan, float(decimal(p.scan_tilt_min) + row * decimal(p.scan_line_spacing))


class TestScanModeCommand:
    def test_starts_at_raster_origin(self):
        pose = scan_mode_command(0.0, PARAMS)
        assert pose.pan == PARAMS.scan_pan_min
        assert pose.tilt == PARAMS.scan_tilt_min

    def test_ends_at_final_corner(self):
        pose = scan_mode_command(PARAMS.scan_duration, PARAMS)
        assert pose.tilt == pytest.approx(PARAMS.scan_tilt_max)
        # three rows (0.0, 0.2, 0.4): last row is even-indexed, sweeping left to right
        assert pose.pan == pytest.approx(PARAMS.scan_pan_max)

    def test_times_outside_window_clamp(self):
        assert scan_mode_command(-1.0, PARAMS) == scan_mode_command(0.0, PARAMS)
        assert scan_mode_command(99.0, PARAMS) == scan_mode_command(PARAMS.scan_duration, PARAMS)

    @given(t=st.floats(0.0, 6.0))
    @settings(max_examples=200)
    def test_matches_piecewise_linear_oracle(self, t):
        pose = scan_mode_command(t, PARAMS)
        pan, tilt = raster_oracle(t, PARAMS)
        assert pose.pan == pytest.approx(pan, abs=1e-12)
        assert pose.tilt == pytest.approx(tilt, abs=1e-12)

    def test_mid_row_pan_is_linear_in_time(self):
        rows = PARAMS.scan_rows
        row_time = PARAMS.scan_duration / rows
        ts = np.linspace(0.05 * row_time, 0.95 * row_time, 20)
        pans = np.array([scan_mode_command(float(t), PARAMS).pan for t in ts])
        slopes = np.diff(pans) / np.diff(ts)
        assert np.allclose(slopes, slopes[0], atol=1e-9)

    def test_serpentine_alternates_direction(self):
        rows = PARAMS.scan_rows
        row_time = PARAMS.scan_duration / rows
        p0 = scan_mode_command(0.5 * row_time, PARAMS)
        p1 = scan_mode_command(1.5 * row_time, PARAMS)
        assert p0.pan == pytest.approx(0.0, abs=1e-9)  # halfway up on an even row
        assert p1.pan == pytest.approx(0.0, abs=1e-9)  # halfway down on an odd row
        d0 = scan_mode_command(0.6 * row_time, PARAMS).pan - p0.pan
        d1 = scan_mode_command(1.6 * row_time, PARAMS).pan - p1.pan
        assert d0 > 0 > d1

    @pytest.mark.parametrize("tilt_min, tilt_max, spacing",
                             [(0.0, 0.3, 0.1), (0.0, 0.6, 0.2), (0.1, 0.7, 0.2)])
    def test_rows_that_divide_in_decimal_are_all_scanned(self, tilt_min, tilt_max, spacing):
        # span / spacing is a hair under 3 in float: a bare floor gave 3 rows
        # and the top row was never scanned
        params = TurretParams(scan_tilt_min=tilt_min, scan_tilt_max=tilt_max,
                              scan_line_spacing=spacing, scan_duration=4.0)
        assert params.scan_rows == oracle_rows(params) == 4
        # 3 * 0.1 is 0.30000000000000004: the top row is clamped to scan_tilt_max
        assert scan_mode_command(params.scan_duration, params).tilt == tilt_max

    def test_top_row_at_the_tilt_limit_is_a_pose(self):
        # 25 * (pi / 50) overshoots pi / 2 by one ulp, which PanTiltPose refuses
        params = TurretParams(scan_tilt_min=0.0, scan_tilt_max=TILT_LIMIT,
                              scan_line_spacing=TILT_LIMIT / 25, scan_duration=5.2)
        assert params.scan_rows == 26
        assert 25 * params.scan_line_spacing > TILT_LIMIT
        assert scan_mode_command(params.scan_duration, params).tilt == TILT_LIMIT


class TestTrackingCommand:
    def test_centered_target_holds_pose(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        cmd = tracking_command(state, (10.0, 0.0, 0.0), PARAMS)
        assert cmd == state.pose

    def test_diagonal_target_geometry(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        cmd = tracking_command(state, (10.0, 10.0, 0.0), PARAMS)
        assert cmd.pan == pytest.approx(math.pi / 4)
        assert cmd.tilt == pytest.approx(0.0)

    def test_forty_five_degree_tilt_round_trips_through_rotation(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        cmd = tracking_command(state, (3.0, 0.0, 3.0), PARAMS)
        assert cmd.tilt == pytest.approx(math.pi / 4)
        # forward kinematics: the commanded boresight passes through the target
        boresight = pan_tilt_to_rotation(cmd) @ np.array([1.0, 0.0, 0.0])
        target_dir = np.array([3.0, 0.0, 3.0]) / np.linalg.norm([3.0, 0.0, 3.0])
        assert np.allclose(boresight, target_dir, atol=1e-12)

    def test_deadband_requires_both_axes_small(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        small = math.radians(0.2)
        big = math.radians(2.0)
        near = (10.0, 10.0 * math.tan(small), 0.0)
        assert tracking_command(state, near, PARAMS) == state.pose
        far = (10.0, 10.0 * math.tan(big), 0.0)
        assert tracking_command(state, far, PARAMS) != state.pose

    def test_deadband_idempotent(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        target = (8.0, 1.5, 0.5)
        cmd1 = tracking_command(state, target, PARAMS)
        state2 = TurretState(cmd1, 0.1)
        cmd2 = tracking_command(state2, target, PARAMS)
        assert cmd2 == cmd1

    def test_gimbal_singularity_straight_above(self):
        state = TurretState(PanTiltPose(0.7, 0.1), 0.0)
        cmd = tracking_command(state, (0.0, 0.0, 5.0), PARAMS)
        assert cmd.pan == 0.7
        assert cmd.tilt == pytest.approx(math.pi / 2)


def follower_oracle(start, commands, dt, rate):
    """Scalar rate-limited follower stepped command by command."""
    x = start
    out = []
    for c in commands:
        x += min(max(c - x, -rate * dt), rate * dt)
        out.append(x)
    return out


class TestStepDynamics:
    def test_holding_at_command(self):
        state = TurretState(PanTiltPose(0.3, 0.1), 0.0)
        out = step_dynamics(state, state.pose, 0.1, PARAMS)
        assert out.pose == state.pose
        assert out.t == pytest.approx(0.1)

    def test_rate_limit_exactness(self):
        params = TurretParams(max_slew_rate=1.0)
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        out = step_dynamics(state, PanTiltPose(0.5, 0.0), 0.1, params)
        assert out.pose.pan == pytest.approx(0.1)
        out2 = step_dynamics(out, PanTiltPose(0.12, 0.0), 0.1, params)
        assert out2.pose.pan == pytest.approx(0.12)  # exact arrival inside the budget

    def test_sinusoidal_command_matches_scalar_follower(self):
        params = TurretParams(max_slew_rate=0.8)
        dt = 1.0 / 50.0
        ts = np.arange(0, 4.0, dt)
        commands = 0.5 * np.sin(2 * math.pi * 0.7 * ts)
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        got = []
        for c in commands:
            state = step_dynamics(state, PanTiltPose(float(c), 0.0), dt, params)
            got.append(state.pose.pan)
        want = follower_oracle(0.0, commands, dt, 0.8)
        assert np.allclose(got, want, atol=1e-12)

    @given(pan0=st.floats(-3.0, 3.0), cmd=st.floats(-3.0, 3.0),
           dt=st.floats(0.001, 0.5), rate=st.floats(0.1, 5.0))
    @settings(max_examples=150)
    def test_slew_bound_per_step(self, pan0, cmd, dt, rate):
        params = TurretParams(max_slew_rate=rate)
        state = TurretState(PanTiltPose(pan0, 0.0), 0.0)
        out = step_dynamics(state, PanTiltPose(cmd, 0.0), dt, params)
        assert abs(out.pose.pan - pan0) <= rate * dt + 1e-12

    def test_pose_limits_clamped(self):
        params = TurretParams(max_slew_rate=100.0)
        state = TurretState(PanTiltPose(0.0, 1.5), 0.0)
        out = step_dynamics(state, PanTiltPose(0.0, math.pi / 2), 1.0, params)
        assert out.pose.tilt <= math.pi / 2

    def test_hard_stop_slews_the_long_way_round(self):
        # pan does not wrap: from 3.0 toward -3.0 the turret turns down through
        # 0, about 6 rad and 2 s at pi rad/s, not 0.28 rad up across +-pi
        state = TurretState(PanTiltPose(3.0, 0.0), 0.0)
        out = step_dynamics(state, PanTiltPose(-3.0, 0.0), 0.1, PARAMS)
        assert out.pose.pan == pytest.approx(3.0 - PARAMS.max_slew_rate * 0.1)

    def test_rejects_non_positive_dt(self):
        state = TurretState(PanTiltPose(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            step_dynamics(state, state.pose, 0.0, PARAMS)


class TestParamInvariants:
    def test_scan_area_within_pose_limits(self):
        with pytest.raises(ValueError):
            TurretParams(scan_pan_min=-4.0)
        with pytest.raises(ValueError):
            TurretParams(scan_tilt_max=2.0)

    def test_scan_area_error_names_the_pose_rule(self):
        with pytest.raises(ValueError, match=r"scan area must lie within pose limits: tilt 2.0 outside"):
            TurretParams(scan_tilt_max=2.0)

    @pytest.mark.parametrize("origin", [(math.inf, 0.0, 0.0), (0.0, math.nan, 1.0)])
    def test_origin_must_be_finite(self, origin):
        with pytest.raises(ValueError, match="sensor origin must be finite"):
            TurretParams(origin=origin)

    def test_more_rows_than_raster_steps_rejected(self):
        with pytest.raises(ValueError, match=f"exceeds {MAX_RASTER_STEPS} raster rows"):
            TurretParams(scan_line_spacing=1e-7)
        with pytest.raises(ValueError, match=f"exceeds {MAX_RASTER_STEPS} raster rows"):
            TurretParams(scan_tilt_max=0.0, scan_line_spacing=1e-320)  # 1 / spacing is inf
        assert TurretParams(scan_line_spacing=0.25 / MAX_RASTER_STEPS).scan_rows == MAX_RASTER_STEPS + 1

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            TurretParams(max_slew_rate=0.0)
        with pytest.raises(ValueError):
            TurretParams(scan_duration=0.0)
