import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack.background import BackgroundBuildParams
from rosetrack.config import (MAX_EVENTS, MAX_IN_FLIGHT, SCHEMA, ConfigError, default_config,
                              describe_schema, parse_config)
from rosetrack.filters import FilterParams
from rosetrack.geometry import MAX_COORDINATE
from rosetrack.scene import MAX_WAIT, PATTERN_KEYS, PATTERN_NAMES, WeatherModel, make_pattern
from rosetrack.sensor import MAX_PRISM_FREQUENCY, MAX_RAYS_PER_FRAME, RosetteParams
from rosetrack.tracker import MAX_PARTICLES, TrackerParams
from rosetrack.turret import MAX_RASTER_STEPS, TurretParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


def tracking_pattern(cfg, name, **kwargs):
    """make_pattern(name, **kwargs) shifted to start with the tracking phase."""
    return replace(make_pattern(name, **kwargs), start_time=cfg.turret.scan_duration)


class TestParse:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[target]\npattern = vertical\n"))
        assert cfg.scene.target.trajectory == tracking_pattern(cfg, "vertical")
        assert cfg.tracker.n_particles == 500
        assert cfg.tracker.sigma_pred == pytest.approx(0.1)
        assert cfg.filter_rate == 15.0 and cfg.lidar_rate == 10.0
        assert cfg.sensor.integration_time == pytest.approx(0.1)
        assert cfg.duration == 20.0

    def test_empty_file_is_all_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "\n# nothing here\n"))
        assert cfg.scene.target.trajectory == tracking_pattern(cfg, "vertical")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = parse_config(write(tmp_path, """
# leading comment
[run]
duration = 7.5   # trailing comment
seed = 11
"""))
        assert cfg.duration == 7.5 and cfg.seed == 11

    def test_unknown_section_names_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[nonsense]\nx = 1\n"))
        assert err.value.category == "config-unknown-key"
        assert ":1:" in str(err.value) and "nonsense" in str(err.value)

    def test_unknown_key_names_key_and_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[sensor]\nbogus = 2\n"))
        assert err.value.category == "config-unknown-key"
        assert "bogus" in str(err.value) and ":2:" in str(err.value)

    def test_syntax_error_names_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[sensor]\nf1\n"))
        assert err.value.category == "config-syntax"
        assert ":2:" in str(err.value)

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[sensor]\nf1 = fast\n"))
        assert err.value.category == "config-value"
        assert "f1" in str(err.value)

    def test_cross_field_rule_names_both_keys(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[sensor]\nlidar_rate = 20.0\n[timing]\nfilter_rate = 15.0\n"))
        assert err.value.category == "config-domain"
        assert "filter_rate" in str(err.value) and "lidar_rate" in str(err.value)

    def test_latency_must_cover_integration(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[timing]\npipeline_latency = 0.05\n"))
        assert "pipeline_latency" in str(err.value)
        assert "1 / sensor.lidar_rate" in str(err.value)

    @pytest.mark.parametrize("override, changes", [
        ("timing.filter_rate=5", {"filter_rate": 5.0}),
        ("timing.pipeline_latency=0.05", {"pipeline_latency": 0.05}),
        ("run.duration=-1", {"duration": -1.0}),
        ("run.seed=-1", {"seed": -1}),
        ("run.duration=1e12", {"duration": 1e12}),
        ("timing.pipeline_latency=29", {"pipeline_latency": 29.0}),
    ])
    def test_replaced_values_meet_the_parser_rules(self, override, changes):
        # the run's rules belong to the config type: replace used to build a
        # config whose frames the loop overwrote or let overlap
        with pytest.raises(ConfigError) as parsed:
            default_config([override])
        with pytest.raises(ConfigError) as replaced:
            replace(default_config(), **changes)
        assert replaced.value.category == "config-domain"
        assert str(replaced.value) == str(parsed.value)

    def test_frame_rate_is_the_sensors_alone(self):
        cfg = default_config()
        with pytest.raises(TypeError):
            replace(cfg, lidar_rate=20.0)
        with pytest.raises(FrozenInstanceError):
            cfg.filter_rate = 5.0

    def test_reversed_tilt_range_names_the_tilt_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_DIR / "indoor_lock.cfg", ["turret.scan_tilt_min=0.3"])
        assert err.value.category == "config-domain"
        assert "scan_tilt_min must be <= scan_tilt_max" in str(err.value)
        assert "pan" not in str(err.value)

    @pytest.mark.parametrize("speed", ["0", "-1", "inf"])
    def test_sweep_speed_must_be_positive_and_finite(self, speed):
        # 0 used to end in a bare ZeroDivisionError, and -1 and inf in a
        # segment_duration error that did not name the key
        with pytest.raises(ConfigError) as err:
            default_config(["target.pattern=range_sweep", f"target.sweep_speed={speed}"])
        assert err.value.category == "config-domain"
        assert "sweep_speed" in str(err.value)

    @pytest.mark.parametrize("max_range", ["0", "-1", "inf"])
    def test_max_range_must_be_positive_and_finite(self, max_range):
        # these used to say "segment_duration must be positive" or "waypoint
        # coordinates must be finite", naming no key that was set
        with pytest.raises(ConfigError) as err:
            default_config(["target.pattern=range_sweep", f"target.max_range={max_range}"])
        assert err.value.category == "config-domain"
        assert "max_range" in str(err.value)

    @pytest.mark.parametrize("max_range, speed", [("5e-324", "6"), ("1e308", "1e-300"),
                                                  ("160", "1e-320")])
    def test_sweep_segment_duration_must_be_positive_and_finite(self, max_range, speed):
        # max_range * pi / (2 * sweep_speed) underflowed to 0 (an error naming
        # no key that was set) or overflowed to inf (a target that never left)
        with pytest.raises(ConfigError) as err:
            default_config(["target.pattern=range_sweep", f"target.max_range={max_range}",
                            f"target.sweep_speed={speed}"])
        assert err.value.category == "config-domain"
        assert "max_range * pi / (2 * sweep_speed)" in str(err.value)

    def test_infinite_turret_origin_names_the_rule(self):
        with pytest.raises(ConfigError) as err:
            default_config(["turret.origin=inf,0,1"])
        assert err.value.category == "config-domain"
        assert str(err.value) == "section [turret]: sensor origin must be finite"

    @pytest.mark.parametrize("override, message", [
        ("sensor.range_max=inf", "section [sensor]: range_max must be positive and finite"),
        ("sensor.range_max=0", "section [sensor]: range_max must be positive and finite"),
        ("filters.ground_margin=inf", "section [filters]: ground_margin must be finite"),
        ("filters.ground_margin=-inf", "section [filters]: ground_margin must be finite"),
    ])
    def test_infinite_range_max_or_ground_margin_names_the_key(self, override, message):
        # an inf range_max would keep rays that miss everything; an inf
        # ground_margin lets the range gate drop every point
        with pytest.raises(ConfigError) as err:
            default_config([override])
        assert err.value.category == "config-domain"
        assert str(err.value) == message

    def test_rays_per_frame_above_the_cap_rejected(self):
        # parse only, never run: 1e12 points/s is 1e11 rays per frame
        with pytest.raises(ConfigError) as err:
            default_config(["sensor.point_rate=1e12"])
        assert err.value.category == "config-domain"
        assert f"exceeds {MAX_RAYS_PER_FRAME} rays per frame" in str(err.value)

    @pytest.mark.parametrize("overrides, changes, message", [
        (["sensor.lidar_rate=1e-3", "timing.pipeline_latency=2000"], {"lidar_rate": 1e-3},
         f"point_rate / lidar_rate (240000 / 0.001) exceeds {MAX_RAYS_PER_FRAME} rays per frame"),
        (["sensor.point_rate=5"], {"point_rate": 5.0},
         "point_rate / lidar_rate (5 / 10) gives no ray per frame"),
        (["sensor.point_rate=-inf"], {"point_rate": -math.inf},
         "point_rate (-inf) must be positive and finite"),
        (["sensor.lidar_rate=0"], {"lidar_rate": 0.0}, "lidar_rate (0) must be positive and finite"),
        (["sensor.lidar_rate=inf"], {"lidar_rate": math.inf},
         "lidar_rate (inf) must be positive and finite"),
    ], ids=["rays_above_cap", "no_ray", "point_rate_-inf", "lidar_rate_0", "lidar_rate_inf"])
    def test_sensor_rate_rules_parse_as_replaced(self, overrides, changes, message):
        # parse only: each rule is stated once, in RosetteParams; the parser
        # used to state these again in words of its own, and the rays per
        # frame by integration_time, which is not a key
        with pytest.raises(ConfigError) as parsed:
            default_config(overrides)
        with pytest.raises(ValueError) as replaced:
            replace(default_config().sensor, **changes)
        assert parsed.value.category == "config-domain"
        assert str(replaced.value) == message
        assert str(parsed.value) == f"section [sensor]: {message}"

    @pytest.mark.parametrize("overrides, message", [
        (["tracker.n_particles=2000000000"], f"between 1 and {MAX_PARTICLES}"),
        (["run.duration=1e12"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["timing.filter_rate=1e15"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["run.duration=1e300", "timing.filter_rate=1e300"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["timing.filter_rate=1e12", "run.duration=0"], f"exceeds {MAX_RASTER_STEPS} raster steps"),
    ])
    def test_sizes_above_the_caps_rejected(self, overrides, message):
        # parse only, never run: each would allocate or loop without bound
        with pytest.raises(ConfigError) as err:
            default_config(overrides)
        assert err.value.category == "config-domain"
        assert message in str(err.value)

    def test_caps_are_inclusive(self):
        # parse only: exactly at every cap
        cfg = default_config([f"tracker.n_particles={MAX_PARTICLES}",
                              f"run.duration={MAX_EVENTS / 16}", "timing.filter_rate=16",
                              f"turret.scan_duration={MAX_RASTER_STEPS / 16}"])
        assert cfg.tracker.n_particles == MAX_PARTICLES
        assert cfg.duration * cfg.filter_rate == MAX_EVENTS
        assert cfg.turret.scan_duration * cfg.filter_rate == MAX_RASTER_STEPS

    def test_magnitude_caps_are_inclusive(self):
        # parse only: exactly at every magnitude cap (the vertical loop keeps
        # the centre's x in every waypoint)
        c = MAX_COORDINATE
        cfg = default_config([f"target.center={c},0,1.2", f"target.wait={MAX_WAIT}",
                              f"turret.origin={-c},{c},{-c}", f"tracker.surveillance_lo={-c},{-c},{-c}",
                              f"tracker.surveillance_hi={c},{c},{c}", f"sensor.f2={MAX_PRISM_FREQUENCY}"])
        assert {(p[0], w) for p, w in cfg.scene.target.trajectory.waypoints} == {(c, MAX_WAIT)}
        assert cfg.turret.origin == (-c, c, -c) and cfg.tracker.surveillance_hi == (c, c, c)
        assert cfg.sensor.f2 == MAX_PRISM_FREQUENCY

    @pytest.mark.parametrize("latency", ["inf", "1e9", "29"])
    def test_frames_in_flight_above_the_cap_name_both_keys(self, latency):
        # parse only, never run: the loop would hold every frame in flight
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_DIR / "indoor_vertical.cfg", [f"timing.pipeline_latency={latency}"])
        assert err.value.category == "config-domain"
        assert str(err.value).startswith("timing.pipeline_latency * sensor.lidar_rate")
        assert f"exceeds {MAX_IN_FLIGHT} frames in flight" in str(err.value)

    def test_frames_in_flight_cap_is_inclusive(self):
        cfg = default_config(["timing.pipeline_latency=32", "sensor.lidar_rate=8"])
        assert cfg.pipeline_latency * cfg.lidar_rate == MAX_IN_FLIGHT

    @pytest.mark.parametrize("override, message", [
        ("run.seed=-1", "run.seed (-1) must be >= 0"),
        ("sensor.f1=inf", "section [sensor]: prism frequencies must be positive and finite"),
        ("sensor.f2=inf", "section [sensor]: prism frequencies must be positive and finite"),
        ("target.takeoff_delay=-inf", "section [target]: trajectory start_time"),
        ("target.center=1e308,0,1", "section [target]: waypoint coordinates must be finite and "
                                    f"at most {MAX_COORDINATE:g} m in magnitude"),
        ("target.extent=1e308", "section [target]: waypoint coordinates must be finite and "
                                f"at most {MAX_COORDINATE:g} m in magnitude"),
        ("target.wait=1e308", f"section [target]: waypoint wait times must be between 0 and "
                              f"{MAX_WAIT:g} s, or inf"),
        ("turret.origin=1e308,0,1", "section [turret]: sensor origin coordinates must be at most "
                                    f"{MAX_COORDINATE:g} m in magnitude"),
        ("tracker.surveillance_hi=1e308,4,3", "section [tracker]: surveillance corner coordinates "
                                              f"must be at most {MAX_COORDINATE:g} m in magnitude"),
        ("sensor.f1=1e308", f"section [sensor]: prism frequencies must be at most "
                            f"{MAX_PRISM_FREQUENCY:g} Hz"),
        ("sensor.f2=1e308", f"section [sensor]: prism frequencies must be at most "
                            f"{MAX_PRISM_FREQUENCY:g} Hz"),
    ])
    def test_values_that_failed_mid_run_are_config_domain(self, override, message):
        # seed -1 failed after parsing, an infinite prism frequency raised an
        # OverflowError, and a takeoff at -inf ran into a RuntimeWarning, as
        # did each 1e308 magnitude (an overflow in the trajectory, a norm,
        # the tracker's estimate or the beam phase)
        with pytest.raises(ConfigError) as err:
            default_config([override])
        assert err.value.category == "config-domain"
        assert str(err.value).startswith(message)

    def test_raster_without_a_frame_names_both_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_DIR / "indoor_lock.cfg", ["turret.scan_duration=0.05"])
        assert err.value.category == "config-domain"
        assert "turret.scan_duration" in str(err.value) and "sensor.lidar_rate" in str(err.value)

    @pytest.mark.parametrize("near_min", ["0", "-1"])
    def test_near_min_must_be_positive(self, near_min):
        # 0 parsed and then failed mid-run dividing by a zero target range;
        # a negative range has no meaning
        with pytest.raises(ConfigError) as err:
            default_config(["target.pattern=hover", "target.center=0,0,1",
                            f"filters.near_min={near_min}", "run.duration=1",
                            "turret.scan_duration=0.5"])
        assert err.value.category == "config-domain"
        assert "near_min must be positive" in str(err.value)

    def test_domain_violation_reported(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[tracker]\nn_particles = 0\n"))
        assert err.value.category == "config-domain"

    def test_key_set_twice_names_both_lines(self, tmp_path):
        # the later line used to win silently: this file ran at f1 = 50 Hz
        path = write(tmp_path, "[sensor]\nf1 = 161\nf1 = 50\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.category == "config-syntax"
        assert str(err.value) == f"{path}:3: [sensor] f1 is already set at {path}:2"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("[target]\ndiameter = 0.2\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config(path).scene.target.diameter == 0.2

    def test_scene_is_frozen_with_the_config(self):
        cfg = default_config()
        with pytest.raises(FrozenInstanceError):
            cfg.scene.ground_z = 3.0
        with pytest.raises(FrozenInstanceError):
            cfg.scene.target.diameter = 0.5
        assert cfg.scene.ground_z == 0.0 and cfg.scene.target.diameter == 0.1

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(tmp_path / "absent.cfg")
        assert err.value.category == "io"

    def test_obstacle_boxes_parse(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[scene]\nobstacles = 0,0,0,1,1,1 ; 2,2,2,3,3,3\n"))
        assert len(cfg.scene.obstacles) == 2
        assert cfg.scene.obstacles[1].lo == (2.0, 2.0, 2.0)

    def test_zero_duration_allowed(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\nduration = 0.0\n"))
        assert cfg.duration == 0.0

    @pytest.mark.parametrize("key", ["near_min", "far_max", "ground_margin"])
    def test_background_gate_keys_rejected(self, tmp_path, key):
        # the background build gates with [filters]; it has no gate of its own
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, f"[background]\n{key} = 1\n"))
        assert err.value.category == "config-unknown-key"
        assert key in str(err.value)

    def test_takeoff_delay_offsets_trajectory_start(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[target]\ntakeoff_delay = 1.5\n"
                                           "[turret]\nscan_duration = 3.0\n"))
        assert cfg.scene.target.trajectory.start_time == 3.0 + 1.5


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        path = write(tmp_path, "[run]\nseed = 3\n")
        cfg = parse_config(path, ["run.seed=4", "run.seed=9", "tracker.sigma_pred=0.2"])
        assert cfg.seed == 9
        assert cfg.tracker.sigma_pred == pytest.approx(0.2)
        assert cfg.tracker.stability_threshold == pytest.approx(0.3)

    def test_bad_override_shape_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ConfigError):
            parse_config(path, ["seed=9"])
        with pytest.raises(ConfigError):
            parse_config(path, ["run.unknown=1"])

    def test_default_config_accepts_overrides(self):
        cfg = default_config(["target.pattern=fast"])
        assert cfg.scene.target.trajectory == tracking_pattern(cfg, "fast")

    def test_infinite_slew_rate_is_an_instant_turret(self):
        assert default_config(["turret.max_slew_rate=inf"]).turret.max_slew_rate == math.inf


# for each target key that the default pattern does not read, the first
# pattern that reads it
PATTERN_FOR_KEY = {
    ("target", key): f"target.pattern={next(p for p in PATTERN_NAMES if key in PATTERN_KEYS[p])}"
    for keys in PATTERN_KEYS.values() for key in keys
    if key not in PATTERN_KEYS[SCHEMA["target"]["pattern"].default]}


def other_value(spec) -> str:
    """A valid value of `spec`'s kind that differs from its default."""
    if spec.kind == "choice":
        return next(c for c in spec.choices if c != spec.default)
    if spec.kind == "boxes":
        return "0,0,0,1,1,1"
    if spec.kind == "int":
        return str(spec.default + 1)
    if spec.kind == "vec3":
        return ",".join(str(v + 0.1) for v in spec.default)
    if spec.default is None:
        return "0.2"
    return str(0.9 * spec.default if spec.default else 0.05)


# the class whose fields each section's keys set
SECTION_CLASSES = {"scene": WeatherModel, "sensor": RosetteParams, "filters": FilterParams,
                   "background": BackgroundBuildParams, "tracker": TrackerParams,
                   "turret": TurretParams}


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_every_key_sets_a_field_in_its_own_section(section, key):
    # a key that sets another section's class field is read in two places
    name = key.removesuffix("_deg")
    owners = [s for s, cls in SECTION_CLASSES.items() if name in {f.name for f in fields(cls)}]
    assert owners in ([], [section])


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_every_key_reaches_the_built_config(section, key):
    # a key whose name no longer matches a field would be silently ignored
    base = [PATTERN_FOR_KEY[(section, key)]] if (section, key) in PATTERN_FOR_KEY else []
    changed = default_config([*base, f"{section}.{key}={other_value(SCHEMA[section][key])}"])
    assert repr(changed) != repr(default_config(base))


# A number: one near the default (in domain or not), a boundary value, or one
# out of any domain.
EDGE_NUMBERS = ("0", "-0.0", "5e-324", "1e308", "inf", "-inf")
BAD_NUMBERS = ("-1", "-1e308", "nan")


def number_texts(default) -> st.SearchStrategy[str]:
    scale = 2 * abs(default or 1)
    near = st.floats(-scale, scale, allow_nan=False).map(repr)
    return st.one_of(near, st.sampled_from(EDGE_NUMBERS + BAD_NUMBERS))


def value_texts(spec) -> st.SearchStrategy[str]:
    if spec.kind == "choice":
        return st.sampled_from(spec.choices)
    if spec.kind == "vec3":
        return st.tuples(*(number_texts(v) for v in spec.default)).map(",".join)
    if spec.kind == "boxes":
        box = st.tuples(*[number_texts(1.0)] * 6).map(",".join)
        return st.lists(box, max_size=2).map(";".join)
    if spec.kind == "int":
        return st.one_of(st.integers(-2, 2 * spec.default + 2).map(str), number_texts(spec.default))
    return number_texts(spec.default)


KEYS = [(s, k) for s, keys in SCHEMA.items() for k in keys]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_single_key_value_parses_or_is_a_config_error(data):
    # parse only, never run: a value either builds a config or is refused
    # as config-value / config-domain, never another exception or a warning
    section, key = data.draw(st.sampled_from(KEYS), label="key")
    text = data.draw(value_texts(SCHEMA[section][key]), label="value")
    base = [PATTERN_FOR_KEY[(section, key)]] if (section, key) in PATTERN_FOR_KEY else []
    try:
        default_config([*base, f"{section}.{key}={text}"])
    except ConfigError as err:
        assert err.category in ("config-value", "config-domain")


@pytest.mark.parametrize("override", ["background.resolution=5e-324",
                                      "background.bounds_hi=1e308,5,4",
                                      "background.bounds_lo=-1e308,-5,-0.5"])
def test_voxel_index_overflow_is_refused_without_a_warning(override):
    # the divisions in grid_shape overflowed to inf with a RuntimeWarning
    with pytest.raises(ConfigError) as err:
        default_config([override])
    assert err.value.category == "config-domain"
    assert "voxel indices beyond 2**62" in str(err.value)


@pytest.mark.parametrize("key", ["center", "extent", "wait", "max_range", "sweep_speed"])
@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_pattern_key_changes_the_trajectory_or_is_rejected(pattern, key):
    # a pattern key either moves the target or is refused: never silently ignored
    base = [f"target.pattern={pattern}"]
    override = f"target.{key}={other_value(SCHEMA['target'][key])}"
    if key in PATTERN_KEYS[pattern]:
        changed = default_config([*base, override]).scene.target.trajectory
        assert changed != default_config(base).scene.target.trajectory
    else:
        with pytest.raises(ConfigError) as err:
            default_config([*base, override])
        assert err.value.category == "config-domain"
        assert f"] {key} has no effect" in str(err.value) and f"pattern = {pattern}" in str(err.value)


@pytest.mark.parametrize("pattern, keys, reported", [
    ("hover", ["wait", "extent"], "extent"),
    ("range_sweep", ["wait", "extent"], "extent"),
    ("fast", ["sweep_speed", "max_range"], "max_range"),
    ("hover", ["sweep_speed", "max_range", "wait"], "wait"),
])
def test_first_unread_key_in_signature_order_is_reported(pattern, keys, reported):
    # make_pattern's argument order decides, not the order the keys are set in
    with pytest.raises(ConfigError) as err:
        default_config([f"target.pattern={pattern}", *(f"target.{k}=1" for k in keys)])
    assert f"] {reported} has no effect" in str(err.value)


def test_config_error_survives_pickling():
    # run_many workers send exceptions back pickled
    err = pickle.loads(pickle.dumps(ConfigError("config-domain", "x")))
    assert isinstance(err, ConfigError)
    assert (err.category, str(err)) == ("config-domain", "x")


class TestBundledConfigs:
    def test_all_bundled_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path)
            assert cfg.duration >= 0

    def test_indoor_fast_has_reference_prediction_noise(self):
        cfg = parse_config(CONFIG_DIR / "indoor_fast.cfg")
        assert cfg.tracker.sigma_pred == pytest.approx(0.1)
        assert cfg.scene.target.trajectory == tracking_pattern(
            cfg, "fast", center=(4.0, 0.0, 1.6), extent=1.8, wait=2.0)
        assert cfg.tracker.stability_threshold == pytest.approx(0.15)

    def test_frames_integrate_for_one_lidar_period(self):
        # a frame lasts one period, so no key sets the integration window
        cfgs = [parse_config(path) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
        cfgs.append(default_config(["sensor.lidar_rate=20", "timing.filter_rate=20"]))
        cfgs.append(replace(cfgs[0], sensor=replace(cfgs[0].sensor, lidar_rate=20.0), filter_rate=20.0))
        for cfg in cfgs:
            assert cfg.sensor.integration_time == 1.0 / cfg.lidar_rate
        assert cfgs[-2].sensor.integration_time == cfgs[-1].sensor.integration_time == 0.05

    def test_sweep_configs_differ_only_in_weather(self):
        clear = parse_config(CONFIG_DIR / "outdoor_sweep_clear.cfg")
        foggy = parse_config(CONFIG_DIR / "outdoor_sweep_foggy.cfg")
        assert clear.scene.weather.extinction_beta == 0.0
        assert foggy.scene.weather.extinction_beta == pytest.approx(0.03)
        assert clear.scene.weather.saturation_range == foggy.scene.weather.saturation_range


class TestDescribe:
    def test_schema_dump_covers_all_sections(self):
        text = describe_schema()
        for section in ("scene", "target", "sensor", "filters", "background",
                        "tracker", "turret", "timing", "run"):
            assert f"[{section}]" in text
        assert "sigma_pred" in text

    def test_trajectory_build_matches_pattern(self):
        cfg = default_config(["target.pattern=fast"])
        traj = cfg.scene.target.trajectory
        assert traj.segment_duration == 2.25
