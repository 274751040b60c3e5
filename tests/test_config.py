import math
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from rosetrack.config import (MAX_EVENTS, SCHEMA, ConfigError, default_config, describe_schema,
                              parse_config)
from rosetrack.scene import make_pattern
from rosetrack.sensor import MAX_RAYS_PER_FRAME
from rosetrack.tracker import MAX_PARTICLES
from rosetrack.turret import MAX_RASTER_STEPS

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
            parse_config(write(tmp_path, "[timing]\nlidar_rate = 20.0\nfilter_rate = 15.0\n"))
        assert err.value.category == "config-domain"
        assert "filter_rate" in str(err.value) and "lidar_rate" in str(err.value)

    def test_latency_must_cover_integration(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[timing]\npipeline_latency = 0.05\n"))
        assert "pipeline_latency" in str(err.value)
        assert "integration_time" in str(err.value)

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

    def test_rays_per_frame_above_the_cap_rejected(self):
        # parse only, never run: 1e12 points/s is 1e11 rays per frame
        with pytest.raises(ConfigError) as err:
            default_config(["sensor.point_rate=1e12"])
        assert err.value.category == "config-domain"
        assert f"exceeds {MAX_RAYS_PER_FRAME} rays per frame" in str(err.value)

    @pytest.mark.parametrize("overrides, message", [
        (["tracker.n_particles=2000000000"], f"between 1 and {MAX_PARTICLES}"),
        (["run.duration=1e12"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["timing.filter_rate=1e15"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["run.duration=1e300", "timing.filter_rate=1e300"], f"exceeds {MAX_EVENTS} filter ticks"),
        (["turret.command_rate=1e12"], f"exceeds {MAX_RASTER_STEPS} raster steps"),
        (["turret.scan_duration=1e5", "turret.command_rate=1", "timing.lidar_rate=100",
          "timing.filter_rate=100", "sensor.integration_time=0.01"],
         f"exceeds {MAX_EVENTS} raster frames"),
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
                              f"turret.scan_duration={MAX_RASTER_STEPS / 16}",
                              "turret.command_rate=16"])
        assert cfg.tracker.n_particles == MAX_PARTICLES
        assert cfg.duration * cfg.filter_rate == MAX_EVENTS
        assert cfg.turret.scan_duration * cfg.turret.command_rate == MAX_RASTER_STEPS

    def test_raster_without_a_frame_names_both_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_DIR / "indoor_lock.cfg", ["turret.scan_duration=0.05"])
        assert err.value.category == "config-domain"
        assert "turret.scan_duration" in str(err.value) and "timing.lidar_rate" in str(err.value)

    def test_domain_violation_reported(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "[tracker]\nn_particles = 0\n"))
        assert err.value.category == "config-domain"

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
        cfg = parse_config(path, ["run.seed=9", "tracker.sigma_pred=0.2"])
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


# keys that a pattern other than the default one reads
PATTERN_FOR_KEY = {("target", "max_range"): "target.pattern=range_sweep",
                   ("target", "sweep_speed"): "target.pattern=range_sweep"}


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


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_every_key_reaches_the_built_config(section, key):
    # a key whose name no longer matches a field would be silently ignored
    base = [PATTERN_FOR_KEY[(section, key)]] if (section, key) in PATTERN_FOR_KEY else []
    changed = default_config([*base, f"{section}.{key}={other_value(SCHEMA[section][key])}"])
    assert repr(changed) != repr(default_config(base))


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
