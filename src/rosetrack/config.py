"""Scenario configuration: documented schema, file parser, and overrides.

The file format is a small INI dialect: ``[section]`` headers, ``key = value``
lines, ``#`` comments. Vectors are comma-separated, obstacle boxes are
semicolon-separated sextuples ``x0,y0,z0,x1,y1,z1``. Unknown sections and
keys are rejected; missing keys fall back to the documented defaults, which
together describe the indoor arena scenario.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields
from typing import Any

from .background import BackgroundBuildParams
from .filters import FilterParams
from .scene import PATTERN_KEYS, PATTERN_NAMES, Box, Scene, TargetModel, WeatherModel, make_pattern
from .sensor import RosetteParams, event_count
from .tracker import TrackerParams
from .turret import MAX_RASTER_STEPS, TurretParams


# Most filter ticks one run may have: 1200x the bundled 870 (indoor_vertical).
# The loop runs once per tick and frame and the logs hold a row per tick, so a
# larger count stops at parse time. The tracking phase has no more frames than
# ticks, as the raster has no more frames than steps: filter_rate >= lidar_rate.
MAX_EVENTS = 2**20

# Most frames in flight (pipeline_latency * lidar_rate): 213x the bundled 1.2.
# The loop holds each delivered frame's cloud until its tick, so a longer
# pipeline stops at parse time.
MAX_IN_FLIGHT = 2**8


class ConfigError(ValueError):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category

    def __reduce__(self):
        return type(self), (self.category, str(self))


@dataclass(frozen=True)
class FieldSpec:
    kind: str       # float | int | vec3 | boxes | choice
    default: Any
    doc: str
    choices: tuple = ()


# A key that sets a parameter-class field or a make_pattern argument takes its
# default from there; the schema holds the rest. A key sets the class field of
# the same name (a *_deg key: its radian field).
_PATTERN = inspect.signature(make_pattern).parameters

SCHEMA: dict[str, dict[str, FieldSpec]] = {
    "scene": {
        "ground_z": FieldSpec("float", 0.0, "ground plane height, m"),
        "obstacles": FieldSpec("boxes", [], "axis-aligned boxes 'x0,y0,z0,x1,y1,z1', ';'-separated"),
        "extinction_beta": FieldSpec("float", WeatherModel.extinction_beta, "atmospheric extinction, 1/m (0 = clear air)"),
        "detection_threshold": FieldSpec("float", WeatherModel.detection_threshold, "returns with keep probability below this are dropped"),
        "saturation_range": FieldSpec("float", WeatherModel.saturation_range, "near-field saturation range of the return model, m"),
    },
    "target": {
        "diameter": FieldSpec("float", 0.10, "target sphere diameter, m"),
        "reflectivity": FieldSpec("float", 0.9, "target reflectivity in (0, 1]"),
        "pattern": FieldSpec("choice", "vertical", "flight pattern", PATTERN_NAMES),
        "center": FieldSpec("vec3", _PATTERN["center"].default, "pattern center, m (sweeps start here)"),
        "extent": FieldSpec("float", _PATTERN["extent"].default, "pattern segment extent, m (square and line patterns only)"),
        "wait": FieldSpec("float", _PATTERN["wait"].default, "hold time at each waypoint, s (square and line patterns only)"),
        "max_range": FieldSpec("float", _PATTERN["max_range"].default, "range_sweep outbound distance, m"),
        "sweep_speed": FieldSpec("float", _PATTERN["sweep_speed"].default, "range_sweep peak speed cap, m/s"),
        "takeoff_delay": FieldSpec("float", TargetModel.takeoff_delay, "tracking-phase seconds before the target appears, s"),
    },
    "sensor": {
        "f1": FieldSpec("float", RosetteParams.f1, "first prism frequency, Hz"),
        "f2": FieldSpec("float", RosetteParams.f2, "second prism frequency, Hz"),
        "fov_h_deg": FieldSpec("float", math.degrees(RosetteParams.fov_h), "horizontal field of view, degrees (full angle)"),
        "fov_v_deg": FieldSpec("float", math.degrees(RosetteParams.fov_v), "vertical field of view, degrees (full angle)"),
        "point_rate": FieldSpec("float", RosetteParams.point_rate, "emitted rays per second"),
        "lidar_rate": FieldSpec("float", RosetteParams.lidar_rate, "LiDAR frame rate, Hz; each frame integrates for one period"),
        "range_max": FieldSpec("float", RosetteParams.range_max, "maximum measurable range, m"),
        "range_noise_sigma": FieldSpec("float", RosetteParams.range_noise_sigma, "Gaussian range noise sigma, m"),
    },
    "filters": {
        "near_min": FieldSpec("float", FilterParams.near_min, "minimum sensor range kept, m"),
        "far_max": FieldSpec("float", FilterParams.far_max, "maximum sensor range kept, m"),
        "ground_margin": FieldSpec("float", FilterParams.ground_margin, "keep points above ground_z + margin, m"),
        "ror_radius": FieldSpec("float", FilterParams.ror_radius, "radius outlier removal: neighborhood radius, m"),
        "ror_min_neighbors": FieldSpec("int", FilterParams.ror_min_neighbors, "radius outlier removal: required neighbors"),
        "sor_k": FieldSpec("int", FilterParams.sor_k, "statistical outlier removal: neighbors averaged"),
        "sor_alpha": FieldSpec("float", FilterParams.sor_alpha, "statistical outlier removal: std-dev multiplier"),
    },
    "background": {
        "resolution": FieldSpec("float", BackgroundBuildParams.resolution, "voxel edge length, m"),
        "inflation_radius": FieldSpec("int", BackgroundBuildParams.inflation_radius, "Chebyshev dilation radius, voxels"),
        "bounds_lo": FieldSpec("vec3", BackgroundBuildParams.bounds_lo, "background map bounds, lower corner, m"),
        "bounds_hi": FieldSpec("vec3", BackgroundBuildParams.bounds_hi, "background map bounds, upper corner, m"),
    },
    "tracker": {
        "n_particles": FieldSpec("int", TrackerParams.n_particles, "particle count"),
        "sigma_pred": FieldSpec("float", TrackerParams.sigma_pred, "predict-step noise sigma per axis, m"),
        "sigma_meas": FieldSpec("float", TrackerParams.sigma_meas, "measurement kernel sigma, m"),
        "lost_after_misses": FieldSpec("int", TrackerParams.lost_after_misses, "consecutive missing measurements before Lost"),
        "surveillance_lo": FieldSpec("vec3", TrackerParams.surveillance_lo, "initial particle volume lower corner, m"),
        "surveillance_hi": FieldSpec("vec3", TrackerParams.surveillance_hi, "initial particle volume upper corner, m"),
    },
    "turret": {
        "origin": FieldSpec("vec3", TurretParams.origin, "sensor mounting point, world frame, m"),
        "max_slew_rate": FieldSpec("float", TurretParams.max_slew_rate, "max angular rate per axis, rad/s"),
        "deadband_deg": FieldSpec("float", math.degrees(TurretParams.deadband), "hold commands below this angular change, degrees"),
        "scan_pan_min": FieldSpec("float", TurretParams.scan_pan_min, "raster pan start, rad"),
        "scan_pan_max": FieldSpec("float", TurretParams.scan_pan_max, "raster pan end, rad"),
        "scan_tilt_min": FieldSpec("float", TurretParams.scan_tilt_min, "raster tilt start, rad"),
        "scan_tilt_max": FieldSpec("float", TurretParams.scan_tilt_max, "raster tilt end, rad"),
        "scan_line_spacing": FieldSpec("float", TurretParams.scan_line_spacing, "raster row spacing, rad"),
        "scan_duration": FieldSpec("float", TurretParams.scan_duration, "background build phase length, s"),
    },
    "timing": {
        "filter_rate": FieldSpec("float", 15.0, "particle filter tick and turret command rate, Hz"),
        "pipeline_latency": FieldSpec("float", 0.12, f"integration start to filter delivery, s (1 to {MAX_IN_FLIGHT} frame periods)"),
    },
    "run": {
        "duration": FieldSpec("float", 20.0, "tracking phase length, s (0 allowed: build-only run)"),
        "seed": FieldSpec("int", 0, "root RNG seed, >= 0"),
    },
}


def _check_events(span_key: str, span: float, rate_key: str, rate: float,
                  least: int, what: str, cap: int = MAX_EVENTS) -> None:
    """Reject unless least <= event_count(span, rate) <= cap and the span is
    finite. The cap is tested on the product first, which may overflow to inf."""
    given = f"{span_key} * {rate_key} ({span:g} * {rate:g})"
    if span * rate > cap:
        raise ConfigError("config-domain", f"{given} exceeds {cap} {what}")
    if not math.isfinite(span):
        raise ConfigError("config-domain", f"{given} must be finite")
    n = event_count(span, rate)
    if n < least:
        raise ConfigError("config-domain", f"{given} gives {n} {what}; at least {least} needed")


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed scenario description; built from SCHEMA values.

    The scene holds the target: its flight pattern as make_pattern builds it
    and its takeoff delay, which the run adds to the end of the raster to
    start the pattern. The run's clock rules hold for every config, however
    made (dataclasses.replace included), and name the keys that set each value.
    """

    scene: Scene
    sensor: RosetteParams
    filters: FilterParams
    background: BackgroundBuildParams
    tracker: TrackerParams
    turret: TurretParams
    filter_rate: float
    pipeline_latency: float
    duration: float
    seed: int

    @property
    def lidar_rate(self) -> float:
        """The LiDAR frame rate, Hz: the sensor's, its one source."""
        return self.sensor.lidar_rate

    def __post_init__(self):
        if self.scene.target is None or self.scene.target.trajectory.start_time != 0:  # the run places it
            raise ConfigError("config-domain", "the scene must hold a target whose trajectory starts at 0")
        lr, fr = self.lidar_rate, self.filter_rate
        if not 0 < fr < math.inf:
            raise ConfigError("config-domain", f"timing.filter_rate ({fr:g}) must be positive and finite")
        if fr < lr:  # no tick may receive two frames
            raise ConfigError("config-domain",
                              f"timing.filter_rate ({fr:g}) must be >= sensor.lidar_rate ({lr:g})")
        if not 0 <= self.duration < math.inf:
            raise ConfigError("config-domain", f"run.duration ({self.duration:g}) must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("config-domain", f"run.seed ({self.seed}) must be >= 0")
        scan = self.turret.scan_duration
        _check_events("run.duration", self.duration, "timing.filter_rate", fr, 0, "filter ticks")
        _check_events("turret.scan_duration", scan, "timing.filter_rate", fr, 0, "raster steps",
                      MAX_RASTER_STEPS)
        _check_events("turret.scan_duration", scan, "sensor.lidar_rate", lr, 1, "raster frames")
        _check_events("timing.pipeline_latency", self.pipeline_latency, "sensor.lidar_rate", lr,
                      1, "frames in flight", MAX_IN_FLIGHT)


def _number(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN is not allowed")
    return value


def _convert(spec: FieldSpec, text: str, where: str):
    try:
        if spec.kind == "float":
            return _number(text)
        if spec.kind == "int":
            value = _number(text)
            if not math.isfinite(value) or value != int(value):
                raise ValueError("not an integer")
            return int(value)
        if spec.kind == "choice":
            value = text.strip()
            if value not in spec.choices:
                raise ValueError(f"must be one of {', '.join(spec.choices)}")
            return value
        if spec.kind == "vec3":
            parts = [_number(p) for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return tuple(parts)
        if spec.kind == "boxes":
            boxes = []
            for chunk in filter(None, (c.strip() for c in text.split(";"))):
                parts = [_number(p) for p in chunk.split(",")]
                if len(parts) != 6:
                    raise ValueError("each box needs six numbers x0,y0,z0,x1,y1,z1")
                boxes.append(Box(tuple(parts[:3]), tuple(parts[3:])))
            return boxes
    except ValueError as exc:
        raise ConfigError("config-value", f"{where}: bad value {text!r}: {exc}") from exc
    raise AssertionError(f"unhandled field kind {spec.kind}")


def _parse_lines(lines, source: str) -> dict[tuple[str, str], tuple[str, str]]:
    """Raw (section, key) -> (value text, location) mapping with line numbers."""
    values: dict[tuple[str, str], tuple[str, str]] = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        where = f"{source}:{lineno}"
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("config-syntax", f"{where}: unterminated section header {line!r}")
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError("config-unknown-key",
                                  f"{where}: unknown section [{section}]; expected one of "
                                  f"{', '.join(SCHEMA)}")
            continue
        if "=" not in line:
            raise ConfigError("config-syntax", f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError("config-syntax", f"{where}: key outside any [section]")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError("config-unknown-key",
                              f"{where}: unknown key {key!r} in section [{section}]")
        if (section, key) in values:
            raise ConfigError("config-syntax", f"{where}: [{section}] {key} is already set at "
                                               f"{values[(section, key)][1]}")
        values[(section, key)] = (text, where)
    return values


def _reject_unread_pattern_keys(values: dict[tuple[str, str], tuple[str, str]],
                                pattern: str) -> None:
    """A target key that the pattern does not read would have no effect; the
    first one set, in make_pattern's argument order, is reported."""
    for key in _PATTERN:
        if key not in PATTERN_KEYS[pattern] and ("target", key) in values:
            raise ConfigError("config-domain",
                              f"{values[('target', key)][1]}: [target] {key} has no effect "
                              f"with target.pattern = {pattern}")


def _build_config(values: dict[tuple[str, str], tuple[str, str]]) -> ScenarioConfig:
    cfg: dict[str, dict[str, Any]] = {
        section: {key: spec.default for key, spec in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for (section, key), (text, where) in values.items():
        cfg[section][key] = _convert(SCHEMA[section][key], text, f"{where}: [{section}] {key}")
    _reject_unread_pattern_keys(values, cfg["target"]["pattern"])
    for keys in cfg.values():
        for key in [k for k in keys if k.endswith("_deg")]:
            keys[key[:-len("_deg")]] = math.radians(keys.pop(key))

    def domain(section: str, builder):
        try:
            return builder()
        except ValueError as exc:
            raise ConfigError("config-domain", f"section [{section}]: {exc}") from exc

    def params(cls, section: str):
        names = {f.name for f in fields(cls)}
        return domain(section, lambda: cls(**{k: v for k, v in cfg[section].items() if k in names}))

    s, tg, tm, rn = (cfg[k] for k in ("scene", "target", "timing", "run"))
    weather = params(WeatherModel, "scene")
    sensor = params(RosetteParams, "sensor")
    filters = params(FilterParams, "filters")
    background = params(BackgroundBuildParams, "background")
    tracker = params(TrackerParams, "tracker")
    turret = params(TurretParams, "turret")

    tg["trajectory"] = domain("target", lambda: make_pattern(
        tg["pattern"], **{k: tg[k] for k in PATTERN_KEYS[tg["pattern"]]}))
    return ScenarioConfig(
        scene=Scene(s["ground_z"], tuple(s["obstacles"]), params(TargetModel, "target"), weather),
        sensor=sensor, filters=filters, background=background, tracker=tracker,
        turret=turret, filter_rate=tm["filter_rate"], pipeline_latency=tm["pipeline_latency"],
        duration=rn["duration"], seed=rn["seed"],
    )


def parse_config(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load a scenario file, apply ``section.key=value`` overrides, validate."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("io", f"cannot read config {path}: {exc}") from exc
    values = _parse_lines(lines, str(path))
    _apply_overrides(values, overrides)
    return _build_config(values)


def default_config(overrides: list[str] | None = None) -> ScenarioConfig:
    """The all-defaults scenario (indoor arena, vertical pattern)."""
    values: dict[tuple[str, str], tuple[str, str]] = {}
    _apply_overrides(values, overrides)
    return _build_config(values)


def _apply_overrides(values: dict[tuple[str, str], tuple[str, str]],
                     overrides: list[str] | None) -> None:
    """Parse ``section.key=value`` items into ``values``, later items winning."""
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError("config-syntax",
                              f"override {item!r} must look like section.key=value")
        dotted, text = item.split("=", 1)
        section, key = dotted.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError("config-unknown-key", f"override: unknown key {section}.{key}")
        values[(section, key)] = (text.strip(), f"override {dotted}")


def describe_schema() -> str:
    """Human-readable schema dump for the describe-config subcommand."""
    out = []
    for section, keys in SCHEMA.items():
        out.append(f"[{section}]")
        for key, spec in keys.items():
            default = spec.default
            if spec.kind == "vec3":
                default = ", ".join(f"{v:g}" for v in default)
            elif spec.kind == "boxes":
                default = "(none)"
            extra = f" (one of: {', '.join(spec.choices)})" if spec.choices else ""
            out.append(f"  {key} = {default}  # {spec.doc}{extra}")
        out.append("")
    return "\n".join(out)
