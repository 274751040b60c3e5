"""Scenario configuration: documented schema, file parser, and overrides.

The file format is a small INI dialect: ``[section]`` headers, ``key = value``
lines, ``#`` comments. Vectors are comma-separated, obstacle boxes are
semicolon-separated sextuples ``x0,y0,z0,x1,y1,z1``. Unknown sections and
keys are rejected; missing keys fall back to the documented defaults, which
together describe the indoor arena scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .background import BackgroundBuildParams
from .filters import FilterParams
from .scene import PATTERN_NAMES, Box, Scene, TargetModel, WeatherModel, make_pattern
from .sensor import RingScanParams, RosetteParams
from .tracker import TrackerParams
from .turret import TurretParams


class ConfigError(ValueError):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@dataclass(frozen=True)
class FieldSpec:
    kind: str       # float | int | vec3 | boxes | choice | opt_float
    default: Any
    doc: str
    choices: tuple = ()


SCHEMA: dict[str, dict[str, FieldSpec]] = {
    "scene": {
        "ground_z": FieldSpec("float", 0.0, "ground plane height, m"),
        "obstacles": FieldSpec("boxes", [], "axis-aligned boxes 'x0,y0,z0,x1,y1,z1', ';'-separated"),
        "extinction_beta": FieldSpec("float", 0.0, "atmospheric extinction, 1/m (0 = clear air)"),
        "detection_threshold": FieldSpec("float", 0.02, "returns with keep probability below this are dropped"),
        "saturation_range": FieldSpec("float", 90.0, "near-field saturation range of the return model, m"),
    },
    "target": {
        "diameter": FieldSpec("float", 0.10, "target sphere diameter, m"),
        "reflectivity": FieldSpec("float", 0.9, "target reflectivity in (0, 1]"),
        "pattern": FieldSpec("choice", "vertical", "flight pattern", PATTERN_NAMES),
        "center": FieldSpec("vec3", (4.0, 0.0, 1.2), "pattern center, m (sweeps start here)"),
        "extent": FieldSpec("float", 1.8, "pattern segment extent, m"),
        "wait": FieldSpec("float", 2.0, "hold time at each waypoint, s"),
        "max_range": FieldSpec("float", 160.0, "range_sweep outbound distance, m"),
        "sweep_speed": FieldSpec("float", 6.0, "range_sweep peak speed cap, m/s"),
        "takeoff_delay": FieldSpec("float", 0.0, "tracking-phase seconds before the target appears, s"),
    },
    "sensor": {
        "pattern": FieldSpec("choice", "rosette", "sampling pattern", ("rosette", "ring")),
        "f1": FieldSpec("float", 50.0, "first prism frequency, Hz"),
        "f2": FieldSpec("float", 31.0, "second prism frequency, Hz"),
        "fov_h_deg": FieldSpec("float", 70.4, "horizontal field of view, degrees (full angle)"),
        "fov_v_deg": FieldSpec("float", 77.2, "vertical field of view, degrees (full angle)"),
        "point_rate": FieldSpec("float", 240000.0, "emitted rays per second"),
        "integration_time": FieldSpec("float", 0.1, "frame integration window, s"),
        "range_max": FieldSpec("float", 260.0, "maximum measurable range, m"),
        "range_noise_sigma": FieldSpec("float", 0.02, "Gaussian range noise sigma, m"),
        "n_rings": FieldSpec("int", 16, "ring mode: number of elevation rings"),
        "spin_rate": FieldSpec("float", 10.0, "ring mode: azimuth spin rate, Hz"),
    },
    "filters": {
        "near_min": FieldSpec("float", 0.5, "minimum sensor range kept, m"),
        "far_max": FieldSpec("float", 200.0, "maximum sensor range kept, m"),
        "ground_margin": FieldSpec("float", 0.3, "keep points above ground_z + margin, m"),
        "ror_radius": FieldSpec("float", 0.5, "radius outlier removal: neighborhood radius, m"),
        "ror_min_neighbors": FieldSpec("int", 2, "radius outlier removal: required neighbors"),
        "sor_k": FieldSpec("int", 8, "statistical outlier removal: neighbors averaged"),
        "sor_alpha": FieldSpec("float", 1.0, "statistical outlier removal: std-dev multiplier"),
    },
    "background": {
        "resolution": FieldSpec("float", 0.1, "voxel edge length, m"),
        "inflation_radius": FieldSpec("int", 1, "Chebyshev dilation radius, voxels"),
        "bounds_lo": FieldSpec("vec3", (-1.0, -5.0, -0.5), "surveillance volume lower corner, m"),
        "bounds_hi": FieldSpec("vec3", (9.0, 5.0, 4.0), "surveillance volume upper corner, m"),
    },
    "tracker": {
        "n_particles": FieldSpec("int", 500, "particle count"),
        "sigma_pred": FieldSpec("float", 0.1, "predict-step noise sigma per axis, m"),
        "sigma_meas": FieldSpec("float", 0.15, "measurement kernel sigma, m"),
        "sigma_threshold": FieldSpec("opt_float", None, "stability cutoff, m (default: 1.5 * sigma_pred)"),
        "lost_after_misses": FieldSpec("int", 10, "consecutive missing measurements before Lost"),
        "likelihood": FieldSpec("choice", "centroid", "measurement model", ("centroid", "nearest")),
        "surveillance_lo": FieldSpec("vec3", (1.0, -4.0, 0.2), "initial particle volume lower corner, m"),
        "surveillance_hi": FieldSpec("vec3", (8.0, 4.0, 3.0), "initial particle volume upper corner, m"),
    },
    "turret": {
        "origin": FieldSpec("vec3", (0.0, 0.0, 1.0), "sensor mounting point, world frame, m"),
        "max_slew_rate": FieldSpec("float", math.pi, "max angular rate per axis, rad/s"),
        "command_rate": FieldSpec("float", 15.0, "command sampling rate, Hz"),
        "deadband_deg": FieldSpec("float", 0.5, "hold commands below this angular change, degrees"),
        "scan_pan_min": FieldSpec("float", -0.6, "raster pan start, rad"),
        "scan_pan_max": FieldSpec("float", 0.6, "raster pan end, rad"),
        "scan_tilt_min": FieldSpec("float", 0.0, "raster tilt start, rad"),
        "scan_tilt_max": FieldSpec("float", 0.25, "raster tilt end, rad"),
        "scan_line_spacing": FieldSpec("float", 0.25, "raster row spacing, rad"),
        "scan_duration": FieldSpec("float", 5.0, "background build phase length, s"),
    },
    "timing": {
        "lidar_rate": FieldSpec("float", 10.0, "LiDAR frame rate, Hz"),
        "filter_rate": FieldSpec("float", 15.0, "particle filter tick rate, Hz"),
        "pipeline_latency": FieldSpec("float", 0.12, "integration start to filter delivery, s (>= integration_time)"),
    },
    "run": {
        "duration": FieldSpec("float", 20.0, "tracking phase length, s (0 allowed: build-only run)"),
        "seed": FieldSpec("int", 0, "root RNG seed"),
    },
}


@dataclass
class ScenarioConfig:
    """Typed scenario description; built from SCHEMA values.

    The scene holds the target, whose trajectory starts at the beginning of
    the tracking phase plus the takeoff delay.
    """

    scene: Scene
    sensor: RosetteParams | RingScanParams
    filters: FilterParams
    background: BackgroundBuildParams
    tracker: TrackerParams
    turret: TurretParams
    turret_origin: tuple[float, float, float]
    lidar_rate: float
    filter_rate: float
    pipeline_latency: float
    duration: float
    seed: int


def _convert(spec: FieldSpec, text: str, where: str):
    try:
        if spec.kind == "float":
            return float(text)
        if spec.kind == "opt_float":
            return None if text == "" else float(text)
        if spec.kind == "int":
            if float(text) != int(float(text)):
                raise ValueError("not an integer")
            return int(float(text))
        if spec.kind == "choice":
            value = text.strip()
            if value not in spec.choices:
                raise ValueError(f"must be one of {', '.join(spec.choices)}")
            return value
        if spec.kind == "vec3":
            parts = [float(p) for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return tuple(parts)
        if spec.kind == "boxes":
            boxes = []
            for chunk in filter(None, (c.strip() for c in text.split(";"))):
                parts = [float(p) for p in chunk.split(",")]
                if len(parts) != 6:
                    raise ValueError("each box needs six numbers x0,y0,z0,x1,y1,z1")
                boxes.append(Box(tuple(parts[:3]), tuple(parts[3:])))
            return boxes
    except ConfigError:
        raise
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
        values[(section, key)] = (text, where)
    return values


def _build_config(values: dict[tuple[str, str], tuple[str, str]]) -> ScenarioConfig:
    cfg: dict[str, dict[str, Any]] = {
        section: {key: spec.default for key, spec in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for (section, key), (text, where) in values.items():
        cfg[section][key] = _convert(SCHEMA[section][key], text, f"{where}: [{section}] {key}")

    def domain(section: str, builder):
        try:
            return builder()
        except ValueError as exc:
            raise ConfigError("config-domain", f"section [{section}]: {exc}") from exc

    s, tg, sn, fl, bg, tk, tu, tm, rn = (cfg[k] for k in
                                         ("scene", "target", "sensor", "filters",
                                          "background", "tracker", "turret", "timing", "run"))
    weather = domain("scene", lambda: WeatherModel(s["extinction_beta"],
                                                   s["detection_threshold"],
                                                   s["saturation_range"]))
    if sn["pattern"] == "rosette":
        sensor = domain("sensor", lambda: RosetteParams(
            f1=sn["f1"], f2=sn["f2"],
            fov_h=math.radians(sn["fov_h_deg"]), fov_v=math.radians(sn["fov_v_deg"]),
            point_rate=sn["point_rate"], integration_time=sn["integration_time"],
            range_max=sn["range_max"], range_noise_sigma=sn["range_noise_sigma"]))
    else:
        sensor = domain("sensor", lambda: RingScanParams(
            n_rings=sn["n_rings"], spin_rate=sn["spin_rate"],
            fov_v=math.radians(sn["fov_v_deg"]),
            point_rate=sn["point_rate"], integration_time=sn["integration_time"],
            range_max=sn["range_max"], range_noise_sigma=sn["range_noise_sigma"]))
    filters = domain("filters", lambda: FilterParams(
        near_min=fl["near_min"], far_max=fl["far_max"], ground_margin=fl["ground_margin"],
        ror_radius=fl["ror_radius"], ror_min_neighbors=fl["ror_min_neighbors"],
        sor_k=fl["sor_k"], sor_alpha=fl["sor_alpha"]))
    background = domain("background", lambda: BackgroundBuildParams(
        resolution=bg["resolution"], inflation_radius=bg["inflation_radius"],
        bounds_lo=bg["bounds_lo"], bounds_hi=bg["bounds_hi"]))
    tracker = domain("tracker", lambda: TrackerParams(
        n_particles=tk["n_particles"], sigma_pred=tk["sigma_pred"], sigma_meas=tk["sigma_meas"],
        sigma_threshold=tk["sigma_threshold"], lost_after_misses=tk["lost_after_misses"],
        surveillance_lo=tk["surveillance_lo"], surveillance_hi=tk["surveillance_hi"],
        likelihood=tk["likelihood"]))
    turret = domain("turret", lambda: TurretParams(
        max_slew_rate=tu["max_slew_rate"], command_rate=tu["command_rate"],
        deadband=math.radians(tu["deadband_deg"]),
        scan_pan_min=tu["scan_pan_min"], scan_pan_max=tu["scan_pan_max"],
        scan_tilt_min=tu["scan_tilt_min"], scan_tilt_max=tu["scan_tilt_max"],
        scan_line_spacing=tu["scan_line_spacing"], scan_duration=tu["scan_duration"]))

    if tm["filter_rate"] < tm["lidar_rate"]:
        raise ConfigError("config-domain",
                          f"timing.filter_rate ({tm['filter_rate']:g}) must be >= "
                          f"timing.lidar_rate ({tm['lidar_rate']:g})")
    if tm["pipeline_latency"] < sn["integration_time"]:
        raise ConfigError("config-domain",
                          f"timing.pipeline_latency ({tm['pipeline_latency']:g}) must be >= "
                          f"sensor.integration_time ({sn['integration_time']:g})")
    if rn["duration"] < 0:
        raise ConfigError("config-domain", f"run.duration ({rn['duration']:g}) must be >= 0")
    if tm["lidar_rate"] <= 0 or tm["filter_rate"] <= 0:
        raise ConfigError("config-domain", "timing.lidar_rate and timing.filter_rate must be positive")
    if sn["integration_time"] > 1.0 / tm["lidar_rate"] + 1e-12:
        raise ConfigError("config-domain",
                          f"sensor.integration_time ({sn['integration_time']:g}) must fit the "
                          f"timing.lidar_rate period ({1.0 / tm['lidar_rate']:g})")

    target = domain("target", lambda: TargetModel(tg["diameter"], tg["reflectivity"], replace(
        make_pattern(tg["pattern"], tg["center"], tg["extent"], tg["wait"],
                     tg["max_range"], tg["sweep_speed"]),
        start_time=tu["scan_duration"] + tg["takeoff_delay"])))
    return ScenarioConfig(
        scene=Scene(s["ground_z"], list(s["obstacles"]), target, weather),
        sensor=sensor, filters=filters, background=background, tracker=tracker,
        turret=turret, turret_origin=tu["origin"],
        lidar_rate=tm["lidar_rate"], filter_rate=tm["filter_rate"],
        pipeline_latency=tm["pipeline_latency"],
        duration=rn["duration"], seed=rn["seed"],
    )


def parse_config(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load a scenario file, apply ``section.key=value`` overrides, validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
            elif default is None:
                default = "(derived)"
            extra = f" (one of: {', '.join(spec.choices)})" if spec.choices else ""
            out.append(f"  {key} = {default}  # {spec.doc}{extra}")
        out.append("")
    return "\n".join(out)
