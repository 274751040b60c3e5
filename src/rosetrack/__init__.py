"""Closed-loop testbed for tracking a small aerial target with a
rosette-scanning LiDAR on a simulated pan-tilt turret.

Pipeline: rosette sensor frames -> range/ground gating -> background voxel-grid
subtraction -> radius + statistical outlier removal -> particle filter ->
turret centering commands.
"""

from .background import BackgroundBuildParams, OccupancyOctree, build_background, inflate
from .config import ConfigError, ScenarioConfig, default_config, describe_schema, parse_config
from .filters import FilterParams, preprocess_cloud, radius_outlier_removal, range_filter, statistical_outlier_removal, subtract_background
from .geometry import PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation, transform_cloud
from .harness import SCAN_DTYPE, TRACK_DTYPE, TRUTH_DTYPE, MetricsReport, RunResult, compute_metrics, export_csv, export_run, positions, run_many, run_scenario
from .scene import Box, Scene, TargetModel, Trajectory, WeatherModel, make_pattern
from .sensor import RingScanParams, RosetteParams, scan
from .tracker import ParticleSet, TrackEstimate, TrackStatus, TrackerParams, estimate, init_filter, predict, resample, step, systematic_indices, update
from .turret import TurretParams, TurretState, scan_mode_command, step_dynamics, tracking_command

__version__ = "0.1.0"
