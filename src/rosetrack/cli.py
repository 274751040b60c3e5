"""Command line entry point.

Subcommands:
  run <config>...         simulate scenarios, write track/truth/scans/metrics CSVs
  metrics <track> <truth> --config <config>
                          recompute metrics from exported logs
  sweep <config> --param <section.key> --values v1,v2,...
                          rerun a scenario across parameter values
  describe-config         print the config schema with defaults

Errors exit nonzero and print ``error: <category>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, describe_schema, parse_config
from .harness import (compute_metrics, export_csv, export_run, read_scan_log, read_track_log,
                      read_truth_log, run_many)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_USAGE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rosetrack",
                                     description="rosette-LiDAR target tracking testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    overridable = argparse.ArgumentParser(add_help=False)
    overridable.add_argument("--override", action="append", default=[],
                             metavar="SECTION.KEY=VALUE",
                             help="dot-path config override (repeatable)")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")

    run_p = sub.add_parser("run", parents=[scenario, overridable],
                           help="simulate scenario configs")
    run_p.add_argument("configs", type=Path, nargs="+", metavar="config",
                       help="one config writes into --out-dir, several into <out-dir>/<stem>/")
    run_p.set_defaults(func=_run)

    met_p = sub.add_parser("metrics", parents=[overridable],
                           help="compute metrics from exported logs")
    met_p.add_argument("tracklog", type=Path)
    met_p.add_argument("truthlog", type=Path)
    met_p.add_argument("--scans", type=Path, default=None, help="optional scans log")
    met_p.add_argument("--config", type=Path, required=True,
                       help="scenario config the logs came from")
    met_p.add_argument("--out", type=Path, default=None, help="write metrics CSV here")
    met_p.set_defaults(func=_metrics)

    sweep_p = sub.add_parser("sweep", parents=[scenario, overridable],
                             help="run a scenario across parameter values")
    sweep_p.add_argument("config", type=Path)
    sweep_p.add_argument("--param", required=True, metavar="SECTION.KEY")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(func=_sweep)

    sub.add_parser("describe-config",
                   help="print the config schema").set_defaults(func=_describe)
    return parser


def _run_and_export(runs):
    """Run each (run directory, config path, overrides) and write its four
    CSVs into its directory; returns the RunResults in input order.

    Two runs that share a directory are config-value before any config is
    parsed. The runs go through run_many; one line per run names its
    directory and headline metrics, and a last line the wall time of all runs.
    """
    dirs = [run_dir for run_dir, _, _ in runs]
    shared = next((d for d in dirs if dirs.count(d) > 1), None)
    if shared is not None:
        raise ConfigError("config-value", f"two runs share the run directory {shared}")
    configs = [parse_config(path, overrides) for _, path, overrides in runs]
    start = time.perf_counter()
    results = run_many(configs)
    wall = time.perf_counter() - start
    width = max(len(str(d)) for d in dirs) + 1
    for run_dir, result in zip(dirs, results):
        export_run(result, run_dir)
        m = result.metrics
        print(f"wrote {f'{run_dir}/':{width}s} rmse={m.rmse:8.4f} "
              f"stationary={m.mean_error_stationary:8.4f} moving={m.mean_error_moving:8.4f} "
              f"detect={m.detection_distance:7.1f} redetect={m.redetect_latency:6.3f} "
              f"lock={m.initial_lock_time:6.3f}")
    print(f"{len(runs)} run(s) in {wall:.1f} s wall time")
    return results


def _run(args) -> int:
    several = len(args.configs) > 1
    _run_and_export([(args.out_dir / path.stem if several else args.out_dir, path, args.override)
                     for path in args.configs])
    return 0


def _metrics(args) -> int:
    config = parse_config(args.config, args.override)
    track = read_track_log(args.tracklog)
    truth = read_truth_log(args.truthlog)
    scans = read_scan_log(args.scans) if args.scans else None
    report = compute_metrics(track, truth, config, scans)
    if args.out:
        export_csv(report, args.out)
    for name in ("mean_error", "sigma_error", "rmse", "rmse_stationary", "rmse_moving",
                 "detection_distance", "redetect_latency", "initial_lock_time"):
        print(f"{name} = {getattr(report, name):.6g}")
    return 0


def _sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("config-value", "--values must list at least one value")
    prefix = args.param.replace(".", "_")
    results = _run_and_export([(args.out_dir / f"{prefix}_{value.replace('/', '_')}", args.config,
                                [*args.override, f"{args.param}={value}"]) for value in values])
    stats = ("detection_distance", "rmse", "mean_error", "redetect_latency")
    rows = [(value, *(getattr(result.metrics, stat) for stat in stats))
            for value, result in zip(values, results)]
    summary_path = args.out_dir / "sweep.csv"
    export_csv(np.array(rows, dtype=[("value", object)] + [(stat, float) for stat in stats]),
               summary_path)
    print(f"wrote {summary_path}")
    return 0


def _describe(args) -> int:
    print(describe_schema())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
