"""Command line entry point.

Subcommands:
  run <config>            simulate a scenario, write track/truth/scans/metrics CSVs
  metrics <track> <truth> recompute metrics from exported logs
  sweep <config> --param <section.key> --values v1,v2,...
                          rerun a scenario across parameter values
  describe-config         print the config schema with defaults

Errors exit nonzero and print ``error: <category>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, describe_schema, parse_config
from .harness import (compute_metrics, export_csv, read_scan_log, read_track_log,
                      read_truth_log, run_scenario)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_USAGE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rosetrack",
                                     description="rosette-LiDAR target tracking testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None, help="override run.seed")
    run_p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    run_p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="dot-path config override (repeatable)")

    met_p = sub.add_parser("metrics", help="compute metrics from exported logs")
    met_p.add_argument("tracklog", type=Path)
    met_p.add_argument("truthlog", type=Path)
    met_p.add_argument("--scans", type=Path, default=None, help="optional scans log")
    met_p.add_argument("--config", type=Path, default=None,
                       help="scenario config the logs came from (defaults otherwise)")
    met_p.add_argument("--out", type=Path, default=None, help="write metrics CSV here")
    met_p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")

    sweep_p = sub.add_parser("sweep", help="run a scenario across parameter values")
    sweep_p.add_argument("config", type=Path)
    sweep_p.add_argument("--param", required=True, metavar="SECTION.KEY")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out-dir", type=Path, default=Path("."))
    sweep_p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")

    sub.add_parser("describe-config", help="print the config schema")
    return parser


def _run(args) -> int:
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    config = parse_config(args.config, overrides)
    result = run_scenario(config)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(result.track, args.out_dir / "track.csv")
    export_csv(result.truth, args.out_dir / "truth.csv")
    export_csv(result.scans, args.out_dir / "scans.csv")
    export_csv(result.metrics, args.out_dir / "metrics.csv")
    print(f"wrote {args.out_dir}/track.csv truth.csv scans.csv metrics.csv "
          f"({len(result.track)} ticks, {len(result.scans)} frames)")
    return 0


def _metrics(args) -> int:
    from .config import default_config
    config = parse_config(args.config, args.override) if args.config else default_config(args.override)
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
    args.out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = args.out_dir / "sweep.csv"
    rows = []
    for value in values:
        overrides = list(args.override) + [f"{args.param}={value}"]
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        config = parse_config(args.config, overrides)
        result = run_scenario(config)
        tag = value.replace("/", "_")
        sub = args.out_dir / f"{args.param.replace('.', '_')}_{tag}"
        sub.mkdir(parents=True, exist_ok=True)
        export_csv(result.track, sub / "track.csv")
        export_csv(result.truth, sub / "truth.csv")
        export_csv(result.scans, sub / "scans.csv")
        export_csv(result.metrics, sub / "metrics.csv")
        m = result.metrics
        rows.append((value, m.detection_distance, m.rmse, m.mean_error, m.redetect_latency))
        print(f"{args.param}={value}: detection_distance={m.detection_distance:.6g} "
              f"rmse={m.rmse:.6g}")
    try:
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("value,detection_distance,rmse,mean_error,redetect_latency\n")
            for row in rows:
                fh.write(",".join(str(row[0:1][0]) if i == 0 else f"{row[i]:.6g}"
                                  for i in range(5)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {summary_path}: {exc}") from exc
    print(f"wrote {summary_path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        if args.command == "metrics":
            return _metrics(args)
        if args.command == "sweep":
            return _sweep(args)
        if args.command == "describe-config":
            print(describe_schema())
            return 0
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
