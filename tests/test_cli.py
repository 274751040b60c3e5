from pathlib import Path

import pytest

from rosetrack.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_SMALL = """
[target]
pattern = fast

[sensor]
point_rate = 24000

[turret]
scan_duration = 1.0

[run]
duration = 2.0
seed = 3
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(FAST_SMALL)
    return path


NAMES = ("track", "truth", "scans", "metrics")


class TestRunCommand:
    def test_run_writes_all_csvs(self, small_cfg, tmp_path, capsys):
        # one config writes straight into --out-dir
        out = tmp_path / "out"
        assert main(["run", str(small_cfg), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{name}.csv" for name in NAMES)
        assert "wrote" in capsys.readouterr().out

    def test_several_configs_write_one_directory_each(self, small_cfg, tmp_path):
        # each run directory holds what a run of that config alone writes
        other = tmp_path / "other.cfg"
        other.write_text(FAST_SMALL.replace("seed = 3", "seed = 4"))
        out = tmp_path / "out"
        assert main(["run", str(small_cfg), str(other), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["other", "small"]
        for path in (small_cfg, other):
            alone = tmp_path / f"alone_{path.stem}"
            assert main(["run", str(path), "--out-dir", str(alone)]) == 0
            for name in NAMES:
                assert (out / path.stem / f"{name}.csv").read_bytes() == \
                    (alone / f"{name}.csv").read_bytes(), (path.stem, name)

    def test_configs_sharing_a_stem_are_rejected_before_parsing(self, tmp_path, capsys):
        # a/x.cfg and b/x.cfg would both write <out-dir>/x/; neither file
        # parses, so a parse before the check would exit config-unknown-key
        paths = [tmp_path / d / "x.cfg" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text("[sensor]\nbogus = 1\n")
        out = tmp_path / "out"
        assert main(["run", *map(str, paths), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: config-value" in err and "run directory" in err
        assert not out.exists()

    def test_seed_flag_changes_output(self, small_cfg, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", str(small_cfg), "--out-dir", str(out_a), "--override", "run.seed=5"])
        main(["run", str(small_cfg), "--out-dir", str(out_b), "--override", "run.seed=5"])
        main(["run", str(small_cfg), "--out-dir", str(out_c), "--override", "run.seed=6"])
        assert (out_a / "track.csv").read_bytes() == (out_b / "track.csv").read_bytes()
        assert (out_a / "track.csv").read_bytes() != (out_c / "track.csv").read_bytes()

    def test_override_flag(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(small_cfg), "--out-dir", str(out),
                     "--override", "run.duration=1.0"])
        assert code == 0
        lines = (out / "track.csv").read_text().splitlines()
        assert len(lines) - 1 == 15  # 1 s at 15 Hz

    def test_bad_config_exits_with_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sensor]\nbogus = 1\n")
        code = main(["run", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: config-unknown-key" in err

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "none.cfg")])
        assert code == 2  # surfaced as a config io error with category
        assert "error: io" in capsys.readouterr().err


    def test_no_ray_per_frame_is_config_domain(self, capsys):
        code = main(["run", str(CONFIG_DIR / "indoor_lock.cfg"),
                     "--override", "sensor.point_rate=5"])
        assert code == 2
        assert "error: config-domain" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_option_is_gone(command, small_cfg, capsys):
    # the seed is a config key like any other, set with --override or --param
    sweep = ["--param", "tracker.sigma_pred", "--values", "0.1"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(small_cfg), *sweep, "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_malformed_override_is_config_syntax(command, small_cfg, tmp_path, capsys):
    args = ([str(small_cfg)] if command == "run"
            else [str(tmp_path / "track.csv"), str(tmp_path / "truth.csv"),
                  "--config", str(small_cfg)])
    assert main([command, *args, "--override", "foo"]) == 2
    assert "error: config-syntax" in capsys.readouterr().err


@pytest.mark.parametrize("override, category", [
    # NaN in any numeric kind would otherwise run a different scenario or fail mid-run
    *((o, "config-value") for o in (
        "filters.far_max=nan", "sensor.range_max=nan", "timing.pipeline_latency=nan",
        "target.center=nan,0,1", "filters.sor_alpha=nan", "scene.ground_z=nan",
        "tracker.sigma_pred=nan", "turret.origin=0,0,nan",
        "run.seed=inf", "tracker.n_particles=inf")),
    # domain rules of the parameter classes apply at parse time, not mid-run
    *((o, "config-domain") for o in (
        "tracker.surveillance_lo=9,0,0", "background.resolution=0",
        "background.bounds_lo=10,10,10", "background.resolution=0.001",
        # infinite values that used to end in a bare OverflowError or an
        # invalid pan mid-run
        "sensor.point_rate=inf",
        "timing.filter_rate=inf", "run.duration=inf", "turret.scan_duration=inf",
        # a raster with no frame used to fail mid-run as invalid-input
        "turret.scan_duration=0.05",
        # non-finite or huge values that used to fail mid-run, end in an
        # OverflowError traceback, or write non-finite logs with exit 0
        "tracker.sigma_pred=inf", "tracker.sigma_pred=1e200", "turret.origin=inf,0,1",
        "tracker.surveillance_lo=-inf,0,0", "tracker.surveillance_hi=inf,4,3",
        "turret.scan_line_spacing=inf", "target.center=inf,0,1", "target.extent=inf",
        # a negative seed, an infinite prism frequency or takeoff time, and a
        # pipeline that holds more than MAX_IN_FLIGHT frames
        "run.seed=-1", "sensor.f1=inf", "sensor.f2=inf", "target.takeoff_delay=-inf",
        "timing.pipeline_latency=inf", "timing.pipeline_latency=1e9",
        # range noise that used to fail mid-run with an invalid value in matmul
        "sensor.range_noise_sigma=inf", "sensor.range_noise_sigma=1e308")),
    # the tracker has one measurement model and one stability rule, and no key selects either
    *((o, "config-unknown-key") for o in (
        "tracker.sigma_threshold=0.2", "tracker.likelihood=nearest")),
    # the sensor has one scan pattern, the rosette, and no key selects or shapes another
    *((o, "config-unknown-key") for o in (
        "sensor.pattern=ring", "sensor.n_rings=8", "sensor.spin_rate=5")),
    # a frame integrates for one LiDAR period and the turret is commanded on the
    # filter clock, so no key sets either
    *((o, "config-unknown-key") for o in (
        "sensor.integration_time=0.1", "turret.command_rate=15")),
    # the frame rate is the sensor's field, so it is set under [sensor] alone
    ("timing.lidar_rate=10", "config-unknown-key"),
])
def test_bad_value_exits_before_the_run(override, category, tmp_path, capsys):
    code = main(["run", str(CONFIG_DIR / "indoor_lock.cfg"), "--out-dir", str(tmp_path),
                 "--override", "run.duration=0.5", "--override", override])
    assert code == 2
    assert f"error: {category}" in capsys.readouterr().err
    assert not (tmp_path / "track.csv").exists()


@pytest.mark.parametrize("overrides, key, pattern", [
    (["target.max_range=100"], "max_range", "fast"),
    (["target.sweep_speed=3"], "sweep_speed", "fast"),
    (["target.pattern=range_sweep", "target.extent=5"], "extent", "range_sweep"),
    (["target.pattern=hover", "target.wait=9"], "wait", "hover"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_key_the_pattern_does_not_read_is_config_domain(overrides, key, pattern, small_cfg,
                                                        tmp_path, capsys):
    args = [a for o in overrides for a in ("--override", o)]
    code = main(["run", str(small_cfg), "--out-dir", str(tmp_path), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: config-domain" in err and key in err and f"pattern = {pattern}" in err
    assert not (tmp_path / "track.csv").exists()


@pytest.mark.parametrize("override", [
    "sensor.range_noise_sigma=-1", "sensor.fov_v_deg=400", "sensor.fov_v_deg=-10",
    "sensor.range_max=0",
])
def test_sensor_field_rules_are_config_domain(override, small_cfg, tmp_path, capsys):
    args = [a for o in ["run.duration=0.5", override] for a in ("--override", o)]
    code = main(["run", str(small_cfg), "--out-dir", str(tmp_path), *args])
    assert code == 2
    assert "error: config-domain" in capsys.readouterr().err
    assert not (tmp_path / "track.csv").exists()


def test_key_the_pattern_does_not_read_is_located_in_the_file(tmp_path, capsys):
    path = tmp_path / "fast.cfg"
    text = FAST_SMALL + "\n[target]\nmax_range = 100\n"
    path.write_text(text)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lineno = text.splitlines().index("max_range = 100") + 1
    assert "error: config-domain" in err and f"{path}:{lineno}" in err and "max_range" in err


class TestMetricsCommand:
    def test_metrics_roundtrip(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(small_cfg), "--out-dir", str(out)])
        code = main(["metrics", str(out / "track.csv"), str(out / "truth.csv"),
                     "--scans", str(out / "scans.csv"),
                     "--config", str(small_cfg),
                     "--out", str(out / "metrics2.csv")])
        assert code == 0
        assert (out / "metrics2.csv").exists()
        assert "rmse" in capsys.readouterr().out

    def test_config_is_required(self, tmp_path, capsys):
        # without the run's config the metrics would describe another scenario
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(tmp_path / "track.csv"), str(tmp_path / "truth.csv")])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_metrics_of_the_runs_config_repeat_the_run(self, tmp_path, capsys):
        # the default arena has no occluder, so its redetect_latency was nan here
        out, cfg = tmp_path / "out", str(CONFIG_DIR / "lost_and_found.cfg")
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        assert main(["metrics", *(str(out / f"{name}.csv") for name in ("track", "truth")),
                     "--scans", str(out / "scans.csv"), "--config", cfg,
                     "--out", str(tmp_path / "again.csv")]) == 0

        def value(path, metric):
            return float(next(line.split(",")[3] for line in path.read_text().splitlines()
                              if line.startswith(f"{metric},")))

        run_value = value(out / "metrics.csv", "redetect_latency")
        assert run_value > 0
        # the logs hold times to 6 significant digits
        assert value(tmp_path / "again.csv", "redetect_latency") == pytest.approx(run_value, abs=1e-3)

    @pytest.mark.parametrize("row, n_fields", [("0,4,-1,1.2,0.05,stable,0", 7),
                                               ("0,4,-1,1.2,0.05,stable,0,0,9", 9)])
    def test_wrong_field_count_is_invalid_input(self, row, n_fields, tmp_path, capsys):
        track, truth = tmp_path / "track.csv", tmp_path / "truth.csv"
        track.write_text("t,est_x,est_y,est_z,sigma_particles,status,pan,tilt\n"
                         "0,4,-1,1.2,0.05,stable,0,0\n" + row + "\n")
        truth.write_text("t,x,y,z,speed\n0,4,-1,1.2,0\n0.1,4,-1,1.2,0\n")
        assert main(["metrics", str(track), str(truth),
                     "--config", str(CONFIG_DIR / "indoor_lock.cfg")]) == 4
        err = capsys.readouterr().err
        assert "error: invalid-input" in err
        assert f"track.csv:3: expected 8 fields, got {n_fields}" in err

    def test_nan_time_is_invalid_input(self, tmp_path, capsys):
        track, truth = tmp_path / "track.csv", tmp_path / "truth.csv"
        track.write_text("t,est_x,est_y,est_z,sigma_particles,status,pan,tilt\n"
                         "0,4,-1,1.2,0.05,stable,0,0\n"
                         "nan,4,-1,1.2,0.05,stable,0,0\n")
        truth.write_text("t,x,y,z,speed\n0,4,-1,1.2,0\n0.1,4,-1,1.2,0\n")
        assert main(["metrics", str(track), str(truth),
                     "--config", str(CONFIG_DIR / "indoor_lock.cfg")]) == 4
        err = capsys.readouterr().err
        assert "error: invalid-input" in err
        assert "track log has a non-finite t" in err

    def test_nan_scan_time_is_invalid_input(self, tmp_path, capsys):
        # row 15 is indoor_lock's first frame with target returns, the one
        # initial_lock_time starts from
        out = tmp_path / "out"
        cfg = str(CONFIG_DIR / "indoor_lock.cfg")
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "scans.csv").read_text().splitlines()
        assert int(lines[16].split(",")[1]) > 0
        lines[16] = ",".join(["nan", *lines[16].split(",")[1:]])
        (out / "scans.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["metrics", str(out / "track.csv"), str(out / "truth.csv"),
                     "--scans", str(out / "scans.csv"), "--config", cfg])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: invalid-input" in err
        assert "scan log has a non-finite t" in err


class TestSweepCommand:
    def test_sweep_runs_values(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", str(small_cfg), "--param", "tracker.sigma_pred",
                     "--values", "0.05,0.1", "--out-dir", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        header, *rows = (out / "sweep.csv").read_text().splitlines()
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 2
        # one row per value, repeating that run's metrics.csv values
        stats = ["detection_distance", "rmse", "mean_error", "redetect_latency"]
        assert header == ",".join(["value", *stats])
        assert [row.split(",")[0] for row in rows] == ["0.05", "0.1"]
        for row in rows:
            value, *got = row.split(",")
            metrics = dict(line.split(",,,") for line in
                           (out / f"tracker_sigma_pred_{value}" / "metrics.csv").read_text().splitlines()
                           if ",,," in line)
            assert got == [metrics[stat] for stat in stats]

    @pytest.mark.parametrize("values", ["0.1,0.1", "a/b,a_b"])
    def test_values_sharing_a_run_directory_are_rejected_before_any_run(self, values, small_cfg,
                                                                        tmp_path, capsys):
        # the second run used to overwrite the first run's CSVs
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_cfg), "--param", "tracker.sigma_pred",
                     "--values", values, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: config-value" in err and "run directory" in err
        assert not out.exists()

    def test_seed_is_swept_like_any_key(self, small_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_cfg), "--param", "run.seed", "--values", "1,2",
                     "--out-dir", str(out)]) == 0
        assert (out / "run_seed_1" / "track.csv").read_bytes() != \
            (out / "run_seed_2" / "track.csv").read_bytes()


class TestDescribeConfig:
    def test_prints_schema(self, capsys):
        assert main(["describe-config"]) == 0
        out = capsys.readouterr().out
        assert "[tracker]" in out and "sigma_pred" in out
