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


class TestRunCommand:
    def test_run_writes_all_csvs(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(small_cfg), "--out-dir", str(out)]) == 0
        for name in ("track.csv", "truth.csv", "scans.csv", "metrics.csv"):
            assert (out / name).exists(), name
        assert "wrote" in capsys.readouterr().out

    def test_seed_flag_changes_output(self, small_cfg, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", str(small_cfg), "--out-dir", str(out_a), "--seed", "5"])
        main(["run", str(small_cfg), "--out-dir", str(out_b), "--seed", "5"])
        main(["run", str(small_cfg), "--out-dir", str(out_c), "--seed", "6"])
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


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_malformed_override_is_config_syntax(command, small_cfg, tmp_path, capsys):
    args = ([str(small_cfg)] if command == "run"
            else [str(tmp_path / "track.csv"), str(tmp_path / "truth.csv")])
    assert main([command, *args, "--override", "foo"]) == 2
    assert "error: config-syntax" in capsys.readouterr().err


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


    @pytest.mark.parametrize("row, n_fields", [("0,4,-1,1.2,0.05,stable,0", 7),
                                               ("0,4,-1,1.2,0.05,stable,0,0,9", 9)])
    def test_wrong_field_count_is_invalid_input(self, row, n_fields, tmp_path, capsys):
        track, truth = tmp_path / "track.csv", tmp_path / "truth.csv"
        track.write_text("t,est_x,est_y,est_z,sigma_particles,status,pan,tilt\n"
                         "0,4,-1,1.2,0.05,stable,0,0\n" + row + "\n")
        truth.write_text("t,x,y,z,speed\n0,4,-1,1.2,0\n0.1,4,-1,1.2,0\n")
        assert main(["metrics", str(track), str(truth)]) == 4
        err = capsys.readouterr().err
        assert "error: invalid-input" in err
        assert f"track.csv:3: expected 8 fields, got {n_fields}" in err


class TestSweepCommand:
    def test_sweep_runs_values(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", str(small_cfg), "--param", "tracker.sigma_pred",
                     "--values", "0.05,0.1", "--out-dir", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 2


class TestDescribeConfig:
    def test_prints_schema(self, capsys):
        assert main(["describe-config"]) == 0
        out = capsys.readouterr().out
        assert "[tracker]" in out and "sigma_pred" in out
