import math
import os
from pathlib import Path

import numpy as np
import pytest

import rosetrack.harness as harness
from rosetrack.config import default_config, parse_config
from rosetrack.harness import (SCAN_DTYPE, TRACK_DTYPE, TRUTH_DTYPE, MetricsReport,
                               compute_metrics, export_csv, export_run, positions, read_scan_log,
                               read_track_log, read_truth_log, run_many, run_scenario,
                               target_visibility)
from rosetrack.sensor import event_count

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def synthetic_logs(n=30, dt=1.0 / 15.0, offset=(0.0, 0.0, 0.0), status="stable"):
    truth, track = [], []
    for i in range(n):
        t = i * dt
        x, y, z = 4.0 + 0.1 * i, -1.0, 1.2
        truth.append((t, x, y, z, 0.0))
        track.append((t, x + offset[0], y + offset[1], z + offset[2], 0.05, status, 0.0, 0.0))
    return np.array(track, dtype=TRACK_DTYPE), np.array(truth, dtype=TRUTH_DTYPE)


QUICK = ["turret.scan_duration=2.0", "run.duration=2.0", "sensor.point_rate=24000"]


class TestComputeMetrics:
    def test_perfect_tracking_gives_zero_error(self):
        track, truth = synthetic_logs()
        m = compute_metrics(track, truth, default_config())
        assert m.mean_error == 0.0 and m.rmse == 0.0 and m.sigma_error == 0.0

    def test_constant_offset_gives_offset_rmse(self):
        track, truth = synthetic_logs(offset=(0.05, 0.0, 0.0))
        m = compute_metrics(track, truth, default_config())
        assert m.rmse == pytest.approx(0.05)
        assert m.mean_error == pytest.approx(0.05)
        assert m.sigma_error == pytest.approx(0.0, abs=1e-12)

    def test_rmse_matches_hand_computation(self):
        # spreadsheet oracle: errors 0.1, 0.2, 0.2, 0.3 on four stable ticks
        errors = [0.1, 0.2, 0.2, 0.3]
        truth = np.array([(i * 0.1, 1.0, 0.0, 1.0, 0.0) for i in range(len(errors))],
                         dtype=TRUTH_DTYPE)
        track = np.array([(i * 0.1, 1.0 + e, 0.0, 1.0, 0.05, "stable", 0.0, 0.0)
                          for i, e in enumerate(errors)], dtype=TRACK_DTYPE)
        m = compute_metrics(track, truth, default_config())
        want = math.sqrt(sum(e * e for e in errors) / 4)  # = 0.21213
        assert m.rmse == pytest.approx(want, rel=1e-12)
        assert m.rmse == pytest.approx(0.21213203435596426)
        assert m.mean_error == pytest.approx(0.2)

    def test_only_stable_ticks_counted(self):
        track, truth = synthetic_logs(status="searching")
        m = compute_metrics(track, truth, default_config())
        assert math.isnan(m.mean_error) and math.isnan(m.rmse)

    def test_stationary_vs_moving_split(self):
        truth, track = [], []
        for i in range(40):
            speed = 0.0 if i < 20 else 1.0
            err = 0.02 if i < 20 else 0.2
            truth.append((i * 0.1, 1.0, 0.0, 1.0, speed))
            track.append((i * 0.1, 1.0 + err, 0.0, 1.0, 0.05, "stable", 0.0, 0.0))
        track, truth = np.array(track, dtype=TRACK_DTYPE), np.array(truth, dtype=TRUTH_DTYPE)
        m = compute_metrics(track, truth, default_config())
        assert m.mean_error_stationary == pytest.approx(0.02)
        assert m.mean_error_moving == pytest.approx(0.2)

    def test_empty_logs_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(0, TRACK_DTYPE), np.zeros(0, TRUTH_DTYPE), default_config())

    def test_misaligned_logs_rejected(self):
        track, _ = synthetic_logs()
        truth = np.array([(99.0, 0, 0, 0, 0)], dtype=TRUTH_DTYPE)
        with pytest.raises(ValueError):
            compute_metrics(track, truth, default_config())

    @pytest.mark.parametrize("log_name", ["track", "truth", "scan"])
    @pytest.mark.parametrize("bad_t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, log_name, bad_t):
        # a NaN skew is not > the skew limit, so the time check must be
        # explicit; a NaN frame time would turn initial_lock_time into NaN
        track, truth = synthetic_logs()
        scans = np.array([(i * 0.1, 10, 5.0) for i in range(20)], dtype=SCAN_DTYPE)
        {"track": track, "truth": truth, "scan": scans}[log_name]["t"][5] = bad_t
        with pytest.raises(ValueError, match=f"{log_name} log has a non-finite t"):
            compute_metrics(track, truth, default_config(), scans)

    def test_histogram_bins_monotone(self):
        track, truth = synthetic_logs()
        scans = np.array([(i * 0.1, 10 + i, 5.0 + 3.0 * i) for i in range(20)], dtype=SCAN_DTYPE)
        m = compute_metrics(track, truth, default_config(), scans)
        edges = [(lo, hi) for lo, hi, _ in m.points_per_scan]
        assert all(lo < hi for lo, hi in edges)
        assert all(edges[i][1] <= edges[i + 1][0] + 1e-9 for i in range(len(edges) - 1))


class TestVisibility:
    def test_occluded_ticks_flagged(self):
        cfg = parse_config(CONFIG_DIR / "lost_and_found.cfg")
        # target at the occluded middle waypoint vs the visible first waypoint
        waypoints = [(4.0, -1.8, 1.2), (4.0, 0.0, 1.2)]
        track = np.array([(i * 0.1, *pos, 0.05, "stable", math.atan2(pos[1], pos[0]), 0.0)
                          for i, pos in enumerate(waypoints)], dtype=TRACK_DTYPE)
        truth = np.array([(i * 0.1, *pos, 0.0) for i, pos in enumerate(waypoints)],
                         dtype=TRUTH_DTYPE)
        vis = target_visibility(track, truth, cfg)
        assert vis[0] and not vis[1]

    @staticmethod
    def occlusion_logs(lead_truth_rows=0):
        # visible and Stable for 5 ticks, behind the pillar for 5, then
        # visible again with the track Stable two ticks after re-emergence;
        # the truth log may start lead_truth_rows ticks before the track log
        dt = 1.0 / 15.0
        visible, hidden = (4.0, -1.8, 1.2), (4.0, 0.0, 1.2)
        path = [hidden] * lead_truth_rows + [visible] * 5 + [hidden] * 5 + [visible] * 10
        status = ["stable"] * 5 + ["searching"] * 7 + ["stable"] * 8
        truth = np.array([(i * dt, *pos, 0.0) for i, pos in enumerate(path)], dtype=TRUTH_DTYPE)
        track = np.array([(i * dt, *pos, 0.05, st, math.atan2(pos[1], pos[0]), 0.0)
                          for i, (pos, st) in enumerate(zip(path, status), start=lead_truth_rows)],
                         dtype=TRACK_DTYPE)
        return track, truth

    def test_redetect_latency_pairs_rows_by_time(self):
        cfg = parse_config(CONFIG_DIR / "lost_and_found.cfg")
        aligned = compute_metrics(*self.occlusion_logs(), cfg)
        assert aligned.redetect_latency == pytest.approx(2.0 / 15.0)
        shifted = compute_metrics(*self.occlusion_logs(lead_truth_rows=1), cfg)
        assert shifted.redetect_latency == pytest.approx(aligned.redetect_latency)

    def test_unaligned_rows_rejected(self):
        track, truth = self.occlusion_logs(lead_truth_rows=1)
        with pytest.raises(ValueError, match="row for row"):
            target_visibility(track, truth, parse_config(CONFIG_DIR / "lost_and_found.cfg"))

    def test_out_of_fov_counts_invisible(self):
        cfg = default_config()
        track = np.array([(0.0, 4.0, 0.0, 1.2, 0.05, "stable", math.pi, 0.0)], dtype=TRACK_DTYPE)
        truth = np.array([(0.0, 4.0, 0.0, 1.2, 0.0)], dtype=TRUTH_DTYPE)  # behind the boresight
        assert not target_visibility(track, truth, cfg)[0]


class TestExportCsv:
    def test_empty_track_log_header_only(self, tmp_path):
        path = tmp_path / "track.csv"
        export_csv(np.zeros(0, TRACK_DTYPE), path)
        assert path.read_text() == "t,est_x,est_y,est_z,sigma_particles,status,pan,tilt\n"

    def test_three_records_round_trip(self, tmp_path):
        track, _ = synthetic_logs(n=3)
        path = tmp_path / "track.csv"
        export_csv(track, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        loaded = read_track_log(path)
        assert len(loaded) == 3
        for a, b in zip(loaded, track):
            assert a["t"] == pytest.approx(b["t"], rel=1e-5)
            assert a["status"] == b["status"]

    def test_metrics_histogram_rows(self, tmp_path):
        m = MetricsReport(points_per_scan=[(0.0, 10.0, 120.5), (10.0, 20.0, 60.25)])
        path = tmp_path / "metrics.csv"
        export_csv(m, path)
        rows = [ln.split(",") for ln in path.read_text().splitlines()]
        assert rows[0] == ["metric", "range_lo", "range_hi", "value"]
        hist = [r for r in rows if r[0] == "points_per_scan"]
        assert len(hist) == 2
        assert float(hist[0][1]) < float(hist[0][2]) <= float(hist[1][1])

    def test_six_significant_digits(self, tmp_path):
        track = np.array([(0.123456789, 1.23456789, 0, 0, 0.05, "stable", 0, 0)], dtype=TRACK_DTYPE)
        path = tmp_path / "t.csv"
        export_csv(track, path)
        assert "0.123457" in path.read_text()
        assert "1.23457" in path.read_text()

    def test_unwritable_path_has_context(self, tmp_path):
        with pytest.raises(OSError) as err:
            export_csv(np.zeros(0, TRACK_DTYPE), tmp_path / "missing_dir" / "x.csv")
        assert "x.csv" in str(err.value)

    def test_truth_and_scan_logs_round_trip(self, tmp_path):
        truth = np.array([(0.1, 1, 2, 3, 0.5)], dtype=TRUTH_DTYPE)
        scans = np.array([(0.1, 42, 7.5)], dtype=SCAN_DTYPE)
        export_csv(truth, tmp_path / "truth.csv")
        export_csv(scans, tmp_path / "scans.csv")
        assert read_truth_log(tmp_path / "truth.csv")[0]["speed"] == 0.5
        assert read_scan_log(tmp_path / "scans.csv")[0]["n_points"] == 42


    @pytest.mark.parametrize("reader, header, row, column", [
        (read_track_log, "t,est_x,est_y,est_z,sigma_particles,status,pan,tilt",
         "0,4,-1,1.2,0.05,stabilized,0,0", "status"),   # wider than any TrackStatus
        (read_track_log, "t,est_x,est_y,est_z,sigma_particles,status,pan,tilt",
         "0,4,-1,1.2,0.05,banana,0,0", "status"),       # not a TrackStatus
        (read_track_log, "t,est_x,est_y,est_z,sigma_particles,status,pan,tilt",
         "0,4,-1,1.2,0.05,,0,0", "status"),             # empty
        (read_scan_log, "t,n_points,target_range", "0,99999999999999999999,5", "n_points"),
        (read_truth_log, "t,x,y,z,speed", "0,4,abc,1.2,0", "y"),
    ])
    def test_bad_values_rejected_with_column(self, reader, header, row, column, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"log.csv: column {column}"):
            reader(path)


class TestExportedMetrics:
    @pytest.mark.parametrize("name", ["indoor_lock", "lost_and_found", "outdoor_sweep_foggy"])
    def test_metrics_from_exported_logs_match_in_memory(self, name, tmp_path):
        cfg = parse_config(CONFIG_DIR / f"{name}.cfg")
        result = run_scenario(cfg)
        for log in ("track", "truth", "scans"):
            export_csv(getattr(result, log), tmp_path / f"{log}.csv")
        loaded = compute_metrics(read_track_log(tmp_path / "track.csv"),
                                 read_truth_log(tmp_path / "truth.csv"), cfg,
                                 read_scan_log(tmp_path / "scans.csv"))
        # each exported float keeps 6 significant digits, so a logged time or
        # coordinate moves by at most 5e-6 of the largest logged magnitude; a
        # metric built from the difference of two 3-vectors moves by at most
        # 2 * sqrt(3) times that
        scale = max(np.abs(result.track["t"]).max(), np.abs(positions(result.track)).max(),
                    np.abs(positions(result.truth)).max())
        tol = 2 * math.sqrt(3) * 5e-6 * scale
        want = vars(result.metrics)
        for key, got in vars(loaded).items():
            if key == "points_per_scan":
                assert got == want[key]
            elif math.isnan(want[key]):
                assert math.isnan(got), key
            else:
                assert got == pytest.approx(want[key], rel=0, abs=tol), key


class TestRunScenario:
    def test_zero_duration_tracking_phase(self):
        cfg = default_config(["run.duration=0.0", "turret.scan_duration=2.0",
                              "sensor.point_rate=24000"])
        result = run_scenario(cfg)
        assert len(result.track) == 0 and len(result.truth) == 0 and len(result.scans) == 0
        assert math.isnan(result.metrics.rmse)

    def test_logs_strictly_increasing_time(self):
        cfg = default_config(QUICK)
        result = run_scenario(cfg)
        t = result.track["t"]
        assert np.all(np.diff(t) > 0)
        assert np.array_equal(t, result.truth["t"])

    def test_cadence_counts(self):
        cfg = default_config(QUICK)
        result = run_scenario(cfg)
        assert len(result.scans) == int(2.0 * cfg.lidar_rate)
        assert len(result.track) == int(2.0 * cfg.filter_rate)

    def test_determinism_byte_identical_tracklog(self, tmp_path):
        cfg = default_config(QUICK)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run_scenario(cfg).track, a)
        export_csv(run_scenario(cfg).track, b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = run_scenario(default_config(QUICK))
        b = run_scenario(default_config(QUICK + ["run.seed=1"]))
        assert not np.array_equal(positions(a.track), positions(b.track))

    def test_latency_honesty(self):
        # the estimate cannot react to the target before
        # takeoff + pipeline_latency: sigma keeps growing until then
        cfg = parse_config(CONFIG_DIR / "indoor_lock.cfg", ["run.duration=3.5"])
        result = run_scenario(cfg)
        takeoff = cfg.scene.target.trajectory.start_time
        assert takeoff == cfg.turret.scan_duration + 1.5  # indoor_lock's takeoff_delay
        earliest_reaction = takeoff + cfg.pipeline_latency
        sig = result.track["sigma_particles"]
        t = result.track["t"]
        # before the first cloud can arrive the spread only inflates (modulo
        # finite-sample jitter); any collapse would be a latency violation
        before = sig[t < earliest_reaction - 1e-9]
        assert np.all(before > 0.9 * np.maximum.accumulate(before)), \
            "sigma collapsed before the cloud could arrive"
        after = sig[t > earliest_reaction + 0.5]
        assert after.min() < 0.15

    def test_every_deliverable_frame_consumed_once(self, monkeypatch):
        # count clouds actually handed to the filter: every frame whose
        # delivery time falls before the last tick is consumed exactly once
        import rosetrack.harness as H
        from rosetrack.tracker import step as real_step
        calls = []

        def counting_step(pset, cloud, params):
            calls.append(cloud)
            return real_step(pset, cloud, params)

        monkeypatch.setattr(H, "step", counting_step)
        cfg = default_config(QUICK)
        result = run_scenario(cfg)
        last_tick = result.track["t"].max()
        deliverable = int(np.sum(result.scans["t"] + cfg.pipeline_latency
                                 <= last_tick + 1e-12))
        assert sum(cloud is not None for cloud in calls) == deliverable
        assert len(calls) == len(result.track)  # one step per tick: never two clouds in one

    def test_initial_lock_metric(self):
        cfg = parse_config(CONFIG_DIR / "indoor_lock.cfg", ["run.duration=2.8"])
        result = run_scenario(cfg)
        # locked within two measurement updates of the first target return
        assert result.metrics.initial_lock_time <= 2.0 / cfg.lidar_rate + 1e-9

    def test_truth_and_target_range_come_from_the_trajectory(self):
        # neither log feeds the loop: both are the trajectory evaluated at the
        # logged tick times and at each frame's mid-time
        cfg = parse_config(CONFIG_DIR / "indoor_lock.cfg", ["run.duration=2"])
        result = run_scenario(cfg)
        traj = cfg.scene.target.trajectory
        tick_t = result.track["t"]
        assert len(tick_t) and np.array_equal(result.truth["t"], tick_t)
        assert np.array_equal(positions(result.truth), traj.position(tick_t))
        assert np.array_equal(result.truth["speed"], traj.speed(tick_t))
        mid = traj.position(result.scans["t"] + cfg.sensor.integration_time / 2.0)
        assert np.array_equal(result.scans["target_range"],
                              np.linalg.norm(mid - np.asarray(cfg.turret_origin), axis=1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override", ["scene.ground_z=1e308", "tracker.sigma_meas=1e-300"])
    def test_overflow_in_valid_configs_is_handled_without_warnings(self, override):
        # the ground-plane ray parameter overflows to +-inf in the ray cast, and
        # every log-likelihood to -inf in the tracker update; both paths
        # already give finite logs, so neither may print a RuntimeWarning
        cfg = default_config(["run.duration=1", "turret.scan_duration=0.5", override])
        result = run_scenario(cfg)
        assert len(result.track) and np.isfinite(positions(result.track)).all()
        assert np.isfinite(positions(result.truth)).all()

    def test_closed_loop_keeps_target_near_center(self):
        # a target moving at <= 1.2 m/s at >= 3 m stays well inside the FoV
        cfg = default_config(["turret.scan_duration=2.0", "run.duration=10.0",
                              "target.pattern=fast", "target.extent=1.64",
                              "target.center=4.5,0.0,1.6",
                              "sensor.f1=161.0", "sensor.f2=38.0"])
        result = run_scenario(cfg)
        vis = target_visibility(result.track, result.truth, cfg)
        t = result.track["t"]
        settled = t > 4.0
        origin = np.asarray(cfg.turret_origin)
        offsets = []
        for trec, pos in zip(result.track, positions(result.truth)):
            if trec["t"] <= 4.0:
                continue
            d = pos - origin
            u = d / np.linalg.norm(d)
            from rosetrack.geometry import PanTiltPose, pan_tilt_to_rotation
            local = pan_tilt_to_rotation(PanTiltPose(trec["pan"], trec["tilt"])).T @ u
            offsets.append(math.acos(np.clip(local[0], -1, 1)))
        half_fov = min(cfg.sensor.fov_h, cfg.sensor.fov_v) / 2
        assert np.max(offsets) < 0.15 * half_fov
        assert vis[settled].all()


@pytest.fixture(scope="module")
def runs():
    """Three short indoor_lock runs of different lengths through run_many,
    once in this process (one usable CPU faked) and once on its worker pool
    (two faked, so the pool runs on any host)."""
    configs = [parse_config(CONFIG_DIR / "indoor_lock.cfg", [f"run.seed={seed}", f"run.duration={d}"])
               for seed, d in ((0, 2.8), (1, 1.6), (2, 2.2))]
    pools = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        mp.setattr(harness, "_usable_cpus", lambda: 1)
        serial = run_many(configs)
        assert pools == []
        mp.setattr(harness, "_usable_cpus", lambda: 2)
        pooled = run_many(configs)
        assert pools == [2]
    return configs, serial, pooled


class TestRunMany:
    def test_pool_gives_byte_equal_csvs_to_serial_runs(self, runs, tmp_path):
        _, serial, pooled = runs
        for k, (a, b) in enumerate(zip(serial, pooled)):
            export_run(a, tmp_path / f"serial{k}")
            export_run(b, tmp_path / f"pool{k}")
            for name in ("track", "truth", "scans", "metrics"):
                csv = f"{name}.csv"
                assert (tmp_path / f"serial{k}" / csv).read_bytes() == \
                    (tmp_path / f"pool{k}" / csv).read_bytes(), (k, csv)

    def test_results_in_input_order(self, runs):
        configs, serial, pooled = runs
        ticks = [event_count(c.duration, c.filter_rate) for c in configs]
        assert [len(r.track) for r in serial] == ticks
        assert [len(r.track) for r in pooled] == ticks

    def test_empty_list_returns_empty_list(self):
        assert run_many([]) == []

    def test_one_config_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one config")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        cfg = default_config(QUICK)
        [result] = run_many([cfg])
        assert len(result.track) == int(2.0 * cfg.filter_rate)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(AttributeError):
            run_many([None, None])

    def test_usable_cpus_follows_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert harness._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1


class TestSpeedErrorCoupling:
    def test_fast_pattern_error_correlates_with_speed(self):
        cfg = parse_config(CONFIG_DIR / "indoor_fast.cfg",
                           ["run.duration=15.0", "turret.scan_duration=3.0"])
        result = run_scenario(cfg)
        err = np.linalg.norm(positions(result.track) - positions(result.truth), axis=1)
        speed = result.truth["speed"]
        stable = result.track["status"] == "stable"
        corr = np.corrcoef(speed[stable], err[stable])[0, 1]
        assert corr > 0.5
