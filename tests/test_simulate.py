import hashlib
import json
import math
from itertools import chain

import numpy as np
import pytest

from helpers import assert_golden, save_trajectory

import cvloc.measurement
import cvloc.world
from cvloc.cli import main
from cvloc.config import ScenarioConfig
from cvloc.measurement import emit_heatmap, location_probabilities, measurement_probabilities
from cvloc.motion import Pose
from cvloc.simulate import (
    build_grid,
    build_scenario,
    database_from_map,
    eval_retrieval,
    generate_trajectory,
    heading_error,
    load_trajectory,
    position_error,
    run_simulation,
    scenario_trajectory,
)
from cvloc.world import TILE, build_descriptor_map


def small_cfg(**overrides) -> ScenarioConfig:
    """A cheap scenario: ~300 m loop on a 31x31 grid, 40 steps."""
    cfg = ScenarioConfig(
        lat_max=40.00135,
        lon_max=-104.99824,
        traj_steps=40,
        traj_length=300.0,
        particles=300,
        out_dir="",
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


class TestErrorMetrics:
    def test_position_error_zero_at_truth(self):
        p = Pose(1.0, 2.0, 0.3)
        assert position_error(p, p) == 0.0

    def test_position_error_pythagorean(self):
        assert position_error(Pose(3.0, 4.0, 0), Pose(0, 0, 0)) == 5.0

    def test_position_error_symmetric(self):
        a, b = Pose(1, 2, 0), Pose(-3, 5, 1)
        assert position_error(a, b) == position_error(b, a)

    def test_heading_error_zero_when_equal(self):
        assert heading_error(0.7, 0.7) == 0.0

    def test_heading_error_crosses_the_wrap(self):
        # est 10 deg, gt 350 deg: +20 deg, not -340
        err = heading_error(math.radians(10), math.radians(350))
        assert err == pytest.approx(math.radians(20))

    def test_heading_error_antisymmetric(self):
        a, b = 0.5, -1.2
        assert heading_error(a, b) == pytest.approx(-heading_error(b, a))

    def test_heading_error_total(self):
        for a in np.linspace(-10, 10, 37):
            for b in np.linspace(-10, 10, 7):
                err = heading_error(a, b)
                assert -math.pi < err <= math.pi


class TestTrajectory:
    def test_loop_length_and_bounds(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        poses = generate_trajectory(cfg, grid)
        assert len(poses) == cfg.traj_steps + 1
        length = sum(
            math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(poses, poses[1:])
        )
        # chord total is slightly below the arc length
        assert length == pytest.approx(cfg.traj_length, rel=0.01)

    def test_loop_that_escapes_map_rejected(self):
        cfg = small_cfg(traj_length=5000.0)
        with pytest.raises(ValueError, match="off the map"):
            scenario_trajectory(cfg, build_grid(cfg))

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_cfg()
        poses = generate_trajectory(cfg, build_grid(cfg))
        path = tmp_path / "traj.csv"
        save_trajectory(poses, str(path))
        back = load_trajectory(str(path))
        assert len(back) == len(poses)
        for a, b in zip(poses, back):
            assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("x,y,theta\n0,0,0\n")
        with pytest.raises(ValueError):
            load_trajectory(str(p))

    @pytest.mark.parametrize("row, message", [
        (b"2,abc,10,0", "could not convert string to float: 'abc'"),
        (b"2,nan,10,0", "non-finite pose (nan, 10.0, 0.0)"),
        (b"2,5\xff,10,0", "not UTF-8 text: byte 0xff at column 4"),
        (b"abc,10,10,0", "could not convert string to float: 'abc'"),
        (b"nan,10,10,0", "non-finite time nan"),
        (b"-inf,10,10,0", "non-finite time -inf"),
        (b"0,10,10,0", "time 0.0 does not follow the row before's 0.0"),
        (b"-1,10,10,0", "time -1.0 does not follow the row before's 0.0"),
    ], ids=["bad number", "non-finite value", "non-UTF-8 byte", "bad time", "NaN time", "infinite time",
            "repeated time", "earlier time"])
    def test_a_bad_row_names_its_file_and_line(self, row, message, tmp_path):
        # the third line of the file, after the header and one good row
        p = tmp_path / "traj.csv"
        p.write_bytes(b"t,x,y,theta\n0,0,0,0\n" + row + b"\n3,1,1,0\n")
        with pytest.raises(ValueError) as info:
            load_trajectory(str(p))
        assert str(info.value) == f"{p}:3: {message}"


class TestRunSimulation:
    def test_noise_free_peaked_world_stays_within_a_cell(self):
        cfg = small_cfg(
            sigma_trans=0.0, sigma_trans_rate=0.0, sigma_rot_deg=0.0, sigma_rot_rate=0.0,
            odom_sigma_trans=0.0, odom_sigma_trans_rate=0.0,
            odom_sigma_rot_deg=0.0, odom_sigma_rot_rate=0.0,
            init_spread_xy=0.0, init_spread_theta_deg=0.0,
        )
        summary, _ = run_simulation(cfg)
        assert summary.mean_position_error < cfg.cell_interval

    def test_tracking_beats_dead_reckoning(self):
        tracked, _ = run_simulation(small_cfg())
        drifted, _ = run_simulation(small_cfg(world_kind="flat"))
        assert drifted.mean_position_error > tracked.mean_position_error

    def test_uninformative_world_drifts_upward(self):
        # full default scenario, 200 steps, no descriptor information: the
        # ensemble-mean error accumulates like dead reckoning (a single
        # realisation of the heading random walk need not be monotone)
        all_errs = []
        for seed in (1, 2, 3, 4):
            cfg = ScenarioConfig(world_kind="flat", master_seed=seed, out_dir="")
            _, records = run_simulation(cfg)
            all_errs.append([r.err_pos for r in records])
        mean_err = np.mean(all_errs, axis=0)
        slope = np.polyfit(np.arange(len(mean_err), dtype=float), mean_err, 1)[0]
        assert slope > 0
        assert mean_err[-50:].mean() > 2.0 * mean_err[:50].mean()

    def test_stationary_vehicle_does_not_drift(self, tmp_path):
        cfg = small_cfg(traj_steps=100)
        poses = [Pose(75.0, 75.0, 0.2)] * 101
        path = tmp_path / "stationary.csv"
        save_trajectory(poses, str(path))
        cfg.trajectory_file = str(path)
        summary, _ = run_simulation(cfg)
        assert summary.max_position_error < 3 * cfg.cell_interval

    def test_summary_consistent_with_records(self):
        summary, records = run_simulation(small_cfg())
        errs = [r.err_pos for r in records]
        assert summary.mean_position_error == pytest.approx(np.mean(errs), abs=1e-9)
        assert summary.median_position_error == pytest.approx(np.median(errs), abs=1e-9)
        assert summary.max_position_error == max(errs)
        assert summary.steps == len(records)

    def test_byte_identical_logs_for_same_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_simulation(small_cfg(), out_dir=str(out_a))
        run_simulation(small_cfg(), out_dir=str(out_b))
        assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_simulation(small_cfg(), out_dir=str(out_a))
        run_simulation(small_cfg(master_seed=2), out_dir=str(out_b))
        assert (out_a / "steps.csv").read_bytes() != (out_b / "steps.csv").read_bytes()

    def test_jsonl_log_and_heatmaps(self, tmp_path):
        cfg = small_cfg(log_format="jsonl", heatmap_every=20, traj_steps=40)
        out = tmp_path / "run"
        run_simulation(cfg, out_dir=str(out))
        lines = (out / "steps.jsonl").read_text().strip().splitlines()
        assert len(lines) == 40
        record = json.loads(lines[0])
        assert set(record) == {
            "t", "est_x", "est_y", "est_theta", "gt_x", "gt_y", "gt_theta",
            "err_pos", "err_theta", "ess", "degenerate_flag",
        }
        heatmaps = sorted((out / "heatmaps").iterdir())
        assert [p.name for p in heatmaps] == ["field_00020.csv", "field_00020.pgm",
                                              "field_00040.csv", "field_00040.pgm"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 40



# Golden hashes, checked with helpers.GOLDEN_VERSIONS.
# sha256 of `steps.csv` at the default scenario config per measurement mode
# and master seed, recorded before the pose estimate summed in fixed chunks
# (one chunk at 1,000 particles, so these bits did not move)
STEP_LOG_SHA256 = {
    ("corner-sum", 1): "a96a4ac825c61df4857a081b30fffe4f6196ff16017a2fef9260d47bd686b155",
    ("corner-sum", 2): "990bc5c5f963f18a7323b9cfdeb15dcbcaf517e8ebbb4051bb63f36291b73e24",
    ("corner-sum", 3): "da6b661793e44949ffa24db432215a5d014c661d86936d8ac25bcfa0fbda0371",
    ("bilinear", 1): "821dca0ad644ea7b830984fb1a98bb9828e04efa5f4bceb8c0f603afba007888",
    ("bilinear", 2): "6fd6643e1f25e12781d008608b1bb10b8eac3274a0c45c48449f1f59d8ac287d",
    ("bilinear", 3): "decb088945e5008794f238397db3cecf224dad1062032595b0399ac6a1738072",
}
# sha256 of `steps.csv` for 20 steps at 1e5 particles, recorded with the
# chunked pose estimate; a whole-array BLAS dot gave a different log at one
# thread than at two or four
STEP_LOG_1E5_SHA256 = "6e135b1af11e4bd6e0090f1e01405143d7e3d8cb7bba5ee2c5e793400d44bcbb"
# sha256 of `steps.csv` for 20 steps at 1 m cells (441 x 441) and master seed
# 1 per measurement mode: the map on which a step scores a small window of
# the field and the lazy field's fallbacks matter
STEP_LOG_1M_SHA256 = {
    "corner-sum": "e46063c3b4a8d9eaa0f659aa7ec7206e4026a2d8a81f527e701a07cd86bd09c8",
    "bilinear": "34a76fa2083d727958204fe337d5b1b022d252711b6e3a70a6cf4dcba208a19e",
}


def step_log_sha256(out_dir, **overrides):
    run_simulation(ScenarioConfig(out_dir="", **overrides), out_dir=str(out_dir))
    return hashlib.sha256((out_dir / "steps.csv").read_bytes()).hexdigest()


class TestGoldenStepLogs:
    @pytest.mark.parametrize("mode, seed", sorted(STEP_LOG_SHA256))
    def test_default_step_log_bytes_unchanged(self, mode, seed, tmp_path):
        got = step_log_sha256(tmp_path, master_seed=seed, measurement_mode=mode)
        assert_golden(got, STEP_LOG_SHA256[mode, seed], "steps.csv sha256")

    def test_1e5_particle_step_log_bytes_unchanged(self, tmp_path):
        got = step_log_sha256(tmp_path, particles=100_000, traj_steps=20)
        assert_golden(got, STEP_LOG_1E5_SHA256, "1e5-particle steps.csv sha256")

    @pytest.mark.parametrize("mode", sorted(STEP_LOG_1M_SHA256))
    def test_1m_step_log_bytes_unchanged(self, mode, tmp_path):
        got = step_log_sha256(tmp_path, cell_interval=1.0, traj_steps=20, master_seed=1, measurement_mode=mode)
        assert_golden(got, STEP_LOG_1M_SHA256[mode], "1 m steps.csv sha256")


def counted_builds(monkeypatch):
    """Record the blocks of every map build (world._build): a route corridor's
    blocks name their columns, a whole map's are whole rows."""
    builds, build = [], cvloc.world._build

    def counting(world, pipeline, seed, out, blocks):
        builds.append(blocks)
        return build(world, pipeline, seed, out, blocks)

    monkeypatch.setattr(cvloc.world, "_build", counting)
    return builds


def poison_cell(monkeypatch, x, y):
    """NaN features for the map cell at (x, y) metres, wherever a build reads them."""
    features = cvloc.world.satellite_cell_features

    def poisoned(world, seed, rows=slice(None), cols=slice(None)):
        feats = features(world, seed, rows, cols)
        locs = world.grid.locations(rows, cols)
        feats[(locs[:, 0] == x) & (locs[:, 1] == y)] = np.nan
        return feats

    monkeypatch.setattr(cvloc.world, "satellite_cell_features", poisoned)


# the default 200-step run on the 2 m map (221 x 221 cells): its route corridor is 244 of 784 tiles,
# and no step reads outside it (the 50 m steps of a 20-step loop do)
TWO_METRE = ["--set", "cell_interval=2"]


class TestRouteCorridor:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_step_of_the_fine_map_benchmark_run_completes_the_map(self, seed, monkeypatch):
        builds = counted_builds(monkeypatch)
        run_simulation(ScenarioConfig(cell_interval=1.0, particles=1000, master_seed=seed, out_dir=""))
        assert len(builds) == 1 and all(len(block) == 2 for block in builds[0])  # the corridor alone

    @pytest.mark.parametrize("mode", sorted(STEP_LOG_1M_SHA256))
    def test_a_window_outside_the_corridor_builds_only_tiles_and_keeps_the_log(self, mode, tmp_path, monkeypatch):
        # the corridor of the first three poses only: later windows leave it
        build_route = cvloc.world.MapTiles.build_route
        monkeypatch.setattr(cvloc.world.MapTiles, "build_route", lambda tiles, xs, ys: build_route(tiles, xs[:3], ys[:3]))
        builds = counted_builds(monkeypatch)
        got = step_log_sha256(tmp_path, cell_interval=1.0, traj_steps=20, master_seed=1, measurement_mode=mode)
        assert len(builds) > 1 and all(len(block) == 2 for build in builds for block in build)  # tiles only
        grid = build_grid(ScenarioConfig(cell_interval=1.0))
        times = np.zeros((grid.height, grid.width), dtype=int)
        for rows, cols in (block for build in builds for block in build):
            times[rows, cols] += 1
        assert times.max() == 1 and not times.all()  # no cell twice, and the map is never completed
        assert_golden(got, STEP_LOG_1M_SHA256[mode], "1 m steps.csv sha256")

    @pytest.mark.parametrize("mode", sorted(STEP_LOG_1M_SHA256))
    def test_a_step_outside_the_corridor_builds_only_the_tiles_of_the_corners_it_reads(self, mode, tmp_path,
                                                                                      monkeypatch):
        # the 50 m steps of a 20-step loop leave the corridor of its route
        corner_scores, corners = cvloc.measurement._corner_scores, []

        def recording(field, i, j):
            corners.append((i.copy(), j.copy()))
            return corner_scores(field, i, j)

        monkeypatch.setattr(cvloc.measurement, "_corner_scores", recording)
        builds = counted_builds(monkeypatch)
        got = step_log_sha256(tmp_path, cell_interval=1.0, traj_steps=20, master_seed=1, measurement_mode=mode)
        grid = build_grid(ScenarioConfig(cell_interval=1.0))
        read, window = (np.zeros((-(-grid.height // TILE), -(-grid.width // TILE)), dtype=bool) for _ in range(2))
        for i, j in corners:
            for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
                read[(j + dj) // TILE, (i + di) // TILE] = True
            window[j.min() // TILE : (j.max() + 1) // TILE + 1, i.min() // TILE : (i.max() + 1) // TILE + 1] = True
        corridor, in_loop = np.zeros_like(read), np.zeros_like(read)
        for tiles, blocks in ((corridor, builds[0]), (in_loop, chain(*builds[1:]))):
            for rows, cols in blocks:
                tiles[rows.start // TILE, cols.start // TILE : (cols.stop - 1) // TILE + 1] = True
        assert len(builds) > 1 and not (corridor & in_loop).any()
        # every tile built in the loop holds a corner cell a step read, and every such tile is built
        np.testing.assert_array_equal(in_loop, read & ~corridor)
        # fewer cells than building every window tile takes
        cells = sum((rows.stop - rows.start) * (cols.stop - cols.start) for rows, cols in chain(*builds[1:]))
        every = np.repeat(np.repeat(window & ~corridor, TILE, axis=0), TILE, axis=1)
        assert cells < every[: grid.height, : grid.width].sum()
        assert_golden(got, STEP_LOG_1M_SHA256[mode], "1 m steps.csv sha256")

    def test_heatmaps_build_the_whole_map_before_the_loop(self, tmp_path, monkeypatch):
        builds = counted_builds(monkeypatch)
        run_simulation(ScenarioConfig(cell_interval=2.0, traj_steps=4, heatmap_every=2, out_dir=str(tmp_path)))
        assert len(builds) == 1 and all(len(block) == 1 for block in builds[0])

    def test_a_non_finite_corridor_cell_exits_2_and_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        # the first pose, at (220 + 1000 / 2π, 220) m, lies in cell (378, 220) m
        poison_cell(monkeypatch, 378.0, 220.0)
        out = tmp_path / "run"
        with np.errstate(invalid="ignore"):
            assert main(["simulate", *TWO_METRE, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[input]: non-finite map descriptors in grid rows ") and ", columns " in err
        assert not out.exists()

    def test_a_non_finite_cell_outside_the_corridor_is_never_built(self, tmp_path, monkeypatch, capsys):
        assert main(["simulate", *TWO_METRE, "--out-dir", str(tmp_path / "plain")]) == 0
        poison_cell(monkeypatch, 0.0, 0.0)  # the south-west corner, ~150 m from the loop
        assert main(["simulate", *TWO_METRE, "--out-dir", str(tmp_path / "poisoned")]) == 0
        capsys.readouterr()
        assert (tmp_path / "poisoned" / "steps.csv").read_bytes() == (tmp_path / "plain" / "steps.csv").read_bytes()
        # a whole-map reader of the same scenario builds it, and stops at the cell as before
        with np.errstate(invalid="ignore"):
            assert main(["build-db", "--set", "cell_interval=2", "--out", str(tmp_path / "map.db")]) == 2
        assert "non-finite map descriptors in grid rows 0..1" in capsys.readouterr().err

    def test_no_reader_sees_an_unbuilt_cell(self):
        cfg = ScenarioConfig(cell_interval=2.0, out_dir="")
        scenario = build_scenario(cfg)
        want = build_descriptor_map(scenario.world, scenario.pipeline, cfg.world_seed).descriptors.tobytes()
        whole = scenario.db_map
        assert whole.tiles.built.all() and whole.descriptors.tobytes() == want
        q = scenario.ground_view(Pose(30.0, 40.0, 0.3))
        ex, ey = whole.extent
        states = np.column_stack([np.linspace(1.0, ex - 1, 50), np.linspace(1.0, 30.0, 50)])
        every = np.ones_like(whole.tiles.built)
        corners = np.zeros_like(every)  # the weighting reads the tiles of each state's four corner cells
        for i, j in (states / 2.0).astype(int):
            corners[j // TILE : (j + 1) // TILE + 1, i // TILE : (i + 1) // TILE + 1] = True
        readers = {
            "field": (lambda m: location_probabilities(m, q).probabilities, every),
            "weights": (lambda m: measurement_probabilities(location_probabilities(m, q), states)[0], corners),
            "heatmap": (lambda m: emit_heatmap(location_probabilities(m, q)), every),
            "database": (lambda m: database_from_map(m).descriptors, every),
        }
        for name, (read, tiles) in readers.items():
            partial = build_scenario(cfg).tiled_map
            partial.tiles.build_route([220.0, 230.0], [220.0, 220.0])  # a few tiles in the middle
            corridor = partial.tiles.built.copy()
            assert not corridor.all()
            got = read(partial)
            np.testing.assert_array_equal(partial.tiles.built, corridor | tiles, err_msg=name)
            np.testing.assert_array_equal(got, read(whole), err_msg=name)
        fresh = build_scenario(cfg).db_map
        assert fresh.tiles.built.all() and fresh.descriptors.tobytes() == want


class TestEvalRetrieval:
    def test_metrics_shapes_and_monotonicity(self, tmp_path):
        cfg = small_cfg(eval_queries=40, eval_top_k=10, out_dir=str(tmp_path))
        result = eval_retrieval(cfg)
        curve = [r for _, r in result["recall_top_k"]]
        assert len(curve) == 10
        assert curve == sorted(curve)  # monotone in K
        assert 0.0 <= result["recall_top_percent"]["recall"] <= 1.0
        assert (tmp_path / "recall_topk.csv").exists()
        assert (tmp_path / "recall_threshold.csv").exists()
        percent_csv = (tmp_path / "recall_percent.csv").read_text().splitlines()
        assert percent_csv[0] == "percent,recall"

    def test_noise_free_queries_localize_within_two_cells(self):
        # a query between lattice points may retrieve a neighbouring cell,
        # but the retrieved location stays geographically tight
        cfg = small_cfg(world_view_noise=0.0, eval_queries=25, eval_top_k=3,
                        eval_thresholds="12,1000")
        result = eval_retrieval(cfg)
        assert result["recall_top_k"][0][1] >= 0.7
        curve = dict(result["recall_vs_distance"])
        assert curve[12.0] == 1.0
