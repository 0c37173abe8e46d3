import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ShortRead, save_trajectory

import cvloc.config
import cvloc.mapgrid
import cvloc.retrieval
import cvloc.simulate
import cvloc.world
from cvloc.cli import build_parser, main
from cvloc.config import ScenarioConfig
from cvloc.descriptor import (
    VIEWS,
    Branch,
    Pipeline,
    _layout,
    load_pipeline,
    random_dual_pipeline,
    random_shared_pipeline,
    save_pipeline,
)
from cvloc.retrieval import load_db

SMALL = [
    "--set", "lat_max=40.00135",
    "--set", "lon_max=-104.99824",
    "--set", "traj_steps=30",
    "--set", "traj_length=300",
    "--set", "particles=200",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigHandling:
    def test_unknown_key_in_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("partcles = 100\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "partcles" in err

    def test_unknown_set_key_exits_2(self, capsys):
        code, _, err = run_cli(["simulate", "--set", "nope=1"], capsys)
        assert code == 2
        assert "nope" in err

    def test_bad_value_exits_2(self, capsys):
        code, _, err = run_cli(["simulate", "--set", "particles=many"], capsys)
        assert code == 2

    @pytest.mark.parametrize("entry, message", [
        ("particles", "expected 'key = value', got 'particles'"),
        ("partcles = 100", "unknown config key 'partcles'"),
        ("particles = ten", "bad value for particles: "),
    ])
    def test_every_entry_error_starts_with_its_source(self, entry, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# scenario\ntraj_steps = 3\n{entry}  # third line\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2 and err.startswith(f"error[config]: {cfg}:3: {message}"), err
        code, _, err = run_cli(["simulate", "--set", "traj_steps=3", "--set", entry.replace(" ", "")], capsys)
        assert code == 2 and err.startswith(f"error[config]: --set: {message}"), err

    @pytest.mark.parametrize("body, line, column, byte", [
        (b"particles = 1\xff0\n", 1, 14, "0xff"),
        (b"# scenario\ntraj_steps = 3\r\nparticles = 10  # caf\xe9\n", 3, 22, "0xe9"),
        (b"traj_steps = 3\rparticles = \xc3\n", 2, 13, "0xc3"),  # a lone CR ends a line too
    ])
    def test_a_byte_not_utf8_names_its_line(self, body, line, column, byte, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(body)
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2 and err.startswith(f"error[config]: {cfg}:{line}: not UTF-8 text: byte {byte} "
                                            f"at column {column}"), err

    @pytest.mark.parametrize("length", ["-300", "0", "nan"])
    def test_non_positive_traj_length_exits_2(self, length, capsys):
        code, _, err = run_cli(["simulate", *SMALL, "--set", f"traj_length={length}"], capsys)
        assert code == 2
        assert "traj_length" in err

    @pytest.mark.parametrize("args, key", [
        (["--set", "heatmap_every=-5"], "heatmap_every"),
        (["--heatmap-every", "-5"], "heatmap_every"),
        (["--set", "ess_threshold=nan"], "ess_threshold"),
        (["--set", "ess_threshold=-0.5"], "ess_threshold"),
        (["--set", "eval_thresholds=5,nan,25"], "eval_thresholds"),
        (["--set", "eval_thresholds=5,-10"], "eval_thresholds"),
    ])
    def test_out_of_range_value_exits_2(self, args, key, tmp_path, capsys):
        code, _, err = run_cli(["simulate", *SMALL, "--out-dir", str(tmp_path), *args], capsys)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("args, key", [
        (["--set", "world_length_scale=nan"], "world_length_scale"),
        (["--set", "world_length_scale=0"], "world_length_scale"),
        (["--set", "world_length_scale=inf"], "world_length_scale"),
        (["--set", "world_view_noise=nan"], "world_view_noise"),
        (["--set", "world_view_noise=-0.1"], "world_view_noise"),
        (["--set", "corridor=true", "--set", "corridor_gain=nan"], "corridor_gain"),
        (["--set", "corridor=true", "--set", "corridor_width=0"], "corridor_width"),
        (["--set", "corridor=true", "--set", "corridor_width=inf"], "corridor_width"),
        (["--set", "alias_regions=inf,0,10,10,5"], "alias region"),
        (["--set", "alias_regions=0,0,10,10,nan"], "alias region"),
        (["--set", "alias_regions=0,0,10,10,-1"], "alias region"),
        # zero-width or negative descriptor stages
        (["--set", "reduced_dim=0", "--set", "normalize_descriptors=false"], "reduced_dim"),
        (["--set", "clusters=0"], "clusters"),
        (["--set", "clusters=-1"], "clusters"),
        (["--set", "reduced_dim=-1"], "reduced_dim"),
        (["--set", "hidden_dim=-1"], "hidden_dim"),
        (["--set", "pipeline_variant=shared", "--set", "hidden_dim=0"], "hidden_dim"),
        (["--set", "world_features=0"], "world_features"),
        (["--set", "world_feature_dim=0"], "world_feature_dim"),
        (["--set", "log_format=xml"], "error[config]: log_format must be one of csv, jsonl, got 'xml'"),
        # passes validation, overflows the field: the map build's own check
        (["--set", "world_length_scale=1e-308"], "non-finite map descriptors"),
        # subnormal intervals: the cell count overflows to infinity
        (["--set", "cell_interval=1e-320"], "interval"),
        (["--set", "cell_interval=5e-324"], "interval"),
    ])
    def test_hostile_map_build_value_exits_2(self, args, key, tmp_path, capsys):
        out = tmp_path / "map.db"
        code, _, err = run_cli(["build-db", *SMALL, "--out", str(out), *args], capsys)
        assert code == 2
        assert key in err
        assert not out.exists()

    def test_config_file_with_comments_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "# scenario\n"
            "lat_max = 40.00135\n"
            "lon_max = -104.99824\n"
            "traj_steps = 20   # short run\n"
            "traj_length = 250\n"
            "particles = 150\n"
            f"out_dir = {tmp_path / 'out'}\n"
        )
        code, out, _ = run_cli(["simulate", "--config", str(cfg), "--set", "master_seed=3"], capsys)
        assert code == 0
        assert json.loads(out)["steps"] == 20


class TestUnusablePaths:
    """A path that cannot be opened as the file it names is bad input: exit 2
    with ``error[input]`` and nothing printed, for every command's path arguments."""

    POSE = ["--pose", "60,60,0"]

    @pytest.mark.parametrize("command, args", [
        ("build-db", ["--out", "{dir}"]),
        ("build-db", ["--config", "{dir}", "--out", "{dir}/map.db"]),
        ("build-db", ["--set", "params_file={dir}", "--out", "{dir}/map.db"]),
        ("query", ["--db", "{dir}", *POSE]),
        ("query", ["--config", "{dir}", *POSE]),
        ("query", ["--set", "params_file={dir}", *POSE]),
        ("localize", ["--heatmap-csv", "{dir}", *POSE]),
        ("localize", ["--heatmap-pgm", "{dir}", *POSE]),
        ("localize", ["--config", "{dir}", *POSE]),
        ("localize", ["--set", "params_file={dir}", *POSE]),
        ("simulate", ["--set", "trajectory_file={dir}"]),
        ("simulate", ["--out-dir", "{file}"]),
        ("simulate", ["--config", "{dir}"]),
        ("simulate", ["--set", "params_file={dir}"]),
        ("eval", ["--loss-surface", "{dir}", "--out-dir", "{dir}/out"]),
        ("eval", ["--out-dir", "{file}"]),
        ("eval", ["--config", "{dir}"]),
        ("eval", ["--set", "params_file={dir}"]),
    ])
    def test_directory_or_file_in_the_wrong_place_exits_2(self, command, args, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        args = [a.format(dir=tmp_path, file=a_file) for a in args]
        code, out, err = run_cli([command, *SMALL, "--set", "eval_queries=5", *args], capsys)
        assert code == 2 and out == "", err
        assert err.startswith("error[input]"), err


class TestNoPartialOutput:
    """A failed command removes the output files and directories it created,
    so an input error found after some outputs were written still leaves none
    behind."""

    POSE = ["--pose", "60,60,0"]

    def test_eval_with_an_unusable_loss_surface_leaves_no_out_dir_files(self, tmp_path, capsys):
        out = tmp_path / "a" / "out"  # both directories are the command's
        code, printed, err = run_cli(["eval", *SMALL, "--set", "eval_queries=5", "--out-dir", str(out),
                                      "--loss-surface", str(tmp_path)], capsys)
        assert code == 2 and printed == "" and err.startswith("error[input]"), err
        assert list(tmp_path.iterdir()) == []

    def test_keeps_an_out_dir_that_existed(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code, _, _ = run_cli(["eval", *SMALL, "--set", "eval_queries=5", "--out-dir", str(out),
                              "--loss-surface", str(tmp_path)], capsys)
        assert code == 2
        assert out.is_dir() and list(out.iterdir()) == []

    def test_localize_with_an_unusable_pgm_leaves_no_csv(self, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        code, printed, err = run_cli(["localize", *SMALL, *self.POSE, "--heatmap-csv", str(csv),
                                      "--heatmap-pgm", str(tmp_path)], capsys)
        assert code == 2 and printed == "" and err.startswith("error[input]"), err
        assert not csv.exists()

    def test_simulate_with_an_unusable_step_log_leaves_no_heatmaps(self, tmp_path, capsys):
        (tmp_path / "steps.csv").mkdir()  # fails at the end of the run, after the heatmaps
        code, printed, err = run_cli(["simulate", *SMALL, "--heatmap-every", "10", "--out-dir", str(tmp_path)],
                                     capsys)
        assert code == 2 and printed == "" and err.startswith("error[input]"), err
        assert not (tmp_path / "heatmaps").exists()

    def test_keeps_files_it_did_not_create(self, tmp_path, capsys):
        before, kept = tmp_path / "before.csv", tmp_path / "kept.csv"
        before.write_text("x,y,p\n")
        # created by an earlier command that succeeded
        assert run_cli(["localize", *SMALL, *self.POSE, "--heatmap-csv", str(kept)], capsys)[0] == 0
        code, _, _ = run_cli(["localize", *SMALL, *self.POSE, "--heatmap-csv", str(before),
                              "--heatmap-pgm", str(tmp_path)], capsys)
        assert code == 2
        assert before.exists() and kept.exists()


class TestSimulateCommand:
    def test_deterministic_step_logs(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["simulate", *SMALL, "--out-dir", str(out)], capsys)
            assert code == 0
        assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()

    def test_summary_printed(self, tmp_path, capsys):
        code, out, _ = run_cli(["simulate", *SMALL, "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["steps"] == 30
        assert summary["mean_position_error"] >= 0

    def test_wall_time_excludes_the_map_build(self, tmp_path, monkeypatch, capsys):
        build = cvloc.world._build  # every map build, the route corridor included

        def slow_build(*args, **kwargs):
            time.sleep(0.3)
            return build(*args, **kwargs)

        monkeypatch.setattr(cvloc.world, "_build", slow_build)
        t0 = time.perf_counter()
        code, out, _ = run_cli(["simulate", *SMALL, "--set", "traj_steps=20",
                                "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0 and time.perf_counter() - t0 >= 0.3
        summary = json.loads(out)
        assert summary["steps"] == 20 and summary["wall_time_s"] < 0.3


    def test_negative_heatmap_every_exits_2_and_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "neg"
        code, printed, err = run_cli(["simulate", *SMALL, "--heatmap-every", "-1", "--out-dir", str(out)], capsys)
        assert code == 2 and printed == "" and "heatmap_every" in err, err
        assert not out.exists()

    def test_heatmap_every_flag_beats_set(self, tmp_path, capsys):
        code, _, _ = run_cli(["simulate", *SMALL, "--set", "traj_steps=9", "--heatmap-every", "3",
                              "--set", "heatmap_every=5", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "heatmaps").iterdir())
        assert names == [f"field_{t:05d}.{ext}" for t in (3, 6, 9) for ext in ("csv", "pgm")]


# Runs cvloc.cli.main on the given arguments with the address space capped
# at 4 GiB, so an oversized allocation fails whatever the overcommit setting.
ADDRESS_SPACE_CAPPED_MAIN = """
import resource, sys
from cvloc.cli import main
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
sys.exit(main(sys.argv[1:]))
"""


class TestOversizedAllocation:
    """An allocation a config value asks for that cannot be made is bad input."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "particles=100000000000", "--set", "traj_steps=1"],  # 2.18 TiB of states
        ["localize", "--pose", "10,10,0", "--set", "clusters=1000000000"],  # 119 GiB of centroids
    ])
    def test_exits_2_and_leaves_no_out_dir(self, argv, tmp_path):
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(cvloc.world.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", ADDRESS_SPACE_CAPPED_MAIN, *argv, "--out-dir", str(out)],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 2 and proc.stderr.startswith("error[input]: "), proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestHostileValueOneErrorLine:
    """A value that passes validation and overflows a computation prints its
    error line alone: no numpy RuntimeWarning comes before it."""

    @pytest.mark.parametrize("entry, message", [
        ("world_view_noise=1e308", "error[input]: query descriptor must be finite"),
        ("sigma_trans=1e308", "error[input]: non-finite pose (nan, nan, "),
    ])
    def test_simulate_prints_one_stderr_line(self, entry, message, tmp_path):
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(cvloc.world.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cvloc.cli", "simulate", "--set", "traj_steps=5",
                               "--set", entry, "--out-dir", str(out)],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), proc.stderr
        assert not out.exists()


class TestValidatedOnce:
    """Every command validates its config once, in ``build_scenario``."""

    @pytest.mark.parametrize("argv", [
        ["build-db", "--out", "{tmp}/map.db"],
        ["query", "--pose", "60,60,0"],
        ["localize", "--pose", "60,60,0"],
        ["simulate", "--set", "traj_steps=3"],
        ["eval", "--set", "eval_queries=5"],
    ], ids=lambda argv: argv[0])
    def test_one_validate_call_per_command(self, argv, tmp_path, monkeypatch, capsys):
        calls = []
        validate = ScenarioConfig.validate

        def counting_validate(cfg):
            calls.append(cfg)
            validate(cfg)

        monkeypatch.setattr(ScenarioConfig, "validate", counting_validate)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, _, err = run_cli([*argv, *SMALL, "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0, err
        assert len(calls) == 1


class TestDatabaseCommands:
    def test_build_then_query(self, tmp_path, capsys):
        db_path = tmp_path / "map.db"
        code, out, _ = run_cli(["build-db", *SMALL, "--out", str(db_path)], capsys)
        assert code == 0
        db = load_db(str(db_path))
        assert len(db) > 500

        code, out, _ = run_cli(
            ["query", *SMALL, "--db", str(db_path), "--pose", "75,75,0.3", "-k", "3"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,id,distance,lat,lon"
        assert len(lines) == 4
        top_id = int(lines[1].split(",")[1])
        # top hit near the queried pose: cell (15, 15) on a 30-wide grid
        col, row = top_id % 30, top_id // 30
        assert abs(col - 15) <= 2 and abs(row - 15) <= 2

    def test_query_without_db_builds_on_the_fly(self, tmp_path, capsys):
        # the same bytes as query --db on the file build-db wrote
        db_path = tmp_path / "map.db"
        assert run_cli(["build-db", *SMALL, "--out", str(db_path)], capsys)[0] == 0
        query = ["query", *SMALL, "--pose", "60,60,0", "-k", "5"]
        code, from_file, _ = run_cli([*query, "--db", str(db_path)], capsys)
        assert code == 0 and len(from_file.splitlines()) == 6
        code, on_the_fly, _ = run_cli(query, capsys)
        assert code == 0
        assert on_the_fly == from_file

    def test_query_db_builds_no_descriptor_map(self, tmp_path, monkeypatch, capsys):
        db_path = tmp_path / "map.db"
        assert run_cli(["build-db", *SMALL, "--out", str(db_path)], capsys)[0] == 0

        def no_map(*args, **kwargs):
            raise AssertionError("the descriptor map was built")

        monkeypatch.setattr(cvloc.world, "satellite_cell_features", no_map)
        query = ["query", *SMALL, "--pose", "60,60,0", "-k", "5"]
        code, out, err = run_cli([*query, "--db", str(db_path)], capsys)
        assert (code, err) == (0, "") and len(out.splitlines()) == 6
        assert run_cli(query, capsys)[0] == 1  # without --db the map is built, and the patch bites


class TestTruncatedInputs:
    def test_truncated_db_header_exits_2(self, tmp_path, capsys):
        db_path = tmp_path / "short.db"
        db_path.write_bytes(b"CVLOCDB1" + b"\x01\x00")
        code, _, err = run_cli(["query", *SMALL, "--db", str(db_path), "--pose", "60,60,0"], capsys)
        assert code == 2
        assert err.startswith("error[input]")

    def test_db_count_beyond_file_length_exits_2(self, tmp_path, capsys):
        db_path = tmp_path / "map.db"
        assert run_cli(["build-db", *SMALL, "--out", str(db_path)], capsys)[0] == 0
        raw = db_path.read_bytes()
        for cut in (raw[:-1], raw[:len(raw) // 2], raw[:28]):
            db_path.write_bytes(cut)
            code, _, err = run_cli(["query", *SMALL, "--db", str(db_path), "--pose", "60,60,0"], capsys)
            assert code == 2
            assert "does not match" in err

    def test_db_huge_declared_count_rejected_before_allocating(self, tmp_path):
        db_path = tmp_path / "huge.db"
        db_path.write_bytes(b"CVLOCDB1" + struct.pack("<IQI", 1, 2**60, 32))
        with pytest.raises(ValueError, match="does not match"):
            load_db(str(db_path))

    def test_truncated_params_file_exits_2(self, tmp_path, capsys):
        params = tmp_path / "short.params"
        params.write_bytes(b"CVLDESC1" + b"\x01\x00")
        code, _, err = run_cli(["localize", *SMALL, "--set", f"params_file={params}",
                                "--pose", "60,60,0"], capsys)
        assert code == 2
        assert err.startswith("error[input]")

    def test_params_huge_declared_shape_exits_2(self, tmp_path, capsys):
        params = tmp_path / "huge.params"
        params.write_bytes(b"CVLDESC1" + struct.pack("<II", 1, 1)
                           + struct.pack("<IIIIII", 2**31, 2**31, 32, 0, 0, 1))
        code, _, err = run_cli(["localize", *SMALL, "--set", f"params_file={params}",
                                "--pose", "60,60,0"], capsys)
        assert code == 2
        assert "truncated" in err

    @pytest.mark.parametrize("damage", ["trailing byte", "one float short", "variant-2 header"])
    def test_params_body_not_matching_header_exits_2(self, damage, params_file, tmp_path, capsys):
        data = bytearray(params_file.read_bytes())
        if damage == "trailing byte":
            data += b"\x00"
        elif damage == "one float short":
            data = data[:-4]
        else:
            struct.pack_into("<I", data, PARAMS_HEADER["variant"], 2)
        params, out = tmp_path / "damaged.params", tmp_path / "map.db"
        params.write_bytes(bytes(data))
        code, _, err = run_cli(["build-db", *SMALL, "--set", f"params_file={params}", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error[input]")
        assert not out.exists()

    def test_params_with_a_zero_width_reduction_exits_2(self, params_file, tmp_path, capsys):
        # R = 0 with the body that header declares: both aggregators and no reduction values
        data = bytearray(params_file.read_bytes())
        k, d = struct.unpack_from("<II", data, PARAMS_HEADER["k"])
        struct.pack_into("<I", data, PARAMS_HEADER["r"], 0)
        params, out = tmp_path / "zero.params", tmp_path / "map.db"
        params.write_bytes(bytes(data[: 40 + 4 * 2 * (2 * k * d + k)]))
        code, _, err = run_cli(["build-db", *SMALL, "--set", f"params_file={params}", "--out", str(out)], capsys)
        assert code == 2
        assert "nonzero width" in err
        assert not out.exists()


# offset and struct format of each database header field after the magic
DB_HEADER = {"version": (8, "<I"), "count": (12, "<Q"), "dim": (20, "<I")}

DB_HEADER_BYTES = 24  # magic, version, count, dim
DB_ENTRY_FIELDS = {"lat": (8, "<d"), "lon": (16, "<d")}  # offsets in an entry, before the descriptor
NON_FINITE = [float("nan"), float("inf"), -float("inf")]

DB_MUTATION = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 40) | st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("set"), st.just("version"), st.sampled_from([0, 2, 2**32 - 1])),
    st.tuples(st.just("set"), st.just("count"),
              st.sampled_from([0, 1, 4, 2**31, 2**32 - 1, 2**60, 2**64 - 1]) | st.integers(0, 2**64 - 1)),
    st.tuples(st.just("set"), st.just("dim"),
              st.sampled_from([0, 1, 31, 33, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
    st.tuples(st.just("geo"), st.integers(0, 2**20), st.sampled_from(sorted(DB_ENTRY_FIELDS)),
              st.sampled_from([*NON_FINITE, 1e308, -1e308, 0.0]) | st.floats()),
    st.tuples(st.just("desc"), st.integers(0, 2**20), st.integers(0, 2**10),
              st.sampled_from([*NON_FINITE, 3.4e38, -3.4e38, 1e30, 0.0]) | st.floats(width=32)),
)


def mutate_db(data: bytearray, mutation) -> bytearray:
    kind, *args = mutation
    if kind == "cut":
        return data[:args[0] % (len(data) + 1)]
    if kind == "flip":
        if data:
            data[args[0] % len(data)] ^= args[1]
        return data
    if kind == "set":
        offset, fmt = DB_HEADER[args[0]]
        if len(data) >= offset + struct.calcsize(fmt):
            struct.pack_into(fmt, data, offset, args[1])
        return data
    # a geo or descriptor number of one entry, as laid out by the header's dim
    if len(data) < DB_HEADER_BYTES:
        return data
    dim = struct.unpack_from("<I", data, 20)[0]
    entries = (len(data) - DB_HEADER_BYTES) // (24 + 4 * dim)
    if entries == 0:
        return data
    start = DB_HEADER_BYTES + (args[0] % entries) * (24 + 4 * dim)
    if kind == "geo":
        offset, fmt = DB_ENTRY_FIELDS[args[1]]
        struct.pack_into(fmt, data, start + offset, args[2])
    elif dim:
        struct.pack_into("<f", data, start + 24 + 4 * (args[1] % dim), args[2])
    return data


@pytest.fixture(scope="module")
def small_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "map.db"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build-db", *SMALL, "--out", str(path)]) == 0
    return path


class TestHostileDatabase:
    @settings(max_examples=200, deadline=None)
    @example(mutations=[("set", "dim", 2**31)])
    @example(mutations=[("set", "dim", 2**32 - 1)])
    @example(mutations=[("set", "count", 2**64 - 1)])
    @example(mutations=[("cut", 24), ("set", "count", 0), ("set", "dim", 2**31)])
    @example(mutations=[("cut", 24), ("set", "count", 0), ("set", "dim", 2**32 - 1)])
    @example(mutations=[("desc", 0, 0, float("nan"))])
    @example(mutations=[("desc", 500, 31, -float("inf"))])
    @example(mutations=[("geo", 0, "lat", float("nan"))])
    @example(mutations=[("geo", 929, "lon", float("inf"))])
    @example(mutations=[("desc", 3, 7, 3.4e38), ("geo", 3, "lat", 1e308)])
    @given(mutations=st.lists(DB_MUTATION, min_size=1, max_size=3))
    def test_query_never_exits_1(self, small_db, mutations):
        data = bytearray(small_db.read_bytes())
        for mutation in mutations:
            data = mutate_db(data, mutation)
        path = small_db.with_name("hostile.db")
        path.write_bytes(bytes(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["query", *SMALL, "--db", str(path), "--pose", "60,60,0"])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            rows = out.getvalue().splitlines()[1:]
            numbers = [float(v) for row in rows for v in row.split(",")[2:]]
            assert rows and np.all(np.isfinite(numbers)), out.getvalue()

    @pytest.mark.parametrize("length", range(DB_HEADER_BYTES))
    def test_a_header_cut_short_exits_2_naming_the_database(self, small_db, length, capsys):
        path = small_db.with_name("cut.db")
        path.write_bytes(small_db.read_bytes()[:length])
        code, out, err = run_cli(["query", *SMALL, "--db", str(path), "--pose", "60,60,0"], capsys)
        assert code == 2 and out == ""
        want = "not a database file" if length < 8 else f"database file ended after {length} of its 24 header bytes"
        assert err == f"error[input]: {want}\n"

    @pytest.mark.parametrize("field", ["desc", "lat", "lon"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_entry_exits_2(self, small_db, field, value, capsys):
        kind, which = ("desc", 5) if field == "desc" else ("geo", field)
        data = mutate_db(bytearray(small_db.read_bytes()), (kind, 17, which, value))
        path = small_db.with_name("non_finite.db")
        path.write_bytes(bytes(data))
        code, out, err = run_cli(["query", *SMALL, "--db", str(path), "--pose", "60,60,0"], capsys)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_ground_view_exits_2(self, small_db, value, monkeypatch, capsys):
        real = cvloc.simulate.Scenario.ground_view

        def spoiled(self, pose):
            view = real(self, pose)
            view.values[2] = value
            return view

        monkeypatch.setattr(cvloc.simulate.Scenario, "ground_view", spoiled)
        code, out, err = run_cli(["query", *SMALL, "--db", str(small_db), "--pose", "60,60,0"], capsys)
        assert code == 2 and out == ""
        assert "finite" in err


# offset of each parameter-file header field after the magic, all "<I"
PARAMS_HEADER = {"version": 8, "variant": 12, "k": 16, "d": 20, "r": 24, "h1": 28, "h2": 32, "norm": 36}
PARAMS_BIAS0 = 18536  # satellite reduction bias[0] of the default dual file

PARAMS_MUTATION = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 40) | st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("set"), st.sampled_from(sorted(PARAMS_HEADER)),
              st.sampled_from([0, 1, 2, 3, 7, 8, 16, 32, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
    st.tuples(st.just("float"), st.integers(0, 2**20),
              st.sampled_from([float("nan"), float("inf"), -float("inf"), 3.4e38, -3.4e38, 1e30, 0.0])
              | st.floats(width=32)),
)


def mutate_params(data: bytearray, mutation) -> bytearray:
    kind, *args = mutation
    if kind == "cut":
        return data[:args[0] % (len(data) + 1)]
    if kind == "flip":
        if data:
            data[args[0] % len(data)] ^= args[1]
        return data
    if kind == "set":
        offset, value = PARAMS_HEADER[args[0]], args[1]
        if len(data) >= offset + 4:
            struct.pack_into("<I", data, offset, value)
        return data
    # a float32 array element: any 4-aligned offset after the 40-byte header
    if len(data) >= 44:
        struct.pack_into("<f", data, 40 + 4 * (args[0] % ((len(data) - 40) // 4)), args[1])
    return data


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "dual.params"
    save_pipeline(random_dual_pipeline(11, tie_views=True), str(path))
    return path


@pytest.fixture(scope="module")
def params_files(tmp_path_factory):
    """A dual and a shared parameter file."""
    tmp = tmp_path_factory.mktemp("params")
    paths = {"dual": tmp / "dual.params", "shared": tmp / "shared.params"}
    save_pipeline(random_dual_pipeline(11), str(paths["dual"]))
    save_pipeline(random_shared_pipeline(11, hidden_dim=12), str(paths["shared"]))
    return paths


def former_load_pipeline(path: str) -> Pipeline:
    """The parameter reader before the body was one record: the declared
    size checked, then one ``fh.read`` of the body sliced by
    ``np.frombuffer``, ``np.split`` and ``reshape``. The oracle of
    :func:`cvloc.descriptor.load_pipeline`."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != b"CVLDESC1":
            raise ValueError(f"not a descriptor parameter file: bad magic {magic!r}")
        version, variant = struct.unpack("<II", fh.read(8))
        if version != 1:
            raise ValueError(f"unsupported parameter file version {version}")
        *dims, norm = struct.unpack("<IIIIII", fh.read(24))
        layout = _layout(variant, *dims)
        shapes = [s for _, cls, (rows, cols) in layout
                  for s in [(rows, cols)] * (len(fields(cls)) - 1) + [(rows,)]]
        sizes = [math.prod(s) for s in shapes]
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if 4 * sum(sizes) != body:
            raise ValueError(f"parameter file truncated or overlong: the header declares "
                             f"{4 * sum(sizes)} body bytes, but {body} follow")
        flat = np.frombuffer(fh.read(body), dtype="<f4")
    arrays = iter([a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)])
    part = {name: cls(*(next(arrays) for _ in fields(cls))) for name, cls, _ in layout}
    if variant == 1:
        branches = [Branch((), part[f"{view}.vlad"], part[f"{view}.reduction"]) for view in VIEWS]
    else:
        shared = part["satellite.layers.1"], part["satellite.vlad"], part["satellite.reduction"]
        branches = [Branch((part[f"{view}.layers.0"], shared[0]), *shared[1:]) for view in VIEWS]
    return Pipeline(*branches, bool(norm))


def pipeline_arrays(pipeline: Pipeline) -> list[np.ndarray]:
    """Every parameter array of both branches, in a fixed order."""
    out = []
    for branch in (pipeline.satellite, pipeline.ground):
        for part in (*branch.layers, branch.vlad, branch.reduction):
            out += [getattr(part, f.name) for f in fields(part)]
    return out


def load_outcome(load, path):
    """``load(path)``, or the ValueError or struct.error it raised."""
    try:
        return load(path)
    except (ValueError, struct.error) as e:
        return e


class TestHostileParams:
    @settings(max_examples=200, deadline=None)
    @example(mutations=[("float", (PARAMS_BIAS0 - 40) // 4, float("nan"))])
    @example(mutations=[("float", (PARAMS_BIAS0 - 40) // 4, float("inf"))])
    @example(mutations=[("set", "r", 0), ("set", "norm", 0)])
    @example(mutations=[("set", "variant", 2), ("set", "h1", 0), ("set", "h2", 0)])
    @example(mutations=[("set", "norm", 0), ("float", 700, 3.4e38)])
    @given(mutations=st.lists(PARAMS_MUTATION, min_size=1, max_size=3))
    def test_build_db_never_exits_1(self, params_file, mutations):
        data = bytearray(params_file.read_bytes())
        for mutation in mutations:
            data = mutate_params(data, mutation)
        path = params_file.with_name("hostile.params")
        path.write_bytes(bytes(data))
        out = params_file.with_name("hostile.db")
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["build-db", *SMALL, "--set", f"params_file={path}", "--out", str(out)])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert np.all(np.isfinite(load_db(str(out)).descriptors))

    @pytest.mark.parametrize("length", range(40))
    def test_a_header_cut_short_exits_2_naming_the_parameter_file(self, params_file, length, tmp_path, capsys):
        path, out = tmp_path / "cut.params", tmp_path / "map.db"
        path.write_bytes(params_file.read_bytes()[:length])
        code, out_text, err = run_cli(["build-db", *SMALL, "--set", f"params_file={path}", "--out", str(out)],
                                      capsys)
        assert code == 2 and out_text == ""
        want = "not a parameter file" if length < 8 else f"parameter file ended after {length} of its 40 header bytes"
        assert err == f"error[input]: {want}\n"
        assert not out.exists()


class TestParamsReaderAgainstTheFormerReader:
    @settings(max_examples=150, deadline=None)
    @example(variant="dual", mutations=[("float", (PARAMS_BIAS0 - 40) // 4, float("nan"))])
    @example(variant="dual", mutations=[("set", "r", 0), ("set", "norm", 0)])
    @example(variant="shared", mutations=[("set", "h1", 0)])
    @example(variant="shared", mutations=[("set", "variant", 1)])
    @example(variant="dual", mutations=[("cut", 30)])
    @example(variant="shared", mutations=[("cut", 2**20)])
    @given(variant=st.sampled_from(["dual", "shared"]), mutations=st.lists(PARAMS_MUTATION, min_size=0, max_size=3))
    def test_accepts_exactly_what_the_former_reader_accepts(self, params_files, variant, mutations):
        data = bytearray(params_files[variant].read_bytes())
        for mutation in mutations:
            data = mutate_params(data, mutation)
        path = params_files[variant].with_name("mutated.params")
        path.write_bytes(bytes(data))
        want, got = load_outcome(former_load_pipeline, str(path)), load_outcome(load_pipeline, str(path))
        if isinstance(want, struct.error):  # a header cut short: the one outcome whose type changed
            assert type(got) is ValueError
            assert str(got) == f"parameter file ended after {len(data)} of its 40 header bytes", got
            return
        if isinstance(want, Exception):
            assert type(got) is type(want), (got, want)
            return
        assert isinstance(got, Pipeline) and got.normalize_output == want.normalize_output
        for a, b in zip(pipeline_arrays(got), pipeline_arrays(want), strict=True):
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape and a.tobytes() == b.tobytes()
        for g, w in ((got.satellite, want.satellite), (got.ground, want.ground)):
            assert len(g.layers) == len(w.layers)
        sharing = [got.satellite.vlad is got.ground.vlad, got.satellite.reduction is got.ground.reduction]
        assert sharing == [want.satellite.vlad is want.ground.vlad,
                           want.satellite.reduction is want.ground.reduction]

    @pytest.mark.parametrize("cut, message", [
        (1, "^parameter file ended after {body_less_1} of its {body} declared bytes$"),
        (0, "^parameter file ended after 39 of its 40 header bytes$"),
    ], ids=["body", "header"])
    def test_short_read_is_a_value_error_and_build_db_exits_2(self, params_files, tmp_path, monkeypatch, cut,
                                                              message):
        path, out = params_files["dual"], tmp_path / "map.db"
        # the file layer opens every binary input
        monkeypatch.setattr(cvloc.config, "open", lambda p, mode: ShortRead(io.FileIO(p, mode[0]), cut),
                            raising=False)
        body = path.stat().st_size - 40
        with pytest.raises(ValueError, match=message.format(body=body, body_less_1=body - 1)):
            load_pipeline(str(path))
        code, out_text, err = run_quietly(["build-db", *SMALL, "--set", f"params_file={path}", "--out", str(out)])
        assert code == 2 and out_text == ""
        assert err.startswith("error[input]: parameter file ended after"), err
        assert not out.exists()


class TestMapSizeBound:
    @pytest.mark.parametrize("command", [
        ["simulate"], ["build-db", "--out", "never.db"], ["eval"], ["localize", "--pose", "1,1,0"],
        ["query", "--pose", "1,1,0"],
    ])
    def test_oversized_grid_exits_2_before_building(self, command, tmp_path, monkeypatch, capsys):
        # 1e-4 m cells over the default map: 4.4 million cells a side
        built = []
        monkeypatch.setattr(cvloc.world, "satellite_cell_features", lambda *a, **k: built.append(a))
        monkeypatch.setattr(cvloc.world.SyntheticWorld, "__post_init__", lambda w: built.append(w))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([*command, "--set", "cell_interval=1e-4"], capsys)
        assert code == 2 and out == ""
        assert "4,194,304" in err
        assert built == [] and list(tmp_path.iterdir()) == []


SCENARIO_KEYS = {f.name: f.type for f in fields(ScenarioConfig)}
FLOAT_KEYS = sorted(k for k, t in SCENARIO_KEYS.items() if t == "float")
COUNT_KEYS = sorted(k for k, t in SCENARIO_KEYS.items() if t in ("int", "bool"))
NON_FINITE_TEXT = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"])
NUMBER_TEXT = NON_FINITE_TEXT | st.sampled_from(
    ["0", "-0", "5", "-5", "1e308", "-1e308", "5e-324", "", " ", "x"]) | st.floats().map(repr)
LIST_TEXT = st.lists(st.tuples(NUMBER_TEXT, st.sampled_from([",", ";", ",,", ";;", " , "])),
                     max_size=12).map(lambda parts: "".join(a + b for a, b in parts))

CONFIG_MUTATION = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), NON_FINITE_TEXT),
    # integer and boolean keys only take text that is not a count, so no run grows
    st.tuples(st.sampled_from(COUNT_KEYS), NON_FINITE_TEXT | st.sampled_from(["1.5", "", "x", "0x10"])),
    st.tuples(st.sampled_from(["alias_regions", "eval_thresholds"]), LIST_TEXT),
    st.tuples(st.from_regex(r"\A[a-z_]{1,16}\Z").filter(lambda k: k not in SCENARIO_KEYS),
              st.text(max_size=8)),
)

SMALL_CONFIG = [arg.replace("=", " = ") for arg in SMALL[1::2]]


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_simulate(code, out, err):
    """Exit 0 with a finite summary, or exit 2; never 1."""
    assert code in (0, 2), err
    if code == 0:
        summary = json.loads(out)
        assert all(math.isfinite(v) for v in summary.values()), out


class TestHostileConfig:
    @settings(max_examples=150, deadline=None)
    @example(mutations=[("alias_regions", "0,0,10,10,1e200")])
    @example(mutations=[("alias_regions", "1e308,0,10,10,5")])
    @example(mutations=[("alias_regions", "0,0,10,10,nan;")])
    @example(mutations=[("eval_thresholds", "5,,inf")])
    @example(mutations=[("lat_max", "inf"), ("cell_interval", "nan")])
    @example(mutations=[("probability_floor", "nan")])
    @example(mutations=[("partcles", "100")])
    @given(mutations=st.lists(CONFIG_MUTATION, min_size=1, max_size=3))
    def test_simulate_never_exits_1(self, tmp_path_factory, mutations):
        tmp = tmp_path_factory.mktemp("cfg")
        lines = [*SMALL_CONFIG, f"out_dir = {tmp / 'out'}"]
        lines += [f"{key} = {value}" for key, value in mutations]
        path = tmp / "hostile.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert_clean_simulate(*run_quietly(["simulate", "--config", str(path)]))


TRAJECTORY_MUTATION = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 40), st.integers(1, 3),
              NON_FINITE_TEXT | st.sampled_from(["-50", "-0.001", "1e9", "1e308", "x", ""])
              | st.floats().map(repr)),
    st.tuples(st.just("cut"), st.integers(0, 40)),
    st.tuples(st.just("drop column"), st.integers(0, 40)),
    # a byte that is not UTF-8, appended to a value as its surrogate escape
    st.tuples(st.just("byte"), st.integers(0, 40), st.integers(0, 3), st.integers(0x80, 0xFF)),
)


@pytest.fixture(scope="module")
def trajectory_rows(tmp_path_factory):
    """The CSV rows of the SMALL scenario's own loop."""
    cfg = ScenarioConfig()
    for arg in SMALL[1::2]:
        key, value = arg.split("=")
        setattr(cfg, key, type(getattr(cfg, key))(value))
    poses = cvloc.simulate.generate_trajectory(cfg, cvloc.simulate.build_grid(cfg))
    path = tmp_path_factory.mktemp("traj") / "loop.csv"
    save_trajectory(poses, str(path))
    return path.read_text().splitlines()


class TestHostileTrajectory:
    @settings(max_examples=100, deadline=None)
    @example(mutations=[("value", 0, 1, "-50")])
    @example(mutations=[("value", 0, 2, "nan")])
    @example(mutations=[("value", 17, 3, "inf")])
    @example(mutations=[("cut", 1)])
    @example(mutations=[("byte", 1, 1, 0xFF)])
    @given(mutations=st.lists(TRAJECTORY_MUTATION, min_size=1, max_size=3))
    def test_simulate_never_exits_1(self, trajectory_rows, tmp_path_factory, mutations):
        header, rows = trajectory_rows[0], [row.split(",") for row in trajectory_rows[1:]]
        for kind, index, *args in mutations:
            if not rows:
                break
            row = rows[index % len(rows)]
            if kind == "cut":
                rows = rows[:index % len(rows)]
            elif kind == "drop column":
                del row[-1:]
            elif kind == "byte":
                if args[0] < len(row):
                    row[args[0]] += chr(0xDC00 + args[1])
            elif args[0] < len(row):
                row[args[0]] = args[1]
        tmp = tmp_path_factory.mktemp("traj")
        path = tmp / "hostile.csv"
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert_clean_simulate(*run_quietly(
            ["simulate", *SMALL, "--out-dir", str(tmp / "out"), "--set", f"trajectory_file={path}"]))

    @pytest.mark.parametrize("column, value", [
        (1, "abc"), (1, "nan"), (1, "5\udcff"), (0, "abc"), (0, "nan"), (0, "inf"), (0, "0"), (0, "-1"),
    ], ids=["bad number", "non-finite", "non-UTF-8 byte", "bad time", "NaN time", "infinite time",
            "repeated time", "earlier time"])
    def test_a_bad_value_on_line_3_exits_2_naming_it(self, trajectory_rows, tmp_path, column, value, capsys):
        # line 2 holds t = 0, so a t of 0 or less on line 3 does not follow it
        rows = list(trajectory_rows)
        row = rows[2].split(",")
        row[column] = value
        rows[2] = ",".join(row)
        path = tmp_path / "traj.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        code, out, err = run_cli(["simulate", *SMALL, "--out-dir", str(tmp_path / "out"),
                                  "--set", f"trajectory_file={path}"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error[input]: {path}:3: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x", ["-50", "nan"])
    def test_first_pose_off_the_map_exits_2(self, trajectory_rows, tmp_path, x, capsys):
        rows = list(trajectory_rows)
        t, _, y, theta = rows[1].split(",")
        rows[1] = ",".join([t, x, y, theta])
        path = tmp_path / "traj.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(["simulate", *SMALL, "--out-dir", str(tmp_path / "out"),
                                  "--set", f"trajectory_file={path}"], capsys)
        assert code == 2 and out == ""
        assert ("pose 0" in err) if x == "-50" else ("non-finite" in err)


# map and world keys take non-finite and extreme finite text; counts take
# only small values, and a map is held to CELL_BUDGET cells, so no accepted
# run grows
EXTREME_TEXT = NON_FINITE_TEXT | st.sampled_from(
    ["0", "-0", "1e308", "-1e308", "5e-324", "-5e-324", "1e-300", "90", "-90", "180", "-180"]
) | st.floats().map(repr)
SMALL_COUNT_TEXT = st.sampled_from(["-1", "0", "1", "2", "", "x", "1.5"])
MAP_WORLD_MUTATION = st.one_of(
    st.tuples(st.sampled_from(["lat_min", "lat_max", "lon_min", "lon_max", "cell_interval",
                               "world_length_scale", "world_view_noise", "corridor_width",
                               "corridor_gain"]), EXTREME_TEXT),
    st.tuples(st.sampled_from(["world_features", "world_feature_dim"]), SMALL_COUNT_TEXT),
    st.tuples(st.just("world_seed"), st.sampled_from(["-1", "0", str(2**64), str(2**128)])),
    st.tuples(st.just("world_kind"), st.sampled_from(["flat", "smooth", "", "x"])),
    st.tuples(st.just("corridor"), st.sampled_from(["true", "false", "x"])),
    st.tuples(st.just("alias_regions"), LIST_TEXT),
)
EVAL_MUTATION = MAP_WORLD_MUTATION | st.one_of(
    st.tuples(st.just("eval_queries"), SMALL_COUNT_TEXT),
    st.tuples(st.just("eval_top_k"), SMALL_COUNT_TEXT | st.just("999999")),
    st.tuples(st.sampled_from(["eval_percent", "loss_alpha"]), EXTREME_TEXT),
    st.tuples(st.just("eval_thresholds"), LIST_TEXT),
)
CELL_BUDGET = 4096
ON_MAP_TEXT = st.floats(0, 150).map(repr)
POSE_TEXT = st.one_of(
    st.tuples(ON_MAP_TEXT, ON_MAP_TEXT, st.floats(-10, 10).map(repr)).map(",".join),
    st.tuples(*[ON_MAP_TEXT | NUMBER_TEXT] * 3).map(",".join),
    st.lists(NUMBER_TEXT, max_size=5).map(",".join),  # any arity
)
# None (no such output), a fresh file, or a path that cannot be written
OUTPUT_PATH = st.sampled_from([None, "fresh", "a directory", "under a missing directory", "under a file"])


def output_option(option, tmp, kind, name):
    """``[option, path]`` for an OUTPUT_PATH kind, or no arguments."""
    paths = {"fresh": tmp / name, "a directory": tmp, "under a missing directory": tmp / "missing" / name,
             "under a file": tmp / "file" / name}
    return [] if kind is None else [option, str(paths[kind])]


def run_hostile(tmp, argv):
    """Run ``argv`` from ``tmp`` with the map held to CELL_BUDGET cells; on a
    failure, check that nothing it created, default output directories
    included, is left in ``tmp``."""
    (tmp / "file").write_text("")
    before = sorted(tmp.rglob("*"))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(cvloc.mapgrid, "MAX_CELLS", CELL_BUDGET)
        code, out, err = run_quietly(argv)
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and sorted(tmp.rglob("*")) == before, err
    return code, out


def finite_json(out):
    return json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))


class TestHostileLocalize:
    """localize builds the full field: exit 0 with a finite report, or exit 2."""

    @settings(max_examples=200, deadline=None)
    @example(mutations=[], pose="60,60,0", csv="fresh", pgm="fresh")
    @example(mutations=[("cell_interval", "1e-300")], pose="60,60,0", csv=None, pgm=None)
    @example(mutations=[("world_view_noise", "1e308")], pose="60,60,0", csv=None, pgm=None)
    @example(mutations=[("corridor", "true"), ("corridor_width", "1.3407807929942597e+154")],
             pose="60,60,0", csv=None, pgm=None)
    @example(mutations=[], pose="60,60,inf", csv=None, pgm=None)
    @example(mutations=[], pose="150,150,1e308", csv=None, pgm=None)
    @example(mutations=[], pose="60,60,0", csv="fresh", pgm="under a missing directory")
    @example(mutations=[("cell_interval", "90")], pose="0,0,0", csv=None, pgm=None)  # 2 x 2: sum of 4 rounds above 1
    @given(mutations=st.lists(MAP_WORLD_MUTATION, max_size=3), pose=POSE_TEXT,
           csv=OUTPUT_PATH, pgm=OUTPUT_PATH)
    def test_localize_never_exits_1(self, tmp_path_factory, mutations, pose, csv, pgm):
        tmp = tmp_path_factory.mktemp("localize")
        overrides = [arg for key, value in mutations for arg in ("--set", f"{key}={value}")]
        code, out = run_hostile(tmp, ["localize", *SMALL, *overrides, f"--pose={pose}",
                                      *output_option("--heatmap-csv", tmp, csv, "h.csv"),
                                      *output_option("--heatmap-pgm", tmp, pgm, "h.pgm")])
        if code == 0:
            report = finite_json(out)
            best = report["best_cell"]
            for p in (best["probability"], report["measurement_probability_at_query"]):
                assert 0 <= p <= 1


class TestHostileEval:
    """eval: exit 0 with finite recalls in [0, 1], or exit 2."""

    @settings(max_examples=200, deadline=None)
    @example(mutations=[], out_dir="fresh", surface="fresh")
    @example(mutations=[], out_dir="under a missing directory", surface="a directory")
    @example(mutations=[("eval_percent", "5e-324")], out_dir=None, surface=None)
    @example(mutations=[("loss_alpha", "1e308")], out_dir=None, surface="fresh")
    @given(mutations=st.lists(EVAL_MUTATION, max_size=3), out_dir=OUTPUT_PATH, surface=OUTPUT_PATH)
    def test_eval_never_exits_1(self, tmp_path_factory, mutations, out_dir, surface):
        tmp = tmp_path_factory.mktemp("eval")
        overrides = [arg for key, value in [("eval_queries", "5"), *mutations]
                     for arg in ("--set", f"{key}={value}")]
        code, out = run_hostile(tmp, ["eval", *SMALL, *overrides,
                                      *output_option("--out-dir", tmp, out_dir, "out"),
                                      *output_option("--loss-surface", tmp, surface, "loss.csv")])
        if code == 0:
            report = finite_json(out)
            recalls = [report["recall_top_1"], report["recall_top_percent"]["recall"]]
            assert all(0 <= r <= 1 for r in recalls), report


class TestLocalizeCommand:
    def test_emits_heatmaps_and_report(self, tmp_path, capsys):
        csv = tmp_path / "field.csv"
        pgm = tmp_path / "field.pgm"
        code, out, _ = run_cli(
            ["localize", *SMALL, "--pose", "80,70,0.1",
             "--heatmap-csv", str(csv), "--heatmap-pgm", str(pgm)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["measurement_probability_at_query"] > 0
        best = report["best_cell"]
        # the peaked world puts the best cell near the query
        assert abs(best["x"] - 80) <= 15 and abs(best["y"] - 70) <= 15
        assert csv.exists() and pgm.exists()
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_out_of_map_pose_exits_2(self, capsys):
        code, _, err = run_cli(["localize", *SMALL, "--pose=-50,0,0"], capsys)
        assert code == 2


class TestEvalCommand:
    # K_max = max(eval_top_k, ceil(eval_percent% of the 930 entries))
    @pytest.mark.parametrize("percent, k_max", [(1, 20), (10, 93)])
    def test_one_rank_call_per_query(self, percent, k_max, tmp_path, monkeypatch, capsys):
        # every query is ranked once: one query() call on the batch of all 30
        seen = []
        real = cvloc.retrieval.query
        monkeypatch.setattr(cvloc.retrieval, "query",
                            lambda db, q, k: seen.append((np.array(q), k)) or real(db, q, k))
        code, _, err = run_cli(["eval", *SMALL, "--set", "eval_queries=30", "--set",
                                f"eval_percent={percent}", "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err
        assert len(seen) == 1
        batch, k = seen[0]
        assert batch.ndim == 2 and len({row.tobytes() for row in batch}) == 30
        assert k == k_max

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_ground_view_exits_2(self, value, tmp_path, monkeypatch, capsys):
        real = cvloc.simulate.Scenario.ground_views

        def spoiled(self, poses):
            views = real(self, poses)
            views[7, 3] = value
            return views

        monkeypatch.setattr(cvloc.simulate.Scenario, "ground_views", spoiled)
        code, out, err = run_cli(["eval", *SMALL, "--set", "eval_queries=30",
                                  "--out-dir", str(tmp_path / "eval")], capsys)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("args, size", [
        (["--set", "eval_top_k=100000"], 930),
        (["--set", "eval_top_k=931"], 930),
        (["--set", "cell_interval=100"], 4),
    ])
    def test_oversized_k_exits_2_before_ranking(self, args, size, monkeypatch, capsys):
        monkeypatch.setattr(cvloc.retrieval, "query", None)  # any rank call would raise TypeError
        code, out, err = run_cli(["eval", *SMALL, *args], capsys)
        assert code == 2 and out == ""
        assert "eval_top_k" in err and f"database size {size}" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_bad_loss_alpha_exits_2_before_writing(self, alpha, tmp_path, capsys):
        out, surface = tmp_path / "eval", tmp_path / "loss.csv"
        code, printed, err = run_cli(["eval", *SMALL, "--set", f"loss_alpha={alpha}",
                                      "--out-dir", str(out), "--loss-surface", str(surface)], capsys)
        assert code == 2 and printed == ""
        assert "loss_alpha" in err
        assert not surface.exists() and not (out.exists() and any(out.iterdir()))

    def test_writes_metric_curves(self, tmp_path, capsys):
        out = tmp_path / "eval"
        surface = tmp_path / "loss.csv"
        code, printed, _ = run_cli(
            ["eval", *SMALL, "--set", "eval_queries=30", "--set", "eval_top_k=5",
             "--out-dir", str(out), "--loss-surface", str(surface)],
            capsys,
        )
        assert code == 0
        report = json.loads(printed)
        assert 0 <= report["recall_top_1"] <= 1
        topk = (out / "recall_topk.csv").read_text().strip().splitlines()
        assert topk[0] == "k,recall"
        assert len(topk) == 6
        recalls = [float(r.split(",")[1]) for r in topk[1:]]
        assert recalls == sorted(recalls)
        surface_lines = surface.read_text().strip().splitlines()
        assert surface_lines[0] == "d,max_margin,soft_margin,weighted"
        # spot-check d = 0: ln 2 for the soft margin, 1.0 for max margin (m=1)
        mid = surface_lines[1 + 60].split(",")
        assert float(mid[0]) == pytest.approx(0.0)
        assert float(mid[1]) == pytest.approx(1.0)
        assert float(mid[2]) == pytest.approx(np.log(2))


class TestReentrantMain:
    """``main`` parses with one parser per process; no call may leave state
    in it for the next."""

    def query(self, db, capsys, *extra):
        return run_cli(["query", *SMALL, "--db", str(db), "--pose", "60,60,0", "-k", "5", *extra], capsys)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_set_does_not_reach_the_next_call(self, small_db, capsys):
        code, before, _ = self.query(small_db, capsys)
        assert code == 0 and len(before.splitlines()) == 6
        code, other, _ = self.query(small_db, capsys, "--set", "world_seed=99")
        assert code == 0 and other != before  # the override took effect
        assert self.query(small_db, capsys) == (0, before, "")

    def test_same_rows_after_a_usage_error_and_a_config_error(self, small_db, capsys):
        code, before, _ = self.query(small_db, capsys)
        assert code == 0
        with pytest.raises(SystemExit) as usage:
            main(["query", "--db", str(small_db), "--pose", "60,60,0", "-k", "five"])
        assert usage.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert self.query(small_db, capsys) == (0, before, "")
        code, printed, err = self.query(small_db, capsys, "--set", "nope=1")
        assert code == 2 and printed == "" and "nope" in err
        assert self.query(small_db, capsys) == (0, before, "")

    def test_mutating_a_namespace_does_not_reach_a_later_parse(self):
        parser = build_parser()
        for extra in (["--set", "a=1"], []):
            args = parser.parse_args(["query", "--pose", "1,1,0", *extra])
            if args.overrides is not None:
                args.overrides.append("leak=1")
        assert not parser.parse_args(["query", "--pose", "1,1,0"]).overrides
        assert parser.parse_args(["query", "--pose", "1,1,0", "--set", "c=3"]).overrides == ["c=3"]
