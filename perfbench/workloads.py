"""The benchmark's workloads: the CLI commands each runs, the checks on
every command's output, and the layers its traced run is expected to see.

Every command goes through ``cvloc.cli.main`` in this process, one after
another (a closed loop with a single client, as a CLI user runs them).
All inputs are derived from the run's seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Probe

# ---------------------------------------------------------------------------
# Probes: the program functions the traced run times, and their counters.
# Counters run after the call's span has closed.
# ---------------------------------------------------------------------------


def _field_counter(result, db_map, *args, **kwargs) -> dict:
    cells, dim = db_map.descriptors.shape
    return {"cells": cells, "bytes": cells * dim * db_map.descriptors.itemsize}


def _weight_counter(result, field_, states, *args, **kwargs) -> dict:
    """Distinct corner cells the weighting reads, as a share of the cells the
    field scored, plus the share of particles off the map. The corner
    indexing mirrors the program's lattice: SW corner of the containing cell,
    far edges folded into the last interior cell."""
    grid = field_.grid
    xs, ys = states[:, 0], states[:, 1]
    ex, ey = grid.extent
    inside = (xs >= 0) & (xs <= ex) & (ys >= 0) & (ys <= ey)
    i = np.minimum((xs[inside] / grid.cell_interval).astype(np.int64), grid.width - 2)
    j = np.minimum((ys[inside] / grid.cell_interval).astype(np.int64), grid.height - 2)
    sw = j * grid.width + i
    used = np.zeros(grid.num_cells, dtype=bool)
    for offset in (0, 1, grid.width, grid.width + 1):
        used[sw + offset] = True
    return {"cells_used_frac": float(used.sum()) / grid.num_cells,
            "off_map_frac": 1.0 - float(inside.mean())}


def _step_counter(result, *args, **kwargs) -> dict:
    return {"ess_frac": result.ess / len(result), "degenerate": bool(result.degenerate)}


def _resample_counter(result, *args, **kwargs) -> dict:
    # Survivors are copies of their source rows, so distinct positions count
    # distinct survivors.
    return {"unique_frac": np.unique(result.states[:, 0]).size / len(result)}


def _query_counter(result, db, q, *args, **kwargs) -> dict:
    return {"query": hashlib.blake2b(np.asarray(q).tobytes(), digest_size=8).hexdigest()}


def _cli_counter(result, argv, *args, **kwargs) -> dict:
    return {"command": argv[0]}


def _run_counter(result, *args, **kwargs) -> dict:
    return {"steps": result[0].steps}


PROBES = [
    Probe("cli", "cvloc.cli", "main", counter=_cli_counter),
    Probe("simulate.run", "cvloc.simulate", "run_simulation", counter=_run_counter),
    Probe("simulate.write_log", "cvloc.simulate", "write_step_log"),
    Probe("simulate.database_from_map", "cvloc.simulate", "database_from_map"),
    Probe("world.cell_features", "cvloc.world", "satellite_cell_features"),
    # the map's batch forward pass; per-query forward() calls it from inside
    # cvloc.descriptor and stays part of descriptor.forward
    Probe("descriptor.map_forward", "cvloc.descriptor", "forward_batch", only=("cvloc.world",)),
    Probe("world.synth_features", "cvloc.world", "synth_features"),
    Probe("descriptor.forward", "cvloc.descriptor", "forward"),
    Probe("measurement.field", "cvloc.measurement", "location_probabilities", counter=_field_counter),
    Probe("measurement.weight", "cvloc.measurement", "measurement_probabilities",
          counter=_weight_counter),
    Probe("measurement.heatmap", "cvloc.measurement", "emit_heatmap"),
    Probe("motion.odometry", "cvloc.motion", "simulate_odometry"),
    Probe("motion.sample", "cvloc.motion", "sample_motion_batch"),
    Probe("pfilter.step", "cvloc.pfilter", "pf_step", counter=_step_counter),
    Probe("pfilter.resample", "cvloc.pfilter", "resample_systematic", counter=_resample_counter),
    Probe("pfilter.estimate", "cvloc.pfilter", "estimate_pose"),
    Probe("retrieval.query", "cvloc.retrieval", "query", counter=_query_counter),
    Probe("retrieval.entry", "cvloc.retrieval", "DescriptorDatabase.entry"),
    Probe("retrieval.build_db", "cvloc.retrieval", "build_db"),
    Probe("retrieval.save", "cvloc.retrieval", "save_db"),
    Probe("retrieval.load", "cvloc.retrieval", "load_db"),
    Probe("mapgrid.local_to_geo", "cvloc.mapgrid", "local_to_geo"),
    Probe("losses.surface", "cvloc.simulate", "dump_loss_surface"),
]

TRACKING_SPANS = (
    "cli", "simulate.run", "simulate.write_log", "world.cell_features", "descriptor.map_forward",
    "world.synth_features", "descriptor.forward", "measurement.field", "measurement.weight",
    "motion.odometry", "motion.sample", "pfilter.step", "pfilter.resample", "pfilter.estimate",
)
PARTICLE_PATH = ("motion.sample", "measurement.weight", "pfilter.resample", "pfilter.estimate",
                 "pfilter.step")

# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    code: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Repeat:
    """One pass over a workload's command sequence."""

    commands: list[Command]
    setup_s: float
    loop_s: float
    failures: dict[int, str] = field(default_factory=dict)  # command index -> first failure
    outputs: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(c.seconds for c in self.commands)

    def fail(self, index: int, message: str) -> None:
        self.failures.setdefault(index, f"{self.commands[index].argv[0]}: {message}")

    def check_exit_codes(self) -> bool:
        for i, cmd in enumerate(self.commands):
            if cmd.code != 0:
                self.fail(i, f"exit code {cmd.code}: {cmd.stderr.strip()[:200]}")
        return not self.failures


def run_cli(argv: list[str]) -> Command:
    """One CLI invocation in-process, stdout and stderr captured. The entry
    point is looked up on every call so a traced run sees its wrapper."""
    import cvloc.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cvloc.cli.main(argv)
        seconds = time.perf_counter() - t0
    return Command(list(argv), code, seconds, out.getvalue(), err.getvalue())


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Tracking workloads: `cvloc simulate`
# ---------------------------------------------------------------------------

# Position bound of acceptance criterion C7. C7's heading bound (2 deg) is
# stated for its own master seeds 1-3; per seed it fails on valid runs
# (master seed 8 at 100,000 particles tracks at 2.02 deg, the worst of seeds
# 1-40), so heading is checked with a margin above that.
MAX_MEAN_POSITION_ERROR_M = 10.0
MAX_MEAN_HEADING_ERROR_DEG = 3.0
WARMUP_STEPS = 20


class Tracking:
    """One `simulate` command per repeat; the seed is the master seed, which
    drives the filter noise and the simulated odometry corruption."""

    min_repeats = 3

    def __init__(self, name: str, seed: int, out_dir: str, *, cell_interval: float,
                 particles: int, heatmap_every: int):
        from cvloc.config import ScenarioConfig
        from cvloc.simulate import build_grid

        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.heatmap_every = heatmap_every
        self.overrides = {"master_seed": seed, "cell_interval": cell_interval,
                          "particles": particles}
        self.cfg = ScenarioConfig(heatmap_every=heatmap_every, **self.overrides)
        self.cfg.validate()
        self.grid = build_grid(self.cfg)
        self.expected_spans = TRACKING_SPANS + (("measurement.heatmap",) if heatmap_every else ())
        self.steps_sha: str | None = None

    def sizes(self) -> dict:
        c = self.cfg
        cells = self.grid.num_cells
        return {
            "cells": cells,
            "grid": f"{self.grid.width}x{self.grid.height}",
            "cell_interval_m": c.cell_interval,
            "particles": c.particles,
            "steps": c.traj_steps,
            "heatmap_every": self.heatmap_every,
            "descriptor_dim": c.reduced_dim,
            "computed_map_float32_bytes": cells * c.reduced_dim * 4,
            "computed_map_build_features_float64_bytes":
                cells * c.world_features * c.world_feature_dim * 8,
            "computed_particle_state_float64_bytes": c.particles * 3 * 8,
        }

    def run(self, run_cli, warmup: bool = False) -> Repeat:
        """One repeat. A warm-up repeat runs the same code on the default
        5 m map and a short trajectory (emitting one heatmap when the
        workload does), so it stays cheap on the fine map."""
        argv = ["simulate", "--out-dir", _fresh_dir(self.out_dir),
                "--heatmap-every", str(self.heatmap_every)]
        overrides = dict(self.overrides)
        if warmup:
            overrides.update(cell_interval=5.0, traj_steps=max(self.heatmap_every, WARMUP_STEPS))
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        cmd = run_cli(argv)
        return Repeat([cmd], setup_s=cmd.seconds, loop_s=cmd.seconds)

    def check(self, rep: Repeat) -> None:
        """Record failures, and split the command's time into set-up and loop."""
        if not rep.check_exit_codes():
            return
        try:
            self._check(rep, rep.commands[0])
        except (OSError, ValueError, KeyError) as e:
            rep.fail(0, f"output unreadable: {e}")

    def _check(self, rep: Repeat, cmd: Command) -> None:
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if json.loads(cmd.stdout) != summary:
            rep.fail(0, "printed summary differs from summary.json")
        rep.loop_s = summary["wall_time_s"]
        rep.setup_s = cmd.seconds - rep.loop_s
        rep.outputs = {"steps_per_s": summary["steps_per_second"],
                       "mean_position_error_m": summary["mean_position_error"],
                       "mean_heading_error_deg": summary["mean_heading_error_deg"]}
        steps = self.cfg.traj_steps
        if summary["steps"] != steps:
            rep.fail(0, f"ran {summary['steps']} steps, expected {steps}")
        if not summary["mean_position_error"] < MAX_MEAN_POSITION_ERROR_M:
            rep.fail(0, f"mean position error {summary['mean_position_error']} m")
        if not summary["mean_heading_error_deg"] < MAX_MEAN_HEADING_ERROR_DEG:
            rep.fail(0, f"mean heading error {summary['mean_heading_error_deg']} deg")

        with open(os.path.join(self.out_dir, "steps.csv"), "rb") as fh:
            log = fh.read()
        rows = log.splitlines()
        if len(rows) != steps + 1 or not rows[0].startswith(b"t,"):
            rep.fail(0, f"steps.csv has {len(rows)} lines, expected {steps + 1}")
        sha = hashlib.sha256(log).hexdigest()
        if self.steps_sha is None:
            self.steps_sha = sha
        elif sha != self.steps_sha:
            rep.fail(0, "steps.csv differs from the first repeat at the same seed")

        if self.heatmap_every:
            self._check_heatmaps(rep, steps)

    def _check_heatmaps(self, rep: Repeat, steps: int) -> None:
        heat = os.path.join(self.out_dir, "heatmaps")
        g = self.grid
        header = f"P5\n{g.width} {g.height}\n65535\n".encode("ascii")
        expected = {f"field_{t:05d}.{ext}" for t in range(self.heatmap_every, steps + 1,
                                                          self.heatmap_every)
                    for ext in ("csv", "pgm")}
        if set(os.listdir(heat)) != expected:
            rep.fail(0, f"heatmap files {sorted(os.listdir(heat))[:4]}... != expected")
            return
        for name in sorted(expected):
            path = os.path.join(heat, name)
            if name.endswith(".pgm"):
                with open(path, "rb") as fh:
                    data = fh.read()
                if not data.startswith(header) or len(data) != len(header) + 2 * g.num_cells:
                    rep.fail(0, f"{name}: bad graymap")
            else:
                values = np.loadtxt(path, delimiter=",", skiprows=1)
                if values.shape != (g.num_cells, 3) or not (
                        np.all(values[:, 2] >= 0) and np.all(values[:, 2] <= 1)):
                    rep.fail(0, f"{name}: bad heatmap CSV")


# ---------------------------------------------------------------------------
# Retrieval workload: build-db, a closed loop of `query --db`, eval
# ---------------------------------------------------------------------------

QUERIES = 200
WARMUP_QUERIES = 20
TOP_K = 5


class Retrieval:
    """`build-db`, then QUERIES `query --db -k 5` commands at seeded in-map
    poses, then `eval --loss-surface` with the seed as its master seed."""

    min_repeats = 3
    expected_spans = (
        "cli", "world.cell_features", "descriptor.map_forward", "simulate.database_from_map",
        "mapgrid.local_to_geo", "retrieval.build_db", "retrieval.save", "retrieval.load",
        "world.synth_features", "descriptor.forward", "retrieval.query", "retrieval.entry",
        "losses.surface",
    )

    def __init__(self, name: str, seed: int, out_dir: str):
        from cvloc.config import ScenarioConfig
        from cvloc.descriptor import GROUND, forward
        from cvloc.motion import Pose
        from cvloc.simulate import (build_descriptor_map, build_pipeline, build_world,
                                    database_from_map)
        from cvloc.world import synth_features

        self.name = name
        self.seed = seed
        self.out_dir = _fresh_dir(out_dir)
        self.db_path = os.path.join(out_dir, "db.bin")
        self.loss_path = os.path.join(out_dir, "loss_surface.csv")
        self.eval_dir = os.path.join(out_dir, "eval")
        self.cfg = ScenarioConfig(master_seed=seed)
        self.cfg.validate()
        world = build_world(self.cfg)
        pipeline = build_pipeline(self.cfg)
        self.reference_db = database_from_map(build_descriptor_map(world, pipeline,
                                                                   self.cfg.world_seed))
        ex, ey = world.grid.extent
        rng = np.random.default_rng([seed, 1])
        self.poses = [(float(x), float(y), float(t)) for x, y, t in zip(
            rng.uniform(0.0, ex, QUERIES), rng.uniform(0.0, ey, QUERIES),
            rng.uniform(-math.pi, math.pi, QUERIES))]
        self.query_descs = np.stack([
            forward(pipeline, synth_features(world, Pose(*p), self.cfg.world_seed, view=GROUND)).values
            for p in self.poses])

    def sizes(self) -> dict:
        n, dim = self.reference_db.descriptors.shape
        return {
            "db_entries": n,
            "descriptor_dim": dim,
            "query_commands": QUERIES,
            "k": TOP_K,
            "eval_queries": self.cfg.eval_queries,
            "eval_top_k": self.cfg.eval_top_k,
            "computed_db_file_bytes": 8 + 16 + n * (24 + 4 * dim),
        }

    def run(self, run_cli, warmup: bool = False) -> Repeat:
        """One repeat; a warm-up repeat runs WARMUP_QUERIES queries and an
        eval over as many query poses."""
        eval_dir = _fresh_dir(self.eval_dir)
        poses = self.poses[:WARMUP_QUERIES] if warmup else self.poses
        extra = ["--set", f"eval_queries={WARMUP_QUERIES}"] if warmup else []
        build = run_cli(["build-db", "--out", self.db_path])
        queries = [run_cli(["query", "--db", self.db_path, "--pose", f"{x!r},{y!r},{t!r}",
                            "-k", str(TOP_K)]) for x, y, t in poses]
        ev = run_cli(["eval", "--out-dir", eval_dir, "--loss-surface", self.loss_path,
                      "--set", f"master_seed={self.seed}", *extra])
        rep = Repeat([build, *queries, ev], setup_s=build.seconds, loop_s=ev.seconds)
        rep.outputs = {"query_ms": [1e3 * q.seconds for q in queries]}
        return rep

    def check(self, rep: Repeat) -> None:
        if not rep.check_exit_codes():
            return
        last = len(rep.commands) - 1
        try:
            db = self._check_db(rep)
        except (OSError, ValueError) as e:
            rep.fail(0, f"database unreadable: {e}")
            return
        self._check_queries(rep, db)
        try:
            self._check_eval(rep, last)
        except (OSError, ValueError, KeyError, IndexError) as e:
            rep.fail(last, f"output unreadable: {e}")

    def _check_db(self, rep: Repeat):
        from cvloc.retrieval import load_db

        db = load_db(self.db_path)
        ref = self.reference_db
        for attr in ("ids", "geos", "descriptors"):
            a, b = getattr(db, attr), getattr(ref, attr)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                rep.fail(0, f"load_db(save_db(db)).{attr} != database_from_map")
        return db

    def _check_queries(self, rep: Repeat, db) -> None:
        """Each result against a brute-force full sort of the loaded database,
        ties broken by id."""
        descs = db.descriptors.astype(np.float64)
        for i, (q, cmd) in enumerate(zip(self.query_descs, rep.commands[1:-1]), start=1):
            diff = descs - q[None, :]
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((db.ids, dists))[:TOP_K]
            expected = ["rank,id,distance,lat,lon"] + [
                f"{r},{int(db.ids[i])},{dists[i]:.6f},{db.geos[i, 0]:.8f},{db.geos[i, 1]:.8f}"
                for r, i in enumerate(order, start=1)]
            if cmd.stdout.splitlines() != expected:
                rep.fail(i, f"pose {cmd.argv[4]} differs from the brute-force ranking")

    def _check_eval(self, rep: Repeat, index: int) -> None:
        printed = json.loads(rep.commands[index].stdout)
        if printed["database_size"] != len(self.reference_db):
            rep.fail(index, f"database_size {printed['database_size']}")
        curve = np.loadtxt(os.path.join(self.eval_dir, "recall_topk.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        ks, recall = curve[:, 0], curve[:, 1]
        if not np.array_equal(ks, np.arange(1, self.cfg.eval_top_k + 1)):
            rep.fail(index, "recall_topk.csv does not cover K = 1..eval_top_k")
        if np.any(np.diff(recall) < 0) or not (0 <= recall[0] and recall[-1] <= 1):
            rep.fail(index, "recall_top_k decreases in K or leaves [0, 1]")
        if recall[0] != printed["recall_top_1"]:
            rep.fail(index, "printed recall_top_1 differs from recall_topk.csv")
        thr = np.loadtxt(os.path.join(self.eval_dir, "recall_threshold.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
        if np.any(np.diff(thr[:, 1]) < 0):
            rep.fail(index, "recall vs distance decreases with the threshold")
        loss = np.loadtxt(self.loss_path, delimiter=",", skiprows=1, ndmin=2)
        if loss.shape != (121, 4) or not np.all(np.isfinite(loss)):
            rep.fail(index, f"loss surface has shape {loss.shape}")
        rep.outputs["recall_at_1"] = printed["recall_top_1"]


def make(name: str, seed: int, out_dir: str):
    if name == "fine-map":
        return Tracking(name, seed, out_dir, cell_interval=1.0, particles=1000, heatmap_every=0)
    if name == "many-particles":
        return Tracking(name, seed, out_dir, cell_interval=5.0, particles=100_000,
                        heatmap_every=50)
    if name == "retrieval":
        return Retrieval(name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fine-map", "many-particles", "retrieval")
