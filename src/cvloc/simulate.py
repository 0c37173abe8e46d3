"""Scenario-driven simulation: replay a trajectory through the full
localization loop, log per-step estimates, and compute summary metrics.

Everything downstream of the scenario config is deterministic in the
master seed: the filter noise, the simulated odometry corruption, and the
world realisation, so two runs of the same scenario produce byte-identical
step logs.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .config import ConfigError, ScenarioConfig, make_output_dir, read_lines, write_lines
from .descriptor import (
    GROUND,
    GlobalDescriptor,
    Pipeline,
    forward,
    forward_sets,
    load_pipeline,
    random_dual_pipeline,
    random_shared_pipeline,
)
from .mapgrid import GridMap, LocalPoint, local_to_geo, nearest_cells, tessellate
from .measurement import location_probabilities, emit_heatmap
from .motion import MotionNoise, Pose, wrap_angles
from .pfilter import init_particles, localize_step
from .retrieval import DescriptorDatabase, build_db, rank_table, recall_in_table, threshold_recall, top_percent_k
from .world import (AliasRegion, Corridor, SyntheticWorld, pose_features, sets_per_block, synth_features,
                    tiled_descriptor_map)
from .world import build_descriptor_map  # noqa: F401  (the whole map at once; callers import it from here)


def position_error(est: Pose, gt: Pose) -> float:
    """Euclidean distance between estimated and true position, metres."""
    return math.hypot(est.x - gt.x, est.y - gt.y)


def heading_error(est_theta: float, gt_theta: float) -> float:
    """Signed angle from the true heading vector to the estimated one.

    Computed as atan2 of the cross and dot products of the two heading
    unit vectors, so the result lives in (-pi, pi] with no wrap-around.
    """
    cross = math.cos(gt_theta) * math.sin(est_theta) - math.sin(gt_theta) * math.cos(est_theta)
    dot = math.cos(gt_theta) * math.cos(est_theta) + math.sin(gt_theta) * math.sin(est_theta)
    return math.atan2(cross, dot)


@dataclass
class StepRecord:
    t: int
    est_x: float
    est_y: float
    est_theta: float
    gt_x: float
    gt_y: float
    gt_theta: float
    err_pos: float
    err_theta: float
    ess: float
    degenerate_flag: int

    def csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, f.name)) for f in fields(self))

    def json_line(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)})


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(v, ".17g")


@dataclass
class RunSummary:
    mean_position_error: float
    median_position_error: float
    max_position_error: float
    mean_heading_error_deg: float
    steps: int
    wall_time_s: float
    steps_per_second: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------


def build_grid(cfg: ScenarioConfig) -> GridMap:
    return tessellate(cfg.geo_bounds(), cfg.cell_interval)


def build_world(cfg: ScenarioConfig) -> SyntheticWorld:
    grid = build_grid(cfg)
    ex, ey = grid.extent
    corridor = None
    if cfg.corridor:
        corridor = Corridor(ex / 2, ey / 2, _loop_radius(cfg), cfg.corridor_width, cfg.corridor_gain)
    aliases = tuple(AliasRegion(*vals) for vals in cfg.parsed_aliases())
    return SyntheticWorld(
        grid=grid,
        n_features=cfg.world_features,
        feature_dim=cfg.world_feature_dim,
        length_scale=cfg.world_length_scale,
        view_noise=cfg.world_view_noise,
        flat=cfg.world_kind == "flat",
        corridor=corridor,
        aliases=aliases,
    )


def build_pipeline(cfg: ScenarioConfig) -> Pipeline:
    if cfg.params_file:
        return load_pipeline(cfg.params_file)
    # Both views share one parameter set, standing in for a trained,
    # aligned pair of branches.
    common = dict(dim=cfg.world_feature_dim, clusters=cfg.clusters, reduced_dim=cfg.reduced_dim,
                  normalize_output=cfg.normalize_descriptors, tie_views=True)
    if cfg.pipeline_variant == "dual":
        return random_dual_pipeline(cfg.params_seed, **common)
    return random_shared_pipeline(cfg.params_seed, hidden_dim=cfg.hidden_dim, **common)


@dataclass(frozen=True)
class Scenario:
    """A config's world and descriptor pipeline: the inputs shared by the
    satellite descriptor map and every ground view matched against it."""

    cfg: ScenarioConfig
    world: SyntheticWorld
    pipeline: Pipeline

    @cached_property
    def tiled_map(self) -> GridMap:
        """The satellite descriptor map, built tile by tile as its cells are
        read (``GridMap.built_descriptors``, ``world.MapTiles``)."""
        return tiled_descriptor_map(self.world, self.pipeline, self.cfg.world_seed)

    @property
    def db_map(self) -> GridMap:
        """The satellite descriptor map with every cell built, on first use."""
        self.tiled_map.built_descriptors()
        return self.tiled_map

    def ground_view(self, pose: Pose) -> GlobalDescriptor:
        """The ground-view descriptor at ``pose``."""
        return forward(self.pipeline, synth_features(self.world, pose, self.cfg.world_seed, view=GROUND))

    def ground_views(self, poses: np.ndarray) -> np.ndarray:
        """(P, R) ground-view descriptors at (P, 3) poses, each row bit for bit
        ``ground_view(Pose(*row))``, computed in blocks of ``sets_per_block``
        sets so that memory does not grow with P beyond the output."""
        poses = np.asarray(poses, dtype=np.float64).reshape(-1, 3)
        step = sets_per_block(self.world)
        out = np.empty((len(poses), self.pipeline.ground.reduction.out_dim))
        for i in range(0, len(poses), step):
            block = poses[i : i + step].copy()
            block[:, 2] = wrap_angles(block[:, 2])  # the heading a Pose holds
            feats = pose_features(self.world, block, self.cfg.world_seed, GROUND)
            out[i : i + step] = forward_sets(self.pipeline, feats, GROUND)
        return out


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    cfg.validate()
    return Scenario(cfg, build_world(cfg), build_pipeline(cfg))


def filter_noise(cfg: ScenarioConfig) -> MotionNoise:
    return MotionNoise(
        cfg.sigma_trans, math.radians(cfg.sigma_rot_deg), cfg.sigma_trans_rate, cfg.sigma_rot_rate
    )


def sensor_noise(cfg: ScenarioConfig) -> MotionNoise:
    return MotionNoise(
        cfg.odom_sigma_trans,
        math.radians(cfg.odom_sigma_rot_deg),
        cfg.odom_sigma_trans_rate,
        cfg.odom_sigma_rot_rate,
    )


def _loop_radius(cfg: ScenarioConfig) -> float:
    return cfg.traj_length / (2.0 * math.pi)


def generate_trajectory(cfg: ScenarioConfig, grid: GridMap) -> list[Pose]:
    """Ground-truth poses (traj_steps + 1 of them) in local metres.

    ``loop`` follows a circle of circumference traj_length around the map
    centre, heading tangent; ``line`` runs east through the centre.
    """
    ex, ey = grid.extent
    cx, cy = ex / 2.0, ey / 2.0
    n = cfg.traj_steps
    poses = []
    if cfg.traj_kind == "loop":
        r = _loop_radius(cfg)
        for t in range(n + 1):
            phi = 2.0 * math.pi * t / n
            poses.append(Pose(cx + r * math.cos(phi), cy + r * math.sin(phi), phi + math.pi / 2.0))
    else:
        step = cfg.traj_length / n
        x0 = cx - cfg.traj_length / 2.0
        for t in range(n + 1):
            poses.append(Pose(x0 + t * step, cy, 0.0))
    return poses


def load_trajectory(path: str) -> list[Pose]:
    """CSV trajectory with header t,x,y,theta and t finite and increasing; an error names its ``path:line``."""
    lines = read_lines(path)
    source, header = next(lines, (path, ""))
    if header != "t,x,y,theta":
        raise ValueError(f"{source}: expected header 't,x,y,theta', got {header!r}")
    poses, last = [], -math.inf
    for source, line in lines:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{source}: expected 4 columns")
        try:
            t, *pose = map(float, parts)
            if not math.isfinite(t):
                raise ValueError(f"non-finite time {t}")
            if t <= last:
                raise ValueError(f"time {t} does not follow the row before's {last}")
            poses.append(Pose(*pose))
        except ValueError as e:  # a value that is not a number, not finite, or a time out of order
            raise ValueError(f"{source}: {e}") from None
        last = t
    if len(poses) < 2:
        raise ValueError(f"{path}: trajectory needs at least 2 poses")
    return poses


def scenario_trajectory(cfg: ScenarioConfig, grid: GridMap) -> list[Pose]:
    """The loaded or generated ground truth; every pose must lie on the map."""
    if cfg.trajectory_file:
        poses = load_trajectory(cfg.trajectory_file)
    else:
        poses = generate_trajectory(cfg, grid)
    for t, p in enumerate(poses):
        if not grid.contains(LocalPoint(p.x, p.y)):
            raise ValueError(
                f"trajectory pose {t} at ({p.x:.1f}, {p.y:.1f}) is off the map "
                f"(0..{grid.extent[0]:.1f}, 0..{grid.extent[1]:.1f}); "
                "enlarge the bounds or shorten the trajectory"
            )
    return poses


# ---------------------------------------------------------------------------
# The simulation loop
# ---------------------------------------------------------------------------


def run_simulation(cfg: ScenarioConfig, out_dir: str | None = None) -> tuple[RunSummary, list[StepRecord]]:
    """Replay the scenario through the full localization loop.

    Returns the summary plus per-step records; when ``out_dir`` (or
    cfg.out_dir) is set, writes the step log, the summary JSON, and any
    requested heatmaps there.
    """
    scenario = build_scenario(cfg)
    poses = scenario_trajectory(cfg, scenario.world.grid)
    target = out_dir if out_dir is not None else (cfg.out_dir or None)
    heatmaps = bool(target) and cfg.heatmap_every > 0
    db_map = scenario.tiled_map
    # built before the clock starts, so that wall_time_s is the loop alone: the whole map when
    # heatmaps read it, else the route's corridor, which holds the cells a step near the route reads
    if heatmaps:
        db_map.built_descriptors()
    else:
        db_map.tiles.build_route([p.x for p in poses], [p.y for p in poses])

    master = np.random.SeedSequence(cfg.master_seed)
    filter_ss, sensor_ss = master.spawn(2)
    filter_rng = np.random.Generator(np.random.Philox(filter_ss))
    sensor_rng = np.random.Generator(np.random.Philox(sensor_ss))

    noise = filter_noise(cfg)
    odo_noise = sensor_noise(cfg)
    spread = MotionNoise(cfg.init_spread_xy, math.radians(cfg.init_spread_theta_deg), 0.0, 0.0)
    pset = init_particles(poses[0], spread, cfg.particles, filter_rng)
    est_heading = poses[0].theta

    heat_dir = None
    if target:
        make_output_dir(target)
        if heatmaps:
            heat_dir = os.path.join(target, "heatmaps")
            make_output_dir(heat_dir)

    ess_gate = cfg.ess_threshold if cfg.ess_threshold > 0 else None
    records: list[StepRecord] = []
    t0 = time.perf_counter()
    for t in range(1, len(poses)):
        gt_prev, gt = poses[t - 1], poses[t]
        with np.errstate(over="ignore", invalid="ignore"):  # location_probabilities rejects a non-finite view
            field = location_probabilities(db_map, scenario.ground_view(gt), floor=cfg.probability_floor)

        est, pset = localize_step(
            field, gt_prev, gt, pset, noise, filter_rng,
            sensor_noise=odo_noise, sensor_rng=sensor_rng,
            mode=cfg.measurement_mode, prev_heading=est_heading,
            ess_threshold=ess_gate,
        )
        est_heading = est.theta

        records.append(
            StepRecord(
                t=t,
                est_x=est.x, est_y=est.y, est_theta=est.theta,
                gt_x=gt.x, gt_y=gt.y, gt_theta=gt.theta,
                err_pos=position_error(est, gt),
                err_theta=heading_error(est.theta, gt.theta),
                ess=pset.ess,
                degenerate_flag=int(pset.degenerate),
            )
        )
        if heat_dir and t % cfg.heatmap_every == 0:
            stem = os.path.join(heat_dir, f"field_{t:05d}")
            emit_heatmap(field, cfg.heatmap_contrast, csv_path=stem + ".csv", pgm_path=stem + ".pgm")
    wall = time.perf_counter() - t0

    errs = np.array([r.err_pos for r in records])
    headings = np.array([abs(r.err_theta) for r in records])
    summary = RunSummary(
        mean_position_error=float(errs.mean()),
        median_position_error=float(np.median(errs)),
        max_position_error=float(errs.max()),
        mean_heading_error_deg=float(np.degrees(headings.mean())),
        steps=len(records),
        wall_time_s=wall,
        steps_per_second=len(records) / wall if wall > 0 else float("inf"),
    )

    if target:
        write_step_log(records, os.path.join(target, f"steps.{cfg.log_format}"), cfg.log_format)
        write_lines(os.path.join(target, "summary.json"), [summary.to_json()])
    return summary, records


def write_step_log(records: list[StepRecord], path: str, log_format: str = "csv") -> None:
    if log_format == "csv":
        write_lines(path, [",".join(f.name for f in fields(StepRecord)), *(r.csv_row() for r in records)])
    else:
        write_lines(path, [r.json_line() for r in records])


# ---------------------------------------------------------------------------
# Retrieval evaluation
# ---------------------------------------------------------------------------


def database_from_map(db_map: GridMap) -> DescriptorDatabase:
    """One database entry per cell: id = cell index, geo = cell location."""
    if db_map.descriptors is None:
        raise ValueError("map has no descriptors")
    descriptors = db_map.built_descriptors()
    locs = db_map.locations()
    lat, lon = local_to_geo(db_map, LocalPoint(locs[:, 0], locs[:, 1]))
    return build_db(zip(range(db_map.num_cells), zip(lat, lon), descriptors))


def eval_retrieval(cfg: ScenarioConfig) -> dict:
    """Retrieval metrics on the scenario world.

    Queries are ground-view descriptors at seeded random in-map poses; the
    true match is the nearest cell. Emits the recall@K curve, the
    distance-threshold recall curve, and recall at the configured top
    percent, as plot-ready CSVs in cfg.out_dir when it is set.
    """
    scenario = build_scenario(cfg)
    grid = scenario.world.grid
    db = database_from_map(scenario.db_map)
    if cfg.eval_top_k > len(db):
        raise ConfigError(f"eval_top_k={cfg.eval_top_k} exceeds the database size {len(db)}")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.master_seed, spawn_key=(99,))))
    ex, ey = grid.extent
    poses = rng.uniform((0.0, 0.0, -math.pi), (ex, ey, math.pi), (cfg.eval_queries, 3))
    descs = scenario.ground_views(poses)
    true_ids = nearest_cells(grid, poses[:, 0], poses[:, 1])
    true_geos = np.column_stack(local_to_geo(grid, LocalPoint(poses[:, 0], poses[:, 1])))

    percent_k = top_percent_k(len(db), cfg.eval_percent)
    table = rank_table(db, descs, max(cfg.eval_top_k, percent_k))
    topk_curve = [(k, recall_in_table(table, true_ids, k)) for k in range(1, cfg.eval_top_k + 1)]
    top_percent = recall_in_table(table, true_ids, percent_k)
    threshold_curve = threshold_recall(db, table[:, 0], true_geos, cfg.parsed_thresholds())

    result = {
        "database_size": len(db),
        "queries": cfg.eval_queries,
        "recall_top_k": topk_curve,
        "recall_top_percent": {"percent": cfg.eval_percent, "recall": top_percent},
        "recall_vs_distance": threshold_curve,
    }
    if cfg.out_dir:
        make_output_dir(cfg.out_dir)
        outputs = {
            "recall_topk.csv": ["k,recall"] + [f"{k},{_fmt(r)}" for k, r in topk_curve],
            "recall_threshold.csv": ["threshold_m,recall"] + [f"{_fmt(t)},{_fmt(r)}" for t, r in threshold_curve],
            "recall_percent.csv": ["percent,recall", f"{_fmt(cfg.eval_percent)},{_fmt(top_percent)}"],
            "retrieval_summary.json": [json.dumps(result, indent=2)],
        }
        for name, lines in outputs.items():
            write_lines(os.path.join(cfg.out_dir, name), lines)
    return result


def dump_loss_surface(path: str, alpha: float = 10.0) -> None:
    """Loss-vs-distance-gap CSV for the triplet loss family: 121 gaps
    d = d_pos − d_neg from −3 to 3, and at each the max-margin loss
    max(0, 1 + d), the soft margin and the weighted soft margin, each
    column one array call."""
    from .losses import _soft_margin

    if not alpha > 0:
        raise ValueError("alpha must be positive")
    d = np.linspace(-3.0, 3.0, 121)
    columns = (d, np.maximum(1.0 + d, 0.0), _soft_margin(d, 1.0)[0], _soft_margin(d, alpha)[0])
    rows = zip(*(c.tolist() for c in columns))
    write_lines(path, ["d,max_margin,soft_margin,weighted", *(",".join(map(_fmt, row)) for row in rows)])
