"""Command-line front end.

Subcommands: build-db, query, localize, simulate, eval. Every scenario key
can be overridden with ``--set key=value``; see config.py for the schema.
Exit codes: 0 success, 2 configuration/input errors, 1 unexpected failure. A
command that fails removes the output files, and the then empty directories,
that it created.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import CREATED_OUTPUTS, ConfigError, ScenarioConfig, load_config
from .mapgrid import OutOfMapError, local_to_geo
from .measurement import emit_heatmap, location_probabilities, measurement_probability
from .motion import Pose
from .retrieval import load_db, query as db_query, save_db
from .simulate import build_scenario, database_from_map, dump_loss_surface, eval_retrieval, run_simulation


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario config file (key = value lines)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=None,  # a list default would be one object shared by every parse
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable)",
    )
    p.add_argument("--out-dir", help="output directory (overrides out_dir)")


def _scenario(args) -> ScenarioConfig:
    entries = list(args.overrides or ())  # the flags come last: they win over --set
    if args.out_dir:
        entries.append(f"out_dir={args.out_dir}")
    if getattr(args, "heatmap_every", None) is not None:  # simulate's flag
        entries.append(f"heatmap_every={args.heatmap_every}")
    return load_config(args.config or None, entries)


def _parse_pose(text: str) -> Pose:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--pose expects 'x,y,theta', got {text!r}")
    return Pose(float(parts[0]), float(parts[1]), float(parts[2]))


def cmd_build_db(args) -> int:
    db = database_from_map(build_scenario(_scenario(args)).db_map)
    save_db(db, args.out)
    print(f"wrote {len(db)} descriptors of dimension {db.dimension} to {args.out}")
    return 0


def cmd_query(args) -> int:
    scenario = build_scenario(_scenario(args))
    db = load_db(args.db) if args.db else database_from_map(scenario.db_map)
    result = db_query(db, scenario.ground_view(_parse_pose(args.pose)).values, args.k)
    print("rank,id,distance,lat,lon")
    for rank, (id_, dist) in enumerate(zip(result.ids, result.distances), start=1):
        (lat, lon), _ = db.entry(int(id_))
        print(f"{rank},{int(id_)},{dist:.6f},{lat:.8f},{lon:.8f}")
    return 0


def cmd_localize(args) -> int:
    cfg = _scenario(args)
    scenario = build_scenario(cfg)
    db_map = scenario.db_map
    pose = _parse_pose(args.pose)
    field = location_probabilities(db_map, scenario.ground_view(pose), floor=cfg.probability_floor)
    if args.heatmap_csv or args.heatmap_pgm:
        emit_heatmap(field, cfg.heatmap_contrast, csv_path=args.heatmap_csv, pgm_path=args.heatmap_pgm)
    best = int(np.argmax(field.probabilities))
    loc = db_map.cell_location(best)
    lat, lon = local_to_geo(db_map, loc)
    prob = measurement_probability(field, pose, cfg.measurement_mode)
    print(json.dumps({
        "query_pose": {"x": pose.x, "y": pose.y, "theta": pose.theta},
        "best_cell": {"index": best, "x": loc.x, "y": loc.y, "lat": lat, "lon": lon,
                      "probability": float(field.probabilities[best])},
        "measurement_probability_at_query": prob,
        "mode": cfg.measurement_mode,
    }, indent=2))
    return 0


def cmd_simulate(args) -> int:
    summary, _ = run_simulation(_scenario(args))
    print(summary.to_json())
    return 0


def cmd_eval(args) -> int:
    cfg = _scenario(args)
    result = eval_retrieval(cfg)
    if args.loss_surface:
        dump_loss_surface(args.loss_surface, alpha=cfg.loss_alpha)
    print(json.dumps({
        "database_size": result["database_size"],
        "recall_top_percent": result["recall_top_percent"],
        "recall_top_1": result["recall_top_k"][0][1],
    }, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it depends on no
    input, so callers that run :func:`main` many times in one process do
    not rebuild its six parsers on every command. Parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="cvloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-db", help="build and save the satellite descriptor database")
    _add_common(p)
    p.add_argument("--out", required=True, help="database file to write")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("query", help="k nearest database entries for a ground view at a pose")
    _add_common(p)
    p.add_argument("--db", help="database file (built on the fly when omitted)")
    p.add_argument("--pose", required=True, help="query pose 'x,y,theta' in local metres/radians")
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("localize", help="single-frame measurement field for a pose")
    _add_common(p)
    p.add_argument("--pose", required=True, help="query pose 'x,y,theta'")
    p.add_argument("--heatmap-csv", help="write the field as CSV")
    p.add_argument("--heatmap-pgm", help="write the field as a 16-bit graymap")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("simulate", help="run the full tracking loop over the scenario trajectory")
    _add_common(p)
    p.add_argument("--heatmap-every", type=int, metavar="N",
                   help="emit the measurement field every N steps (0 disables)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="retrieval metrics and loss-surface dumps")
    _add_common(p)
    p.add_argument("--loss-surface", help="also write a loss-vs-distance CSV here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    CREATED_OUTPUTS.clear()
    try:
        return args.func(args)
    except (ConfigError, OutOfMapError) as e:
        message, code = f"error[config]: {e}", 2
    except (OSError, ValueError, MemoryError) as e:  # MemoryError: a size the input asks for
        message, code = f"error[input]: {e}", 2
    except Exception as e:  # pragma: no cover - last-resort reporting
        message, code = f"error[internal]: {e}", 1
    for path in reversed(CREATED_OUTPUTS):  # a failed command leaves nothing it created
        if os.path.isfile(path):
            os.remove(path)
        elif os.path.isdir(path) and not os.listdir(path):
            os.rmdir(path)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
