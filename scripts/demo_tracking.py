#!/usr/bin/env python3
"""Run the default 1 km loop scenario and print tracking accuracy.

Writes step logs, the summary, and periodic measurement heatmaps under
--out (default out-demo/). Compare against --flat to see how far dead
reckoning drifts without the descriptor measurement.
"""

import argparse

from cvloc.config import ScenarioConfig
from cvloc.simulate import run_simulation


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--particles", type=int, default=1000)
    ap.add_argument("--flat", action="store_true", help="uninformative world (dead reckoning)")
    ap.add_argument("--heatmap-every", type=int, default=50)
    ap.add_argument("--out", default="out-demo")
    args = ap.parse_args()

    cfg = ScenarioConfig(
        master_seed=args.seed,
        traj_steps=args.steps,
        particles=args.particles,
        world_kind="flat" if args.flat else "smooth",
        heatmap_every=args.heatmap_every,
        out_dir=args.out,
    )
    summary, records = run_simulation(cfg)
    degenerate_steps = sum(r.degenerate_flag for r in records)
    print(summary.to_json())
    print(f"degenerate measurement steps: {degenerate_steps}")
    print(f"logs written to {args.out}/")


if __name__ == "__main__":
    main()
