#!/usr/bin/env python3
"""cvloc benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload fine-map --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
After an untimed, shortened warm-up repeat, the workload's command sequence
is repeated in a closed loop until ``--seconds`` have passed (and at least
three times). Every command's output is checked. The output is one JSON line
of details (environment, input sizes, the named per-workload figures, every
repeat's times) followed by the result line
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count CLI commands; a command fails on a nonzero exit code or a
failed output check.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
repeats:

- ``setup_s``: work before the measured loop. ``simulate``: command wall
  time minus the loop's ``wall_time_s`` from summary.json. ``retrieval``:
  the ``build-db`` command.
- ``run_s``: wall time of all of one repeat's commands.
- ``loop_s``: the measured loop. ``simulate``: the filter loop's
  ``wall_time_s`` (steps_per_s = steps / loop_s). ``retrieval``: ``eval``.
- ``peak_rss_mb``: the process's peak resident set size.

With ``--trace 1`` untraced and traced repeats alternate and the metrics are
the per-layer ones (see layers.py), from spans recorded by wrapping cvloc
functions at run time (see spans.py). Spans are written to
``.bench_out/<workload>/spans-seed<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import uuid

# BLAS and OpenMP pools are capped at the CPUs this process may run on; the
# cap has to be in place before numpy is first imported.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from layers import REPEAT_SPAN, UNITS, SpanTable, layer_metrics  # noqa: E402
from spans import Tracer, ancestors, installed  # noqa: E402
from workloads import PARTICLE_PATH, PROBES, WORKLOADS, make, run_cli  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "loop_s": "s", "peak_rss_mb": "MB"}
MIN_TRACED_PAIRS = 2


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, index, name), encoding="ascii") as fh:
                    fields[name] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def run_repeats(workload, seconds: float, tracer: Tracer | None):
    """A shortened warm-up repeat (exit codes checked, not timed), then a
    closed loop over the workload's command sequence. Without a tracer,
    repeats until ``seconds`` have passed and ``min_repeats`` are done; with
    one, untraced and traced repeats alternate, at least MIN_TRACED_PAIRS of
    each. Checks run after each repeat, outside any span."""
    warm = workload.run(run_cli, warmup=True)
    warm.check_exit_codes()
    untraced, traced, missing = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            with installed(tracer, PROBES) as missing, tracer.span(REPEAT_SPAN):
                rep = workload.run(run_cli)
            traced.append(rep)
        else:
            rep = workload.run(run_cli)
            untraced.append(rep)
        workload.check(rep)
        if time.perf_counter() < deadline:
            continue
        if tracer is None and len(untraced) >= workload.min_repeats:
            break
        if tracer is not None and len(traced) >= MIN_TRACED_PAIRS and len(traced) == len(untraced):
            break
    return warm, untraced, traced, missing


def named_figures(workload, reps: list) -> dict:
    """The per-workload figures a CLI user reads, from untraced repeats."""
    if workload.name == "retrieval":
        lat = [ms for r in reps for ms in r.outputs.get("query_ms", [])]
        return {"query_ms_p50": median(lat), "query_ms_p95": percentile(lat, 95),
                "query_samples": len(lat), "eval_s": median([r.loop_s for r in reps]),
                "build_db_s": median([r.setup_s for r in reps]),
                "recall_at_1": reps[0].outputs.get("recall_at_1")}
    return {"steps_per_s": median([r.outputs.get("steps_per_s", 0.0) for r in reps]),
            "mean_position_error_m": reps[0].outputs.get("mean_position_error_m"),
            "mean_heading_error_deg": reps[0].outputs.get("mean_heading_error_deg")}


def layer_report(workload, untraced: list, traced: list, tracer: Tracer,
                 missing: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics, plus each layer's share of the traced loop."""
    table = SpanTable(tracer.spans)
    metrics, absent, idle = layer_metrics(table, workload.expected_spans)
    metrics["trace.overhead_frac"] = (median([r.run_s for r in traced])
                                      / median([r.run_s for r in untraced]) - 1.0)
    first = traced[0].outputs
    metrics["output.mean_position_error_m"] = first.get("mean_position_error_m", 0.0)
    metrics["output.recall_at_1"] = first.get("recall_at_1", 0.0)

    loop = median([r.loop_s for r in traced])
    if workload.name == "retrieval":
        def in_eval(ix):
            return sum(table.self_s[i] for i in ix if any(
                a.name == "cli" and a.attrs["command"] == "eval"
                for a in ancestors(table.spans, i)))
        shares = {"retrieval.query_in_eval": table.per_repeat("retrieval.query", in_eval) / loop}
    else:
        shares = {"measurement.field": table.total_self_s("measurement.field") / loop,
                  "particle_path": sum(table.total_self_s(n) for n in PARTICLE_PATH) / loop,
                  "measurement.heatmap": table.total_self_s("measurement.heatmap") / loop}
    return metrics, {
        "run_id": tracer.run_id,
        "loop_shares_traced": shares,
        "absent": absent,
        "not_exercised": idle,
        "probes_not_installed": missing,
        "spans": len(tracer.spans),
        "self_s_per_repeat": {n: table.total_self_s(n) for n in sorted(table.by_name)},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cvloc", "cli.py")):
        print(f"error: no cvloc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cvloc

    if not os.path.abspath(cvloc.__file__).startswith(SRC + os.sep):
        print(f"error: imported cvloc from {cvloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = make(args.workload, args.seed, os.path.join(out_dir, "work"))
    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    warm, untraced, traced, missing = run_repeats(workload, args.seconds, tracer)
    reps = [warm] + untraced + traced
    attempted = sum(len(r.commands) for r in reps)
    failed = sum(len(r.failures) for r in reps)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "per_repeat": {kind: [{"setup_s": r.setup_s, "run_s": r.run_s, "loop_s": r.loop_s}
                              for r in group]
                       for kind, group in (("untraced", untraced), ("traced", traced))},
        "environment": environment(),
        "sizes": workload.sizes(),
        "figures": named_figures(workload, untraced),
        "failed_frac": failed / attempted,
        "failures": [f for r in reps for f in r.failures.values()][:10],
        "note": "computed sizes are array sizes, not measured traffic; no bandwidth claim",
    }
    if tracer is not None:
        values, layer_info = layer_report(workload, untraced, traced, tracer, missing)
        report.update(layer_info)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        tracer.write_jsonl(os.path.join(out_dir, f"spans-seed{args.seed}.jsonl"))
    else:
        values = {
            "setup_s": median([r.setup_s for r in untraced]),
            "run_s": median([r.run_s for r in untraced]),
            "loop_s": median([r.loop_s for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    with open(os.path.join(out_dir, f"report-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=2)
    report.pop("self_s_per_repeat", None)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
