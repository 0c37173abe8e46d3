"""Tracing must not change the program: a traced `simulate` writes the same
steps.csv, byte for byte, as an untraced one at the same seed."""

from spans import Tracer, installed
from layers import REPEAT_SPAN
from workloads import PROBES, TRACKING_SPANS, Tracking, run_cli


def _steps(out_dir):
    with open(out_dir / "steps.csv", "rb") as fh:
        return fh.read()


def test_traced_steps_csv_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    workload = Tracking("small", 3, str(out), cell_interval=5.0, particles=300, heatmap_every=0)

    plain = workload.run(run_cli)
    workload.check(plain)
    untraced_bytes = _steps(out)

    tracer = Tracer("identity")
    with installed(tracer, PROBES) as missing, tracer.span(REPEAT_SPAN):
        traced = workload.run(run_cli)
    workload.check(traced)

    assert missing == []
    assert plain.failures == {} and traced.failures == {}
    assert _steps(out) == untraced_bytes
    assert set(TRACKING_SPANS) <= {s.name for s in tracer.spans}
