"""The benchmark's traced run wraps srptlab functions at the names their
callers use; renaming one of them must fail here, not in the benchmark."""

import importlib
from pathlib import Path

import srptlab.cli
import srptlab.oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _wrapped_names():
    return (
        srptlab.cli.make_context,
        srptlab.cli._sweep_cell,
        srptlab.oracle.brute_force_opt,
    )


def test_install_and_uninstall_restore_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = _wrapped_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(_wrapped_names(), originals))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_wrapped_names(), originals))


def test_verify_metrics_are_counted(monkeypatch, tmp_path, capsys):
    # the per-layer figures the benchmark reports for a verify must not
    # fall to zero when a call site moves
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    instance = tmp_path / "e1.txt"
    instance.write_text("m 2\njob 0 0 3\njob 1 0 1\njob 2 1 1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert srptlab.cli.main(["verify", "--instance", str(instance), "--speed", "3/2", "--k", "1,2"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    # one validation for each of 5 traces: SRPT at 3/2, the oracle's at
    # k = 1 and 2, unit SRPT and FIFO; the tracer counts distinct trace
    # values, and on e1 FIFO's schedule equals the oracle's at both powers
    assert metrics["core.validate_calls"] == 5
    assert metrics["core.validate_distinct"] == 3
    assert metrics["analysis.state_calls"] > 0
    assert metrics["analysis.backlog_records"] > 0
