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
