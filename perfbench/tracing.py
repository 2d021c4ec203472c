"""Spans around srptlab's public functions, recorded from outside the program.

A Tracer replaces each function at the name its callers look it up under
(for example `srptlab.cli.check_backlog_bound`, which cli imported from
analysis) with a wrapper that records one span: name, start, end and the
span that was open when it was called. Spans stay in memory until the
benchmark writes them out; `layer_metrics` turns one round of spans into
per-module self times and counts.

Tracing costs a few microseconds per call. That cost lands in the self time
of the wrapped function's caller, and it is why end-to-end figures come from
a separate run with no wrapper installed.
"""

from __future__ import annotations

import time
import weakref

# Per-module metrics, with the unit each is reported in. Every traced run
# prints all of them, so a module a workload does not use reads 0.
LAYER_METRICS = {
    "engine.simulate_s": "s",
    "engine.calls": "count",
    "engine.segments": "count",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.validate_distinct": "count",
    "formats.trace_json_s": "s",
    "formats.trace_bytes": "B",
    "oracle.brute_force_s": "s",
    "oracle.calls": "count",
    "oracle.distinct_inputs": "count",
    "analysis.make_context_s": "s",
    "analysis.contexts": "count",
    "analysis.state_s": "s",
    "analysis.state_calls": "count",
    "analysis.state_distinct": "count",
    "analysis.backlog_s": "s",
    "analysis.backlog_records": "count",
    "analysis.flow_walk_s": "s",
    "analysis.flow_walk_records": "count",
    "analysis.power_walk_s": "s",
    "analysis.power_walk_records": "count",
    "analysis.charge_s": "s",
    "analysis.charge_records": "count",
    "cli.verify_self_s": "s",
    "cli.sweep_cells": "count",
    "cli.sweep_rows": "count",
    "workload.generate_s": "s",
    "trace.round_wall_s": "s",
    "host.probe_s": "s",
}

# span name -> self-time metric it adds to
SELF_TIME = {
    "engine.simulate_policy": "engine.simulate_s",
    "engine.simulate_srpt": "engine.simulate_s",
    "core.validate_trace": "core.validate_s",
    "formats.trace_to_json": "formats.trace_json_s",
    "formats.dump_json": "formats.trace_json_s",
    "formats.trace_from_json": "formats.trace_json_s",
    "oracle.brute_force_opt": "oracle.brute_force_s",
    "analysis.make_context": "analysis.make_context_s",
    "analysis.PairContext.state": "analysis.state_s",
    "analysis.check_backlog_bound": "analysis.backlog_s",
    "analysis.check_flow_conditions": "analysis.flow_walk_s",
    "analysis.check_power_flow_conditions": "analysis.power_walk_s",
    "analysis.check_completion_charge": "analysis.charge_s",
    "workload.generate": "workload.generate_s",
}

RECORDS = {
    "analysis.check_backlog_bound": "analysis.backlog_records",
    "analysis.check_flow_conditions": "analysis.flow_walk_records",
    "analysis.check_power_flow_conditions": "analysis.power_walk_records",
    "analysis.check_completion_charge": "analysis.charge_records",
}


def _n_records(report):
    parts = getattr(report, "reports", None) or (report,)
    return sum(len(rep.records) for rep in parts)


class Tracer:
    """Span recorder. A span is a list [name, parent, start, end, info]."""

    def __init__(self):
        self.spans = []
        self.current = -1
        self._patched = []
        self._state_keys = set()
        # a serial number per context keeps state keys of different contexts
        # apart even after a context is freed and its id() reused
        self._serials = weakref.WeakKeyDictionary()
        self._contexts = 0

    def reset(self):
        self.spans = []
        self.current = -1
        self._state_keys = set()

    def wrap(self, owner, attr, name, info=None, before=None):
        """Replace owner.attr by a recording wrapper. `before(args)` runs ahead
        of the span; what `info(args, kwargs, result)` returns after it is
        kept with the span."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, tracer.current, time.perf_counter(), 0.0, None]
            tracer.current = len(tracer.spans)
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.current = rec[1]
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self):
        """Wrap every public entry point the workloads reach."""
        from srptlab import analysis, cli, core, engine, formats, oracle, workload

        segs = lambda a, k, r: len(r.segments)
        for owner in (engine, cli, oracle):
            for attr in ("simulate_policy", "simulate_srpt"):
                if hasattr(owner, attr):
                    self.wrap(owner, attr, "engine." + attr, segs)
        for owner in (core, analysis, cli):
            self.wrap(owner, "validate_trace", "core.validate_trace",
                      lambda a, k, r: a[0])
        for attr in ("trace_to_json", "trace_from_json"):
            self.wrap(formats, attr, "formats." + attr)
        self.wrap(formats, "dump_json", "formats.dump_json", lambda a, k, r: len(r))
        for owner in (oracle, cli):
            self.wrap(owner, "brute_force_opt", "oracle.brute_force_opt",
                      lambda a, k, r: (a[0], a[1] if len(a) > 1 else k.get("k", 1)))
        for owner in (analysis, cli):
            self.wrap(owner, "make_context", "analysis.make_context", self._number_context)
            for attr in ("check_backlog_bound", "check_flow_conditions",
                         "check_power_flow_conditions", "check_completion_charge"):
                self.wrap(owner, attr, "analysis." + attr, lambda a, k, r: _n_records(r))
        self.wrap(analysis.PairContext, "state", "analysis.PairContext.state",
                  before=self._state_key)
        self.wrap(cli, "main", "cli.main", lambda a, k, r: (a[0] or [None])[0])
        self.wrap(cli, "_sweep_cell", "cli.sweep_cell", lambda a, k, r: len(r[0]))
        for owner in (workload, cli):
            self.wrap(owner, "generate", "workload.generate")

    def _number_context(self, args, kwargs, ctx):
        self._contexts += 1
        self._serials[ctx] = self._contexts

    def _state_key(self, args):
        # keys are kept as hashes; a collision would undercount by one
        ctx, t, alive_alg, alive_ref = args
        serial = self._serials.get(ctx, id(ctx))
        self._state_keys.add(hash((serial, t, alive_alg, alive_ref)))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    @property
    def state_distinct(self) -> int:
        return len(self._state_keys)

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(spans, child)]

    def write(self, path, round_no):
        """Append the current spans as tab-separated lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for idx, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%d\t%.9f\t%.9f\n" % (round_no, idx, name, parent, start, end))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-module self times and counts of the spans recorded since reset()."""
    out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
    spans = tracer.spans
    selfs = tracer.self_times()
    traces, oracle_inputs = set(), set()
    for (name, parent, _, _, info), self_s in zip(spans, selfs):
        # info is None for a call that raised
        metric = SELF_TIME.get(name)
        if metric is not None:
            out[metric] += self_s
        if name.startswith("engine."):
            if parent < 0 or not spans[parent][0].startswith("engine."):
                out["engine.calls"] += 1
                out["engine.segments"] += info or 0
        elif name == "core.validate_trace":
            out["core.validate_calls"] += 1
            traces.add(info)
        elif name == "formats.dump_json":
            out["formats.trace_bytes"] += info
        elif name == "oracle.brute_force_opt":
            out["oracle.calls"] += 1
            oracle_inputs.add(info)
        elif name == "analysis.make_context":
            out["analysis.contexts"] += 1
        elif name == "analysis.PairContext.state":
            out["analysis.state_calls"] += 1
        elif name in RECORDS:
            out[RECORDS[name]] += info or 0
        elif name == "cli.main" and info == "verify":
            out["cli.verify_self_s"] += self_s
        elif name == "cli.sweep_cell":
            out["cli.sweep_cells"] += 1
            out["cli.sweep_rows"] += info or 0
    out["core.validate_distinct"] = len(traces)
    out["oracle.distinct_inputs"] = len(oracle_inputs)
    out["analysis.state_distinct"] = tracer.state_distinct
    return out
