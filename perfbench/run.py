"""srptlab benchmark: one seeded workload per process, measured from outside.

    python3 perfbench/run.py --workload verify-mid --seed 1 --seconds 27 --trace 0

Runs from the root of a source checkout; srptlab is imported from `src/`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (setup_s, wall_s, op_p50_s, peak_rss_mb); with --trace 1
every public entry point is wrapped by a Tracer and the metrics are the
per-module self times and counts of tracing.LAYER_METRICS.

A run sets up SETUP_REPS times (setup_s is the median, plus the median time
to import srptlab in a fresh interpreter), then repeats whole rounds of the
workload's operations while the longest round so far still ends within
--seconds (at least one round), checking every output outside the timed
region. Every time is scaled to the
host's speed by the probe of hostspeed.py, timed before and after it. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
# Times the import first, so that nothing srptlab imports is loaded before
# it, then probes the host's speed twice.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "start = time.perf_counter(); import srptlab; took = time.perf_counter() - start; "
    "import hostspeed; print(took, hostspeed.probe(), hostspeed.probe())"
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children are the sweep's pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def import_seconds(src):
    """Median scaled time to import srptlab in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=120)
        took, before, after = map(float, proc.stdout.split())
        times.append(hostspeed.scale(took, before, after))
    return statistics.median(times)


def measure(wl, seconds, tracer, spans_path):
    from checks import CheckFailed
    from tracing import LAYER_METRICS, layer_metrics
    from workloads import FAILED

    problems = []
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPS):
        if tracer:
            tracer.reset()
        before = hostspeed.probe()
        start = time.perf_counter()
        wl.setup()
        took = time.perf_counter() - start
        setup_times.append(hostspeed.scale(took, before, hostspeed.probe()))
        if tracer:
            generate_times.append(layer_metrics(tracer)["workload.generate_s"])

    ops = wl.ops()
    round_walls, op_times, layers, probes = [], [], [], []
    attempted = failed = 0
    longest = 0.0  # the longest round so far, checks included
    began = time.perf_counter()
    while not round_walls or time.perf_counter() - began + longest <= seconds:
        round_began = time.perf_counter()
        if tracer:
            tracer.reset()
        wall = 0.0
        results = []
        before = hostspeed.probe()
        for op in ops:
            start = time.perf_counter()
            out = op.fn()
            elapsed = time.perf_counter() - start
            after = hostspeed.probe()
            probes.append(after)
            elapsed = hostspeed.scale(elapsed, before, after)
            before = after
            wall += elapsed
            attempted += 1
            if out is FAILED:
                failed += 1
            elif op.p50:
                op_times.append(elapsed)
            results.append((op, out))
        round_walls.append(wall)
        if tracer:
            layers.append(layer_metrics(tracer))
            tracer.write(spans_path, len(round_walls))
            tracer.reset()
        for op, out in results:
            if out is FAILED:
                continue
            try:
                wl.check(op, out)
            except CheckFailed as exc:
                problems.append("%s: %s" % (op.kind, exc))
        del results
        longest = max(longest, time.perf_counter() - round_began)

    if tracer:
        tracer.uninstall()
    try:
        wl.final_check()
    except CheckFailed as exc:
        problems.append("final: %s" % exc)

    peak_rss_mb = _peak_rss_mb()  # before the import probes start children
    if tracer:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            values = [layer[name] for layer in layers]
            value = statistics.median(values) if unit == "s" else statistics.median_low(values)
            metrics[name] = {"value": value, "unit": unit}
        metrics["workload.generate_s"]["value"] = statistics.median(generate_times)
        metrics["trace.round_wall_s"]["value"] = statistics.median(round_walls)
        metrics["host.probe_s"]["value"] = statistics.median(probes)
    else:
        metrics = {
            "setup_s": {"value": import_seconds(ROOT / "src") + statistics.median(setup_times),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for problem in problems[:10]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    print("perfbench: %d rounds, scaled round wall %s s, median probe %.5f s"
          % (len(round_walls), ["%.3f" % w for w in round_walls], statistics.median(probes)),
          file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "srptlab" / "__init__.py").is_file():
        print("perfbench: no srptlab sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    # Sweep workers leave one CPU to this process and the system: a pool on
    # every CPU of a small machine swings with outside load. Traced sweeps
    # stay serial so that every cell's spans are in this process.
    threads = 1 if args.trace else max(1, len(os.sched_getaffinity(0)) - 1)
    os.environ["SRPTLAB_THREADS"] = str(threads)

    workdir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    tracer = spans_path = None
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
        spans_path.write_text("round\tspan\tname\tparent\tstart\tend\n", encoding="utf-8")
        tracer = Tracer()
        tracer.install()
    try:
        result = measure(WORKLOADS[args.workload](args.seed, workdir), args.seconds, tracer, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
