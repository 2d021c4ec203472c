"""Command-line front end: simulate, verify, sweep, gen.

Exit codes are a stable contract: 0 success, 2 input error, 3 parameter
domain error, 4 verification or bound failure. All gating comparisons happen
on exact rationals; decimals appear only in rendered output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache

from .analysis import (
    MAX_POWER_EPS,
    REFERENCES,
    AnalysisError,
    objectives,
    report_to_json,
    theorem_factor,
    verify,
    verify_domain,
)
from .core import InstanceError, SpeedConfig, flow_power
from .engine import simulate_srpt
from .formats import (
    ParseError,
    dump_json,
    parse_instance,
    serialize_instance,
    trace_to_json,
)
from .oracle import OracleError, brute_force_opt
from .rationals import ONE, Rational, RationalParseError, decimal_str, is_int_text, rat
from .workload import FAMILIES, GenSpec, WorkloadError, generate, is_int, validate_spec

# perfbench's tracer wraps these names here, though cli no longer calls them
from .analysis import check_backlog_bound, check_completion_charge, make_context  # noqa: F401
from .analysis import check_flow_conditions, check_power_flow_conditions  # noqa: F401
from .core import validate_trace  # noqa: F401

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------
# shared argument handling

def _read_instance(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_INPUT, "cannot read instance: %s" % exc)
    try:
        return parse_instance(text)
    except (ParseError, InstanceError) as exc:
        raise CliError(EXIT_INPUT, "bad instance: %s" % exc)


def _speed_config(text: str) -> SpeedConfig:
    try:
        speed = rat(text)
    except RationalParseError as exc:
        raise CliError(EXIT_INPUT, "bad speed: %s" % exc)
    if speed <= 0:
        raise CliError(EXIT_DOMAIN, "speed must be positive")
    return SpeedConfig.from_speed(speed)


def _int_arg(text: str) -> int:
    """An integer option's value, read as instance files read integers
    (rationals.is_int_text): "1_0", "+2", " 2" and non-ASCII digits are
    refused, so argparse exits 2."""
    if not is_int_text(text):
        raise argparse.ArgumentTypeError("want an integer, got %r" % text)
    return int(text)


def _k_list(text: str):
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not all(is_int_text(tok) for tok in toks):
        raise CliError(EXIT_INPUT, "bad k list %r (want comma-separated integers)" % text)
    ks = sorted({int(tok) for tok in toks})
    if not ks or ks[0] < 1:
        raise CliError(EXIT_INPUT, "k values must be integers >= 1")
    return ks


def _ref_list(text: str):
    names = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in REFERENCES:
            raise CliError(
                EXIT_INPUT, "unknown reference %r (choose from %s)" % (tok, ", ".join(REFERENCES))
            )
        if tok not in names:
            names.append(tok)
    if not names:
        raise CliError(EXIT_INPUT, "empty reference list")
    return names


def _parse_span(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("want LO:HI, got %r" % text)
    if not all(is_int_text(part) for part in parts):
        raise argparse.ArgumentTypeError("want integer LO:HI, got %r" % text)
    return (int(parts[0]), int(parts[1]))


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_INPUT, "cannot write %s: %s" % (path, exc))


# --------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    instance = _read_instance(args.instance)
    speed = _speed_config(args.speed)
    trace = simulate_srpt(instance, speed)
    summary = objectives(trace, ks=(1, 2, 3))

    print(
        "instance %s: %d jobs on %d machines at speed %s"
        % (args.instance, instance.n, instance.machines, speed.speed)
    )
    rows = [("job", "release", "size", "completion", "flow")]
    for job in sorted(instance.jobs, key=lambda j: j.id):
        rows.append(
            (
                str(job.id),
                str(job.release),
                str(job.size),
                str(trace.completions[job.id]),
                str(summary.flows[job.id]),
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    for row in rows:
        print("  ".join(val.rjust(w) for val, w in zip(row, widths)))
    print("total flow: %s" % summary.total_flow)
    print(
        "k-th power flow: %s"
        % "  ".join("k=%d %s" % (k, summary.kth_power_flow[k]) for k in (1, 2, 3))
    )
    print(
        "flow norms: %s"
        % "  ".join("l%d=%s" % (k, summary.lk_norm[k]) for k in (1, 2, 3))
    )
    if args.out:
        _write_text(args.out, dump_json(trace_to_json(trace)))
        print("trace written to %s" % args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        machines=args.machines,
        size_range=args.size_range,
        release_range=args.release_range,
        seed=args.seed,
    )
    try:
        instance = generate(spec)
    except (WorkloadError, InstanceError) as exc:
        raise CliError(EXIT_INPUT, "cannot generate: %s" % exc)
    _write_text(args.out, serialize_instance(instance))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _note_json(check, params, n_events, verdict, notes):
    """A check document whose witnesses are notes, not check records: the
    trace audit's violations, or the reason a check was skipped."""
    return {
        "check": check,
        "params": {key: str(val) for key, val in params.items()},
        "n_events": n_events,
        "worst_slack": None,
        "verdict": verdict,
        "witnesses": [
            {"label": note, "time": None, "delta": "0", "bound": None} for note in notes
        ],
    }


def cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    speed = _speed_config(args.speed)
    ks = _k_list(args.k)
    refs = _ref_list(args.refs)
    verify_domain(speed.epsilon, ks, refs)  # a bad domain exits 3 before simulating
    trace = simulate_srpt(instance, speed)
    report = verify(trace, ks, refs)

    params = {"instance": args.instance, "speed": speed.speed, "eps": speed.epsilon}
    verdict = "fail" if report.violations else "pass"
    table = [("trace-feasibility", "-", "-", verdict, "-")]
    n_segments = len(trace.segments)
    docs = [_note_json("trace-feasibility", params, n_segments, verdict, report.violations)]
    for row in report.rows:
        ref = dict(params, reference=row.reference)
        klabel = ",".join(str(k) for k in row.ks) or "-"
        if row.skipped is not None:
            docs.append(_note_json(row.check, dict(ref, k=klabel), 0, "skipped", [row.skipped]))
        else:
            docs.extend(report_to_json(rep, dict(ref, k=k)) for rep, k in zip(row.reports, row.ks))
        slack = "-" if row.worst_slack is None else str(row.worst_slack)
        table_k = "-" if row.check == "backlog-bound" else klabel
        table.append((row.check, row.reference, table_k, row.verdict, slack))
    _emit_verify(args, table, docs, report)

    if report.violations:
        witnesses = ["witness: %s" % v for v in report.violations[:5]]
    else:
        witnesses = [
            "witness [%s]: %s (delta %s vs bound %s at t=%s)"
            % (rep.condition, rec.label, rec.delta, rec.bound, rec.time)
            for row in report.rows
            for rep in row.reports if not rep.verdict
            for rec in rep.failures
        ][:10]
    for line in witnesses:
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _emit_verify(args, table, docs, report):
    table = [("check", "reference", "k", "verdict", "worst-slack")] + table
    widths = [max(len(row[col]) for row in table) for col in range(5)]
    for row in table:
        print("  ".join(val.ljust(wid) for val, wid in zip(row, widths)).rstrip())
    if report.notice:
        print("note: %s" % report.notice)
    if not args.out:
        return
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance", "check", "eps", "k", "reference", "n_events", "worst_slack", "verdict"])
        for doc in docs:
            params = doc["params"]
            fields = (params.get("eps", ""), params.get("k", "-"), params.get("reference", "-"))
            slack = doc["worst_slack"] or ""  # None for a note document
            writer.writerow([args.instance, doc["check"], *fields, doc["n_events"], slack, doc["verdict"]])
        _write_text(args.out, buf.getvalue())
    else:
        doc = {
            "instance": args.instance,
            "speed": str(rat(args.speed)),
            "checks": docs,
            "verdict": "pass" if report.passed else "fail",
        }
        _write_text(args.out, dump_json(doc))
    print("report written to %s" % args.out)


# --------------------------------------------------------------------------
# sweep

def _positive_ints(value) -> bool:
    return isinstance(value, list) and bool(value) and all(is_int(x) and x >= 1 for x in value)


def _load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_INPUT, "cannot read manifest: %s" % exc)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, "bad manifest JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise CliError(EXIT_INPUT, "manifest must be a JSON object")

    out = {}
    fams = doc.get("families")
    if not isinstance(fams, list) or not all(isinstance(f, dict) for f in fams):
        raise CliError(EXIT_INPUT, "manifest: families must be a list of objects")
    for fam in fams:
        missing = {"family", "n", "size_range", "release_range"} - set(fam)
        if missing:
            raise CliError(
                EXIT_INPUT, "manifest: family entry missing %s" % ", ".join(sorted(missing))
            )
        spec = GenSpec(fam["family"], fam["n"], 1, fam["size_range"], fam["release_range"], 0)
        try:
            validate_spec(spec)
        except WorkloadError as exc:
            raise CliError(EXIT_INPUT, "manifest: %s" % exc)
    out["families"] = fams

    seeds = doc.get("seeds", 1)
    if is_int(seeds):
        if seeds < 0:
            raise CliError(EXIT_INPUT, "manifest: seeds count must be >= 0")
        out["seeds"] = list(range(seeds))
    elif isinstance(seeds, list) and all(is_int(s) for s in seeds):
        out["seeds"] = list(dict.fromkeys(seeds))
    else:
        raise CliError(EXIT_INPUT, "manifest: seeds must be a count or a list of integers")

    machines = doc.get("machines", [1])
    if not _positive_ints(machines):
        raise CliError(EXIT_INPUT, "manifest: machines must be a non-empty list of integers >= 1")
    out["machines"] = list(dict.fromkeys(machines))

    mode = doc.get("bound", "theorem")
    if mode not in ("theorem", "one-competitive"):
        raise CliError(EXIT_INPUT, "manifest: bound must be 'theorem' or 'one-competitive'")
    out["mode"] = mode

    ks = doc.get("k", [1])
    if not _positive_ints(ks):
        raise CliError(EXIT_INPUT, "manifest: k must be a non-empty list of integers >= 1")
    ks = sorted(set(ks))

    if mode == "one-competitive":
        if "eps" in doc:
            raise CliError(EXIT_INPUT, "manifest: eps grid is implied by one-competitive mode")
        if ks != [1]:
            raise CliError(EXIT_INPUT, "manifest: one-competitive mode checks k = 1 only")
        out["eps"] = [None]
    else:
        eps_list = doc.get("eps")
        if not (isinstance(eps_list, list) and eps_list):
            raise CliError(EXIT_INPUT, "manifest: eps must be a non-empty list of rational strings")
        parsed = []
        for text in eps_list:
            try:
                val = rat(str(text))
            except RationalParseError as exc:
                raise CliError(EXIT_INPUT, "manifest: bad eps %r: %s" % (text, exc))
            if val <= 0:
                raise CliError(EXIT_DOMAIN, "epsilon out of theorem range: eps %s <= 0" % val)
            if val > MAX_POWER_EPS and any(k > 1 for k in ks):
                raise CliError(
                    EXIT_DOMAIN,
                    "epsilon out of theorem range (k > 1 needs eps <= 1/2, got %s)" % val,
                )
            parsed.append(str(val))
        out["eps"] = list(dict.fromkeys(parsed))  # str(val) is canonical: 2/4 is 1/2
    out["k"] = ks
    return out


def _sweep_cell(payload):
    """Rows and skip notices of one (family, seed, m) over the whole eps grid:
    the optimum does not depend on eps, so each k is searched once."""
    fam, seed, m, eps_list, ks, mode = payload
    rows, notices = [], []
    spec = GenSpec(
        family=fam["family"],
        n=fam["n"],
        machines=m,
        size_range=tuple(fam["size_range"]),
        release_range=tuple(fam["release_range"]),
        seed=seed,
    )
    instance = generate(spec)
    m_used = instance.machines  # starvation-stream pins itself to one machine
    optima, skipped = {}, {}
    for k in ks:
        try:
            optima[k] = brute_force_opt(instance, k=k).objective
        except OracleError as exc:
            skipped[k] = "cell family=%s seed=%d m=%d k=%d skipped: %s" % (
                fam["family"], seed, m_used, k, exc
            )
    for eps_str in eps_list:
        if mode == "one-competitive":
            speed_val = 2 - Rational(1, m_used)
            eps = speed_val - 1
        else:
            eps = rat(eps_str)
            speed_val = 1 + eps
        if optima:  # no row needs the trace when the oracle refused every k
            trace = simulate_srpt(instance, SpeedConfig.from_speed(speed_val))
        for k in ks:
            if k in skipped:
                notices.append(skipped[k])
                continue
            opt = optima[k]
            srpt_obj = flow_power(trace, k)
            bound_rat = ONE if mode == "one-competitive" else theorem_factor(eps, k)
            within = srpt_obj <= bound_rat * opt
            # both objectives vanish only on the empty instance
            ratio = srpt_obj / opt if opt != 0 else ONE
            rows.append(
                {
                    "family": fam["family"],
                    "seed": str(seed),
                    "m": str(m_used),
                    "eps": str(eps),
                    "k": str(k),
                    "srpt_obj": str(srpt_obj),
                    "oracle_obj": str(opt),
                    "ratio": decimal_str(ratio),
                    "bound": decimal_str(bound_rat),
                    "within_bound": "true" if within else "false",
                    "_sort": (
                        fam["family"],
                        seed,
                        m_used,
                        (eps.numerator, eps.denominator),
                        k,
                    ),
                    "_ratio": ratio,
                    "_within": within,
                }
            )
    return rows, notices


CSV_COLUMNS = (
    "family",
    "seed",
    "m",
    "eps",
    "k",
    "srpt_obj",
    "oracle_obj",
    "ratio",
    "bound",
    "within_bound",
)


def _worker_count(n_cells: int) -> int:
    env = os.environ.get("SRPTLAB_THREADS", "")
    if env:
        if not is_int_text(env):
            raise CliError(EXIT_INPUT, "SRPTLAB_THREADS must be an integer, got %r" % env)
        cap = int(env)
        if cap < 1:
            raise CliError(EXIT_INPUT, "SRPTLAB_THREADS must be >= 1")
    else:
        cap = min(8, os.cpu_count() or 1)
    return max(1, min(cap, n_cells or 1))


def cmd_sweep(args) -> int:
    manifest = _load_manifest(args.manifest)
    payloads = [
        (fam, seed, m, manifest["eps"], manifest["k"], manifest["mode"])
        for fam in manifest["families"]
        for seed in manifest["seeds"]
        for m in manifest["machines"]
    ]
    workers = _worker_count(len(payloads))
    if workers > 1 and len(payloads) > 1:
        # a worker that is spawned, not forked, starts with the default limit
        with ProcessPoolExecutor(workers, initializer=_set_digit_limit, initargs=(0,)) as pool:
            results = list(pool.map(_sweep_cell, payloads, chunksize=4))
    else:
        results = [_sweep_cell(p) for p in payloads]

    rows = []
    notices = []
    for cell_rows, cell_notices in results:
        rows.extend(cell_rows)
        notices.extend(cell_notices)
    rows.sort(key=lambda r: r["_sort"])

    max_ratio = max((row["_ratio"] for row in rows), default=None)
    max_text = None if max_ratio is None else decimal_str(max_ratio)
    all_within = all(row["_within"] for row in rows)

    if args.format == "json":
        doc = {
            "rows": [{c: row[c] for c in CSV_COLUMNS} for row in rows],
            "max_ratio": max_text,
            "all_within_bound": all_within,
        }
        _write_text(args.out, dump_json(doc))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        _write_text(args.out, buf.getvalue())

    for note in notices:
        print(note, file=sys.stderr)
    print(
        "sweep: %d rows, %d cells skipped, max ratio %s, all within bound: %s"
        % (
            len(rows),
            len(notices),
            max_text or "-",
            "yes" if all_within else "NO",
        ),
        file=sys.stderr,
    )
    return EXIT_OK if all_within else EXIT_VERIFY


# --------------------------------------------------------------------------
# parser wiring

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="srptlab",
        description="Exact SRPT scheduling simulator and analysis verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run SRPT on an instance and print objectives")
    p_sim.add_argument("--instance", required=True, help="instance file path, or - for stdin")
    p_sim.add_argument("--speed", default="1", help="machine speed as a rational, e.g. 3/2")
    p_sim.add_argument("--out", help="write the execution trace as JSON to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the analysis checks against references")
    p_ver.add_argument("--instance", required=True, help="instance file path, or - for stdin")
    p_ver.add_argument("--speed", required=True, help="speed 1+eps as a rational > 1")
    p_ver.add_argument("--k", default="1", help="comma-separated objective powers, default 1")
    p_ver.add_argument(
        "--refs",
        default="oracle,unit-srpt,fifo",
        help="comma-separated references: oracle, unit-srpt, fifo",
    )
    p_ver.add_argument("--format", choices=("csv", "json"), default="json")
    p_ver.add_argument("--out", help="write the machine-readable report to this path")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a manifest of cells and emit ratio rows")
    p_sweep.add_argument("--manifest", required=True, help="JSON manifest path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="output path, default stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", required=True, type=_int_arg)
    p_gen.add_argument("--machines", type=_int_arg, default=1)
    p_gen.add_argument("--size-range", type=_parse_span, default=(1, 4), metavar="LO:HI")
    p_gen.add_argument("--release-range", type=_parse_span, default=(0, 8), metavar="LO:HI")
    p_gen.add_argument("--seed", type=_int_arg, default=0)
    p_gen.add_argument("--out", help="output path, default stdout")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def _set_digit_limit(digits: int) -> int:
    """Set CPython's limit on the digits of an int <-> str conversion (0: no
    limit) and return the old one. Interpreters before 3.10.7 have no limit:
    there it does nothing and returns 0."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    return old


def main(argv=None) -> int:
    """Run one command and return its exit code. Exact values can run past
    CPython's default 4300-digit limit (a power flow at a large k, say), so
    the run lifts it, and restores the caller's limit on return."""
    limit = _set_digit_limit(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except AnalysisError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        return EXIT_OK
    finally:
        _set_digit_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
