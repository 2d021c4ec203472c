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

from .analysis import (
    AnalysisError,
    check_backlog_bound,
    check_completion_charge,
    check_flow_conditions,
    check_power_flow_conditions,
    make_context,
    merge_reports,
    objectives,
    report_to_json,
    theorem_factor,
)
from .core import InstanceError, SpeedConfig, UNIT_SPEED, flow_power, validate_trace
from .engine import fifo_priority, simulate_policy, simulate_srpt
from .formats import (
    ParseError,
    dump_json,
    parse_instance,
    serialize_instance,
    trace_to_json,
)
from .oracle import OracleError, brute_force_opt
from .rationals import ONE, Rational, RationalParseError, decimal_str, rat
from .workload import FAMILIES, GenSpec, WorkloadError, generate, is_int, validate_spec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

REF_NAMES = ("oracle", "unit-srpt", "fifo")
HALF = Rational(1, 2)


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


def _k_list(text: str):
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        ks = sorted({int(tok) for tok in toks})
    except ValueError:
        raise CliError(EXIT_INPUT, "bad k list %r (want comma-separated integers)" % text)
    if not ks or ks[0] < 1:
        raise CliError(EXIT_INPUT, "k values must be integers >= 1")
    return ks


def _ref_list(text: str):
    names = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in REF_NAMES:
            raise CliError(
                EXIT_INPUT, "unknown reference %r (choose from %s)" % (tok, ", ".join(REF_NAMES))
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
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("want integer LO:HI, got %r" % text)
    return (lo, hi)


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

VERIFY_CHECKS = ("backlog-bound", "flow-potential", "power-flow-potential", "completion-charge")


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


def _reference_contexts(name, instance, trace, oracle_ks):
    """Contexts pairing `trace` with reference `name`, keyed by objective
    power: one context serves every power, except that the oracle's schedule
    depends on the power. Returns (contexts, None) or (None, skip reason)."""
    if name == "oracle":
        try:
            refs = {k: brute_force_opt(instance, k=k).trace for k in oracle_ks}
        except OracleError as exc:
            return None, "oracle skipped: %s" % exc
        return {k: make_context(trace, ref) for k, ref in refs.items()}, None
    if name == "unit-srpt":
        ref = simulate_srpt(instance, UNIT_SPEED)
    else:
        ref = simulate_policy(instance, UNIT_SPEED, priority=fifo_priority)
    return dict.fromkeys(oracle_ks, make_context(trace, ref)), None


def _check_report(check, ctx, k):
    """The report of one check under its own name; only a potential walk's
    four condition reports need merging for that."""
    if check == "backlog-bound":
        return check_backlog_bound(ctx)
    if check == "completion-charge":
        return check_completion_charge(ctx, k=k)
    if check == "flow-potential":
        walk = check_flow_conditions(ctx)
    else:
        walk = check_power_flow_conditions(ctx, k=k)
    return merge_reports(check, walk.reports)


def cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    speed = _speed_config(args.speed)
    ks = _k_list(args.k)
    refs = _ref_list(args.refs)
    eps = speed.epsilon

    if eps <= 0:
        raise CliError(
            EXIT_DOMAIN, "epsilon out of theorem range: verification needs speed > 1"
        )
    power_ks = list(ks)
    skip_notice = None
    if eps > HALF:
        if any(k > 1 for k in ks):
            raise CliError(
                EXIT_DOMAIN,
                "epsilon out of theorem range (k > 1 needs 0 < epsilon <= 1/2)",
            )
        power_ks = []
        skip_notice = (
            "epsilon > 1/2: power-flow-potential and completion-charge checks skipped"
        )

    trace = simulate_srpt(instance, speed)
    ok, violations = validate_trace(trace)
    base_params = {"instance": args.instance, "speed": speed.speed, "eps": eps}
    verdict = "pass" if ok else "fail"
    audit = _note_json(
        "trace-feasibility", base_params, len(trace.segments), verdict, violations
    )
    # each table row (check, reference, k, verdict, worst-slack) with the
    # documents it summarizes
    rows = [(("trace-feasibility", "-", "-", verdict, "-"), [audit])]

    if not ok:
        _emit_verify(args, rows, True, skip_notice)
        for v in violations[:5]:
            print("witness: %s" % v)
        return EXIT_VERIFY

    # the oracle's schedule depends on the objective power
    oracle_ks = sorted({1, *power_ks})
    for name in refs:
        params = dict(base_params, reference=name)
        contexts, skipped = _reference_contexts(name, instance, trace, oracle_ks)
        for check in VERIFY_CHECKS:
            check_ks = [1] if check in ("backlog-bound", "flow-potential") else power_ks
            klabel = ",".join(str(k) for k in check_ks) or "-"
            table_k = "-" if check == "backlog-bound" else klabel
            reason = skipped if check_ks else skip_notice
            if reason is not None:
                doc = _note_json(check, dict(params, k=klabel), 0, "skipped", [reason])
                rows.append(((check, name, table_k, "skipped", "-"), [doc]))
                continue
            reports = [_check_report(check, contexts[k], k) for k in check_ks]
            slacks = [rep.worst_slack for rep in reports if rep.worst_slack is not None]
            worst = str(min(slacks)) if slacks else "-"
            verdict = "pass" if all(rep.verdict for rep in reports) else "fail"
            docs = [report_to_json(rep, dict(params, k=k)) for rep, k in zip(reports, check_ks)]
            rows.append(((check, name, table_k, verdict, worst), docs))

    failed = any(row[3] == "fail" for row, _ in rows)
    _emit_verify(args, rows, failed, skip_notice)
    if not failed:
        return EXIT_OK
    witnesses = [
        (doc["check"], wit)
        for _, docs in rows
        for doc in docs
        if doc["verdict"] == "fail"
        for wit in doc["witnesses"]
    ]
    for check, wit in witnesses[:10]:
        print(
            "witness [%s]: %s (delta %s vs bound %s at t=%s)"
            % (check, wit["label"], wit["delta"], wit["bound"], wit["time"])
        )
    return EXIT_VERIFY


def _emit_verify(args, rows, failed, skip_notice):
    table = [("check", "reference", "k", "verdict", "worst-slack")]
    table.extend(row for row, _ in rows)
    widths = [max(len(row[col]) for row in table) for col in range(5)]
    for row in table:
        print("  ".join(val.ljust(wid) for val, wid in zip(row, widths)).rstrip())
    if skip_notice:
        print("note: %s" % skip_notice)
    if not args.out:
        return
    exports = [doc for _, docs in rows for doc in docs]
    if args.format == "csv":
        buf = ["instance,check,eps,k,reference,n_events,worst_slack,verdict"]
        for doc in exports:
            params = doc["params"]
            fields = (params.get("eps", ""), params.get("k", "-"), params.get("reference", "-"))
            slack = doc["worst_slack"] or ""  # None for a note document
            buf.append(",".join([args.instance, doc["check"], *fields, str(doc["n_events"]),
                                 slack, doc["verdict"]]))
        _write_text(args.out, "\n".join(buf) + "\n")
    else:
        doc = {
            "instance": args.instance,
            "speed": str(rat(args.speed)),
            "checks": exports,
            "verdict": "fail" if failed else "pass",
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
        out["seeds"] = seeds
    else:
        raise CliError(EXIT_INPUT, "manifest: seeds must be a count or a list of integers")

    machines = doc.get("machines", [1])
    if not _positive_ints(machines):
        raise CliError(EXIT_INPUT, "manifest: machines must be a non-empty list of integers >= 1")
    out["machines"] = machines

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
            if val > HALF and any(k > 1 for k in ks):
                raise CliError(
                    EXIT_DOMAIN,
                    "epsilon out of theorem range (k > 1 needs eps <= 1/2, got %s)" % val,
                )
            parsed.append(str(val))
        out["eps"] = parsed
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
        try:
            cap = int(env)
        except ValueError:
            raise CliError(EXIT_INPUT, "SRPTLAB_THREADS must be an integer, got %r" % env)
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
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

def _build_parser() -> argparse.ArgumentParser:
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
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--machines", type=int, default=1)
    p_gen.add_argument("--size-range", type=_parse_span, default=(1, 4), metavar="LO:HI")
    p_gen.add_argument("--release-range", type=_parse_span, default=(0, 8), metavar="LO:HI")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path, default stdout")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except AnalysisError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
