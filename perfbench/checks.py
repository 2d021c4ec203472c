"""Output checks computed apart from the code they check.

Each checker takes plain data (a trace's segments, a report's JSON, a sweep
CSV) and either returns or raises CheckFailed. They use only the standard
library: exact arithmetic is `fractions.Fraction`, and the two unit-speed
schedules the oracle is compared with are simulated here slot by slot.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# traces

def replay_trace(jobs, machines, speed, segments, completions):
    """One pass over a trace's segments.

    jobs: {id: (release, size)}; segments: [(start, end, assignment)] with
    assignment a tuple of job ids or None per machine; completions: {id: time}.
    Checks that the segments tile [0, max completion], that no job runs on two
    machines at once, that each job runs only within [release, completion],
    that served time x speed equals each size exactly, and that each job's
    last service ends at its completion.
    """
    require(set(completions) == set(jobs), "completions do not cover the jobs")
    served = {jid: Fraction(0) for jid in jobs}
    last_end = {}
    cursor = Fraction(0)
    for idx, (start, end, assignment) in enumerate(segments):
        require(start == cursor, "segment %d starts at %s, not %s" % (idx, start, cursor))
        require(start < end, "segment %d is empty or reversed" % idx)
        require(len(assignment) == machines, "segment %d has %d slots" % (idx, len(assignment)))
        busy = [jid for jid in assignment if jid is not None]
        require(len(set(busy)) == len(busy), "segment %d runs a job twice" % idx)
        for jid in busy:
            require(jid in jobs, "segment %d runs unknown job %s" % (idx, jid))
            release, _ = jobs[jid]
            require(release <= start, "segment %d runs job %d before release" % (idx, jid))
            require(end <= completions[jid], "segment %d runs job %d after completion" % (idx, jid))
            served[jid] += end - start
            last_end[jid] = end
        cursor = end
    if jobs:
        require(cursor == max(completions.values()), "segments end at %s" % cursor)
    for jid, (_, size) in jobs.items():
        require(served[jid] * speed == size,
                "job %d served %s at speed %s for size %s" % (jid, served[jid], speed, size))
        require(last_end.get(jid) == completions[jid], "job %d completion mismatch" % jid)


def trace_fields(trace):
    """The replay inputs of an srptlab ExecutionTrace."""
    jobs = {j.id: (Fraction(j.release), Fraction(j.size)) for j in trace.instance.jobs}
    segments = [(Fraction(s.start), Fraction(s.end), tuple(s.assignment)) for s in trace.segments]
    completions = {jid: Fraction(c) for jid, c in enumerate(trace.completions)}
    return jobs, trace.instance.machines, Fraction(trace.speed.speed), segments, completions


def json_trace_fields(doc):
    """The replay inputs read from a trace JSON document, without srptlab."""
    jobs = {int(j["id"]): (Fraction(j["release"]), Fraction(j["size"]))
            for j in doc["instance"]["jobs"]}
    machines = int(doc["instance"]["machines"])
    segments = [
        (Fraction(s["start"]), Fraction(s["end"]),
         tuple(s["assignment"].get(str(i)) for i in range(machines)))
        for s in doc["segments"]
    ]
    completions = {int(jid): Fraction(c) for jid, c in doc["completions"].items()}
    return jobs, machines, Fraction(doc["speed"]["speed"]), segments, completions


def blank_first_busy_slot(fields):
    """A copy of replay inputs with one busy machine slot made idle."""
    jobs, machines, speed, segments, completions = fields
    segments = list(segments)
    for idx, (start, end, assignment) in enumerate(segments):
        for pos, jid in enumerate(assignment):
            if jid is not None:
                slots = list(assignment)
                slots[pos] = None
                segments[idx] = (start, end, tuple(slots))
                return jobs, machines, speed, segments, completions
    raise CheckFailed("trace has no busy slot to blank")


# --------------------------------------------------------------------------
# verify reports

def expected_verify_rows(ks, refs):
    """(check, reference, k) of every JSON report entry and every table row
    that `verify --k <ks> --refs <refs>` must produce when eps <= 1/2."""
    klabel = ",".join(str(k) for k in ks)
    json_rows = [("trace-feasibility", "-", "-")]
    table_rows = [("trace-feasibility", "-", "-")]
    for ref in refs:
        json_rows += [("backlog-bound", ref, "1"), ("flow-potential", ref, "1")]
        json_rows += [(check, ref, str(k))
                      for check in ("power-flow-potential", "completion-charge") for k in ks]
        table_rows += [("backlog-bound", ref, "-"), ("flow-potential", ref, "1"),
                       ("power-flow-potential", ref, klabel), ("completion-charge", ref, klabel)]
    return sorted(json_rows), sorted(table_rows)


def _slack_ok(text):
    return text in (None, "-") or Fraction(text) >= 0


def check_verify(exit_code, report, table_text, expected):
    """A verify run: exit 0, exactly the expected rows, all pass, no negative slack."""
    json_rows, table_rows = expected
    require(exit_code == 0, "verify exited %s" % exit_code)
    require(report.get("verdict") == "pass", "report verdict %r" % report.get("verdict"))
    got = []
    for doc in report["checks"]:
        params = doc["params"]
        got.append((doc["check"], params.get("reference", "-"), params.get("k", "-")))
        require(doc["verdict"] == "pass", "%s %s verdict %s" % (doc["check"], params, doc["verdict"]))
        require(_slack_ok(doc["worst_slack"]), "%s worst slack %s" % (doc["check"], doc["worst_slack"]))
    require(sorted(got) == json_rows, "report rows %s" % sorted(got))
    lines = [ln.split() for ln in table_text.splitlines()]
    require(lines and lines[0] == ["check", "reference", "k", "verdict", "worst-slack"],
            "table header missing")
    rows = [ln for ln in lines[1:] if len(ln) == 5]
    require(sorted(tuple(r[:3]) for r in rows) == table_rows, "table rows %s" % rows)
    for row in rows:
        require(row[3] == "pass" and _slack_ok(row[4]), "table row %s" % row)


# --------------------------------------------------------------------------
# oracle objective against schedules simulated here

def unit_slot_objective(jobs, machines, k, key):
    """k-th power flow of the unit-speed, unit-slot schedule that gives each
    slot to the `machines` alive jobs with the smallest key(remaining,
    release, id). Integral releases and sizes only."""
    pending = sorted((r, jid, p) for jid, (r, p) in jobs.items())
    alive = {}
    t = 0
    total = 0
    while pending or alive:
        while pending and pending[0][0] <= t:
            r, jid, p = pending.pop(0)
            alive[jid] = [p, r]
        if not alive:
            t = pending[0][0]
            continue
        for jid in sorted(alive, key=lambda j: key(alive[j][0], alive[j][1], j))[:machines]:
            alive[jid][0] -= 1
            if alive[jid][0] == 0:
                total += (t + 1 - alive.pop(jid)[1]) ** k
        t += 1
    return total


def srpt_key(remaining, release, jid):
    return (remaining, release, jid)


def fifo_key(remaining, release, jid):
    return (release, jid)


def check_oracle(objective, jobs, machines, k):
    """sum p^k <= oracle <= unit SRPT, unit FIFO; = unit SRPT when m = 1, k = 1."""
    objective = Fraction(objective)
    floor = sum(Fraction(p) ** k for _, p in jobs.values())
    srpt = unit_slot_objective(jobs, machines, k, srpt_key)
    fifo = unit_slot_objective(jobs, machines, k, fifo_key)
    require(floor <= objective, "oracle %s below sum p^k %s" % (objective, floor))
    require(objective <= srpt and objective <= fifo,
            "oracle %s above unit SRPT %s or FIFO %s" % (objective, srpt, fifo))
    if machines == 1 and k == 1:
        require(objective == srpt, "oracle %s != unit SRPT %s on one machine" % (objective, srpt))


# --------------------------------------------------------------------------
# sweep rows

def theorem_bound(eps, k):
    if k == 1:
        return 4 / eps
    return (2 / (eps * (1 - eps))) ** k + ((1 + eps) / eps ** 2) ** k


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_rows(rows, expected_keys, size_power, one_competitive):
    """Sweep CSV rows against bounds recomputed exactly from eps and k.

    expected_keys: sorted (family, seed, m, k) of every row the manifest
    implies, with the eps grid folded in by the caller; size_power(family,
    seed, m, k) gives sum p_j^k of the cell's instance.
    """
    keys = sorted((r["family"], int(r["seed"]), int(r["m"]), Fraction(r["eps"]), int(r["k"]))
                  for r in rows)
    require(keys == expected_keys, "sweep rows do not match the manifest")
    for r in rows:
        m, k, eps = int(r["m"]), int(r["k"]), Fraction(r["eps"])
        srpt, opt = Fraction(r["srpt_obj"]), Fraction(r["oracle_obj"])
        if one_competitive:
            require(eps == 1 - Fraction(1, m), "row %s: speed is not 2 - 1/m" % r)
            bound = Fraction(1)
        else:
            bound = theorem_bound(eps, k)
        require(abs(float(r["bound"]) - float(bound)) <= 1e-11 * float(bound),
                "row %s: bound column vs %s" % (r, bound))
        require(srpt <= bound * opt, "row %s: srpt_obj above bound x oracle_obj" % r)
        require(r["within_bound"] == "true", "row %s: within_bound" % r)
        require(opt >= size_power(r["family"], int(r["seed"]), m, k),
                "row %s: oracle_obj below sum p^k" % r)
