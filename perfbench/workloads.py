"""The four seeded workloads.

Each workload builds its inputs from the seed in `setup` (instances and
manifests written under its work directory, then one small warm-up call),
lists the operations of one round in `ops`, checks each operation's output in
`check`, and runs what must wait for the end of the timed phase in
`final_check`. Every call into srptlab goes through a module attribute
(`cli.main`, `engine.simulate_policy`, ...), so that a Tracer's wrappers see
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from srptlab import analysis, cli, core, engine, formats, oracle, workload

import checks
from checks import CheckFailed, require

SPEED = "3/2"
FAILED = object()  # an operation that raised the fault it is expected to raise


@dataclass
class Op:
    kind: str
    fn: Callable
    p50: bool = True  # counted in op_p50_s
    data: object = None


def _quiet(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue()


def _spec(family, n, m, sizes, releases, seed):
    return workload.GenSpec(family=family, n=n, machines=m, size_range=sizes,
                            release_range=releases, seed=seed)


def _jobs(instance):
    return {j.id: (int(j.release), int(j.size)) for j in instance.jobs}


def _expect_failure(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return
    raise CheckFailed("%s accepted a deliberately broken output" % check.__name__)


# --------------------------------------------------------------------------
# verify-mid / verify-small

TINY = "m 2\njob 0 0 3\njob 1 0 1\njob 2 1 1\n"


class _Verify:
    ks = (1, 2)
    refs = None  # None: the CLI's default reference list

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        argv_refs = [] if self.refs is None else ["--refs", ",".join(self.refs)]
        self.args = ["--speed", SPEED, "--k", ",".join(map(str, self.ks))] + argv_refs
        self.expected = checks.expected_verify_rows(
            self.ks, self.refs or ("oracle", "unit-srpt", "fifo"))
        self.last = None

    def slots(self):
        raise NotImplementedError

    def setup(self):
        self.instances = []
        for idx, spec in enumerate(self.slots()):
            inst = workload.generate(spec)
            path = self.workdir / ("instance-%02d.txt" % idx)
            path.write_text(formats.serialize_instance(inst), encoding="utf-8")
            self.instances.append((inst, path))
        tiny = self.workdir / "tiny.txt"
        tiny.write_text(TINY, encoding="utf-8")
        self._verify(tiny, self.workdir / "tiny.json")

    def _verify(self, path, report):
        argv = ["verify", "--instance", str(path)] + self.args + ["--out", str(report)]
        return _quiet(cli.main, argv)

    def ops(self):
        out = []
        for inst, path in self.instances:
            report = path.with_suffix(".json")
            out.append(Op("verify", lambda p=path, r=report: self._verify(p, r), data=report))
        return out

    def check(self, op, result):
        code, table = result
        report = json.loads(op.data.read_text(encoding="utf-8"))
        checks.check_verify(code, report, table, self.expected)
        self.last = (code, report, table)

    def final_check(self):
        code, report, table = self.last
        flipped = json.loads(json.dumps(report))
        flipped["checks"][-1]["verdict"] = "fail"
        _expect_failure(checks.check_verify, code, flipped, table, self.expected)


class VerifyMid(_Verify):
    """Instances of 22 to 24 jobs on 2 or 3 machines, against unit SRPT and FIFO.

    One instance's verify time swings by 15-20% from seed to seed, so a
    round holds twelve of them rather than a few larger ones: the round's
    total and the median call then move by about 5%, and a round stays
    short enough to repeat several times in a run.
    """

    refs = ("unit-srpt", "fifo")
    SHAPES = (
        ("uniform", 18, 2, (1, 8)),
        ("uniform", 20, 3, (1, 8)),
        ("heavy-tail-discrete", 20, 3, (1, 16)),
        ("heavy-tail-discrete", 18, 2, (1, 16)),
    ) * 5

    def slots(self):
        return [_spec(fam, n, m, sizes, (0, 2 * n), self.seed * 1000 + idx)
                for idx, (fam, n, m, sizes) in enumerate(self.SHAPES)]


# (family, machines, n): all three families at n = 5, 6, and bursty at n = 7,
# 8. Uniform and heavy-tail instances of 7 or 8 jobs on one machine make the
# oracle's cost swing most from seed to seed, so they are left out.
SMALL_SHAPES = tuple(
    (family, m, n)
    for family in ("uniform", "heavy-tail-discrete", "bursty")
    for m in (1, 2, 3)
    for n in (5, 6)
) + tuple(("bursty", m, n) for m in (1, 2, 3) for n in (7, 8))


def small_specs(count, base):
    """Desk-scale integral instances, cycling through SMALL_SHAPES."""
    shapes = itertools.islice(itertools.cycle(SMALL_SHAPES), count)
    return [_spec(fam, n, m, (1, 4), (0, 6), base + i) for i, (fam, m, n) in enumerate(shapes)]


class VerifySmall(_Verify):
    """Many n <= 8 instances against the default references (oracle
    included), plus LRPT audits on a fixed instance set."""

    COUNT = 2 * len(SMALL_SHAPES)
    AUDITS = 12
    # The audit set does not depend on the seed: some audits raise a known
    # fault, and the share that does must be the same in every run.
    AUDIT_BASE = 7_000_000

    def slots(self):
        return small_specs(self.COUNT, self.seed * 1000)

    def setup(self):
        super().setup()
        self.audit_set = [workload.generate(s) for s in small_specs(self.AUDITS, self.AUDIT_BASE)]

    def ops(self):
        out = super().ops()
        for inst in self.audit_set:
            out.append(Op("audit-flow", lambda i=inst: self._audit(i, 1), p50=False))
            out.append(Op("audit-power", lambda i=inst: self._audit(i, 2), p50=False))
        return out

    @staticmethod
    def _audit(inst, k):
        """LRPT at speed 3/2 against unit SRPT; a raise is a failed audit."""
        fast = engine.simulate_policy(inst, core.SpeedConfig.from_speed(SPEED),
                                      engine.longest_remaining_priority)
        ref = engine.simulate_srpt(inst, core.UNIT_SPEED)
        ctx = analysis.make_context(fast, ref, k=k)
        try:
            if k == 1:
                return analysis.check_flow_conditions(ctx)
            return analysis.check_power_flow_conditions(ctx, k=k)
        except analysis.AnalysisError:
            return FAILED

    def check(self, op, result):
        if op.kind == "verify":
            super().check(op, result)
        else:
            require(isinstance(result, analysis.ConditionReports), "audit returned %r" % (result,))

    def final_check(self):
        super().final_check()
        for inst, _ in self.instances:
            jobs = _jobs(inst)
            for k in self.ks:
                objective = oracle.brute_force_opt(inst, k=k).objective
                checks.check_oracle(objective, jobs, inst.machines, k)
        inst = self.instances[0][0]
        floor = sum(Fraction(j.size) for j in inst.jobs)
        _expect_failure(checks.check_oracle, floor - 1, _jobs(inst), inst.machines, 1)


# --------------------------------------------------------------------------
# sweep-oracle

SWEEP_FAMILIES = (
    {"family": "uniform", "n": 6, "size_range": [1, 3], "release_range": [0, 2]},
    {"family": "bursty", "n": 6, "size_range": [1, 4], "release_range": [0, 6]},
)


class SweepOracle:
    """Theorem-bound manifests (eps grid, k in {1, 2}) and one-competitive
    manifests, each run by `srptlab sweep`."""

    # Several small manifests rather than one of each kind: op_p50_s is a
    # median over sweep invocations, and with two theorem manifests (the
    # shorter calls) and five one-competitive ones it falls among the latter
    # instead of between the two kinds.
    THEOREM = 4  # manifests
    THEOREM_SEEDS = 7  # seeds per manifest
    ONE_COMP = 10
    ONE_COMP_SEEDS = 28
    MACHINES = [1, 2, 3]
    EPS = ["1/4", "1/2"]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.digests = {}
        self._size_power = {}
        self.last_theorem = None

    def _manifests(self):
        base = self.seed * 1000
        out = {}
        for i in range(self.THEOREM):
            first = base + i * self.THEOREM_SEEDS
            out["theorem-%d" % i] = {
                "families": list(SWEEP_FAMILIES),
                "seeds": list(range(first, first + self.THEOREM_SEEDS)),
                "machines": self.MACHINES, "eps": self.EPS, "k": [1, 2]}
        for i in range(self.ONE_COMP):
            first = base + 500 + i * self.ONE_COMP_SEEDS
            out["one-competitive-%d" % i] = {
                "families": list(SWEEP_FAMILIES),
                "seeds": list(range(first, first + self.ONE_COMP_SEEDS)),
                "machines": self.MACHINES, "bound": "one-competitive"}
        return out

    def setup(self):
        self.manifests = {}
        for name, doc in self._manifests().items():
            path = self.workdir / ("manifest-%s.json" % name)
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            self.manifests[name] = (doc, path)
        tiny = {"families": [SWEEP_FAMILIES[0]], "seeds": [self.seed], "machines": [1],
                "eps": ["1/2"], "k": [1]}
        path = self.workdir / "manifest-tiny.json"
        path.write_text(json.dumps(tiny), encoding="utf-8")
        self._sweep(path, self.workdir / "tiny.csv")

    @staticmethod
    def _sweep(manifest, out):
        return _quiet(cli.main, ["sweep", "--manifest", str(manifest), "--out", str(out)])

    def ops(self):
        out = []
        for name, (doc, path) in self.manifests.items():
            csv_path = path.with_suffix(".csv")
            out.append(Op("sweep", lambda p=path, c=csv_path: self._sweep(p, c), data=(name, csv_path)))
        return out

    def _expected_keys(self, doc):
        one_comp = doc.get("bound") == "one-competitive"
        keys = []
        for fam in doc["families"]:
            for seed in doc["seeds"]:
                for m in doc["machines"]:
                    if one_comp:
                        keys.append((fam["family"], seed, m, 1 - Fraction(1, m), 1))
                    else:
                        keys.extend((fam["family"], seed, m, Fraction(e), k)
                                    for e in doc["eps"] for k in doc["k"])
        return sorted(keys)

    def size_power(self, family, seed, m, k):
        key = (family, seed, m)
        if key not in self._size_power:
            fam = next(f for f in SWEEP_FAMILIES if f["family"] == family)
            inst = workload.generate(_spec(family, fam["n"], m, tuple(fam["size_range"]),
                                           tuple(fam["release_range"]), seed))
            self._size_power[key] = [Fraction(j.size) for j in inst.jobs]
        return sum(p ** k for p in self._size_power[key])

    def check(self, op, result):
        code, _ = result
        name, csv_path = op.data
        require(code == 0, "sweep %s exited %s" % (name, code))
        data = csv_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        require(self.digests.setdefault(name, digest) == digest,
                "sweep %s CSV changed between rounds" % name)
        doc = self.manifests[name][0]
        one_comp = doc.get("bound") == "one-competitive"
        rows = checks.read_csv(data.decode("utf-8"))
        checks.check_sweep_rows(rows, self._expected_keys(doc), self.size_power, one_comp)
        if not one_comp:
            self.last_theorem = (doc, rows)

    def final_check(self):
        doc, rows = self.last_theorem
        rows = [dict(r) for r in rows]
        row = rows[0]
        bound = checks.theorem_bound(Fraction(row["eps"]), int(row["k"]))
        row["srpt_obj"] = str(bound * Fraction(row["oracle_obj"]) + 1)
        _expect_failure(checks.check_sweep_rows, rows, self._expected_keys(doc),
                        self.size_power, False)


# --------------------------------------------------------------------------
# trace-audit

POLICIES = (
    ("srpt", "srpt_priority"),
    ("fifo", "fifo_priority"),
    ("lrpt", "longest_remaining_priority"),
)


class TraceAudit:
    """One instance of 1500 jobs on 4 machines, scheduled by SRPT,
    FIFO and LRPT at speed 3/2; each trace goes to JSON, back, and through
    validate_trace."""

    N = 1500
    MACHINES = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.speed = None
        self.last = None

    def setup(self):
        self.speed = core.SpeedConfig.from_speed(SPEED)
        self.instance = workload.generate(
            _spec("uniform", self.N, self.MACHINES, (1, 8), (0, self.N), self.seed))
        tiny = formats.parse_instance(TINY)
        self._audit(tiny, "srpt_priority")

    def _audit(self, inst, priority):
        trace = engine.simulate_policy(inst, self.speed, getattr(engine, priority))
        text = formats.dump_json(formats.trace_to_json(trace))
        back = formats.trace_from_json(json.loads(text))
        ok, violations = core.validate_trace(back)
        return trace, text, back, ok, violations

    def ops(self):
        return [Op("audit-" + name, lambda p=prio: self._audit(self.instance, p))
                for name, prio in POLICIES]

    def check(self, op, result):
        trace, text, back, ok, violations = result
        require(ok and not violations, "%s: validate_trace reports %s" % (op.kind, violations[:3]))
        fields = checks.trace_fields(trace)
        require(checks.json_trace_fields(json.loads(text)) == fields,
                "%s: JSON document differs from the trace" % op.kind)
        require(back == trace, "%s: JSON round trip changed the trace" % op.kind)
        checks.replay_trace(*checks.trace_fields(back))
        self.last = fields

    def final_check(self):
        _expect_failure(checks.replay_trace, *checks.blank_first_busy_slot(self.last))


WORKLOADS = {
    "verify-mid": VerifyMid,
    "verify-small": VerifySmall,
    "sweep-oracle": SweepOracle,
    "trace-audit": TraceAudit,
}
