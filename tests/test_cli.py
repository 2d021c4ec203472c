"""End-to-end command-line behavior, exit codes, and artifact determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from srptlab import analysis, cli
from srptlab.analysis import REFERENCES, verify
from srptlab.cli import main
from srptlab.core import validate_trace
from srptlab.engine import longest_remaining_priority, simulate_policy, simulate_srpt

from helpers import corrupted

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

E1_TEXT = "m 2\njob 0 0 3\njob 1 0 1\njob 2 1 1\n"


@pytest.fixture()
def e1_path(tmp_path):
    p = tmp_path / "e1.txt"
    p.write_text(E1_TEXT)
    return str(p)


def manifest_file(tmp_path, doc, name="manifest.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SMALL_MANIFEST = {
    "families": [
        {"family": "uniform", "n": 4, "size_range": [1, 3], "release_range": [0, 6]},
        {"family": "bursty", "n": 5, "size_range": [1, 3], "release_range": [0, 8]},
    ],
    "seeds": 4,
    "machines": [1, 2],
    "eps": ["1/4", "1/2", "1"],
    "k": [1],
}


class TestSimulate:
    def test_table(self, e1_path, capsys):
        rc = main(["simulate", "--instance", e1_path, "--speed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 jobs on 2 machines at speed 1" in out
        assert "total flow: 5" in out
        assert "k=2 11" in out
        assert "l2=3.31662479036" in out

    def test_faster_total(self, e1_path, capsys):
        rc = main(["simulate", "--instance", e1_path, "--speed", "3/2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total flow: 10/3" in out

    def test_trace_export_matches_golden(self, e1_path, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        rc = main(
            ["simulate", "--instance", e1_path, "--speed", "3/2", "--out", str(out_path)]
        )
        assert rc == 0
        assert out_path.read_bytes() == (DATA / "e1_speed_3_2.json").read_bytes()

    def test_stdin_instance(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(E1_TEXT))
        rc = main(["simulate", "--instance", "-", "--speed", "1"])
        assert rc == 0
        assert "total flow: 5" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["simulate", "--instance", str(tmp_path / "nope.txt"), "--speed", "1"])
        assert rc == 2
        assert "cannot read instance" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("m 1\njob 0 zero 1\n")
        rc = main(["simulate", "--instance", str(p), "--speed", "1"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_speed_string(self, e1_path, capsys):
        rc = main(["simulate", "--instance", e1_path, "--speed", "fast"])
        assert rc == 2

    def test_numbers_outside_the_grammar(self, e1_path, tmp_path, capsys):
        # int() reads "1_0" as 10; the instance grammar does not
        p = tmp_path / "underscore.txt"
        p.write_text("m 1\njob 0 1_0 3\n")
        assert main(["simulate", "--instance", str(p), "--speed", "1"]) == 2
        assert "line 2" in capsys.readouterr().err
        assert main(["verify", "--instance", e1_path, "--speed", "1_5/1_0"]) == 2
        assert "bad speed: bad rational '1_5/1_0'" in capsys.readouterr().err

    def test_nonpositive_speed(self, e1_path, capsys):
        rc = main(["simulate", "--instance", e1_path, "--speed", "0"])
        assert rc == 3


class TestVerify:
    def test_example_eight_rows(self, e1_path, capsys):
        rc = main(
            [
                "verify",
                "--instance",
                e1_path,
                "--speed",
                "3/2",
                "--k",
                "1,2",
                "--refs",
                "oracle,unit-srpt",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("check")]
        feasibility = [l for l in lines if l.startswith("trace-feasibility")]
        check_rows = [l for l in lines if not l.startswith("trace-feasibility")]
        assert len(feasibility) == 1
        assert len(check_rows) == 8
        assert all("pass" in l for l in lines)

    # both are rejected before SRPT is simulated
    def test_unit_speed_rejected(self, e1_path, monkeypatch, capsys):
        simulated = []
        monkeypatch.setattr(cli, "simulate_srpt", lambda *a: simulated.append(a))
        rc = main(["verify", "--instance", e1_path, "--speed", "1"])
        assert rc == 3 and simulated == []
        assert "needs speed > 1" in capsys.readouterr().err

    def test_large_eps_with_power_k_rejected(self, e1_path, monkeypatch, capsys):
        simulated = []
        monkeypatch.setattr(cli, "simulate_srpt", lambda *a: simulated.append(a))
        rc = main(["verify", "--instance", e1_path, "--speed", "2", "--k", "2"])
        assert rc == 3 and simulated == []
        assert "theorem range" in capsys.readouterr().err

    def test_large_eps_flow_only_skips_power_checks(self, e1_path, capsys):
        rc = main(["verify", "--instance", e1_path, "--speed", "2", "--k", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipped" in captured.out
        assert "note: epsilon > 1/2" in captured.out

    def test_corruption_detected(self, e1_fast_trace):
        bad = corrupted(e1_fast_trace)
        report = verify(bad, ks=(1, 2), refs=REFERENCES)
        # make_context raises on an infeasible fast trace, so a returned
        # report shows that verify built no context
        assert report.violations == tuple(validate_trace(bad)[1])
        assert any("work deficit" in v or "never scheduled" in v for v in report.violations)
        assert report.rows == ()
        assert not report.passed

    def test_csv_export(self, e1_path, tmp_path):
        out = tmp_path / "verify.csv"
        args = [
            "verify",
            "--instance",
            e1_path,
            "--speed",
            "3/2",
            "--k",
            "1,2",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "instance,check,eps,k,reference,n_events,worst_slack,verdict"
        assert all(l.endswith("pass") for l in lines[1:])
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_csv_quotes_a_comma_in_the_instance_path(self, tmp_path):
        path = tmp_path / "e1,copy.txt"
        path.write_text(E1_TEXT)
        out = tmp_path / "verify.csv"
        args = ["verify", "--instance", str(path), "--speed", "3/2", "--format", "csv", "--out", str(out)]
        assert main(args) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == "instance,check,eps,k,reference,n_events,worst_slack,verdict".split(",")
        assert len(rows) > 1 and all(len(row) == 8 and row[0] == str(path) for row in rows[1:])

    def test_json_export_deterministic(self, e1_path, tmp_path):
        out = tmp_path / "verify.json"
        args = [
            "verify",
            "--instance",
            e1_path,
            "--speed",
            "3/2",
            "--format",
            "json",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        doc = json.loads(first)
        assert doc["verdict"] == "pass"
        assert doc["speed"] == "3/2"
        assert all(c["verdict"] == "pass" for c in doc["checks"])
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["verify", "--instance", str(tmp_path / "gone.txt"), "--speed", "3/2"])
        assert rc == 2

    @pytest.mark.parametrize(
        "refs, contexts",
        # the oracle's schedule depends on k, so it needs one context per k
        [(["--refs", "unit-srpt,fifo"], 2), ([], 4)],
        ids=["unit-srpt-fifo", "default-refs"],
    )
    def test_one_context_per_reference(self, e1_path, refs, contexts, monkeypatch, capsys):
        built = []
        init = analysis.PairContext.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(analysis.PairContext, "__init__", counting)
        assert main(["verify", "--instance", e1_path, "--speed", "3/2", "--k", "1,2"] + refs) == 0
        assert len(built) == contexts

    def test_one_index_per_trace(self, e1_path, monkeypatch, capsys):
        # 5 traces: SRPT at 3/2, the oracle's at k = 1 and 2, unit SRPT, FIFO
        indexed = []
        init = analysis._TraceIndex.__init__

        def counting(self, trace, L, V):
            indexed.append((id(trace), L, V))
            init(self, trace, L, V)

        monkeypatch.setattr(analysis._TraceIndex, "__init__", counting)
        assert main(["verify", "--instance", e1_path, "--speed", "3/2", "--k", "1,2"]) == 0
        assert len({trace for trace, _, _ in indexed}) == len(indexed) == 5
        # all on one time base
        assert len({(L, V) for _, L, V in indexed}) == 1

    def test_each_trace_validated_and_measured_once(self, e1_path, monkeypatch, capsys):
        # 5 traces: SRPT at 3/2, the oracle's at k = 1 and 2, unit SRPT, FIFO
        calls = []

        def counting(fn):
            def wrapper(trace, *args):
                calls.append((fn.__name__, id(trace), args))
                return fn(trace, *args)
            return wrapper

        for name in ("validate_trace", "flow_power"):
            monkeypatch.setattr(analysis, name, counting(getattr(analysis, name)))
        assert main(["verify", "--instance", e1_path, "--speed", "3/2", "--k", "1,2"]) == 0
        validated = [call for call in calls if call[0] == "validate_trace"]
        assert len(validated) == len(set(validated)) == 5
        measured = [call for call in calls if call[0] == "flow_power"]
        assert len(measured) == len(set(measured)) == 8


def _corrupted_srpt(instance, speed):
    return corrupted(simulate_srpt(instance, speed))


def _lrpt(instance, speed):
    return simulate_policy(instance, speed, priority=longest_remaining_priority)


# golden-file stem -> (instance text, extra verify arguments, exit code, the
# function cli calls for the fast schedule in place of simulate_srpt)
GOLDEN_VERIFY = {
    "verify_e1_speed_3_2": (E1_TEXT, ["--speed", "3/2", "--k", "1,2"], 0, simulate_srpt),
    # total work 41 is over the oracle's limit, and eps = 1 skips the power checks
    "verify_over_limit_speed_2": ("m 1\njob 0 0 41\n", ["--speed", "2", "--k", "1"], 0,
                                  simulate_srpt),
    # the witness lines are the first violations in validate_trace's order
    "verify_e1_corrupted": (E1_TEXT, ["--speed", "3/2", "--k", "1,2"], 4, _corrupted_srpt),
    # LRPT at 3/2 fails the backlog and both potential checks against both references
    "verify_lrpt_m1": (
        "m 1\njob 0 0 3\njob 1 0 1\njob 2 1 1\njob 3 2 2\n",
        ["--speed", "3/2", "--k", "1,2", "--refs", "unit-srpt,fifo"],
        4,
        _lrpt,
    ),
}


def _golden_args(stem, directory):
    """Write the stem's instance into `directory` and return its verify
    arguments, exit code and fast schedule."""
    text, extra, code, fast = GOLDEN_VERIFY[stem]
    (directory / "instance.txt").write_text(text)
    return ["verify", "--instance", "instance.txt"] + extra, code, fast


class TestVerifyGolden:
    """Table, JSON and CSV of verify, byte for byte, with a relative
    instance path so that the reports do not depend on the directory."""

    @pytest.mark.parametrize("stem", GOLDEN_VERIFY)
    def test_stdout(self, stem, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args, code, fast = _golden_args(stem, tmp_path)
        monkeypatch.setattr(cli, "simulate_srpt", fast)
        assert main(args) == code
        assert capsys.readouterr().out == (DATA / (stem + ".stdout")).read_text()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("stem", GOLDEN_VERIFY)
    def test_report(self, stem, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args, code, fast = _golden_args(stem, tmp_path)
        monkeypatch.setattr(cli, "simulate_srpt", fast)
        out = "report." + fmt
        assert main(args + ["--format", fmt, "--out", out]) == code
        table, witnesses = _split_witnesses((DATA / (stem + ".stdout")).read_text())
        assert capsys.readouterr().out == table + "report written to %s\n" % out + witnesses
        assert (tmp_path / out).read_bytes() == (DATA / (stem + "." + fmt)).read_bytes()


def _split_witnesses(stdout):
    """A verify table's text and the witness lines printed after it."""
    at = stdout.find("witness")
    return (stdout, "") if at < 0 else (stdout[:at], stdout[at:])


class TestSweep:
    def test_small_sweep(self, tmp_path, capsys):
        man = manifest_file(tmp_path, SMALL_MANIFEST)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--manifest", man, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,seed,m,eps,k,srpt_obj,oracle_obj,ratio,bound,within_bound"
        rows = [l.split(",") for l in lines[1:]]
        # 2 families x 4 seeds x 2 machines x 3 eps x 1 k
        assert len(rows) == 48
        assert all(r[-1] == "true" for r in rows)
        assert "max ratio" in err

    def test_sorted_and_deterministic(self, tmp_path):
        man = manifest_file(tmp_path, SMALL_MANIFEST)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        first = out.read_bytes()
        rows = first.decode().splitlines()[1:]
        keys = []
        for r in rows:
            family, seed, m, eps, k = r.split(",")[:5]
            num, _, den = eps.partition("/")
            keys.append((family, int(seed), int(m), (int(num), int(den or 1)), int(k)))
        assert keys == sorted(keys)
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_thread_cap_does_not_change_bytes(self, tmp_path, monkeypatch):
        man = manifest_file(tmp_path, SMALL_MANIFEST)
        out = tmp_path / "sweep.csv"
        monkeypatch.setenv("SRPTLAB_THREADS", "1")
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        sequential = out.read_bytes()
        monkeypatch.setenv("SRPTLAB_THREADS", "4")
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        assert out.read_bytes() == sequential

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        man = manifest_file(tmp_path, SMALL_MANIFEST)
        monkeypatch.setenv("SRPTLAB_THREADS", "many")
        rc = main(["sweep", "--manifest", man])
        assert rc == 2
        assert "SRPTLAB_THREADS" in capsys.readouterr().err

    def test_one_competitive_mode(self, tmp_path, capsys):
        man = manifest_file(
            tmp_path,
            {
                "families": [
                    {
                        "family": "uniform",
                        "n": 4,
                        "size_range": [1, 3],
                        "release_range": [0, 6],
                    }
                ],
                "seeds": 5,
                "machines": [2, 3],
                "k": [1],
                "bound": "one-competitive",
            },
        )
        out = tmp_path / "one.csv"
        rc = main(["sweep", "--manifest", man, "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 10
        for r in rows:
            m = int(r[2])
            assert r[3] in ("1/2", "2/3")  # eps = 1 - 1/m
            assert r[8] == "1"
            assert r[9] == "true"

    def test_empty_manifest(self, tmp_path, capsys):
        man = manifest_file(tmp_path, {"families": [], "seeds": 0, "machines": [1], "eps": ["1/2"]})
        out = tmp_path / "empty.csv"
        rc = main(["sweep", "--manifest", man, "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == [
            "family,seed,m,eps,k,srpt_obj,oracle_obj,ratio,bound,within_bound"
        ]

    def test_one_competitive_forbids_eps(self, tmp_path, capsys):
        man = manifest_file(
            tmp_path,
            {
                "families": [],
                "seeds": 0,
                "machines": [2],
                "eps": ["1/2"],
                "bound": "one-competitive",
            },
        )
        assert main(["sweep", "--manifest", man]) == 2

    def test_theorem_eps_domain(self, tmp_path, capsys):
        man = manifest_file(
            tmp_path,
            {
                "families": [
                    {"family": "uniform", "n": 3, "size_range": [1, 2], "release_range": [0, 2]}
                ],
                "seeds": 1,
                "machines": [1],
                "eps": ["1"],
                "k": [2],
            },
        )
        assert main(["sweep", "--manifest", man]) == 3

    def test_missing_manifest_keys(self, tmp_path, capsys):
        man = manifest_file(tmp_path, {"families": [{"family": "uniform", "n": 3}]})
        assert main(["sweep", "--manifest", man]) == 2

    def test_unreadable_manifest(self, tmp_path, capsys):
        assert main(["sweep", "--manifest", str(tmp_path / "none.json")]) == 2

    # each malformed value is rejected when the manifest loads, before any
    # cell runs, so a pool worker never meets it; JSON true is not an integer
    @pytest.mark.parametrize("threads", ("1", "2"))
    @pytest.mark.parametrize(
        "family, top, message",
        [
            ({"n": 2.5}, {}, "n must be a non-negative integer"),
            ({"n": True}, {}, "n must be a non-negative integer"),
            ({"size_range": [3, 1]}, {}, "size_range must be integers with 1 <= lo <= hi"),
            ({"size_range": "1:2"}, {}, "size_range must be integers with 1 <= lo <= hi"),
            ({"release_range": [0, True]}, {}, "release_range must be integers"),
            ({"size_range": [1, 2**64 + 1]}, {}, "size_range holds more than 2^64 values"),
            ({}, {"machines": [True]}, "machines must be a non-empty list of integers"),
            ({}, {"k": [True]}, "k must be a non-empty list of integers"),
            ({}, {"seeds": True}, "seeds must be a count or a list of integers"),
            ({}, {"seeds": [0, False]}, "seeds must be a count or a list of integers"),
        ],
        ids=["n-2.5", "n-true", "size-reversed", "size-string", "release-true", "size-over-64-bits",
             "machines-true", "k-true", "seeds-true", "seed-false"],
    )
    def test_malformed_entry(self, tmp_path, capsys, monkeypatch, threads, family, top, message):
        monkeypatch.setenv("SRPTLAB_THREADS", threads)
        fam = {"family": "uniform", "n": 3, "size_range": [1, 2], "release_range": [0, 2]}
        doc = {"families": [dict(fam, **family)], "seeds": 2, "machines": [1, 2], "eps": ["1/2"]}
        man = manifest_file(tmp_path, dict(doc, **top))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest: " + message)
        assert not out.exists()


# a 3-eps grid with k 1,2; uniform n = 12 is over the oracle's job limit, so
# every one of its (eps, k) pairs leaves a skip notice on stderr
GOLDEN_SWEEP = {
    "families": [
        {"family": "bursty", "n": 5, "size_range": [1, 3], "release_range": [0, 4]},
        {"family": "heavy-tail-discrete", "n": 5, "size_range": [1, 4], "release_range": [0, 6]},
        {"family": "uniform", "n": 12, "size_range": [1, 2], "release_range": [0, 6]},
    ],
    "seeds": 2,
    "machines": [1, 2],
    "eps": ["1/4", "1/3", "1/2"],
    "k": [1, 2],
}


@pytest.fixture()
def oracle_calls(monkeypatch):
    """The k of each brute_force_opt call a serial sweep makes."""
    monkeypatch.setenv("SRPTLAB_THREADS", "1")
    calls = []
    brute_force_opt = cli.brute_force_opt

    def counting(instance, k=1, **kwargs):
        calls.append(k)
        return brute_force_opt(instance, k=k, **kwargs)

    monkeypatch.setattr(cli, "brute_force_opt", counting)
    return calls


class TestSweepGolden:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_csv_and_stderr(self, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SRPTLAB_THREADS", threads)
        man = manifest_file(tmp_path, GOLDEN_SWEEP)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "sweep_grid.csv").read_bytes()
        assert capsys.readouterr().err == (DATA / "sweep_grid.stderr").read_text()

    def test_one_oracle_search_per_instance_and_k(self, tmp_path, oracle_calls, capsys):
        doc = dict(GOLDEN_SWEEP, families=GOLDEN_SWEEP["families"][:1], machines=[1])
        man = manifest_file(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        # 2 seeds x 1 machine count x 2 powers, whatever the 3-eps grid
        assert sorted(oracle_calls) == [1, 1, 2, 2]
        golden = (DATA / "sweep_grid.csv").read_text().splitlines()
        expected = [golden[0]] + [r for r in golden[1:] if r.split(",")[:3:2] == ["bursty", "1"]]
        assert len(expected) == 1 + 2 * 3 * 2
        assert out.read_text().splitlines() == expected

    def test_repeated_axis_values_run_once(self, tmp_path, oracle_calls, capsys):
        # every axis is a set, eps compared by value: the repeats add no
        # cell, no oracle search and no row
        once = {"families": GOLDEN_SWEEP["families"][:1], "seeds": [1], "machines": [1],
                "eps": ["1/2"], "k": [1]}
        twice = dict(once, seeds=[1, 1], machines=[1, 1], eps=["1/2", "2/4"], k=[1, 1])
        out = tmp_path / "twice.csv"
        assert main(["sweep", "--manifest", manifest_file(tmp_path, twice), "--out", str(out)]) == 0
        assert oracle_calls == [1]
        assert len(out.read_text().splitlines()) == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: 1 rows, 0 cells skipped")
        expected = tmp_path / "once.csv"
        assert main(["sweep", "--manifest", manifest_file(tmp_path, once), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert capsys.readouterr().err == err

    def test_no_simulation_when_every_k_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SRPTLAB_THREADS", "1")
        calls = []
        simulate_srpt = cli.simulate_srpt

        def counting(*args):
            calls.append(None)
            return simulate_srpt(*args)

        monkeypatch.setattr(cli, "simulate_srpt", counting)
        # uniform n = 12 is over the oracle's job limit for every k
        doc = dict(GOLDEN_SWEEP, families=GOLDEN_SWEEP["families"][2:])
        man = manifest_file(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        assert calls == []
        assert out.read_text().splitlines() == [(DATA / "sweep_grid.csv").read_text().splitlines()[0]]
        skips = [l for l in (DATA / "sweep_grid.stderr").read_text().splitlines() if "uniform" in l]
        assert capsys.readouterr().err.splitlines()[:-1] == skips


class TestDigitLimit:
    """Exact values past CPython's 4300-digit int <-> str limit are printed
    whole, and main leaves the caller's limit as it found it."""

    @pytest.mark.parametrize("speed, k", [("3/2", "4800"), ("11/10", "1500")])
    def test_verify_large_k(self, speed, k, e1_path, capsys):
        # the label of the power factor at this k runs past the limit
        limit = sys.get_int_max_str_digits()
        args = ["verify", "--instance", e1_path, "--speed", speed, "--k", k]
        assert main(args + ["--refs", "unit-srpt,fifo"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [l.split() for l in captured.out.splitlines()[2:]]
        powered = [r[0] for r in rows if r[2] == k]
        assert powered == ["power-flow-potential", "completion-charge"] * 2
        assert all(r[3] == "pass" for r in rows)
        assert sys.get_int_max_str_digits() == limit

    def test_sweep_large_k_in_workers(self, tmp_path, monkeypatch, capsys):
        # two cells on two workers: each worker writes the objectives
        monkeypatch.setenv("SRPTLAB_THREADS", "2")
        limit = sys.get_int_max_str_digits()
        doc = {
            "families": [
                {"family": "uniform", "n": 5, "size_range": [2, 4], "release_range": [0, 2]},
            ],
            "seeds": 2,
            "machines": [1],
            "eps": ["1/2"],
            "k": [4000],
        }
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--manifest", manifest_file(tmp_path, doc), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 2
        for row in rows:
            assert row["within_bound"] == "true"
            for col in ("srpt_obj", "oracle_obj"):
                assert row[col].replace("/", "", 1).isdigit() and len(row[col]) > 4300
        assert sys.get_int_max_str_digits() == limit


class TestGen:
    def test_starvation_layout(self, capsys):
        rc = main(["gen", "--family", "starvation-stream", "--n", "4", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "m 1\njob 0 0 1\njob 1 0 1\njob 2 1 1\njob 3 2 1\n"

    def test_deterministic(self, capsys):
        args = [
            "gen",
            "--family",
            "uniform",
            "--n",
            "6",
            "--machines",
            "2",
            "--size-range",
            "1:4",
            "--release-range",
            "0:8",
            "--seed",
            "11",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("m 2\n")
        assert first.count("job ") == 6

    def test_out_file_roundtrips(self, tmp_path):
        out = tmp_path / "gen.txt"
        rc = main(
            [
                "gen",
                "--family",
                "heavy-tail-discrete",
                "--n",
                "8",
                "--size-range",
                "2:16",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        from srptlab import parse_instance

        inst = parse_instance(out.read_text())
        assert inst.n == 8

    def test_range_over_64_bits(self, capsys):
        rc = main(["gen", "--family", "uniform", "--n", "1",
                   "--size-range", "1:99999999999999999999", "--seed", "0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cannot generate: size_range holds more than 2^64 values\n"
        )

    def test_unknown_family(self, capsys):
        # family is an argparse choice, so this is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "zipf", "--n", "3", "--seed", "0"])
        assert exc.value.code == 2


# integer texts that int() takes and an instance file does not
BAD_INTS = ["1_0", "+2", " 2", "\uff12"]  # the last is a full-width 2


class TestIntegerArguments:
    """Every integer the CLI reads goes through rationals.is_int_text, as
    instance files do, and a bad one exits 2."""

    @pytest.mark.parametrize("bad", [b for b in BAD_INTS if b.strip() == b])
    def test_k(self, bad, e1_path, capsys):
        rc = main(["verify", "--instance", e1_path, "--speed", "3/2", "--k", "1," + bad,
                   "--refs", "unit-srpt"])
        assert rc == 2
        assert "bad k list" in capsys.readouterr().err

    def test_k_list_spacing(self):
        # spaces around the commas of a list separate, as in --refs; they
        # are not part of a value
        assert cli._k_list(" 2, 1,2 ") == [1, 2]
        with pytest.raises(cli.CliError):
            cli._k_list("1_0,+2")

    @pytest.mark.parametrize("bad", BAD_INTS)
    @pytest.mark.parametrize("option", ["--n", "--machines", "--seed", "--size-range", "--release-range"])
    def test_gen_options(self, option, bad, capsys):
        value = "1:" + bad if option.endswith("range") else bad
        args = ["gen", "--family", "uniform", "--n", "3", option, value]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("bad", BAD_INTS)
    def test_thread_env(self, bad, tmp_path, monkeypatch, capsys):
        man = manifest_file(tmp_path, SMALL_MANIFEST)
        monkeypatch.setenv("SRPTLAB_THREADS", bad)
        assert main(["sweep", "--manifest", man]) == 2
        assert "SRPTLAB_THREADS must be an integer" in capsys.readouterr().err

    def test_good_texts_still_read(self, capsys):
        assert main(["gen", "--family", "uniform", "--n", "3", "--machines", "2",
                     "--size-range", "1:4", "--release-range", "0:8", "--seed", "-1"]) == 0
        assert capsys.readouterr().out.startswith("m 2\n")


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nope"])
        assert exc.value.code == 2

    def test_calls_in_one_process(self, e1_path, capsys):
        # one parser serves every call in a process, a failed parse included
        runs = [
            ["simulate", "--instance", e1_path, "--speed", "1"],
            ["gen", "--family", "starvation-stream", "--n", "4", "--seed", "0"],
            ["verify", "--instance", e1_path, "--speed", "3/2", "--refs", "unit-srpt"],
        ]
        outputs = []
        for args in runs + [["simulate", "--nope"]] + runs:
            try:
                assert main(args) == 0
            except SystemExit as exc:
                assert exc.code == 2
            outputs.append(capsys.readouterr())
        assert outputs[:3] == outputs[4:]
        assert "total flow: 5" in outputs[0].out
        assert outputs[1].out == "m 1\njob 0 0 1\njob 1 0 1\njob 2 1 1\njob 3 2 1\n"
        assert "unit-srpt" in outputs[2].out and not outputs[2].err
        assert "required: --instance" in outputs[3].err
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("args", [
        ["gen", "--family", "uniform", "--n", "6", "--machines", "2", "--seed", "11"],
        ["gen", "--family", "uniform", "--n", "1_0"],
    ])
    def test_python_m_srptlab_runs_main(self, args, capsys):
        # `python -m srptlab` from a source checkout: the exit code and the
        # bytes of both streams are those of cli.main in this process (a
        # parse error exits 2 through SystemExit)
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "srptlab", *args], capture_output=True, env=env, check=False,
                             timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out.encode(), captured.err.encode())


if __name__ == "__main__":
    # regenerate the golden verify files: PYTHONPATH=src python tests/test_cli.py
    data = DATA.resolve()
    for stem in GOLDEN_VERIFY:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            args, code, cli.simulate_srpt = _golden_args(stem, Path(tmp))
            table = io.StringIO()
            with contextlib.redirect_stdout(table):
                assert main(args) == code
            (data / (stem + ".stdout")).write_text(table.getvalue())
            for fmt in ("json", "csv"):
                out = "report." + fmt
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(args + ["--format", fmt, "--out", out]) == code
                (data / (stem + "." + fmt)).write_bytes(Path(out).read_bytes())
