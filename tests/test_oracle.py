"""Brute-force reference scheduler: exactness, determinism, corroboration."""

import ast
import inspect
import json
from functools import cache
from itertools import combinations_with_replacement, groupby, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from srptlab import (
    OracleError,
    UNIT_SPEED,
    brute_force_opt,
    dump_json,
    make_instance,
    objectives,
    simulate_srpt,
    trace_from_json,
    trace_to_json,
    validate_trace,
)
from srptlab import oracle
from srptlab.oracle import _actions, _search_actions, _spt_completions, _spt_tail
from srptlab.rationals import rat
from srptlab.workload import GenSpec, generate

from helpers import (
    least_total_completion,
    random_integer_instance,
    rebuild_remaining,
    reference_witness,
    single_machine_relaxation_lb,
    slot_search_opt,
    slot_value,
)

DATA = Path(__file__).parent / "data"

# golden-file stem -> (id, release, size) triples, machines. Every instance
# has jobs with equal (remaining, release) pairs, some listed out of id
# order, so the traces pin which job of a tied class runs first.
GOLDEN_ORACLE = {
    "oracle_ties_m1": ([(0, 2, 1), (1, 0, 2), (2, 0, 2), (3, 2, 1), (4, 1, 3), (5, 0, 1)], 1),
    "oracle_ties_m2": (
        [(0, 1, 2), (1, 0, 3), (2, 0, 3), (3, 0, 3), (4, 1, 2), (5, 3, 1), (6, 3, 1)],
        2,
    ),
    "oracle_ties_m3": (
        [(0, 0, 2), (1, 0, 2), (2, 0, 2), (3, 0, 2), (4, 1, 1), (5, 1, 1), (6, 2, 3), (7, 2, 3)],
        3,
    ),
}

GOLDEN_FAMILIES = ("uniform", "bursty", "heavy-tail-discrete")


def golden_specs():
    """The seeded instances of oracle_golden.json: small sizes and releases,
    so alive jobs often tie on remaining work with different releases."""
    return [
        GenSpec(family, 3 + seed, m, (1, 4), (0, 4), seed)
        for family in GOLDEN_FAMILIES
        for m in (1, 2, 3)
        for seed in range(6)
    ]


def golden_row(spec, k):
    res = brute_force_opt(generate(spec), k=k)
    return {
        "family": spec.family,
        "seed": spec.seed,
        "m": spec.machines,
        "k": k,
        "objective": str(res.objective),
        "trace": trace_to_json(res.trace),
    }


def golden_rows(family, m):
    return [
        golden_row(spec, k)
        for spec in golden_specs()
        if (spec.family, spec.machines) == (family, m)
        for k in (1, 2, 3)
    ]


def has_release_tie(trace):
    """Whether at some integer time two alive jobs have equal remaining work
    and different releases."""
    for t in range(int(max(trace.completions))):
        seen = {}
        for job in trace.instance.jobs:
            if job.release <= t < trace.completions[job.id]:
                seen.setdefault(rebuild_remaining(trace, job.id, t), set()).add(job.release)
        if any(len(rels) > 1 for rels in seen.values()):
            return True
    return False


class TestBruteForce:
    def test_two_jobs_either_order(self):
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 4

    @pytest.mark.parametrize(
        "k,objective,completions,segments",
        [
            # both orders tie at 4; the first take-vector runs the later release
            (1, 4, (3, 2), [(0, 1, 0), (1, 2, 1), (2, 3, 0)]),
            (2, 8, (2, 3), [(0, 2, 0), (2, 3, 1)]),
            (3, 16, (2, 3), [(0, 2, 0), (2, 3, 1)]),
        ],
    )
    def test_equal_remaining_different_releases(self, k, objective, completions, segments):
        # at t = 1 both jobs have one unit left; job 0 was released at 0, job 1 at 1
        inst = make_instance([(0, 0, 2), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=k)
        assert res.objective == objective
        assert res.trace.completions == completions
        assert [(s.start, s.end, s.assignment[0]) for s in res.trace.segments] == segments

    def test_three_equal_jobs_two_machines(self):
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=1).objective == 8

    def test_squared_flow_rewards_migration(self):
        # same instance, k=2: splitting the last job across machines gives
        # completion profile (2,3,3), beating the k=1-optimal (2,2,4) layout
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=2).objective == 22

    def test_matches_unit_srpt_single_machine(self):
        inst = make_instance([(0, 0, 4), (1, 1, 1)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 6
        srpt = simulate_srpt(inst, UNIT_SPEED)
        assert objectives(srpt).total_flow == 6

    def test_trace_is_feasible_and_consistent(self):
        inst = make_instance([(0, 0, 2), (1, 1, 1), (2, 1, 3)], machines=2)
        for k in (1, 2, 3):
            res = brute_force_opt(inst, k=k)
            ok, violations = validate_trace(res.trace)
            assert ok, violations
            assert objectives(res.trace, ks=(k,)).kth_power_flow[k] == res.objective
            assert res.trace.speed == UNIT_SPEED

    def test_empty_instance(self):
        inst = make_instance([], machines=2)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 0
        ok, _ = validate_trace(res.trace)
        assert ok

    def test_determinism(self):
        inst = make_instance([(0, 0, 3), (1, 0, 3), (2, 2, 1), (3, 2, 2)], machines=2)
        a = brute_force_opt(inst, k=1)
        b = brute_force_opt(inst, k=1)
        assert a.objective == b.objective
        assert dump_json(trace_to_json(a.trace)) == dump_json(trace_to_json(b.trace))

    @pytest.mark.parametrize("stem", GOLDEN_ORACLE)
    def test_golden_traces(self, stem):
        triples, machines = GOLDEN_ORACLE[stem]
        inst = make_instance(triples, machines=machines)
        doc = {}
        for k in (1, 2, 3):
            res = brute_force_opt(inst, k=k)
            doc[str(k)] = dict(trace_to_json(res.trace), objective=str(res.objective))
        assert dump_json(doc) == (DATA / (stem + ".json")).read_text()

    @pytest.mark.parametrize("family,m", list(product(GOLDEN_FAMILIES, (1, 2, 3))))
    def test_golden_searches(self, family, m):
        golden = json.loads((DATA / "oracle_golden.json").read_text())
        expected = [r for r in golden if (r["family"], r["m"]) == (family, m)]
        assert golden_rows(family, m) == expected

    def test_golden_searches_cover_release_ties(self):
        # the file pins the tie-break between equal-remaining jobs of
        # different releases, which the k = 1 search key does not tell apart
        golden = json.loads((DATA / "oracle_golden.json").read_text())
        tied = [r for r in golden if r["k"] == 1 and has_release_tie(trace_from_json(r["trace"]))]
        assert len(tied) >= 20

    def test_rejects_non_integral(self):
        inst = make_instance([(0, 0, rat("3/2"))], machines=1)
        with pytest.raises(OracleError, match="non-integral data: job 0"):
            brute_force_opt(inst)

    def test_rejects_too_many_jobs(self):
        inst = make_instance([(i, 0, 1) for i in range(11)], machines=1)
        with pytest.raises(OracleError, match="limits exceeded: 11 jobs"):
            brute_force_opt(inst)

    def test_rejects_too_much_work(self):
        inst = make_instance([(0, 0, 41)], machines=1)
        with pytest.raises(OracleError, match="limits exceeded"):
            brute_force_opt(inst)

    def test_rejects_too_many_machines(self):
        inst = make_instance([(0, 0, 1)], machines=4)
        with pytest.raises(OracleError, match="limits exceeded"):
            brute_force_opt(inst)

    def test_bad_k(self):
        inst = make_instance([(0, 0, 1)], machines=1)
        with pytest.raises(OracleError, match="k must be an integer >= 1"):
            brute_force_opt(inst, k=0)

    def test_bool_k(self):
        # True == 1, but a bool is not a power k: no search runs
        inst = make_instance([(0, 0, 1)], machines=1)
        with pytest.raises(OracleError, match="k must be an integer >= 1"):
            brute_force_opt(inst, k=True)


def compositions(total):
    """Tuples of positive counts summing to `total`."""
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1) for rest in compositions(total - first)]


class TestActions:
    @pytest.mark.parametrize("total", range(1, 9))
    def test_matches_product_reference(self, total):
        for counts in compositions(total):
            for q in range(4):
                reference = sorted(
                    {t for t in product(*(range(c + 1) for c in counts)) if sum(t) == q}
                )
                assert list(_actions(counts, q)) == reference, (counts, q)


class TestSptTail:
    """The k = 1 search closes every state at or after the last release with
    SPT dealt round robin (McNaughton 1959)."""

    def test_hand_computed(self):
        # machine 0 runs works 1 then 3 and finishes them at 6 and 9,
        # machine 1 runs 2 then 4 and finishes them at 7 and 11
        assert _spt_completions(5, [1, 2, 3, 4], 2) == 6 + 7 + 9 + 11 == 33

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_matches_slot_search(self, m):
        # every multiset of at most 6 works of size 1-4
        for n in range(7):
            for works in combinations_with_replacement(range(1, 5), n):
                for t in (0, 5):
                    assert _spt_completions(t, list(works), m) == least_total_completion(t, works, m)

    @pytest.fixture
    def tail_calls(self, monkeypatch):
        calls = []

        def counted(t, works, m):
            calls.append((t, list(works), m))
            return _spt_completions(t, works, m)

        monkeypatch.setattr(oracle, "_spt_completions", counted)
        return calls

    def test_used_at_k1(self, tail_calls):
        # every job is released at 0, so the root state is closed at once:
        # works 1, 2 finish at 1, 3 on one machine and 2, 3 at 2, 5 on the other
        inst = make_instance([(0, 0, 3), (1, 0, 1), (2, 0, 2), (3, 0, 2)], machines=2)
        assert brute_force_opt(inst, k=1).objective == 11
        assert tail_calls[0] == (0, [1, 2, 2, 3], 2)

    @pytest.mark.parametrize("k", (2, 3))
    def test_never_used_at_higher_k(self, tail_calls, k):
        for seed in range(20):
            brute_force_opt(random_integer_instance(seed), k=k)
        brute_force_opt(make_instance([(0, 0, 3), (1, 0, 1), (2, 0, 2)], machines=2), k=k)
        assert tail_calls == []

    def test_spt_tail_is_not_optimal_at_k2(self):
        # at t = 10 the 2 units left of job 0 (age 10) and job 1 (size 1,
        # age 0) are all the work; running job 0 first pays 12^2 + 3^2 = 153,
        # SPT's order pays 1^2 + 13^2 = 170
        inst = make_instance([(0, 0, 12), (1, 10, 1)], machines=1)
        res = brute_force_opt(inst, k=2)
        assert res.objective == 153
        assert res.trace.completions == (12, 13)
        spt = brute_force_opt(inst, k=1).trace
        assert spt.completions == (13, 11)
        assert objectives(spt, ks=(2,)).kth_power_flow[2] == 170


def job_multisets(n):
    """Every multiset of n (release, size) jobs, releases 0-2, sizes 1-3."""
    return combinations_with_replacement(product(range(3), range(1, 4)), n)


class TestDominance:
    """The search tries only undominated take-vectors; every value and
    witness stays the one a search over every take-vector gives."""

    def test_single_machine_rule_is_wrong_at_two_machines(self):
        # all three jobs arrive at 2; starting the 2-unit job at once beside
        # a 1-unit one finishes jobs 0, 1, 2 at 4, 3, 4: 2^2 + 1^2 + 2^2 = 9
        inst = make_instance([(0, 2, 2), (1, 2, 1), (2, 2, 1)], machines=2)
        res = brute_force_opt(inst, k=2)
        assert res.objective == 9
        assert res.trace.completions == (4, 3, 4)
        # smallest first, what the single-machine rule would leave at m = 2
        # (the 2-unit class is dominated by the 1-unit class): the two
        # 1-unit jobs finish at 3, the 2-unit job at 5, paying 1 + 1 + 9 = 11
        srpt = simulate_srpt(inst, UNIT_SPEED)
        assert srpt.completions == (5, 3, 3)
        assert objectives(srpt, ks=(2,)).kth_power_flow[2] == 11
        # the search keeps the action that starts the 2-unit job at once
        root = [((1, 2), 2), ((2, 2), 1)]
        assert (1, 1) in _search_actions(root, 2, 2)

    @pytest.fixture
    def tried(self, monkeypatch):
        calls = []

        def recorded(classes, m, k):
            out = _search_actions(classes, m, k)
            calls.append((classes, list(out)))
            return out

        monkeypatch.setattr(oracle, "_search_actions", recorded)
        return calls

    def test_dominated_class_never_tried(self, tried):
        # m = 1, k = 2. At t = 1 job 0 (released at 0) has 2 units left,
        # job 1 (released at 1) 1 unit and job 2 (released at 1) 2 units;
        # job 2 is dominated by both. Job 1 then job 0 then job 2 pays
        # 1^2 + 4^2 + 5^2 = 42, job 0 first 3^2 + 3^2 + 5^2 = 43. The
        # undominated classes are tried in _actions order, the last class
        # first, so the first least of them is the first least of every
        # take-vector, and the witness is the one a full search gives
        inst = make_instance([(0, 0, 3), (1, 1, 1), (2, 1, 2)], machines=1)
        res = brute_force_opt(inst, k=2)
        assert res.objective == 42
        assert res.trace.completions == (4, 2, 6)
        assert [(s.start, s.end, s.assignment) for s in res.trace.segments] == [
            (0, 1, (0,)), (1, 2, (1,)), (2, 4, (0,)), (4, 6, (2,))]
        at_1 = [((1, 1), 1), ((2, 0), 1), ((2, 1), 1)]
        at_2 = [((2, 0), 1), ((2, 1), 1)]
        seen = dict((tuple(classes), actions) for classes, actions in tried)
        assert seen[tuple(at_1)] == [(0, 1, 0), (1, 0, 0)]
        assert seen[tuple(at_2)] == [(1, 0)]
        assert res.trace == reference_witness(inst, 2)
        # no tried take-vector runs a class that another class dominates
        for classes, actions in tried:
            for takes in actions:
                [i] = [pos for pos, take in enumerate(takes) if take]
                (rem, tag), _ = classes[i]
                assert not any((r, g) != (rem, tag) and r <= rem and g <= tag
                               for (r, g), _ in classes)
            order = _actions(tuple(cnt for _, cnt in classes), 1)
            assert actions == sorted(actions, key=order.index)

    def test_dominated_tie_followed_at_two_machines(self):
        # m = 2, k = 2. At t = 1 all three jobs have 2 units left; jobs 0
        # and 1 were released at 0, job 2 at 1. Running jobs 0 and 1, the
        # only action the search tries, finishes them at 3 and job 2 at 5:
        # 9 + 9 + 16 = 34. Running jobs 0 and 2 ties: then jobs 0 and 1,
        # then jobs 1 and 2, finishing at 3, 4, 4: 9 + 16 + 9 = 34. _actions
        # lists (1, 1) first, so the witness takes it, as only a replay
        # trying every take-vector can
        inst = make_instance([(0, 0, 3), (1, 0, 3), (2, 1, 2)], machines=2)
        res = brute_force_opt(inst, k=2)
        assert res.objective == 34
        assert res.trace.completions == (3, 4, 4)
        assert res.trace == reference_witness(inst, 2)
        assert list(_search_actions([((2, 0), 2), ((2, 1), 1)], 2, 2)) == [(2, 0)]

    def test_k1_single_machine_tries_the_least_work(self, tried):
        brute_force_opt(make_instance([(0, 0, 3), (1, 1, 1), (2, 1, 2), (3, 2, 1)], machines=1), k=1)
        assert tried
        for classes, actions in tried:
            assert actions == [(1,) + (0,) * (len(classes) - 1)]

    @pytest.mark.parametrize("counts,runs", [((2, 1, 1), [(3, 0), (3, 2), (5, 1)]),
                                             ((1, 2, 2), [(1, 0), (1, 1), (1, 3)])])
    def test_older_first_within_equal_work(self, counts, runs):
        # m >= 2, k >= 2: a younger class of a work runs only once every
        # older class of that work runs in full
        classes = list(zip(runs, counts))
        for m in (2, 3):
            tried = _search_actions(classes, m, 2)
            full = _actions(counts, min(m, sum(counts)))
            assert set(tried) <= set(full)
            for takes in full:
                ok = all(takes[i + 1] == 0 or takes[i] == counts[i]
                         for i in range(len(classes) - 1) if runs[i][0] == runs[i + 1][0])
                assert (takes in tried) == ok, (m, takes)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_dominated_action_is_strictly_worse_at_one_machine(self, k):
        # every state of at most 5 alive jobs at t = 3, works 1-4, tags 0-2
        # (0 alone at k = 1, as the search keys them), none still to arrive:
        # running a dominated class costs strictly more than the best action,
        # so the first least of the undominated ones is the first least of all
        value = slot_value([], 1, k)
        tags = (0, 1, 2) if k >= 2 else (0,)
        checked = 0
        for n in range(1, 6):
            for alive in combinations_with_replacement(product(range(1, 5), tags), n):
                cands = {}
                for rem, tag in set(alive):
                    rest = list(alive)
                    rest.remove((rem, tag))
                    paid = (4 - tag) ** k if rem == 1 else 0
                    cands[rem, tag] = paid + value(4, tuple(sorted(rest + ([(rem - 1, tag)] if rem > 1 else []))))
                best = min(cands.values())
                for (rem, tag), cand in cands.items():
                    if any((r, g) != (rem, tag) and r <= rem and g <= tag for r, g in cands):
                        assert cand > best, (alive, rem, tag)
                        checked += 1
        assert checked == {1: 155, 2: 12997, 3: 12997}[k]

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_matches_unpruned_search(self, m, k):
        # every instance of at most 4 jobs, sizes 1-3, releases 0-2
        for n in range(1, 5):
            for jobs in job_multisets(n):
                inst = make_instance([(i, r, p) for i, (r, p) in enumerate(jobs)], machines=m)
                assert brute_force_opt(inst, k=k).objective == slot_search_opt(inst, k), jobs


def class_configurations(total, works=4, per_work=3):
    """Every list of ((work, 0), count) classes ascending by work, with at
    most `per_work` classes (distinct releases) of one work and `total`
    jobs in all, as the k = 1 replay builds them."""
    if total == 0:
        return [[]]
    if works == 0:
        return []
    out = []
    for here in range(total + 1):
        for parts in compositions(here):
            if len(parts) <= per_work:
                mine = [((works, 0), cnt) for cnt in parts]
                out.extend(rest + mine for rest in class_configurations(total - here, works - 1, per_work))
    return out


def first_least_tail_takes(classes, m, t=0):
    """The first take-vector of _actions whose payment plus SPT's closed
    form from t + 1 is least, as a search of the slot at t would find it."""
    counts = tuple(cnt for _, cnt in classes)
    best = None
    for takes in _actions(counts, min(m, sum(counts))):
        paid, rest = 0, []
        for ((rem, _), cnt), take in zip(classes, takes):
            rest += [rem] * (cnt - take)
            if rem == 1:
                paid += take * (t + 1)
            else:
                rest += [rem - 1] * take
        cand = paid + _spt_completions(t + 1, sorted(rest), m)
        if best is None or cand < best:
            best, chosen = cand, takes
    return chosen


def tail_jobs(classes):
    """The jobs of a class configuration as _spt_tail takes them,
    (remaining, -release, id) ascending: the classes of one work are
    released at 0, 1, ... in their listed order, and ids go up in it."""
    jobs, jid = [], 0
    for (work, _), grp in groupby(classes, key=lambda c: c[0]):
        for release, (_, cnt) in enumerate(grp):
            for _ in range(cnt):
                jobs.append((work, -release, jid))
                jid += 1
    return sorted(jobs)


@cache
def cached_first_least(classes, m):
    return first_least_tail_takes(list(classes), m)


def first_least_tail_slots(jobs, m):
    """The ids each slot runs when every slot takes first_least_tail_takes
    over the alive (remaining, release) classes, ascending, each class
    running its lowest ids, from the (remaining, -release, id) `jobs`."""
    alive = sorted((rem, -order, jid) for rem, order, jid in jobs)
    slots = []
    while alive:
        classes = [(key, len(list(grp))) for key, grp in groupby(alive, key=lambda j: j[:2])]
        takes = cached_first_least(tuple(((rem, 0), cnt) for (rem, _), cnt in classes), m)
        ran, nxt, i = [], [], 0
        for (_, cnt), take in zip(classes, takes):
            ran += [jid for _, _, jid in alive[i:i + take]]
            nxt += [(rem - 1, r, jid) for rem, r, jid in alive[i:i + take] if rem > 1]
            nxt += alive[i + take:i + cnt]
            i += cnt
        slots.append(sorted(ran))
        alive = sorted(nxt)
    return slots


class TestTailRule:
    """The k = 1 replay lays out every slot at or after the last release
    with _spt_tail, which must run in each slot what trying every
    take-vector there would."""

    def test_hand_computed(self):
        # works 1, 2, 2, 3, 4 (ids 0-4; job 2 released after job 1) on
        # m = 2: N = 5, r = 1, so the smallest runs, and one of positions
        # 2-3 (works 2, 2): the later release, job 2
        jobs = [(1, 0, 0), (2, -1, 2), (2, 0, 1), (3, 0, 3), (4, 0, 4)]
        assert next(_spt_tail(7, list(jobs), 2)) == (7, 8, [0, 2], [0])
        # N = 4, r = 0: the two smallest
        assert next(_spt_tail(7, jobs[:4], 2)) == (7, 8, [0, 2], [0])
        # N = 5, m = 3, r = 2: positions 1-2 (works 1, 2) and position 5 (work 4)
        assert next(_spt_tail(7, list(jobs), 3)) == (7, 8, [0, 2, 4], [0])
        # N <= m: every job runs, until the first of them finishes
        assert next(_spt_tail(7, jobs[:2], 3)) == (7, 8, [0, 2], [0])
        assert next(_spt_tail(7, jobs[1:3], 3)) == (7, 9, [1, 2], [2, 1])
        # N = 4, r = 0 on m = 2 (works 2, 2, 3, 4): jobs 2 and 1 until both finish
        assert next(_spt_tail(7, jobs[1:], 2)) == (7, 9, [1, 2], [2, 1])
        # m = 1: each job runs whole, smallest first
        assert list(_spt_tail(7, jobs[:3], 1)) == [(7, 8, (0,), (0,)), (8, 10, (2,), (2,)),
                                                     (10, 12, (1,), (1,))]

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_matches_enumeration(self, m):
        # every configuration of at most 8 jobs, works 1-4, up to 3 classes
        # (releases) of one work, slot by slot to the end
        checked = 0
        for total in range(1, 9):
            for classes in class_configurations(total):
                jobs = tail_jobs(classes)
                slots, finished = [], {}
                for start, end, ids, done in _spt_tail(0, list(jobs), m):
                    slots += [sorted(ids)] * (end - start)
                    finished.update(dict.fromkeys(done, end))
                expected = first_least_tail_slots(jobs, m)
                assert slots == expected, classes
                assert finished == {jid: 1 + max(t for t, ids in enumerate(expected) if jid in ids)
                                    for _, _, jid in jobs}
                checked += 1
        assert checked == 7425

    def test_replay_lays_out_the_tail_once(self, monkeypatch):
        # at k = 1 the replay hands the alive jobs at the last release to
        # one _spt_tail call and takes every later slot from it
        calls = []

        def recorded(t, jobs, m):
            calls.append((t, list(jobs)))
            return _spt_tail(t, jobs, m)

        monkeypatch.setattr(oracle, "_spt_tail", recorded)
        inst = make_instance([(0, 0, 3), (1, 0, 1), (2, 0, 2), (3, 0, 2)], machines=2)
        res = brute_force_opt(inst, k=1)
        assert res.objective == 11
        assert calls == [(0, [(1, 0, 1), (2, 0, 2), (2, 0, 3), (3, 0, 0)])]
        assert res.trace == reference_witness(inst, 1)
        # a job arriving at 2: the slots before it come from the search
        calls.clear()
        inst = make_instance([(0, 0, 3), (1, 0, 1), (2, 2, 2)], machines=1)
        res = brute_force_opt(inst, k=1)
        assert calls == [(2, [(2, -2, 2), (2, 0, 0)])]
        assert res.trace == reference_witness(inst, 1)


@st.composite
def small_instances(draw):
    """Integral instances of 1-8 jobs on 1-3 machines, sizes 1-3: releases
    0-4, so that alive jobs often tie on remaining work, or all at 0, so
    that the k = 1 replay is all tail."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    all_at_0 = draw(st.booleans())
    triples = [(i, 0 if all_at_0 else draw(st.integers(0, 4)), draw(st.integers(1, 3))) for i in range(n)]
    return make_instance(triples, machines=m)


class TestReferenceWitness:
    """brute_force_opt's witness is the one a replay trying every
    take-vector in each slot gives (tests/helpers.py:reference_witness)."""

    @pytest.mark.parametrize("k", (1, 2, 3))
    @settings(max_examples=150)
    @given(inst=small_instances())
    def test_matches_reference(self, k, inst):
        assert trace_to_json(brute_force_opt(inst, k).trace) == trace_to_json(reference_witness(inst, k))

    @pytest.mark.parametrize("stem", GOLDEN_ORACLE)
    def test_golden_ties(self, stem):
        triples, machines = GOLDEN_ORACLE[stem]
        inst = make_instance(triples, machines=machines)
        for k in (1, 2, 3):
            assert brute_force_opt(inst, k).trace == reference_witness(inst, k)


class TestNoLastingCache:
    def test_only_actions_is_cached(self):
        # a cache keyed by shape is the only one in the module; one keyed by
        # instance data would outlive the call that filled it
        tree = ast.parse(inspect.getsource(oracle))
        cached = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("cache", "lru_cache", "cached_property"):
                        cached.append(node.name)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("cache", "lru_cache"):
                    cached.append("call at line %d" % node.lineno)
        assert cached == ["_actions"]


class TestRelaxationBound:
    """The oracle's value from below on m >= 2, where it is only an upper
    bound on the preemptive optimum: the pooled-machine bound of
    tests/helpers.py never exceeds it."""

    def test_pooled_machine_example(self):
        inst = make_instance([(0, 0, 2), (1, 0, 2), (2, 0, 2)], machines=2)
        lb = single_machine_relaxation_lb(inst)
        assert lb == 6
        assert lb <= brute_force_opt(inst, k=1).objective

    def test_single_job(self):
        inst = make_instance([(0, 0, 5)], machines=2)
        assert single_machine_relaxation_lb(inst) == rat("5/2")

    def test_empty(self):
        assert single_machine_relaxation_lb(make_instance([], machines=3)) == 0

    @pytest.mark.parametrize("seed", range(100))
    def test_sandwich(self, seed):
        inst = random_integer_instance(seed)
        lb = single_machine_relaxation_lb(inst)
        assert lb <= brute_force_opt(inst, k=1).objective


class TestSingleMachineExactness:
    @pytest.mark.parametrize("seed", range(100))
    def test_equals_unit_srpt(self, seed):
        inst = random_integer_instance(seed, max_machines=1)
        opt = brute_force_opt(inst, k=1).objective
        srpt = objectives(simulate_srpt(inst, UNIT_SPEED)).total_flow
        assert opt == srpt


if __name__ == "__main__":
    # regenerate the golden file: PYTHONPATH=src python tests/test_oracle.py
    rows = [row for family, m in product(GOLDEN_FAMILIES, (1, 2, 3)) for row in golden_rows(family, m)]
    (DATA / "oracle_golden.json").write_text(
        "[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]\n"
    )
