"""The invariant suite itself: green on healthy code, red under injected faults."""

import hashlib
import inspect
import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import pytest

from mpmd import verify
from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    REQUEST_COUNT_MAX,
    Instance,
    Policy,
    RunReport,
    simulate,
)
from mpmd.instances import gen_random
from mpmd.oracle import (
    Cycle,
    Matching,
    cycle_decompose,
    matching_from_records,
    opt_bipartite,
    opt_general,
)
from mpmd.verify import VERIFY_COUNT_MAX, Tally, check_cost_scaling, random_suite, run_verify

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("max_m", [0, 1])
def test_random_suite_rejects_max_m_below_two(max_m):
    with pytest.raises(
        ValueError, match=f"^max_m must be an integer from 2 to {REQUEST_COUNT_MAX}, got {max_m}$"
    ):
        random_suite(3, max_m)


def test_random_suite_builds_one_instance_at_a_time(deadline):
    # At both caps a list of every instance would hold about 41 million
    # requests; the first of them comes at once.
    suite = random_suite(VERIFY_COUNT_MAX, REQUEST_COUNT_MAX)
    label, instance = next(suite)
    assert label == "random[0] m=2 line" and instance.size == 2
    assert [label for label, _ in random_suite(4, 4)] == [
        "random[0] m=2 line", "random[1] m=4 euclidean", "random[2] m=2 finite",
        "random[3] m=4 line",
    ]
    assert list(random_suite(6, 8, seed=5)) == list(random_suite(6, 8, seed=5))


def test_small_run_all_green():
    results = run_verify(count=12, max_m=8, eps_list=(0.5, 1.0), seed=3)
    assert results
    assert all(r.ok for r in results)
    names = {r.name for r in results}
    for expected in (
        "cost_scaling",
        "perfect_matching",
        "determinism",
        "oracle_agreement",
        "realize_online_identity",
        "restriction_property",
        "cycle_ratio_bound",
        "recurrence_bound",
        "last_pair_inequality",
        "cascade_pair_list",
        "f_lower_bound",
        "io_roundtrip",
    ):
        assert expected in names


def test_default_run_matches_the_golden_tallies():
    # The benchmark's verify workload digests these tallies; a refactor that
    # reorders or recounts a check fails here first.
    results = run_verify()
    tallies = json.dumps([[r.name, r.passed, r.failed] for r in results])
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["verify"]["run-verify"]
    assert hashlib.sha256(tallies.encode("utf-8")).hexdigest() == golden


def test_injected_cost_fault_is_caught():
    # Mis-wiring the rate to 2*eps in the online cost must break the
    # scaling identity check.
    inst = gen_random(8, seed=1, metric="line")
    report = simulate(inst, Policy(HEMISPHERE, 1.0))
    doctored = replace(
        report, online_cost=(1.0 + 2.0 / (2.0 * 1.0)) * report.offline_weight
    )
    tally = Tally()
    check_cost_scaling(tally, doctored, "doctored")
    assert tally.check("cost_scaling").failed == 1
    check_cost_scaling(tally, report, "healthy")
    assert tally.check("cost_scaling").passed == 1


def test_tally_collects_details():
    tally = Tally()
    check = tally.check("example")
    check.record(True)
    check.record(False, "first failure")
    check.record(False, "second failure")
    assert check.passed == 1
    assert check.failed == 2
    assert check.details == ["first failure", "second failure"]
    assert not tally.all_ok


@dataclass(frozen=True)
class Case:
    """One eps = 1 hemisphere run with its variant's optimum and their cycles."""

    instance: Instance
    report: RunReport
    alg: Matching
    opt: Matching
    cycles: tuple[Cycle, ...]
    label: str = "case"


def _case(instance: Instance, kind: str) -> Case:
    report = simulate(instance, Policy(kind, 1.0))
    alg = matching_from_records(report.records, instance)
    opt = opt_bipartite(instance) if instance.bipartite else opt_general(instance)
    return Case(instance, report, alg, opt, cycle_decompose(alg, opt, instance))


# Monochromatic: alg is 1.48 times opt; its cycles are a shared pair and a
# 6-cycle.  Bipartite: alg and opt differ on one 4-cycle.
MONO = _case(gen_random(8, 8, metric="line"), HEMISPHERE)
BIP = _case(gen_random(4, 13, metric="line", bipartite=True), HEMISPHERE_BIPARTITE)


def _with(**edits):
    """Doctor: each named field of the case becomes ``edit(case)``."""
    return lambda case, _mp: replace(case, **{k: edit(case) for k, edit in edits.items()})


def _records(edit):
    return _with(report=lambda c: replace(c.report, records=tuple(edit(c.report.records))))


_LAST_TWO_SWAPPED = _records(lambda r: (*r[:-2], r[-1], r[-2]))


def _cycle(index, edit):
    """Doctor: cycle ``index`` gets the vertices ``edit(vertices, case)``."""

    def cycles(case):
        edited = list(case.cycles)
        edited[index] = replace(edited[index], vertices=tuple(edit(edited[index].vertices, case)))
        return tuple(edited)

    return _with(cycles=cycles)


def _last_pair_traded(vertices, case):
    """The last pair's two endpoints trade places in the cycle."""
    last = case.report.records[-1]
    swap = {last.p: last.q, last.q: last.p}
    return [swap.get(v, v) for v in vertices]


def _pairs_in_order(case, key):
    requests = sorted(case.instance.requests, key=key)
    pairs = [(requests[i].id, requests[i + 1].id) for i in range(0, len(requests), 2)]
    return Matching.from_pairs(pairs, case.instance)


def _time_shifted(requests):
    """The requests with the first one arriving a unit later."""
    first = requests[0]
    shifted = replace(first, point=replace(first.point, time=first.time + 1.0))
    return (shifted, *requests[1:])


def _patched(name, edit):
    """Doctor: the verify module's ``name`` returns ``edit`` of its output."""

    def doctor(case, mp):
        real = getattr(verify, name)
        mp.setattr(verify, name, lambda *args: edit(real(*args), case))
        return case

    return doctor


# (doctoring, check, case, doctor, failures): the check passes on the healthy
# case and records exactly ``failures`` on the doctored one.  A doctored
# report also differs from its own re-run: ``determinism`` fails as well.
DOCTORED = [
    ("dropped-record", verify.check_run_basics, MONO, _records(lambda r: r[:-1]),
     {"perfect_matching": 1, "determinism": 1}),
    ("match-before-arrival", verify.check_run_basics, MONO,
     _records(lambda r: (replace(r[0], match_time=-1.0), *r[1:])),
     {"monotone_feasibility": 1, "determinism": 1}),
    # At eps = 1 a rate wired to 2 eps costs (1 + 2/(2 eps)) = 2 times offline.
    ("rate-2eps", verify.check_cost_scaling, MONO,
     _with(report=lambda c: replace(c.report, online_cost=2.0 * c.report.offline_weight)),
     {"cost_scaling": 1}),
    ("last-two-swapped", verify.check_last_pair_inequality, MONO, _LAST_TWO_SWAPPED,
     {"last_pair_inequality": 1}),
    ("bipartite-last-two-swapped", verify.check_last_pair_inequality, BIP, _LAST_TWO_SWAPPED,
     {"bipartite_last_pair_inequality": 1}),
    ("cycle-removed", verify.check_decomposition, MONO,
     _with(cycles=lambda c: c.cycles[1:]),
     {"cycle_cover": 1, "cycle_lengths": 1}),
    ("cycle-rotated", verify.check_decomposition, MONO, _cycle(1, lambda v, _c: v[1:] + v[:1]),
     {"cycle_alternation": 1}),
    ("same-color-opt-pair", verify.check_bipartite_colors, BIP,
     _with(opt=lambda c: _pairs_in_order(c, lambda r: (r.color, r.id))),
     {"bipartite_opt_crossing": 1}),
    ("cycle-neighbours-swapped", verify.check_bipartite_colors, BIP,
     _cycle(0, lambda v, _c: (v[1], v[0], *v[2:])), {"bipartite_cycle_alternation": 1}),
    ("last-pair-traded-in-cycle", verify.check_single_cycle_color_pattern, BIP,
     _cycle(0, _last_pair_traded), {"single_cycle_color_pattern": 1}),
    ("non-optimal-oracle", verify.check_oracles, MONO,
     _patched("opt_general", lambda _opt, c: _pairs_in_order(c, lambda r: r.id)),
     {"oracle_agreement": 1}),
    ("alg-opt-swapped", verify.check_optimality_lower_bound, MONO,
     _with(alg=lambda c: c.opt, opt=lambda c: c.alg), {"optimality_lower_bound": 1}),
    ("cycles-of-another-matching", verify.check_restriction, MONO,
     _with(cycles=lambda c: cycle_decompose(c.opt, c.opt, c.instance)),
     {"restriction_property": 1}),
    ("alg-weight-inflated", verify.check_recurrence_bound, MONO,
     _with(alg=lambda c: replace(c.alg, weight=100.0 * c.alg.weight)), {"recurrence_bound": 1}),
    ("alg-not-the-runs-matching", verify.check_cycles, MONO, _with(alg=lambda c: c.opt),
     {"restriction_property": 1}),
    ("last-value-zeroed", partial(verify.check_recurrence_table, gammas=(3.0,), k_max=8), MONO,
     _patched("eval_f", lambda f, _c: replace(f, values=(*f.values[:-1], 0.0))),
     {"f_lower_bound": 1}),
    ("a-doubled", partial(verify.check_recurrence_closed_form, eps_list=(1.0,), i_max=5), MONO,
     _patched("recurrence_ab", lambda ab, _c: (2.0 * ab[0], ab[1])),
     {"recurrence_closed_form": 1}),
    ("pair-list-reversed",
     partial(verify.check_lower_bound_family, k_values=(2,), eps_list=(1.0,)), MONO,
     _patched("expected_lower_bound_result", lambda pw, _c: (pw[0][::-1], pw[1])),
     {"cascade_pair_list": 1}),
    ("one-row-shortened", partial(verify.check_two_point_rows_family, m_values=(8,)), MONO,
     _patched("gen_two_point_rows", lambda i, _c: replace(i, requests=i.requests[:-2])),
     {"two_point_rows_balanced": 1}),
    ("requests-retimed",
     partial(verify.check_io_roundtrip, instances=[("case", MONO.instance)]), MONO,
     _patched("instance_from_dict", lambda i, _c: replace(i, requests=_time_shifted(i.requests))),
     {"io_roundtrip": 1}),
]


def _name(check) -> str:
    return getattr(check, "func", check).__name__


def _failures(check, case) -> dict[str, int]:
    """Failures by name of ``check`` run on the case fields its signature names."""
    tally = Tally()
    names = inspect.signature(check).parameters
    check(tally, **{n: getattr(case, n) for n in names if n != "tally" and hasattr(case, n)})
    assert tally.results(), "the check recorded nothing"
    return {c.name: c.failed for c in tally.results() if c.failed}


@pytest.mark.parametrize(
    "check, case, doctor, failures",
    [row[1:] for row in DOCTORED],
    ids=[f"{_name(row[1])}-{row[0]}" for row in DOCTORED],
)
def test_check_passes_healthy_and_fails_doctored_input(monkeypatch, check, case, doctor, failures):
    assert _failures(check, case) == {}
    assert _failures(check, doctor(case, monkeypatch)) == failures


def test_every_check_has_a_doctored_input():
    tabled = {_name(row[1]) for row in DOCTORED}
    assert tabled == {name for name in vars(verify) if name.startswith("check_")}
