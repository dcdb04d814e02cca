"""The invariant suite itself: green on healthy code, red under injected faults."""

from dataclasses import replace

import pytest

from mpmd.engine import HEMISPHERE, Policy, simulate
from mpmd.instances import gen_random
from mpmd.verify import Tally, check_cost_scaling, random_suite, run_verify


@pytest.mark.parametrize("max_m", [0, 1])
def test_random_suite_rejects_max_m_below_two(max_m):
    with pytest.raises(ValueError, match="max_m must be >= 2"):
        random_suite(3, max_m)


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
