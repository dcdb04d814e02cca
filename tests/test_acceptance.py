"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math

from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_MIN,
    Policy,
    simulate,
)
from mpmd.harness import eval_f, sweep, theoretical_bound
from mpmd.instances import (
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
)
from mpmd.oracle import matching_from_records, opt_bipartite, opt_general
from mpmd.verify import (
    Tally,
    check_cost_scaling,
    check_cycles,
    check_last_pair_inequality,
    check_lower_bound_family,
    check_oracles,
    check_recurrence_bound,
    check_recurrence_table,
    random_suite,
)

from helpers import assert_all_ok

EPS_GRID = (0.1, 0.5, 1.0, 2.0)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number}] {status}  {name}{suffix}")


def _report_tally(number: int, name: str, tally: Tally) -> None:
    """Print the criterion line from the tally and assert every check passed."""
    counts = ", ".join(f"{c.name} {c.passed}/{c.passed + c.failed}" for c in tally.results())
    _report(number, name, tally.all_ok, counts)
    assert_all_ok(tally)


def test_criterion_1_cost_scaling_identity():
    """Online cost equals (1 + 2/eps) times offline weight on every hemisphere run."""
    cases = list(random_suite(200, 12, seed=31_000))
    cases += [
        (f"cascade k={k} eps={eps}", gen_lower_bound(LowerBoundParams(k=k, epsilon=eps)))
        for eps in EPS_GRID
        for k in range(1, 9)
    ]
    cases += [
        (f"rows m={m}", gen_two_point_rows(TwoPointRowsParams(m=m, delta=1.0 / m)))
        for m in (8, 16, 32, 64)
    ]
    tally = Tally()
    for label, inst in cases:
        for eps in EPS_GRID:
            for kind in [HEMISPHERE] + ([HEMISPHERE_BIPARTITE] if inst.bipartite else []):
                report = simulate(inst, Policy(kind, eps))
                check_cost_scaling(tally, report, f"{label} {kind} eps={eps}")
    _report_tally(1, "cost scaling identity", tally)


def test_criterion_2_oracle_equivalence():
    """Subset DP equals brute force, and realizing the optimum costs its weight."""
    tally = Tally()
    for idx in range(200):
        m = 2 * (1 + idx % 5)
        metric = ("line", "euclidean", "finite")[idx % 3]
        check_oracles(tally, gen_random(m, 45_000 + idx, metric=metric), f"instance {idx}")
    _report_tally(2, "oracle equivalence", tally)


def test_criterion_3_cascade_reproduction():
    """The cascade family reproduces its adversarial pair list and weight."""
    tally = Tally()
    check_lower_bound_family(tally, k_values=range(1, 9), eps_list=(1.0,), eta=1e-6)
    _report_tally(3, "cascade family reproduction", tally)


def test_criterion_4_cascade_growth_rate():
    """Fitted log-log slope of the cascade offline ratio over k = 4..10.

    The stated target is the asymptotic exponent log2(5/4) with a +/-0.05
    window.  The measured ratios follow 2 * (5/4)**(k-1) - 1 exactly, whose
    least-squares slope over this finite range is 0.375, slightly above the
    window; the assertion states the criterion as written.
    """
    result = sweep("lower-bound", range(4, 11), epsilon=1.0)
    target = math.log2(5.0 / 4.0)
    ok = abs(result.slope - target) <= 0.05
    # log2(r(k+1) / r(k)) for k = 4..9: the slope between neighbouring rows,
    # which approaches the target as k grows.
    ratios = [row.ratio_offline for row in result.rows]
    local = " ".join(f"{math.log2(b / a):.4f}" for a, b in zip(ratios, ratios[1:]))
    _report(
        4,
        "cascade growth-rate slope",
        ok,
        f"fitted slope {result.slope:.4f}, target {target:.4f} +/- 0.05; "
        f"local slopes k=4..9: {local}",
    )
    assert ok, (
        f"fitted slope {result.slope:.6f} outside {target:.6f} +/- 0.05; the "
        "finite-range slope of 2*(5/4)**(k-1) - 1 is 0.375, so the stated "
        "window excludes the exact value of the quantity it measures"
    )


def test_criterion_5_recurrence_upper_bound():
    """Offline ratio never exceeds 2/f(m) on seeded instances (gamma = 3 + eps)."""
    tally = Tally()
    for idx in range(1000):
        m = 2 * (1 + idx % 6)
        metric = ("line", "euclidean", "finite")[idx % 3]
        inst = gen_random(m, 77_000 + idx, metric=metric)
        opt = opt_general(inst)
        for eps in (0.5, 1.0, 2.0):
            report = simulate(inst, Policy(HEMISPHERE, eps))
            alg = matching_from_records(report.records, inst)
            check_recurrence_bound(tally, inst, report, alg, opt, f"instance {idx} eps={eps}")
    _report_tally(5, "offline ratio upper bound", tally)


def test_criterion_6_recurrence_lower_bound():
    """f(2k) >= (2/gamma)**log2(k), with equality at gamma=4 on powers of two."""
    tally = Tally()
    check_recurrence_table(tally, gammas=(2.5, 3.0, 4.0, 5.0), k_max=512)
    table4 = eval_f(1024, 4.0)
    for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        equal = table4.value(2 * k) == 0.5 ** math.log2(k)
        tally.check("f_power_of_two_equality").record(equal, f"gamma=4: f({2 * k}) != 2**-log2({k})")
    _report_tally(6, "recurrence table lower bound", tally)


def test_criterion_7_two_point_rows_separation():
    """Space-only growth degrades linearly while hemisphere growth stays bounded."""
    no_time = sweep("appendix-b", [16, 32, 64, 128], epsilon=1.0, policy_kind=NOTIME_MIN)
    rows = no_time.rows
    doublings = [
        rows[i].ratio_online / rows[i - 1].ratio_online for i in range(1, len(rows))
    ]
    top_two = doublings[-2:]
    linear_ok = all(1.7 <= d <= 2.3 for d in top_two)
    hemisphere = sweep("appendix-b", [16, 32, 64, 128], epsilon=1.0, policy_kind=HEMISPHERE)
    bounded_ok = all(
        row.ratio_offline <= theoretical_bound(row.m, 1.0) + 1e-9
        for row in hemisphere.rows
    )
    ok = linear_ok and bounded_ok
    _report(
        7,
        "two-point rows separation",
        ok,
        f"top doublings {[f'{d:.3f}' for d in top_two]}, hemisphere bounded {bounded_ok}",
    )
    assert ok


def test_criterion_8_structural_invariants():
    """Cycle structure, restriction property, last-pair inequalities, tie rule."""
    cases = list(random_suite(200, 12, seed=90_000))
    # Small bipartite instances disagree with their optimum often enough to
    # exercise the single-cycle color pattern densely.
    for idx in range(120):
        inst = gen_random(4 + 2 * (idx % 3), 91_000 + idx, metric="euclidean", bipartite=True)
        cases.append((f"bipartite[{idx}]", inst))
    tally = Tally()
    for case, inst in cases:
        kind = HEMISPHERE_BIPARTITE if inst.bipartite else HEMISPHERE
        opt = opt_bipartite(inst) if inst.bipartite else opt_general(inst)
        for eps in (0.5, 1.0, 2.0):
            report = simulate(inst, Policy(kind, eps))
            label = f"{case} {kind} eps={eps}"
            check_last_pair_inequality(tally, inst, report, label)
            alg = matching_from_records(report.records, inst)
            check_cycles(tally, inst, report, alg, opt, label)
    # The unperturbed cascade is all ties: only the id rule decides its pairs.
    check_lower_bound_family(tally, k_values=range(1, 9), eps_list=(0.5, 1.0, 2.0), eta=0.0)
    _report_tally(8, "structural invariants", tally)
    assert tally.check("single_cycle_color_pattern").passed > 0
