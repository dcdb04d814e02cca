"""Cross-module invariant suite over seeded random instances and both families.

Each check records pass/fail counts per case in a ``Tally``; the CLI turns a
failure into a nonzero exit status.  Each invariant is written once, in the
check named beside it, and the tests check through these functions too:

* feasibility, perfect cover and determinism of a run: ``check_run_basics``;
* a hemisphere run's online cost is (1 + 2/eps) times its offline weight:
  ``check_cost_scaling``;
* the last two pairs obey the (1 + eps) proximity inequalities, color
  conditioned on bipartite runs: ``check_last_pair_inequality``;
* the exact oracles agree with brute force and realize online at exactly
  their weight (``check_oracles``) and lower-bound every policy's matching
  (``check_optimality_lower_bound``);
* ``check_cycles`` runs every cycle invariant of a hemisphere run: the
  alternating cycles are well formed and bound the weight ratio by the worst
  cycle (``check_decomposition``), each re-simulates to its own edges
  (``check_restriction``), the offline ratio is at most 2/f(m)
  (``check_recurrence_bound``), and on bipartite runs optimal edges and
  cycles alternate colors (``check_bipartite_colors``) and a single cycle
  shows the color pattern of the last two pairs
  (``check_single_cycle_color_pattern``);
* the recurrence table (``check_recurrence_table``) and closed form
  (``check_recurrence_closed_form``), both adversarial families
  (``check_lower_bound_family``, ``check_two_point_rows_family``) and the
  file format (``check_io_roundtrip``) reproduce their stated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_EARLY,
    NOTIME_LATE,
    NOTIME_MIN,
    REQUEST_COUNT_MAX,
    Instance,
    Policy,
    RunReport,
    simulate,
)
from mpmd.instances import (
    DEFAULT_ETA,
    LowerBoundParams,
    TwoPointRowsParams,
    expected_lower_bound_result,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
    instance_from_dict,
    instance_to_dict,
    recurrence_ab,
    recurrence_ab_closed_form,
)
from mpmd.metric import require_int, validate_metric
from mpmd.oracle import (
    BRUTE_FORCE_MAX,
    GENERAL_OPT_MAX,
    Cycle,
    Matching,
    brute_force_opt,
    cycle_decompose,
    matching_from_records,
    opt_bipartite,
    opt_general,
    realize_online,
    restriction_check,
)
from mpmd.harness import eval_f, theoretical_bound, within_bound

REL_TOL = 1e-9
ABS_TOL = 1e-9
MAX_FAILURE_DETAILS = 5
# The most instances ``random_suite`` builds.  It builds them one at a time,
# so a run holds one instance at once however many it checks; at max_m=12 a
# check took about 3 ms (2,000 in 6.1 s on a shared 2-vCPU Xeon VM), so a
# run at the cap takes about half a minute.
VERIFY_COUNT_MAX = 10_000


@dataclass
class CheckResult:
    """Tally of one named invariant across all cases it was evaluated on."""

    name: str
    passed: int = 0
    failed: int = 0
    details: list[str] = field(default_factory=list)

    def record(self, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if detail and len(self.details) < MAX_FAILURE_DETAILS:
                self.details.append(detail)

    @property
    def ok(self) -> bool:
        return self.failed == 0


class Tally:
    """Ordered collection of named check results."""

    def __init__(self) -> None:
        self._checks: dict[str, CheckResult] = {}

    def check(self, name: str) -> CheckResult:
        if name not in self._checks:
            self._checks[name] = CheckResult(name=name)
        return self._checks[name]

    def results(self) -> list[CheckResult]:
        return list(self._checks.values())

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self._checks.values())


def _rel_close(value: float, reference: float, rel: float = REL_TOL) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def check_run_basics(tally: Tally, instance: Instance, report: RunReport, label: str) -> None:
    """Perfect-matching cover, feasibility, delays, and determinism of a run."""
    by_id = instance.by_id
    covered = sorted(i for rec in report.records for i in (rec.p, rec.q))
    tally.check("perfect_matching").record(
        covered == list(by_id) and len(report.records) * 2 == len(by_id),
        f"{label}: records do not cover ids exactly once",
    )
    feasible = all(
        rec.match_time >= max(by_id[rec.p].time, by_id[rec.q].time) - ABS_TOL
        and rec.delay_p >= -ABS_TOL
        and rec.delay_q >= -ABS_TOL
        for rec in report.records
    )
    tally.check("monotone_feasibility").record(
        feasible, f"{label}: a match precedes an arrival"
    )
    rerun = simulate(instance, report.policy)
    tally.check("determinism").record(
        rerun == report, f"{label}: repeated simulation differs"
    )


def check_cost_scaling(tally: Tally, report: RunReport, label: str) -> None:
    """Hemisphere online cost is exactly (1 + 2/eps) times the offline weight."""
    expected = (1.0 + 2.0 / report.policy.epsilon) * report.offline_weight
    tally.check("cost_scaling").record(
        _rel_close(report.online_cost, expected),
        f"{label}: online {report.online_cost!r} vs (1+2/eps)*offline {expected!r}",
    )


def _last_two_oriented(instance: Instance, report: RunReport):
    """((a, b), (c, d)) requests of the last two records, each earlier-first."""
    by_id = instance.by_id
    return tuple((by_id[rec.p], by_id[rec.q]) for rec in report.records[-2:])


def check_last_pair_inequality(
    tally: Tally, instance: Instance, report: RunReport, label: str
) -> None:
    """The second-to-last pair is within (1 + eps) of every cross distance.

    For monochromatic hemisphere runs all four cross distances qualify; for
    bipartite runs only the two color-admissible ones do, taking d as the
    endpoint of the last pair sharing a's color.
    """
    if len(report.records) < 2:
        return
    eps = report.policy.epsilon
    (a, b), (c, d) = _last_two_oriented(instance, report)
    weight = instance.weight
    d_ab = weight(a.id, b.id)
    if report.policy.kind == HEMISPHERE:
        cross = min(weight(x.id, y.id) for x in (a, b) for y in (c, d))
        tally.check("last_pair_inequality").record(
            d_ab <= (1.0 + eps) * cross + ABS_TOL,
            f"{label}: D(a,b)={d_ab!r} vs (1+eps)*min cross={(1.0 + eps) * cross!r}",
        )
    elif report.policy.kind == HEMISPHERE_BIPARTITE:
        if c.color == a.color:
            c, d = d, c
        ok = (
            d_ab <= (1.0 + eps) * weight(a.id, c.id) + ABS_TOL
            and d_ab <= (1.0 + eps) * weight(b.id, d.id) + ABS_TOL
        )
        tally.check("bipartite_last_pair_inequality").record(
            ok, f"{label}: bipartite last-pair inequality violated"
        )


def check_decomposition(
    tally: Tally,
    instance: Instance,
    alg: Matching,
    opt: Matching,
    cycles: tuple[Cycle, ...],
    label: str,
) -> None:
    """Structural validity of the alternating-cycle decomposition."""
    ids = list(instance.by_id)
    seen = sorted(v for cycle in cycles for v in cycle.vertices)
    alg_pairs, opt_pairs = set(alg.pairs), set(opt.pairs)
    alternating = all(
        len(cycle.vertices) % 2 == 0
        and all((min(u, v), max(u, v)) in alg_pairs for u, v in cycle.a_edges())
        and all((min(u, v), max(u, v)) in opt_pairs for u, v in cycle.b_edges())
        for cycle in cycles
    )
    tally.check("cycle_cover").record(seen == ids, f"{label}: cycles do not partition the ids")
    tally.check("cycle_alternation").record(
        alternating, f"{label}: cycle edges do not alternate between matchings"
    )
    tally.check("cycle_lengths").record(
        _rel_close(sum(c.a_length for c in cycles), alg.weight)
        and _rel_close(sum(c.b_length for c in cycles), opt.weight),
        f"{label}: per-cycle lengths do not add up to the matching weights",
    )
    if all(c.b_length > 0 for c in cycles) and opt.weight > 0:
        worst = max(c.a_length / c.b_length for c in cycles)
        tally.check("cycle_ratio_bound").record(
            alg.weight / opt.weight <= worst + ABS_TOL,
            f"{label}: weight ratio exceeds the worst per-cycle ratio",
        )


def check_bipartite_colors(
    tally: Tally,
    instance: Instance,
    opt: Matching,
    cycles: tuple[Cycle, ...],
    label: str,
) -> None:
    """Optimal bipartite edges cross colors and cycle colors alternate."""
    by_id = instance.by_id
    crossing = all(by_id[p].color != by_id[q].color for p, q in opt.pairs)
    tally.check("bipartite_opt_crossing").record(
        crossing, f"{label}: an optimal edge joins equal colors"
    )
    alternate = all(
        all(
            by_id[cycle.vertices[i]].color != by_id[cycle.vertices[(i + 1) % len(cycle.vertices)]].color
            for i in range(len(cycle.vertices))
        )
        for cycle in cycles
    )
    tally.check("bipartite_cycle_alternation").record(
        alternate, f"{label}: colors do not alternate around a cycle"
    )


def check_single_cycle_color_pattern(
    tally: Tally,
    instance: Instance,
    report: RunReport,
    cycles: tuple[Cycle, ...],
    label: str,
) -> None:
    """On a single-cycle bipartite union, the last two pairs split colors.

    Walking the cycle from the second-to-last pair (a, b), the endpoint of
    the last pair reached from a without crossing (a, b) shares b's color,
    and symmetric for the other endpoint.
    """
    if len(cycles) != 1 or len(report.records) < 2:
        return
    (a, b), (x, y) = _last_two_oriented(instance, report)
    cycle = cycles[0].vertices
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    # Walking from a away from b, the first endpoint of the last pair met is c.
    ia, ib = pos[a.id], pos[b.id]
    step = 1 if (ia + 1) % n != ib else -1
    c = min((x, y), key=lambda r: (pos[r.id] - ia) * step % n)
    d = y if c is x else x
    tally.check("single_cycle_color_pattern").record(
        c.color == b.color and d.color == a.color,
        f"{label}: single-cycle color pattern violated",
    )


def check_oracles(
    tally: Tally, instance: Instance, label: str
) -> tuple[Matching | None, Matching | None]:
    """Oracle agreement and the realization identity.

    Returns (unrestricted optimum, color-crossing optimum); either is None
    when inapplicable or beyond its size guard.
    """
    opt_g = None
    opt_b = None
    if instance.size <= GENERAL_OPT_MAX:
        opt_g = opt_general(instance)
        tally.check("realize_online_identity").record(
            realize_online(opt_g, instance) == opt_g.weight,
            f"{label}: realized cost differs from the matching weight",
        )
    if instance.bipartite:
        opt_b = opt_bipartite(instance)
        tally.check("realize_online_identity").record(
            realize_online(opt_b, instance) == opt_b.weight,
            f"{label}: realized bipartite cost differs from the matching weight",
        )
    if instance.size <= BRUTE_FORCE_MAX:
        # Brute force filters by color on bipartite instances, so it checks
        # the matching oracle for the instance's own variant.  The assignment
        # solver may break exact weight ties differently from the
        # lexicographic rule, leaving ulp-level sum differences, so the
        # bipartite comparison allows 1e-12 relative.
        brute = brute_force_opt(instance)
        if instance.bipartite:
            tally.check("oracle_agreement_bipartite").record(
                opt_b is not None and _rel_close(opt_b.weight, brute.weight, 1e-12),
                f"{label}: bipartite oracle vs brute force weights differ",
            )
        else:
            tally.check("oracle_agreement").record(
                opt_g is not None
                and opt_g.weight == brute.weight
                and opt_g.pairs == brute.pairs,
                f"{label}: general oracle vs brute force differ",
            )
    return opt_g, opt_b


def check_optimality_lower_bound(tally: Tally, alg: Matching, opt: Matching, label: str) -> None:
    """No policy's matching weighs less than the exact optimum of its variant."""
    tally.check("optimality_lower_bound").record(
        opt.weight <= alg.weight + ABS_TOL,
        f"{label}: policy weight beats the optimum",
    )


def check_restriction(
    tally: Tally, instance: Instance, report: RunReport, cycles: tuple[Cycle, ...], label: str
) -> None:
    """Each cycle's requests, re-simulated alone, reproduce the run's edges inside it."""
    bipartite = report.policy.kind == HEMISPHERE_BIPARTITE
    mismatch = restriction_check(instance, report, cycles)
    tally.check("restriction_property_bipartite" if bipartite else "restriction_property").record(
        mismatch is None, f"{label}: {mismatch}"
    )


def check_recurrence_bound(
    tally: Tally, instance: Instance, report: RunReport, alg: Matching, opt: Matching, label: str
) -> None:
    """The run's offline weight is at most 2/f(m) times the optimum, gamma = 3 + eps."""
    bound = theoretical_bound(max(instance.size, 2), report.policy.epsilon)
    tally.check("recurrence_bound").record(
        within_bound(alg.weight, bound, opt.weight) is True,
        f"{label}: offline ratio exceeds 2/f(m)",
    )


def check_cycles(
    tally: Tally, instance: Instance, report: RunReport, alg: Matching, opt: Matching, label: str
) -> None:
    """Every cycle invariant of a hemisphere run against its variant's optimum.

    Decomposes the union of ``alg`` (the run's matching) and ``opt`` into
    alternating cycles and checks the decomposition and the restriction
    property; bipartite runs add the color patterns, monochromatic runs the
    2/f(m) bound.
    """
    cycles = cycle_decompose(alg, opt, instance)
    check_decomposition(tally, instance, alg, opt, cycles, label)
    bipartite = report.policy.kind == HEMISPHERE_BIPARTITE
    if bipartite:
        check_bipartite_colors(tally, instance, opt, cycles, label)
        check_single_cycle_color_pattern(tally, instance, report, cycles, label)
    check_restriction(tally, instance, report, cycles, label)
    if not bipartite:
        check_recurrence_bound(tally, instance, report, alg, opt, label)


def verify_instance(
    tally: Tally,
    instance: Instance,
    eps_list,
    label: str,
) -> None:
    """Run every applicable policy and invariant on one instance."""
    opt_g, opt_b = check_oracles(tally, instance, label)
    policies = [HEMISPHERE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY]
    if instance.bipartite:
        policies.append(HEMISPHERE_BIPARTITE)
    for eps in eps_list:
        for kind in policies:
            policy = Policy(kind=kind, epsilon=eps)
            report = simulate(instance, policy)
            run_label = f"{label} {kind} eps={eps}"
            check_run_basics(tally, instance, report, run_label)
            if kind in (HEMISPHERE, HEMISPHERE_BIPARTITE):
                check_cost_scaling(tally, report, run_label)
                check_last_pair_inequality(tally, instance, report, run_label)
            # Each policy is judged against the optimum of its own variant.
            opt = opt_b if kind == HEMISPHERE_BIPARTITE else opt_g
            if opt is None:
                continue
            alg = matching_from_records(report.records, instance)
            check_optimality_lower_bound(tally, alg, opt, run_label)
            # A monochromatic run's cycles on a bipartite instance need not
            # balance the colors, which a bipartite sub-instance requires.
            if kind == HEMISPHERE_BIPARTITE or (kind == HEMISPHERE and not instance.bipartite):
                check_cycles(tally, instance, report, alg, opt, run_label)


def check_recurrence_table(tally: Tally, gammas=(2.5, 3.0, 4.0, 5.0), k_max: int = 64) -> None:
    """f(2) = 1, monotonicity, and the (2/gamma)**log2(k) lower bound."""
    for gamma in gammas:
        table = eval_f(2 * k_max, gamma)
        tally.check("f_base_case").record(
            table.value(2) == 1.0, f"gamma={gamma}: f(2) != 1"
        )
        non_increasing = all(b <= a for a, b in zip(table.values, table.values[1:]))
        tally.check("f_non_increasing").record(
            non_increasing, f"gamma={gamma}: f increases somewhere"
        )
        bound_ok = all(
            table.value(2 * k) >= (2.0 / gamma) ** math.log2(k) - 1e-12
            for k in range(1, k_max + 1)
        )
        tally.check("f_lower_bound").record(
            bound_ok, f"gamma={gamma}: f(2k) dips below (2/gamma)^log2(k)"
        )


def check_recurrence_closed_form(tally: Tally, eps_list=(0.1, 0.5, 1.0, 2.0), i_max: int = 40) -> None:
    """Iterative gap recurrence agrees with its closed form to 1e-12 relative."""
    for eps in eps_list:
        off = [
            i
            for i in range(1, i_max + 1)
            for x, y in zip(recurrence_ab(i, eps), recurrence_ab_closed_form(i, eps))
            if not _rel_close(x, y, 1e-12)
        ]
        tally.check("recurrence_closed_form").record(
            not off, f"eps={eps}: recurrence and closed form disagree at i={off[:1]}"
        )


def check_lower_bound_family(
    tally: Tally,
    k_values=range(1, 11),
    eps_list=(0.5, 1.0, 2.0),
    eta: float = DEFAULT_ETA,
) -> None:
    """Cascade span, expected pair list, and its weight formula.

    With eta > 0 the pair list is the adversarial one; at eta = 0 the
    cascade's firing times tie, so it shows the tie rule instead.
    """
    for eps in eps_list:
        for k in k_values:
            zero_eta = gen_lower_bound(LowerBoundParams(k=k, epsilon=eps, eta=0.0))
            _, b_k = recurrence_ab(k, eps)
            span = zero_eta.requests[-1].time - zero_eta.requests[0].time
            tally.check("cascade_span").record(
                _rel_close(span, b_k), f"k={k} eps={eps}: span {span!r} != {b_k!r}"
            )
            instance = gen_lower_bound(LowerBoundParams(k=k, epsilon=eps, eta=eta))
            report = simulate(instance, Policy(kind=HEMISPHERE, epsilon=eps))
            expected_pairs, expected_weight = expected_lower_bound_result(
                LowerBoundParams(k=k, epsilon=eps, eta=eta)
            )
            tally.check("cascade_pair_list").record(
                tuple(sorted((min(r.p, r.q), max(r.p, r.q)) for r in report.records))
                == expected_pairs,
                f"k={k} eps={eps} eta={eta}: expected pair list not reproduced",
            )
            tally.check("cascade_weight").record(
                _rel_close(report.offline_weight, expected_weight),
                f"k={k} eps={eps} eta={eta}: offline weight {report.offline_weight!r} "
                f"vs expected {expected_weight!r}",
            )


def check_two_point_rows_family(tally: Tally, m_values=(8, 16, 32)) -> None:
    """Row instances: valid metric, balanced rows, identical row times."""
    for m in m_values:
        instance = gen_two_point_rows(TwoPointRowsParams(m=m, delta=0.1))
        tally.check("two_point_rows_metric").record(
            validate_metric([list(r) for r in instance.space.matrix]) is None,
            f"m={m}: row metric violates an axiom",
        )
        rows: dict[str, list[float]] = {"A": [], "B": []}
        for r in instance.requests:
            rows[r.location].append(r.time)
        tally.check("two_point_rows_balanced").record(
            len(rows["A"]) == len(rows["B"]) == m // 2
            and sorted(rows["A"]) == sorted(rows["B"]),
            f"m={m}: rows are not identical",
        )


def check_io_roundtrip(tally: Tally, instances) -> None:
    """Serialize and reparse every instance; all fields must survive."""
    for label, instance in instances:
        back = instance_from_dict(instance_to_dict(instance))
        tally.check("io_roundtrip").record(
            back == instance, f"{label}: round trip altered the instance"
        )


def random_suite(count: int, max_m: int, seed: int = 20240):
    """Deterministic (label, instance) pairs for the verify run, built one at a time.

    ``count`` and ``max_m`` are checked at the call, before the first pair.
    """
    require_int("count", count, 0, VERIFY_COUNT_MAX)
    require_int("max_m", max_m, 2, REQUEST_COUNT_MAX)
    metrics = ("line", "euclidean", "finite")

    def suite():
        for idx in range(count):
            m = 2 * (1 + (idx % (max_m // 2)))
            metric = metrics[idx % len(metrics)]
            instance = gen_random(m, seed + idx, metric=metric, bipartite=idx % 3 == 2)
            yield f"random[{idx}] m={m} {metric}", instance

    return suite()


def run_verify(
    count: int = 200,
    max_m: int = 12,
    eps_list=(0.1, 0.5, 1.0, 2.0),
    seed: int = 20240,
    include_families: bool = True,
) -> list[CheckResult]:
    """Execute the full invariant suite; returns per-check tallies."""
    tally = Tally()
    for label, instance in random_suite(count, max_m, seed):
        verify_instance(tally, instance, eps_list, label)
    # A second pass, so that no instance is held beyond its own checks.
    check_io_roundtrip(tally, random_suite(count, max_m, seed))
    if include_families:
        check_recurrence_table(tally)
        check_recurrence_closed_form(tally)
        check_lower_bound_family(tally, k_values=range(1, 9))
        check_two_point_rows_family(tally)
        family_instances = [
            (
                f"{'colored ' * colored}cascade k={k}",
                gen_lower_bound(LowerBoundParams(k=k, epsilon=1.0), bipartite=colored),
            )
            for colored in (False, True)
            for k in range(1, 6)
        ] + [
            (f"rows m={m}", gen_two_point_rows(TwoPointRowsParams(m=m, delta=1.0 / m)))
            for m in (8, 16)
        ]
        check_io_roundtrip(tally, family_instances)
        for label, instance in family_instances:
            for eps in eps_list:
                for kind in [HEMISPHERE] + ([HEMISPHERE_BIPARTITE] if instance.bipartite else []):
                    report = simulate(instance, Policy(kind=kind, epsilon=eps))
                    check_cost_scaling(tally, report, f"{label} {kind} eps={eps}")
    return tally.results()
