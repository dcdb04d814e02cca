"""Competitive-ratio computation, the worst-case recurrence table, and sweeps.

``eval_f`` tabulates the recurrence

    f(2) = 1,   f(2k) = min over 1 <= i <= k-1 of
                { f(2i), (f(2i) + f(2k - 2i)) / gamma }

whose reciprocal bounds the offline weight ratio of the hemisphere policy:
with gamma = 3 + epsilon, the policy's matching weighs at most 2 / f(m)
times the offline optimum.  The table obeys f(2k) >= (2 / gamma)**log2(k).

``sweep`` runs a policy over either adversarial family for growing m and
fits the log-log slope of the offline ratio; what differs between the two
families is written once, in ``_FAMILIES``.  Beyond the exact-oracle guard
the optimum is replaced by the family's explicit cheap matching (an upper
bound on the optimum, so measured ratios only understate the true ones).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_MIN,
    REQUEST_COUNT_MAX,
    Instance,
    Policy,
    augmented_by_id,
    simulate,
)
from mpmd.instances import (
    DEFAULT_ETA,
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_two_point_rows,
    instance_digest,
)
from mpmd.metric import is_finite_real, require_int, require_positive, value_repr
from mpmd.oracle import GENERAL_OPT_MAX, opt_bipartite, opt_general


@dataclass(frozen=True)
class FTable:
    """Tabulated recurrence values f(2), f(4), ..., f(2 * len(values))."""

    gamma: float
    values: tuple[float, ...]

    @property
    def m_max(self) -> int:
        return 2 * len(self.values)

    def value(self, m: int) -> float:
        require_int("m", m, 2, self.m_max, step=2)
        return self.values[m // 2 - 1]


def eval_f(m_max: int, gamma: float) -> FTable:
    """Exact dynamic-programming evaluation of the recurrence up to m_max,
    an even int from 2 to ``REQUEST_COUNT_MAX``, the largest instance, since
    the table costs O(m^2) time."""
    if not (is_finite_real(gamma) and gamma > 2):
        raise ValueError(f"gamma must be finite and > 2, got {value_repr(gamma)}")
    require_int("m_max", m_max, 2, REQUEST_COUNT_MAX, step=2)
    k_max = m_max // 2
    f = [0.0] * (k_max + 1)
    f[1] = 1.0
    for k in range(2, k_max + 1):
        best = math.inf
        for i in range(1, k):
            candidate = min(f[i], (f[i] + f[k - i]) / gamma)
            if candidate < best:
                best = candidate
        f[k] = best
    return FTable(gamma=gamma, values=tuple(f[1:]))


def theoretical_bound(m: int, epsilon: float) -> float:
    """Upper bound 2 / f(m) on the hemisphere policy's offline weight ratio.

    m is an even int from 2 to ``REQUEST_COUNT_MAX``, as in ``eval_f``.
    Raises ValueError when the bound exceeds the largest double, as it does
    once f(m) underflows for a huge epsilon.
    """
    require_int("m", m, 2, REQUEST_COUNT_MAX, step=2)
    require_positive("epsilon", epsilon)
    f_m = eval_f(m, 3.0 + epsilon).value(m)
    bound = 2.0 / f_m if f_m > 0 else math.inf
    if math.isinf(bound):
        raise ValueError(f"bound 2/f(m) overflows at m={m}, epsilon={epsilon}: f(m) = {f_m!r}")
    return bound


@dataclass(frozen=True)
class RatioReport:
    """Cost ratios of one policy run against the exact offline optimum."""

    m: int
    metric_kind: str
    bipartite: bool
    policy_kind: str
    epsilon: float
    online_cost: float
    offline_weight: float
    opt_weight: float
    ratio_online: float
    ratio_offline: float
    bound_2_over_f: float
    bound_ok: bool

    def to_dict(self) -> dict:
        """The fields in order, with ``policy_kind`` written as "policy"."""
        return {"policy" if k == "policy_kind" else k: v for k, v in asdict(self).items()}


def within_bound(weight: float, bound: float, opt_weight: float) -> bool:
    """True when a matching's weight is at most ``bound`` times the optimum's.

    The slack is 1e-9 of the ratio, and never more than 1e-9 absolute.
    """
    return weight - bound * opt_weight <= 1e-9 * min(opt_weight, 1.0)


def compute_ratio(instance: Instance, policy: Policy) -> RatioReport:
    """Solve for the optimum, simulate the policy, and report both ratios.

    The bipartite policy is judged against the color-crossing optimum, all
    others against the unrestricted one, whose size guard is checked before
    the policy runs.
    """
    opt = opt_bipartite(instance) if policy.kind == HEMISPHERE_BIPARTITE else opt_general(instance)
    report = simulate(instance, policy)

    def against_opt(cost: float) -> float:
        if opt.weight > 0:
            return cost / opt.weight
        return 1.0 if cost == 0 else math.inf

    ratio_online = against_opt(report.online_cost)
    ratio_offline = against_opt(report.offline_weight)
    bound = theoretical_bound(max(instance.size, 2), policy.epsilon)
    return RatioReport(
        m=instance.size,
        metric_kind=instance.space.kind,
        bipartite=instance.bipartite,
        policy_kind=policy.kind,
        epsilon=policy.epsilon,
        online_cost=report.online_cost,
        offline_weight=report.offline_weight,
        opt_weight=opt.weight,
        ratio_online=ratio_online,
        ratio_offline=ratio_offline,
        bound_2_over_f=bound,
        bound_ok=within_bound(report.offline_weight, bound, opt.weight),
    )


@dataclass(frozen=True)
class SweepRow:
    m: int
    ratio_online: float
    ratio_offline: float
    opt_exact: bool
    digest: str


@dataclass(frozen=True)
class SweepResult:
    family: str
    policy_kind: str
    epsilon: float
    rows: tuple[SweepRow, ...]
    slope: float


def fit_log2_slope(ms, ratios) -> float:
    """Least-squares slope of log2(ratio) against log2(m), with intercept."""
    if len(ms) != len(ratios) or len(ms) < 2:
        raise ValueError("need at least two (m, ratio) points")
    if len(set(ms)) < 2:
        raise ValueError("need at least two distinct m values")
    xs = [math.log2(m) for m in ms]
    ys = [math.log2(r) for r in ratios]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def _rows_pairs(m: int) -> list[tuple[int, int]]:
    """The first and last requests of each row matched across rows, then the
    short intra-row gap pairs of each row."""
    half = m // 2
    inner = [(s + i, s + i + 1) for s in (1, half + 1) for i in range(1, half - 2, 2)]
    return [(1, half + 1), (half, m)] + inner


@dataclass(frozen=True)
class _Family:
    """What a sweep knows of one adversarial family: the name of its swept
    value, the policy swept when none is named, its checked params from
    (value, epsilon, eta, delta), its generator, and the pairs of its explicit
    cheap matching on m requests."""

    swept: str
    policy_kind: str
    params: Callable
    generate: Callable
    reference_pairs: Callable[[int], list[tuple[int, int]]]


_FAMILIES = {
    # The single-point cascade; its reference pairs are (1,2), (3,4), ...
    "lower-bound": _Family(
        "k",
        HEMISPHERE,
        lambda k, epsilon, eta, delta: LowerBoundParams(k=k, epsilon=epsilon, eta=eta),
        gen_lower_bound,
        lambda m: [(i, i + 1) for i in range(1, m, 2)],
    ),
    # The two-point rows.  The params reject an m of 0 for its m, so max()
    # only keeps the default delta of 1/m from dividing by 0.
    "appendix-b": _Family(
        "m",
        NOTIME_MIN,
        lambda m, epsilon, eta, delta: TwoPointRowsParams(
            m=m, delta=1.0 / max(m, 1) if delta is None else delta
        ),
        gen_two_point_rows,
        _rows_pairs,
    ),
}


def reference_matching_weight(family: str, instance: Instance) -> float:
    """Weight of the family's explicit cheap matching (upper bound on opt),
    summed in the order of the family's reference pairs."""
    dist = augmented_by_id(instance)
    return sum(dist(p, q) for p, q in _FAMILIES[family].reference_pairs(instance.size))


def sweep(
    family: str,
    values,
    epsilon: float,
    *,
    eta: float = DEFAULT_ETA,
    delta: float | None = None,
    policy_kind: str | None = None,
) -> SweepResult:
    """Run a policy over ``lower-bound`` (the cascade, swept over k, tie gap
    ``eta``) or ``appendix-b`` (the rows, swept over m, gap ``delta``, 1/m when
    None) for each value and fit the slope of the offline ratio."""
    spec = _FAMILIES[family]
    policy = Policy(kind=policy_kind or spec.policy_kind, epsilon=epsilon)
    # Every value is checked, the largest first, before any instance is built.
    ordered = sorted(values, reverse=True)
    params = [spec.params(value, epsilon, eta, delta) for value in ordered]
    # A repeated value would be simulated twice and count twice in the slope;
    # a single distinct value is left for fit_log2_slope to refuse.
    repeats = [a for a, b in zip(ordered, ordered[1:]) if a == b]
    if repeats and len(set(ordered)) > 1:
        raise ValueError(f"{spec.swept}={repeats[0]} is given more than once")
    rows = []
    for instance in map(spec.generate, reversed(params)):
        report = simulate(instance, policy)
        exact = instance.size <= GENERAL_OPT_MAX
        if exact:
            opt_weight = opt_general(instance).weight
        else:
            opt_weight = reference_matching_weight(family, instance)
        rows.append(
            SweepRow(
                m=instance.size,
                ratio_online=report.online_cost / opt_weight,
                ratio_offline=report.offline_weight / opt_weight,
                opt_exact=exact,
                digest=instance_digest(instance),
            )
        )
    slope = fit_log2_slope([r.m for r in rows], [r.ratio_offline for r in rows])
    return SweepResult(family, policy.kind, epsilon, tuple(rows), slope)
