"""Competitive-ratio computation, the worst-case recurrence table, and sweeps.

``eval_f`` tabulates the recurrence

    f(2) = 1,   f(2k) = min over 1 <= i <= k-1 of
                { f(2i), (f(2i) + f(2k - 2i)) / gamma }

whose reciprocal bounds the offline weight ratio of the hemisphere policy:
with gamma = 3 + epsilon, the policy's matching weighs at most 2 / f(m)
times the offline optimum.  The table obeys f(2k) >= (2 / gamma)**log2(k).

Sweeps run a policy over one of the adversarial families for growing m and
fit the log-log slope of the offline ratio.  Beyond the exact-oracle guard
the optimum is replaced by an explicit cheap matching (an upper bound on the
optimum, so measured ratios only understate the true ones).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_MIN,
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
from mpmd.metric import is_finite_real
from mpmd.oracle import GENERAL_OPT_MAX, Matching, opt_bipartite, opt_general

RATIO_TOL = 1e-9


@dataclass(frozen=True)
class FTable:
    """Tabulated recurrence values f(2), f(4), ..., f(2 * len(values))."""

    gamma: float
    values: tuple[float, ...]

    @property
    def m_max(self) -> int:
        return 2 * len(self.values)

    def value(self, m: int) -> float:
        if m % 2 != 0 or not 2 <= m <= self.m_max:
            raise ValueError(f"f is tabulated for even m in [2, {self.m_max}], got {m}")
        return self.values[m // 2 - 1]


def eval_f(m_max: int, gamma: float) -> FTable:
    """Exact dynamic-programming evaluation of the recurrence up to m_max."""
    if not gamma > 2:
        raise ValueError(f"gamma must be > 2, got {gamma}")
    if m_max < 2 or m_max % 2 != 0:
        raise ValueError(f"m_max must be an even integer >= 2, got {m_max}")
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

    Raises ValueError when the bound exceeds the largest double, as it does
    once f(m) underflows for a huge epsilon.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be an even integer >= 2, got {m}")
    if not (is_finite_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and strictly positive, got {epsilon}")
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


def optimum_for(instance: Instance, policy: Policy) -> Matching:
    """The exact optimum the policy competes against.

    The bipartite policy is judged against the color-crossing optimum; all
    others against the unrestricted optimum, which is guarded by instance
    size.
    """
    if policy.kind == HEMISPHERE_BIPARTITE:
        return opt_bipartite(instance)
    if instance.size > GENERAL_OPT_MAX:
        raise ValueError(
            f"instance has {instance.size} requests, beyond the exact general "
            f"oracle guard of {GENERAL_OPT_MAX}; use the bipartite oracle or a "
            "smaller instance"
        )
    return opt_general(instance)


def compute_ratio(instance: Instance, policy: Policy) -> RatioReport:
    """Simulate the policy, solve for the optimum, and report both ratios."""
    report = simulate(instance, policy)
    opt = optimum_for(instance, policy)

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
        bound_ok=ratio_offline <= bound + RATIO_TOL,
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


def _pair_weight(instance: Instance, pairs) -> float:
    dist = augmented_by_id(instance)
    return sum(dist(p, q) for p, q in pairs)


def reference_matching_weight(family: str, instance: Instance) -> float:
    """Weight of the family's explicit cheap matching (upper bound on opt).

    Single-point cascade: all consecutive unit pairs (1,2), (3,4), ...
    Two-point rows: the short intra-row gap pairs plus the first and last
    requests of each row matched across rows.
    """
    m = instance.size
    if family == "lower-bound":
        return _pair_weight(instance, [(i, i + 1) for i in range(1, m, 2)])
    if family == "appendix-b":
        half = m // 2
        pairs = [(1, half + 1), (half, m)]
        for row_start in (1, half + 1):
            pairs.extend(
                (row_start + i, row_start + i + 1) for i in range(1, half - 2, 2)
            )
        return _pair_weight(instance, pairs)
    raise ValueError(f"unknown family {family!r}")


def _sweep_point(
    family: str, instance: Instance, policy: Policy
) -> SweepRow:
    report = simulate(instance, policy)
    exact = instance.size <= GENERAL_OPT_MAX
    if exact:
        opt_weight = opt_general(instance).weight
    else:
        opt_weight = reference_matching_weight(family, instance)
    return SweepRow(
        m=instance.size,
        ratio_online=report.online_cost / opt_weight,
        ratio_offline=report.offline_weight / opt_weight,
        opt_exact=exact,
        digest=instance_digest(instance),
    )


def _refuse_repeats(name: str, ordered) -> None:
    """Raise ValueError naming a value that the sorted sweep list holds twice:
    its point would be simulated twice and count twice in the fitted slope.
    A list of one distinct value is left to ``fit_log2_slope`` to refuse."""
    if len(set(ordered)) < 2:
        return
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"{name}={a} is given more than once")


def sweep_lower_bound(
    k_values,
    epsilon: float,
    eta: float = DEFAULT_ETA,
    policy_kind: str = HEMISPHERE,
) -> SweepResult:
    """Run the policy over the single-point cascade for each k and fit the slope."""
    policy = Policy(kind=policy_kind, epsilon=epsilon)
    # Every k is checked, the largest first, before any instance is built.
    params = [
        LowerBoundParams(k=k, epsilon=epsilon, eta=eta) for k in sorted(k_values, reverse=True)
    ]
    _refuse_repeats("k", [p.k for p in params])
    rows = [_sweep_point("lower-bound", gen_lower_bound(p), policy) for p in reversed(params)]
    slope = fit_log2_slope([r.m for r in rows], [r.ratio_offline for r in rows])
    return SweepResult(
        family="lower-bound",
        policy_kind=policy_kind,
        epsilon=epsilon,
        rows=tuple(rows),
        slope=slope,
    )


def sweep_two_point_rows(
    m_values,
    epsilon: float,
    delta: float | None = None,
    policy_kind: str = NOTIME_MIN,
) -> SweepResult:
    """Run the policy over the two-point rows for each m; delta defaults to 1/m."""
    policy = Policy(kind=policy_kind, epsilon=epsilon)
    # Every m is checked before any instance is built.  The params reject an
    # m of 0 for its m, so max() only keeps its default delta from dividing by 0.
    params = [
        TwoPointRowsParams(m=m, delta=1.0 / max(m, 1) if delta is None else delta)
        for m in sorted(m_values)
    ]
    _refuse_repeats("m", [p.m for p in params])
    rows = [_sweep_point("appendix-b", gen_two_point_rows(p), policy) for p in params]
    slope = fit_log2_slope([r.m for r in rows], [r.ratio_offline for r in rows])
    return SweepResult(
        family="appendix-b",
        policy_kind=policy_kind,
        epsilon=epsilon,
        rows=tuple(rows),
        slope=slope,
    )
