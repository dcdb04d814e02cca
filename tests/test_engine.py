"""Simulation engine: firing rules, event ordering, costs, and run invariants."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmd.engine as engine
import mpmd.metric as metric_layer
from mpmd.engine import (
    ARRIVAL_BATCH,
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_EARLY,
    NOTIME_LATE,
    NOTIME_MIN,
    POLICY_KINDS,
    REQUEST_COUNT_MAX,
    SMALL_RUN_MAX,
    SORT_WINDOW,
    TIME_TIE_TOL,
    Instance,
    MatchRecord,
    Policy,
    Request,
    offline_weight,
    online_cost,
    simulate,
)
from mpmd.instances import (
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
)
from mpmd.metric import MetricSpace, TimedPoint, distance
from mpmd.verify import Tally, check_cost_scaling, check_last_pair_inequality, check_run_basics

from helpers import assert_all_ok

LINE = MetricSpace.line()


def req(rid, loc, t, color=None):
    return Request(id=rid, point=TimedPoint(loc, t), color=color)


# Scalar reference of the firing rule, one pair at a time.


def _ordered(a, b):
    """(earlier, later) by arrival time, ties by smaller id."""
    if (a.time, a.id) <= (b.time, b.id):
        return a, b
    return b, a


def _pair_schedule(policy, a, b, space):
    """Anticipated (match_time, delay_earlier, delay_later) for the pair.

    Returns None when the policy never matches the pair (same color under the
    bipartite policy).  Delays are derived from the firing rule itself rather
    than by subtracting large times, as the engine derives them.
    """
    if policy.kind == HEMISPHERE_BIPARTITE and a.color == b.color:
        return None
    early, late = _ordered(a, b)
    gap = late.time - early.time
    wait = engine._wait(policy, distance(space, a.location, b.location), gap, max)
    return late.time + wait, gap + wait, wait


def event_time(policy, p, q, space):
    """Earliest time the pair may be matched, or inf when the policy never will."""
    if p.id == q.id:
        raise ValueError("event_time requires two distinct requests")
    schedule = _pair_schedule(policy, p, q, space)
    if schedule is None:
        return math.inf
    return schedule[0]


def _pair_positions(requests, policy):
    """The int32 positions (early, late) of every admissible pair, early < late."""
    if policy.kind == HEMISPHERE_BIPARTITE:
        colors = np.array([r.color for r in requests], dtype=np.int8)
        zero = np.flatnonzero(colors == 0).astype(np.int32)
        one = np.flatnonzero(colors).astype(np.int32)
        a = np.repeat(zero, len(one))
        b = np.tile(one, len(zero))
        return np.minimum(a, b), np.maximum(a, b)
    # Position j is the later request of j pairs, whose earlier ones are 0..j-1.
    counts = np.arange(len(requests), dtype=np.int32)
    late = np.repeat(counts, counts)
    early = np.arange(len(late), dtype=np.int32)
    early -= np.repeat(counts * (counts - 1) // 2, counts)
    return early, late


def _sorted_events(requests, space, policy):
    """Every admissible pair's event, built at once and sorted by time at once.

    The all-pairs full sort that the engine's arrival batches replace: the
    reference order for the stale-run and firing-rule tests.  Returns the
    sorted event times and the positions of each event's earlier and later
    request.
    """
    early, late = _pair_positions(requests, policy)
    t = np.array([r.time for r in requests], dtype=float)
    d = metric_layer.pair_distances(space, [r.location for r in requests], early, late)
    t_late = t[late]
    times = engine._wait(policy, d, t_late - t[early], np.maximum) + t_late
    order = np.argsort(times)
    return times[order], early[order], late[order]


class TestEventTime:
    def test_hemisphere_from_later_arrival(self):
        p = req(1, 0.0, 10.0)
        q = req(2, 4.0, 2.0)
        # D = 4 + 8 = 12, owned by the later arrival at t=10.
        assert event_time(Policy(HEMISPHERE, 2.0), p, q, LINE) == 16.0

    def test_hemisphere_colocated_simultaneous(self):
        p = req(1, 5.0, 3.0)
        q = req(2, 5.0, 3.0)
        for eps in (0.1, 1.0, 7.0):
            assert event_time(Policy(HEMISPHERE, eps), p, q, LINE) == 3.0

    def test_notime_min_clamped_to_later_arrival(self):
        p = req(1, 0.0, 0.0)
        q = req(2, 0.0, 1.0)
        assert event_time(Policy(NOTIME_MIN, 1.0), p, q, LINE) == 1.0

    def test_notime_early_equals_notime_min(self):
        p = req(1, 0.0, 2.0)
        q = req(2, 6.0, 5.0)
        t_min = event_time(Policy(NOTIME_MIN, 1.5), p, q, LINE)
        t_early = event_time(Policy(NOTIME_EARLY, 1.5), p, q, LINE)
        assert t_min == t_early == max(5.0, 2.0 + 6.0 / 1.5)

    def test_notime_late_from_later_arrival(self):
        p = req(1, 0.0, 2.0)
        q = req(2, 6.0, 5.0)
        assert event_time(Policy(NOTIME_LATE, 2.0), p, q, LINE) == 8.0

    def test_bipartite_same_color_never(self):
        p = req(1, 0.0, 0.0, color=0)
        q = req(2, 1.0, 0.0, color=0)
        assert event_time(Policy(HEMISPHERE_BIPARTITE, 1.0), p, q, LINE) == math.inf

    def test_distinct_requests_required(self):
        p = req(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            event_time(Policy(HEMISPHERE, 1.0), p, p, LINE)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            Policy(HEMISPHERE, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            Policy(HEMISPHERE, -1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_epsilon_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            Policy(HEMISPHERE, bad)

    @pytest.mark.parametrize("kind", ["hemi", "Hemisphere", ""])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=f"^unknown policy kind {kind!r}$"):
            Policy(kind, 1.0)


class TestCosts:
    def test_online_cost_single_record(self):
        rec = MatchRecord(p=1, q=2, match_time=2.0, connection=3.0, delay_p=2.0, delay_q=0.0)
        assert online_cost([rec]) == 5.0

    def test_online_cost_empty(self):
        assert online_cost([]) == 0.0

    def test_offline_weight_single_pair(self):
        inst = Instance(LINE, (req(1, 0.0, 10.0), req(2, 4.0, 2.0)))
        rec = MatchRecord(p=2, q=1, match_time=16.0, connection=4.0, delay_p=14.0, delay_q=6.0)
        assert offline_weight([rec], inst) == 12.0

    def test_offline_weight_unknown_id(self):
        inst = Instance(LINE, (req(1, 0.0, 0.0), req(2, 1.0, 0.0)))
        rec = MatchRecord(p=1, q=9, match_time=0.0, connection=0.0, delay_p=0.0, delay_q=0.0)
        with pytest.raises(ValueError, match="unknown request id"):
            offline_weight([rec], inst)

    def test_offline_weight_colocated_simultaneous_pair(self):
        inst = Instance(LINE, (req(1, 2.0, 3.0), req(2, 2.0, 3.0)))
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        assert report.offline_weight == 0.0
        assert report.online_cost == 0.0


class TestInstanceValidation:
    def test_odd_request_count(self):
        with pytest.raises(ValueError, match="even"):
            Instance(LINE, (req(1, 0.0, 0.0),))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance(LINE, (req(1, 0.0, 0.0), req(1, 1.0, 0.0)))

    @pytest.mark.parametrize("rid", [1.5, math.inf, True, "1", None])
    def test_id_must_be_an_int(self, rid):
        # Saved, a float or bool id makes a file that load_instance refuses.
        with pytest.raises(ValueError, match=r"requests\[0\]\.id: expected an integer, got "):
            Instance(LINE, (req(rid, 0.0, 0.0), req(2, 1.0, 0.0)))

    def test_color_imbalance(self):
        with pytest.raises(ValueError, match="imbalanced"):
            Instance(
                LINE,
                (req(1, 0.0, 0.0, 0), req(2, 1.0, 0.0, 0)),
                bipartite=True,
            )

    def test_color_presence_matches_flag(self):
        with pytest.raises(ValueError, match=r"requests\[0\]\.color: expected 0 or 1, got None"):
            Instance(LINE, (req(1, 0.0, 0.0), req(2, 1.0, 0.0, 1)), bipartite=True)
        with pytest.raises(ValueError, match=r"requests\[0\]\.color: given on a monochromatic"):
            Instance(LINE, (req(1, 0.0, 0.0, 0), req(2, 1.0, 0.0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_or_location(self, bad):
        with pytest.raises(ValueError, match=r"requests\[1\]\.t: expected a finite number"):
            Instance(LINE, (req(1, 0.0, 0.0), req(2, 1.0, bad)))
        with pytest.raises(ValueError, match=r"requests\[1\]\.loc: line point must be a finite real number"):
            Instance(LINE, (req(1, 0.0, 0.0), req(2, bad, 0.0)))
        with pytest.raises(ValueError, match=r"requests\[0\]\.loc: euclidean coordinates"):
            Instance(MetricSpace.euclidean(2), (req(1, (bad, 0.0), 0.0), req(2, (0.0, 0.0), 0.0)))

    def test_request_count_cap(self):
        at_cap = tuple(req(i, 0.0, 0.0) for i in range(REQUEST_COUNT_MAX))
        assert Instance(LINE, at_cap).size == REQUEST_COUNT_MAX
        m = REQUEST_COUNT_MAX + 2
        with pytest.raises(
            ValueError,
            match=f"^request count must be an even integer from 0 to {REQUEST_COUNT_MAX}, got {m}$",
        ):
            Instance(LINE, at_cap + (req(m, 0.0, 0.0), req(m + 1, 0.0, 0.0)))

    def test_requests_are_kept_in_arrival_order(self):
        # Requests 2 and 3 arrive together, so the smaller id comes first.
        arrival = (req(4, 0.0, 0.0), req(2, 1.0, 1.0), req(3, 0.5, 1.0), req(1, 2.0, 3.0))
        for given_order in itertools.permutations(arrival):
            inst = Instance(LINE, given_order)
            assert inst.requests == arrival
            assert inst == Instance(LINE, arrival)

    def test_bipartite_policy_needs_bipartite_instance(self):
        inst = Instance(LINE, (req(1, 0.0, 0.0), req(2, 1.0, 0.0)))
        with pytest.raises(ValueError, match="bipartite"):
            simulate(inst, Policy(HEMISPHERE_BIPARTITE, 1.0))


class TestSimulate:
    def test_forced_pair(self):
        inst = Instance(LINE, (req(1, 0.0, 0.0), req(2, 3.0, 1.0)))
        for kind in (HEMISPHERE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY):
            report = simulate(inst, Policy(kind, 1.0))
            assert [(r.p, r.q) for r in report.records] == [(1, 2)]

    def test_forced_pair_bipartite(self):
        inst = Instance(
            LINE, (req(1, 0.0, 0.0, 0), req(2, 3.0, 1.0, 1)), bipartite=True
        )
        report = simulate(inst, Policy(HEMISPHERE_BIPARTITE, 1.0))
        assert [(r.p, r.q) for r in report.records] == [(1, 2)]
        # Cross-color pairs fire like the monochromatic hemisphere: D = 4.
        assert report.records[0].match_time == 5.0

    def test_cascade_k2_adversarial_pairs(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0, eta=1e-6))
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        assert [(r.p, r.q) for r in report.records] == [(2, 3), (1, 4)]
        assert report.records[0].match_time == pytest.approx(2.0, rel=1e-5)
        assert report.records[1].match_time == pytest.approx(5.0, rel=1e-5)
        assert report.offline_weight == pytest.approx(3.0, rel=1e-5)
        assert report.online_cost == pytest.approx(9.0, rel=1e-5)

    def test_two_point_rows_notime_min(self):
        inst = gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.1))
        report = simulate(inst, Policy(NOTIME_MIN, 1.0))
        pairs = sorted((min(r.p, r.q), max(r.p, r.q)) for r in report.records)
        assert pairs == [(1, 2), (3, 4), (5, 6), (7, 8)]
        by_pair = {(min(r.p, r.q), max(r.p, r.q)): r for r in report.records}
        arrivals = {r.id: r.time for r in inst.requests}
        for (p, q), rec in by_pair.items():
            assert rec.match_time == max(arrivals[p], arrivals[q])
        assert report.online_cost == pytest.approx(4.0)

    def test_colocated_simultaneous_fire_by_id_key(self):
        inst = Instance(LINE, tuple(req(i, 1.0, 5.0) for i in (1, 2, 3, 4)))
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        assert [(r.p, r.q) for r in report.records] == [(1, 2), (3, 4)]
        assert all(r.match_time == 5.0 for r in report.records)

    def test_records_sorted_by_match_time(self):
        inst = gen_random(12, seed=99, metric="euclidean", horizon=10.0)
        report = simulate(inst, Policy(HEMISPHERE, 0.5))
        times = [r.match_time for r in report.records]
        assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(times, times[1:]))

    def test_record_orientation_earlier_first(self):
        inst = gen_random(10, seed=5, metric="line")
        arrivals = {r.id: r.time for r in inst.requests}
        for kind in (HEMISPHERE, NOTIME_MIN, NOTIME_LATE):
            report = simulate(inst, Policy(kind, 1.0))
            for rec in report.records:
                assert (arrivals[rec.p], rec.p) <= (arrivals[rec.q], rec.q)


def reference_simulate(instance, policy):
    """Scalar reference: rescan every live pair at each step.

    Same firing rule and tie order as the engine, written independently of
    its sorted event arrays, so the engine's bookkeeping (stale events, tie
    clusters found by searching the sorted times) has an oracle.
    """
    live = sorted(instance.requests, key=lambda r: (r.time, r.id))
    pairs = []
    while live:
        candidates = []
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                t = event_time(policy, live[i], live[j], instance.space)
                if t == math.inf:
                    continue
                early, late = sorted((live[i], live[j]), key=lambda r: (r.time, r.id))
                candidates.append((t, late.id, early.id))
        t0 = min(c[0] for c in candidates)
        cluster = [c for c in candidates if c[0] <= t0 + TIME_TIE_TOL]
        _, late_id, early_id = min(cluster, key=lambda c: (c[1], c[2]))
        pairs.append((min(early_id, late_id), max(early_id, late_id)))
        live = [r for r in live if r.id not in (early_id, late_id)]
    return pairs


def _kinds(instance):
    return [k for k in POLICY_KINDS if instance.bipartite or k != HEMISPHERE_BIPARTITE]


def _lattice_instance(seed):
    """Small instance on integer lattices, dense in exact and near ties.

    Times are multiples of a step that is either 1 or half of TIME_TIE_TOL, so
    tie clusters have several members and some events sit at or just past
    the head + TIME_TIE_TOL boundary.
    """
    import random

    rng = random.Random(seed)
    m = 2 * rng.randint(1, 8)
    step = rng.choice([1.0, 5e-10])
    kind = rng.choice(["line", "finite"])
    if kind == "line":
        space = MetricSpace.line()
        locations = [float(rng.randint(0, 3)) for _ in range(m)]
    else:
        # Entries in {1, 2} always satisfy the triangle inequality.
        n = 3
        matrix = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = float(rng.randint(1, 2))
        names = [f"p{i}" for i in range(n)]
        space = MetricSpace.finite(names, matrix)
        locations = [rng.choice(names) for _ in range(m)]
    bipartite = rng.random() < 0.5
    colors = [None] * m
    if bipartite:
        colors = [0] * (m // 2) + [1] * (m // 2)
        rng.shuffle(colors)
    ids = rng.sample(range(1, 100), m)
    requests = tuple(
        req(ids[i], locations[i], step * rng.randint(0, 4), colors[i]) for i in range(m)
    )
    return Instance(space, requests, bipartite=bipartite)


def _pairs(report):
    return [(min(r.p, r.q), max(r.p, r.q)) for r in report.records]


def _assert_agrees_with_reference(inst, eps_values):
    for kind in _kinds(inst):
        for eps in eps_values:
            policy = Policy(kind, eps)
            assert _pairs(simulate(inst, policy)) == reference_simulate(inst, policy), policy


@pytest.mark.parametrize("seed", range(60))
def test_tie_dense_lattice_agrees_with_rescan_reference(seed):
    _assert_agrees_with_reference(_lattice_instance(seed), (0.5, 1.0, 2.0))


def _cascade(k, eta, bipartite):
    return gen_lower_bound(LowerBoundParams(k=k, epsilon=1.0, eta=eta), bipartite=bipartite)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("eta", [0.0, 1e-6])
@pytest.mark.parametrize("bipartite", [False, True])
def test_tie_dense_cascade_agrees_with_rescan_reference(k, eta, bipartite):
    _assert_agrees_with_reference(_cascade(k, eta, bipartite), (1.0,))


# simulate picks its event builder from the request count alone, and the
# array scan builds events by arrival batches and sorts them in windows.
# These (SMALL_RUN_MAX, ARRIVAL_BATCH, SORT_WINDOW) limits force one path at
# every count: "arrays" is the array builder, and "batches" is that with
# batches of 2 requests and windows of 4 events, so every run crosses many
# batch boundaries and pulls unsorted events in many times.
BUILDER_LIMITS = {
    "tuples": (10**9, ARRIVAL_BATCH, SORT_WINDOW),
    "arrays": (0, ARRIVAL_BATCH, SORT_WINDOW),
    "batches": (0, 2, 4),
}


def _force(monkeypatch, name):
    small, batch, window = BUILDER_LIMITS[name]
    monkeypatch.setattr(engine, "SMALL_RUN_MAX", small)
    monkeypatch.setattr(engine, "ARRIVAL_BATCH", batch)
    monkeypatch.setattr(engine, "SORT_WINDOW", window)


@pytest.fixture(params=sorted(BUILDER_LIMITS))
def builder(request, monkeypatch):
    """Run the test with one of simulate's event paths forced."""
    _force(monkeypatch, request.param)
    return request.param


def test_tie_dense_cases_agree_with_rescan_reference_through_each_builder(builder):
    for seed in range(60):
        _assert_agrees_with_reference(_lattice_instance(seed), (0.5, 1.0, 2.0))
    for k in range(1, 7):
        for eta in (0.0, 1e-6):
            for bipartite in (False, True):
                _assert_agrees_with_reference(_cascade(k, eta, bipartite), (1.0,))


def _report_bits(report):
    return (
        [_record_bits(r) for r in report.records],
        report.online_cost.hex(),
        report.offline_weight.hex(),
    )


def _bits_by_builder(monkeypatch, inst, policy):
    """Each builder's report as bits, after checking it against the scalar path.

    Records must equal ``_pair_schedule`` and ``distance`` of their pair, and
    the offline weight must equal ``offline_weight``, summed in record order.
    """
    by_id = {r.id: r for r in inst.requests}
    bits = {}
    for name in BUILDER_LIMITS:
        _force(monkeypatch, name)
        report = simulate(inst, policy)
        for rec in report.records:
            p, q = by_id[rec.p], by_id[rec.q]
            match_time, delay_p, delay_q = _pair_schedule(policy, p, q, inst.space)
            connection = distance(inst.space, p.location, q.location)
            expected = MatchRecord(p.id, q.id, match_time, connection, delay_p, delay_q)
            assert _record_bits(rec) == _record_bits(expected)
        assert report.offline_weight.hex() == offline_weight(report.records, inst).hex()
        bits[name] = _report_bits(report)
    return bits


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
@pytest.mark.parametrize("bipartite", [False, True])
def test_builders_give_bit_identical_reports(metric, bipartite, monkeypatch):
    for m in range(2, SMALL_RUN_MAX + 9, 2):
        for seed in range(3):
            inst = gen_random(
                m, 100 * seed + m, metric=metric, dim=2, n_points=4, bipartite=bipartite
            )
            for kind in _kinds(inst):
                for eps in (0.1, 0.5, 2.0):
                    bits = _bits_by_builder(monkeypatch, inst, Policy(kind, eps))
                    assert bits["tuples"] == bits["arrays"] == bits["batches"], (
                        m, seed, kind, eps
                    )


def _with_points(inst, point):
    """The instance with every request's timed point replaced by point(request)."""
    return Instance(
        inst.space,
        tuple(Request(id=r.id, point=point(r), color=r.color) for r in inst.requests),
        bipartite=inst.bipartite,
    )


@pytest.mark.parametrize("shift", [2.0**e for e in (0, 4, 10, 20)])
def test_time_shift_keeps_pair_list(builder, shift):
    # Times on a grid of 2**-10 shift exactly, so each gap is unchanged and
    # only the final addition of each event time rounds differently.
    for m in (8, 16, 24):
        for metric in ("line", "euclidean", "finite"):
            for bipartite in (False, True):
                inst = _with_points(
                    gen_random(m, m + 31, metric=metric, bipartite=bipartite),
                    lambda r: TimedPoint(r.location, round(r.time * 1024) / 1024),
                )
                shifted = _with_points(inst, lambda r: TimedPoint(r.location, r.time + shift))
                for kind in _kinds(inst):
                    for eps in (0.5, 2.0):
                        policy = Policy(kind, eps)
                        assert _pairs(simulate(shifted, policy)) == _pairs(simulate(inst, policy))


@pytest.mark.parametrize("exponent", [22, 23, 24])
def test_tie_cluster_spans_one_ulp_below_2_to_the_24(builder, exponent):
    # TIME_TIE_TOL is absolute.  Below 2**24, t + TIME_TIE_TOL rounds up to
    # the next double after t (one ulp is 1.86e-9 at 2**23), so (1, 2), one
    # ulp later, joins the cluster of (3, 4) and fires first by the id key.
    # From 2**24 (one ulp 3.7e-9) it rounds down to t: a cluster holds only
    # equal times, and (3, 4) fires first by time.
    t = 2.0**exponent + 0.5
    later = math.nextafter(t, math.inf)
    spans_one_ulp = exponent < 24
    assert (t + TIME_TIE_TOL > t) == spans_one_ulp
    inst = Instance(
        LINE, (req(3, 0.0, t), req(4, 0.0, t), req(1, 100.0, later), req(2, 100.0, later))
    )
    pairs = _pairs(simulate(inst, Policy(NOTIME_LATE, 1.0)))
    assert pairs == ([(1, 2), (3, 4)] if spans_one_ulp else [(3, 4), (1, 2)])


FLOAT_FIELDS = ("match_time", "connection", "delay_p", "delay_q")


def test_doubling_line_positions_and_times_doubles_every_record_field(builder):
    # Doubling is exact in binary floating point and commutes with every
    # operation of the firing rule and of the cost sums.
    for m in (8, 16, 24):
        for seed in range(4):
            inst = gen_random(m, seed, metric="line", bipartite=seed % 2 == 1)
            doubled = _with_points(inst, lambda r: TimedPoint(2 * r.location, 2 * r.time))
            for kind in _kinds(inst):
                for eps in (0.1, 0.5, 2.0):
                    base = simulate(inst, Policy(kind, eps))
                    big = simulate(doubled, Policy(kind, eps))
                    twice = [
                        (r.p, r.q) + tuple((2 * getattr(r, f)).hex() for f in FLOAT_FIELDS)
                        for r in base.records
                    ]
                    assert [_record_bits(r) for r in big.records] == twice
                    assert big.online_cost.hex() == (2 * base.online_cost).hex()
                    assert big.offline_weight.hex() == (2 * base.offline_weight).hex()


def _same_place(times, ids=None, loc=0.0):
    """A line instance whose requests all sit at loc, arriving at the given times."""
    ids = ids or range(1, len(times) + 1)
    return Instance(LINE, tuple(req(rid, loc, t) for rid, t in zip(ids, times)))


def _ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


# Degenerate event times: all equal, a spread of a few ulps, times near
# +-1e308 whose span overflows, and a subnormal span.
DEGENERATE_TIMES = {
    "equal": [5.0] * 8,
    "ulps": [_ulps_above(1.0, k) for k in range(8)],
    "overflow": [-8e307] * 4 + [8e307] * 4,
    "subnormal": [0.0] * 4 + [5e-324] * 4,
}
# Those at one place, and locations near +-1e308 whose differences overflow
# to an infinite distance.
DEGENERATE_INPUTS = {case: _same_place(times) for case, times in DEGENERATE_TIMES.items()}
DEGENERATE_INPUTS["far-apart"] = Instance(
    LINE, tuple(req(k + 1, (-1.0) ** k * 1e308, float(k)) for k in range(8))
)


@pytest.mark.parametrize("case", sorted(DEGENERATE_INPUTS))
def test_degenerate_times_need_no_warning(case, monkeypatch):
    inst = DEGENERATE_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # epsilon = 4 keeps the overflow case's event times finite; at 1 they
        # overflow to inf in a sum, and at 1e-10 in a quotient.
        for kind, epsilon in itertools.product(_kinds(inst), (1e-10, 1.0, 4.0)):
            policy = Policy(kind, epsilon)
            bits = _bits_by_builder(monkeypatch, inst, policy)
            assert bits["tuples"] == bits["arrays"] == bits["batches"], policy


def _spy_batches(monkeypatch):
    """Record (start, stop, pending positions) of every batch the engine builds."""
    built = []
    batch_events = engine._batch_events

    def spy(space, policy, loc, t, colors, pending, start, stop):
        built.append((start, stop, pending.tolist()))
        return batch_events(space, policy, loc, t, colors, pending, start, stop)

    monkeypatch.setattr(engine, "_batch_events", spy)
    return built


@pytest.mark.parametrize(
    "later, first_pairs",
    [(2.5e-10, [(1, 10), (2, 11)]), (5e-10, [(1, 10), (2, 11)]), (1e-9, [(1, 2)])],
    ids=["2.5e-10", "5e-10", "1e-9"],
)
def test_tie_cluster_reaching_a_later_arrival_builds_its_batch_first(
    later, first_pairs, monkeypatch
):
    # Six requests at time 0 give 15 events at 0.  Requests 1 and 2 arrive
    # later, after the first batch of 2, so their 12 pairs with the others
    # fire at 2 * later: at 5e-10, inside the tie tolerance of time 0, or at
    # 1e-9, exactly on its bound.  Those events lead the id key.  Arriving
    # at 1e-9, exactly on the bound, requests 1 and 2 pair with each other
    # at once, and that event leads.
    inst = _same_place([0.0] * 6 + [later] * 2, ids=[10, 11, 12, 13, 14, 15, 1, 2])
    policy = Policy(HEMISPHERE, 1.0)
    _force(monkeypatch, "batches")
    built = _spy_batches(monkeypatch)
    pairs = _pairs(simulate(inst, policy))
    assert pairs[: len(first_pairs)] == first_pairs
    assert pairs == reference_simulate(inst, policy)
    # The second batch takes in every arrival up to the bound of the first
    # batch's tie cluster, before any pair fires.
    assert built == [(0, 2, []), (2, 8, [0, 1])]


def test_tie_cluster_over_several_batches(monkeypatch):
    # Every event time lies within a few ulps of 1, so one tie cluster holds
    # every event.  With batches of one request the first has no pair, the
    # second one, and the third every other; the id key picks a pair that
    # joins the first batch to the third.
    inst = _same_place(DEGENERATE_TIMES["ulps"], ids=[20, 21, 1, 2, 3, 4, 5, 6])
    policy = Policy(HEMISPHERE, 1.0)
    _force(monkeypatch, "batches")
    monkeypatch.setattr(engine, "ARRIVAL_BATCH", 1)
    built = _spy_batches(monkeypatch)
    pairs = _pairs(simulate(inst, policy))
    assert pairs == reference_simulate(inst, policy)
    assert pairs[0] == (1, 20)
    assert built == [(0, 1, []), (1, 2, [0]), (2, 8, [0, 1])]


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_unsorted_events_are_pulled_in_before_they_can_fire(metric, monkeypatch):
    # With windows of 4 events most batches leave events unsorted, and the
    # scan must sort them in before the head's tie cluster reaches them.
    _force(monkeypatch, "batches")
    cut = []
    window = engine._sorted_window

    def spy(times, early, late, horizon):
        result = window(times, early, late, horizon)
        if result[3] < math.inf:
            cut.append(result[3])
        return result

    monkeypatch.setattr(engine, "_sorted_window", spy)
    for seed in range(3):
        inst = gen_random(24, seed, metric=metric, bipartite=seed == 2)
        _assert_agrees_with_reference(inst, (0.5, 2.0))
    assert len(cut) > 10


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_every_request_at_once_peaks_near_two_copies_of_the_events(metric, deadline):
    # With every request at t=0 one batch builds every pair.  An event takes
    # 16 bytes, so the peak holds about two copies of all of them: the batch
    # joined to the pool it is added to.
    m = 1024
    inst = gen_random(m, 1, metric=metric)
    inst = Instance(inst.space, tuple(req(r.id, r.location, 0.0) for r in inst.requests))
    tracemalloc.start()
    try:
        simulate(inst, Policy(HEMISPHERE, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 34 * m * (m - 1) // 2


def test_time_outlier_agrees_with_rescan_reference(builder):
    # One request arrives long after the rest: the last arrival batch waits
    # for it alone, while every other pair has long fired.
    for metric in ("line", "euclidean", "finite"):
        for bipartite in (False, True):
            inst = gen_random(24, 5, metric=metric, bipartite=bipartite)
            late = inst.requests[7]
            inst = Instance(
                inst.space,
                inst.requests[:7]
                + (Request(late.id, TimedPoint(late.location, 1e6), late.color),)
                + inst.requests[8:],
                bipartite=bipartite,
            )
            _assert_agrees_with_reference(inst, (0.5, 2.0))


def _longest_stale_run(instance, policy, records):
    """Longest run of stale events a full sort skips at one step of the run.

    Replays the records in firing order over every event sorted at once:
    before each step the head moves past every stale event to the first
    live one.
    """
    requests = instance.requests
    position = {r.id: k for k, r in enumerate(requests)}
    _, early, late = _sorted_events(requests, instance.space, policy)
    matched = np.zeros(len(requests), dtype=bool)
    head = longest = 0
    for rec in records:
        start = head
        while matched[early[head]] or matched[late[head]]:
            head += 1
        longest = max(longest, head - start)
        matched[position[rec.p]] = matched[position[rec.q]] = True
    return longest


@pytest.mark.parametrize("m", [24, 32, 48])
@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
@pytest.mark.parametrize("bipartite", [False, True])
def test_long_stale_runs_agree_with_rescan_reference(m, metric, bipartite, deadline):
    # At these sizes some steps of a full sort pass over long runs of stale
    # events, which the scan skips one by one.
    inst = gen_random(m, m + 7, metric=metric, dim=2, n_points=4, bipartite=bipartite)
    longest = 0
    for kind in _kinds(inst):
        for eps in (0.5, 2.0):
            policy = Policy(kind, eps)
            records = simulate(inst, policy).records
            engine_pairs = [(min(r.p, r.q), max(r.p, r.q)) for r in records]
            assert engine_pairs == reference_simulate(inst, policy)
            longest = max(longest, _longest_stale_run(inst, policy, records))
    assert longest > 64


def _scalar_events(policy, requests, space, pairs):
    """(time, later id, earlier id) of each admissible pair of positions, sorted."""
    return sorted(
        (event_time(policy, requests[i], requests[j], space), requests[j].id, requests[i].id)
        for i, j in pairs
        if event_time(policy, requests[i], requests[j], space) != math.inf
    )


@pytest.mark.parametrize("seed", range(10))
def test_sorted_events_equal_scalar_firing_rule(seed, monkeypatch):
    # Event times are compared with ==.  Only the times need to be sorted:
    # events of equal time always share a tie cluster.
    inst = _lattice_instance(seed) if seed % 2 else gen_random(
        14, seed, metric=["line", "euclidean", "finite"][seed % 3], bipartite=True
    )
    requests = inst.requests
    m = len(requests)
    loc = [r.location for r in requests]
    arrival = np.array([r.time for r in requests], dtype=float)
    _force(monkeypatch, "arrays")
    for kind in _kinds(inst):
        policy = Policy(kind, 0.7)
        times, early, late = _sorted_events(requests, inst.space, policy)
        got = [
            (t, requests[j].id, requests[i].id)
            for t, i, j in zip(times.tolist(), early.tolist(), late.tolist())
        ]
        expected = _scalar_events(policy, requests, inst.space, itertools.combinations(range(m), 2))
        assert times.tolist() == sorted(times.tolist())
        assert sorted(got) == expected
        # The engine's batches: positions start..m-1 pair with each other and
        # with the pending positions, all of them or every other one.
        colors = None
        if kind == HEMISPHERE_BIPARTITE:
            colors = np.array([r.color for r in requests], dtype=np.int8)
        for start, step in itertools.product((0, 1, m // 2), (1, 2)):
            pending = np.arange(0, start, step, dtype=np.int32)
            times, early, late = engine._batch_events(
                inst.space, policy, loc, arrival, colors, pending, start, m
            )
            assert early.dtype == late.dtype == np.int32
            got = sorted(
                (t, requests[j].id, requests[i].id)
                for t, i, j in zip(times.tolist(), early.tolist(), late.tolist())
            )
            pairs = [
                (i, j) for j in range(start, m) for i in pending.tolist() + list(range(start, j))
            ]
            assert got == _scalar_events(policy, requests, inst.space, pairs)


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_records_equal_scalar_schedule(metric):
    inst = gen_random(40, 3, metric=metric, bipartite=True)
    by_id = {r.id: r for r in inst.requests}
    for kind in _kinds(inst):
        policy = Policy(kind, 0.3)
        for rec in simulate(inst, policy).records:
            p, q = by_id[rec.p], by_id[rec.q]
            match_time, delay_p, delay_q = _pair_schedule(policy, p, q, inst.space)
            assert rec.match_time == match_time
            assert rec.delay_p == delay_p
            assert rec.delay_q == delay_q
            assert rec.connection == distance(inst.space, p.location, q.location)


random_runs = st.tuples(
    st.integers(min_value=1, max_value=6).map(lambda h: 2 * h),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["line", "euclidean", "finite"]),
    st.booleans(),
    st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)


@given(params=random_runs)
@settings(max_examples=150, deadline=None)
def test_simulation_agrees_with_rescan_reference(params):
    m, seed, metric, bipartite, eps = params
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    kinds = [HEMISPHERE, NOTIME_MIN, NOTIME_LATE]
    if bipartite:
        kinds.append(HEMISPHERE_BIPARTITE)
    for kind in kinds:
        policy = Policy(kind, eps)
        engine_pairs = [
            (min(r.p, r.q), max(r.p, r.q)) for r in simulate(inst, policy).records
        ]
        assert engine_pairs == reference_simulate(inst, policy)


@given(params=random_runs)
@settings(max_examples=150, deadline=None)
def test_run_invariants(params):
    m, seed, metric, bipartite, eps = params
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    kinds = [HEMISPHERE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY]
    if bipartite:
        kinds.append(HEMISPHERE_BIPARTITE)
    tally = Tally()
    for kind in kinds:
        report = simulate(inst, Policy(kind, eps))
        # Perfect matching, feasibility and determinism.
        check_run_basics(tally, inst, report, kind)
        # The check allows delays down to -1e-9; the engine's are never negative.
        assert all(rec.delay_p >= 0.0 and rec.delay_q >= 0.0 for rec in report.records)
    assert_all_ok(tally)


@given(params=random_runs)
@settings(max_examples=150, deadline=None)
def test_hemisphere_cost_scaling_identity(params):
    m, seed, metric, bipartite, eps = params
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    kinds = [HEMISPHERE] + ([HEMISPHERE_BIPARTITE] if bipartite else [])
    tally = Tally()
    for kind in kinds:
        check_cost_scaling(tally, simulate(inst, Policy(kind, eps)), kind)
    assert_all_ok(tally)


@given(params=random_runs)
@settings(max_examples=100, deadline=None)
def test_last_pair_inequality(params):
    m, seed, metric, bipartite, eps = params
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    tally = Tally()
    check_last_pair_inequality(tally, inst, simulate(inst, Policy(HEMISPHERE, eps)), HEMISPHERE)
    assert_all_ok(tally)


def _record_bits(rec, new_id=None):
    ids = (rec.p, rec.q) if new_id is None else (new_id[rec.p], new_id[rec.q])
    return ids + tuple(getattr(rec, f).hex() for f in FLOAT_FIELDS)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=8).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
    bipartite=st.booleans(),
    eps=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    gaps=st.lists(st.integers(min_value=1, max_value=50), min_size=16, max_size=16),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_simulate_commutes_with_relabel_and_request_order(
    seed, m, metric, bipartite, eps, gaps, order
):
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    ids = sorted(r.id for r in inst.requests)
    # Strictly increasing new ids keep the id key's order.
    new_id = {}
    last = -1
    for rid, gap in zip(ids, gaps):
        last += gap
        new_id[rid] = last
    relabelled = Instance(
        inst.space,
        tuple(
            Request(id=new_id[r.id], point=r.point, color=r.color) for r in inst.requests
        ),
        bipartite=bipartite,
    )
    shuffled_requests = list(inst.requests)
    order.shuffle(shuffled_requests)
    shuffled = Instance(inst.space, tuple(shuffled_requests), bipartite=bipartite)
    for kind in _kinds(inst):
        policy = Policy(kind, eps)
        base = simulate(inst, policy)
        moved = simulate(relabelled, policy)
        assert [_record_bits(r) for r in moved.records] == [
            _record_bits(r, new_id) for r in base.records
        ]
        assert moved.online_cost.hex() == base.online_cost.hex()
        assert moved.offline_weight.hex() == base.offline_weight.hex()
        assert simulate(shuffled, policy) == base
