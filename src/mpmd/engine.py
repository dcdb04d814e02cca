"""Discrete-event simulation of the online matching policies.

Each policy assigns every unordered pair of requests an anticipated match
time.  The hemisphere policies grow a ball around each request in the
time-augmented metric, backwards in time, at radius rate epsilon: a pair
fires at max(t(p), t(q)) + D(p, q) / epsilon.  The no-time variants grow
spheres in space only and differ in which arrival anchors the sphere; a
match can never precede the later arrival, so anchored-at-the-earlier
variants are clamped to it.

A pair's firing time depends on that pair alone, so ``simulate`` computes
every admissible pair's time at once as numpy arrays, sorts the events once
by time, and scans the sorted list.  An event whose endpoint is already
matched is stale and skipped.  At the first live event the scan gathers the
tie cluster, every event no later than its time plus ``TIME_TIE_TOL``, and
fires the live member with the smallest id key (later-arrival id, then
earlier id); the other members stay in place for the next step.  Pairs thus
fire in a deterministic order: by event time, with times within
``TIME_TIE_TOL`` of the earliest live one ordered by the id key.  Memory is
O(m^2): about 24 bytes per admissible pair plus the m-by-m distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpmd.metric import (
    MetricSpace,
    Point,
    TimedPoint,
    augmented_distance,
    distance,
    is_finite_real,
    pairwise,
    validate_point,
)

HEMISPHERE = "hemisphere"
HEMISPHERE_BIPARTITE = "hemisphere-b"
NOTIME_MIN = "notime-min"
NOTIME_LATE = "notime-late"
NOTIME_EARLY = "notime-early"

POLICY_KINDS = (HEMISPHERE, HEMISPHERE_BIPARTITE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY)

# Absolute tolerance under which two event times are considered tied.
TIME_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Request:
    """A single request: id, timed location, and an optional color label."""

    id: int
    point: TimedPoint
    color: int | None = None

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"request id must be non-negative, got {self.id}")
        if self.color not in (None, 0, 1):
            raise ValueError(f"request color must be 0 or 1, got {self.color!r}")

    @property
    def time(self) -> float:
        return self.point.time

    @property
    def location(self) -> Point:
        return self.point.location


@dataclass(frozen=True)
class Instance:
    """A metric space plus an ordered list of requests.

    The request count must be even, ids unique, every time finite, and every
    location a valid, finite point of the space.  Bipartite instances carry a
    color on every request with both colors equally frequent; monochromatic
    instances carry no colors.
    """

    space: MetricSpace
    requests: tuple[Request, ...]
    bipartite: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        ids = [r.id for r in self.requests]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate request id {dup}")
        if len(ids) % 2 != 0:
            raise ValueError("request count must be even")
        for r in self.requests:
            if not is_finite_real(r.time):
                raise ValueError(f"request {r.id} time: expected a finite number, got {r.time!r}")
            try:
                validate_point(self.space, r.location)
            except ValueError as exc:
                raise ValueError(f"request {r.id} location: {exc}") from None
            if self.bipartite and r.color is None:
                raise ValueError(f"request {r.id} has no color on a bipartite instance")
            if not self.bipartite and r.color is not None:
                raise ValueError(f"request {r.id} carries a color on a monochromatic instance")
        if self.bipartite:
            zeros = sum(1 for r in self.requests if r.color == 0)
            if zeros * 2 != len(ids):
                raise ValueError(
                    f"bipartite colors are imbalanced: {zeros} vs {len(ids) - zeros}"
                )

    @property
    def size(self) -> int:
        return len(self.requests)

    def request(self, rid: int) -> Request:
        for r in self.requests:
            if r.id == rid:
                return r
        raise ValueError(f"unknown request id {rid}")


@dataclass(frozen=True)
class Policy:
    """A policy kind together with its radius growth rate epsilon."""

    kind: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be strictly positive, got {self.epsilon}")


@dataclass(frozen=True)
class MatchRecord:
    """One matched pair: p arrived no later than q (ties broken by smaller id)."""

    p: int
    q: int
    match_time: float
    connection: float
    delay_p: float
    delay_q: float


@dataclass(frozen=True)
class RunReport:
    """The full outcome of one simulation run."""

    policy: Policy
    records: tuple[MatchRecord, ...]
    online_cost: float
    offline_weight: float


def _ordered(a: Request, b: Request) -> tuple[Request, Request]:
    """(earlier, later) by arrival time, ties by smaller id."""
    if (a.time, a.id) <= (b.time, b.id):
        return a, b
    return b, a


def _pair_schedule(
    policy: Policy, a: Request, b: Request, space: MetricSpace
) -> tuple[float, float, float] | None:
    """Anticipated (match_time, delay_earlier, delay_later) for the pair.

    Returns None when the policy never matches the pair (same color under the
    bipartite policy).  Delays are derived from the firing rule itself rather
    than by subtracting large times, keeping the per-pair cost identities
    exact at double precision.
    """
    if policy.kind == HEMISPHERE_BIPARTITE and a.color == b.color:
        return None
    early, late = _ordered(a, b)
    gap = late.time - early.time
    wait = _wait(policy, distance(space, a.location, b.location), gap, max)
    return late.time + wait, gap + wait, wait


def _wait(policy: Policy, d, gap, clamp):
    """Time the later arrival waits before the pair fires: the firing rule.

    d and gap are the pair's spatial distance and arrival gap, as floats or as
    numpy arrays (with ``clamp`` = ``max`` or ``np.maximum``); either way the
    same IEEE operations run, so array event times equal scalar ones exactly.
    """
    if policy.kind in (HEMISPHERE, HEMISPHERE_BIPARTITE):
        return (d + gap) / policy.epsilon
    if policy.kind == NOTIME_LATE:
        return d / policy.epsilon
    # Sphere anchored at the earlier arrival, clamped to the later one.
    return clamp(0.0, d / policy.epsilon - gap)


def event_time(policy: Policy, p: Request, q: Request, space: MetricSpace) -> float:
    """Earliest time the pair may be matched, or inf when the policy never will."""
    if p.id == q.id:
        raise ValueError("event_time requires two distinct requests")
    schedule = _pair_schedule(policy, p, q, space)
    if schedule is None:
        return float("inf")
    return schedule[0]


def online_cost(records) -> float:
    """Total connection plus delay cost actually paid."""
    return sum(r.connection + r.delay_p + r.delay_q for r in records)


def offline_weight(records, instance: Instance) -> float:
    """Total time-augmented weight of the matching the records describe."""
    by_id = {r.id: r for r in instance.requests}
    total = 0.0
    for rec in records:
        try:
            p, q = by_id[rec.p], by_id[rec.q]
        except KeyError as exc:
            raise ValueError(f"unknown request id {exc.args[0]}") from None
        total += augmented_distance(instance.space, p.point, q.point)
    return total


def _check_compatible(instance: Instance, policy: Policy) -> None:
    if policy.kind == HEMISPHERE_BIPARTITE and not instance.bipartite:
        raise ValueError("bipartite policy requires a bipartite instance")


def _sorted_events(
    requests: list[Request], space: MetricSpace, policy: Policy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every admissible pair's event, sorted by event time.

    ``requests`` is sorted by (time, id), so in each pair (i, j) with i < j
    request i is the earlier arrival.  Returns the sorted event times, the
    int32 positions of each event's earlier and later request, and each
    position's rank in id order, which stands in for the id in the tie key.
    """
    m = len(requests)
    rank = np.empty(m, dtype=np.int32)
    rank[sorted(range(m), key=lambda k: requests[k].id)] = np.arange(m, dtype=np.int32)
    admissible = ~np.tri(m, dtype=bool)  # the upper triangle: i < j
    if policy.kind == HEMISPHERE_BIPARTITE:
        colors = np.array([r.color for r in requests], dtype=np.int8)
        admissible &= colors[:, None] != colors[None, :]
    early, late = np.nonzero(admissible)
    del admissible
    early, late = early.astype(np.int32), late.astype(np.int32)
    d = pairwise(space, [r.location for r in requests])[early, late]
    t = np.array([r.time for r in requests], dtype=float)
    gap = t[late]
    gap -= t[early]
    times = _wait(policy, d, gap, np.maximum)
    del d, gap
    times += t[late]
    # Events of exactly equal times always share a tie cluster, where the id
    # key decides, so their relative order does not matter and an unstable
    # float sort will do; it is several times faster than a stable sort or a
    # lexsort that orders by the id key too.
    order = np.argsort(times)
    return times[order], early[order], late[order], rank


def simulate(instance: Instance, policy: Policy) -> RunReport:
    """Run the policy over the instance and return the complete match report.

    A pure function of its arguments: repeated runs produce identical
    reports.  Records are emitted in firing order, which respects the
    deterministic event order described in the module docstring.  Each
    record's times and costs come from the scalar firing rule of its pair.
    """
    _check_compatible(instance, policy)
    space = instance.space
    requests = sorted(instance.requests, key=lambda r: (r.time, r.id))
    m = len(requests)
    times, early, late, rank = _sorted_events(requests, space, policy)
    n = len(times)
    # Element reads through memoryviews are Python numbers, without the cost
    # of numpy scalars or of a list copy of every event.
    time_at, early_at, late_at = memoryview(times), memoryview(early), memoryview(late)
    matched = bytearray(m)
    matched_np = np.frombuffer(matched, dtype=np.uint8)  # a view of the same bytes

    records: list[MatchRecord] = []
    head = 0
    while len(records) * 2 < m:
        while head < n and (matched[early_at[head]] or matched[late_at[head]]):
            head += 1
        if head == n:
            raise ValueError("no admissible pair left; perfect matching impossible")
        chosen = head
        limit = time_at[head] + TIME_TIE_TOL
        if head + 1 < n and time_at[head + 1] <= limit:
            # A tie cluster: fire its live member with the smallest id key.
            end = int(np.searchsorted(times, limit, side="right"))
            seg_early, seg_late = early[head:end], late[head:end]
            live = np.flatnonzero((matched_np[seg_early] | matched_np[seg_late]) == 0)
            key = rank[seg_late[live]].astype(np.int64) * m + rank[seg_early[live]]
            chosen = head + int(live[np.argmin(key)])
        a, b = requests[early_at[chosen]], requests[late_at[chosen]]
        matched[early_at[chosen]] = matched[late_at[chosen]] = 1
        match_time, delay_early, delay_late = _pair_schedule(policy, a, b, space)
        records.append(
            MatchRecord(
                p=a.id,
                q=b.id,
                match_time=match_time,
                connection=distance(space, a.location, b.location),
                delay_p=delay_early,
                delay_q=delay_late,
            )
        )

    recs = tuple(records)
    return RunReport(
        policy=policy,
        records=recs,
        online_cost=online_cost(recs),
        offline_weight=offline_weight(recs, instance),
    )
