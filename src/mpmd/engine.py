"""Discrete-event simulation of the online matching policies.

Each policy assigns every unordered pair of requests an anticipated match
time.  The hemisphere policies grow a ball around each request in the
time-augmented metric, backwards in time, at radius rate epsilon: a pair
fires at max(t(p), t(q)) + D(p, q) / epsilon.  The no-time variants grow
spheres in space only and differ in which arrival anchors the sphere; a
match can never precede the later arrival, so anchored-at-the-earlier
variants are clamped to it.

A pair's firing time depends on that pair alone, so ``simulate`` computes
every admissible pair's event once and fires them in time order.  Two
builders make the same events, chosen by the request count alone.  Runs of
at most ``SMALL_RUN_MAX`` requests build, sort and scan plain Python tuples
(time, i, j, d, gap, wait): there numpy's fixed cost of tens of microseconds
per call outweighs its speed, and ``verify`` makes thousands of such calls.
Larger runs compute the times as numpy arrays and sort them lazily, since
only m/2 of the m(m-1)/2 events fire and the last of them often comes late
in time order.  The events are split into time buckets of about
``BUCKET_EVENTS`` each, by a linear histogram of the times and one radix sort
of the uint8 bucket ids.  The scan moves one bucket at a time into its
sorted events: it drops every event with a matched endpoint and sorts only
the rest: 3 to 7 percent of all events on the benchmark's m=1024 runs.  An
event whose endpoint is already matched is stale and skipped: one by one in
the tuple scan; in the array scan up to ``SCALAR_SKIP`` of them one by one,
then in windows of doubling width, each tested at once with numpy, until a
window holds a live event.  At the first live event the scan gathers the tie
cluster, every event no later than its time plus ``TIME_TIE_TOL``, and fires
the live member with the smallest id key (later-arrival id, then earlier
id); the other members stay in place for the next step.  Before that, while
the cluster's bound reaches the smallest time of the next bucket, the scan
moves that bucket in too, so a cluster across a bucket boundary is whole.
Pairs thus fire in a deterministic order: by event time, with times within
``TIME_TIE_TOL`` of the earliest live one ordered by the id key, which
depends only on which requests are matched, not on how the events were
sorted.  The tolerance is absolute, so it means less as times grow: near
4.5e6 one ulp of a double is about 1e-9, the tolerance itself, and from 2**23
(about 8.4e6) on a cluster holds only exactly equal times.  Each record, and
the offline weight, come from the fired pair's own d, gap and wait, computed
by the same IEEE operations in both builders, so their reports are equal bit
for bit.  The array builder takes each admissible pair's distance from
``pair_distances``, without an m-by-m distance matrix, and makes its pair
indices arithmetically, without an m-by-m mask.  Memory is O(m^2): the scan
holds 24 bytes per admissible pair (the time, two int32 positions and the
bucket order), and the radix sort peaks at about 34.

The requests come in the arrival order that ``Instance`` keeps, so of two
positions the lower is the earlier arrival.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mpmd.metric import (
    MetricSpace,
    Point,
    TimedPoint,
    distance_kernel,
    is_finite_real,
    pair_distances,
    validate_point,
)

HEMISPHERE = "hemisphere"
HEMISPHERE_BIPARTITE = "hemisphere-b"
NOTIME_MIN = "notime-min"
NOTIME_LATE = "notime-late"
NOTIME_EARLY = "notime-early"

POLICY_KINDS = (HEMISPHERE, HEMISPHERE_BIPARTITE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY)

# Largest request count of an instance.  A run holds O(m^2) memory: one
# hemisphere run on the line peaked at 147 MB of RSS at m=2048 and 352 MB at
# m=4096, about 34 bytes per pair over an 80 MB interpreter, which
# extrapolates to about 1.2 GB at m=8192 and 4.6 GB at m=16384.
REQUEST_COUNT_MAX = 8192

# Absolute tolerance under which two event times are considered tied.
TIME_TIE_TOL = 1e-9

# Stale events the array scan skips one at a time before it tests whole
# windows, and the first window's width.  A numpy window costs microseconds at
# any width and most steps skip only a few stale events, so the scalar check
# comes first: when every run used the array scan, windows alone made the
# verify benchmark 20% slower, and limits of 8 and 128 were slower than 32 on
# verify and large.
SCALAR_SKIP = 32

# Largest request count whose events simulate builds, sorts and scans as
# Python tuples rather than numpy arrays.  Per call on random hemisphere runs
# (2-vCPU Xeon VM), tuples took 32-41 us against 58-78 us for arrays at m=8;
# at m=16, 102 against 86 us on the line, 102 against 103 on a finite space
# and 101 against 135 in the plane; at m=48 they were 2-3x slower.
SMALL_RUN_MAX = 16

# Events per block of the passes over every event: a block's temporaries
# stay in cache, and the passes allocate no event-sized temporary.
BLOCK_EVENTS = 1 << 13

# Events per time bucket of the array scan, the most buckets a run uses (their
# ids are uint8), and the fine histogram bins per bucket that place the
# bucket boundaries.
BUCKET_EVENTS = 16384
BUCKET_COUNT_MAX = 255
FINE_BINS = 64

_NO_PAIR_LEFT = "no admissible pair left; perfect matching impossible"


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
    """A metric space plus its requests in arrival order.

    The request count must be even and at most ``REQUEST_COUNT_MAX``, ids
    unique, every time finite, and every location a valid, finite point of
    the space.  Bipartite instances carry a color on every request with both
    colors equally frequent; monochromatic instances carry no colors.
    ``requests`` is stored sorted by (time, id), whatever order it was given
    in, so two instances that list the same requests in different orders are
    equal, and every consumer may rely on arrival order.
    """

    space: MetricSpace
    requests: tuple[Request, ...]
    bipartite: bool = False

    def __post_init__(self) -> None:
        requests = tuple(self.requests)
        if len(requests) > REQUEST_COUNT_MAX:
            raise ValueError(
                f"request count must be at most {REQUEST_COUNT_MAX}, got m={len(requests)}"
            )
        ids = [r.id for r in requests]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate request id {dup}")
        if len(ids) % 2 != 0:
            raise ValueError("request count must be even")
        for r in requests:
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
            zeros = sum(1 for r in requests if r.color == 0)
            if zeros * 2 != len(ids):
                raise ValueError(
                    f"bipartite colors are imbalanced: {zeros} vs {len(ids) - zeros}"
                )
        arrival = tuple(sorted(requests, key=lambda r: (r.time, r.id)))
        object.__setattr__(self, "requests", arrival)

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class Policy:
    """A policy kind together with its radius growth rate epsilon."""

    kind: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (is_finite_real(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and strictly positive, got {self.epsilon}")


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


def online_cost(records) -> float:
    """Total connection plus delay cost actually paid."""
    return sum(r.connection + r.delay_p + r.delay_q for r in records)


def augmented_by_id(instance: Instance) -> Callable[[int, int], float]:
    """Time-augmented distance between two of the instance's requests, by id.

    The instance checked its points when it was built, so the spatial part
    comes from the unchecked ``distance_kernel``; the result equals
    ``augmented_distance`` bit for bit.  An id the instance lacks raises
    ValueError.
    """
    points = {r.id: r.point for r in instance.requests}
    dist = distance_kernel(instance.space)

    def weight(p: int, q: int) -> float:
        try:
            a, b = points[p], points[q]
        except KeyError as exc:
            raise ValueError(f"unknown request id {exc.args[0]}") from None
        return dist(a.location, b.location) + abs(a.time - b.time)

    return weight


def offline_weight(records, instance: Instance) -> float:
    """Total time-augmented weight of the matching the records describe."""
    weight = augmented_by_id(instance)
    total = 0.0
    for rec in records:
        total += weight(rec.p, rec.q)
    return total


def _check_compatible(instance: Instance, policy: Policy) -> None:
    if policy.kind == HEMISPHERE_BIPARTITE and not instance.bipartite:
        raise ValueError("bipartite policy requires a bipartite instance")


def _pair_positions(
    requests: tuple[Request, ...], policy: Policy
) -> tuple[np.ndarray, np.ndarray]:
    """The int32 positions (early, late) of every admissible pair, early < late.

    The order of the pairs does not matter: the scan sorts them by time, and
    events of equal time always share a tie cluster, where the id key decides.
    """
    if policy.kind == HEMISPHERE_BIPARTITE:
        colors = np.array([r.color for r in requests], dtype=np.int8)
        zero = np.flatnonzero(colors == 0).astype(np.int32)
        one = np.flatnonzero(colors).astype(np.int32)
        a = np.repeat(zero, len(one))
        b = np.tile(one, len(zero))
        early = np.minimum(a, b)
        return early, np.maximum(a, b, out=a)
    # Position j is the later request of j pairs, whose earlier ones are 0..j-1.
    counts = np.arange(len(requests), dtype=np.int32)
    late = np.repeat(counts, counts)
    early = np.arange(len(late), dtype=np.int32)
    early -= np.repeat(counts * (counts - 1) // 2, counts)
    return early, late


def _events(
    requests: tuple[Request, ...], space: MetricSpace, policy: Policy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every admissible pair's event, unsorted.

    ``requests`` is in arrival order, as ``Instance`` keeps it, so in each
    pair (i, j) with i < j request i is the earlier arrival.  Returns the
    event times, the int32 positions of each event's earlier and later
    request, and each position's rank in id order, which stands in for the id
    in the tie key.
    """
    m = len(requests)
    rank = np.empty(m, dtype=np.int32)
    rank[sorted(range(m), key=lambda k: requests[k].id)] = np.arange(m, dtype=np.int32)
    early, late = _pair_positions(requests, policy)
    times = pair_distances(space, [r.location for r in requests], early, late)
    t = np.array([r.time for r in requests], dtype=float)
    # Each block's distances turn into its event times in place, through
    # temporaries of one block.
    for start in range(0, len(times), BLOCK_EVENTS):
        block = slice(start, start + BLOCK_EVENTS)
        # Fancy indexing is several times faster with intp indices.
        t_late = t[late[block].astype(np.intp)]
        gap = t_late - t[early[block].astype(np.intp)]
        np.add(_wait(policy, times[block], gap, np.maximum), t_late, out=times[block])
    return times, early, late, rank


def _bucket_ids(times: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each event's time bucket as uint8 and each bucket's size, or None.

    Bucket ids do not decrease as times grow, and the buckets hold roughly
    equal numbers of events: the times are histogrammed linearly into
    ``FINE_BINS`` bins per bucket, and consecutive bins are grouped by their
    cumulative count.  None means one bucket must do.  The span and the scale
    are Python floats, which overflow to inf without a warning; equal times,
    a span that overflows and a span so small that the scale is inf all give
    None.
    """
    lo = float(times.min())
    span = float(times.max()) - lo
    bins = FINE_BINS * count
    scale = bins / span if span > 0 else math.inf
    if not 0 < scale < math.inf:
        return None
    blocks = range(0, len(times), BLOCK_EVENTS)

    def fine_bins(start: int) -> np.ndarray:
        fine = times[start : start + BLOCK_EVENTS] - lo
        fine *= scale
        index = fine.astype(np.intp)
        return np.minimum(index, bins - 1, out=index)

    sizes = sum(np.bincount(fine_bins(start), minlength=bins) for start in blocks)
    before = np.cumsum(sizes)
    before -= sizes
    bucket_of_bin = (before * count // len(times)).astype(np.uint8)
    ids = np.concatenate([bucket_of_bin[fine_bins(start)] for start in blocks])
    return ids, np.bincount(bucket_of_bin, weights=sizes, minlength=count).astype(np.intp)


def _bucket_order(times: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The event indices grouped by time bucket, and the buckets' bounds.

    The bounds are the start of each nonempty bucket in that order, then the
    event count; inside a bucket the indices are unsorted.  A run of at most
    ``BUCKET_EVENTS`` events, or one whose times allow no split, is one bucket.
    """
    n = len(times)
    count = min(BUCKET_COUNT_MAX, -(-n // BUCKET_EVENTS))
    buckets = _bucket_ids(times, count) if count > 1 else None
    if buckets is None:
        return np.arange(n), [0, n]
    ids, sizes = buckets
    # A stable sort of uint8 keys is a radix sort, several times faster than
    # sorting the float times.
    return np.argsort(ids, kind="stable"), [0] + np.cumsum(sizes[sizes > 0]).tolist()


def _sorted_live(index, times, early, late, matched_np):
    """The events of index whose requests are both unmatched, sorted by time.

    Returns their indices, times, earlier and later positions.  Events of
    exactly equal times always share a tie cluster, where the id key decides,
    so their relative order does not matter and an unstable float sort will
    do; it is several times faster than a stable sort or a lexsort that
    orders by the id key too.
    """
    early, late = early[index], late[index]
    live = np.flatnonzero((matched_np[early] | matched_np[late]) == 0)
    index = index[live]
    times = times[index]
    order = np.argsort(times)
    # Each gather replaces its source, so no more than one copy is alive.
    index = index[order]
    times = times[order]
    live = live[order]
    del order
    return index, times, early[live], late[live]


def _next_live(early, late, matched_np, head: int) -> int:
    """Position of the first live event at or after head, or the event count.

    Tests windows [head, head + w) of the sorted events, doubling w, so a
    long run of stale events costs a few numpy calls rather than a Python
    step each, and at most about twice the run's length in array work.
    """
    n = len(early)
    width = SCALAR_SKIP
    while head < n:
        stop = head + width
        live = np.flatnonzero((matched_np[early[head:stop]] | matched_np[late[head:stop]]) == 0)
        if live.size:
            return head + int(live[0])
        head = stop
        width *= 2
    return n


def _pair_event(policy: Policy, dist, t: list, loc: list, i: int, j: int) -> tuple:
    """The event (time, i, j, d, gap, wait) of the pair of positions i < j.

    ``t`` and ``loc`` are the times and locations of the requests in arrival
    order, so position i is the earlier arrival.  ``_fire_small`` inlines
    the same operations, which saves a call per pair.
    """
    d = dist(loc[i], loc[j])
    gap = t[j] - t[i]
    wait = _wait(policy, d, gap, max)
    return t[j] + wait, i, j, d, gap, wait


def _fire_small(requests: tuple[Request, ...], space: MetricSpace, policy: Policy) -> list[tuple]:
    """The fired events of a small run, built, sorted and scanned as tuples."""
    m = len(requests)
    dist = distance_kernel(space)
    t = [r.time for r in requests]
    loc = [r.location for r in requests]
    bipartite = policy.kind == HEMISPHERE_BIPARTITE
    color = [r.color for r in requests]
    events = []
    for j in range(m):
        t_late, loc_late, color_late = t[j], loc[j], color[j]
        for i in range(j):
            if bipartite and color[i] == color_late:
                continue
            d = dist(loc[i], loc_late)
            gap = t_late - t[i]
            wait = _wait(policy, d, gap, max)
            events.append((t_late + wait, i, j, d, gap, wait))
    events.sort()
    times = [e[0] for e in events]
    matched = bytearray(m)
    n = len(events)
    fired: list[tuple] = []
    head = 0
    while len(fired) * 2 < m:
        while head < n and (matched[events[head][1]] or matched[events[head][2]]):
            head += 1
        if head == n:
            raise ValueError(_NO_PAIR_LEFT)
        chosen = events[head]
        end = bisect_right(times, chosen[0] + TIME_TIE_TOL, head + 1)
        if end > head + 1:
            # A tie cluster: fire its live member with the smallest id key.
            chosen = min(
                (e for e in events[head:end] if not (matched[e[1]] or matched[e[2]])),
                key=lambda e: (requests[e[2]].id, requests[e[1]].id),
            )
        matched[chosen[1]] = matched[chosen[2]] = 1
        fired.append(chosen)
    return fired


def _fire_large(requests: tuple[Request, ...], space: MetricSpace, policy: Policy) -> list[tuple]:
    """The fired events of a run, built, bucketed, sorted and scanned as numpy arrays."""
    m = len(requests)
    dist = distance_kernel(space)
    t = [r.time for r in requests]
    loc = [r.location for r in requests]
    all_times, all_early, all_late, rank = _events(requests, space, policy)
    by_bucket, starts = _bucket_order(all_times)
    buckets = len(starts) - 1
    opened = 0  # buckets moved into the scanned events so far
    first = -math.inf  # the smallest time of the next bucket to move in
    matched = bytearray(m)
    matched_np = np.frombuffer(matched, dtype=np.uint8)  # a view of the same bytes
    # The scanned events, sorted by time: their indices, times and positions.
    index, times, early, late = by_bucket[:0], all_times[:0], all_early[:0], all_late[:0]
    n = head = 0
    fired: list[tuple] = []
    while len(fired) * 2 < m:
        stop = min(head + SCALAR_SKIP, n)
        while head < stop and (matched[early_at[head]] or matched[late_at[head]]):
            head += 1
        if head == stop:
            head = _next_live(early, late, matched_np, head)
        limit = time_at[head] + TIME_TIE_TOL if head < n else math.inf
        if opened < buckets and limit >= first:
            # Sort the live events of the next bucket in with the rest when no
            # live event is left, and otherwise of every bucket the head's tie
            # cluster may reach into.
            moved = [index[head:]]
            while opened < buckets and limit >= first:
                moved.append(by_bucket[starts[opened] : starts[opened + 1]])
                opened += 1
                if opened < buckets:
                    first = float(all_times[by_bucket[starts[opened] : starts[opened + 1]]].min())
                if head == n:
                    break
            index, times, early, late = _sorted_live(
                np.concatenate(moved), all_times, all_early, all_late, matched_np
            )
            # Element reads through memoryviews are Python numbers, without
            # the cost of numpy scalars or of a list copy of every event.
            time_at, early_at, late_at = memoryview(times), memoryview(early), memoryview(late)
            n, head = len(times), 0
            continue
        if head == n:
            raise ValueError(_NO_PAIR_LEFT)
        chosen = head
        if head + 1 < n and time_at[head + 1] <= limit:
            # A tie cluster: fire its live member with the smallest id key.
            end = int(np.searchsorted(times, limit, side="right"))
            seg_early, seg_late = early[head:end], late[head:end]
            live = np.flatnonzero((matched_np[seg_early] | matched_np[seg_late]) == 0)
            key = rank[seg_late[live]].astype(np.int64) * m + rank[seg_early[live]]
            chosen = head + int(live[np.argmin(key)])
        i, j = early_at[chosen], late_at[chosen]
        matched[i] = matched[j] = 1
        fired.append(_pair_event(policy, dist, t, loc, i, j))
    return fired


def simulate(instance: Instance, policy: Policy) -> RunReport:
    """Run the policy over the instance and return the complete match report.

    A pure function of its arguments: repeated runs produce identical
    reports.  Records are emitted in firing order, which respects the
    deterministic event order described in the module docstring.  Each
    record's times and costs are those of its pair's event.
    """
    _check_compatible(instance, policy)
    requests = instance.requests
    fire = _fire_small if len(requests) <= SMALL_RUN_MAX else _fire_large
    records = []
    weight = 0.0
    for match_time, i, j, d, gap, wait in fire(requests, instance.space, policy):
        # Position i is the earlier arrival, as in every event.
        records.append(
            MatchRecord(
                p=requests[i].id,
                q=requests[j].id,
                match_time=match_time,
                connection=d,
                delay_p=gap + wait,
                delay_q=wait,
            )
        )
        weight += d + gap  # the pair's augmented distance, as ``offline_weight`` sums it
    recs = tuple(records)
    return RunReport(
        policy=policy, records=recs, online_cost=online_cost(recs), offline_weight=weight
    )
