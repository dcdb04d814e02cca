"""Discrete-event simulation of the online matching policies.

Each policy assigns every unordered pair of requests an anticipated match
time.  The hemisphere policies grow a ball around each request in the
time-augmented metric, backwards in time, at radius rate epsilon: a pair
fires at max(t(p), t(q)) + D(p, q) / epsilon.  The no-time variants grow
spheres in space only and differ in which arrival anchors the sphere; a
match can never precede the later arrival, so anchored-at-the-earlier
variants are clamped to it.

A pair's firing time depends on that pair alone, so ``simulate`` computes
each pair's event once and fires the events in time order.  Two builders
make the same events, chosen by the request count alone.  Runs of at most
``SMALL_RUN_MAX`` requests build, sort and scan plain Python tuples (time,
i, j, d, gap, wait) of every admissible pair: there numpy's fixed cost of
tens of microseconds per call outweighs its speed, and ``verify`` makes
thousands of such calls.  Larger runs build numpy arrays of events, and only
for the pairs that can still fire.  Under every policy a pair's wait is at
least 0, so a pair never fires before its later request arrives, and a pair
whose earlier request was matched before that is stale whenever it could
fire.  The scan therefore builds events batch by batch of arrivals: a
batch's requests pair with each other and with the requests still unmatched
when it is built (under ``hemisphere-b`` only across colors).  It builds the
next batch whenever no live event is left or the head's tie cluster, every
event up to the earliest live time plus ``TIME_TIE_TOL``, reaches the next
arrival, and the batch takes in every request arriving up to that bound; so
every event that could join the cluster is built before a pair fires.  A
batch holds at least ``ARRIVAL_BATCH`` requests, and at least as many as are
pending, so that each batch's new events outnumber the live ones the scan
sorts again with them.  The built events wait in one pool, and the scan
sorts only a window of them: those up to the next arrival, and of more than
``SORT_WINDOW`` of them only the earliest ``SORT_WINDOW``.  The pool is the
arrays the window was cut from, or the window itself when it took every
event.  When the next arrival or the window's bound falls inside the head's
tie cluster, the scan drops the pool's stale events, adds the next batch if
there is one, and cuts a new window.  Of all pairs, the benchmark's runs
(line, plane and a bipartite finite:4 space at m=1024, the cascade at k=10
and rows at m=512) built 4 to 29 percent and sorted 0.6 to 6 percent,
counting events sorted again.  An event whose endpoint is already
matched is stale, and both scans skip it one by one.  Each sort of the array
scan holds only live events, so the scan passes over each sorted event at
most once and its skips cost no more than the sort.  At the first live event
the scan gathers the tie cluster and fires the live member with the smallest
id key (later-arrival id, then earlier id); the other members stay in place
for the next step.  Pairs thus fire in a deterministic order: by event time,
with times within ``TIME_TIE_TOL`` of the earliest live one ordered by the
id key, which depends only on which requests are matched, not on how or when
the events were built and sorted.  The tolerance is absolute, so it means
less as times grow: near 4.5e6 one ulp of a double is about 1e-9, the
tolerance itself.  Below 2**24 (about 1.7e7) the head's time plus the
tolerance still rounds up to the next double, so a cluster can span one ulp
(1.9e-9 in [2**23, 2**24)); from 2**24 on it holds only exactly equal times.
Each record, and the offline weight, come from the fired pair's own d, gap
and wait, computed by the same IEEE operations in both builders, so their
reports are equal bit for bit.  The array builder takes each pair's distance
from ``pair_distances`` over the batch's requests and the pending ones, without
an m-by-m distance matrix, and makes the pair indices arithmetically,
without an m-by-m mask.  Memory follows the pairs built, at about 16 bytes
per event held (its time and two int32 positions): one hemisphere run in the
plane peaked at 59 MB of RSS at m=8192, 22 MB over the interpreter.  The
worst case is still O(m^2): when every request is pending at once, as when
all arrive at one time, every pair is built in one batch.  Such a run of
4,096 requests peaked at 257 MB over the interpreter on the line and 258 MB
in the plane, about 32 bytes per pair: the batch's events and their copy
when the scan joins them to the pool.

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
    require_int,
    require_positive,
    validate_point,
    value_repr,
)

HEMISPHERE = "hemisphere"
HEMISPHERE_BIPARTITE = "hemisphere-b"
NOTIME_MIN = "notime-min"
NOTIME_LATE = "notime-late"
NOTIME_EARLY = "notime-early"

POLICY_KINDS = (HEMISPHERE, HEMISPHERE_BIPARTITE, NOTIME_MIN, NOTIME_LATE, NOTIME_EARLY)

# Largest request count of an instance.  A run holds memory for the pairs
# it builds: one hemisphere run on the line peaked at 40 MB of RSS at m=8192
# and one in the plane at 59 MB, but a run in which every request is pending
# at once builds all m(m-1)/2 pairs: with every request at one time the peak
# at m=4096 was 257 MB over the interpreter on the line and 258 MB in the
# plane, about 32 bytes per pair, which extrapolates to about 1.1 GB at
# m=8192 and 4.3 GB at m=16384.
REQUEST_COUNT_MAX = 8192

# Ids lie strictly between -_ID_END and _ID_END, so have at most 4,300
# digits: Python refuses to turn a longer int into text, which saving an
# instance or taking its digest does.
_ID_END = 10**4300

# Absolute tolerance under which two event times are considered tied.
TIME_TIE_TOL = 1e-9

# Largest request count whose events simulate builds, sorts and scans as
# Python tuples rather than numpy arrays.  Per call on random hemisphere runs
# (2-vCPU Xeon VM), tuples took 32-41 us against 58-78 us for arrays at m=8;
# at m=16, 102 against 86 us on the line, 102 against 103 on a finite space
# and 101 against 135 in the plane; at m=48 they were 2-3x slower.
SMALL_RUN_MAX = 16

# Events per block of the pass that turns distances into event times: a
# block's temporaries stay in cache, and the pass allocates no event-sized
# temporary.
BLOCK_EVENTS = 1 << 13

# Requests per arrival batch of the array scan, at least.  A batch also
# takes at least as many requests as are pending when it is built, so that
# its new events outnumber the live ones sorted again with them: on a line
# run of m=1024 whose distances span 100 times its arrival horizon, with
# about 300 requests pending, batches of 32 alone took 26 batches and 43 to
# 54 ms, and this rule 5 batches and 37 to 38 ms (2-vCPU Xeon VM).
ARRIVAL_BATCH = 32

# Live events the array scan sorts at once, at most, unless a tie cluster
# holds more: the rest wait unsorted in the pool until the head's tie cluster
# reaches them.  This bounds the sort of a batch in which many requests are
# pending, as when every request arrives at one time.
SORT_WINDOW = 16384

_NO_PAIR_LEFT = "no admissible pair left; perfect matching impossible"


@dataclass(frozen=True)
class Request:
    """A single request: id, timed location, and an optional color label."""

    id: int
    point: TimedPoint
    color: int | None = None

    @property
    def time(self) -> float:
        return self.point.time

    @property
    def location(self) -> Point:
        return self.point.location


@dataclass(frozen=True)
class Instance:
    """A metric space plus its requests in arrival order.

    The one check of a request's values.  The request count must be even
    and at most ``REQUEST_COUNT_MAX``, ids ints, non-negative, unique and of
    at most 4,300 digits, every time finite, and every location a valid point
    of the space.  Bipartite instances carry a color 0 or 1 on every request
    with both colors equally frequent; monochromatic instances carry no
    colors.  A ValueError names the request by its position as given and its
    field in the file format: ``requests[1].t: expected a finite number, got
    nan``.  ``requests`` is stored sorted by (time, id), whatever order it was
    given in, so two instances that list the same requests in different
    orders are equal, and every consumer may rely on arrival order.
    """

    space: MetricSpace
    requests: tuple[Request, ...]
    bipartite: bool = False

    def __post_init__(self) -> None:
        requests = tuple(self.requests)
        m = len(requests)
        require_int("request count", m, 0, REQUEST_COUNT_MAX, step=2)
        ids: set[int] = set()
        for k, r in enumerate(requests):
            if type(r.id) is not int:
                raise ValueError(f"requests[{k}].id: expected an integer, got {r.id!r}")
            if not -_ID_END < r.id < _ID_END:
                raise ValueError(
                    f"requests[{k}].id: expected at most 4,300 digits, "
                    f"got an int of {r.id.bit_length():,} bits"
                )
            if r.id < 0 or r.id in ids:
                problem = "duplicate id" if r.id in ids else "expected a non-negative id, got"
                raise ValueError(f"requests[{k}].id: {problem} {r.id}")
            ids.add(r.id)
            if not is_finite_real(r.time):
                raise ValueError(
                    f"requests[{k}].t: expected a finite number, got {value_repr(r.time)}"
                )
            try:
                validate_point(self.space, r.location)
            except ValueError as exc:
                raise ValueError(f"requests[{k}].loc: {exc}") from None
            if self.bipartite:
                if type(r.color) is not int or r.color not in (0, 1):
                    raise ValueError(
                        f"requests[{k}].color: expected 0 or 1, got {value_repr(r.color)}"
                    )
            elif r.color is not None:
                raise ValueError(f"requests[{k}].color: given on a monochromatic instance")
        if self.bipartite:
            zeros = sum(1 for r in requests if r.color == 0)
            if zeros * 2 != m:
                raise ValueError(f"bipartite colors are imbalanced: {zeros} vs {m - zeros}")
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
        require_positive("epsilon", self.epsilon)


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


def _prefix_pairs(late: np.ndarray, counts: np.ndarray, source=None):
    """The int32 pairs (source[k], late[r]) for every r and every k < counts[r].

    Without a source, k itself is the earlier index.  The pairs are made
    arithmetically, with no mask over the candidate pairs.
    """
    ends = np.cumsum(counts, dtype=np.int32)
    early = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int32)
    early -= np.repeat(ends - counts, counts)
    if source is not None:
        early = source[early]
    return early, np.repeat(late, counts)


def _batch_events(
    space: MetricSpace, policy: Policy, loc: list, t: np.ndarray, colors, pending, start: int, stop: int
):
    """The events of the pairs whose later request is one of positions start..stop-1.

    Each of these requests pairs with every earlier one among ``pending``
    (the unmatched positions before start, increasing, as int32) and the
    batch itself; under ``hemisphere-b`` only with those of the other color
    (``colors`` holds each position's color, and is None for the other
    policies).  ``loc`` and ``t`` give every position's location and time.
    Returns the event times and the int32 positions of each event's earlier
    and later request, in no particular order.
    """
    members = np.arange(start, stop, dtype=np.int32)
    if len(pending):
        members = np.concatenate((pending, members))
    # Pairs are made as indices into members, whose locations and times are
    # gathered once, so the work follows the pairs built, not the run.
    lates = np.arange(len(pending), len(members), dtype=np.int32)
    if colors is None:
        early, late = _prefix_pairs(lates, lates)
    else:
        color = colors[members]
        sides = []
        for c in (0, 1):
            other = np.flatnonzero(color != c).astype(np.int32)
            own = lates[color[lates] == c]
            sides.append(_prefix_pairs(own, np.searchsorted(other, own).astype(np.int32), other))
        early, late = (np.concatenate(side) for side in zip(*sides))
    first = int(members[0])
    # Contiguous members, as in a first batch, are sliced and their positions
    # offset rather than gathered: with every pair in one batch, gathering
    # would take 8 more bytes per pair at the peak.
    contiguous = int(members[-1]) - first + 1 == len(members)
    if contiguous:
        points, t_members = loc[first : first + len(members)], t[first : first + len(members)]
    else:
        points, t_members = [loc[k] for k in members.tolist()], t[members]
    times = pair_distances(space, points, early, late)
    # Each block's distances turn into its event times in place, through
    # temporaries of one block.  A time may overflow to inf, as the scalar
    # operations of ``_fire_small`` give it without a warning.
    with np.errstate(over="ignore"):
        for block_start in range(0, len(times), BLOCK_EVENTS):
            block = slice(block_start, block_start + BLOCK_EVENTS)
            # Fancy indexing is several times faster with intp indices.
            t_late = t_members[late[block].astype(np.intp)]
            gap = t_late - t_members[early[block].astype(np.intp)]
            np.add(_wait(policy, times[block], gap, np.maximum), t_late, out=times[block])
    if not contiguous:
        return times, members[early], members[late]
    if first:
        early += first
        late += first
    return times, early, late


def _live(times, early, late, matched_np):
    """The events whose requests are both unmatched."""
    keep = np.flatnonzero((matched_np[early] | matched_np[late]) == 0)
    return times[keep], early[keep], late[keep]


def _sorted_window(times, early, late, horizon: float):
    """The events up to a bound, sorted by time, and that bound.

    The bound is the later of horizon and the earliest time plus
    ``TIME_TIE_TOL``, so the earliest event's tie cluster is whole; if more
    than ``SORT_WINDOW`` events lie up to it, it falls to the
    ``SORT_WINDOW``-th smallest time, but not below that cluster bound.  It
    is returned as inf when no event lies above it.  Events of exactly equal
    times always share a tie cluster, where the id key decides, so their
    relative order does not matter and an unstable float sort will do; it
    is several times faster than a stable sort or a lexsort that orders by
    the id key too.
    """
    bound = math.inf
    if len(times) and (horizon < math.inf or len(times) > SORT_WINDOW):
        cluster = float(times.min()) + TIME_TIE_TOL
        bound = max(horizon, cluster)
        near = np.flatnonzero(times <= bound) if bound < math.inf else None
        if (len(times) if near is None else len(near)) > SORT_WINDOW:
            part = np.partition(times if near is None else times[near], SORT_WINDOW - 1)
            bound = max(float(part[SORT_WINDOW - 1]), cluster)
            del part
            near = np.flatnonzero(times <= bound)
        if near is not None and len(near) < len(times):
            times, early, late = times[near], early[near], late[near]
        else:
            bound = math.inf
    order = np.argsort(times)
    return times[order], early[order], late[order], bound


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
    """The fired events of a run, built batch by batch of arrivals and scanned as numpy arrays."""
    m = len(requests)
    dist = distance_kernel(space)
    t = [r.time for r in requests]
    loc = [r.location for r in requests]
    t_np = np.array(t, dtype=float)
    colors = None
    if policy.kind == HEMISPHERE_BIPARTITE:
        colors = np.array([r.color for r in requests], dtype=np.int8)
    # Each position's rank in id order stands in for the id in the tie key.
    rank = np.empty(m, dtype=np.int32)
    rank[sorted(range(m), key=lambda k: requests[k].id)] = np.arange(m, dtype=np.int32)
    matched = bytearray(m)
    matched_np = np.frombuffer(matched, dtype=np.uint8)  # a view of the same bytes
    # The pool: the built events that the scanned window (times, early, late,
    # sorted by time) was cut from, or the window itself when it took every
    # event; bound is the window's bound, inf when no event lies above it.
    pool = np.empty(0), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    bound = math.inf
    n = head = arrived = 0
    fired: list[tuple] = []
    while len(fired) * 2 < m:
        while head < n and (matched[early_at[head]] or matched[late_at[head]]):
            head += 1
        limit = time_at[head] + TIME_TIE_TOL if head < n else math.inf
        # No event fires before its later request arrives, so the events not
        # built yet are later than limit unless the next arrival is not.
        build = arrived < m and t[arrived] <= limit
        if build or limit > bound:
            pool = _live(*pool, matched_np)
            if build:
                pending = np.flatnonzero(matched_np[:arrived] == 0).astype(np.int32)
                stop = arrived + max(ARRIVAL_BATCH, len(pending))
                if limit < math.inf:
                    stop = max(stop, bisect_right(t, limit, arrived))
                stop = min(stop, m)
                new = _batch_events(space, policy, loc, t_np, colors, pending, arrived, stop)
                pool = tuple(np.concatenate(side) for side in zip(pool, new)) if len(pool[0]) else new
                del new
                arrived = stop
            horizon = t[arrived] if arrived < m else math.inf
            times, early, late, bound = _sorted_window(*pool, horizon)
            if bound == math.inf:
                pool = times, early, late
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
