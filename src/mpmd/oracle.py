"""Exact offline optima, cycle decompositions, and the restriction check.

The offline optimum of a delay-tolerant matching instance equals the weight
of a minimum-cost perfect matching of the requests as points of the
time-augmented metric: realizing any matching online by pairing each couple
the moment both endpoints have arrived costs exactly its augmented weight.

The general solver is a dynamic program over request sets that pairs the
lowest-indexed unmatched request against every candidate.  It solves only
the sets reachable from the full set under that rule, Fibonacci(m+1) of them
(10,946 at m=20, against 2**19 even-sized subsets), in O(m * F(m+1)) steps,
and stays guarded at 20 requests.  The bipartite solver reduces to the
assignment problem.  A brute-force enumerator over all (m-1)!! matchings
serves as an independent cross-check for small m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from mpmd.engine import Instance, RunReport, simulate
from mpmd.metric import MetricSpace, augmented_distance, distance, pairwise

GENERAL_OPT_MAX = 20
BRUTE_FORCE_MAX = 10


@dataclass(frozen=True)
class Matching:
    """A perfect matching as canonical id pairs plus its augmented weight.

    Pairs are stored as (low id, high id), sorted lexicographically; the
    weight is the sum of augmented distances in that canonical order.
    """

    pairs: tuple[tuple[int, int], ...]
    weight: float

    @classmethod
    def from_pairs(cls, pairs, instance: Instance) -> Matching:
        canonical = tuple(sorted((min(p, q), max(p, q)) for p, q in pairs))
        seen = [i for pair in canonical for i in pair]
        if sorted(seen) != sorted(r.id for r in instance.requests):
            raise ValueError("pairs do not partition the instance's request ids")
        by_id = {r.id: r for r in instance.requests}
        weight = 0.0
        for p, q in canonical:
            weight += augmented_distance(instance.space, by_id[p].point, by_id[q].point)
        return cls(pairs=canonical, weight=weight)


@dataclass(frozen=True)
class Cycle:
    """One alternating cycle of the union of two matchings.

    Consecutive vertices alternate edges of the two matchings, starting with
    an edge of the first matching from vertices[0]; the closing edge back to
    vertices[0] belongs to the second matching.  A pair shared by both
    matchings appears as a 2-cycle (two parallel edges).
    """

    vertices: tuple[int, ...]
    a_length: float
    b_length: float

    def a_edges(self) -> tuple[tuple[int, int], ...]:
        v = self.vertices
        return tuple((v[i], v[i + 1]) for i in range(0, len(v), 2))

    def b_edges(self) -> tuple[tuple[int, int], ...]:
        v = self.vertices
        return tuple(
            (v[i], v[(i + 1) % len(v)]) for i in range(1, len(v), 2)
        )


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[Cycle, ...]


def _augmented_matrix(space: MetricSpace, rows, cols=None) -> np.ndarray:
    """Time-augmented distances between two request lists (cols defaults to rows).

    Each entry is the spatial distance plus the absolute time difference, the
    operations of ``augmented_distance`` in its order, so the two agree bit
    for bit.
    """
    same = cols is None
    if same:
        cols = rows
    w = pairwise(
        space, [r.location for r in rows], None if same else [r.location for r in cols]
    )
    t_rows = np.array([r.time for r in rows], dtype=float)
    t_cols = t_rows if same else np.array([r.time for r in cols], dtype=float)
    w += np.abs(t_rows[:, None] - t_cols[None, :])
    return w


def opt_general(instance: Instance) -> Matching:
    """Minimum-weight perfect matching over all pairings, by subset DP.

    The lowest request of a set is paired with each other member in turn, so
    the full set of m requests reaches only Fibonacci(m+1) sets (10,946 at
    m=20).  These are listed layer by layer from the full set and solved from
    the smallest up, O(m * F(m+1)) work in all.  Ties between optimal
    matchings resolve to the lexicographically smallest pair list.  Guarded
    at GENERAL_OPT_MAX requests.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m % 2 != 0:
        raise ValueError("request count must be even")
    if m > GENERAL_OPT_MAX:
        raise ValueError(
            f"general exact solver is guarded at {GENERAL_OPT_MAX} requests, got {m}"
        )
    if m == 0:
        return Matching(pairs=(), weight=0.0)
    w = _augmented_matrix(instance.space, requests).tolist()

    # Layer k holds the sets left after k pairs were taken from the full set,
    # each time the lowest member with one other; the last layer is {0}.
    full = (1 << m) - 1
    layers = [{full}]
    for _ in range(m // 2):
        children = set()
        for mask in layers[-1]:
            low = mask & -mask
            rest = mask ^ low
            r = rest
            while r:
                jbit = r & -r
                children.add(rest ^ jbit)
                r ^= jbit
        layers.append(children)

    inf = math.inf
    dp = {0: 0.0}
    choice = {}
    # dp[mask] = optimal weight matching exactly the requests in mask; the
    # lowest set bit is always paired, and scanning partners in ascending
    # order with a strict improvement keeps the lexicographically smallest
    # optimal pair list.  Smaller sets are solved first.
    for layer in reversed(layers[:-1]):
        for mask in layer:
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            w_low = w[low]
            best = inf
            best_j = -1
            r = rest
            while r:
                jbit = r & -r
                j = jbit.bit_length() - 1
                cand = dp[rest ^ jbit] + w_low[j]
                if cand < best:
                    best = cand
                    best_j = j
                r ^= jbit
            dp[mask] = best
            choice[mask] = best_j

    pairs = []
    mask = full
    while mask:
        low = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((requests[low].id, requests[j].id))
        mask ^= (1 << low) | (1 << j)
    return Matching.from_pairs(pairs, instance)


def opt_bipartite(instance: Instance) -> Matching:
    """Minimum-weight color-crossing perfect matching via the assignment problem."""
    if not instance.bipartite:
        raise ValueError("bipartite oracle requires a bipartite instance")
    zeros = sorted((r for r in instance.requests if r.color == 0), key=lambda r: r.id)
    ones = sorted((r for r in instance.requests if r.color == 1), key=lambda r: r.id)
    if len(zeros) != len(ones):
        raise ValueError("bipartite colors are imbalanced")
    if not zeros:
        return Matching(pairs=(), weight=0.0)
    cost = _augmented_matrix(instance.space, zeros, ones)
    rows, cols = linear_sum_assignment(cost)
    pairs = [(zeros[i].id, ones[j].id) for i, j in zip(rows, cols)]
    return Matching.from_pairs(pairs, instance)


def brute_force_opt(instance: Instance) -> Matching:
    """Exhaustive minimum over all perfect matchings; independent test oracle.

    Enumerates pair lists in lexicographic order (color-crossing only on
    bipartite instances), so strict improvement yields the lexicographically
    smallest optimum.  Guarded at BRUTE_FORCE_MAX requests.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m > BRUTE_FORCE_MAX:
        raise ValueError(
            f"brute-force oracle is guarded at {BRUTE_FORCE_MAX} requests, got {m}"
        )
    if m % 2 != 0:
        raise ValueError("request count must be even")
    if m == 0:
        return Matching(pairs=(), weight=0.0)
    w = _augmented_matrix(instance.space, requests).tolist()
    colors = [r.color for r in requests]
    check_colors = instance.bipartite

    best_weight = math.inf
    best_pairs: list[tuple[int, int]] | None = None

    def extend(remaining: list[int], acc: list[tuple[int, int]], acc_w: float) -> None:
        nonlocal best_weight, best_pairs
        if not remaining:
            if acc_w < best_weight:
                best_weight = acc_w
                best_pairs = list(acc)
            return
        i = remaining[0]
        for pos in range(1, len(remaining)):
            j = remaining[pos]
            if check_colors and colors[i] == colors[j]:
                continue
            acc.append((i, j))
            extend(remaining[1:pos] + remaining[pos + 1 :], acc, acc_w + w[i][j])
            acc.pop()

    extend(list(range(m)), [], 0.0)
    if best_pairs is None:
        raise ValueError("no perfect matching exists under the color constraint")
    return Matching.from_pairs(
        [(requests[i].id, requests[j].id) for i, j in best_pairs], instance
    )


def realize_online(matching: Matching, instance: Instance) -> float:
    """Online cost of dispatching each pair the moment both endpoints arrived.

    Equals the matching's augmented weight exactly: waiting until the later
    arrival costs the time gap, and the connection adds the spatial distance.
    """
    by_id = {r.id: r for r in instance.requests}
    covered = sorted(i for pair in matching.pairs for i in pair)
    if covered != sorted(by_id):
        raise ValueError("matching is not perfect on the instance")
    total = 0.0
    for p, q in matching.pairs:
        a, b = by_id[p], by_id[q]
        t = max(a.time, b.time)
        total += (t - a.time) + (t - b.time) + distance(
            instance.space, a.location, b.location
        )
    return total


def matching_from_records(records, instance: Instance) -> Matching:
    """Canonical matching described by a run's match records."""
    return Matching.from_pairs([(rec.p, rec.q) for rec in records], instance)


def cycle_decompose(a: Matching, b: Matching, instance: Instance) -> CycleDecomposition:
    """Decompose the union of two perfect matchings into alternating cycles.

    Cycles start at their smallest unvisited id with an a-edge and are
    reported in order of that starting id; per-cycle lengths are the sums of
    augmented distances over each matching's edges.
    """
    partner_a = {}
    partner_b = {}
    for p, q in a.pairs:
        partner_a[p] = q
        partner_a[q] = p
    for p, q in b.pairs:
        partner_b[p] = q
        partner_b[q] = p
    ids = sorted(r.id for r in instance.requests)
    if sorted(partner_a) != ids or sorted(partner_b) != ids:
        raise ValueError("matchings must cover the same id set as the instance")
    by_id = {r.id: r for r in instance.requests}

    def dist(u: int, v: int) -> float:
        return augmented_distance(instance.space, by_id[u].point, by_id[v].point)

    visited: set[int] = set()
    cycles: list[Cycle] = []
    for start in ids:
        if start in visited:
            continue
        # Alternate a-edge then b-edge until the b-edge closes the cycle.
        sequence = [start]
        a_len = 0.0
        b_len = 0.0
        current = start
        while True:
            nxt = partner_a[current]
            a_len += dist(current, nxt)
            sequence.append(nxt)
            current = partner_b[nxt]
            b_len += dist(nxt, current)
            if current == start:
                break
            sequence.append(current)
        visited.update(sequence)
        cycles.append(Cycle(vertices=tuple(sequence), a_length=a_len, b_length=b_len))
    return CycleDecomposition(cycles=tuple(cycles))


@dataclass(frozen=True)
class RestrictionCounterexample:
    """Cycle whose isolated re-simulation disagrees with the full run."""

    cycle_index: int
    expected: tuple[tuple[int, int], ...]
    actual: tuple[tuple[int, int], ...]


def restriction_check(
    instance: Instance, report: RunReport, decomposition: CycleDecomposition
) -> RestrictionCounterexample | None:
    """Re-simulate the policy on each cycle's requests and compare edge sets.

    The policy run on the sub-instance induced by a cycle should reproduce
    exactly the edges the full run placed inside that cycle.  Returns None
    when every cycle agrees, otherwise the first mismatch.
    """
    full_pairs = {(min(r.p, r.q), max(r.p, r.q)) for r in report.records}
    for index, cycle in enumerate(decomposition.cycles):
        members = set(cycle.vertices)
        sub_requests = tuple(r for r in instance.requests if r.id in members)
        sub_instance = Instance(
            space=instance.space, requests=sub_requests, bipartite=instance.bipartite
        )
        sub_report = simulate(sub_instance, report.policy)
        expected = tuple(sorted(p for p in full_pairs if p[0] in members))
        actual = tuple(
            sorted((min(r.p, r.q), max(r.p, r.q)) for r in sub_report.records)
        )
        if expected != actual:
            return RestrictionCounterexample(
                cycle_index=index, expected=expected, actual=actual
            )
    return None
