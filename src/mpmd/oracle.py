"""Exact offline optima, cycle decompositions, and the restriction check.

The offline optimum of a delay-tolerant matching instance equals the weight
of a minimum-cost perfect matching of the requests as points of the
time-augmented metric: realizing any matching online by pairing each couple
the moment both endpoints have arrived costs exactly its augmented weight.

The general solver is a dynamic program over request sets that pairs the
lowest-indexed unmatched request against every candidate.  The sets it
reaches after k such steps are exactly the (m-2k)-subsets of {k, ..., m-1}
(see ``opt_general``), C(m-k, k) of them and Fibonacci(m+1) in all (10,946
at m=20, against 2**19 even-sized subsets).  Each such layer is one table
of combinations in bit-mask order, and the child a pairing leaves is the
row found by its bit mask, so a layer is solved by a few numpy operations:
O(m * F(m+1)) work, guarded at 20 requests.  The bipartite solver reduces
to the assignment problem at any size and solves it with scipy's compiled
assignment kernel, loaded from its extension file without importing
``scipy.optimize``.  A brute-force enumerator over all (m-1)!!
matchings serves as an independent cross-check for small m.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from itertools import combinations

import numpy as np

from mpmd.engine import Instance, RunReport, augmented_by_id, simulate
from mpmd.metric import MetricSpace, augmented_distance, block_rows, distance, pair_distances

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
        # Through the checked ``augmented_distance``, unlike ``augmented_by_id``:
        # perfbench's tracer test expects ``compute_ratio`` to call
        # ``metric.distance``, and this is the last such call on that path.
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


def _augmented_matrix(space: MetricSpace, rows, cols=None) -> np.ndarray:
    """Time-augmented distances between two request lists (cols defaults to rows).

    Entry [r, c] is the spatial distance from rows[r] to cols[c] plus the
    absolute time difference, the operations of ``augmented_distance`` in its
    order, so the two agree bit for bit.  The distances are one
    ``pair_distances`` call over the row locations followed by the column
    locations, a column of row indices against a row of column indices, and
    the time differences are added in the same blocks of rows
    (``block_rows``) through one block of scratch, so no index grid and no
    table-sized temporary is made: building a 1000-by-1000 table peaks at
    1.04 times its own size on the line and a finite space and 1.15 times in
    the plane (``tracemalloc``), the table and one block of scratch.
    """
    requests = list(rows) + list(rows if cols is None else cols)
    n_rows = len(rows)
    n_cols = len(requests) - n_rows
    w = pair_distances(
        space,
        [r.location for r in requests],
        np.arange(n_rows)[:, None],
        n_rows + np.arange(n_cols)[None, :],
    )
    t = np.array([r.time for r in requests], dtype=float)
    t_rows, t_cols = t[:n_rows, None], t[None, n_rows:]
    step = block_rows(space, n_cols)
    gap = np.empty((min(step, n_rows), n_cols))
    # A weight may overflow to inf, as ``augmented_distance`` gives it.
    with np.errstate(over="ignore"):
        for s in range(0, n_rows, step):
            block = gap[: min(step, n_rows - s)]
            np.subtract(t_rows[s : s + step], t_cols, out=block)
            w[s : s + step] += np.abs(block, out=block)
    return w


@lru_cache(maxsize=GENERAL_OPT_MAX // 2)
def _layer_tables(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(cells, ranks) for each layer k = 0 .. m/2 - 1 of ``opt_general``.

    Row r of layer k stands for the r-th (m-2k)-subset {e_0 < e_1 < ...} of
    {k, ..., m-1} in increasing order of its bit mask sum_i 2**e_i, which is
    colex order.  Column q stands for pairing e_0 with the partner e_{q+1}:
    ``cells[r, q]`` is e_0 * m + e_{q+1}, the flat index of that pair's
    weight, and ``ranks[r, q]`` is the row in layer k+1 of the set that is
    left, found by its bit mask.  Both are read-only int16 arrays, built once
    per even m; the ten tables up to m=20 take 0.54 MB, 0.36 MB of it at m=20.
    """
    tables = []
    next_masks = np.zeros(1, dtype=np.int64)  # the empty set, the last layer
    for k in reversed(range(m // 2)):
        n = m - 2 * k
        sets = np.fromiter(
            combinations(range(k, m), n), dtype=(np.int16, n), count=math.comb(m - k, k)
        )
        bits = 1 << sets.astype(np.int64)
        masks = bits.sum(axis=1)
        order = masks.argsort()
        sets, bits, masks = sets[order], bits[order], masks[order]
        ranks = np.searchsorted(next_masks, masks[:, None] - bits[:, :1] - bits[:, 1:])
        cells = sets[:, :1] * m + sets[:, 1:]
        ranks = ranks.astype(np.int16)
        cells.setflags(write=False)
        ranks.setflags(write=False)
        tables.append((cells, ranks))
        next_masks = masks
    return tuple(reversed(tables))


def opt_general(instance: Instance) -> Matching:
    """Minimum-weight perfect matching over all pairings, by subset DP.

    dp(S) pairs the lowest member of S with each other member j in ascending
    order and keeps the first strict minimum of dp(S - {low, j}) + w(low, j),
    so ties between optimal matchings resolve to the lexicographically
    smallest pair list.  Guarded at GENERAL_OPT_MAX requests.

    Layer k, the sets left after k pairs were taken from the full set
    {0, ..., m-1}, is exactly the (m-2k)-subsets of {k, ..., m-1}.  By
    induction: layer 0 is the full set.  If layer k is as claimed, a member
    S has lowest element at least k, so S - {low, j} is an (m-2k-2)-subset of
    {k+1, ..., m-1}.  Conversely such a subset T misses k+1 of the m-k-1
    elements of {k+1, ..., m-1}; with j one of them, T u {k, j} is in layer
    k, has lowest element k, and leaves T.  Layer k has C(m-k, k) sets and
    the layers F(m+1) in all.  Listing each layer in bit-mask order gives
    the child's index as the row found by its bit mask (``_layer_tables``),
    so one layer is solved in one set of numpy operations over all its sets
    and partners at once, from the last layer (the empty set) up:
    O(m * F(m+1)) work and O(m * C) memory for the largest layer, C = 3,003
    at m=20.  ``argmin`` returns the first minimum and the partners run in
    ascending order, which is the strict-improvement scan, with the same
    IEEE additions.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m > GENERAL_OPT_MAX:
        raise ValueError(
            f"general exact solver is guarded at {GENERAL_OPT_MAX} requests, got {m}; "
            "use the bipartite oracle or a smaller instance"
        )
    w = _augmented_matrix(instance.space, requests).ravel()
    tables = _layer_tables(m)

    dp = np.zeros(1)  # the empty set, the only member of the last layer
    choices = []
    for cells, ranks in reversed(tables):
        cand = dp[ranks]
        with np.errstate(over="ignore"):  # a sum may overflow to inf
            cand += w[cells]
        best = cand.argmin(axis=1)
        dp = cand[np.arange(len(best)), best]
        choices.append(best)

    pairs = []
    row = 0
    for (cells, ranks), best in zip(tables, reversed(choices)):
        col = best[row]
        low, partner = divmod(int(cells[row, col]), m)
        pairs.append((requests[low].id, requests[partner].id))
        row = ranks[row, col]
    return Matching.from_pairs(pairs, instance)


@lru_cache(maxsize=1)
def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, loaded from its compiled extension.

    ``scipy.optimize`` re-exports the solver from the extension module
    ``scipy.optimize._lsap``; importing the package runs its ``__init__``,
    which loads most of scipy's optimizers.  Executing the extension file on
    its own skips that and gives the function the package would re-export.
    A scipy without that file, or whose file lacks the function, is served
    by the package import instead.
    """
    spec = find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        finder = FileFinder(
            os.path.join(spec.submodule_search_locations[0], "optimize"),
            (ExtensionFileLoader, EXTENSION_SUFFIXES),
        )
        lsap = finder.find_spec("scipy.optimize._lsap")
        if lsap is not None:
            module = module_from_spec(lsap)
            lsap.loader.exec_module(module)
            if hasattr(module, "linear_sum_assignment"):
                return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def opt_bipartite(instance: Instance) -> Matching:
    """Minimum-weight color-crossing perfect matching via the assignment problem.

    The assignment is solved by scipy's compiled ``linear_sum_assignment``
    (the shortest augmenting path of Crouse 2016), loaded on the first call
    without importing ``scipy.optimize`` (``_linear_sum_assignment``).
    """
    if not instance.bipartite:
        raise ValueError("bipartite oracle requires a bipartite instance")
    zeros = sorted((r for r in instance.requests if r.color == 0), key=lambda r: r.id)
    ones = sorted((r for r in instance.requests if r.color == 1), key=lambda r: r.id)
    cost = _augmented_matrix(instance.space, zeros, ones)
    try:
        cols = _linear_sum_assignment()(cost)[1].tolist()
    except ValueError:
        # Infeasible: every crossing matching weighs inf, as when a distance
        # overflows, so pair in id order, as opt_general does then.
        if not np.isinf(cost).any():
            raise
        cols = list(range(len(zeros)))
    pairs = [(zeros[i].id, ones[j].id) for i, j in enumerate(cols)]
    return Matching.from_pairs(pairs, instance)


def brute_force_opt(instance: Instance) -> Matching:
    """Exhaustive minimum over all perfect matchings; independent test oracle.

    Enumerates pair lists in lexicographic order (color-crossing only on
    bipartite instances), so strict improvement yields the lexicographically
    smallest optimum.  A branch is cut once its partial weight reaches the
    best complete weight, once there is one: weights are non-negative and
    adding one never lowers a float sum, so a cut branch could not strictly
    improve.  The first complete matching is kept even if it weighs inf, and
    every valid instance has one.  Guarded at BRUTE_FORCE_MAX requests.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m > BRUTE_FORCE_MAX:
        raise ValueError(
            f"brute-force oracle is guarded at {BRUTE_FORCE_MAX} requests, got {m}"
        )
    w = _augmented_matrix(instance.space, requests).tolist()
    colors = [r.color for r in requests]
    check_colors = instance.bipartite

    best_weight = math.inf
    best_pairs: list[tuple[int, int]] | None = None

    def extend(remaining: list[int], acc: list[tuple[int, int]], acc_w: float) -> None:
        nonlocal best_weight, best_pairs
        if best_pairs is not None and acc_w >= best_weight:
            return
        if not remaining:
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


def cycle_decompose(a: Matching, b: Matching, instance: Instance) -> tuple[Cycle, ...]:
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
    dist = augmented_by_id(instance)
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
    return tuple(cycles)


@dataclass(frozen=True)
class RestrictionCounterexample:
    """Cycle whose isolated re-simulation disagrees with the full run."""

    cycle_index: int
    expected: tuple[tuple[int, int], ...]
    actual: tuple[tuple[int, int], ...]


def restriction_check(
    instance: Instance, report: RunReport, cycles: tuple[Cycle, ...]
) -> RestrictionCounterexample | None:
    """Re-simulate the policy on each cycle's requests and compare edge sets.

    The policy run on the sub-instance induced by a cycle should reproduce
    exactly the edges the full run placed inside that cycle.  Returns None
    when every cycle agrees, otherwise the first mismatch.
    """
    full_pairs = {(min(r.p, r.q), max(r.p, r.q)) for r in report.records}
    for index, cycle in enumerate(cycles):
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
