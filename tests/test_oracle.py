"""Offline optima, brute-force cross checks, cycles, and the restriction property."""

import copy
import gc
import math
import pickle
import random
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.optimize
from scipy.optimize import linear_sum_assignment

import mpmd.oracle
from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    Instance,
    Policy,
    Request,
    offline_weight,
    simulate,
)
from mpmd.harness import sweep
from mpmd.instances import LowerBoundParams, gen_lower_bound, gen_random
from mpmd.metric import MetricSpace, TimedPoint, augmented_distance
from mpmd.oracle import (
    GENERAL_OPT_MAX,
    _augmented_matrix,
    _layer_tables,
    _linear_sum_assignment,
    Matching,
    brute_force_opt,
    cycle_decompose,
    matching_from_records,
    opt_bipartite,
    opt_general,
    realize_online,
    restriction_check,
)
from mpmd.verify import (
    Tally,
    check_bipartite_colors,
    check_cycles,
    check_decomposition,
    check_optimality_lower_bound,
    check_oracles,
)

from helpers import assert_all_ok, assert_checks_pass

LINE = MetricSpace.line()


def req(rid, loc, t, color=None):
    return Request(id=rid, point=TimedPoint(loc, t), color=color)


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_augmented_matrix_is_bit_equal_to_augmented_distance(metric):
    inst = gen_random(30, 11, metric=metric, bipartite=True)
    reqs = sorted(inst.requests, key=lambda r: r.id)
    zeros = [r for r in reqs if r.color == 0]
    ones = [r for r in reqs if r.color == 1]
    for rows, cols, w in (
        (reqs, reqs, _augmented_matrix(inst.space, reqs)),
        (zeros, ones, _augmented_matrix(inst.space, zeros, ones)),
    ):
        assert w.shape == (len(rows), len(cols))
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert w[i, j] == augmented_distance(inst.space, a.point, b.point)


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_augmented_matrix_peaks_near_one_table(metric):
    # The table and one block of rows of scratch at a time: pair_distances'
    # 13 doubles per entry in the plane, about 1.2 MB beside this 1000x1000
    # table of 8 MB, and about 0.3 MB on the line and a finite space, so 1.04
    # to 1.15 tables.  An index grid, a table-sized time difference, or a
    # gather of a whole table's pairs at once, on any kind of space, would
    # add half a table or more.
    inst = gen_random(2000, 2, metric=metric, bipartite=True)
    zeros = sorted((r for r in inst.requests if r.color == 0), key=lambda r: r.id)
    ones = sorted((r for r in inst.requests if r.color == 1), key=lambda r: r.id)
    tracemalloc.start()
    try:
        w = _augmented_matrix(inst.space, zeros, ones)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * w.nbytes


class TestOptGeneral:
    def test_forced_pair(self):
        inst = Instance(LINE, (req(1, 0.0, 10.0), req(2, 4.0, 2.0)))
        matching = opt_general(inst)
        assert matching.pairs == ((1, 2),)
        assert matching.weight == 12.0

    def test_cascade_k2(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0, eta=0.0))
        matching = opt_general(inst)
        assert matching.pairs == ((1, 2), (3, 4))
        assert matching.weight == 2.0

    def test_size_guard(self):
        inst = gen_random(22, seed=0, metric="line")
        with pytest.raises(ValueError, match="guard"):
            opt_general(inst)

    def test_lexicographic_tie_resolution(self):
        # Four identical requests: every matching weighs 0; the smallest
        # pair list is (1,2),(3,4).
        inst = Instance(LINE, tuple(req(i, 0.0, 0.0) for i in (1, 2, 3, 4)))
        assert opt_general(inst).pairs == ((1, 2), (3, 4))
        assert brute_force_opt(inst).pairs == ((1, 2), (3, 4))


def reference_opt_general(instance):
    """Full-table subset DP over all 2**m request masks; test-only reference.

    Same recurrence and scan order as ``opt_general`` (lowest set bit paired
    with each other member in ascending order, strict improvement only), but
    it fills every even-sized mask bottom-up instead of the sets reachable
    from the full set, so it checks that restriction independently.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m == 0:
        return Matching(pairs=(), weight=0.0)
    w = _augmented_matrix(instance.space, requests).tolist()
    size = 1 << m
    dp = [math.inf] * size
    dp[0] = 0.0
    choice = [-1] * size
    for mask in range(3, size):
        if mask.bit_count() % 2 != 0:
            continue
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        best = math.inf
        best_j = -1
        r = rest
        while r:
            jbit = r & -r
            j = jbit.bit_length() - 1
            cand = dp[rest ^ jbit] + w[low][j]
            if cand < best:
                best = cand
                best_j = j
            r ^= jbit
        dp[mask] = best
        choice[mask] = best_j
    pairs = []
    mask = size - 1
    while mask:
        low = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((requests[low].id, requests[j].id))
        mask ^= (1 << low) | (1 << j)
    return Matching.from_pairs(pairs, instance)


def _reachable_layers(m):
    """Request masks reachable from the full set, layer by layer, by pairing
    the lowest member with each other member; the last layer is {0}."""
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
    return layers


def reachable_opt_general(instance):
    """Reachable-set DP in plain Python, set by set; test-only reference.

    Same recurrence, scan order and tie rule as ``opt_general``, but it finds
    the reachable sets by enumeration instead of by their closed form and
    scans each set's partners in an interpreted loop.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    m = len(requests)
    if m == 0:
        return Matching(pairs=(), weight=0.0)
    w = _augmented_matrix(instance.space, requests).tolist()
    layers = _reachable_layers(m)
    dp = {0: 0.0}
    choice = {}
    for layer in reversed(layers[:-1]):
        for mask in layer:
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            w_low = w[low]
            best = math.inf
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
    mask = (1 << m) - 1
    while mask:
        low = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((requests[low].id, requests[j].id))
        mask ^= (1 << low) | (1 << j)
    return Matching.from_pairs(pairs, instance)


def _mask(members):
    return sum(1 << i for i in members)


def _colex_key(members):
    return tuple(reversed(members))


@pytest.mark.parametrize("m", range(2, 21, 2))
def test_reachable_layers_are_the_subsets_of_the_top_elements(m):
    layers = _reachable_layers(m)
    counts = []
    for k, layer in enumerate(layers):
        assert layer == {_mask(c) for c in combinations(range(k, m), m - 2 * k)}
        assert len(layer) == math.comb(m - k, k)
        counts.append(len(layer))
    fib = [0, 1]
    while len(fib) <= m + 1:
        fib.append(fib[-1] + fib[-2])
    assert sum(counts) == fib[m + 1]


@pytest.mark.parametrize("m", range(2, 21, 2))
def test_layer_tables_list_colex_sets_and_child_ranks(m):
    tables = _layer_tables(m)
    assert len(tables) == m // 2
    for k, (cells, ranks) in enumerate(tables):
        want = sorted(combinations(range(k, m), m - 2 * k), key=_colex_key)
        got = [
            (int(row[0]) // m,) + tuple(int(c) % m for c in row) for row in cells
        ]
        assert got == want
        # A child's rank is its position in the next layer's colex list.
        following = sorted(combinations(range(k + 1, m), m - 2 * k - 2), key=_colex_key)
        position = {s: i for i, s in enumerate(following)}
        for members, row in zip(want, ranks):
            rest = members[1:]
            for q, partner in enumerate(rest):
                child = tuple(x for x in rest if x != partner)
                assert row[q] == position[child]


@pytest.mark.parametrize("m", range(2, 21, 2))
def test_layer_tables_are_read_only_contiguous_int16(m):
    # The cache hands the same arrays to every call, so none may be written;
    # int16 in C order keeps the DP's per-layer gathers small and sequential.
    for table in (t for pair in _layer_tables(m) for t in pair):
        assert table.dtype == np.int16
        assert table.flags.c_contiguous
        assert not table.flags.writeable


def _tie_dense_instance(kind, m, seed):
    """Instance whose augmented distances are small integers, so many
    matchings share the optimal weight and the tie rule decides the pairs."""
    rng = random.Random(seed)
    if kind == "identical":
        return Instance(LINE, tuple(req(i + 1, 2.0, 1.0) for i in range(m)))
    if kind == "lattice":
        return Instance(
            LINE,
            tuple(
                req(i + 1, float(rng.randint(0, 3)), float(rng.randint(0, 3)))
                for i in range(m)
            ),
        )
    # Entries in {1, 2} always satisfy the triangle inequality.
    n = 4
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = float(rng.randint(1, 2))
    names = [f"p{i}" for i in range(n)]
    space = MetricSpace.finite(names, matrix)
    return Instance(
        space,
        tuple(
            req(i + 1, rng.choice(names), float(rng.randint(0, 2))) for i in range(m)
        ),
    )


def _assert_matches_reference(inst):
    got = opt_general(inst)
    want = reference_opt_general(inst)
    assert got.pairs == want.pairs
    assert got.weight == want.weight


class TestOptGeneralMatchesFullTable:
    @pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
    @pytest.mark.parametrize("m", [12, 14, 16])
    def test_random(self, m, metric):
        for seed in range(2):
            inst = gen_random(m, 100 * m + seed, metric=metric)
            _assert_matches_reference(inst)

    def test_random_m18(self):
        inst = gen_random(18, 7, metric="euclidean")
        _assert_matches_reference(inst)

    @pytest.mark.parametrize("kind", ["identical", "lattice", "finite12"])
    @pytest.mark.parametrize("m", [8, 12, 14])
    def test_tie_dense(self, kind, m):
        for seed in range(3):
            inst = _tie_dense_instance(kind, m, seed)
            _assert_matches_reference(inst)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("eta", [0.0, 1e-6])
    def test_cascade(self, k, eta):
        inst = gen_lower_bound(LowerBoundParams(k=k, epsilon=1.0, eta=eta))
        _assert_matches_reference(inst)


def _assert_matches_reachable_reference(inst):
    got = opt_general(inst)
    want = reachable_opt_general(inst)
    assert got.pairs == want.pairs
    assert got.weight.hex() == want.weight.hex()


class TestOptGeneralMatchesReachableReference:
    @pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
    def test_random_m20(self, metric):
        for seed in range(3):
            _assert_matches_reachable_reference(gen_random(20, 2000 + seed, metric=metric))

    @pytest.mark.parametrize("kind", ["identical", "lattice", "finite12"])
    @pytest.mark.parametrize("m", [16, 18, 20])
    def test_tie_dense(self, kind, m):
        for seed in range(2):
            _assert_matches_reachable_reference(_tie_dense_instance(kind, m, seed))

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("eta", [0.0, 1e-6])
    def test_cascade(self, k, eta):
        inst = gen_lower_bound(LowerBoundParams(k=k, epsilon=1.0, eta=eta))
        _assert_matches_reachable_reference(inst)


def test_opt_general_m20_peaks_well_below_a_dense_table():
    # One float per subset of 20 requests would take 8 MB; the layer tables
    # (built here from cold) and the largest layer's 3,003 x 9 candidates
    # need a small fraction of that.
    inst = gen_random(20, 5, metric="euclidean")
    _layer_tables.cache_clear()
    tracemalloc.start()
    try:
        opt_general(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_opt_general_leaves_no_garbage_cycles():
    # A solver that keeps its tables alive through a reference cycle (a
    # self-referencing memoised closure, say) holds them until the cyclic
    # collector runs, which raises peak memory.
    inst = gen_random(12, 3, metric="euclidean")
    opt_general(inst)
    gc.collect()
    gc.disable()
    try:
        opt_general(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=5).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
    bipartite=st.booleans(),
    gaps=st.lists(st.integers(min_value=1, max_value=50), min_size=10, max_size=10),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_oracles_commute_with_relabel_and_request_order(
    seed, m, metric, bipartite, gaps, order
):
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    ids = sorted(r.id for r in inst.requests)
    # Strictly increasing new ids: each is the previous plus a positive gap.
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
    for oracle in (opt_general, brute_force_opt):
        base = oracle(inst)
        moved = oracle(relabelled)
        assert moved.pairs == tuple((new_id[p], new_id[q]) for p, q in base.pairs)
        assert moved.weight == base.weight
        reordered = oracle(shuffled)
        assert reordered.pairs == base.pairs
        assert reordered.weight == base.weight


@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_matching_weights_sum_augmented_distance_in_each_callers_order(metric):
    inst = gen_random(16, 31, metric=metric)
    points = {r.id: r.point for r in inst.requests}

    def aug(p, q):
        return augmented_distance(inst.space, points[p], points[q])

    for p in points:
        for q in points:
            assert inst.weight(p, q).hex() == aug(p, q).hex()

    report = simulate(inst, Policy(HEMISPHERE, 1.0))
    total = 0.0
    for rec in report.records:
        total += aug(rec.p, rec.q)
    assert offline_weight(report.records, inst).hex() == total.hex()

    alg = matching_from_records(report.records, inst)
    total = 0.0
    for p, q in alg.pairs:
        assert p < q
        total += aug(p, q)
    assert alg.weight.hex() == total.hex()


    for cycle in cycle_decompose(alg, opt_general(inst), inst):
        a_len = 0.0
        for u, v in cycle.a_edges():
            a_len += aug(u, v)
        b_len = 0.0
        for u, v in cycle.b_edges():
            b_len += aug(u, v)
        assert cycle.a_length.hex() == a_len.hex()
        assert cycle.b_length.hex() == b_len.hex()


def test_sweep_divides_beyond_the_guard_by_the_consecutive_pairs_weight():
    row = sweep("lower-bound", [4, 5], epsilon=1.0).rows[1]
    assert (row.m, row.opt_exact) == (32, False)
    inst = gen_lower_bound(LowerBoundParams(k=5, epsilon=1.0))
    report = simulate(inst, Policy(HEMISPHERE, 1.0))
    total = 0.0
    for p in range(1, 32, 2):
        total += inst.weight(p, p + 1)
    assert row.ratio_online.hex() == (report.online_cost / total).hex()
    assert row.ratio_offline.hex() == (report.offline_weight / total).hex()


@pytest.mark.parametrize(
    "oracle, bipartite",
    [(opt_general, False), (opt_general, True), (brute_force_opt, False),
     (brute_force_opt, True), (opt_bipartite, True)],
)
def test_every_oracle_matches_an_empty_instance_with_nothing(oracle, bipartite):
    assert oracle(Instance(LINE, (), bipartite=bipartite)) == Matching(pairs=(), weight=0.0)


def test_instance_weight_names_an_unknown_id():
    inst = gen_random(4, 2, metric="line")
    with pytest.raises(ValueError, match="unknown request id 99"):
        inst.weight(1, 99)
    with pytest.raises(ValueError, match="unknown request id 99"):
        inst.weight(99, 1)


def test_by_id_lists_requests_in_id_order_not_arrival_order():
    inst = Instance(LINE, (req(7, 0.0, 0.0), req(2, 1.0, 1.0), req(5, 2.0, 2.0), req(0, 3.0, 3.0)))
    assert [r.id for r in inst.requests] == [7, 2, 5, 0]
    assert list(inst.by_id) == [0, 2, 5, 7]
    assert all(inst.by_id[r.id] is r for r in inst.requests)


def test_by_id_is_equal_for_requests_listed_in_any_order():
    inst = gen_random(12, 5, metric="euclidean")
    reordered = Instance(inst.space, tuple(reversed(inst.requests)))
    assert reordered == inst
    assert list(reordered.by_id.items()) == list(inst.by_id.items())


def test_by_id_is_read_only():
    inst = gen_random(4, 2, metric="line")
    with pytest.raises(TypeError):
        inst.by_id[99] = inst.requests[0]
    with pytest.raises(TypeError):
        del inst.by_id[inst.requests[0].id]
    assert inst.size == len(inst.by_id) == 4


def test_an_indexed_instance_pickles_and_copies():
    inst = gen_random(6, 3, metric="finite", bipartite=True)
    assert inst.by_id
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert twin == inst
        assert list(twin.by_id.items()) == list(inst.by_id.items())


class TestOptBipartite:
    def test_forced_pair_per_color(self):
        inst = Instance(
            LINE, (req(1, 0.0, 0.0, 0), req(2, 5.0, 0.0, 1)), bipartite=True
        )
        matching = opt_bipartite(inst)
        assert matching.pairs == ((1, 2),)
        assert matching.weight == 5.0

    def test_two_by_two_assignment(self):
        # Augmented costs [[1, 2], [3, 1]]: the diagonal assignment wins.
        space = MetricSpace.finite(
            ["u", "v", "x", "y"],
            [
                [0.0, 2.0, 1.0, 2.0],
                [2.0, 0.0, 3.0, 1.0],
                [1.0, 3.0, 0.0, 2.0],
                [2.0, 1.0, 2.0, 0.0],
            ],
        )
        inst = Instance(
            space,
            (
                req(1, "u", 0.0, 0),
                req(2, "v", 0.0, 0),
                req(3, "x", 0.0, 1),
                req(4, "y", 0.0, 1),
            ),
            bipartite=True,
        )
        matching = opt_bipartite(inst)
        assert matching.pairs == ((1, 3), (2, 4))
        assert matching.weight == 2.0

    def test_rejects_monochromatic(self):
        inst = Instance(LINE, (req(1, 0.0, 0.0), req(2, 1.0, 0.0)))
        with pytest.raises(ValueError, match="bipartite"):
            opt_bipartite(inst)

    def test_ignores_same_color_shortcuts(self):
        # Co-located same-color requests must not be paired.
        inst = Instance(
            LINE,
            (
                req(1, 0.0, 0.0, 0),
                req(2, 0.0, 0.0, 0),
                req(3, 9.0, 0.0, 1),
                req(4, 9.0, 0.0, 1),
            ),
            bipartite=True,
        )
        matching = opt_bipartite(inst)
        assert all(len({p, q} & {1, 2}) == 1 for p, q in matching.pairs)
        assert matching.weight == 18.0


def _cost_matrices(count, seed):
    """Seeded square cost matrices of sizes 0 to 10, most of them rich in ties.

    Kinds in turn: uniform costs, integer costs 0 to 2, one constant, rank-one
    products of small integers, integer costs with 30 % inf entries, and
    uniform costs over six decades with 30 % inf entries.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(0, 11))
        kind = k % 6
        if kind == 0:
            c = rng.random((n, n))
        elif kind == 1:
            c = rng.integers(0, 3, (n, n)).astype(float)
        elif kind == 2:
            c = np.full((n, n), float(rng.integers(0, 3)))
        elif kind == 3:
            c = np.outer(rng.integers(0, 3, n), rng.integers(0, 3, n)).astype(float)
        elif kind == 4:
            c = np.where(rng.random((n, n)) < 0.3, np.inf, rng.integers(0, 4, (n, n)))
        else:
            c = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4)
            c[rng.random((n, n)) < 0.3] = np.inf
        yield c


def _solved(solve, c):
    """Columns of solve(c), or the text of the ValueError it raises."""
    try:
        return solve(c)
    except ValueError as exc:
        return str(exc)


def test_the_kernel_opt_bipartite_loads_returns_the_columns_of_scipy_optimize():
    # On scipy 1.17 the two names are one function object; the corpus guards
    # a scipy whose directly loaded extension gives a separate one.
    kernel = _linear_sum_assignment()
    infeasible = 0
    for c in _cost_matrices(20_000, 2016):
        want = _solved(lambda c: linear_sum_assignment(c)[1].tolist(), c)
        assert _solved(lambda c: kernel(c)[1].tolist(), c) == want, c.tolist()
        infeasible += want == "cost matrix is infeasible"
    # About one in forty, from the two kinds with inf entries, has no finite assignment.
    assert 300 < infeasible < 1000


@pytest.mark.parametrize("m", [GENERAL_OPT_MAX, GENERAL_OPT_MAX + 2])
@pytest.mark.parametrize("metric", ["line", "euclidean", "finite"])
def test_opt_bipartite_equals_the_scipy_assignment(m, metric):
    for seed in range(5):
        inst = gen_random(m, seed, metric=metric, bipartite=True)
        reqs = sorted(inst.requests, key=lambda r: r.id)
        zeros = [r for r in reqs if r.color == 0]
        ones = [r for r in reqs if r.color == 1]
        rows, cols = linear_sum_assignment(_augmented_matrix(inst.space, zeros, ones))
        pairs = [(zeros[i].id, ones[j].id) for i, j in zip(rows, cols)]
        assert opt_bipartite(inst) == Matching.from_pairs(pairs, inst)


@pytest.mark.parametrize("m", [0, 6, GENERAL_OPT_MAX + 2])
def test_opt_bipartite_falls_back_to_scipy_optimize_without_the_extension(monkeypatch, m):
    if m:
        inst = gen_random(m, 3, metric="euclidean", bipartite=True)
    else:
        inst = Instance(LINE, (), bipartite=True)
    want = opt_bipartite(inst)

    class NoExtension:
        def __init__(self, path, *loader_details):
            pass

        def find_spec(self, fullname):
            return None

    shapes = []

    def counted(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(mpmd.oracle, "FileFinder", NoExtension)
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    _linear_sum_assignment.cache_clear()
    try:
        assert opt_bipartite(inst) == want
    finally:
        _linear_sum_assignment.cache_clear()
    assert shapes == [(m // 2, m // 2)]


class TestBruteForce:
    def test_guard(self):
        inst = gen_random(12, seed=0, metric="line")
        with pytest.raises(ValueError, match="guard"):
            brute_force_opt(inst)

    def test_m4_minimizes_over_three_pairings(self):
        inst = Instance(
            LINE,
            (req(1, 0.0, 0.0), req(2, 1.0, 0.0), req(3, 10.0, 0.0), req(4, 12.0, 0.0)),
        )
        matching = brute_force_opt(inst)
        assert matching.pairs == ((1, 2), (3, 4))
        assert matching.weight == 3.0

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("bipartite", [False, True])
    def test_every_matching_weighing_inf_keeps_the_first(self, m, bipartite):
        # Opposite locations are an infinite distance apart, and the two
        # arrival times an infinite gap, so every pair weighs inf.
        inst = Instance(
            LINE,
            tuple(
                req(k + 1, (-1.0) ** k * 1e308, -1e308 if k < 2 else 1e308,
                    k % 2 if bipartite else None)
                for k in range(m)
            ),
            bipartite=bipartite,
        )
        matching = brute_force_opt(inst)
        exact = opt_bipartite(inst) if bipartite else opt_general(inst)
        assert matching.weight == exact.weight == math.inf
        assert matching.pairs == exact.pairs


# Times +-8e307, whose sums of two gaps overflow: at one place, at 0 and
# 1e308, whose distance plus a gap overflows, and at +-1e308, whose distances
# overflow.
OVERFLOW_INPUTS = {
    name: Instance(LINE, tuple(req(k + 1, loc(k), -8e307 if k < 4 else 8e307) for k in range(8)))
    for name, loc in (
        ("one-place", lambda k: 0.0),
        ("far", lambda k: k % 2 * 1e308),
        ("farther", lambda k: (-1.0) ** k * 1e308),
    )
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_INPUTS))
def test_overflowing_weights_need_no_warning(case):
    inst = OVERFLOW_INPUTS[case]
    colored = Instance(
        inst.space,
        tuple(Request(r.id, r.point, k % 2) for k, r in enumerate(inst.requests)),
        bipartite=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for instance in (inst, colored):
            matching = brute_force_opt(instance)
            exact = opt_bipartite(instance) if instance.bipartite else opt_general(instance)
            assert matching.weight == exact.weight


def _pairings(indices):
    """Every perfect matching of ``indices`` as a pair list, in lexicographic order."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for pos, partner in enumerate(rest):
        for tail in _pairings(rest[:pos] + rest[pos + 1 :]):
            yield [(first, partner), *tail]


def reference_brute_force(instance):
    """Weigh every perfect matching, with no pruning; test-only reference.

    The first matching in lexicographic order that reaches the least weight
    wins, each weight summed pair by pair in list order from 0.0.
    """
    requests = sorted(instance.requests, key=lambda r: r.id)
    best = None
    for pairing in _pairings(list(range(len(requests)))):
        if instance.bipartite and any(
            requests[i].color == requests[j].color for i, j in pairing
        ):
            continue
        weight = 0.0
        for i, j in pairing:
            weight += augmented_distance(instance.space, requests[i].point, requests[j].point)
        if best is None or weight < best[0]:
            best = (weight, pairing)
    return Matching.from_pairs(
        [(requests[i].id, requests[j].id) for i, j in best[1]], instance
    )


def _all_ties(m, bipartite):
    """m requests at one time on m points, every two points 1 apart: all matchings tie."""
    names = [f"p{i}" for i in range(m)]
    space = MetricSpace.finite(names, [[float(p != q) for q in names] for p in names])
    return Instance(
        space,
        tuple(
            Request(id=i, point=TimedPoint(names[i], 0.0), color=i % 2 if bipartite else None)
            for i in range(m)
        ),
        bipartite=bipartite,
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda m, seed: gen_random(m, seed, metric="line"), id="line"),
        pytest.param(
            lambda m, seed: gen_random(m, seed, metric="finite", n_points=4), id="finite4"
        ),
        pytest.param(
            lambda m, seed: gen_random(m, seed, metric="euclidean", bipartite=True),
            id="bipartite-euclidean",
        ),
        pytest.param(
            lambda m, seed: gen_random(m, seed, metric="line", bipartite=True),
            id="bipartite-line",
        ),
        pytest.param(lambda m, seed: _all_ties(m, bipartite=False), id="all-ties"),
        pytest.param(lambda m, seed: _all_ties(m, bipartite=True), id="all-ties-bipartite"),
    ],
)
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_brute_force_equals_unpruned_reference(make, m):
    for seed in range(3):
        inst = make(m, seed)
        assert brute_force_opt(inst) == reference_brute_force(inst)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=5).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
)
@settings(max_examples=200, deadline=None)
def test_oracle_agreement(seed, m, metric):
    assert_checks_pass(check_oracles, gen_random(m, seed, metric=metric), "instance")


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=5).map(lambda h: 2 * h),
)
@settings(max_examples=100, deadline=None)
def test_bipartite_agreement(seed, m):
    inst = gen_random(m, seed, metric="euclidean", bipartite=True)
    # Exact ties may be broken differently; weights agree to rounding.
    assert_checks_pass(check_oracles, inst, "instance")
    # Decomposed against itself, the optimum's 2-cycles are its own pairs.
    assignment = opt_bipartite(inst)
    trivial = cycle_decompose(assignment, assignment, inst)
    assert_checks_pass(check_bipartite_colors, inst, assignment, trivial, "instance")


class TestRealizeOnline:
    def test_hand_example(self):
        inst = Instance(LINE, (req(1, 0.0, 2.0), req(2, 1.0, 5.0)))
        matching = opt_general(inst)
        assert matching.weight == 4.0
        assert realize_online(matching, inst) == 4.0

    def test_simultaneous_colocated(self):
        inst = Instance(LINE, (req(1, 3.0, 1.0), req(2, 3.0, 1.0)))
        assert realize_online(opt_general(inst), inst) == 0.0

    def test_cascade_k2(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0, eta=0.0))
        assert realize_online(opt_general(inst), inst) == 2.0

    def test_requires_perfect_matching(self):
        inst = Instance(LINE, tuple(req(i, 0.0, 0.0) for i in (1, 2, 3, 4)))
        bad = Matching(pairs=((1, 2),), weight=0.0)
        with pytest.raises(ValueError, match="perfect"):
            realize_online(bad, inst)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=6).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
)
@settings(max_examples=200, deadline=None)
def test_realize_equals_weight_exactly(seed, m, metric):
    assert_checks_pass(check_oracles, gen_random(m, seed, metric=metric), "instance")


class TestCycleDecompose:
    def test_equal_matchings_give_two_cycles(self):
        inst = gen_random(8, seed=4, metric="line")
        matching = opt_general(inst)
        decomposition = cycle_decompose(matching, matching, inst)
        assert len(decomposition) == 4
        for cycle in decomposition:
            assert len(cycle.vertices) == 2
            assert cycle.a_length == cycle.b_length

    def test_cascade_k2_single_cycle(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0, eta=0.0))
        alg = Matching.from_pairs([(2, 3), (1, 4)], inst)
        opt = opt_general(inst)
        decomposition = cycle_decompose(alg, opt, inst)
        assert len(decomposition) == 1
        cycle = decomposition[0]
        assert sorted(cycle.vertices) == [1, 2, 3, 4]
        assert cycle.a_length == 3.0
        assert cycle.b_length == 2.0

    def test_mismatched_id_sets_rejected(self):
        inst = gen_random(4, seed=1, metric="line")
        other = gen_random(6, seed=1, metric="line")
        with pytest.raises(ValueError, match="same id set"):
            cycle_decompose(opt_general(inst), opt_general(other), inst)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=8).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
    eps=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_cycle_structure_and_length_sums(seed, m, metric, eps):
    inst = gen_random(m, seed, metric=metric)
    report = simulate(inst, Policy(HEMISPHERE, eps))
    alg = matching_from_records(report.records, inst)
    opt = opt_general(inst)
    decomposition = cycle_decompose(alg, opt, inst)
    assert_checks_pass(check_decomposition, inst, alg, opt, decomposition, "run")
    a_total = sum(c.a_length for c in decomposition)
    assert a_total == pytest.approx(report.offline_weight, rel=1e-9)


class TestRestriction:
    def test_single_cycle_is_trivially_ok(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0))
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        alg = matching_from_records(report.records, inst)
        decomposition = cycle_decompose(alg, opt_general(inst), inst)
        assert len(decomposition) == 1
        assert restriction_check(inst, report, decomposition) is None

    def test_two_cycles_re_simulate_to_their_own_pairs(self):
        inst = gen_random(8, seed=11, metric="line")
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        alg = matching_from_records(report.records, inst)
        decomposition = cycle_decompose(alg, alg, inst)
        assert restriction_check(inst, report, decomposition) is None

    def test_mismatch_names_the_cycle_and_both_pair_sets(self):
        # The optimum's own 2-cycles are not the run's: alone, requests 1
        # and 2 match each other, while the full run matched them elsewhere.
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0))
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        opt = opt_general(inst)
        assert restriction_check(inst, report, cycle_decompose(opt, opt, inst)) == (
            "cycle 0: expected pairs ((1, 4), (2, 3)), re-simulated pairs ((1, 2),)"
        )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=6).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
    eps=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_restriction_property(seed, m, metric, eps):
    inst = gen_random(m, seed, metric=metric)
    report = simulate(inst, Policy(HEMISPHERE, eps))
    alg = matching_from_records(report.records, inst)
    decomposition = cycle_decompose(alg, opt_general(inst), inst)
    assert restriction_check(inst, report, decomposition) is None


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=6).map(lambda h: 2 * h),
    eps=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=100, deadline=None)
def test_bipartite_restriction_and_colors(seed, m, eps):
    inst = gen_random(m, seed, metric="euclidean", bipartite=True)
    report = simulate(inst, Policy(HEMISPHERE_BIPARTITE, eps))
    alg = matching_from_records(report.records, inst)
    assert_checks_pass(check_cycles, inst, report, alg, opt_bipartite(inst), "run")


def test_optimality_lower_bound_on_policies():
    tally = Tally()
    for seed in range(30):
        inst = gen_random(8 + 2 * (seed % 3), seed, metric="euclidean")
        report = simulate(inst, Policy(HEMISPHERE, 1.0))
        alg = matching_from_records(report.records, inst)
        check_optimality_lower_bound(tally, alg, opt_general(inst), f"seed {seed}")
    assert_all_ok(tally)


@pytest.mark.parametrize("pairs", [[(1, 2)], [(1, 2), (1, 3)], [(1, 2), (3, 5)], [(1, 2), (3, 4), (3, 4)]])
def test_from_pairs_refuses_pairs_that_do_not_partition_the_ids(pairs):
    inst = Instance(LINE, tuple(req(k, float(k), 0.0) for k in range(1, 5)))
    with pytest.raises(ValueError, match="^pairs do not partition the instance's request ids$"):
        Matching.from_pairs(pairs, inst)
