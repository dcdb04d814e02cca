"""Metric layer: distances, the time-augmented metric, and axiom validation."""

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmd.metric as metric_layer
from mpmd.metric import (
    EUCLIDEAN_DIM_MAX,
    FINITE_POINTS_MAX,
    MetricSpace,
    TimedPoint,
    augmented_distance,
    distance,
    pair_distances,
    validate_metric,
    validate_point,
)

finite_ab = MetricSpace.finite(["A", "B"], [[0.0, 2.1], [2.1, 0.0]])


def test_line_distance():
    assert distance(MetricSpace.line(), 0.0, 3.0) == 3.0
    assert distance(MetricSpace.line(), -2.0, -2.0) == 0.0


def test_euclidean_distance():
    space = MetricSpace.euclidean(2)
    assert distance(space, (0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance(space, (1.0, 1.0), (1.0, 1.0)) == 0.0


def test_finite_distance_lookup():
    assert distance(finite_ab, "A", "B") == 2.1
    assert distance(finite_ab, "B", "B") == 0.0


def test_unknown_point_name():
    with pytest.raises(ValueError, match="unknown point"):
        distance(finite_ab, "A", "C")


def test_euclidean_dimension_mismatch():
    with pytest.raises(ValueError, match="coordinates"):
        distance(MetricSpace.euclidean(2), (0.0, 0.0), (1.0, 2.0, 3.0))


def test_plain_constructor_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown metric kind 'bogus'"):
        MetricSpace(kind="bogus")


def test_euclidean_dim_must_be_positive():
    with pytest.raises(ValueError):
        MetricSpace.euclidean(0)


def test_space_size_caps():
    assert MetricSpace.euclidean(EUCLIDEAN_DIM_MAX).dim == EUCLIDEAN_DIM_MAX
    too_many = EUCLIDEAN_DIM_MAX + 1
    with pytest.raises(ValueError, match=f"from 1 to {EUCLIDEAN_DIM_MAX}, got {too_many}"):
        MetricSpace.euclidean(too_many)
    n = FINITE_POINTS_MAX + 1
    with pytest.raises(ValueError, match=f"at most {FINITE_POINTS_MAX} points, got {n}"):
        MetricSpace.finite([f"p{i}" for i in range(n)], [[0.0] * n] * n)


def test_augmented_distance_line():
    space = MetricSpace.line()
    p = TimedPoint(0.0, 0.0)
    q = TimedPoint(3.0, 5.0)
    assert augmented_distance(space, p, q) == 8.0
    assert augmented_distance(space, p, p) == 0.0


def test_augmented_distance_finite():
    p = TimedPoint("A", 1.0)
    q = TimedPoint("B", 4.0)
    assert augmented_distance(finite_ab, p, q) == pytest.approx(5.1)


def test_validate_metric_accepts_two_point():
    assert validate_metric([[0.0, 1.0], [1.0, 0.0]]) is None


def test_validate_metric_asymmetry():
    violation = validate_metric([[0.0, 1.0], [2.0, 0.0]])
    assert violation is not None
    assert violation.kind == "symmetry"
    assert violation.indices == (0, 1)


def test_validate_metric_triangle():
    violation = validate_metric([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert violation is not None
    assert violation.kind == "triangle"
    assert set(violation.indices) == {0, 1, 2}


def test_validate_metric_diagonal_and_positivity():
    assert validate_metric([[1.0]]).kind == "diagonal"
    assert validate_metric([[0.0, 0.0], [0.0, 0.0]]).kind == "positivity"


def test_validate_metric_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        validate_metric([[0.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_factory_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=r"matrix\[0\]\[1\] must be a finite number"):
        MetricSpace.finite(["A", "B"], [[0.0, bad], [bad, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        validate_point(MetricSpace.line(), bad)
    with pytest.raises(ValueError, match="finite"):
        validate_point(MetricSpace.euclidean(2), (0.0, bad))


def test_finite_factory_rejects_invalid():
    with pytest.raises(ValueError, match="invalid finite metric"):
        MetricSpace.finite(["A", "B"], [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="unique"):
        MetricSpace.finite(["A", "A"], [[0.0, 1.0], [1.0, 0.0]])


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
times = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _timed_points(space_kind: str):
    if space_kind == "line":
        loc = coords
    elif space_kind == "euclidean":
        loc = st.tuples(coords, coords)
    else:
        loc = st.sampled_from(["A", "B"])
    return st.builds(TimedPoint, location=loc, time=times)


@pytest.mark.parametrize(
    "space,kind",
    [
        (MetricSpace.line(), "line"),
        (MetricSpace.euclidean(2), "euclidean"),
        (finite_ab, "finite"),
    ],
    ids=["line", "euclidean", "finite"],
)
def test_augmented_metric_axioms(space, kind):
    @settings(max_examples=200, deadline=None)
    @given(p=_timed_points(kind), q=_timed_points(kind), r=_timed_points(kind))
    def axioms(p, q, r):
        d_pq = augmented_distance(space, p, q)
        assert d_pq == augmented_distance(space, q, p)
        assert d_pq >= abs(p.time - q.time)
        assert d_pq >= distance(space, p.location, q.location)
        d_pr = augmented_distance(space, p, r)
        d_qr = augmented_distance(space, q, r)
        assert d_pr <= d_pq + d_qr + 1e-9

    axioms()


@pytest.mark.parametrize("seed", range(50))
def test_tabulated_euclidean_matrices_validate(seed):
    # Uniformly sampled plane points are in general position, so their
    # tabulated distances always pass the exact axiom checks.
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 8)
    pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    matrix = [[math.dist(p, q) for q in pts] for p in pts]
    assert validate_metric(matrix) is None


def _random_locations(kind: str, n: int, rng) -> list:
    if kind == "line":
        return [rng.uniform(-100, 100) for _ in range(n)]
    if kind.startswith("euclidean"):
        dim = int(kind[-1])
        return [tuple(rng.uniform(-100, 100) for _ in range(dim)) for _ in range(n)]
    return [rng.choice(["p0", "p1", "p2", "p3", "p4"]) for _ in range(n)]


def _space(kind: str, rng) -> MetricSpace:
    if kind == "line":
        return MetricSpace.line()
    if kind.startswith("euclidean"):
        return MetricSpace.euclidean(int(kind[-1]))
    anchors = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(5)]
    matrix = [[math.dist(p, q) for q in anchors] for p in anchors]
    return MetricSpace.finite([f"p{i}" for i in range(5)], matrix)


def _grid(rows: int, cols: int, first_col: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """int32 index lists of every (row, column) pair, row by row: the rows are
    positions 0..rows-1 and the columns first_col..first_col+cols-1."""
    i = np.repeat(np.arange(rows, dtype=np.int32), cols)
    j = np.tile(np.arange(first_col, first_col + cols, dtype=np.int32), rows)
    return i, j


def _table(rows: int, cols: int, first_col: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The same pairs as ``_grid``, as a table: a column of the row positions
    against a row of the column positions, which broadcast to rows x cols."""
    return np.arange(rows)[:, None], np.arange(first_col, first_col + cols)[None, :]


@pytest.mark.parametrize("kind", ["line", "euclidean2", "euclidean3", "finite"])
@pytest.mark.parametrize("seed", range(3))
def test_pair_distances_on_grids_are_bit_equal_to_distance(kind, seed):
    # Compared with ==: sqrt of a sum of squares or np.hypot would differ from
    # math.dist in the last bit on a share of these pairs.
    rng = random.Random(seed)
    space = _space(kind, rng)
    a = _random_locations(kind, 60, rng)
    b = _random_locations(kind, 25, rng)
    square = pair_distances(space, a, *_grid(60, 60))
    assert _bits(square) == _bits(distance(space, p, q) for p in a for q in a)
    rect = pair_distances(space, a + b, *_grid(60, 25, 60))
    assert _bits(rect) == _bits(distance(space, p, q) for p in a for q in b)


@pytest.mark.parametrize("kind", ["line", "euclidean2", "euclidean3", "finite"])
@pytest.mark.parametrize("seed", range(2))
def test_pair_distances_on_tables_equal_grids_and_distance(distance_path, kind, seed):
    # The table form gathers each row's and each column's coordinates once
    # per block, yet must give the bits of the pair list and of distance.
    rng = random.Random(seed)
    space = _space(kind, rng)
    a = _random_locations(kind, 60, rng)
    b = _random_locations(kind, 25, rng)
    for rows, cols in ((a, a), (a, b), (b, a), (a[:1], b), (a, b[:1])):
        first = len(rows)
        table = pair_distances(space, rows + cols, *_table(len(rows), len(cols), first))
        assert table.shape == (len(rows), len(cols))
        grid = pair_distances(space, rows + cols, *_grid(len(rows), len(cols), first))
        assert _bits(table.ravel()) == _bits(grid)
        assert _bits(table.ravel()) == _bits(distance(space, p, q) for p in rows for q in cols)


@pytest.mark.parametrize("kind", ["line", "euclidean2", "finite"])
def test_pair_distances_take_any_broadcast(distance_path, kind):
    # The result has the broadcast shape, whichever array spans which axis
    # and however many axes each has.
    rng = random.Random(8)
    space = _space(kind, rng)
    points = _random_locations(kind, 30, rng)
    cases = [
        (np.arange(6)[None, :], np.arange(6, 10)[:, None]),
        (np.arange(5)[:, None], np.arange(5, 12)),
        (np.arange(30).reshape(2, 3, 5), np.arange(25, 30, dtype=np.int32)),
        (np.int32(3), np.arange(30)),
        (np.arange(30), 4),
        (np.int64(3), np.int64(29)),
    ]
    for i, j in cases:
        got = pair_distances(space, points, i, j)
        wide_i, wide_j = np.broadcast_arrays(i, j)
        assert got.shape == wide_i.shape
        expected = (
            distance(space, points[p], points[q])
            for p, q in zip(wide_i.ravel().tolist(), wide_j.ravel().tolist())
        )
        assert _bits(got.ravel()) == _bits(expected)


@pytest.mark.parametrize("kind", ["line", "euclidean2", "euclidean3", "finite"])
def test_empty_tables_keep_their_shapes(kind):
    rng = random.Random(4)
    space = _space(kind, rng)
    points = _random_locations(kind, 10, rng)
    for rows, cols in ((0, 5), (5, 0), (0, 0)):
        assert pair_distances(space, points, *_table(rows, cols, 5)).shape == (rows, cols)


def test_pair_distances_empty_and_unknown_name():
    empty = np.array([], dtype=np.int32)
    assert pair_distances(MetricSpace.euclidean(2), [], empty, empty).shape == (0,)
    assert pair_distances(MetricSpace.line(), [1.0], empty, empty).shape == (0,)
    for indices in (_grid(2, 2), _table(2, 2), _table(1, 1, 1), _table(0, 1, 1)):
        with pytest.raises(ValueError, match="unknown point name 'C'"):
            pair_distances(finite_ab, ["A", "C"], *indices)


def test_finite_distances_array_is_built_once_and_read_only():
    rng = random.Random(3)
    space = _space("finite", rng)
    array = space.distances
    assert array.tolist() == [list(row) for row in space.matrix]
    assert space.distances is array
    with pytest.raises(ValueError, match="read-only"):
        array[0, 1] = 1.0
    # The callers' results are copies, which they may write to.
    assert pair_distances(space, ["p0", "p1"], *_grid(2, 2)).flags.writeable


# _BLOCK_CELLS: the real one, and blocks of a few pairs, so that blocks split
# rows and columns.
DISTANCE_PATHS = {
    "kernel": metric_layer._BLOCK_CELLS,
    "small-blocks": 100,
}


@pytest.fixture(params=sorted(DISTANCE_PATHS))
def distance_path(request, monkeypatch):
    monkeypatch.setattr(metric_layer, "_BLOCK_CELLS", DISTANCE_PATHS[request.param])
    return request.param


def _hard_points(dim: int, rng) -> list[tuple[float, ...]]:
    """Points whose differences span 1e-300 to 1e300, with coincident points,
    subnormal differences and coordinates near +-1.7e308 whose differences
    overflow to inf."""
    points = []
    for _ in range(40):
        magnitude = 10.0 ** rng.uniform(-300, 300)
        points.append(
            tuple(rng.uniform(-1, 1) * magnitude * 10.0 ** rng.uniform(-3, 0) for _ in range(dim))
        )
    points.append(points[0])
    points.append(points[7])
    points.append(tuple(5e-324 * rng.randint(-4, 4) for _ in range(dim)))
    points.append(tuple(2.2e-308 * rng.uniform(-1, 1) for _ in range(dim)))
    points.append(tuple(1.7e308 * rng.choice((-1, 1)) for _ in range(dim)))
    points.append(tuple(-1.7e308 for _ in range(dim)))
    points.append(tuple(1.7e308 - k * 1e292 for k in range(dim)))
    return points


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 37])
def test_euclidean_distances_equal_math_dist_bit_for_bit(distance_path, dim):
    rng = random.Random(dim)
    space = MetricSpace.euclidean(dim)
    a = _hard_points(dim, rng)
    n = len(a)
    # 47 points: the square grid and the pair list ask for 2,209 distances and
    # the rectangle for 1,128; the 9-point grids and the first 50 pairs are
    # small calls.
    # Each grid is taken as a pair list and as a table.
    for points in (a, a[:9]):
        expected = _bits(math.dist(p, q) for p in points for q in points)
        for indices in (_grid(len(points), len(points)), _table(len(points), len(points))):
            square = pair_distances(space, points, *indices)
            assert _bits(square.ravel()) == expected
    for rows, cols in ((a, a[::2]), (a[:9], a[:7]), (a[:1], a), (a, a[:1])):
        expected = _bits(math.dist(p, q) for p in rows for q in cols)
        for make in (_grid, _table):
            rect = pair_distances(space, rows + cols, *make(len(rows), len(cols), len(rows)))
            assert _bits(rect.ravel()) == expected
    i, j = (k.astype(np.int32) for k in np.nonzero(np.ones((n, n), dtype=bool)))
    for take in (slice(None), slice(0, 50)):
        got = pair_distances(space, a, i[take], j[take])
        expected = (math.dist(a[p], a[q]) for p, q in zip(i[take].tolist(), j[take].tolist()))
        assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("kind", ["line", "euclidean2", "finite"])
def test_pair_distances_on_random_pairs_equal_distance(distance_path, kind):
    rng = random.Random(5)
    space = _space(kind, rng)
    points = _random_locations(kind, 60, rng)
    i = np.array([rng.randrange(60) for _ in range(1500)], dtype=np.int32)
    j = np.array([rng.randrange(60) for _ in range(1500)], dtype=np.int32)
    expected = (distance(space, points[p], points[q]) for p, q in zip(i.tolist(), j.tolist()))
    assert _bits(pair_distances(space, points, i, j)) == _bits(expected)


def test_empty_inputs_through_the_kernel():
    space = MetricSpace.euclidean(3)
    empty = np.array([], dtype=np.int32)
    assert pair_distances(space, [], empty, empty).shape == (0,)
    assert pair_distances(space, [(1.0, 2.0, 3.0)], empty, empty).shape == (0,)


def loop_first_triangle_violation(matrix) -> tuple[int, int, int] | None:
    """First (i, j, k) of distinct indices, in loop order, with d(i,k) >
    d(i,j) + d(j,k): the triple loop ``validate_metric`` once ran, kept as the
    reference for its one numpy pass per row."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    return i, j, k
    return None


@pytest.mark.parametrize("seed", range(6))
def test_validate_metric_finds_the_loops_first_violation(seed):
    # Plane distances, some entries shrunk or stretched symmetrically so that
    # several triangles fail; the first one found must be the loop's.
    rng = random.Random(seed)
    found = 0
    for _ in range(100):
        n = rng.randrange(3, 10)
        anchors = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        matrix = [[math.dist(p, q) for q in anchors] for p in anchors]
        for _ in range(rng.randrange(0, 4)):
            i, j = rng.sample(range(n), 2)
            matrix[i][j] = matrix[j][i] = matrix[i][j] * rng.choice((0.2, 0.9, 1.5, 3.0))
        expected = loop_first_triangle_violation(matrix)
        violation = validate_metric(matrix)
        if expected is None:
            assert violation is None
        else:
            assert (violation.kind, violation.indices) == ("triangle", expected)
            found += 1
    assert found > 20


# The phrases of the two parameter helpers' messages.  The command line's
# option parsers, which turn text into usage errors, word their own.
HELPER_PHRASES = re.compile(r"must be (finite and strictly positive|an (even )?integer)")


def test_parameter_messages_are_spelled_only_in_the_helpers():
    # A range or sign check hand-written outside metric.py would spell one of
    # these phrases again; every module routes its parameters through
    # require_positive and require_int instead.
    for refuse in (
        lambda: metric_layer.require_positive("x", 0.0),
        lambda: metric_layer.require_int("x", 0, 1),
        lambda: metric_layer.require_int("x", 3, 2, 8, step=2),
        lambda: metric_layer.require_int("x", 6, 8, 16, step=4),
    ):
        with pytest.raises(ValueError) as info:
            refuse()
        assert HELPER_PHRASES.search(str(info.value))
    package = Path(metric_layer.__file__).parent
    spelled = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "cli.py" and HELPER_PHRASES.search(path.read_text(encoding="utf-8"))
    )
    assert spelled == ["metric.py"]
