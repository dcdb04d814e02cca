"""Metric layer: distances, the time-augmented metric, and axiom validation."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmd.metric as metric_layer
from mpmd.metric import (
    EUCLIDEAN_DIM_MAX,
    FINITE_POINTS_MAX,
    VECTOR_DISTANCES_MIN,
    MetricSpace,
    TimedPoint,
    augmented_distance,
    distance,
    pair_distances,
    pairwise,
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


@pytest.mark.parametrize("kind", ["line", "euclidean2", "euclidean3", "finite"])
@pytest.mark.parametrize("seed", range(3))
def test_pairwise_is_bit_equal_to_distance(kind, seed):
    # Compared with ==: sqrt of a sum of squares or np.hypot would differ from
    # math.dist in the last bit on a share of these pairs.
    import random

    rng = random.Random(seed)
    space = _space(kind, rng)
    a = _random_locations(kind, 60, rng)
    b = _random_locations(kind, 25, rng)
    square = pairwise(space, a)
    assert square.shape == (60, 60)
    for i, p in enumerate(a):
        for j, q in enumerate(a):
            assert square[i, j] == distance(space, p, q)
    rect = pairwise(space, a, b)
    assert rect.shape == (60, 25)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            assert rect[i, j] == distance(space, p, q)


def test_pairwise_empty_and_unknown_name():
    assert pairwise(MetricSpace.euclidean(2), []).shape == (0, 0)
    assert pairwise(MetricSpace.line(), [], [1.0]).shape == (0, 1)
    with pytest.raises(ValueError, match="unknown point name 'C'"):
        pairwise(finite_ab, ["A", "C"])


# (VECTOR_DISTANCES_MIN, _BLOCK_CELLS): the real cut-off, which sends small
# calls to math.dist and large ones to the numpy kernel; the kernel for every
# call; and the kernel in blocks of a few pairs, so that blocks split rows and
# columns and a square grid mirrors many blocks.
DISTANCE_PATHS = {
    "cut-off": (VECTOR_DISTANCES_MIN, metric_layer._BLOCK_CELLS),
    "kernel": (0, metric_layer._BLOCK_CELLS),
    "small-blocks": (0, 100),
}


@pytest.fixture(params=sorted(DISTANCE_PATHS))
def distance_path(request, monkeypatch):
    vector, cells = DISTANCE_PATHS[request.param]
    monkeypatch.setattr(metric_layer, "VECTOR_DISTANCES_MIN", vector)
    monkeypatch.setattr(metric_layer, "_BLOCK_CELLS", cells)
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
    # 47 points: the square asks for 1,081 distances, the rectangle for 1,128
    # and the pair list for 2,209, all above the cut-off; the 9-point slices
    # and the first 50 pairs fall below it.
    for points in (a, a[:9]):
        square = pairwise(space, points)
        assert _bits(square.ravel()) == _bits(math.dist(p, q) for p in points for q in points)
    for rows, cols in ((a, a[::2]), (a[:9], a[:7]), (a[:1], a)):
        rect = pairwise(space, rows, cols)
        assert rect.shape == (len(rows), len(cols))
        assert _bits(rect.ravel()) == _bits(math.dist(p, q) for p in rows for q in cols)
    i, j = (k.astype(np.int32) for k in np.nonzero(np.ones((n, n), dtype=bool)))
    for take in (slice(None), slice(0, 50)):
        got = pair_distances(space, a, i[take], j[take])
        expected = (math.dist(a[p], a[q]) for p, q in zip(i[take].tolist(), j[take].tolist()))
        assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("kind", ["line", "euclidean2", "finite"])
def test_pair_distances_equal_pairwise_entries(distance_path, kind):
    rng = random.Random(5)
    space = _space(kind, rng)
    points = _random_locations(kind, 60, rng)
    i = np.array([rng.randrange(60) for _ in range(1500)], dtype=np.int32)
    j = np.array([rng.randrange(60) for _ in range(1500)], dtype=np.int32)
    expected = pairwise(space, points)[i, j]
    assert _bits(pair_distances(space, points, i, j)) == _bits(expected)


def test_empty_inputs_through_the_kernel(monkeypatch):
    monkeypatch.setattr(metric_layer, "VECTOR_DISTANCES_MIN", 0)
    space = MetricSpace.euclidean(3)
    assert pairwise(space, []).shape == (0, 0)
    assert pairwise(space, [], [(1.0, 2.0, 3.0)]).shape == (0, 1)
    assert pairwise(space, [(1.0, 2.0, 3.0)], []).shape == (1, 0)
    empty = np.array([], dtype=np.int32)
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
