"""Metric layer: distances, the time-augmented metric, and axiom validation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mpmd.metric import (
    MetricSpace,
    TimedPoint,
    augmented_distance,
    distance,
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
