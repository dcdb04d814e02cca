"""Metric spaces and the time-augmented distance.

Three kinds of space are supported: the real line, d-dimensional Euclidean
space, and explicit finite metrics given by a distance matrix.  Points carry
an arrival time alongside their location; the time-augmented distance adds
the absolute time difference to the spatial distance and is itself a metric.

All values are finite double-precision reals and comparisons here are exact;
any tolerance handling belongs to the simulation layer, where events are
ordered.  Each space's scalar formula lives in ``distance_kernel``, which
trusts its points; ``distance`` validates them first.  ``pairwise``
tabulates many distances at once and agrees with ``distance`` bit for bit,
so callers may use either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

Point = float | tuple[float, ...] | str

LINE = "line"
EUCLIDEAN = "euclidean"
FINITE = "finite"


@dataclass(frozen=True)
class MetricViolation:
    """First metric-axiom violation found in a distance matrix."""

    kind: str  # "symmetry" | "diagonal" | "positivity" | "triangle"
    indices: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return self.detail


def validate_metric(matrix) -> MetricViolation | None:
    """Check symmetry, zero diagonal, positivity, and all triangle inequalities.

    Returns None when every axiom holds, otherwise a report naming the first
    violating entry or triple.  Raises ValueError on a non-square input.
    """
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError(f"matrix is not square: row {i} has {len(row)} entries, expected {n}")
    for i in range(n):
        if matrix[i][i] != 0:
            return MetricViolation(
                "diagonal", (i,), f"diagonal entry ({i},{i}) is {matrix[i][i]!r}, expected 0"
            )
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return MetricViolation(
                    "symmetry",
                    (i, j),
                    f"asymmetry at ({i},{j}): {matrix[i][j]!r} != {matrix[j][i]!r}",
                )
            if not matrix[i][j] > 0:
                return MetricViolation(
                    "positivity",
                    (i, j),
                    f"off-diagonal entry ({i},{j}) is {matrix[i][j]!r}, expected > 0",
                )
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    return MetricViolation(
                        "triangle",
                        (i, j, k),
                        f"triangle violation {i}-{j}-{k}: "
                        f"d({i},{k})={matrix[i][k]!r} > {matrix[i][j]!r} + {matrix[j][k]!r}",
                    )
    return None


@dataclass(frozen=True)
class MetricSpace:
    """A line, Euclidean, or explicit finite metric space.

    Use the factory classmethods; the plain constructor performs no checks.
    Instances are immutable and safe to share between concurrent contexts.
    """

    kind: str
    dim: int = 1
    points: tuple[str, ...] = ()
    matrix: tuple[tuple[float, ...], ...] = ()

    @classmethod
    def line(cls) -> MetricSpace:
        return cls(kind=LINE)

    @classmethod
    def euclidean(cls, dim: int) -> MetricSpace:
        if dim < 1:
            raise ValueError(f"euclidean dimension must be >= 1, got {dim}")
        return cls(kind=EUCLIDEAN, dim=dim)

    @classmethod
    def finite(cls, points, matrix) -> MetricSpace:
        names = tuple(str(p) for p in points)
        if len(set(names)) != len(names):
            raise ValueError("finite metric point names must be unique")
        if len(matrix) != len(names):
            raise ValueError(
                f"matrix size {len(matrix)} does not match {len(names)} point names"
            )
        rows = tuple(tuple(float(x) for x in row) for row in matrix)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not math.isfinite(x):
                    raise ValueError(f"matrix[{i}][{j}] must be a finite number, got {x!r}")
        violation = validate_metric(rows)
        if violation is not None:
            raise ValueError(f"invalid finite metric: {violation}")
        return cls(kind=FINITE, points=names, matrix=rows)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Position of each named point of a finite space, by name."""
        return {name: k for k, name in enumerate(self.points)}

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise ValueError(f"unknown point name {name!r}") from None


@dataclass(frozen=True)
class TimedPoint:
    """A location in the ambient space together with an arrival time."""

    location: Point
    time: float


def is_finite_real(x) -> bool:
    """True for a real number, other than a bool, that is a finite double."""
    if isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def validate_point(space: MetricSpace, p: Point) -> None:
    """Raise ValueError when p is not a valid point of the given space."""
    if space.kind == LINE:
        if not is_finite_real(p):
            raise ValueError(f"line point must be a finite real number, got {p!r}")
    elif space.kind == EUCLIDEAN:
        if not isinstance(p, (tuple, list)) or len(p) != space.dim:
            raise ValueError(
                f"euclidean point must have {space.dim} coordinates, got {p!r}"
            )
        if not all(map(is_finite_real, p)):
            raise ValueError(f"euclidean coordinates must be finite real numbers, got {p!r}")
    elif space.kind == FINITE:
        if p not in space.points:
            raise ValueError(f"unknown point name {p!r}")
    else:
        raise ValueError(f"unknown metric kind {space.kind!r}")


def _line_distance(a: Point, b: Point) -> float:
    return abs(float(a) - float(b))


def distance_kernel(space: MetricSpace) -> Callable[[Point, Point], float]:
    """The space's distance function, which does not validate its points.

    For points already checked at the boundary, such as the locations of an
    ``Instance``; on other input it may raise or return garbage.
    """
    if space.kind == LINE:
        return _line_distance
    if space.kind == EUCLIDEAN:
        return math.dist
    if space.kind == FINITE:
        positions, matrix = space.positions, space.matrix
        return lambda a, b: matrix[positions[a]][positions[b]]
    raise ValueError(f"unknown metric kind {space.kind!r}")


def distance(space: MetricSpace, a: Point, b: Point) -> float:
    """Spatial distance between two points of the space."""
    validate_point(space, a)
    validate_point(space, b)
    return distance_kernel(space)(a, b)


def pairwise(space: MetricSpace, a, b=None) -> np.ndarray:
    """Matrix of spatial distances from every point in a to every one in b.

    a and b are sequences of points of the space.  Entry [i, j] equals
    ``distance(space, a[i], b[j])`` bit for bit.  Without b the matrix is the
    symmetric one of a against itself.  Euclidean entries
    come from ``math.dist`` itself: numpy's square root of a sum of squares,
    and ``np.hypot``, differ from it in the last bit on some pairs.
    """
    square = b is None
    if square:
        b = a
    if space.kind == LINE:
        x = np.array(a, dtype=float)
        y = x if square else np.array(b, dtype=float)
        out = x[:, None] - y[None, :]
        return np.abs(out, out=out)
    if space.kind == EUCLIDEAN:
        if not square:
            out = np.empty((len(a), len(b)))
            for i, p in enumerate(a):
                out[i] = list(map(math.dist, repeat(p), b))
            return out
        # math.dist is symmetric bit for bit: fill the upper triangle, mirror it.
        out = np.zeros((len(a), len(a)))
        for i, p in enumerate(a):
            out[i, i + 1 :] = list(map(math.dist, repeat(p), a[i + 1 :]))
            out[i + 1 :, i] = out[i, i + 1 :]
        return out
    if space.kind == FINITE:
        index = space.positions
        try:
            rows = [index[p] for p in a]
            cols = rows if square else [index[q] for q in b]
        except KeyError as exc:
            raise ValueError(f"unknown point name {exc.args[0]!r}") from None
        return np.array(space.matrix)[np.ix_(rows, cols)]
    raise ValueError(f"unknown metric kind {space.kind!r}")


def augmented_distance(space: MetricSpace, p: TimedPoint, q: TimedPoint) -> float:
    """Time-augmented distance: spatial distance plus absolute time difference."""
    return distance(space, p.location, q.location) + abs(p.time - q.time)
