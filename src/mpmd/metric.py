"""Metric spaces and the time-augmented distance.

Three kinds of space are supported: the real line, d-dimensional Euclidean
space, and explicit finite metrics given by a distance matrix.  Points carry
an arrival time alongside their location; the time-augmented distance adds
the absolute time difference to the spatial distance and is itself a metric.

All values are finite double-precision reals and comparisons here are exact;
any tolerance handling belongs to the simulation layer, where events are
ordered.  Each space's scalar formula lives in ``distance_kernel``, which
trusts its points; ``distance`` validates them first.  ``pairwise``
tabulates many distances at once, and ``pair_distances`` takes them for a
list of index pairs; both agree with ``distance`` bit for bit, so callers
may use any of them.

The Euclidean formula is ``math.dist``.  numpy's square root of a sum of
squares, and ``np.hypot``, differ from it in the last bit on some pairs, so
many distances at once come from ``_norms``: CPython's own algorithm
(``vector_norm`` in Modules/mathmodule.c), transcribed one IEEE operation
at a time onto arrays, in blocks that stay in cache.  It pays only from
about a thousand distances a call, so calls asking for fewer than
``VECTOR_DISTANCES_MIN`` still call ``math.dist`` once per pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

Point = float | tuple[float, ...] | str

LINE = "line"
EUCLIDEAN = "euclidean"
FINITE = "finite"

# Largest dimension of a Euclidean space.  A location is a tuple of Python
# floats, about 32 bytes per coordinate, so 8,192 requests (the most a
# generator makes) at this dimension hold about 270 MB of coordinates.
EUCLIDEAN_DIM_MAX = 1024

# Most points of a finite space.  Validating the space checks every triangle,
# O(N^3) work, one row at a time in numpy: at N=256, 17 to 44 ms on a shared
# 2-vCPU Xeon VM, and the N-by-N matrix is 64k entries of an instance file.
FINITE_POINTS_MAX = 256

# Fewest distances one call must ask for before Euclidean distances come from
# the numpy kernel ``_norms`` rather than one ``math.dist`` call each.  The
# kernel costs about 40 us a call at any size.  Per plane call (2-vCPU Xeon
# VM), kernel against math.dist: pairwise 4x4 39 vs 3 us, 20x20 48 vs 31 us,
# 32x32 63 vs 70 us, 64x64 126 vs 251 us; a square of 45 points (990
# distances) 84 vs 98 us; pair_distances of 1,128 pairs 69 vs 100 us.  So
# the break-even is near 1,000 distances, above every matrix ``verify``
# builds (at most 66) and the m=20 runs of the exact optimum (190).
VECTOR_DISTANCES_MIN = 1024

# Doubles of scratch per block of the numpy kernel: each pair of a block takes
# one per coordinate and 12 more, so a block stays about 1 MB, in cache, at
# any dimension.  A plane pairwise of 1,000 by 1,000 points (2-vCPU Xeon VM)
# took 21 ms at this size, 26 ms at half of it and 20 ms at 1.5 times, and
# 55 ms through math.dist.
_BLOCK_CELLS = 131072

# 2**27 + 1: x * _SPLITTER splits a double into halves whose products are
# exact (Veltkamp), and the smallest normal double; both as in CPython.
_SPLITTER = 134217729.0
_DBL_MIN = sys.float_info.min


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
    violating entry or triple: entries in row order, then triples (i, j, k)
    with d(i,k) > d(i,j) + d(j,k) in lexicographic order.  Entries are
    compared as doubles.  Raises ValueError on a non-square input.
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
    if n < 3:
        return None
    d = np.array(matrix, dtype=float)
    for i in range(n):
        # bad[j, k]: the triangle i-j-k fails, d(i,k) > d(i,j) + d(j,k).  With
        # a zero diagonal and positive entries, j or k equal to i, or k equal
        # to j, cannot fail, so no mask is needed.
        bad = d[i, None, :] > d[i, :, None] + d
        if bad.any():
            j, k = divmod(int(np.argmax(bad)), n)
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
        if not 1 <= dim <= EUCLIDEAN_DIM_MAX:
            raise ValueError(
                f"euclidean dimension must be from 1 to {EUCLIDEAN_DIM_MAX}, got {dim}"
            )
        return cls(kind=EUCLIDEAN, dim=dim)

    @classmethod
    def finite(cls, points, matrix) -> MetricSpace:
        if len(points) > FINITE_POINTS_MAX:
            raise ValueError(
                f"a finite metric takes at most {FINITE_POINTS_MAX} points, got {len(points)}"
            )
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


def _split(x, t, hi, lo) -> None:
    """hi + lo = x exactly, with halves short enough that their products are exact."""
    np.multiply(x, _SPLITTER, out=t)
    np.subtract(t, x, out=hi)
    np.subtract(t, hi, out=hi)
    np.subtract(x, hi, out=lo)


def _fast_sum(csum, spare, term, frac):
    """Put csum + term in spare and add its rounding error to frac.

    The error is (csum - sum) + term, exact when |csum| >= |term|.  Returns
    (sum, old csum's array), so the caller swaps the two names.
    """
    np.add(csum, term, out=spare)
    np.subtract(csum, spare, out=csum)
    csum += term
    frac += csum
    return spare, csum


def _norms(v: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out[k] = math.hypot(*v[:, k]) bit for bit, for v >= 0 of shape (dim, K).

    A transcription of ``vector_norm`` in CPython's Modules/mathmodule.c,
    which ``math.hypot`` and ``math.dist`` share (its results are the same
    bits on CPython 3.10 to 3.13), one IEEE operation at a time over arrays:
    scale by the power of two 2**-e that puts the largest entry in [0.5, 1),
    add the squares as a double-length sum with three compensation terms,
    take the square root and correct it once.  A zero or infinite largest
    entry is the norm, as in C; a subnormal one, which C rescales first,
    goes through ``math.hypot``.  ``work`` is (11, K) or wider scratch; v is
    left as it was.  Run under ``np.errstate`` with every warning ignored:
    the lanes that take the early exits divide by zero or overflow before
    they are overwritten.
    """
    if len(v) == 1:
        np.copyto(out, v[0])
        return
    n = v.shape[1]
    mx, scale, csum, spare, f1, f2, f3, x, t, hi, lo = work[:11, :n]
    np.max(v, axis=0, out=mx)
    np.ldexp(1.0, -np.frexp(mx)[1], out=scale)
    csum.fill(1.0)
    f1.fill(0.0)
    f2.fill(0.0)
    f3.fill(0.0)
    for row in v:
        np.multiply(row, scale, out=x)
        _split(x, t, hi, lo)
        np.multiply(hi, hi, out=x)
        csum, spare = _fast_sum(csum, spare, x, f1)
        np.multiply(hi, 2.0, out=x)
        x *= lo
        csum, spare = _fast_sum(csum, spare, x, f2)
        np.multiply(lo, lo, out=x)
        f3 += x
    # h = sqrt(csum - 1.0 + (frac1 + frac2 + frac3))
    h = out
    np.add(f1, f2, out=h)
    h += f3
    np.subtract(csum, 1.0, out=x)
    h += x
    np.sqrt(h, out=h)
    _split(h, t, hi, lo)
    np.negative(hi, out=x)
    x *= hi
    csum, spare = _fast_sum(csum, spare, x, f1)
    np.multiply(hi, -2.0, out=x)
    x *= lo
    csum, spare = _fast_sum(csum, spare, x, f2)
    np.negative(lo, out=x)
    x *= lo
    csum, spare = _fast_sum(csum, spare, x, f3)
    # x = csum - 1.0 + (frac1 + frac2 + frac3); return (h + x / (2.0 * h)) / scale
    f1 += f2
    f1 += f3
    csum -= 1.0
    csum += f1
    np.multiply(h, 2.0, out=x)
    np.divide(csum, x, out=x)
    h += x
    h /= scale
    normal = (mx >= _DBL_MIN) & (mx < math.inf)
    if not normal.all():
        np.copyto(out, mx, where=~normal)
        for k in np.flatnonzero(~normal & (mx > 0.0) & (mx < math.inf)).tolist():
            out[k] = math.hypot(*v[:, k].tolist())


def _coordinates(points, dim: int) -> np.ndarray:
    """Euclidean points as a (dim, n) array: one contiguous row per coordinate."""
    return np.ascontiguousarray(np.array(points, dtype=float).reshape(len(points), dim).T)


def _euclidean_grid(dim: int, a, b, square: bool) -> np.ndarray:
    """``math.dist`` from every point of a to every one of b, through ``_norms``.

    Works through blocks of rows by columns of the output, each filled with
    broadcast differences; a square grid computes the blocks that reach the
    diagonal or above it and mirrors them, since math.dist is symmetric bit
    for bit.
    """
    xa = _coordinates(a, dim)
    xb = xa if square else _coordinates(b, dim)
    rows_a, rows_b = len(a), len(b)
    per_block = max(1, _BLOCK_CELLS // (dim + 12))
    cols = max(1, min(rows_b, per_block))
    rows = max(1, per_block // cols)
    v = np.empty((dim, rows * cols))
    work = np.empty((12, rows * cols))
    out = np.empty((rows_a, rows_b))
    with np.errstate(all="ignore"):
        for r0 in range(0, rows_a, rows):
            r1 = min(r0 + rows, rows_a)
            for c0 in range(r0 if square else 0, rows_b, cols):
                c1 = min(c0 + cols, rows_b)
                shape = (r1 - r0, c1 - c0)
                n = shape[0] * shape[1]
                for c in range(dim):
                    diff = v[c, :n].reshape(shape)
                    np.subtract(xa[c, r0:r1, None], xb[c, None, c0:c1], out=diff)
                block = v[:, :n]
                np.abs(block, out=block)
                _norms(block, work[11, :n], work)
                out[r0:r1, c0:c1] = work[11, :n].reshape(shape)
                if square:
                    out[c0:c1, r0:r1] = out[r0:r1, c0:c1].T
    return out


def _euclidean_pairs(dim: int, points, i, j) -> np.ndarray:
    """``math.dist(points[i[k]], points[j[k]])`` for every k, through ``_norms``."""
    x = _coordinates(points, dim)
    step = max(1, _BLOCK_CELLS // (dim + 12))
    v = np.empty((dim, step))
    work = np.empty((11, step))
    out = np.empty(len(i))
    with np.errstate(all="ignore"):
        for s in range(0, len(i), step):
            e = min(s + step, len(i))
            # Fancy indexing is several times faster with intp indices.
            i_block, j_block = i[s:e].astype(np.intp), j[s:e].astype(np.intp)
            for c, row in enumerate(x):
                np.subtract(row[i_block], row[j_block], out=v[c, : e - s])
            block = v[:, : e - s]
            np.abs(block, out=block)
            _norms(block, out[s:e], work)
    return out


def _finite_rows(space: MetricSpace, points) -> list[int]:
    index = space.positions
    try:
        return [index[p] for p in points]
    except KeyError as exc:
        raise ValueError(f"unknown point name {exc.args[0]!r}") from None


def pairwise(space: MetricSpace, a, b=None) -> np.ndarray:
    """Matrix of spatial distances from every point in a to every one in b.

    a and b are sequences of points of the space.  Entry [i, j] equals
    ``distance(space, a[i], b[j])`` bit for bit.  Without b the matrix is the
    symmetric one of a against itself.  Euclidean entries come from
    ``math.dist`` itself, or from ``_norms`` once a call asks for
    ``VECTOR_DISTANCES_MIN`` distances or more.
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
        wanted = len(a) * (len(a) - 1) // 2 if square else len(a) * len(b)
        if wanted >= VECTOR_DISTANCES_MIN:
            return _euclidean_grid(space.dim, a, b, square)
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
        rows = _finite_rows(space, a)
        cols = rows if square else _finite_rows(space, b)
        return np.array(space.matrix)[np.ix_(rows, cols)]
    raise ValueError(f"unknown metric kind {space.kind!r}")


def pair_distances(space: MetricSpace, points, i, j) -> np.ndarray:
    """Spatial distance from points[i[k]] to points[j[k]], for every k.

    points is a sequence of points of the space; i and j are integer arrays
    of one length, indexing it.  Entry k equals ``distance(space,
    points[i[k]], points[j[k]])`` bit for bit, like ``pairwise``, and uses
    ``_norms`` on as many Euclidean pairs as ``pairwise`` does, but no
    matrix: the work and memory follow the pairs asked for.
    """
    if space.kind == LINE:
        x = np.array(points, dtype=float)
        out = x[i] - x[j]
        return np.abs(out, out=out)
    if space.kind == EUCLIDEAN:
        if len(i) >= VECTOR_DISTANCES_MIN:
            return _euclidean_pairs(space.dim, points, i, j)
        left = [points[k] for k in i.tolist()]
        right = [points[k] for k in j.tolist()]
        return np.array(list(map(math.dist, left, right)), dtype=float)
    if space.kind == FINITE:
        rows = np.array(_finite_rows(space, points), dtype=np.intp)
        return np.array(space.matrix)[rows[i], rows[j]]
    raise ValueError(f"unknown metric kind {space.kind!r}")


def augmented_distance(space: MetricSpace, p: TimedPoint, q: TimedPoint) -> float:
    """Time-augmented distance: spatial distance plus absolute time difference."""
    return distance(space, p.location, q.location) + abs(p.time - q.time)
