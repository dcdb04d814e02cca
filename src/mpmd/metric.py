"""Metric spaces and the time-augmented distance.

Three kinds of space are supported: the real line, d-dimensional Euclidean
space, and explicit finite metrics given by a distance matrix.  Points carry
an arrival time alongside their location; the time-augmented distance adds
the absolute time difference to the spatial distance and is itself a metric.

All values are finite double-precision reals and comparisons here are exact;
any tolerance handling belongs to the simulation layer, where events are
ordered.  Each space's scalar formula lives in ``distance_kernel``, which
trusts its points; ``distance`` validates them first.  ``pair_distances``,
the one array path, takes many distances at once for index arrays that
broadcast together, in blocks of rows that stay in cache, and agrees with
``distance`` bit for bit.  A list of pairs is two index lists; a table of
every row against every column, as the oracle builds its matrices, is a
column of row indices against a row of column indices, with no index grid.
A finite space's block gathers matrix entries; the line's and Euclidean
space's take coordinate differences.

The Euclidean formula is ``math.dist``.  numpy's square root of a sum of
squares, and ``np.hypot``, differ from it in the last bit on some pairs, so
every line and Euclidean call of ``pair_distances``, whatever its size,
takes the norms of its blocks of differences with ``_norms``: CPython's own
algorithm (``vector_norm`` in Modules/mathmodule.c), transcribed one IEEE
operation at a time onto arrays, which in one dimension, the line's, is the
absolute value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
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

# Doubles of scratch per block of ``pair_distances``: one per coordinate and
# 12 more per pair, about 1 MB, in cache, at any dimension.  A 1,000-by-1,000
# table, a column of row indices against a row of column indices (shared
# 2-vCPU Xeon VM, median of nine interleaved calls), took, at this size, half
# of it and 1.5 times: line 3.6, 3.7 and 2.5 ms; finite:4 4.4, 4.8 and 4.2 ms;
# plane 42, 53 and 49 ms, and 138 ms through math.dist.
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

    Use the factory classmethods, which check their arguments.  The plain
    constructor checks only the kind, line, euclidean or finite, so that the
    functions below need not.  Instances are immutable and safe to share
    between concurrent contexts.
    """

    kind: str
    dim: int = 1
    points: tuple[str, ...] = ()
    matrix: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (LINE, EUCLIDEAN, FINITE):
            raise ValueError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def line(cls) -> MetricSpace:
        return cls(kind=LINE)

    @classmethod
    def euclidean(cls, dim: int) -> MetricSpace:
        require_int("dim", dim, 1, EUCLIDEAN_DIM_MAX)
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
        for i, row in enumerate(matrix):
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"matrix[{i}] must be a list of numbers, got {row!r}")
            for j, x in enumerate(row):
                if not is_finite_real(x):
                    raise ValueError(
                        f"matrix[{i}][{j}] must be a finite number, got {value_repr(x)}"
                    )
        rows = tuple(tuple(map(float, row)) for row in matrix)
        violation = validate_metric(rows)
        if violation is not None:
            raise ValueError(f"invalid finite metric: {violation}")
        return cls(kind=FINITE, points=names, matrix=rows)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Position of each named point of a finite space, by name."""
        return {name: k for k, name in enumerate(self.points)}

    @cached_property
    def distances(self) -> np.ndarray:
        """The finite space's distance matrix as a read-only float array."""
        out = np.array(self.matrix, dtype=float)
        out.flags.writeable = False
        return out


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


def value_repr(value) -> str:
    """repr(value), or for an int too long for ``repr`` (by default one of
    more than 4,300 digits), its size: "an int of N bits"."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"an int of {value.bit_length():,} bits"


def require_positive(name: str, value) -> None:
    """Refuse a value that is not a finite real > 0, naming the parameter:
    "epsilon must be finite and strictly positive, got 0.0"."""
    if not (is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be finite and strictly positive, got {value_repr(value)}")


def require_int(name: str, value, low: int, high: int | None = None, step: int = 1) -> None:
    """Refuse a value that is not an int (a bool is not one) from low to
    high, or from low up when high is None, that is a multiple of step,
    naming the parameter: "m must be an even integer from 2 to 8192, got 3",
    "m must be an integer from 8 to 8192 and a multiple of 4, got 6"."""
    if type(value) is not int or value < low or (high is not None and value > high) or value % step:
        even = "even " if step == 2 else ""
        bounds = f">= {low}" if high is None else f"from {low} to {high}"
        multiple = f" and a multiple of {step}" if step > 2 else ""
        raise ValueError(
            f"{name} must be an {even}integer {bounds}{multiple}, got {value_repr(value)}"
        )


def validate_point(space: MetricSpace, p: Point) -> None:
    """Raise ValueError when p is not a valid point of the given space."""
    if space.kind == LINE:
        if not is_finite_real(p):
            raise ValueError(f"line point must be a finite real number, got {value_repr(p)}")
    elif space.kind == EUCLIDEAN:
        if not isinstance(p, (tuple, list)) or len(p) != space.dim:
            got = len(p) if isinstance(p, (tuple, list)) else value_repr(p)
            raise ValueError(f"euclidean point must have {space.dim} coordinates, got {got}")
        for k, x in enumerate(p):
            if not is_finite_real(x):
                raise ValueError(
                    "euclidean coordinates must be finite real numbers, "
                    f"got {value_repr(x)} as coordinate {k}"
                )
    elif p not in space.points:
        raise ValueError(f"unknown point name {value_repr(p)}")


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
    positions, matrix = space.positions, space.matrix
    return lambda a, b: matrix[positions[a]][positions[b]]


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


def _norms(v: np.ndarray, out: np.ndarray, work: np.ndarray | None) -> None:
    """out[k] = math.hypot(*v[:, k]) bit for bit, for v >= 0 of shape (dim, K).

    A transcription of ``vector_norm`` in CPython's Modules/mathmodule.c,
    which ``math.hypot`` and ``math.dist`` share (its results are the same
    bits on CPython 3.10 to 3.13), one IEEE operation at a time over arrays:
    scale by the power of two 2**-e that puts the largest entry in [0.5, 1),
    add the squares as a double-length sum with three compensation terms,
    take the square root and correct it once.  A zero or infinite largest
    entry is the norm, as in C; a subnormal one, which C rescales first,
    goes through ``math.hypot``.  ``work`` is (11, K) or wider scratch, and
    may be None when dim is 1, where the norm is v itself; v is left as it
    was.  Run under ``np.errstate`` with every warning ignored:
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


def _finite_rows(space: MetricSpace, points) -> list[int]:
    index = space.positions
    try:
        return [index[p] for p in points]
    except KeyError as exc:
        raise ValueError(f"unknown point name {exc.args[0]!r}") from None


def block_rows(space: MetricSpace, row_len: int) -> int:
    """How many rows of row_len entries one block of ``pair_distances``
    takes: ``_BLOCK_CELLS // (dim + 12)`` entries or fewer, and at least one
    row."""
    return max(1, _BLOCK_CELLS // (space.dim + 12) // max(row_len, 1))


def _rows(a: np.ndarray, n: int, s: int, e: int) -> np.ndarray:
    """Rows s to e-1 of an index array whose leading axis is n long or
    broadcasts, as intp."""
    # Fancy indexing is several times faster with intp indices.
    return (a[s:e] if len(a) == n else a).astype(np.intp)


def pair_distances(space: MetricSpace, points, i, j) -> np.ndarray:
    """Spatial distance from points[i[k]] to points[j[k]], for every index k.

    points is a sequence of points of the space; i and j are integer arrays
    indexing it that broadcast together, and the result has their broadcast
    shape: two index lists of one length give a list of pair distances, and
    an (R, 1) column of row indices against a (1, C) row of column indices
    an R-by-C table.  Every entry equals ``distance(space, points[a],
    points[b])`` bit for bit.  The leading rows go in blocks of
    ``block_rows``, each converting its own indices to intp and gathering
    an index array that broadcasts along them once: a finite space gathers
    matrix entries, and the line (dim 1) and Euclidean space, at every size,
    take ``_norms`` of the absolute coordinate differences, under
    ``np.errstate`` since a difference may overflow.  Scratch is allocated
    only where it is used, as most calls are small.
    """
    i, j = np.asarray(i), np.asarray(j)
    shape = np.broadcast(i, j).shape
    if i.ndim != j.ndim or not shape:
        # Blocks are slices of leading rows: both get the result's number of
        # axes, and at least one, by length-1 axes in front.
        ndim = max(len(shape), 1)
        i, j = (a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in (i, j))
    n, row = (shape[0] if shape else 1), math.prod(shape[1:])
    step = max(1, min(n, block_rows(space, row)))
    if space.kind == FINITE:
        rows = np.array(_finite_rows(space, points), dtype=np.intp)
        out = np.empty(n * row)
        for s in range(0, n, step):
            e = min(s + step, n)
            block = space.distances[rows[_rows(i, n, s, e)], rows[_rows(j, n, s, e)]]
            out[s * row : e * row] = block.reshape(-1)
        return out.reshape(shape)
    # One contiguous row per coordinate, and the scratch in the result's shape.
    x = np.ascontiguousarray(np.array(points, dtype=float).reshape(len(points), space.dim).T)
    v = np.empty((space.dim, step) + shape[1:])
    work = np.empty((11, step * row)) if space.dim > 1 else None
    # Allocated after the scratch: allocated before it, the 1000-by-1000 plane
    # table of the benchmark's exact workload raised its peak RSS by 6 MB.
    out = np.empty(n * row)
    with np.errstate(all="ignore"):
        for s in range(0, n, step):
            e = min(s + step, n)
            i_block, j_block = _rows(i, n, s, e), _rows(j, n, s, e)
            block = v[:, : e - s]
            for c, coordinate in enumerate(x):
                np.subtract(coordinate[i_block], coordinate[j_block], out=block[c])
            np.abs(block, out=block)
            _norms(block.reshape(space.dim, -1), out[s * row : e * row], work)
    return out.reshape(shape)


def augmented_distance(space: MetricSpace, p: TimedPoint, q: TimedPoint) -> float:
    """Time-augmented distance: spatial distance plus absolute time difference."""
    return distance(space, p.location, q.location) + abs(p.time - q.time)
