"""Adversarial instance families, random instances, and the file format.

Two hand-crafted families are provided.  The single-point cascade
(``gen_lower_bound``) puts all requests at one location with arrival times
laid out recursively: a level-1 block is two requests one time unit apart,
and a level-j block is two level-(j-1) blocks separated by a gap from the
mutual recurrence a_i = b_i / (1 + eps), b_i = 2 b_{i-1} + a_{i-1}, b_1 = 1.
Exactly at those gaps the hemisphere policy faces firing-time ties; the
generator shrinks every gap by (1 - eta) so the cascade of inner matches
fires strictly first and the adversarial outcome is deterministic.

The two-point row family (``gen_two_point_rows``) places two identical
request rows at locations distance 2 + delta apart, with intra-row gaps
alternating 1, delta, ..., 1.  Space-only sphere policies pay a unit delay
per row pair while a cheap matching exists, so their cost ratio grows
linearly with the number of requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from mpmd.engine import REQUEST_COUNT_MAX, Instance, Request
from mpmd.metric import (
    EUCLIDEAN,
    FINITE,
    FINITE_POINTS_MAX,
    LINE,
    MetricSpace,
    TimedPoint,
    is_finite_real,
    require_int,
    require_positive,
    value_repr,
)

ETA_MAX = 1e-3
DEFAULT_ETA = 1e-6
# Largest cascade level k: the cascade has m = 2**k requests, and an instance
# at most REQUEST_COUNT_MAX.  The generators check their counts before they
# build a request list, so a huge m fails at once.
LOWER_BOUND_K_MAX = 13
# Largest index of the gap recurrence: b_i >= 2**(i-1), which is inf as a
# double beyond it at every epsilon.
RECURRENCE_INDEX_MAX = 1024


@dataclass(frozen=True)
class LowerBoundParams:
    """Parameters of the single-point cascade: m = 2**k requests."""

    k: int
    epsilon: float
    eta: float = DEFAULT_ETA

    def __post_init__(self) -> None:
        require_int("k", self.k, 1, LOWER_BOUND_K_MAX)
        require_positive("epsilon", self.epsilon)
        if not (is_finite_real(self.eta) and 0 <= self.eta < ETA_MAX):
            raise ValueError(f"eta must lie in [0, {ETA_MAX}), got {value_repr(self.eta)}")


@dataclass(frozen=True)
class TwoPointRowsParams:
    """Parameters of the two-point row family: m requests, m divisible by 4."""

    m: int
    delta: float

    def __post_init__(self) -> None:
        require_int("m", self.m, 8, REQUEST_COUNT_MAX, step=4)
        require_positive("delta", self.delta)


def recurrence_ab(i: int, epsilon: float) -> tuple[float, float]:
    """(a_i, b_i) of the mutual gap recurrence, evaluated iteratively.

    Agrees with the closed form a_i = (2 + 1/(1+eps))**i / (2 eps + 3),
    b_i = (2 + 1/(1+eps))**(i-1).  The index i is an int from 1 to
    ``RECURRENCE_INDEX_MAX``; a value too large for a double is inf.
    """
    require_int("index", i, 1, RECURRENCE_INDEX_MAX)
    require_positive("epsilon", epsilon)
    b = 1.0
    a = b / (1.0 + epsilon)
    for _ in range(i - 1):
        b = 2.0 * b + a
        a = b / (1.0 + epsilon)
    return a, b


def recurrence_ab_closed_form(i: int, epsilon: float) -> tuple[float, float]:
    """Closed-form (a_i, b_i); cross-check for the iterative recurrence, over
    the same arguments.  A power that overflows a double is inf."""
    require_int("index", i, 1, RECURRENCE_INDEX_MAX)
    require_positive("epsilon", epsilon)
    base = 2.0 + 1.0 / (1.0 + epsilon)
    b = _power(base, i - 1)
    return b * (base / (2.0 * epsilon + 3.0)), b


def _power(base: float, n: int) -> float:
    """base**n, or inf where a float's ** raises OverflowError."""
    try:
        return base**n
    except OverflowError:
        return math.inf


_CASCADE_POINT = "p0"


def gen_lower_bound(params: LowerBoundParams, *, bipartite: bool = False) -> Instance:
    """Single-point cascade instance with m = 2**k requests, ids 1..m in time order.

    With ``bipartite=True`` colors alternate in time order, which keeps every
    adversarial pair color-crossing.
    """
    times = [0.0, 1.0]
    for j in range(1, params.k):
        offset = times[-1] + recurrence_ab(j, params.epsilon)[0] * (1.0 - params.eta)
        times.extend([t + offset for t in times])
    space = MetricSpace.finite([_CASCADE_POINT], [[0.0]])
    requests = tuple(
        Request(
            id=i + 1,
            point=TimedPoint(_CASCADE_POINT, t),
            color=i % 2 if bipartite else None,
        )
        for i, t in enumerate(times)
    )
    return Instance(space=space, requests=requests, bipartite=bipartite)


def expected_lower_bound_result(
    params: LowerBoundParams,
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Expected hemisphere pair list and its offline weight.

    For eta > 0 the policy pairs requests (2,3), (4,5), ..., (m-2,m-1) and
    finally (1,m).  Unperturbed, (1,m) spans b_k and the other pairs are
    2**i gaps of size a_{k-1-i} for each i = 0..k-2, of total G; eta
    shortens each gap by eta times its size and the span by eta G, so the
    weight is b_k + (1 - 2 eta) G.  At eta = 0 the firing times tie and the
    smallest-id rule pairs (1,2), (3,4), ..., the optimum of weight m/2.
    """
    m = 2**params.k
    if params.eta == 0.0:
        return tuple((i, i + 1) for i in range(1, m, 2)), m / 2
    pairs = [(1, m)] + [(i, i + 1) for i in range(2, m - 1, 2)]
    _, b_k = recurrence_ab(params.k, params.epsilon)
    gaps = sum(
        (2**i) * recurrence_ab(params.k - 1 - i, params.epsilon)[0] for i in range(params.k - 1)
    )
    return tuple(sorted(pairs)), b_k + (1.0 - 2.0 * params.eta) * gaps


_ROW_POINTS = ("A", "B")


def gen_two_point_rows(params: TwoPointRowsParams) -> Instance:
    """Two identical request rows at locations distance 2 + delta apart.

    Each row holds m/2 requests starting at time 0 with gaps alternating
    1, delta, 1, ..., 1.  Row A takes ids 1..m/2 in time order, row B takes
    m/2 + 1..m, so per-row neighbours have consecutive ids.
    """
    half = params.m // 2
    times = [0.0]
    for g in range(half - 1):
        times.append(times[-1] + (1.0 if g % 2 == 0 else params.delta))
    d = 2.0 + params.delta
    space = MetricSpace.finite(_ROW_POINTS, [[0.0, d], [d, 0.0]])
    requests = tuple(
        Request(id=row * half + i + 1, point=TimedPoint(name, t))
        for row, name in enumerate(_ROW_POINTS)
        for i, t in enumerate(times)
    )
    return Instance(space=space, requests=requests, bipartite=False)


def gen_random(
    m: int,
    seed: int,
    *,
    metric: str = LINE,
    dim: int = 2,
    n_points: int = 4,
    horizon: float = 10.0,
    bipartite: bool = False,
) -> Instance:
    """Seeded random instance: locations uniform in the space, times in the horizon.

    Line and Euclidean locations are drawn uniformly from [0, horizon] per
    coordinate; finite spaces tabulate the pairwise distances of n_points
    random plane points and draw request locations among them.  Bipartite
    instances receive a balanced, seeded shuffle of colors.  The result is a
    pure function of the arguments.
    """
    require_int("m", m, 0, REQUEST_COUNT_MAX, step=2)
    require_positive("horizon", horizon)
    rng = random.Random(seed)
    if metric == LINE:
        space = MetricSpace.line()
        draw = lambda: rng.uniform(0.0, horizon)
    elif metric == EUCLIDEAN:
        space = MetricSpace.euclidean(dim)
        draw = lambda: tuple(rng.uniform(0.0, horizon) for _ in range(dim))
    elif metric == FINITE:
        # Checked before the n_points-squared matrix is built.
        require_int("n_points", n_points, 2, FINITE_POINTS_MAX)
        anchors = [
            (rng.uniform(0.0, horizon), rng.uniform(0.0, horizon))
            for _ in range(n_points)
        ]
        names = [f"p{i}" for i in range(n_points)]
        matrix = [
            [math.dist(anchors[i], anchors[j]) for j in range(n_points)]
            for i in range(n_points)
        ]
        space = MetricSpace.finite(names, matrix)
        draw = lambda: names[rng.randrange(n_points)]
    else:
        raise ValueError(f"unknown metric kind {metric!r}")

    samples = sorted(
        ((rng.uniform(0.0, horizon), draw()) for _ in range(m)), key=lambda s: s[0]
    )
    colors: list[int | None] = [None] * m
    if bipartite:
        colors = [0] * (m // 2) + [1] * (m // 2)
        rng.shuffle(colors)
    requests = tuple(
        Request(id=i + 1, point=TimedPoint(loc, t), color=colors[i])
        for i, (t, loc) in enumerate(samples)
    )
    return Instance(space=space, requests=requests, bipartite=bipartite)


class InstanceFormatError(ValueError):
    """Raised when an instance file fails structural validation."""


def _metric_to_dict(space: MetricSpace) -> dict:
    if space.kind == LINE:
        return {"kind": "line"}
    if space.kind == EUCLIDEAN:
        return {"kind": "euclidean", "dim": space.dim}
    return {
        "kind": "finite",
        "points": list(space.points),
        "matrix": [list(row) for row in space.matrix],
    }


def instance_to_dict(instance: Instance) -> dict:
    """JSON-ready dictionary in the on-disk format, requests in arrival order."""
    requests = []
    for r in instance.requests:
        loc = r.location
        entry = {
            "id": r.id,
            "t": r.time,
            "loc": list(loc) if isinstance(loc, tuple) else loc,
        }
        if instance.bipartite:
            entry["color"] = r.color
        requests.append(entry)
    return {
        "metric": _metric_to_dict(instance.space),
        "bipartite": instance.bipartite,
        "requests": requests,
    }


def _parse_metric(data, context: str) -> MetricSpace:
    if not isinstance(data, dict) or "kind" not in data:
        raise InstanceFormatError(f"{context}: expected an object with a 'kind' field")
    kind = data["kind"]
    if kind == "line":
        return MetricSpace.line()
    if kind == "euclidean":
        try:
            return MetricSpace.euclidean(data.get("dim"))
        except ValueError as exc:
            raise InstanceFormatError(f"{context}.dim: {exc}") from None
    if kind == "finite":
        points = data.get("points")
        matrix = data.get("matrix")
        if not isinstance(points, list) or not points:
            raise InstanceFormatError(f"{context}.points: expected a non-empty list")
        if not isinstance(matrix, list):
            raise InstanceFormatError(f"{context}.matrix: expected a square array")
        try:
            return MetricSpace.finite(points, matrix)
        except ValueError as exc:
            raise InstanceFormatError(f"{context}: {exc}") from None
    raise InstanceFormatError(f"{context}.kind: unknown metric kind {kind!r}")


def _number(value, field: str) -> float:
    """The JSON number as a float; a value that is not a finite number (null,
    a bool, a string, NaN, an infinity, or an integer beyond the double
    range, on which ``float`` would raise) is refused with the field named.
    Such an integer is named by its type: ``repr`` raises on one of more
    than 4,300 digits."""
    if not is_finite_real(value):
        shown = "an int beyond the double range" if type(value) is int else repr(value)
        raise InstanceFormatError(f"{field}: expected a finite number, got {shown}")
    return float(value)


def instance_from_dict(data: dict) -> Instance:
    """Convert the on-disk dictionary form of an instance into an ``Instance``.

    The reader checks the JSON shape: the top level is an object, the metric
    is well formed, ``bipartite`` is a bool, ``requests`` a list of objects,
    and each ``t``, line ``loc`` and coordinate a finite number, which it
    converts to a float.  ``Instance`` then checks the values: ids, points
    of the space, colors, count and balance.  Either
    failure raises InstanceFormatError naming the field, as ``requests[k].t``.
    """
    if not isinstance(data, dict):
        raise InstanceFormatError("top level: expected a JSON object")
    space = _parse_metric(data.get("metric"), "metric")
    bipartite = data.get("bipartite")
    if not isinstance(bipartite, bool):
        raise InstanceFormatError("bipartite: expected true or false")
    raw_requests = data.get("requests")
    if not isinstance(raw_requests, list):
        raise InstanceFormatError("requests: expected a list")

    requests = []
    for idx, entry in enumerate(raw_requests):
        context = f"requests[{idx}]"
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"{context}: expected an object")
        t = _number(entry.get("t"), f"{context}.t")
        loc = entry.get("loc")
        if isinstance(loc, list):
            loc = tuple(_number(x, f"{context}.loc[{j}]") for j, x in enumerate(loc))
        elif not isinstance(loc, str):
            loc = _number(loc, f"{context}.loc")
        requests.append(Request(entry.get("id"), TimedPoint(loc, t), entry.get("color")))

    try:
        return Instance(space=space, requests=tuple(requests), bipartite=bipartite)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def save_instance(instance: Instance, path) -> None:
    """Write the instance as UTF-8 JSON in the documented format."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(instance), handle, indent=2)
        handle.write("\n")


def load_instance(path) -> Instance:
    """Read and validate an instance file; errors carry field context."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or an int json cannot convert
            raise InstanceFormatError(f"{path}: malformed JSON: {exc}") from None
    try:
        return instance_from_dict(data)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def instance_digest(instance: Instance) -> str:
    """Short stable hash of the canonical serialization, for report headers."""
    canonical = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
