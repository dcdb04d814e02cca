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

from mpmd.engine import Instance, Request
from mpmd.metric import (
    EUCLIDEAN,
    FINITE,
    FINITE_POINTS_MAX,
    LINE,
    MetricSpace,
    TimedPoint,
    is_finite_real,
    validate_point,
)

ETA_MAX = 1e-3
DEFAULT_ETA = 1e-6
# Largest cascade level k.  The cascade has m = 2**k requests, and a run over
# it holds O(m^2) memory: with the hemisphere policy m=4096 peaked at about
# 400 MB and m=8192 extrapolates to about 1.5 GB, so k=14 would need about
# 6 GB, near the whole of a 7 GB machine.
LOWER_BOUND_K_MAX = 13
# Largest request count of a two-point row or random instance, the size of
# the largest cascade, for the same O(m^2) reason.
REQUEST_COUNT_MAX = 2**LOWER_BOUND_K_MAX


@dataclass(frozen=True)
class LowerBoundParams:
    """Parameters of the single-point cascade: m = 2**k requests."""

    k: int
    epsilon: float
    eta: float = DEFAULT_ETA

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > LOWER_BOUND_K_MAX:
            raise ValueError(
                f"k must be at most {LOWER_BOUND_K_MAX} "
                f"(2**{LOWER_BOUND_K_MAX} = {2**LOWER_BOUND_K_MAX} requests), "
                f"got k={self.k}, which asks for 2**{self.k} requests"
            )
        if not (is_finite_real(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and strictly positive, got {self.epsilon}")
        if not 0 <= self.eta < ETA_MAX:
            raise ValueError(f"eta must lie in [0, {ETA_MAX}), got {self.eta}")


def _check_request_count(m: int) -> None:
    if m > REQUEST_COUNT_MAX:
        raise ValueError(
            f"m must be at most {REQUEST_COUNT_MAX} requests, got m={m}"
        )


@dataclass(frozen=True)
class TwoPointRowsParams:
    """Parameters of the two-point row family: m requests, m divisible by 4."""

    m: int
    delta: float

    def __post_init__(self) -> None:
        if self.m < 8:
            raise ValueError(f"m must be >= 8, got {self.m}")
        _check_request_count(self.m)
        if self.m % 4 != 0:
            raise ValueError(f"m must be a multiple of 4, got {self.m}")
        if not (is_finite_real(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and strictly positive, got {self.delta}")


def recurrence_ab(i: int, epsilon: float) -> tuple[float, float]:
    """(a_i, b_i) of the mutual gap recurrence, evaluated iteratively.

    Agrees with the closed form a_i = (2 + 1/(1+eps))**i / (2 eps + 3),
    b_i = (2 + 1/(1+eps))**(i-1).
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    if not (is_finite_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and strictly positive, got {epsilon}")
    b = 1.0
    a = b / (1.0 + epsilon)
    for _ in range(i - 1):
        b = 2.0 * b + a
        a = b / (1.0 + epsilon)
    return a, b


def recurrence_ab_closed_form(i: int, epsilon: float) -> tuple[float, float]:
    """Closed-form (a_i, b_i); cross-check for the iterative recurrence."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    base = 2.0 + 1.0 / (1.0 + epsilon)
    return base**i / (2.0 * epsilon + 3.0), base ** (i - 1)


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
    if m % 2 != 0:
        raise ValueError("request count must be even")
    if m < 0:
        raise ValueError(f"request count must be non-negative, got {m}")
    _check_request_count(m)
    if not (is_finite_real(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    rng = random.Random(seed)
    if metric == LINE:
        space = MetricSpace.line()
        draw = lambda: rng.uniform(0.0, horizon)
    elif metric == EUCLIDEAN:
        space = MetricSpace.euclidean(dim)
        draw = lambda: tuple(rng.uniform(0.0, horizon) for _ in range(dim))
    elif metric == FINITE:
        # Checked before the n_points-squared matrix is built.
        if not 2 <= n_points <= FINITE_POINTS_MAX:
            raise ValueError(
                f"finite metric needs 2 to {FINITE_POINTS_MAX} points, got {n_points}"
            )
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
        dim = data.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InstanceFormatError(f"{context}.dim: expected a positive integer")
        try:
            return MetricSpace.euclidean(dim)
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


def instance_from_dict(data: dict) -> Instance:
    """Parse and validate the on-disk dictionary form of an instance."""
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
    seen_ids: set[int] = set()
    for idx, entry in enumerate(raw_requests):
        context = f"requests[{idx}]"
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"{context}: expected an object")
        rid = entry.get("id")
        if not isinstance(rid, int) or isinstance(rid, bool) or rid < 0:
            raise InstanceFormatError(f"{context}.id: expected a non-negative integer")
        if rid in seen_ids:
            raise InstanceFormatError(f"{context}.id: duplicate id {rid}")
        seen_ids.add(rid)
        t = entry.get("t")
        if not is_finite_real(t):
            raise InstanceFormatError(f"{context}.t: expected a finite number, got {t!r}")
        loc = entry.get("loc")
        if isinstance(loc, list):
            if not all(map(is_finite_real, loc)):
                raise InstanceFormatError(
                    f"{context}.loc: coordinates must be finite numbers, got {loc!r}"
                )
            loc = tuple(float(x) for x in loc)
        elif isinstance(loc, (int, float)) and not isinstance(loc, bool):
            if not is_finite_real(loc):
                raise InstanceFormatError(f"{context}.loc: expected a finite number, got {loc!r}")
            loc = float(loc)
        elif not isinstance(loc, str):
            raise InstanceFormatError(f"{context}.loc: expected a number, array, or name")
        color = entry.get("color")
        if bipartite:
            if color not in (0, 1):
                raise InstanceFormatError(f"{context}.color: expected 0 or 1")
        elif color is not None:
            raise InstanceFormatError(
                f"{context}.color: color given but instance is not bipartite"
            )
        try:
            validate_point(space, loc)
            requests.append(
                Request(
                    id=rid,
                    point=TimedPoint(loc, float(t)),
                    color=color if bipartite else None,
                )
            )
        except ValueError as exc:
            raise InstanceFormatError(f"{context}: {exc}") from None

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
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: malformed JSON: {exc}") from None
    try:
        return instance_from_dict(data)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def instance_digest(instance: Instance) -> str:
    """Short stable hash of the canonical serialization, for report headers."""
    canonical = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
