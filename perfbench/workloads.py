"""Workloads, output checks and the measuring loop; run as the worker process.

Each workload is a list of operations over instances that a set-up step builds
through ``mpmd.instances``: generate, then a round trip through the JSON file
format, as the command line loads them.  A pass runs every operation once, in
order, each starting when the previous one returns (a closed loop with one
caller).  Only the operations are timed; their outputs are checked after the
pass, and an operation that raised or failed a check counts as failed.

The package is called through module attributes (``engine.simulate``) so that
the tracer's rebinding sees the benchmark's own calls.

Usage, from the repository root with ``src`` on PYTHONPATH::

    python3 perfbench/workloads.py --workload large --seed 20240 --seconds 30 --trace 0
    python3 perfbench/workloads.py --workload large --seed 20240 --setup-only

It prints one JSON object; ``perfbench/run.py`` turns it into the result.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import mpmd  # noqa: E402
from mpmd import cli, engine, harness, instances, oracle, verify  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("large", "exact", "verify")
DEFAULT_SEED = 20240
EPSILON = 1.0
REL_TOL = 1e-9
# The cascade sweep's rows equal 2*(5/4)**(k-1) - 1 at eps=1; the eta shift
# of the generator leaves a relative gap of at most 1.3e-6 at k=4..10.
CASCADE_REL_TOL = 1e-5

# Benchmark sizes; the tests pass smaller ones.
SIZES = {
    "large": {"k_min": 4, "k_max": 10, "rows_m": (16, 32, 64, 128, 256, 512), "m": 1024},
    "exact": {"m": 20, "bipartite_m": 2000},
    # run_verify's defaults at the time the benchmark was defined.
    "verify": {"count": 200, "max_m": 12},
}


@dataclass(frozen=True)
class Op:
    """One operation: what it runs, how its output is checked and digested.

    ``outputs`` picks values from the output that are recorded, not checked.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]
    outputs: Callable[[object], dict] = lambda _output: {}


# ---------------------------------------------------------------- set-up


def _random_specs(workload: str, sizes: dict) -> list[tuple[str, dict]]:
    """(name, gen_random keyword arguments) of the workload's random instances."""
    if workload == "large":
        m = sizes["m"]
        return [
            ("line", {"m": m, "metric": "line"}),
            ("euclidean2", {"m": m, "metric": "euclidean", "dim": 2}),
            ("finite4-bipartite", {"m": m, "metric": "finite", "n_points": 4, "bipartite": True}),
        ]
    if workload == "exact":
        m = sizes["m"]
        return [
            ("line", {"m": m, "metric": "line"}),
            ("euclidean2", {"m": m, "metric": "euclidean", "dim": 2}),
            ("finite4", {"m": m, "metric": "finite", "n_points": 4}),
            (
                "euclidean2-bipartite",
                {"m": sizes["bipartite_m"], "metric": "euclidean", "dim": 2, "bipartite": True},
            ),
        ]
    raise ValueError(f"workload {workload!r} has no random instance specs")


def build_instances(workload: str, seed: int, sizes: dict, workdir: Path) -> dict:
    """Generate the workload's instances and reload them from instance files."""
    if workload == "verify":
        generated = verify.random_suite(sizes["count"], sizes["max_m"], seed)
    else:
        generated = [
            (name, instances.gen_random(seed=seed, **spec))
            for name, spec in _random_specs(workload, sizes)
        ]
    loaded = {}
    for index, (name, instance) in enumerate(generated):
        path = workdir / f"{workload}-{index}.json"
        instances.save_instance(instance, path)
        loaded[name] = instances.load_instance(path)
    return loaded


# ---------------------------------------------------------------- checks
#
# The checks recompute what they compare against from the instance's own
# data, not through the package's metric or oracle functions.


def _aug(space, p, q) -> float:
    """Time-augmented distance between two requests."""
    a, b = p.point.location, q.point.location
    if space.kind == "line":
        d = abs(a - b)
    elif space.kind == "euclidean":
        d = math.dist(a, b)
    else:
        d = space.matrix[space.points.index(a)][space.points.index(b)]
    return d + abs(p.point.time - q.point.time)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _pair_problems(instance, pairs) -> list[str]:
    """Pairs that do not form a perfect matching, or cross no colors when they must."""
    ids = sorted(r.id for r in instance.requests)
    covered = sorted(i for pair in pairs for i in pair)
    if covered != ids:
        return ["pairs do not cover every request exactly once"]
    if instance.bipartite:
        color = {r.id: r.color for r in instance.requests}
        if any(color[p] == color[q] for p, q in pairs):
            return ["a pair joins two requests of one color"]
    return []


def _pairs_weight(instance, pairs) -> float:
    by_id = {r.id: r for r in instance.requests}
    return sum(_aug(instance.space, by_id[p], by_id[q]) for p, q in pairs)


def _nearest_bound(instance) -> float:
    """Half the sum of each request's nearest admissible partner: at most the optimum.

    Every request's matched edge is at least as long as its nearest admissible
    partner, and each edge is counted from both ends.  Rows are computed one at
    a time so that the check adds O(m) memory to the measured process.
    """
    space, reqs = instance.space, instance.requests
    times = np.array([r.point.time for r in reqs])
    locations = [r.point.location for r in reqs]
    if space.kind == "finite":
        matrix = np.array(space.matrix)
        index = np.array([space.points.index(loc) for loc in locations])
        spatial = lambda i: matrix[index[i], index]  # noqa: E731
    else:
        coords = np.array(locations, dtype=float).reshape(len(reqs), -1)
        spatial = lambda i: np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))  # noqa: E731
    colors = np.array([r.color for r in reqs])
    total = 0.0
    for i in range(len(reqs)):
        row = spatial(i) + np.abs(times - times[i])
        row[i] = np.inf
        if instance.bipartite:
            row[colors == colors[i]] = np.inf
        total += row.min()
    return float(total / 2.0)


def check_run(instance, report) -> list[str]:
    """A hemisphere run: a perfect matching whose costs obey the scaling identity."""
    pairs = [(rec.p, rec.q) for rec in report.records]
    problems = _pair_problems(instance, pairs)
    if problems:
        return problems
    weight = _pairs_weight(instance, pairs)
    if not _close(weight, report.offline_weight):
        problems.append(f"offline weight {report.offline_weight!r} != pairs' weight {weight!r}")
    expected = (1.0 + 2.0 / report.policy.epsilon) * report.offline_weight
    if not _close(report.online_cost, expected):
        problems.append(f"online {report.online_cost!r} != (1+2/eps)*offline {expected!r}")
    return problems


def check_ratio(instance, report) -> list[str]:
    """A hemisphere ratio report against the exact general optimum."""
    problems = []
    if report.m != instance.size:
        problems.append(f"m={report.m} for an instance of {instance.size} requests")
    if not report.bound_ok:
        problems.append("bound_ok is false")
    if report.opt_weight > report.offline_weight * (1.0 + REL_TOL):
        problems.append(
            f"optimum {report.opt_weight!r} exceeds the policy's weight {report.offline_weight!r}"
        )
    lower = _nearest_bound(instance)
    if report.opt_weight < lower * (1.0 - REL_TOL):
        problems.append(f"optimum {report.opt_weight!r} is below the bound {lower!r}")
    expected = (1.0 + 2.0 / report.epsilon) * report.offline_weight
    if not _close(report.online_cost, expected):
        problems.append(f"online {report.online_cost!r} != (1+2/eps)*offline {expected!r}")
    return problems


def check_bipartite_opt(instance, matching) -> list[str]:
    """A color-crossing optimum: a valid matching between two admissible bounds.

    The upper bound is the weight of a feasible matching, the i-th arrival of
    one color with the i-th of the other.
    """
    problems = _pair_problems(instance, matching.pairs)
    if problems:
        return problems
    weight = _pairs_weight(instance, matching.pairs)
    if not _close(weight, matching.weight):
        problems.append(f"weight {matching.weight!r} != pairs' weight {weight!r}")
    by_color = [
        sorted((r for r in instance.requests if r.color == c), key=lambda r: (r.time, r.id))
        for c in (0, 1)
    ]
    upper = sum(_aug(instance.space, p, q) for p, q in zip(*by_color))
    if matching.weight > upper * (1.0 + REL_TOL):
        problems.append(f"optimum {matching.weight!r} exceeds a feasible matching's {upper!r}")
    lower = _nearest_bound(instance)
    if matching.weight < lower * (1.0 - REL_TOL):
        problems.append(f"optimum {matching.weight!r} is below the bound {lower!r}")
    return problems


def _sweep_rows(output: str) -> tuple[list[list[str]], float]:
    """CSV rows and the fitted slope of a sweep's text output."""
    lines = output.splitlines()
    if len(lines) < 3 or lines[1] != "m,ratio_online,ratio_offline,opt_exact,instance":
        raise ValueError("sweep output lacks its header")
    prefix = "# fitted_log2_slope="
    if not lines[-1].startswith(prefix):
        raise ValueError("sweep output lacks its fitted slope")
    return [line.split(",") for line in lines[2:-1]], float(lines[-1][len(prefix):])


def check_cascade_sweep(k_values, output: str) -> list[str]:
    """Each row's offline ratio is 2*(5/4)**(k-1) - 1 and its online ratio three times that.

    The fitted slope is recorded as an output, not checked.
    """
    rows, _ = _sweep_rows(output)
    if [int(row[0]) for row in rows] != [2**k for k in k_values]:
        return [f"rows for m={[row[0] for row in rows]}, expected 2**k for k in {list(k_values)}"]
    problems = []
    for k, row in zip(k_values, rows):
        online, offline = float(row[1]), float(row[2])
        expected = 2.0 * 1.25 ** (k - 1) - 1.0
        if not _close(offline, expected, CASCADE_REL_TOL):
            problems.append(f"k={k}: offline ratio {offline!r} vs 2*(5/4)^(k-1)-1 = {expected!r}")
        if not _close(online, 3.0 * offline):
            problems.append(f"k={k}: online ratio {online!r} != 3 * offline ratio")
    return problems


def check_rows_sweep(m_values, output: str) -> list[str]:
    """Rows for every m; where the optimum is exact, the policy does no better."""
    rows, _ = _sweep_rows(output)
    if [int(row[0]) for row in rows] != list(m_values):
        return [f"rows for m={[row[0] for row in rows]}, expected {list(m_values)}"]
    problems = []
    for row in rows:
        offline = float(row[2])
        if not math.isfinite(offline) or offline <= 0:
            problems.append(f"m={row[0]}: offline ratio {offline!r}")
        elif row[3] == "1" and offline < 1.0 - REL_TOL:
            problems.append(f"m={row[0]}: policy beats the exact optimum ({offline!r})")
    return problems


def check_verify(results) -> list[str]:
    if not results:
        return ["run_verify returned no checks"]
    return [f"{r.name}: {r.failed} failed case(s)" for r in results if r.failed]


# ---------------------------------------------------------------- digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_run(report) -> str:
    return _sha(
        "\n".join(
            f"{r.p},{r.q},{r.match_time!r},{r.connection!r},{r.delay_p!r},{r.delay_q!r}"
            for r in report.records
        )
    )


def digest_ratio(report) -> str:
    return _sha(json.dumps(report.to_dict(), sort_keys=True))


def digest_matching(matching) -> str:
    return _sha(json.dumps({"pairs": matching.pairs, "weight": repr(matching.weight)}))


def digest_verify(results) -> str:
    return _sha(json.dumps([[r.name, r.passed, r.failed] for r in results]))


def digest_cli(output: str) -> str:
    return _sha(output)


# ---------------------------------------------------------------- workloads


def _cli_op(name: str, args: list[str], check, span, outputs=lambda _output: {}) -> Op:
    runner = CliRunner()

    def run() -> str:
        with span("cli"):
            result = runner.invoke(cli.main, args)
            if result.exit_code != 0:
                raise RuntimeError(f"exit code {result.exit_code}: {result.output.strip()}")
        return result.output

    return Op(name, run, check, digest_cli, outputs)


def build_ops(workload: str, loaded: dict, seed: int, sizes: dict, span) -> list[Op]:
    """The operations of one pass; ``span(layer)`` times the calls into the CLI."""
    if workload == "large":
        k_values = range(sizes["k_min"], sizes["k_max"] + 1)
        rows_m = sizes["rows_m"]
        ops = [
            _cli_op(
                "sweep-lower-bound",
                ["sweep", "--family", "lower-bound", "--k-min", str(sizes["k_min"]),
                 "--k-max", str(sizes["k_max"]), "--epsilon", "1"],
                lambda out: check_cascade_sweep(k_values, out),
                span,
                lambda out: {"cascade_fitted_log2_slope": _sweep_rows(out)[1]},
            ),
            _cli_op(
                "sweep-appendix-b",
                ["sweep", "--family", "appendix-b", "--m-list", ",".join(map(str, rows_m))],
                lambda out: check_rows_sweep(rows_m, out),
                span,
            ),
        ]
        for name, kind in (
            ("line", engine.HEMISPHERE),
            ("euclidean2", engine.HEMISPHERE),
            ("finite4-bipartite", engine.HEMISPHERE_BIPARTITE),
        ):
            instance, policy = loaded[name], engine.Policy(kind=kind, epsilon=EPSILON)
            ops.append(
                Op(
                    f"simulate-{kind}-{name}",
                    lambda i=instance, p=policy: engine.simulate(i, p),
                    lambda out, i=instance: check_run(i, out),
                    digest_run,
                )
            )
        return ops
    if workload == "exact":
        policy = engine.Policy(kind=engine.HEMISPHERE, epsilon=EPSILON)
        ops = [
            Op(
                f"ratio-hemisphere-{name}",
                lambda i=loaded[name]: harness.compute_ratio(i, policy),
                lambda out, i=loaded[name]: check_ratio(i, out),
                digest_ratio,
            )
            for name in ("line", "euclidean2", "finite4")
        ]
        bipartite = loaded["euclidean2-bipartite"]
        ops.append(
            Op(
                "opt-bipartite-euclidean2",
                lambda: oracle.opt_bipartite(bipartite),
                lambda out: check_bipartite_opt(bipartite, out),
                digest_matching,
            )
        )
        return ops
    if workload == "verify":
        return [
            Op(
                "run-verify",
                lambda: verify.run_verify(seed=seed, **sizes),
                check_verify,
                digest_verify,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- measuring


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pass(ops: list[Op]) -> tuple[float, list[dict]]:
    """Run every operation once, then check the outputs outside the timed region.

    Returns the pass's seconds and one record per operation: its name, its
    problems (empty when it passed), its output's digest and the values its
    ``outputs`` picks.
    """
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes.append((op, op.run(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append((op, None, _failure(exc)))
    elapsed = time.perf_counter() - start
    records = []
    for op, output, error in outcomes:
        record = {"op": op.name, "problems": [error] if error else [], "digest": None, "outputs": {}}
        if error is None:
            try:
                record["problems"] = op.check(output)
                record["digest"] = op.digest(output)
                record["outputs"] = op.outputs(output)
            except Exception as exc:  # a malformed output fails its check
                record["problems"] = [f"check raised {_failure(exc)}"]
        records.append(record)
    return elapsed, records


def run_for(ops: list[Op], seconds: float, tracer: Tracer | None = None):
    """Run passes for about ``seconds``: at least one, and another only while a
    pass of the median length so far still ends within the limit.

    With a tracer, its counters are reset before each pass and a snapshot is
    kept after it.  Returns (pass seconds, operation records, snapshots).
    """
    times, records, snapshots = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        if tracer is not None:
            tracer.reset()
        elapsed, pass_records = run_pass(ops)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        times.append(elapsed)
        records.extend(pass_records)
    return times, records, snapshots


def traced_metrics(setup: dict, passes: list[dict], untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-layer values of the set-up plus the median pass, and the tracing overhead."""
    setup_values = layer_metrics(setup)
    per_pass = [layer_metrics(snapshot) for snapshot in passes]
    values = {
        name: setup_values[name] + statistics.median(p[name] for p in per_pass)
        for name in setup_values
    }
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return values


def _no_span(_layer: str):
    return contextlib.nullcontext()


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes: dict) -> dict:
    """Set up and run one workload in this process; returns the worker's result.

    Untraced, the passes fill ``seconds``.  Traced, untraced passes fill the
    first half and traced ones, after a traced set-up, the second half.
    """
    loaded = build_instances(workload, seed, sizes, workdir)
    result = {"setup_s": time.perf_counter() - _PROCESS_START}
    ops = build_ops(workload, loaded, seed, sizes, _no_span)
    if not trace:
        result["pass_s"], result["ops"], _ = run_for(ops, seconds)
    else:
        untraced_s, untraced_records, _ = run_for(ops, seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            loaded = build_instances(workload, seed, sizes, workdir)
            setup_snapshot = tracer.snapshot()
            ops = build_ops(workload, loaded, seed, sizes, tracer.span)
            traced_s, traced_records, snapshots = run_for(ops, seconds / 2, tracer)
        result["pass_s"] = untraced_s
        result["ops"] = untraced_records + traced_records
        result["layers"] = traced_metrics(setup_snapshot, snapshots, untraced_s, traced_s)
    result["outputs"] = {
        key: value for record in result["ops"] for key, value in record["outputs"].items()
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the instances, report the set-up time and exit")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if Path(mpmd.__file__).resolve().parent != root / "src" / "mpmd":
        print(f"imported mpmd from {mpmd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        sizes = dict(SIZES[args.workload])
        if args.setup_only:
            build_instances(args.workload, args.seed, sizes, Path(workdir))
            result = {"setup_s": time.perf_counter() - _PROCESS_START}
        else:
            result = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir), sizes
            )
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "mpmd": mpmd.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
