"""Benchmark for mpmd: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload large --seed 20240 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh single-threaded worker process
(``perfbench/workloads.py``), one process at a time, after several fresh
processes that only set up, whose median is ``setup_s``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the run's metadata, the
recorded outputs and a summary.  ``--workload all`` runs every workload and
names each metric ``<metric>@<workload>``.

At the default seed every operation's output digest must equal the one in
``perfbench/golden.json``.  The script exits 2 without a result when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"

WORKLOADS = ("large", "exact", "verify")
DEFAULT_SEED = 20240
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 10
# Thread pools of the numerical libraries, pinned so every run is one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def call_worker(args: list[str], timeout: float) -> dict:
    """Run the worker to completion and parse its one-line JSON result."""
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


def apply_golden(workload: str, records: list[dict], golden: dict) -> None:
    """Fail every operation whose output digest differs from the recorded one."""
    expected = golden[workload]
    for record in records:
        want = expected.get(record["op"])
        if record["digest"] is not None and record["digest"] != want:
            record["problems"].append(
                f"output digest {record['digest']} != recorded {want}"
            )


def count_failed(records: list[dict]) -> int:
    return sum(1 for record in records if record["problems"])


def end_to_end(setup_s: list[float], worker: dict) -> dict:
    records = worker["ops"]
    failed = count_failed(records)
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "wall_s": {"value": statistics.median(worker["pass_s"]), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": 1.0 - failed / len(records), "unit": "share"},
    }


def per_layer(worker: dict) -> dict:
    return {name: {"value": worker["layers"][name], "unit": unit} for name, unit in METRICS.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result plus what the lines before it show."""
    args = ["--workload", workload, "--seed", str(seed)]
    setup_s = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setup_s.append(call_worker([*args, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
    worker = call_worker(
        [*args, "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=3 * seconds + 30,
    )
    if seed == DEFAULT_SEED:
        apply_golden(workload, worker["ops"], load_golden())
    records = worker["ops"]
    failed = count_failed(records)
    metrics = per_layer(worker) if trace else end_to_end(setup_s, worker)
    problems = sorted({p for r in records for p in r["problems"]})
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": metrics,
        },
        "ops_failed_frac": failed / len(records),
        "passes": len(worker["pass_s"]),
        "outputs": worker["outputs"],
        "digests": {r["op"]: r["digest"] for r in records},
        "versions": worker["versions"],
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark for mpmd.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random-instance seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mpmd" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src' / 'mpmd'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for workload in workloads:
        try:
            runs[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: no result: {exc}", file=sys.stderr)
            return 1

    meta = {
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": next(iter(runs.values()))["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {name: "1" for name in THREAD_VARS},
        "pythonhashseed": "0",
    }
    if args.trace:
        meta["waits"] = "none: one thread, no I/O inside a pass"
    print("meta: " + json.dumps(meta, sort_keys=True))
    for workload, run in runs.items():
        metrics = run["result"]["metrics"]
        shown = ", ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
        print(f"{workload}: passes={run['passes']} ops_failed_frac={run['ops_failed_frac']:.6g} "
              f"{shown}")
        print(f"{workload} outputs: " + json.dumps(run["outputs"], sort_keys=True))
        print(f"{workload} digests: " + json.dumps(run["digests"]))
        for problem in run["problems"]:
            print(f"{workload} problem: {problem}")

    if len(runs) == 1:
        result = next(iter(runs.values()))["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {
                f"{name}@{workload}": value
                for workload, r in runs.items()
                for name, value in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
