"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from mpmd import engine, harness, instances, oracle  # noqa: E402

TINY = {
    "large": {"k_min": 4, "k_max": 5, "rows_m": (16, 32), "m": 16},
    "exact": {"m": 8, "bipartite_m": 40},
    "verify": {"count": 6, "max_m": 6},
}
SEED = 7


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _tiny_ops(workload: str, tmp_path: Path) -> list:
    sizes = TINY[workload]
    loaded = workloads.build_instances(workload, SEED, sizes, tmp_path)
    return workloads.build_ops(workload, loaded, SEED, sizes, workloads._no_span)


def test_declared_workloads_are_the_benchmarks():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = [w["name"] for w in json.load(handle)["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    untraced = workloads.measure(workload, SEED, 0, False, tmp_path, TINY[workload])
    metrics = run.end_to_end([untraced["setup_s"]], untraced)
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert metrics["ops_ok_frac"]["value"] == 1.0

    traced = workloads.measure(workload, SEED, 0, True, tmp_path, TINY[workload])
    metrics = run.per_layer(traced)
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert all(not r["problems"] for r in traced["ops"])
    if workload == "large":
        assert metrics["engine.simulate.calls"]["value"] > 0
        assert metrics["cli.self_s"]["value"] > 0
        assert "cascade_fitted_log2_slope" in traced["outputs"]


def _swap_partners(report):
    first, second = report.records[:2]
    records = (dataclasses.replace(first, q=second.q),) + report.records[1:]
    return dataclasses.replace(report, records=records)


def _wrong_opt_ratio(report):
    return dataclasses.replace(report, opt_weight=report.offline_weight * 1.01)


def _wrong_opt_matching(matching):
    return oracle.Matching(pairs=matching.pairs, weight=matching.weight * 0.99)


def _drop_cascade_row(output):
    lines = output.splitlines(keepends=True)
    return "".join(lines[:2] + lines[3:])


@pytest.mark.parametrize(
    "workload, op_name, corrupt",
    [
        ("large", "simulate-hemisphere-line", _swap_partners),
        ("large", "sweep-lower-bound", _drop_cascade_row),
        ("exact", "ratio-hemisphere-euclidean2", _wrong_opt_ratio),
        ("exact", "opt-bipartite-euclidean2", _wrong_opt_matching),
    ],
)
def test_planted_wrong_answer_counts_as_failed(workload, op_name, corrupt, tmp_path):
    ops = [
        dataclasses.replace(op, run=lambda op=op: corrupt(op.run())) if op.name == op_name else op
        for op in _tiny_ops(workload, tmp_path)
    ]
    _, records = workloads.run_pass(ops)
    failed = [r["op"] for r in records if r["problems"]]
    assert failed == [op_name]


def test_raising_operation_counts_as_failed(tmp_path):
    def boom():
        raise ValueError("planted")

    ops = [dataclasses.replace(op, run=boom) for op in _tiny_ops("verify", tmp_path)]
    _, records = workloads.run_pass(ops)
    assert records[0]["problems"] == ["ValueError: planted"]


def test_digest_mismatch_at_default_seed_counts_as_failed():
    records = [{"op": "run-verify", "problems": [], "digest": "0" * 64}]
    run.apply_golden("verify", records, run.load_golden())
    assert records[0]["problems"]


def test_rebinding_leaves_simulate_output_unchanged():
    instance = instances.gen_random(16, SEED, metric="euclidean", dim=2)
    policy = engine.Policy(kind=engine.HEMISPHERE, epsilon=1.0)
    original = engine.simulate
    expected = engine.simulate(instance, policy)
    expected_ratio = harness.compute_ratio(instance, policy)

    tracer = Tracer()
    with tracer.installed():
        assert engine.simulate is not original
        traced = engine.simulate(instance, policy)
        traced_ratio = harness.compute_ratio(instance, policy)
        with pytest.raises(ValueError):
            engine.simulate(instance, engine.Policy(kind=engine.HEMISPHERE_BIPARTITE, epsilon=1.0))
    stats = tracer.snapshot()

    assert traced == expected
    assert traced_ratio == expected_ratio
    assert engine.simulate is original and harness.simulate is original
    assert oracle.Matching.from_pairs.__func__.__name__ == "from_pairs"
    assert stats["stats"]["engine.simulate"][0] == 3
    assert stats["stats"]["oracle.opt_general"][0] == 1
    assert stats["stats"]["metric.distance"][0] > 0
    assert stats["errors"]["engine"] == 1


def test_without_the_package_source_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
