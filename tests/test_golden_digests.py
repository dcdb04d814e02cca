"""The benchmark's golden output digests of the ``large`` and ``exact`` workloads.

Each operation of the two workloads runs once, at the benchmark's sizes and
default seed, through ``perfbench/workloads.py``; ``perfbench/run.py``
compares its output digest with ``perfbench/golden.json``.  Both modules are
imported as they are, as ``perfbench/tests`` imports them.  The ``verify``
workload's digest is pinned in ``test_verify.py``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["large", "exact"])
def test_every_operation_matches_its_golden_digest(workload, tmp_path, deadline):
    seed, sizes = workloads.DEFAULT_SEED, workloads.SIZES[workload]
    loaded = workloads.build_instances(workload, seed, sizes, tmp_path)
    ops = workloads.build_ops(workload, loaded, seed, sizes, workloads._no_span)
    _, records = workloads.run_pass(ops)
    golden = run.load_golden()
    run.apply_golden(workload, records, golden)
    assert {r["op"]: r["problems"] for r in records if r["problems"]} == {}
    assert [r["op"] for r in records] == list(golden[workload])
