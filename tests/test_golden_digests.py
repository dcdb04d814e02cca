"""The benchmark's golden output digests of the ``large`` and ``exact`` workloads.

Each operation of the two workloads runs once, at the benchmark's sizes and
default seed, through ``perfbench/workloads.py``; ``perfbench/run.py``
compares its output digest with ``perfbench/golden.json``.  Both modules are
imported as they are, as ``perfbench/tests`` imports them.  The ``verify``
workload's digest is pinned in ``test_verify.py``.

``tests/tools/report_digest.py`` hashes every simulate report and oracle
result of a wider corpus; its two lines are pinned here too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
REPORT_DIGEST = Path(__file__).resolve().parent / "tools" / "report_digest.py"
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


def test_report_digest_is_unchanged():
    # The script puts its own checkout's src on the path, in a fresh
    # interpreter, so no module this process loaded or patched takes part.
    done = subprocess.run(
        [sys.executable, str(REPORT_DIGEST)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "de296624bfb56900bb2dba3a84e7d098ebdd9f98683d9412399ac5e909a213a8  3162 runs",
        "6998c415ff8c9cd3cfa25373353d1562afc54bcea51799617b034d735412209e  9052 oracle results",
    ]
