"""One sha256 over the reports of a fixed corpus of simulate runs.

Run it from any directory, at two commits, to show that an engine change
keeps every report bit for bit:

    python3 tests/tools/report_digest.py

It imports ``mpmd`` from the ``src`` directory of the checkout it lives in,
runs every policy that applies at epsilon 0.5, 1 and 2 on each instance of
the corpus, and hashes each record's ids and ``float.hex`` fields, then the
run's online cost and offline weight.  It prints the digest and the number
of runs.  The corpus:

- ``gen_random`` line, plane and ``finite:4`` instances at m = 2 to 256,
  monochromatic and bipartite, at horizons 10 and 0.01 (at 0.01 the
  distances dwarf the arrival gaps, so many requests are pending at once);
- cascades at k = 1..9, eta 0 (tie-dense) and 1e-6, both colors;
- two-point rows at m = 8 to 512, delta = 1/m.

pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from mpmd.engine import HEMISPHERE_BIPARTITE, POLICY_KINDS, Policy, simulate  # noqa: E402
from mpmd.instances import (  # noqa: E402
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
)

RANDOM_SIZES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 32, 48, 64, 128, 256)
EPSILONS = (0.5, 1.0, 2.0)


def corpus():
    """Every instance of the corpus, in a fixed order."""
    for m in RANDOM_SIZES:
        for metric in ("line", "euclidean", "finite"):
            for bipartite in (False, True):
                for horizon in (10.0, 0.01):
                    yield gen_random(
                        m, m, metric=metric, n_points=4, horizon=horizon, bipartite=bipartite
                    )
    for k in range(1, 10):
        for eta in (0.0, 1e-6):
            for bipartite in (False, True):
                params = LowerBoundParams(k=k, epsilon=1.0, eta=eta)
                yield gen_lower_bound(params, bipartite=bipartite)
    for m in (8, 16, 32, 64, 128, 256, 512):
        yield gen_two_point_rows(TwoPointRowsParams(m=m, delta=1.0 / m))


def main() -> None:
    digest = hashlib.sha256()
    runs = 0
    for instance in corpus():
        for kind in POLICY_KINDS:
            if kind == HEMISPHERE_BIPARTITE and not instance.bipartite:
                continue
            for epsilon in EPSILONS:
                report = simulate(instance, Policy(kind, epsilon))
                for r in report.records:
                    fields = (r.match_time, r.connection, r.delay_p, r.delay_q)
                    digest.update(f"{r.p} {r.q} {' '.join(x.hex() for x in fields)}\n".encode())
                digest.update(f"{report.online_cost.hex()} {report.offline_weight.hex()}\n".encode())
                runs += 1
    print(f"{digest.hexdigest()}  {runs} runs")


if __name__ == "__main__":
    main()
