"""``scipy.optimize`` never loads: not on import, and not for a bipartite optimum.

Importing it takes most of ``import mpmd``'s time and doubles its memory, and
``opt_bipartite`` loads only its compiled assignment kernel.  Each test starts
a fresh interpreter (``sys.modules`` of this one already holds the package)
and reports what that process loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with src on the path; parse its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_scipy_optimize_unloaded():
    result = run_fresh(
        "import json, sys\n"
        "import mpmd, mpmd.cli\n"
        "print(json.dumps({'loaded': 'scipy.optimize' in sys.modules}))\n"
    )
    assert result == {"loaded": False}


def test_cli_gen_run_sweep_leave_scipy_optimize_unloaded():
    result = run_fresh(
        "import json, os, sys, tempfile\n"
        "from click.testing import CliRunner\n"
        "from mpmd.cli import main\n"
        "runner = CliRunner()\n"
        "path = os.path.join(tempfile.mkdtemp(), 'lb.json')\n"
        "codes = [\n"
        "    runner.invoke(main, ['gen', 'lower-bound', '--k', '4', '--epsilon', '1', '-o', path]).exit_code,\n"
        "    runner.invoke(main, ['run', '-i', path, '--policy', 'hemisphere', '--epsilon', '1']).exit_code,\n"
        "    runner.invoke(main, ['sweep', '--family', 'lower-bound', '--k-min', '2', '--k-max', '4']).exit_code,\n"
        "]\n"
        "print(json.dumps({'codes': codes, 'loaded': 'scipy.optimize' in sys.modules}))\n"
    )
    assert result == {"codes": [0, 0, 0], "loaded": False}


def test_cli_verify_ratio_opt_on_small_bipartite_leave_scipy_optimize_unloaded():
    result = run_fresh(
        "import json, os, sys, tempfile\n"
        "from click.testing import CliRunner\n"
        "from mpmd.cli import main\n"
        "runner = CliRunner()\n"
        "path = os.path.join(tempfile.mkdtemp(), 'b.json')\n"
        "codes = [\n"
        "    runner.invoke(main, ['gen', 'random', '--m', '12', '--seed', '1', '--bipartite', '-o', path]).exit_code,\n"
        "    runner.invoke(main, ['verify', '--count', '6']).exit_code,\n"
        "    runner.invoke(main, ['ratio', '-i', path, '--policy', 'hemisphere-b', '--epsilon', '1']).exit_code,\n"
        "    runner.invoke(main, ['opt', '-i', path]).exit_code,\n"
        "]\n"
        "print(json.dumps({'codes': codes, 'loaded': 'scipy.optimize' in sys.modules}))\n"
    )
    assert result == {"codes": [0, 0, 0, 0], "loaded": False}


def test_bipartite_optima_of_every_size_leave_scipy_optimize_unloaded():
    result = run_fresh(
        "import json, os, sys, tempfile\n"
        "from click.testing import CliRunner\n"
        "from mpmd.cli import main\n"
        "from mpmd.instances import gen_random, save_instance\n"
        "from mpmd.oracle import brute_force_opt, opt_bipartite\n"
        "small = gen_random(6, 3, metric='euclidean', bipartite=True)\n"
        "equal = opt_bipartite(small) == brute_force_opt(small)\n"
        "loaded = {}\n"
        "for m in (6, 20, 22, 2000):\n"
        "    opt_bipartite(gen_random(m, 3, metric='euclidean', bipartite=True))\n"
        "    loaded[m] = 'scipy.optimize' in sys.modules\n"
        "path = os.path.join(tempfile.mkdtemp(), 'b22.json')\n"
        "save_instance(gen_random(22, 1, bipartite=True), path)\n"
        "runner = CliRunner()\n"
        "codes = [\n"
        "    runner.invoke(main, ['opt', '-i', path]).exit_code,\n"
        "    runner.invoke(main, ['ratio', '-i', path, '--policy', 'hemisphere-b', '--epsilon', '1']).exit_code,\n"
        "]\n"
        "loaded['cli'] = 'scipy.optimize' in sys.modules\n"
        "print(json.dumps({'equal': equal, 'codes': codes, 'loaded': loaded}))\n"
    )
    assert result == {
        "equal": True,
        "codes": [0, 0],
        "loaded": {"6": False, "20": False, "22": False, "2000": False, "cli": False},
    }
