"""Checks that need a fresh interpreter: the BLAS pin and the modules a run loads.

Importing the package pins BLAS to one thread unless the caller chose, and a
whole run loads numpy but never scipy. Each check runs in a fresh interpreter,
because this test process has already loaded numpy and scipy and inherited
whatever the package set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REPORT_VARS = (
    "import json, os, expertgames\n"
    "print(json.dumps({v: os.environ.get(v) for v in %r}))\n" % (BLAS_VARS,)
)


def run_fresh(code: str, args=(), **blas) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_pins_blas_when_unset():
    seen = json.loads(run_fresh(REPORT_VARS))
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "1"}


def test_callers_openblas_setting_is_kept():
    seen = json.loads(run_fresh(REPORT_VARS, OPENBLAS_NUM_THREADS="2"))
    assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}


def test_callers_omp_setting_leaves_openblas_unset():
    seen = json.loads(run_fresh(REPORT_VARS, OMP_NUM_THREADS="2"))
    assert seen == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_ofulinmat_episode_runs_on_one_thread():
    code = (
        "import os\n"
        "from expertgames import *\n"
        "env = Environment(EnvironmentConfig(n_rows=10, n_cols=10, n_experts=10, n_episodes=1,\n"
        "                                    rounds_per_episode=20, noise_variance=0.5), seed=0)\n"
        "agent = OFULinMatAgent(10, EstimatorConfig(0.1, 3.0, 3e-3, 10), seed=1)\n"
        "env.run_episode(agent, SaddleOracleOpponent(seed=2), env.reveal(0))\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert run_fresh(code).strip() == "1"


def test_a_run_never_loads_scipy(tmp_path):
    code = (
        "import contextlib, json, sys\n"
        "from expertgames.cli import main\n"
        "with open(sys.argv[1], 'w') as handle, contextlib.redirect_stdout(handle):\n"
        "    main(['paper-default'])\n"
        "main(['run', '--config', sys.argv[1], '--out', sys.argv[2], '--trials', '1'])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    config, out = tmp_path / "config.json", tmp_path / "run"
    seen = run_fresh(code, args=(str(config), str(out)))
    assert (out / "trials/trial_000/ofulinmat/trace.jsonl").is_file()
    assert json.loads(seen.splitlines()[-1]) == []
