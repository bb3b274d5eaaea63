"""The output validator accepts a clean run and rejects a one-ulp change."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from validate import read_aggregate_finals, validate_run

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "environment": {
        "n_rows": 3,
        "n_cols": 3,
        "n_experts": 2,
        "n_episodes": 3,
        "rounds_per_episode": 10,
        "noise_variance": 0.5,
        "theta_star": {"type": "gaussian", "mean": 0.5, "norm_bound": 3.0},
        "experts": {"type": "uniform"},
    },
    "learners": [{"type": "ofulinmat", "name": "ofulinmat"}, {"type": "exp3", "name": "exp3"}],
    "opponent": {"type": "saddle_oracle"},
    "trials": 2,
    "master_seed": 7,
}


@pytest.fixture(scope="module", params=["csv", "jsonl"])
def finished_run(request, tmp_path_factory):
    config = dict(TINY, output_format=request.param)
    base = tmp_path_factory.mktemp(request.param)
    (base / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "expertgames.cli", "run", "--config", str(base / "config.json"),
         "--out", str(base / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return config, base / "run"


@pytest.fixture
def run_copy(finished_run, tmp_path):
    config, run = finished_run
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    return config, copy


def _bump_one_ulp(path: Path, series: str, episode: int) -> None:
    lines = path.read_text().splitlines()
    for index, line in enumerate(lines):
        if path.suffix == ".csv":
            name, ep, value = line.split(",")
            if name == series and ep == str(episode):
                lines[index] = f"{name},{ep},{math.nextafter(float(value), math.inf)!r}"
                break
        else:
            record = json.loads(line)
            if record["series"] == series and record["episode"] == episode:
                record["value"] = math.nextafter(record["value"], math.inf)
                lines[index] = json.dumps(record, sort_keys=True)
                break
    else:
        raise AssertionError(f"{series} episode {episode} not in {path}")
    path.write_text("\n".join(lines) + "\n")


def test_clean_run_passes(finished_run):
    config, run = finished_run
    result = validate_run(run, config, returncode=0)
    assert result.problems == []
    assert (result.attempted, result.failed) == (2, 0)


@pytest.mark.parametrize("series", ["per_episode_exploitability", "cumulative_saddle_pseudo"])
def test_one_ulp_change_fails_that_trial(run_copy, series):
    config, run = run_copy
    suffix = config["output_format"]
    _bump_one_ulp(run / "trials" / "trial_001" / "ofulinmat" / f"metrics.{suffix}", series, 2)
    result = validate_run(run, config, returncode=0)
    assert (result.attempted, result.failed) == (2, 1)
    assert all(problem.startswith("trial_001") for problem in result.problems)


def test_missing_file_fails_that_trial(run_copy):
    config, run = run_copy
    (run / "trials" / "trial_000" / "exp3" / "trace.jsonl").unlink()
    result = validate_run(run, config, returncode=0)
    assert (result.attempted, result.failed) == (2, 1)


def test_crashed_run_fails_every_trial(finished_run):
    config, run = finished_run
    result = validate_run(run, config, returncode=1)
    assert (result.attempted, result.failed) == (2, 2)


def test_reference_values_are_checked(finished_run):
    config, run = finished_run
    reference = read_aggregate_finals(run, ["ofulinmat", "exp3"], episodes=3)
    assert validate_run(run, config, returncode=0, reference=reference).failed == 0
    final = reference["exp3"]["cumulative_saddle_realized"]
    reference["exp3"]["cumulative_saddle_realized"] = final * (1 + 1e-5)
    result = validate_run(run, config, returncode=0, reference=reference)
    assert result.failed == 2
    assert any("reference" in problem for problem in result.problems)
