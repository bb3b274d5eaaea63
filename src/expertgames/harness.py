"""Experiment runner: multi-trial orchestration and persistence.

Trial n's environment is the run's config seeded by (master, n, 0), and each
learner/opponent pair is seeded by (master, n, 1|2, learner_index), so
adding or removing learners never perturbs the environment realization.
Within a trial ``Environment.run_trial`` reveals each episode once and plays
every pair on it, so every learner meets the very same expert stack, true
game, true saddle point and noise.

Outputs under the run directory:

    manifest.json                                       config + per-trial seeds (written last)
    trials/trial_<n>/<learner>/metrics.<output_format>  one row per (series, episode)
    trials/trial_<n>/<learner>/trace.jsonl              one JSON object per episode
    aggregate/<learner>.csv                             series,episode,mean,stderr
    plot/<learner>.csv                                  the aggregate, filtered by ``plot-data``

Floats are written as ``repr`` or ``json.dumps`` spells them, so replaying a
manifest reproduces the metric files byte for byte. A learner's report for a
trial is one float64 column whose layout ``metrics.series_keys`` states. Each
trial's files are written as soon as the trial finishes: the metric file
labels the column's values with those keys, and the column becomes that
trial's column of its learner's aggregate array; no trial's report or traces
outlive that step. The aggregate tables reduce those arrays once the last
trial is in. ``manifest.json`` is written last, through a rename, so a run
directory without it is an incomplete run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_to_dict
from .config import config_from_dict  # noqa: F401  (the benchmark's traced runs read it here)
from .environment import Environment, EpisodeTrace
from .metrics import METRIC_FORMATS, build_report, series_keys

# ---------------------------------------------------------------------------
# Running


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """Seed and build each configured learner and its own opponent, play
    them all on one environment realization, and report each learner."""
    env = Environment(config.environment, [config.master_seed, trial, 0])
    players = []
    for index, spec in enumerate(config.learners):
        learner_seed = np.random.SeedSequence([config.master_seed, trial, 1, index])
        opponent_seed = np.random.SeedSequence([config.master_seed, trial, 2, index])
        players.append((spec.build(config.environment, np.random.default_rng(learner_seed)),
                        config.opponent.build(np.random.default_rng(opponent_seed))))
    traces = env.run_trial(players)
    return {
        "learners": {spec.name: {"traces": played, "report": build_report(played)}
                     for spec, played in zip(config.learners, traces)},
        "environment": {
            "theta_star": env.theta_star.tolist(),
            "theta_rejections": env.theta_rejections,
        },
    }


# A pool worker's config, which the pool's initializer sets once per worker.
_WORKER_CONFIG: ExperimentConfig | None = None


def _set_worker_config(config: ExperimentConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _run_worker_trial(trial: int) -> dict:
    """``run_trial`` of the worker's config: a task carries only its trial number."""
    return run_trial(_WORKER_CONFIG, trial)


def _write_trace_jsonl(path: Path, traces) -> None:
    """One ``json.dumps(record, sort_keys=True)`` line per episode, holding every
    ``EpisodeTrace`` field but the hindsight totals; arrays become lists."""
    fields = [f.name for f in dataclasses.fields(EpisodeTrace) if f.name != "hindsight_row_totals"]
    lines = []
    for trace in traces:
        record = {}
        for name in fields:
            value = getattr(trace, name)
            record[name] = value.tolist() if isinstance(value, np.ndarray) else value
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    path.write_text("".join(lines))


def aggregate_series(keys, values) -> list[tuple[str, int, float, float]]:
    """(series, episode, mean, stderr) rows across trials, sorted stably by series.

    ``keys`` are the run's ``series_keys``, and ``values`` is the C-contiguous
    (rows, trials) array whose column n is trial n's report. Each row reduces
    along the last axis; a transposed view would sum in another order and
    change the bits.
    """
    trials = values.shape[1]
    mean = values.mean(axis=1)
    if trials > 1:
        stderr = values.std(axis=1, ddof=1) / math.sqrt(trials)
    else:
        stderr = np.zeros(len(keys))
    rows = [(*key, m, s) for key, m, s in zip(keys, mean.tolist(), stderr.tolist())]
    return sorted(rows, key=lambda row: row[0])


_AGGREGATE_HEADER = "series,episode,mean,stderr"


# What a run writes under its directory, each of which it clears first: a
# stale manifest would mark the run complete, a previous run's trials beyond
# this run's count or its plot tables would pass for this run's outputs, and
# a file or a link by one of these names would block them.
RUN_OUTPUTS = ("manifest.json", "manifest.json.tmp", "trials", "aggregate", "plot")


def check_workers(workers: int) -> int:
    """Return ``workers`` if ``run_experiment`` accepts it (at least 1), else raise ValueError."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1) -> dict:
    """Run all trials, persist per-trial and aggregate outputs, and return the
    manifest: the dict that ``manifest.json`` holds.

    Trials run in a pool of ``min(workers, trials, usable CPUs)`` processes
    when that is more than one; the pool starts all of its workers up front,
    and hands each the config once, so a task is only a trial number. Either way
    results arrive in trial order. Each trial's files are written as its
    result arrives, and each learner's report becomes the trial's column of
    that learner's (rows, trials) aggregate array, so across trials a run
    keeps only those arrays. ``manifest.json`` is written last, through a rename.
    """
    check_workers(workers)
    start = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in RUN_OUTPUTS:  # the manifest first; other names are left alone
        stale = out / name
        if stale.is_dir() and not stale.is_symlink():
            shutil.rmtree(stale)
        else:
            stale.unlink(missing_ok=True)

    keys = series_keys(config.environment.n_episodes)
    metric_format = METRIC_FORMATS[config.output_format]
    prefixes = [metric_format.prefix(*key) for key in keys]
    aggregates = {spec.name: np.empty((len(keys), config.trials)) for spec in config.learners}
    workers = min(workers, config.trials, _usable_cpus())
    pool = None
    if workers > 1:
        import concurrent.futures  # a serial run loads neither the pool nor logging

        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_set_worker_config, initargs=(config,)
        )
    with pool or contextlib.nullcontext():
        results = (pool.map(_run_worker_trial, range(config.trials)) if pool
                   else map(functools.partial(run_trial, config), range(config.trials)))
        for n, result in enumerate(results):
            trial_root = out / "trials" / f"trial_{n:03d}"
            trial_root.mkdir(parents=True, exist_ok=True)
            (trial_root / "env.json").write_text(
                json.dumps(result["environment"], sort_keys=True) + "\n"
            )
            for name, payload in result["learners"].items():
                learner_dir = trial_root / name
                learner_dir.mkdir(exist_ok=True)
                report = payload["report"]
                (learner_dir / f"metrics.{config.output_format}").write_text(
                    metric_format.text(prefixes, report.tolist())
                )
                _write_trace_jsonl(learner_dir / "trace.jsonl", payload["traces"])
                aggregates[name][:, n] = report
            del result, payload  # trial n's traces go before trial n + 1 runs

    tables = {name: [f"{series},{episode},{mean!r},{stderr!r}"
                     for series, episode, mean, stderr in aggregate_series(keys, values)]
              for name, values in aggregates.items()}
    write_plot_tables(tables, out / "aggregate")

    manifest = {
        "config": config_to_dict(config),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(start)),
        "elapsed_seconds": time.time() - start,
        "trial_seeds": [hash_seed(config.master_seed, n) for n in range(config.trials)],
        "version": __version__,
    }
    partial = out / "manifest.json.tmp"
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(partial, out / "manifest.json")
    return manifest


def hash_seed(master_seed: int, trial: int) -> int:
    """Stable integer fingerprint of a trial's environment seed sequence."""
    return int(np.random.SeedSequence([master_seed, trial, 0]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Plot data


def read_plot_tables(run_dir, series: list[str] | None = None) -> dict[str, list[str]]:
    """Each learner's aggregate table rows of a finished run, keeping only the
    rows of ``series`` (default: all). Reads and checks every table, and
    writes nothing."""
    run = Path(run_dir)
    if not (run / "manifest.json").is_file():
        raise FileNotFoundError(f"{run} is not a finished run: it has no manifest.json")
    tables = {}
    for path in sorted((run / "aggregate").glob("*.csv")):
        header, _, body = path.read_text().partition("\n")
        if header != _AGGREGATE_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = body.splitlines()
        if not rows:
            raise ValueError(f"{path}: no rows below its header")
        if series is not None:
            missing = sorted(set(series) - {row.split(",", 1)[0] for row in rows})
            if missing:
                raise ValueError(f"series not present in run outputs: {', '.join(missing)}")
            rows = [row for row in rows if row.split(",", 1)[0] in series]
        tables[path.stem] = rows
    if not tables:
        raise FileNotFoundError(f"no aggregate tables under {run / 'aggregate'}")
    return tables


def write_plot_tables(tables: dict[str, list[str]], out: Path) -> list[Path]:
    """Write each learner's aggregate rows under their header to ``<out>/<learner>.csv``."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for learner, rows in tables.items():
        path = out / f"{learner}.csv"
        path.write_text("\n".join([_AGGREGATE_HEADER, *rows]) + "\n")
        written.append(path)
    return written
