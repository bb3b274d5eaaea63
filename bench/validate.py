"""Output validator for one `expertgames run` directory.

Checks the output contract from the files alone, without importing the
program under test:

- the process exited with code 0 and left exactly the expected file set;
- every metric file (csv or jsonl) and trace file has the expected rows;
- exploitability is exactly p1_expected + p2_expected, episode by episode;
- every cumulative series is exactly the prefix sum of its per-episode series;
- optionally, the case-study result (ofulinmat/exp3 pseudo-regret ratio < 0.6)
  and agreement of the aggregate final values with recorded references.

A problem inside one trial's files fails that trial; a problem with the run as
a whole (exit code, manifest, aggregates, case-study ratio, references) fails
every trial of the run.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Per-episode metric names written by the program (the seven simulator sums
# plus exploitability, which the report forms from the two expected series).
METRIC_NAMES = (
    "best_response_p1_expected",
    "best_response_p1_realized",
    "best_response_p2_expected",
    "best_response_p2_realized",
    "exploitability",
    "external",
    "saddle_pseudo",
    "saddle_realized",
)
EPISODE_SERIES = tuple(
    [f"per_episode_{name}" for name in METRIC_NAMES]
    + [f"cumulative_{name}" for name in METRIC_NAMES]
    + ["theta_error"]
)
# Loose enough for last-bit changes in summation order, tight enough that one
# changed action anywhere in a trial moves a final value past it.
REFERENCE_RTOL = 1e-7
CASE_STUDY_MAX_RATIO = 0.6


@dataclass
class Validation:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def expected_files(trials: int, learners, output_format: str) -> set[str]:
    files = {"manifest.json"} | {f"aggregate/{name}.csv" for name in learners}
    for n in range(trials):
        trial = f"trials/trial_{n:03d}"
        files.add(f"{trial}/env.json")
        for name in learners:
            files.add(f"{trial}/{name}/metrics.{output_format}")
            files.add(f"{trial}/{name}/trace.jsonl")
    return files


def read_metrics(path: Path) -> list[tuple[str, int, float]]:
    rows = []
    with path.open() as handle:
        if path.suffix == ".csv":
            header = handle.readline().rstrip("\n")
            if header != "series,episode,value":
                raise ValueError(f"unexpected header {header!r}")
            for line in handle:
                name, episode, value = line.rstrip("\n").split(",")
                rows.append((name, int(episode), float(value)))
        else:
            for line in handle:
                record = json.loads(line)
                rows.append((record["series"], int(record["episode"]), float(record["value"])))
    return rows


def _series(rows, episodes: int) -> dict[str, list[float]]:
    """Group rows by series and check every series covers exactly its episodes."""
    table: dict[str, dict[int, float]] = {}
    for name, episode, value in rows:
        by_episode = table.setdefault(name, {})
        if episode in by_episode:
            raise ValueError(f"{name} has episode {episode} twice")
        by_episode[episode] = value
    expected = set(EPISODE_SERIES) | {"external_single_row"}
    if set(table) != expected:
        missing = sorted(expected - set(table))
        extra = sorted(set(table) - expected)
        raise ValueError(f"series mismatch (missing {missing}, unexpected {extra})")
    if sorted(table["external_single_row"]) != [episodes]:
        raise ValueError("external_single_row must have one row at the last episode")
    for name in EPISODE_SERIES:
        if sorted(table[name]) != list(range(1, episodes + 1)):
            raise ValueError(f"{name} does not cover episodes 1..{episodes}")
    return {name: [by[k] for k in sorted(by)] for name, by in table.items()}


def check_metric_rows(rows, episodes: int) -> list[str]:
    """Row coverage and the two exact identities of one learner's metric file."""
    try:
        series = _series(rows, episodes)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    p1 = series["per_episode_best_response_p1_expected"]
    p2 = series["per_episode_best_response_p2_expected"]
    for k, (a, b, total) in enumerate(zip(p1, p2, series["per_episode_exploitability"]), 1):
        if total != a + b:
            problems.append(f"episode {k}: exploitability {total!r} != {a!r} + {b!r}")
    for name in METRIC_NAMES:
        prefix = list(itertools.accumulate(series[f"per_episode_{name}"]))
        for k, (got, want) in enumerate(zip(series[f"cumulative_{name}"], prefix), 1):
            if got != want:
                problems.append(f"episode {k}: cumulative_{name} {got!r} != prefix sum {want!r}")
    return problems


def _check_trial(trial_dir: Path, learners, output_format: str, episodes: int) -> list[str]:
    problems = []
    try:
        json.loads((trial_dir / "env.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"env.json: {exc}")
    for name in learners:
        metrics_path = trial_dir / name / f"metrics.{output_format}"
        try:
            rows = read_metrics(metrics_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}/{metrics_path.name}: {exc}")
        else:
            problems += [f"{name}/{metrics_path.name}: {p}" for p in check_metric_rows(rows, episodes)]
        try:
            with (trial_dir / name / "trace.jsonl").open() as handle:
                n_lines = sum(1 for _ in handle)
        except OSError as exc:
            problems.append(f"{name}/trace.jsonl: {exc}")
        else:
            if n_lines != episodes:
                problems.append(f"{name}/trace.jsonl: {n_lines} lines, expected {episodes}")
    return problems


def read_aggregate_finals(run_dir, learners, episodes: int) -> dict[str, dict[str, float]]:
    """Last-episode mean of every aggregate series, per learner."""
    finals = {}
    for name in learners:
        path = Path(run_dir) / "aggregate" / f"{name}.csv"
        with path.open() as handle:
            header = handle.readline().rstrip("\n")
            if header != "series,episode,mean,stderr":
                raise ValueError(f"{path.name}: unexpected header {header!r}")
            rows = [line.rstrip("\n").split(",") for line in handle]
        if len(rows) != len(EPISODE_SERIES) * episodes + 1:
            raise ValueError(f"{path.name}: {len(rows)} rows")
        finals[name] = {
            series: float(mean) for series, episode, mean, _ in rows if int(episode) == episodes
        }
    return finals


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REFERENCE_RTOL * max(1.0, abs(want))


def _check_run(run_dir: Path, config: dict, case_study: bool, reference) -> list[str]:
    learners = [spec["name"] for spec in config["learners"]]
    episodes = config["environment"]["n_episodes"]
    problems = []
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if len(manifest["trial_seeds"]) != config["trials"]:
            problems.append("manifest.json: wrong number of trial seeds")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"manifest.json: {exc}")
    try:
        finals = read_aggregate_finals(run_dir, learners, episodes)
    except (OSError, ValueError) as exc:
        return problems + [f"aggregate: {exc}"]
    if case_study:
        ofu = finals["ofulinmat"].get("cumulative_saddle_pseudo", math.nan)
        exp3 = finals["exp3"].get("cumulative_saddle_pseudo", math.nan)
        if not (exp3 > 0 and ofu < CASE_STUDY_MAX_RATIO * exp3):
            problems.append(f"case study: pseudo-regret {ofu!r} (ofulinmat) is not below "
                            f"{CASE_STUDY_MAX_RATIO} x {exp3!r} (exp3)")
    for learner, values in (reference or {}).items():
        for series, want in values.items():
            got = finals.get(learner, {}).get(series, math.nan)
            if not _close(got, want):
                problems.append(f"reference: {learner} {series} {got!r} != {want!r}")
    return problems


def validate_run(
    run_dir, config: dict, returncode: int, case_study: bool = False, reference=None
) -> Validation:
    """Validate a finished run; failed counts trials whose output is not valid."""
    run_dir = Path(run_dir)
    trials = config["trials"]
    result = Validation(attempted=trials)
    if returncode != 0:
        result.failed = trials
        result.problems.append(f"exit code {returncode}")
        return result
    learners = [spec["name"] for spec in config["learners"]]
    output_format = config.get("output_format", "csv")
    episodes = config["environment"]["n_episodes"]

    actual = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
    expected = expected_files(trials, learners, output_format)
    by_trial: dict[str, list[str]] = {}
    run_problems = []
    for path in sorted(actual ^ expected):
        what = "missing" if path in expected else "unexpected"
        parts = path.split("/")
        if parts[0] == "trials" and len(parts) > 2:
            by_trial.setdefault(parts[1], []).append(f"{what} file {path}")
        else:
            run_problems.append(f"{what} file {path}")
    for n in range(trials):
        trial = f"trial_{n:03d}"
        problems = by_trial.pop(trial, [])
        if not problems:
            problems = _check_trial(run_dir / "trials" / trial, learners, output_format, episodes)
        if problems:
            result.failed += 1
            result.problems += [f"{trial}: {p}" for p in problems]
    # Files under trial directories the config never asked for.
    run_problems += [p for problems in by_trial.values() for p in problems]
    run_problems += _check_run(run_dir, config, case_study, reference)
    if run_problems:
        result.failed = trials
        result.problems += run_problems
    return result
