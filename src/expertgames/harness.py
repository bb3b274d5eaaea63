"""Experiment runner: config parsing, multi-trial orchestration, persistence.

The config objects check every value, each under its JSON path; the JSON
reader only maps JSON onto them (object shapes, unknown and missing keys,
``type``, an integral float as a count). So a config built in Python is
refused where its JSON would be, and what it records replays.

Seeds are split hierarchically from one master seed: the environment of trial
n is seeded by (master, n, 0) and each learner/opponent pair by
(master, n, 1|2, learner_index), so adding or removing learners never
perturbs the environment realization, and every learner plays the exact same
ground truth, expert reveals, and noise stream within a trial.

Outputs under the run directory:

    manifest.json                           resolved config + per-trial seeds (written last)
    trials/trial_<n>/<learner>/metrics.csv  long format: series,episode,value
    trials/trial_<n>/<learner>/trace.jsonl  one JSON object per episode
    aggregate/<learner>.csv                 series,episode,mean,stderr
    plot/<learner>.csv                      the aggregate, filtered by ``plot-data``

All floats are written with ``repr`` so replaying a manifest reproduces the
metric files byte for byte. A learner's report for a trial is one float64
column whose layout ``metrics.series_keys`` states. Each trial's files are
written as soon as the trial finishes: the metric file labels the column's
values with those keys, and the column becomes that trial's column of its
learner's aggregate array; no trial's report or traces outlive that step.
The aggregate tables reduce those arrays once the last trial is in.
``manifest.json`` is written last, through a rename, so a run directory
without it is an incomplete run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .agents import (
    BestResponderOpponent,
    Exp3Agent,
    FixedOpponent,
    FixedStrategyAgent,
    OFULinMatAgent,
    SaddleOracleOpponent,
    UniformOpponent,
)
from .environment import (
    ARRAY_BYTE_BUDGET,
    Environment,
    EnvironmentConfig,
    EpisodeTrace,
    ExpertSpec,
    ThetaSpec,
    stray_field,
    type_problem,
)
from .estimator import EstimatorConfig
from .game import MixedStrategy
from .metrics import build_report, series_count, series_keys

# A learner's name becomes a directory and a file name under the run directory.
_LEARNER_NAME = re.compile(r"[A-Za-z0-9_-]+")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries field-level messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _build(cls, where: str, **fields):
    """``cls(**fields)``, whose ValueError becomes a ConfigError under ``where``.

    The message starts with the key at fault (``norm_bound: ...``), or, when it
    is about the object as a whole, with no key.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        key, sep, _ = str(exc).partition(": ")
        joined = f"{where}.{exc}" if sep and " " not in key else f"{where}: {exc}"
        raise ConfigError([joined]) from exc


def _object(section, where: str) -> dict:
    """A JSON object; checked before anything else reads the section."""
    if not isinstance(section, dict):
        raise ConfigError([f"{where}: must be an object"])
    return section


def _check_kind(kind, where: str, tables: dict) -> None:
    kinds = tuple(tables)  # a tuple, so an unhashable value is just not in it
    if kind not in kinds:
        raise ConfigError([f"{where}.type: must be one of {kinds}, got {kind!r}"])


def _check_strategy(strategy, n_actions: int, where: str) -> None:
    """A fixed player's ``n_actions`` probabilities."""
    if len(strategy) != n_actions:
        raise ConfigError(
            [f"{where}.strategy: must list {n_actions} probabilities, got {strategy!r}"]
        )
    _build(MixedStrategy, f"{where}.strategy", probs=strategy)


def _check_keys(spec, where: str, tables: dict) -> None:
    """A learner's or the opponent's type, and the keys of that type: any other
    field stays at its default, a fixed player's strategy is a list of reals
    and every other key a real."""
    _check_kind(spec.kind, where, tables)
    keys = tuple(tables[spec.kind])
    numbers = {"real_lists": keys} if spec.kind == "fixed" else {"reals": keys}
    problem = stray_field(spec, keys) or type_problem(spec, **numbers)
    if problem:
        raise ConfigError([f"{where}.{problem}"])


def _check_learner(spec, where: str, env: EnvironmentConfig) -> None:
    """The rules that join a learner of each type to the environment."""
    _check_keys(spec, where, _LEARNER_KEYS)
    if spec.kind == "ofulinmat":
        _build(EstimatorConfig, where, ridge=spec.ridge, param_bound=spec.param_bound,
               delta=spec.delta, n_experts=env.n_experts)
        floor = ridge_floor(env)
        if spec.ridge < floor:
            raise ConfigError(
                [f"{where}.ridge: must be at least n_experts^2 * n_episodes * "
                 f"rounds_per_episode * 2^-52 = {floor:.3g}, got {spec.ridge:.3g}"]
            )
    elif spec.kind == "exp3":
        if not spec.reward_min < spec.reward_max:
            raise ConfigError([f"{where}: reward_min must be strictly below reward_max"])
    elif spec.kind == "fixed":
        _check_strategy(spec.strategy, env.n_rows, where)


@dataclass(frozen=True)
class LearnerSpec:
    """A learner's type, its output name and the keys of its type. An
    ofulinmat learner's estimator has one coordinate per expert of the
    environment it plays."""

    kind: str
    name: str
    ridge: float | None = None
    param_bound: float | None = None
    delta: float | None = None
    reward_min: float | None = None
    reward_max: float | None = None
    strategy: tuple[float, ...] | None = None

    def build(self, env: EnvironmentConfig, seed):
        """The learner of a trial of ``env``, drawing from ``seed``."""
        if self.kind == "ofulinmat":
            estimator = EstimatorConfig(self.ridge, self.param_bound, self.delta, env.n_experts)
            return OFULinMatAgent(env.n_rows, estimator, seed=seed)
        if self.kind == "exp3":
            return Exp3Agent(
                env.n_rows, seed=seed, reward_min=self.reward_min, reward_max=self.reward_max
            )
        if self.kind == "fixed":
            return FixedStrategyAgent(np.asarray(self.strategy), seed=seed)
        return FixedStrategyAgent.uniform(env.n_rows, seed=seed)


@dataclass(frozen=True)
class OpponentSpec:
    kind: str
    strategy: tuple[float, ...] | None = None

    def build(self, seed):
        if self.kind == "saddle_oracle":
            return SaddleOracleOpponent(seed=seed)
        if self.kind == "uniform":
            return UniformOpponent(seed=seed)
        if self.kind == "best_responder":
            return BestResponderOpponent(seed=seed)
        return FixedOpponent(np.asarray(self.strategy), seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole run. It checks every rule that joins its parts, and every value
    of its learners and opponent, under the JSON path the parser names, so a
    config built in Python fails as its JSON does."""

    environment: EnvironmentConfig
    learners: tuple[LearnerSpec, ...]
    opponent: OpponentSpec
    trials: int = 1
    master_seed: int = 0
    output_format: str = "csv"

    def __post_init__(self):
        problem = type_problem(self, counts=("trials", "master_seed"))
        if problem:
            raise ConfigError([problem])
        if self.trials < 1:
            raise ConfigError(["trials: must be at least 1"])
        if self.master_seed < 0:
            raise ConfigError([f"master_seed: must be nonnegative, got {self.master_seed}"])
        formats = tuple(_METRIC_WRITERS)  # a tuple, so an unhashable value is just not in it
        if self.output_format not in formats:
            raise ConfigError([f"output_format: must be one of {formats}"])
        if not self.learners:
            raise ConfigError(["learners: at least one learner is required"])
        # The aggregate stacks each learner's report columns (17 values per
        # episode, plus one) over all trials into one float64 array.
        rows = series_count(self.environment.n_episodes)
        max_trials = ARRAY_BYTE_BUDGET // (8 * len(self.learners) * rows)
        if self.trials > max_trials:
            raise ConfigError(
                [f"trials: must be at most {max_trials}, so that the aggregate's 8 * trials * "
                 f"len(learners) * (17 * n_episodes + 1) bytes stay within {ARRAY_BYTE_BUDGET}"]
            )
        names = [spec.name for spec in self.learners]
        for index, name in enumerate(names):
            _check_learner(self.learners[index], f"learners[{index}]", self.environment)
            where = f"learners[{index}].name"
            if not isinstance(name, str) or not _LEARNER_NAME.fullmatch(name):
                raise ConfigError([f"{where}: must be letters, digits, '_' or '-', got {name!r}"])
            if name in names[:index]:
                raise ConfigError(
                    [f"{where}: names must be unique, {name!r} is also "
                     f"learners[{names.index(name)}].name (set 'name' to disambiguate)"]
                )
        _check_keys(self.opponent, "opponent", _OPPONENT_KEYS)
        if self.opponent.kind == "fixed":
            _check_strategy(self.opponent.strategy, self.environment.n_cols, "opponent")


# The paper's case study, where it differs from the parser's defaults.
_CASE_STUDY = {
    "environment": {
        "n_rows": 10, "n_cols": 10, "n_experts": 10, "n_episodes": 15, "rounds_per_episode": 200,
        "noise_variance": 0.5, "theta_star": {"mean": 0.5, "norm_bound": 3.0},
    },
    "learners": [{"type": "ofulinmat"}, {"type": "exp3"}],
    "opponent": {"type": "saddle_oracle"},
}


def default_paper_config(trials: int = 20, master_seed: int = 0) -> ExperimentConfig:
    """Case-study defaults: 10x10 games, 10 experts, 15 episodes of 200
    rounds, N(0, 0.5) reward noise, mixing weights drawn from N(0.5, I)
    rejected into the norm-3 ball, the optimistic learner and the
    adversarial-bandit baseline, both against the saddle-point oracle
    opponent."""
    return config_from_dict(dict(_CASE_STUDY, trials=trials, master_seed=master_seed))


# ---------------------------------------------------------------------------
# Config (de)serialization


def _integer(value, where: str):
    """A JSON count or seed: an integral float such as 3.0 becomes an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _matrix_list(value, where: str):
    """Fixed expert matrices: the outer JSON list becomes a tuple."""
    return tuple(value) if isinstance(value, list) else value


# Each config object's keys, as {key: default}; a tagged object has one table
# per "type". An absent key takes its default, and one marked _REQUIRED must be
# present. A JSON value reaches its object as read, or through its key's
# reader in _READERS (below); the object checks it.
_REQUIRED = object()
_THETA_KEYS = {"gaussian": {"mean": 0.5, "norm_bound": None}, "fixed": {"values": _REQUIRED}}
_EXPERT_KEYS = {"uniform": {}, "fixed": {"matrices": _REQUIRED}}
# Exp3's absent bounds become -/+ 3 * sqrt(n_experts) * n_experts once the
# environment is read.
_LEARNER_KEYS = {
    "ofulinmat": {"ridge": 0.1, "param_bound": 3.0, "delta": 3e-3},
    "exp3": {"reward_min": None, "reward_max": None},
    "fixed": {"strategy": _REQUIRED},
    "uniform": {},
}
_OPPONENT_KEYS = {"saddle_oracle": {}, "uniform": {}, "best_responder": {},
                  "fixed": {"strategy": _REQUIRED}}


def _read(section, where: str, keys: dict, other=()) -> dict:
    """Each key of ``keys`` read from the JSON object ``section``, or its
    default; ``other`` keys are left to the caller. ``where`` is the object's
    JSON path, empty for the config itself, whose keys are sections."""
    name = where or "config"
    unknown = sorted(set(_object(section, name)) - set(keys) - set(other))
    if unknown:
        raise ConfigError([f"{name}: unknown key {key!r}" for key in unknown])
    missing = [key for key, default in keys.items() if default is _REQUIRED and key not in section]
    if missing:
        noun = "key" if where else "section"
        raise ConfigError([f"{name}: missing {noun} {key!r}" for key in missing])
    fields = {key: section.get(key, default) for key, default in keys.items()}
    for key in keys:
        if key in section and key in _READERS:
            fields[key] = _READERS[key](section[key], f"{where}.{key}" if where else key)
    return fields


def _read_tagged(section, where: str, tables: dict, default=_REQUIRED, other=()) -> dict:
    """``_read`` of the table that the object's ``type`` picks, as ``kind``."""
    kind = _object(section, where).get("type", default)
    if kind is _REQUIRED:
        raise ConfigError([f"{where}: missing key 'type'"])
    _check_kind(kind, where, tables)
    return {"kind": kind, **_read(section, where, tables[kind], ("type", *other))}


def _tagged(cls, tables: dict, default=_REQUIRED):
    """The reader of a tagged object that builds ``cls``."""
    return lambda section, where: _build(cls, where, **_read_tagged(section, where, tables, default))


def _tagged_dict(spec, tables: dict) -> dict:
    """A tagged spec's ``type`` and its table's keys that are not None."""
    entry = {"type": spec.kind}
    for key in tables[spec.kind]:
        value = getattr(spec, key)
        if value is not None:
            entry[key] = np.asarray(value).tolist() if np.ndim(value) else value
    return entry


def config_to_dict(config: ExperimentConfig) -> dict:
    env = config.environment
    return {
        "environment": {
            **{key: getattr(env, key) for key in (*_SIZES, "noise_variance")},
            "theta_star": _tagged_dict(env.theta, _THETA_KEYS),
            "experts": _tagged_dict(env.experts, _EXPERT_KEYS),
        },
        "learners": [
            {"name": spec.name, **_tagged_dict(spec, _LEARNER_KEYS)} for spec in config.learners
        ],
        "opponent": _tagged_dict(config.opponent, _OPPONENT_KEYS),
        "trials": config.trials,
        "master_seed": config.master_seed,
        "output_format": config.output_format,
    }


_SIZES = ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
_ENVIRONMENT_KEYS = {**dict.fromkeys(_SIZES, _REQUIRED), "noise_variance": 0.0,
                     "theta_star": ThetaSpec(), "experts": ExpertSpec()}


def _environment(section, where: str) -> EnvironmentConfig:
    fields = _read(section, where, _ENVIRONMENT_KEYS)
    fields["theta"] = fields.pop("theta_star")
    return _build(EnvironmentConfig, where, **fields)


def ridge_floor(env: EnvironmentConfig) -> float:
    """The smallest ridge whose estimator folds every row of a run in.

    Features lie in [0, 1]^d. Over a run of T rows the Gram matrix's
    eigenvalues lie in [ridge, ridge + T d], and a fold block of B <= T rows
    factors I + W'W, whose eigenvalues lie in [1, 1 + B d / ridge]. Cholesky
    needs its rounding, about d eps times the largest eigenvalue, to stay
    below the smallest, and ridge >= d^2 T eps keeps both factorizations
    clear. The product is taken in floats, so huge sizes give inf, not an
    error.
    """
    d = float(env.n_experts)
    return d * d * float(env.n_episodes) * float(env.rounds_per_episode) * 2.0**-52


def _learner(section, where: str, env: EnvironmentConfig) -> LearnerSpec:
    fields = _read_tagged(section, where, _LEARNER_KEYS, other=("name",))
    fields["name"] = section.get("name", fields["kind"])
    if fields["kind"] == "exp3":
        clip = 3.0 * math.sqrt(env.n_experts) * env.n_experts
        for key, bound in (("reward_min", -clip), ("reward_max", clip)):
            if key not in section:
                fields[key] = bound
    return LearnerSpec(**fields)


def _learner_list(sections, where: str) -> list:
    """The learner objects, which ``_learner`` reads once the environment is known."""
    if not isinstance(sections, list) or not sections:
        raise ConfigError([f"{where}: must be a non-empty list"])
    return sections


_CONFIG_KEYS = {"environment": _REQUIRED, "learners": _REQUIRED, "opponent": _REQUIRED,
                "trials": 1, "master_seed": 0, "output_format": "csv"}
# The reader of each key whose JSON value is not passed on as read.
_READERS = {
    **dict.fromkeys((*_SIZES, "trials", "master_seed"), _integer),
    "matrices": _matrix_list,
    "theta_star": _tagged(ThetaSpec, _THETA_KEYS, "gaussian"),
    "experts": _tagged(ExpertSpec, _EXPERT_KEYS, "uniform"),
    "environment": _environment,
    "learners": _learner_list,
    "opponent": _tagged(OpponentSpec, _OPPONENT_KEYS),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    fields = _read(raw, "", _CONFIG_KEYS)
    fields["learners"] = tuple(
        _learner(section, f"learners[{i}]", fields["environment"])
        for i, section in enumerate(fields["learners"])
    )
    return ExperimentConfig(**fields)


def _load_json(path):
    """The JSON document in the file at ``path``; a ConfigError if unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_load_json(path))


def load_manifest_config(path) -> ExperimentConfig:
    """The config that the run manifest at ``path`` records."""
    manifest = _load_json(path)
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError([f"config: {path} is not a run manifest: it has no 'config' key"])
    return config_from_dict(manifest["config"])


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunManifest:
    config: dict
    trial_seeds: list[int]
    version: str
    created_at: str
    elapsed_seconds: float


def trial_environment(config: ExperimentConfig, trial: int) -> Environment:
    return Environment(dataclasses.replace(config.environment, seed=[config.master_seed, trial, 0]))


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """Run every configured learner on the same environment realization."""
    env = trial_environment(config, trial)
    learners = {}
    for index, spec in enumerate(config.learners):
        learner_seed = np.random.SeedSequence([config.master_seed, trial, 1, index])
        opponent_seed = np.random.SeedSequence([config.master_seed, trial, 2, index])
        learner = spec.build(config.environment, np.random.default_rng(learner_seed))
        opponent = config.opponent.build(np.random.default_rng(opponent_seed))
        traces = env.run_trial(learner, opponent)
        learners[spec.name] = {"traces": traces, "report": build_report(traces)}
    return {
        "learners": learners,
        "environment": {
            "theta_star": env.theta_star.tolist(),
            "theta_rejections": env.theta_rejections,
        },
    }


def _write_metrics_csv(path: Path, rows) -> None:
    lines = ["series,episode,value"]
    lines += [f"{name},{episode},{value!r}" for (name, episode), value in rows]
    path.write_text("\n".join(lines) + "\n")


def _json_float(value: float) -> str:
    """A float spelled as ``json.dumps`` spells it: its repr, or NaN/Infinity/-Infinity."""
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _write_metrics_jsonl(path: Path, rows) -> None:
    """One ``json.dumps(row, sort_keys=True)`` line per row, formatted without the encoder."""
    names: dict[str, str] = {}  # each series name repeats once per episode; encode it once
    lines = []
    for (name, episode), value in rows:
        if name not in names:
            names[name] = json.dumps(name)
        value_json = _json_float(value)
        lines.append(f'{{"episode": {episode}, "series": {names[name]}, "value": {value_json}}}')
    path.write_text("\n".join(lines) + "\n")


# The metrics writer of each ``output_format``, which is also the file suffix.
# Each takes ((series, episode), value) rows: ``series_keys`` zipped with a report.
_METRIC_WRITERS = {"csv": _write_metrics_csv, "jsonl": _write_metrics_jsonl}


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


def _write_aggregate_csv(path: Path, rows) -> None:
    lines = [_AGGREGATE_HEADER]
    lines += [f"{name},{episode},{mean!r},{stderr!r}" for name, episode, mean, stderr in rows]
    path.write_text("\n".join(lines) + "\n")


def check_workers(workers: int) -> int:
    """Return ``workers`` if ``run_experiment`` accepts it (at least 1), else raise ValueError."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1) -> RunManifest:
    """Run all trials, persist per-trial and aggregate outputs, return the manifest.

    Trials run in a pool of ``min(workers, trials)`` processes when that is
    more than one; the pool starts all of its workers up front. Either way
    results arrive in trial order. Each trial's files are written as its
    result arrives, and each learner's report becomes the trial's column of
    that learner's (rows, trials) aggregate array, so across trials a run
    keeps only those arrays. ``manifest.json`` is written last, through a rename.
    """
    check_workers(workers)
    start = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)  # a stale manifest would mark this run complete
    # A previous run's trials beyond this run's count, or its plot tables,
    # would otherwise pass for this run's outputs. Other names are left alone.
    for stale in ("trials", "aggregate", "plot"):
        if (out / stale).is_dir():
            shutil.rmtree(out / stale)

    write_metrics = _METRIC_WRITERS[config.output_format]
    keys = series_keys(config.environment.n_episodes)
    aggregates = {spec.name: np.empty((len(keys), config.trials)) for spec in config.learners}
    workers = min(workers, config.trials)
    pool = None
    if workers > 1:
        import concurrent.futures  # a serial run loads neither the pool nor logging

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    with pool or contextlib.nullcontext():
        mapper = pool.map if pool else map
        for n, result in enumerate(mapper(run_trial, itertools.repeat(config), range(config.trials))):
            trial_root = out / "trials" / f"trial_{n:03d}"
            trial_root.mkdir(parents=True, exist_ok=True)
            (trial_root / "env.json").write_text(
                json.dumps(result["environment"], sort_keys=True) + "\n"
            )
            for name, payload in result["learners"].items():
                learner_dir = trial_root / name
                learner_dir.mkdir(exist_ok=True)
                report = payload["report"]
                write_metrics(
                    learner_dir / f"metrics.{config.output_format}", zip(keys, report.tolist())
                )
                _write_trace_jsonl(learner_dir / "trace.jsonl", payload["traces"])
                aggregates[name][:, n] = report
            del result, payload  # trial n's traces go before trial n + 1 runs

    aggregate_dir = out / "aggregate"
    aggregate_dir.mkdir(exist_ok=True)
    for name, values in aggregates.items():
        _write_aggregate_csv(aggregate_dir / f"{name}.csv", aggregate_series(keys, values))

    manifest = RunManifest(
        config=config_to_dict(config),
        trial_seeds=[hash_seed(config.master_seed, n) for n in range(config.trials)],
        version=__version__,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(start)),
        elapsed_seconds=time.time() - start,
    )
    partial = out / "manifest.json.tmp"
    partial.write_text(json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n")
    os.replace(partial, manifest_path)
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
        if series is not None:
            missing = sorted(set(series) - {row.split(",", 1)[0] for row in rows})
            if missing:
                raise KeyError(f"series not present in run outputs: {', '.join(missing)}")
            rows = [row for row in rows if row.split(",", 1)[0] in series]
        if not rows:
            raise KeyError("no series selected")
        tables[path.stem] = rows
    if not tables:
        raise FileNotFoundError(f"no aggregate tables under {run / 'aggregate'}")
    return tables


def write_plot_tables(tables: dict[str, list[str]], out: Path) -> list[Path]:
    """Write each learner's rows from ``read_plot_tables`` to ``<out>/<learner>.csv``."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for learner, rows in tables.items():
        path = out / f"{learner}.csv"
        path.write_text("\n".join([_AGGREGATE_HEADER, *rows]) + "\n")
        written.append(path)
    return written
