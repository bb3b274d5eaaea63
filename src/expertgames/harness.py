"""Experiment runner: config parsing, multi-trial orchestration, persistence.

The config dataclasses are the one schema: their fields are the JSON keys,
their field defaults the keys' defaults, and a tagged spec's ``KINDS`` its
types and each type's keys. The JSON reader and writer derive theirs from
them, and the objects check every value, each under its JSON path, so a
config built in Python is read, refused and recorded as its JSON is.

A config is checked once, when it is built. Trial n's environment is that
config seeded by (master, n, 0), and each learner/opponent pair is seeded by
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
import functools
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

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
    kind_problem,
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


def _check_strategy(strategy, n_actions: int, where: str) -> None:
    """A fixed player's ``n_actions`` probabilities."""
    if len(strategy) != n_actions:
        raise ConfigError(
            [f"{where}.strategy: must list {n_actions} probabilities, got {strategy!r}"]
        )
    _build(MixedStrategy, f"{where}.strategy", probs=strategy)


def _check_keys(spec, where: str) -> None:
    """A learner's or the opponent's type, and the keys of that type: any other
    field stays at its default, a fixed player's strategy is a list of reals
    and every other key a real."""
    problem = kind_problem(spec)
    if not problem:
        keys = spec.KINDS[spec.kind]
        problem = type_problem(spec, **{"real_lists" if spec.kind == "fixed" else "reals": keys})
    if problem:
        raise ConfigError([f"{where}.{problem}"])


def _check_learner(spec, where: str, env: EnvironmentConfig) -> None:
    """The rules that join a learner of each type to the environment."""
    _check_keys(spec, where)
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
    """A learner's type, its output name (by default its type) and the keys of
    its type. An ofulinmat learner's estimator has one coordinate per expert
    of the environment it plays; ``ExperimentConfig`` sets an exp3 learner's
    bounds left at None to the clip of that environment."""

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "ofulinmat": ("ridge", "param_bound", "delta"),
        "exp3": ("reward_min", "reward_max"),
        "fixed": ("strategy",),
        "uniform": (),
    }

    kind: str
    name: str | None = None
    ridge: float = 0.1
    param_bound: float = 3.0
    delta: float = 3e-3
    reward_min: float | None = None
    reward_max: float | None = None
    strategy: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.kind)

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
    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "saddle_oracle": (), "uniform": (), "best_responder": (), "fixed": ("strategy",),
    }

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


def _exp3_clip(spec: LearnerSpec, env: EnvironmentConfig) -> LearnerSpec:
    """``spec``, whose exp3 bounds left at None become -/+ 3 * sqrt(n_experts) * n_experts."""
    clip = 3.0 * math.sqrt(env.n_experts) * env.n_experts
    bounds = {"reward_min": -clip, "reward_max": clip} if spec.kind == "exp3" else {}
    return dataclasses.replace(spec, **{k: v for k, v in bounds.items() if getattr(spec, k) is None})


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
        env = self.environment
        # The manifest records the clip, so it replays without this step.
        object.__setattr__(self, "learners", tuple(_exp3_clip(spec, env) for spec in self.learners))
        # The aggregate stacks each learner's report columns (17 values per
        # episode, plus one) over all trials into one float64 array.
        rows = series_count(env.n_episodes)
        max_trials = ARRAY_BYTE_BUDGET // (8 * len(self.learners) * rows)
        if self.trials > max_trials:
            raise ConfigError(
                [f"trials: must be at most {max_trials}, so that the aggregate's 8 * trials * "
                 f"len(learners) * (17 * n_episodes + 1) bytes stay within {ARRAY_BYTE_BUDGET}"]
            )
        if self.trial_bytes > ARRAY_BYTE_BUDGET:
            raise ConfigError([f"learners: a trial's arrays and {len(self.learners)} learners' "
                               f"traces take {self.trial_bytes:.3g} bytes, beyond the budget "
                               f"of {ARRAY_BYTE_BUDGET} bytes"])
        names = [spec.name for spec in self.learners]
        for index, name in enumerate(names):
            _check_learner(self.learners[index], f"learners[{index}]", env)
            where = f"learners[{index}].name"
            if not isinstance(name, str) or not _LEARNER_NAME.fullmatch(name):
                raise ConfigError([f"{where}: must be letters, digits, '_' or '-', got {name!r}"])
            if name in names[:index]:
                raise ConfigError(
                    [f"{where}: names must be unique, {name!r} is also "
                     f"learners[{names.index(name)}].name (set 'name' to disambiguate)"]
                )
        _check_keys(self.opponent, "opponent")
        if self.opponent.kind == "fixed":
            _check_strategy(self.opponent.strategy, env.n_cols, "opponent")

    @property
    def trial_bytes(self) -> float:
        """The bytes a trial holds: the environment's arrays, and each learner's
        traces, whose rows, columns and rewards take 24 bytes per round."""
        env = self.environment
        traces = 24.0 * float(env.n_episodes) * float(env.rounds_per_episode)
        return env.array_bytes + traces * len(self.learners)


def default_paper_config(trials: int = 20, master_seed: int = 0) -> ExperimentConfig:
    """Case-study defaults: 10x10 games, 10 experts, 15 episodes of 200
    rounds, N(0, 0.5) reward noise, mixing weights drawn from N(0.5, I)
    rejected into the norm-3 ball, the optimistic learner and the
    adversarial-bandit baseline, both against the saddle-point oracle
    opponent."""
    env = EnvironmentConfig(n_rows=10, n_cols=10, n_experts=10, n_episodes=15,
                            rounds_per_episode=200, noise_variance=0.5,
                            theta_star=ThetaSpec(norm_bound=3.0))
    return ExperimentConfig(env, (LearnerSpec("ofulinmat"), LearnerSpec("exp3")),
                            OpponentSpec("saddle_oracle"), trials=trials, master_seed=master_seed)


# ---------------------------------------------------------------------------
# Config (de)serialization


def _keys(cls, kind) -> dict:
    """The JSON keys of ``cls``'s fields of type ``kind``: every field, ``kind``
    as ``type``; a tagged spec's ``KINDS`` drops the keys of its other types.
    An unknown type keeps every field, so that its object names the type at
    fault."""
    found = dataclasses.fields(cls)
    kinds = getattr(cls, "KINDS", {})
    if kind in tuple(kinds):  # a tuple, so an unhashable value is just not in it
        owned = {key for keys in kinds.values() for key in keys}
        found = [f for f in found if f.name in kinds[kind] or f.name not in owned]
    return {"type" if f.name == "kind" else f.name: f for f in found}


def _integer(value, where: str):
    """A JSON count or seed: an integral float such as 3.0 becomes an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _read(section, where: str, cls):
    """``cls`` built from the JSON object ``section``, whose ``type`` (or its
    default) picks its keys. An absent key takes its field's default; one
    without is missing. ``where`` is the object's JSON path, empty for the
    config itself, whose keys are sections. A JSON value reaches its object as
    read, or through its key's reader; the object checks it."""
    name = where or "config"
    if not isinstance(section, dict):
        raise ConfigError([f"{name}: must be an object"])
    # A dataclass holds a field's default as a class attribute: the default type.
    keys = _keys(cls, section.get("type", getattr(cls, "kind", None)))
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError([f"{name}: unknown key {key!r}" for key in unknown])
    missing = [key for key, f in keys.items() if key not in section
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        noun = "key" if where else "section"
        raise ConfigError([f"{name}: missing {noun} {key!r}" for key in missing])
    fields = {}
    for key, f in keys.items():
        if key in section:
            reader = _READERS.get(key, _integer if f.type == "int" else None)
            path = f"{where}.{key}" if where else key
            fields[f.name] = reader(section[key], path) if reader else section[key]
    return _build(cls, where, **fields) if where else cls(**fields)


def _learner_list(sections, where: str) -> tuple:
    """The learner objects of the JSON list ``sections``."""
    if not isinstance(sections, list) or not sections:
        raise ConfigError([f"{where}: must be a non-empty list"])
    return tuple(_read(section, f"{where}[{i}]", LearnerSpec) for i, section in enumerate(sections))


# The reader of each key whose JSON value is neither passed on as read nor a
# count (a field annotated ``int``).
_READERS = {
    "theta_star": functools.partial(_read, cls=ThetaSpec),
    "experts": functools.partial(_read, cls=ExpertSpec),
    "environment": functools.partial(_read, cls=EnvironmentConfig),
    "learners": _learner_list,
    "opponent": functools.partial(_read, cls=OpponentSpec),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _read(raw, "", ExperimentConfig)


def config_to_dict(config) -> dict:
    """A config object as JSON: each of its keys (``_keys``) whose value is
    not None, a nested config object as its own dict and an array or a tuple
    of numbers as a list."""
    entry = {}
    for key, f in _keys(type(config), getattr(config, "kind", None)).items():
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            value = config_to_dict(value)
        elif f.name == "learners":
            value = [config_to_dict(spec) for spec in value]
        elif np.ndim(value):
            value = np.asarray(value).tolist()
        if value is not None:
            entry[key] = value
    return entry


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


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """Run every configured learner on the same environment realization."""
    env = Environment(config.environment, [config.master_seed, trial, 0])
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


# A pool worker's config, which the pool's initializer sets once per worker.
_WORKER_CONFIG: ExperimentConfig | None = None


def _set_worker_config(config: ExperimentConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _run_worker_trial(trial: int) -> dict:
    """``run_trial`` of the worker's config: a task carries only its trial number."""
    return run_trial(_WORKER_CONFIG, trial)


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
    more than one; the pool starts all of its workers up front, and hands
    each the config once, so a task is only a trial number. Either way
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
    # would otherwise pass for this run's outputs, and a file or a link by one
    # of these names would block them. Other names are left alone.
    for stale in (out / "trials", out / "aggregate", out / "plot"):
        if stale.is_dir() and not stale.is_symlink():
            shutil.rmtree(stale)
        else:
            stale.unlink(missing_ok=True)

    write_metrics = _METRIC_WRITERS[config.output_format]
    keys = series_keys(config.environment.n_episodes)
    aggregates = {spec.name: np.empty((len(keys), config.trials)) for spec in config.learners}
    workers = min(workers, config.trials)
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
