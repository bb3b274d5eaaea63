"""Experiment runner: config parsing, multi-trial orchestration, persistence.

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
metric files byte for byte. Each trial's files are written as soon as the
trial finishes; ``manifest.json`` is written last, through a rename, so a run
directory without it is an incomplete run.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import sys
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
from .environment import Environment, EnvironmentConfig, ExpertSpec, ThetaSpec
from .estimator import EstimatorConfig
from .game import MixedStrategy
from .metrics import build_report

OUTPUT_FORMATS = ("csv", "jsonl")
# A learner's name becomes a directory and a file name under the run directory.
_LEARNER_NAME = re.compile(r"[A-Za-z0-9_-]+")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries field-level messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _require_keys(section: dict, allowed: set[str], where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError([f"{where}: unknown key {key!r}" for key in unknown])


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


def _integer(value, where: str) -> int:
    """A JSON count or seed: an integral number, never a bool (JSON true is 1)."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if real and abs(value) > sys.float_info.max:  # float() would overflow
        raise ConfigError([f"{where}: must be at most {sys.float_info.max:.4g} in magnitude"])
    if real and float(value).is_integer():
        return int(value)
    raise ConfigError([f"{where}: must be an integer, got {value!r}"])


def _number(value, where: str) -> float:
    """A JSON real: a finite number, never a bool (JSON true is 1)."""
    # NaN fails the comparison; an int beyond the float range never reaches float().
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError([f"{where}: must be a finite number, got {value!r}"])


def _strategy(values, n_actions: int, where: str) -> tuple[float, ...]:
    """A fixed mixed strategy over ``n_actions`` actions."""
    if not isinstance(values, (list, tuple)) or len(values) != n_actions:
        raise ConfigError([f"{where}: must list {n_actions} probabilities, got {values!r}"])
    try:
        MixedStrategy(np.array(values, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"{where}: {exc}"]) from exc
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    name: str
    estimator: EstimatorConfig | None = None
    reward_min: float | None = None
    reward_max: float | None = None
    strategy: tuple[float, ...] | None = None

    def build(self, n_actions: int, seed):
        if self.kind == "ofulinmat":
            return OFULinMatAgent(n_actions, self.estimator, seed=seed)
        if self.kind == "exp3":
            return Exp3Agent(
                n_actions, seed=seed, reward_min=self.reward_min, reward_max=self.reward_max
            )
        if self.kind == "fixed":
            return FixedStrategyAgent(np.asarray(self.strategy), seed=seed)
        if self.kind == "uniform":
            return FixedStrategyAgent.uniform(n_actions, seed=seed)
        raise ConfigError([f"learner: unknown type {self.kind!r}"])


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
        if self.kind == "fixed":
            return FixedOpponent(np.asarray(self.strategy), seed=seed)
        raise ConfigError([f"opponent: unknown type {self.kind!r}"])


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentConfig
    learners: tuple[LearnerSpec, ...]
    opponent: OpponentSpec
    trials: int = 1
    master_seed: int = 0
    output_format: str = "csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(["trials: must be at least 1"])
        if self.master_seed < 0:
            raise ConfigError([f"master_seed: must be nonnegative, got {self.master_seed}"])
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError([f"output_format: must be one of {OUTPUT_FORMATS}"])
        if not self.learners:
            raise ConfigError(["learners: at least one learner is required"])
        names = [spec.name for spec in self.learners]
        for index, name in enumerate(names):
            where = f"learners[{index}].name"
            if not isinstance(name, str) or not _LEARNER_NAME.fullmatch(name):
                raise ConfigError([f"{where}: must be letters, digits, '_' or '-', got {name!r}"])
            if name in names[:index]:
                raise ConfigError(
                    [f"{where}: names must be unique, {name!r} is also "
                     f"learners[{names.index(name)}].name (set 'name' to disambiguate)"]
                )


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


def config_to_dict(config: ExperimentConfig) -> dict:
    env = config.environment
    learners = []
    for spec in config.learners:
        entry: dict = {"type": spec.kind, "name": spec.name}
        if spec.kind == "ofulinmat":
            est = spec.estimator
            entry.update(
                ridge=est.ridge,
                param_bound=est.param_bound,
                delta=est.delta,
            )
        elif spec.kind == "exp3":
            entry.update(reward_min=spec.reward_min, reward_max=spec.reward_max)
        elif spec.kind == "fixed":
            entry.update(strategy=list(spec.strategy))
        learners.append(entry)
    opponent: dict = {"type": config.opponent.kind}
    if config.opponent.strategy is not None:
        opponent["strategy"] = list(config.opponent.strategy)
    theta: dict = {"type": env.theta.kind}
    if env.theta.kind == "fixed":
        theta["values"] = list(env.theta.values)
    else:
        theta["mean"] = env.theta.mean
        if env.theta.norm_bound is not None:
            theta["norm_bound"] = env.theta.norm_bound
    experts: dict = {"type": env.experts.kind}
    if env.experts.kind == "fixed":
        experts["matrices"] = np.asarray(env.experts.matrices).tolist()
    return {
        "environment": {
            "n_rows": env.n_rows,
            "n_cols": env.n_cols,
            "n_experts": env.n_experts,
            "n_episodes": env.n_episodes,
            "rounds_per_episode": env.rounds_per_episode,
            "noise_variance": env.noise_variance,
            "theta_star": theta,
            "experts": experts,
        },
        "learners": learners,
        "opponent": opponent,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "output_format": config.output_format,
    }


def _parse_theta(section) -> ThetaSpec:
    where = "environment.theta_star"
    kind = _object(section, where).get("type", "gaussian")
    if kind == "fixed":
        _require_keys(section, {"type", "values"}, where)
        if "values" not in section:
            raise ConfigError([f"{where}: fixed weights need 'values'"])
        values = section["values"]
        if not isinstance(values, (list, tuple)):
            raise ConfigError([f"{where}.values: must be a list of weights, got {values!r}"])
        fields = {"values": tuple(_number(v, f"{where}.values[{k}]") for k, v in enumerate(values))}
    elif kind == "gaussian":
        _require_keys(section, {"type", "mean", "norm_bound"}, where)
        fields = {"mean": _number(section.get("mean", 0.5), f"{where}.mean"), "norm_bound": None}
        if section.get("norm_bound") is not None:
            fields["norm_bound"] = _number(section["norm_bound"], f"{where}.norm_bound")
    else:
        raise ConfigError([f"{where}.type: must be 'gaussian' or 'fixed', got {kind!r}"])
    return _build(ThetaSpec, where, kind=kind, **fields)


def _expert_stack(values, where: str) -> tuple:
    """Fixed expert matrices: a nested list of numbers, not booleans."""
    try:
        stack = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ConfigError([f"{where}: {exc}"]) from exc
    # A bool beside a number would be cast to 0.0/1.0, so look at the leaves too.
    if stack.dtype.kind not in "iuf" or any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ConfigError([f"{where}: must be a nested list of numbers, not booleans"])
    return tuple(values)


def _parse_experts(section) -> ExpertSpec:
    where = "environment.experts"
    kind = _object(section, where).get("type", "uniform")
    if kind == "fixed":
        _require_keys(section, {"type", "matrices"}, where)
        if "matrices" not in section:
            raise ConfigError([f"{where}: fixed experts need 'matrices'"])
        matrices = _expert_stack(section["matrices"], f"{where}.matrices")
        return _build(ExpertSpec, where, kind="fixed", matrices=matrices)
    if kind != "uniform":
        raise ConfigError([f"{where}.type: must be 'uniform' or 'fixed', got {kind!r}"])
    _require_keys(section, {"type"}, where)
    return ExpertSpec(kind="uniform")


def _parse_environment(section) -> EnvironmentConfig:
    allowed = {
        "n_rows",
        "n_cols",
        "n_experts",
        "n_episodes",
        "rounds_per_episode",
        "noise_variance",
        "theta_star",
        "experts",
    }
    _require_keys(_object(section, "environment"), allowed, "environment")
    counts = ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
    missing = [k for k in counts if k not in section]
    if missing:
        raise ConfigError([f"environment: missing key {k!r}" for k in missing])
    sizes = {k: _integer(section[k], f"environment.{k}") for k in counts}
    noise_variance = _number(section.get("noise_variance", 0.0), "environment.noise_variance")
    return _build(
        EnvironmentConfig,
        "environment",
        **sizes,
        noise_variance=noise_variance,
        theta=_parse_theta(section.get("theta_star", {})),
        experts=_parse_experts(section.get("experts", {})),
    )


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


def _parse_learner(section, index: int, env: EnvironmentConfig) -> LearnerSpec:
    where = f"learners[{index}]"
    kind = _object(section, where).get("type")
    if kind == "ofulinmat":
        _require_keys(section, {"type", "name", "ridge", "param_bound", "delta"}, where)
        defaults = {"ridge": 0.1, "param_bound": 3.0, "delta": 3e-3}
        numbers = {k: _number(section.get(k, v), f"{where}.{k}") for k, v in defaults.items()}
        estimator = _build(EstimatorConfig, where, **numbers, n_experts=env.n_experts)
        floor = ridge_floor(env)
        if estimator.ridge < floor:
            raise ConfigError(
                [f"{where}.ridge: must be at least n_experts^2 * n_episodes * "
                 f"rounds_per_episode * 2^-52 = {floor:.3g}, got {estimator.ridge:.3g}"]
            )
        return LearnerSpec(kind=kind, name=section.get("name", "ofulinmat"), estimator=estimator)
    if kind == "exp3":
        _require_keys(section, {"type", "name", "reward_min", "reward_max"}, where)
        default_clip = 3.0 * math.sqrt(env.n_experts) * env.n_experts
        lo = _number(section.get("reward_min", -default_clip), f"{where}.reward_min")
        hi = _number(section.get("reward_max", default_clip), f"{where}.reward_max")
        if not lo < hi:
            raise ConfigError([f"{where}: reward_min must be strictly below reward_max"])
        return LearnerSpec(kind=kind, name=section.get("name", "exp3"), reward_min=lo, reward_max=hi)
    if kind == "fixed":
        _require_keys(section, {"type", "name", "strategy"}, where)
        if "strategy" not in section:
            raise ConfigError([f"{where}: fixed learner needs 'strategy'"])
        return LearnerSpec(
            kind=kind,
            name=section.get("name", "fixed"),
            strategy=_strategy(section["strategy"], env.n_rows, f"{where}.strategy"),
        )
    if kind == "uniform":
        _require_keys(section, {"type", "name"}, where)
        return LearnerSpec(kind=kind, name=section.get("name", "uniform"))
    raise ConfigError([f"{where}: unknown or missing learner type {kind!r}"])


def _parse_opponent(section, env: EnvironmentConfig) -> OpponentSpec:
    _require_keys(_object(section, "opponent"), {"type", "strategy"}, "opponent")
    kind = section.get("type")
    if kind in ("saddle_oracle", "uniform", "best_responder"):
        return OpponentSpec(kind=kind)
    if kind == "fixed":
        if "strategy" not in section:
            raise ConfigError(["opponent: fixed opponent needs 'strategy'"])
        return OpponentSpec(
            kind=kind, strategy=_strategy(section["strategy"], env.n_cols, "opponent.strategy")
        )
    raise ConfigError([f"opponent: unknown or missing type {kind!r}"])


def config_from_dict(raw: dict) -> ExperimentConfig:
    allowed = {"environment", "learners", "opponent", "trials", "master_seed", "output_format"}
    _require_keys(_object(raw, "config"), allowed, "config")
    for key in ("environment", "learners", "opponent"):
        if key not in raw:
            raise ConfigError([f"config: missing section {key!r}"])
    env = _parse_environment(raw["environment"])
    learner_sections = raw["learners"]
    if not isinstance(learner_sections, list) or not learner_sections:
        raise ConfigError(["learners: must be a non-empty list"])
    learners = tuple(
        _parse_learner(section, i, env) for i, section in enumerate(learner_sections)
    )
    return ExperimentConfig(
        environment=env,
        learners=learners,
        opponent=_parse_opponent(raw["opponent"], env),
        trials=_integer(raw.get("trials", 1), "trials"),
        master_seed=_integer(raw.get("master_seed", 0), "master_seed"),
        output_format=str(raw.get("output_format", "csv")),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    return config_from_dict(raw)


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
        learner = spec.build(config.environment.n_rows, np.random.default_rng(learner_seed))
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_metrics_csv(path: Path, report) -> None:
    lines = ["series,episode,value"]
    lines += [f"{name},{episode},{_fmt(value)}" for name, episode, value in report.series_rows()]
    path.write_text("\n".join(lines) + "\n")


def _json_float(value: float) -> str:
    """A float spelled as ``json.dumps`` spells it: its repr, or NaN/Infinity/-Infinity."""
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _write_metrics_jsonl(path: Path, report) -> None:
    """One ``json.dumps(row, sort_keys=True)`` line per row, formatted without the encoder."""
    names: dict[str, str] = {}  # each series name repeats once per episode; encode it once
    lines = []
    for name, episode, value in report.series_rows():
        if name not in names:
            names[name] = json.dumps(name)
        value_json = _json_float(value)
        lines.append(f'{{"episode": {episode}, "series": {names[name]}, "value": {value_json}}}')
    path.write_text("\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_trace_jsonl(path: Path, traces) -> None:
    with path.open("w") as handle:
        for trace in traces:
            record = {
                "episode": trace.episode,
                "row_actions": trace.row_actions.tolist(),
                "col_actions": trace.col_actions.tolist(),
                "rewards": trace.rewards.tolist(),
                "true_value": trace.true_value,
                "learner_strategy": _jsonable(trace.learner_strategy),
                "opponent_strategy": _jsonable(trace.opponent_strategy),
                "theta_hat": _jsonable(trace.theta_hat),
                "beta": trace.beta,
                "theta_error": trace.theta_error,
                "metrics": _jsonable(trace.metrics),
                "diagnostics": _jsonable(trace.diagnostics),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def aggregate_series(reports) -> dict[str, np.ndarray]:
    """Stack (series, episode) -> values across trials into mean and stderr."""
    table: dict[str, dict[int, list[float]]] = {}
    for report in reports:
        for name, episode, value in report.series_rows():
            table.setdefault(name, {}).setdefault(episode, []).append(value)
    out = {}
    for name, by_episode in table.items():
        episodes = sorted(by_episode)
        values = np.array([by_episode[k] for k in episodes])
        mean = values.mean(axis=1)
        if values.shape[1] > 1:
            stderr = values.std(axis=1, ddof=1) / math.sqrt(values.shape[1])
        else:
            stderr = np.zeros(len(episodes))
        out[name] = np.column_stack([episodes, mean, stderr])
    return out


_AGGREGATE_HEADER = "series,episode,mean,stderr"


def _write_aggregate_csv(path: Path, aggregated: dict[str, np.ndarray]) -> None:
    lines = [_AGGREGATE_HEADER]
    for name in sorted(aggregated):
        for episode, mean, stderr in aggregated[name]:
            lines.append(f"{name},{int(episode)},{_fmt(float(mean))},{_fmt(float(stderr))}")
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
    results arrive in trial order, and each trial's files are written as its
    result arrives, so only the reports of finished trials stay in memory.
    ``manifest.json`` is written last, through a rename.
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

    write_metrics = _write_metrics_csv if config.output_format == "csv" else _write_metrics_jsonl
    suffix = "csv" if config.output_format == "csv" else "jsonl"
    reports: dict[str, list] = {spec.name: [] for spec in config.learners}
    workers = min(workers, config.trials)
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
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
                write_metrics(learner_dir / f"metrics.{suffix}", payload["report"])
                _write_trace_jsonl(learner_dir / "trace.jsonl", payload["traces"])
                reports[name].append(payload["report"])

    aggregate_dir = out / "aggregate"
    aggregate_dir.mkdir(exist_ok=True)
    for name, learner_reports in reports.items():
        _write_aggregate_csv(aggregate_dir / f"{name}.csv", aggregate_series(learner_reports))

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


def replay_manifest(manifest_path, out_dir, workers: int = 1) -> RunManifest:
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    config = config_from_dict(manifest["config"])
    return run_experiment(config, out_dir, workers=workers)


# ---------------------------------------------------------------------------
# Plot data


def emit_plot_data(run_dir, out_dir=None, series: list[str] | None = None) -> list[Path]:
    """Write each learner's aggregate (series, episode, mean, stderr) table of a
    finished run, keeping only the rows of ``series`` (default: all), to
    ``out_dir`` (default: ``<run>/plot``)."""
    out = Path(out_dir) if out_dir is not None else Path(run_dir) / "plot"
    return write_plot_tables(read_plot_tables(run_dir, series), out)


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
