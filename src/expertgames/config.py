"""The experiment config: its objects, their checks, and its JSON reader and writer.

The config dataclasses are the one schema: their fields are the JSON keys,
their defaults the keys' defaults, and a tagged spec's ``KINDS`` its types
and each type's keys; the JSON reader and writer derive theirs from them. A
config is checked once, when it is built: each object checks every value it
holds, under its JSON path, and holds each real it accepts as a float, so a
config built in Python is read, refused and recorded as its JSON is.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
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
    reward_range_problem,
)
from .estimator import EstimatorConfig
from .game import check_strategy
from .metrics import series_count

_THETA_DRAW_LIMIT = 100_000
# The largest payoff a true game may reach. A run sums payoffs over rounds,
# the ridge estimator divides such sums by its ridge, and the aggregate's
# standard error squares the cumulative series. The square root of the float
# maximum is 1.3e154, so this limit leaves a factor of 1e54 for rounds,
# trials and the ridge, more than any run that can finish needs.
PAYOFF_LIMIT = 1e100
# Standard normal draws are taken to stay within this many standard
# deviations: a draw beyond it has probability below 1e-340.
_NORMAL_REACH = 40.0
# A bound on what a trial holds: the environment's float64 arrays (the noise
# table, one episode's expert stack and true game, and fixed experts' array of
# every stack, which the config holds and every trial shares) and every
# learner's traces, 24 bytes per round.
ARRAY_BYTE_BUDGET = 2**30


def type_problem(config, counts=(), reals=(), real_lists=()) -> str | None:
    """The first of ``config``'s ``counts`` that is not an int, ``reals`` that
    is neither an int nor a float, or ``real_lists`` that is not a list, tuple
    or array of such reals, as a message naming the field or entry
    (``strategy[1]: ...``), or None. Bools are neither, and every number must
    be finite within the float range: a numpy scalar would fail writing the
    manifest, and a huge int overflows float arithmetic. Each real accepted is
    set to a float, and each list to a tuple of floats, so a config built in
    Python holds, computes and records what its JSON does; ``+ 0.0`` turns a
    -0.0 into 0.0, so no real is a negative zero (``sqrt(-0.0)`` is -0.0)."""
    for name in real_lists:
        if not isinstance(getattr(config, name), (list, tuple, np.ndarray)):
            return f"{name}: must be a list of numbers, got {getattr(config, name)!r}"
    checks = [(name, getattr(config, name), int) for name in counts]
    checks += [(name, getattr(config, name), float) for name in reals]
    checks += [(f"{name}[{k}]", value, float)
               for name in real_lists for k, value in enumerate(getattr(config, name))]
    for where, value, kind in checks:
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            return f"{where}: must be an int{'' if kind is int else ' or a float'}, got {value!r}"
        if not abs(value) <= sys.float_info.max:  # exact for an int; NaN fails too
            return f"{where}: must be finite and within the float range, got {value!r}"
    for name in reals:
        object.__setattr__(config, name, float(getattr(config, name)) + 0.0)
    for name in real_lists:
        object.__setattr__(config, name, tuple(float(v) + 0.0 for v in getattr(config, name)))
    return None


def stray_field(spec, keys) -> str | None:
    """The first field of ``spec`` off its default that is not ``kind``, ``name``
    or one of ``keys``, its type's keys, as a message, or None. No JSON config
    can set such a field, and no run or manifest reads it."""
    for f in fields(spec):
        if f.name in ("kind", "name", *keys):
            continue
        value = getattr(spec, f.name)
        if value is not None if f.default is None else value != f.default:
            return f"{f.name}: not a key of type {spec.kind!r}; leave it at {f.default!r}"
    return None


def kind_problem(spec) -> str | None:
    """A tagged spec's ``kind`` outside its ``KINDS``, or a field its kind has
    no key for off its default (``stray_field``), as a message, or None."""
    kinds = tuple(spec.KINDS)  # a tuple, so an unhashable value is just not in it
    if spec.kind not in kinds:
        return f"type: must be one of {kinds}, got {spec.kind!r}"
    return stray_field(spec, spec.KINDS[spec.kind])


@dataclass(frozen=True)
class ThetaSpec:
    """How the true mixing weights are chosen: an explicit vector, or a
    Gaussian draw (mean * ones, identity covariance) rejection-sampled into
    the norm ball when a bound is given."""

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "gaussian": ("mean", "norm_bound"), "fixed": ("values",),
    }

    kind: str = "gaussian"
    values: tuple[float, ...] | None = None
    mean: float = 0.5
    norm_bound: float | None = None

    def __post_init__(self):
        problem = kind_problem(self)
        if not problem and self.kind == "fixed":
            problem = type_problem(self, real_lists=self.KINDS["fixed"])
        elif not problem:  # a norm_bound of None means no ball
            reals = ("mean",) if self.norm_bound is None else self.KINDS["gaussian"]
            problem = type_problem(self, reals=reals)
        if problem:
            raise ValueError(problem)
        if self.norm_bound is not None and not self.norm_bound > 0:
            raise ValueError(f"norm_bound: must be positive, got {self.norm_bound}")

    def draw(self, n_experts: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """The mixing weights, and how many Gaussian draws the ball rejected before them."""
        if self.kind == "fixed":
            return np.asarray(self.values, dtype=float), 0
        for rejections in range(_THETA_DRAW_LIMIT):
            theta = rng.normal(self.mean, 1.0, size=n_experts)
            if self.norm_bound is None or np.linalg.norm(theta) <= self.norm_bound:
                return theta, rejections
        raise RuntimeError("rejection sampling of the mixing weights did not terminate")


@dataclass(frozen=True)
class ExpertSpec:
    """How expert matrices arise: fresh U[0,1] draws per episode, or a fixed
    per-episode list of numbers in [0, 1], held as one read-only float64
    array that every trial reads; equality compares its values."""

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {"uniform": (), "fixed": ("matrices",)}

    kind: str = "uniform"
    matrices: np.ndarray | None = None

    def __post_init__(self):
        problem = kind_problem(self)
        if problem:
            raise ValueError(problem)
        if self.kind == "fixed":
            if not isinstance(self.matrices, (list, tuple, np.ndarray)):
                raise ValueError(f"matrices: must be a nested list of numbers, got {self.matrices!r}")
            try:
                stack = np.asarray(self.matrices)
            except ValueError as exc:  # ragged nesting
                raise ValueError(f"matrices: {exc}") from exc
            # A bool beside a number would be cast to 0.0/1.0, so look at the leaves too.
            if {bool, np.bool_} & {type(v) for v in np.asarray(self.matrices, dtype=object).flat}:
                raise ValueError("matrices: must be a nested list of numbers, not booleans")
            if stack.dtype.kind not in "iuf":
                raise ValueError("matrices: must be a nested list of numbers")
            stack = np.array(stack, dtype=float, order="C")  # the spec's own copy
            if not np.all(np.isfinite(stack)):
                raise ValueError("matrices: entries must be finite")
            if stack.size and (stack.min() < 0.0 or stack.max() > 1.0):
                raise ValueError(
                    "matrices: entries must lie in [0, 1], got range "
                    f"[{float(stack.min())}, {float(stack.max())}]"
                )
            stack.setflags(write=False)
            object.__setattr__(self, "matrices", stack)

    def __eq__(self, other):  # the arrays' values, which a dataclass's == cannot compare
        return (type(other) is ExpertSpec and self.kind == other.kind
                and np.array_equal(self.matrices, other.matrices))


@dataclass(frozen=True)
class EnvironmentConfig:
    """A trial's sizes, noise, mixing weights and experts. It checks every
    rule of the config itself; each message starts with the JSON key at fault
    (``theta_star.values: ...``), or has none when the arrays are too large."""

    n_rows: int
    n_cols: int
    n_experts: int
    n_episodes: int
    rounds_per_episode: int
    noise_variance: float = 0.0
    theta_star: ThetaSpec = field(default_factory=ThetaSpec)
    experts: ExpertSpec = field(default_factory=ExpertSpec)

    def __post_init__(self):
        sizes = ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
        problem = type_problem(self, counts=sizes, reals=("noise_variance",))
        if problem:
            raise ValueError(problem)
        for name in sizes:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name}: must be at least 1, got {value}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance: must be nonnegative, got {self.noise_variance}")
        if not _NORMAL_REACH * math.sqrt(self.noise_variance) <= PAYOFF_LIMIT:
            raise ValueError(
                f"noise_variance: must be at most {(PAYOFF_LIMIT / _NORMAL_REACH) ** 2:.3g}, so "
                f"that {_NORMAL_REACH:g} standard deviations of noise stay within the payoff "
                f"limit of {PAYOFF_LIMIT:.3g}, got {self.noise_variance}"
            )
        if self.array_bytes > ARRAY_BYTE_BUDGET:
            raise ValueError(f"a trial's arrays take {self.array_bytes:.3g} bytes, beyond the "
                             f"budget of {ARRAY_BYTE_BUDGET} bytes")
        theta = self.theta_star
        if theta.kind == "fixed" and len(theta.values) != self.n_experts:
            raise ValueError(
                f"theta_star.values: must list {self.n_experts} weights, got {len(theta.values)}"
            )
        if theta.kind == "gaussian" and theta.norm_bound is not None:
            check_theta_reachable(theta.mean, theta.norm_bound, self.n_experts)
        check_payoffs_bounded(theta, self.n_experts)
        shape = (self.n_episodes, self.n_experts, self.n_rows, self.n_cols)
        if self.experts.kind == "fixed" and self.experts.matrices.shape != shape:
            raise ValueError(
                f"experts.matrices: must have shape {shape} (n_episodes, n_experts, n_rows, "
                f"n_cols), got {self.experts.matrices.shape}"
            )

    @property
    def array_bytes(self) -> float:
        """The bytes of a trial's float64 arrays (``ARRAY_BYTE_BUDGET``), in
        floats, so huge sizes give inf, not an error."""
        cells = float(self.n_rows) * float(self.n_cols)
        stacks = 1.0 + (float(self.n_episodes) if self.experts.kind == "fixed" else 0.0)
        noise = float(self.n_episodes) * float(self.rounds_per_episode)
        return 8.0 * (noise + (stacks * float(self.n_experts) + 1.0) * cells)


def check_theta_reachable(mean: float, norm_bound: float, n_experts: int) -> None:
    """Raise ``ValueError`` when ``_THETA_DRAW_LIMIT`` Gaussian draws of the
    mixing weights would all miss the norm ball with probability above 1e-9.

    With theta ~ N(mean * 1, I) in d = ``n_experts`` dimensions, the squared
    norm X is noncentral chi-square with noncentrality d * mean**2, so for
    every t > 0 the Chernoff bound gives P(X <= B**2) <= exp(t B**2) E[e^(-tX)]
    = exp(t B**2 - (d/2) log(1 + 2t) - d mean**2 t / (1 + 2t)). The smallest
    of these over t = 2**k bounds the chance p that one draw lands in the
    ball from above, so a config whose draws can land is never rejected. The
    exponent is convex in t and 0 at t = 0, so the scan over the grid stops
    at the first t that does not lower it.
    """
    d = n_experts
    radius_sq, shift_sq = norm_bound * norm_bound, d * mean * mean  # inf, never OverflowError
    log_bound = 0.0
    for k in range(-64, 1024):
        t = 2.0**k
        exponent = t * radius_sq - 0.5 * d * math.log1p(2.0 * t) - shift_sq * t / (1.0 + 2.0 * t)
        if not exponent < log_bound:  # also stops on nan
            break
        log_bound = exponent
    bound = math.exp(log_bound)
    if bound < 1.0 and _THETA_DRAW_LIMIT * math.log1p(-bound) > math.log(1e-9):
        raise ValueError(
            f"theta_star: N({mean}, I) draws in {d} dimensions land in the ball of radius "
            f"{norm_bound} with probability at most {bound:.3g}, so all {_THETA_DRAW_LIMIT} rejection "
            "draws miss it with probability above 1e-9"
        )


def check_payoffs_bounded(spec: ThetaSpec, n_experts: int) -> None:
    """Raise ``ValueError`` when a true game could have an entry beyond
    ``PAYOFF_LIMIT`` in magnitude.

    Expert entries lie in [0, 1], so an entry is at most ``n_experts`` times
    the largest |theta_k|. A Gaussian weight reaches ``|mean| + 40`` at most,
    and no further than the norm bound when one is given.
    """
    if spec.kind == "fixed":
        reach = max(abs(v) for v in spec.values)
    else:
        reach = abs(spec.mean) + _NORMAL_REACH
        if spec.norm_bound is not None:
            reach = min(reach, spec.norm_bound)
    if not n_experts * reach <= PAYOFF_LIMIT:
        raise ValueError(
            f"theta_star: weights up to {reach:.3g} in magnitude over {n_experts} experts reach "
            f"payoffs of {n_experts * reach:.3g}, beyond the limit of {PAYOFF_LIMIT:.3g}"
        )


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
    _build(check_strategy, f"{where}.strategy", probs=strategy)


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
        problem = reward_range_problem(spec.reward_min, spec.reward_max)
        if problem:
            raise ConfigError([f"{where}: {problem}"])
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


# Each ``output_format``: the suffix of a trial's metric files, one writer each in ``harness``.
OUTPUT_FORMATS = ("csv", "jsonl")


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
        if self.output_format not in OUTPUT_FORMATS:  # a tuple, so an unhashable value is not in it
            raise ConfigError([f"output_format: must be one of {OUTPUT_FORMATS}"])
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
    """The config that the run manifest at ``path`` records. A manifest of
    another version gets one line on stderr: replay is byte-identical only
    within one version."""
    manifest = _load_json(path)
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError([f"config: {path} is not a run manifest: it has no 'config' key"])
    if manifest.get("version") != __version__:
        print(f"warning: {path} was written by expertgames {manifest.get('version')}, this is "
              f"{__version__}; its outputs may differ from the run's", file=sys.stderr)
    return config_from_dict(manifest["config"])
