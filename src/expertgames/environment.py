"""Episodic game environment: ground truth, expert reveals, and the play loop.

A trial's randomness is split into three independent streams (mixing weights,
expert draws, reward noise) spawned from one seed, so changing the number of
rounds or the set of learners cannot perturb the expert matrices, and the
reward noise is pre-drawn indexed by (episode, round): two learners replayed
on the same environment see identical noise even when they choose different
actions. An episode's expert stack is derived from (expert stream, episode)
when the episode is revealed, so a trial holds one episode's stack and true
game at a time, not the whole horizon's; fixed experts are the config's own
array, read without a copy. The learner is handed the (n_experts, rows, cols)
stack and the opponent the (rows, cols) true game, as read-only float64
arrays. Every expert entry lies in [0, 1]: ``ExpertSpec`` checks fixed
experts, and uniform ones are U[0, 1) draws. The environment records the
rewards it pays, ``M[rows, cols] + noise`` for the rows played; its reward
closure pays the same floats to a learner that asks within the episode.

``EnvironmentConfig``, ``ThetaSpec`` and ``ExpertSpec`` are the schema of
the ``environment`` section: their fields and defaults are its keys and
defaults, and a tagged spec's ``KINDS`` its types and each type's keys. They
check every value they hold, with messages that start with the JSON key at
fault. Each real they accept is held as a float, so a config built in
Python computes and records what its JSON would. Both players play an
episode through ``play_episode``, and the environment checks both alike.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import metrics
from .game import SIMPLEX_TOL, SUM_TOL, SaddlePoint, solve_saddle_point

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


class SimulationError(RuntimeError):
    """An agent broke the play protocol (e.g. produced an illegal action)."""


def type_problem(config, counts=(), reals=(), real_lists=()) -> str | None:
    """The first of ``config``'s ``counts`` that is not an int, ``reals`` that
    is neither an int nor a float, or ``real_lists`` that is not a list, tuple
    or array of such reals, as a message naming the field or entry
    (``strategy[1]: ...``), or None. Bools are neither, and every number must
    be finite within the float range: a numpy scalar would fail writing the
    manifest, and a huge int overflows float arithmetic. Each real accepted is
    set to a float, and each list to a tuple of floats, so a config built in
    Python holds, computes and records what its JSON does."""
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
        object.__setattr__(config, name, float(getattr(config, name)))
    for name in real_lists:
        object.__setattr__(config, name, tuple(map(float, getattr(config, name))))
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


@dataclass
class EpisodeTrace:
    """Record of one episode: per-round plays plus episode-level summaries."""

    episode: int
    row_actions: np.ndarray
    col_actions: np.ndarray
    rewards: np.ndarray
    true_value: float
    metrics: dict[str, float]
    hindsight_row_totals: np.ndarray
    learner_strategy: np.ndarray | None = None
    opponent_strategy: np.ndarray | None = None
    theta_hat: np.ndarray | None = None
    beta: float | None = None
    theta_error: float | None = None
    diagnostics: dict[str, float] = field(default_factory=dict)


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


def _draw_theta(spec: ThetaSpec, n_experts: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    if spec.kind == "fixed":
        return np.asarray(spec.values, dtype=float), 0
    rejections = 0
    for _ in range(_THETA_DRAW_LIMIT):
        theta = rng.normal(spec.mean, 1.0, size=n_experts)
        if spec.norm_bound is None or np.linalg.norm(theta) <= spec.norm_bound:
            return theta, rejections
        rejections += 1
    raise RuntimeError("rejection sampling of the mixing weights did not terminate")


def _checked_play(play, n_rounds: int, n_actions: int, role: str, kind: str, episode: int,
                  per_round=False):
    """A player's ``play_episode`` result as arrays. Anything but n_rounds legal
    indices drawn from an episode mix (or, ``per_round``, every round's
    policy) on the simplex aborts the episode, as do actions that are not
    integers (a cast would truncate or parse them) and a strategy that is not reals."""
    actions, strategy = play
    actions = np.asarray(actions)
    if actions.shape != (n_rounds,):
        raise SimulationError(
            f"{role} drew {actions.shape} actions for a {n_rounds}-round episode {episode}"
        )
    if actions.dtype.kind not in "iu":
        raise SimulationError(
            f"{role} drew {kind}s of dtype {actions.dtype}, not integers, at episode {episode}"
        )
    actions = actions.astype(int, copy=False)
    bad = np.flatnonzero((actions < 0) | (actions >= n_actions))
    if bad.size:
        t = int(bad[0])
        raise SimulationError(
            f"{role} produced {kind} {actions[t]} outside [0, {n_actions}) "
            f"at episode {episode}, round {t + 1}"
        )
    if strategy is None:
        raise SimulationError(f"{role} exposes no strategy at episode {episode}")
    strategy = np.asarray(strategy)
    shapes = ((n_actions,), (n_rounds, n_actions)) if per_round else ((n_actions,),)
    if strategy.shape not in shapes:
        raise SimulationError(
            f"{role}'s strategy at episode {episode} has shape {strategy.shape}, "
            f"not {' or '.join(map(str, shapes))}"
        )
    if strategy.dtype.kind not in "iuf":
        raise SimulationError(
            f"{role}'s strategy at episode {episode} has dtype {strategy.dtype}, not real numbers"
        )
    strategy = strategy.astype(float, copy=False)
    # MixedStrategy's tolerances, on the mix or on every round's policy; a NaN fails.
    if not (
        strategy.min() >= -SIMPLEX_TOL
        and (np.abs(strategy.sum(axis=-1) - 1.0) <= SUM_TOL).all()
    ):
        raise SimulationError(
            f"{role}'s strategy at episode {episode} is not a probability vector: every "
            f"entry must be at least {-SIMPLEX_TOL} and each mix must sum to 1 within {SUM_TOL}"
        )
    return actions, strategy


class Environment:
    """One trial's ground truth: mixing weights, expert reveals, noise table.

    It is a checked config plus a seed, which a run derives for each trial.
    After construction only the cache of true saddle points changes: every
    reveal is derived afresh, so episodes may be asked for in any order.
    """

    def __init__(self, config: EnvironmentConfig, seed=0):
        self.config = config
        root = np.random.SeedSequence(seed)
        theta_seq, self._expert_seq, noise_seq = root.spawn(3)
        theta_rng = np.random.default_rng(theta_seq)
        noise_rng = np.random.default_rng(noise_seq)

        self.theta_star, self.theta_rejections = _draw_theta(
            config.theta_star, config.n_experts, theta_rng
        )
        self.noise = noise_rng.normal(
            0.0,
            math.sqrt(config.noise_variance),
            size=(config.n_episodes, config.rounds_per_episode),
        )
        self._saddles: dict[int, SaddlePoint] = {}

    def _reveal(self, episode: int) -> tuple[np.ndarray, np.ndarray]:
        """Episode ``episode``'s (n_experts, rows, cols) expert stack and
        (rows, cols) true game, both read-only, so the players can be handed
        them without a copy.

        Uniform experts are one U[0, 1) stream over the whole horizon, episode
        after episode. Each double takes one 64-bit PCG64 output, so episode k's
        stack starts ``k * n_experts * n_rows * n_cols`` outputs in and equals
        entry k of a one-shot draw of every episode's stack, bit for bit.
        """
        cfg = self.config
        episode = operator.index(episode)  # a numpy int, but not a float
        if not 0 <= episode < cfg.n_episodes:
            raise IndexError(f"episode {episode} outside [0, {cfg.n_episodes})")
        shape = (cfg.n_experts, cfg.n_rows, cfg.n_cols)
        if cfg.experts.kind == "fixed":  # the config's own array, not a copy
            stack = cfg.experts.matrices[episode]
        else:
            bits = np.random.PCG64(self._expert_seq)
            bits.advance(episode * math.prod(shape))
            stack = np.random.Generator(bits).random(shape)  # uniform(0.0, 1.0)'s bits
        # True games never clip: only the expert matrices are [0,1]-bounded.
        game = (self.theta_star @ stack.reshape(cfg.n_experts, -1)).reshape(shape[1:])
        stack.setflags(write=False)
        game.setflags(write=False)
        return stack, game

    def true_saddle(self, episode: int, game: np.ndarray) -> SaddlePoint:
        """The saddle point of ``game``, episode ``episode``'s true game, solved
        once per trial."""
        if episode not in self._saddles:
            self._saddles[episode] = solve_saddle_point(game)
        return self._saddles[episode]

    def run_episode(self, learner, opponent, episode: int, learner_previous_strategy=None) -> EpisodeTrace:
        """Play one episode and return its trace.

        Both players move simultaneously each round. The opponent commits to
        its episode mix from history and the true game only, so it never
        conditions on the learner's current action, and all of its columns
        are drawn before play starts. The learner then plays the rounds
        against the drawn columns through a reward closure that reveals only
        the reward of the row it played. The trace records the reward of
        every played row, the floats the closure pays, so both the actions
        and the rewards equal those of round-by-round play.
        """
        cfg = self.config
        stack, m = self._reveal(episode)
        value = self.true_saddle(episode, m).value
        n_rounds, n_rows = cfg.rounds_per_episode, cfg.n_rows

        learner.begin_episode(stack)
        opponent.begin_episode(m, learner_previous_strategy)
        # The opponent needs no reward: it draws every column from its committed mix.
        cols, nu = _checked_play(
            opponent.play_episode(None, n_rounds), n_rounds, cfg.n_cols, "opponent", "column", episode
        )

        # Python floats add exactly like numpy float64 and index faster.
        payoffs, col_list, noise_list = m.tolist(), cols.tolist(), self.noise[episode].tolist()

        def reward(t, i):
            if not 0 <= t < n_rounds:
                raise SimulationError(
                    f"learner asked for the reward of round {t + 1} outside [1, {n_rounds}] "
                    f"at episode {episode}"
                )
            if not 0 <= i < n_rows:
                raise SimulationError(
                    f"learner produced row {i} outside [0, {n_rows}) "
                    f"at episode {episode}, round {t + 1}"
                )
            return payoffs[i][col_list[t]] + noise_list[t]

        rows, strategy = _checked_play(
            learner.play_episode(reward, n_rounds), n_rounds, n_rows, "learner", "row", episode,
            per_round=True,
        )
        # The floats the closure pays for the played rows, added in the same order.
        rewards = m[rows, cols] + self.noise[episode]
        # An episode mix is the learner's strategy; per-round policies have none.
        mu = strategy if strategy.ndim == 1 else None
        sums, row_totals = metrics.episode_metrics(m, value, cols, rewards, strategy, nu)

        # Only an optimistic learner has an estimator. Until end_episode folds
        # the episode in, it holds the confidence set the plan was made on.
        diagnostics: dict[str, float] = {}
        theta_hat = beta = theta_error = None
        estimator = getattr(learner, "estimator", None)
        if estimator is not None:
            theta_hat, beta = estimator.theta_hat, estimator.beta
            theta_error = float(np.linalg.norm(theta_hat - self.theta_star))
            diagnostics["coverage"] = float(estimator.covers(self.theta_star))
            diagnostics["value_optimism_gap"] = float(learner.optimistic_value - value)
            diagnostics["entrywise_optimism_margin"] = float((learner.optimistic_matrix - m).min())
            diagnostics["cap_active"] = float(estimator.escapes_ball)
            log_det_before = estimator.log_det
        learner.end_episode(rows, cols, rewards)
        if estimator is not None:
            diagnostics["det_ratio"] = math.exp(estimator.log_det - log_det_before)
            diagnostics["potential_sum"] = estimator.potential_sum
            diagnostics["potential_bound"] = estimator.potential_bound

        return EpisodeTrace(
            episode=episode,
            row_actions=rows,
            col_actions=cols,
            rewards=rewards,
            true_value=value,
            metrics=sums,
            hindsight_row_totals=row_totals,
            learner_strategy=mu,
            opponent_strategy=nu,
            theta_hat=theta_hat,
            beta=beta,
            theta_error=theta_error,
            diagnostics=diagnostics,
        )

    def run_trial(self, learner, opponent) -> list[EpisodeTrace]:
        """Play all episodes in order, tracking the learner's previous-episode
        strategy for opponents that react to it."""
        traces = []
        previous_strategy = None
        for k in range(self.config.n_episodes):
            trace = self.run_episode(learner, opponent, k, previous_strategy)
            traces.append(trace)
            if trace.learner_strategy is not None:
                previous_strategy = trace.learner_strategy
            else:
                # Empirical fallback for learners without an episode-level mix.
                counts = np.bincount(trace.row_actions, minlength=self.config.n_rows)
                previous_strategy = counts / counts.sum()
        return traces
