"""Episodic game environment: ground truth, expert reveals, and the play loop.

A trial's randomness is split into three independent streams (mixing weights,
expert draws, reward noise) spawned from one seed, so changing the number of
rounds or the set of learners cannot perturb the expert matrices, and the
reward noise is pre-drawn indexed by (episode, round): two learners replayed
on the same environment see identical noise even when they choose different
actions. An episode's expert stack is derived from (expert stream, episode)
when the episode is revealed, so a trial holds one episode's stack and true
game at a time, not the whole horizon's. The environment records the rewards
it pays, ``M[rows, cols] + noise`` for the rows played; its reward closure
pays the same floats to a learner that asks within the episode.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics
from .game import SIMPLEX_TOL, SUM_TOL, GameMatrix, SaddlePoint, solve_saddle_point

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
# A bound on a trial's arrays: every episode's expert stack and true game and
# the noise table, all float64 (4.3 MB on the large-game workload). A trial
# holds only the noise table and one episode's stack and game at a time, so
# this is far more than it needs; it bounds the configs a run accepts.
ARRAY_BYTE_BUDGET = 2**30


class SimulationError(RuntimeError):
    """An agent broke the play protocol (e.g. produced an illegal action)."""


def _unit_entries(values, name: str) -> np.ndarray:
    """``values`` as a float array whose entries are finite and lie in [0, 1]."""
    stack = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(stack)):
        raise ValueError(f"{name}: entries must be finite")
    if stack.size and (stack.min() < 0.0 or stack.max() > 1.0):
        raise ValueError(
            f"{name}: entries must lie in [0, 1], got range "
            f"[{float(stack.min())}, {float(stack.max())}]"
        )
    return stack


def type_problem(config, counts=(), reals=()) -> str | None:
    """The first of ``config``'s ``counts`` that is not an int, or ``reals``
    that is neither an int nor a float (bools are neither), as a message, or
    None. A numpy scalar would run every trial and then fail writing the manifest."""
    for name in (*counts, *reals):
        value, real = getattr(config, name), name in reals
        if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
            return f"{name}: must be {'an int or a float' if real else 'an int'}, got {value!r}"
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


@dataclass(frozen=True)
class ExpertEnsemble:
    """The expert game matrices revealed at the start of one episode.

    ``matrices`` is an (n_experts, rows, cols) stack with every entry in
    [0, 1]; the per-entry feature vector of cell (i, j) is the vector of the
    experts' (i, j) readings.
    """

    matrices: np.ndarray

    def __post_init__(self):
        stack = np.asarray(self.matrices, dtype=float)
        if stack.ndim != 3 or stack.shape[0] < 1:
            raise ValueError("ensemble must be a non-empty (n_experts, rows, cols) stack")
        _unit_entries(stack, "expert matrices")
        object.__setattr__(self, "matrices", stack)
        stack.setflags(write=False)

    @property
    def n_experts(self) -> int:
        return self.matrices.shape[0]

    @property
    def rows(self) -> int:
        return self.matrices.shape[1]

    @property
    def cols(self) -> int:
        return self.matrices.shape[2]

    def feature_matrix(self) -> np.ndarray:
        """All entries' features as an (n_experts, rows*cols) column stack."""
        return self.matrices.reshape(self.n_experts, -1)


@dataclass(frozen=True)
class ThetaSpec:
    """How the true mixing weights are chosen: an explicit vector, or a
    Gaussian draw (mean * ones, identity covariance) rejection-sampled into
    the norm ball when a bound is given."""

    kind: str = "gaussian"
    values: tuple[float, ...] | None = None
    mean: float = 0.5
    norm_bound: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "fixed"):
            raise ValueError(f"theta kind must be 'gaussian' or 'fixed', got {self.kind!r}")
        if self.kind == "fixed" and self.values is None:
            raise ValueError("fixed theta spec requires explicit values")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        bound = () if self.norm_bound is None else ("norm_bound",)
        keys = ("values",) if self.kind == "fixed" else ("mean", "norm_bound")
        problem = type_problem(self, reals=("mean", *bound)) or stray_field(self, keys)
        if problem:
            raise ValueError(problem)
        if self.norm_bound is not None and not self.norm_bound > 0:
            raise ValueError(f"norm_bound: must be positive, got {self.norm_bound}")


@dataclass(frozen=True)
class ExpertSpec:
    """How expert matrices arise: fresh U[0,1] draws per episode, or a fixed
    per-episode list."""

    kind: str = "uniform"
    matrices: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "fixed"):
            raise ValueError(f"expert kind must be 'uniform' or 'fixed', got {self.kind!r}")
        if self.kind == "fixed" and self.matrices is None:
            raise ValueError("fixed expert spec requires matrices")
        problem = stray_field(self, ("matrices",) if self.kind == "fixed" else ())
        if problem:
            raise ValueError(problem)
        if self.matrices is not None:
            _unit_entries(self.matrices, "matrices")


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
    theta: ThetaSpec = field(default_factory=ThetaSpec)
    experts: ExpertSpec = field(default_factory=ExpertSpec)
    seed: int = 0

    def __post_init__(self):
        sizes = ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
        problem = type_problem(self, counts=sizes, reals=("noise_variance",))
        if problem:
            raise ValueError(problem)
        for name in sizes:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name}: must be at least 1, got {value}")
        if not (self.noise_variance >= 0 and math.isfinite(self.noise_variance)):
            raise ValueError(
                f"noise_variance: must be finite and nonnegative, got {self.noise_variance}"
            )
        # In floats, exact far beyond the budget, so huge sizes give inf, not an error.
        cells = float(self.n_rows) * float(self.n_cols)
        n_bytes = 8.0 * float(self.n_episodes) * (
            float(self.n_experts) * cells + cells + float(self.rounds_per_episode)
        )
        if n_bytes > ARRAY_BYTE_BUDGET:
            raise ValueError(
                f"the arrays take 8 * n_episodes * (n_experts * n_rows * n_cols + n_rows * n_cols "
                f"+ rounds_per_episode) = {n_bytes:.3g} bytes, beyond the budget of "
                f"{ARRAY_BYTE_BUDGET} bytes"
            )
        theta = self.theta
        if theta.kind == "fixed" and len(theta.values) != self.n_experts:
            raise ValueError(
                f"theta_star.values: must list {self.n_experts} weights, got {len(theta.values)}"
            )
        if theta.kind == "gaussian" and theta.norm_bound is not None:
            check_theta_reachable(theta.mean, theta.norm_bound, self.n_experts)
        check_payoffs_bounded(theta, self.n_experts)
        shape = (self.n_episodes, self.n_experts, self.n_rows, self.n_cols)
        if self.experts.kind == "fixed" and np.shape(self.experts.matrices) != shape:
            raise ValueError(
                f"experts.matrices: must have shape {shape} (n_episodes, n_experts, n_rows, "
                f"n_cols), got {np.shape(self.experts.matrices)}"
            )


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


def _checked_actions(actions, n_rounds: int, n_actions: int, role: str, kind: str, episode: int):
    """An episode's drawn actions as an int array; anything but n_rounds legal
    indices aborts the episode."""
    actions = np.asarray(actions, dtype=int)
    if actions.shape != (n_rounds,):
        raise SimulationError(
            f"{role} drew {actions.shape} actions for a {n_rounds}-round episode {episode}"
        )
    bad = np.flatnonzero((actions < 0) | (actions >= n_actions))
    if bad.size:
        t = int(bad[0])
        raise SimulationError(
            f"{role} produced {kind} {actions[t]} outside [0, {n_actions}) "
            f"at episode {episode}, round {t + 1}"
        )
    return actions


class Environment:
    """One trial's ground truth: mixing weights, expert reveals, noise table.

    After construction only the cache of true saddle points changes: every
    reveal is derived afresh, so episodes may be asked for in any order.
    """

    def __init__(self, config: EnvironmentConfig):
        self.config = config
        root = np.random.SeedSequence(config.seed)
        theta_seq, self._expert_seq, noise_seq = root.spawn(3)
        theta_rng = np.random.default_rng(theta_seq)
        noise_rng = np.random.default_rng(noise_seq)

        self.theta_star, self.theta_rejections = _draw_theta(
            config.theta, config.n_experts, theta_rng
        )
        # Fixed experts are the config's own values; uniform ones are derived per episode.
        self._fixed_stacks = (
            np.asarray(config.experts.matrices, dtype=float)
            if config.experts.kind == "fixed"
            else None
        )
        self.noise = noise_rng.normal(
            0.0,
            math.sqrt(config.noise_variance),
            size=(config.n_episodes, config.rounds_per_episode),
        )
        self._saddles: dict[int, SaddlePoint] = {}

    def _reveal(self, episode: int) -> tuple[np.ndarray, np.ndarray]:
        """Episode ``episode``'s expert stack and true game entries.

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
        if self._fixed_stacks is not None:
            stack = self._fixed_stacks[episode]
        else:
            bits = np.random.PCG64(self._expert_seq)
            bits.advance(episode * math.prod(shape))
            stack = np.random.Generator(bits).random(shape)  # uniform(0.0, 1.0)'s bits
        # True games never clip: only the expert matrices are [0,1]-bounded.
        game = self.theta_star @ stack.reshape(cfg.n_experts, -1)
        return stack, game.reshape(cfg.n_rows, cfg.n_cols)

    def true_saddle(self, episode: int, game: GameMatrix) -> SaddlePoint:
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
        ensemble, game = ExpertEnsemble(stack), GameMatrix(m)
        value = self.true_saddle(episode, game).value
        n_rounds, n_rows = cfg.rounds_per_episode, cfg.n_rows

        learner.begin_episode(ensemble)
        opponent.begin_episode(game, learner_previous_strategy)
        committed = getattr(opponent, "current_strategy", None)
        if committed is None:
            raise SimulationError(f"opponent exposes no mixed strategy at episode {episode}")
        nu = committed.probs
        cols = _checked_actions(
            opponent.act_episode(n_rounds), n_rounds, cfg.n_cols, "opponent", "column", episode
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

        rows, strategy = learner.play_episode(reward, n_rounds)
        rows = _checked_actions(rows, n_rounds, n_rows, "learner", "row", episode)
        strategy = np.asarray(strategy, dtype=float)
        if strategy.shape not in ((n_rows,), (n_rounds, n_rows)):
            raise SimulationError(f"learner exposes no strategy at episode {episode}")
        # The floats the closure pays for the played rows, added in the same order.
        rewards = m[rows, cols] + self.noise[episode]
        # MixedStrategy's tolerances, on the mix or on every round's policy; a NaN fails.
        if not (
            strategy.min() >= -SIMPLEX_TOL
            and (np.abs(strategy.sum(axis=-1) - 1.0) <= SUM_TOL).all()
        ):
            raise SimulationError(
                f"learner's strategy at episode {episode} is not a probability vector: every "
                f"entry must be at least {-SIMPLEX_TOL} and each mix must sum to 1 within {SUM_TOL}"
            )
        # An episode mix is the learner's strategy; per-round policies have none.
        mu = strategy if strategy.ndim == 1 else None
        sums, row_totals = metrics.episode_metrics(m, value, cols, rewards, strategy, nu)

        # Only an optimistic learner has an estimator; begin_episode set its plan.
        diagnostics: dict[str, float] = {}
        theta_hat = beta = theta_error = None
        estimator = getattr(learner, "estimator", None)
        if estimator is not None:
            theta_hat = learner.planned_theta
            beta = float(learner.planned_beta)
            theta_error = float(np.linalg.norm(theta_hat - self.theta_star))
            diagnostics["coverage"] = float(estimator.covers(self.theta_star))
            diagnostics["value_optimism_gap"] = float(learner.optimistic_value - value)
            diagnostics["entrywise_optimism_margin"] = float((learner.optimistic_matrix - m).min())
            diagnostics["cap_active"] = float(learner.cap_active)
            log_det_before = estimator.log_det()
        learner.end_episode(rows, cols, rewards)
        if estimator is not None:
            diagnostics["det_ratio"] = math.exp(estimator.log_det() - log_det_before)
            diagnostics["potential_sum"] = estimator.potential_sum
            diagnostics["potential_bound"] = estimator.potential_bound()

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
