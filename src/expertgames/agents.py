"""Episodic learners and opponent policies.

Every learner plays an episode through one protocol:

    begin_episode(stack) -> play_episode(reward, n_rounds)
        -> end_episode(rows, cols, rewards)

``stack`` is the episode's (n_experts, n_rows, n_cols) float64 array of
expert games, read-only, which only OFULinMat reads.

``reward(t, i)`` is a closure that the simulator owns: the reward of row
``i`` in round ``t + 1``. Only the played row's reward is asked, as bandit
feedback requires, and a row outside the game raises ``SimulationError``.
``play_episode`` returns the rows and the strategy the rows were drawn from:
one episode mix of shape (n_rows,), or the stack of per-round policies of
shape (n_rounds, n_rows). The simulator records the rewards it pays, and
``end_episode`` takes the episode's record: the rows, the opponent's columns
and those rewards.

OFULinMat, fixed and uniform commit to one mixed strategy per episode
(``current_strategy``) and draw all of the episode's rows at once; they need
no reward within the episode. Exp3 reacts to every reward, so it runs the
round loop itself and asks the closure once per round. Its ``act(t)`` /
``observe(i, j, r)`` step the same arithmetic one round at a time; no run
calls them, and they remain as the stepping API that the benchmark times.

Learners never see the true payoff matrix, only rewards (and, for the
optimistic learner, the expert stack revealed each episode). OFULinMat
plans on its estimator's confidence set, which stays as it is until
``end_episode`` folds the episode in. Opponents are episode-level policies
that may read the true game, the read-only (n_rows, n_cols) payoff array
that ``begin_episode(true_game, learner_previous_strategy)`` hands them.
Each commits to one mixed strategy per episode (``current_strategy``), and
the simulator draws all of an episode's columns through the learners'
``play_episode``, with no reward, before play starts. The exposed strategies
let the simulator compute expectation-form metrics exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .estimator import EstimatorConfig, RidgeEstimator
from .game import check_strategy, solve_saddle_point


class AgentProtocolError(RuntimeError):
    """Raised when a player's protocol calls come out of order."""


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _read_only(probs: np.ndarray) -> np.ndarray:
    probs.setflags(write=False)
    return probs


def _uniform(n: int) -> np.ndarray:
    return _read_only(np.full(n, 1.0 / n))


class _EpisodeStrategyPlayer:
    """Sampling shared by every player that commits to one mixed strategy per
    episode: ``current_strategy``, a read-only float64 probability vector, or
    None until the player first commits, drawn from with its own ``rng``."""

    def __init__(self, seed=None):
        self.rng = _rng(seed)
        self.current_strategy: np.ndarray | None = None

    def play_episode(self, reward, n_rounds: int):
        """Draw all of the episode's actions from the committed strategy; a
        committed mix needs no reward within the episode. Returns the actions
        and the episode mix.

        Each action is the first index whose cumulative probability exceeds a
        uniform draw. One ``rng.random(n_rounds)`` call consumes the generator
        exactly like ``n_rounds`` calls of ``rng.random()``, so the actions
        equal one draw per round bit for bit. The clip covers a cumulative sum
        that rounds to just below 1.
        """
        mix = self.current_strategy
        if mix is None:
            raise AgentProtocolError(f"{type(self).__name__}: play_episode before begin_episode()")
        actions = np.searchsorted(np.cumsum(mix), self.rng.random(n_rounds), side="right")
        return np.minimum(actions, mix.size - 1), mix


class OFULinMatAgent(_EpisodeStrategyPlayer):
    """Optimistic episodic learner for games that mix revealed expert games.

    At each episode boundary it reads the estimator's ridge estimate of the
    mixing weights and confidence radius, inflates every payoff entry by the
    confidence-scaled exploration bonus of that entry's expert readings, or
    by the norm-ball bonus ``param_bound * ||z||`` where that is smaller (the
    share of such entries is ``cap_share``), solves the optimistic game's
    saddle point, and commits to the resulting row strategy for the whole
    episode. The episode's plays are absorbed into the estimator at its end,
    which sets the next confidence set.
    """

    def __init__(self, n_actions: int, config: EstimatorConfig, seed=None):
        super().__init__(seed)
        self.n_actions = n_actions
        self.estimator = RidgeEstimator(config)
        self.optimistic_matrix: np.ndarray | None = None
        self.optimistic_value: float | None = None
        self.cap_share: float | None = None
        self._stack = None

    def begin_episode(self, stack) -> None:
        """Plan on ``stack``, the episode's (n_experts, rows, cols) expert games."""
        cfg = self.estimator.config
        if stack.shape[0] != cfg.n_experts:
            raise ValueError(
                f"stack has {stack.shape[0]} experts, estimator expects {cfg.n_experts}"
            )
        if stack.shape[1] != self.n_actions:
            raise ValueError("stack row count does not match the agent's action set")
        est = self.estimator
        feats = stack.reshape(cfg.n_experts, -1)  # (n_experts, rows*cols)
        mean = est.theta_hat @ feats
        ellipsoid = mean + math.sqrt(est.beta) * est.ellipsoid_norms(feats)
        cap = mean + cfg.param_bound * np.linalg.norm(feats, axis=0)
        matrix = np.minimum(ellipsoid, cap).reshape(stack.shape[1:])
        saddle = solve_saddle_point(matrix)
        self.current_strategy = saddle.row_strategy
        self.optimistic_matrix = matrix
        self.optimistic_value = saddle.value
        self.cap_share = int(np.count_nonzero(cap < ellipsoid)) / cap.size
        self._stack = stack

    def end_episode(self, rows, cols, rewards) -> None:
        """Absorb the expert readings of the played cells with their rewards."""
        if self._stack is None:
            raise AgentProtocolError("end_episode() called before begin_episode()")
        self.estimator.absorb_batch(self._stack[:, rows, cols].T, rewards)


def reward_range_problem(reward_min: float, reward_max: float) -> str | None:
    """Why Exp3 cannot map rewards from [reward_min, reward_max] into [0, 1], or None."""
    if not reward_min < reward_max:
        return "reward_min must be strictly below reward_max"
    if not math.isfinite(float(reward_max) - float(reward_min)):  # else every reward maps to 0
        return f"reward_max - reward_min must be finite, got {reward_max!r} - {reward_min!r}"
    return None


def _exp3_schedule(n: int, t: int) -> tuple[float, float, float]:
    """Round ``t``'s ``(gamma, floor, mix)`` over ``n`` actions: the softmax
    scale gamma_t, the uniform floor alpha_t / n and the softmax share
    1 - alpha_t."""
    log_n = math.log(n)
    alpha = min(1.0, math.sqrt(n * log_n / t))
    return math.sqrt(2.0 * log_n / (n * t)), alpha / n, 1.0 - alpha


@functools.lru_cache(maxsize=16)
def _exp3_horizon(n: int, n_rounds: int):
    """The schedule of rounds 1..n_rounds, and its floors and mixes as
    read-only (n_rounds, 1) columns."""
    rounds = tuple(_exp3_schedule(n, t) for t in range(1, n_rounds + 1))
    table = _read_only(np.array(rounds).reshape(n_rounds, 3))
    return rounds, table[:, 1:2], table[:, 2:3]


class Exp3Agent:
    """Exponential-weights adversarial bandit over the row actions.

    The policy mixes uniform exploration with a softmax of cumulative
    importance-weighted reward estimates,

        policy_t = alpha_t / n + (1 - alpha_t) * softmax(gamma_t * G_t),

    with schedules alpha_t = min(1, sqrt(n ln n / t)) and
    gamma_t = sqrt(2 ln n / (n t)). Only the played arm's estimate is
    updated, with the reward first mapped affinely from
    [reward_min, reward_max] into [0, 1] and clipped (the softmax estimator
    needs bounded nonnegative rewards). Estimates reset at every episode
    boundary.

    A round touches n numbers, so it runs on Python floats. Round t's
    schedule ``(gamma, floor, mix)`` is ``(gamma_t, alpha_t / n,
    1 - alpha_t)``. Its policy entry is ``floor + mix * w / total``, where
    the weight ``w = math.exp(gamma * G - top)`` with ``top = gamma *
    max(G)``, and ``total`` is the weights' ``math.fsum``, correctly
    rounded and so the same bits on every Python version (the built-in
    ``sum`` of floats is compensated from Python 3.12 on). The action is
    the first one whose running total of the policy, added in action
    order, exceeds one ``rng.random()`` draw; the last action when none
    does.

    ``play_episode`` does per round only the work that depends on the
    last reward, by the same float operations in the same order. A
    horizon's schedule is computed once per ``(n, n_rounds)``. The
    estimates never decrease (each update adds a clipped nonnegative reward
    over a positive probability), so a running maximum is ``max(G)``. The
    draw adds entries only until the running total exceeds the uniform, and
    the update divides by the played entry. The (n_rounds, n) policy stack
    is built after the loop, in numpy, from the kept weights and totals.
    The episode's draws are one ``rng.random(n_rounds)`` block, which holds
    the same numbers as that many single draws. ``act``/``observe`` step
    the same round one call at a time, with one ``rng.random()`` each, and
    give the same bits; only the benchmark calls them. The harness gives
    each learner its own generator.
    """

    def __init__(self, n_actions: int, seed=None, reward_min: float = 0.0, reward_max: float = 1.0):
        if n_actions < 1:
            raise ValueError(f"n_actions must be at least 1, got {n_actions!r}")
        problem = reward_range_problem(reward_min, reward_max)
        if problem:
            raise ValueError(problem)
        self.n_actions = n_actions
        self.rng = _rng(seed)
        self.reward_min = float(reward_min)
        self.reward_max = float(reward_max)
        self.cumulative_estimates = [0.0] * n_actions
        self._last_policy: list[float] | None = None
        self._awaiting_feedback = False

    def policy(self, t: int) -> list[float]:
        if t < 1:
            raise ValueError("round index must be >= 1")
        gamma, floor, mix = _exp3_schedule(self.n_actions, t)
        estimates = self.cumulative_estimates
        # Rounding is monotone and gamma >= 0, so this is the largest score.
        top = gamma * max(estimates)
        weights = [math.exp(gamma * g - top) for g in estimates]
        total = math.fsum(weights)
        return [floor + mix * w / total for w in weights]

    def begin_episode(self, stack=None) -> None:
        self.cumulative_estimates = [0.0] * self.n_actions
        self._last_policy = None
        self._awaiting_feedback = False

    def play_episode(self, reward, n_rounds: int):
        """Play rounds 1..n_rounds, where ``reward(t, i)`` is the reward of
        row ``i`` in round ``t + 1``; only the played row's reward is asked.

        Returns the rows (int array) and the (n_rounds, n_actions) stack of
        the policies the rows were sampled from.
        """
        n = self.n_actions
        schedule, floors, mixes = _exp3_horizon(n, n_rounds)
        low = self.reward_min
        span = self.reward_max - low
        estimates = self.cumulative_estimates
        best = max(estimates)
        exp, fsum = math.exp, math.fsum
        uniforms = self.rng.random(n_rounds).tolist()
        rows, weights_flat, totals = [], [], []
        for t, ((gamma, floor, mix), u) in enumerate(zip(schedule, uniforms)):
            top = gamma * best
            weights = [exp(gamma * g - top) for g in estimates]
            total = fsum(weights)
            running = 0.0
            # Without a break, i and p are the last action's.
            for i, w in enumerate(weights):
                p = floor + mix * w / total
                running += p
                if u < running:
                    break
            scaled = (reward(t, i) - low) / span
            # The selections of min(max(scaled, 0.0), 1.0), without the calls.
            g = estimates[i] + (0.0 if scaled < 0.0 else 1.0 if scaled > 1.0 else scaled) / p
            estimates[i] = g
            if g > best:
                best = g
            rows.append(i)
            weights_flat += weights
            totals.append(total)
        weights = np.array(weights_flat).reshape(n_rounds, n)
        stack = floors + mixes * weights / np.array(totals)[:, None]
        return np.array(rows, dtype=int), stack

    def act(self, t: int) -> int:
        if self._awaiting_feedback:
            raise AgentProtocolError("act() called twice without observe()")
        policy = self.policy(t)
        u = self.rng.random()
        running = 0.0
        for action, p in enumerate(policy):
            running += p
            if u < running:
                break
        self._last_policy = policy
        self._awaiting_feedback = True
        return action

    def observe(self, own_action: int, opponent_action: int, reward: float) -> None:
        if not self._awaiting_feedback:
            raise AgentProtocolError("observe() called before act()")
        span = self.reward_max - self.reward_min
        clipped = min(max((reward - self.reward_min) / span, 0.0), 1.0)
        self.cumulative_estimates[own_action] += clipped / self._last_policy[own_action]
        self._awaiting_feedback = False

    def end_episode(self, rows, cols, rewards) -> None:
        """The policy needs no record: its estimates reset at the next episode."""
        self._awaiting_feedback = False


class FixedStrategyAgent(_EpisodeStrategyPlayer):
    """Player that plays one fixed mixed strategy every round."""

    def __init__(self, strategy, seed=None):
        super().__init__(seed)
        self.current_strategy = check_strategy(strategy)

    @classmethod
    def uniform(cls, n_actions: int, seed=None) -> "FixedStrategyAgent":
        return cls(_uniform(n_actions), seed)

    def begin_episode(self, stack=None) -> None:
        pass

    def end_episode(self, rows, cols, rewards) -> None:
        pass


class SaddleOracleOpponent(_EpisodeStrategyPlayer):
    """Omniscient attacker: plays the true game's saddle-point column mix,
    recomputed from the revealed true matrix at every episode."""

    def begin_episode(self, true_game, learner_previous_strategy=None) -> None:
        self.current_strategy = solve_saddle_point(true_game).col_strategy


class UniformOpponent(_EpisodeStrategyPlayer):
    def begin_episode(self, true_game, learner_previous_strategy=None) -> None:
        self.current_strategy = _uniform(true_game.shape[1])


class FixedOpponent(FixedStrategyAgent):
    """A fixed strategy seated as the column player."""

    def begin_episode(self, true_game, learner_previous_strategy=None) -> None:
        if self.current_strategy.size != true_game.shape[1]:
            raise ValueError("fixed opponent strategy does not match the game's column count")


class BestResponderOpponent(_EpisodeStrategyPlayer):
    """Plays the pure column minimizing the learner's previous-episode payoff.

    The current mixed strategy of the learner is unobservable, so the best
    response targets the strategy from the previous episode; with no history
    it falls back to uniform play.
    """

    def begin_episode(self, true_game, learner_previous_strategy=None) -> None:
        n_cols = true_game.shape[1]
        if learner_previous_strategy is None:
            self.current_strategy = _uniform(n_cols)
            return
        pure = np.zeros(n_cols)
        pure[np.argmin(learner_previous_strategy @ true_game)] = 1.0
        self.current_strategy = _read_only(pure)
