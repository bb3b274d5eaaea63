"""Episodic game environment: ground truth, expert reveals, and the play loop.

A trial's randomness is split into three independent streams (mixing weights,
expert draws, reward noise) spawned from one seed, so changing the number of
rounds or the set of learners cannot perturb the expert matrices, and the
reward noise is pre-drawn indexed by (episode, round): two learners replayed
on the same environment see identical noise even when they choose different
actions. An episode's expert stack is derived from (expert stream, episode)
when the episode is revealed, so a trial holds one episode's stack and true
game at a time, not the whole horizon's; fixed experts are the config's own
array, read without a copy. A trial reveals each episode once, its true game
solved once, and plays every learner on that reveal. Each learner is handed
the (n_experts, rows, cols) stack and each opponent the (rows, cols) true
game, the same read-only float64 arrays. Every expert entry lies in [0, 1]:
``ExpertSpec`` checks fixed experts, and uniform ones are U[0, 1) draws. The
environment records the rewards it pays, ``M[rows, cols] + noise`` for the
rows played; its reward closure pays the same floats to a learner that asks
within the episode. Both players' ``play_episode`` results are checked alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import metrics
from .config import EnvironmentConfig
from .game import SaddlePoint, solve_saddle_point, strategy_problem


class SimulationError(RuntimeError):
    """An agent broke the play protocol (e.g. produced an illegal action)."""


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
    learner_strategy: np.ndarray | None
    opponent_strategy: np.ndarray | None
    theta_hat: np.ndarray | None
    beta: float | None
    theta_error: float | None
    diagnostics: dict[str, float]


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
    problem = strategy_problem(strategy)  # on the mix or on every round's policy
    if problem:
        raise SimulationError(
            f"{role}'s strategy at episode {episode} is not a probability vector: {problem}"
        )
    return actions, strategy


class Environment:
    """One trial's ground truth: mixing weights, expert reveals, noise table.

    It is a checked config plus a seed, which a run derives for each trial,
    and it never changes after construction: ``reveal`` derives an episode
    afresh from the seed and the episode number alone, so episodes may be
    asked for in any order, and ``run_trial`` reveals each one once for
    every pair of players.
    """

    def __init__(self, config: EnvironmentConfig, seed=0):
        self.config = config
        root = np.random.SeedSequence(seed)
        theta_seq, self._expert_seq, noise_seq = root.spawn(3)
        theta_rng = np.random.default_rng(theta_seq)
        noise_rng = np.random.default_rng(noise_seq)

        self.theta_star, self.theta_rejections = config.theta_star.draw(config.n_experts, theta_rng)
        self.noise = noise_rng.normal(
            0.0,
            math.sqrt(config.noise_variance),
            size=(config.n_episodes, config.rounds_per_episode),
        )

    def reveal(self, episode: int) -> tuple[int, np.ndarray, np.ndarray, SaddlePoint]:
        """Episode ``episode`` as ``run_episode`` plays it: ``(episode, stack,
        game, saddle)``, with the (n_experts, rows, cols) expert stack and the
        (rows, cols) true game read-only, so the players can be handed them
        without a copy, and the true game's saddle point.

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
        return episode, stack, game, solve_saddle_point(game)

    def run_episode(self, learner, opponent, revealed, learner_previous_strategy=None) -> EpisodeTrace:
        """Play one episode, ``revealed`` as ``reveal`` returns it, and return its trace.

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
        episode, stack, m, saddle = revealed
        value = saddle.value
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
            diagnostics["cap_share"] = learner.cap_share
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

    def run_trial(self, players) -> list[list[EpisodeTrace]]:
        """Play every episode in order, revealing each once, and on it every
        (learner, opponent) pair of ``players`` in turn; return each pair's
        traces. Each opponent sees its own learner's previous-episode strategy."""
        traces = [[] for _ in players]
        for k in range(self.config.n_episodes):
            revealed = self.reveal(k)
            for (learner, opponent), played in zip(players, traces):
                previous = played[-1].learner_strategy if played else None
                if played and previous is None:
                    # Empirical fallback for learners without an episode-level mix.
                    counts = np.bincount(played[-1].row_actions, minlength=self.config.n_rows)
                    previous = counts / counts.sum()
                played.append(self.run_episode(learner, opponent, revealed, previous))
        return traces
