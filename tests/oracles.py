"""Independent brute-force oracles used to cross-check library output.

Everything in here deliberately avoids the code paths under test: the game
oracles enumerate equilibrium supports and solve small linear systems, or
run the solver's simplex, and the Dantzig and Bland-only simplexes it
replaced, with plain row-by-row elimination pivots, the ridge oracles
rebuild their answers from scratch with dense solves (one per row for the
exploration potential), the adversarial-bandit oracles are a straight-line
transcription of the two policy formulas, a numpy round and a Python-float
round that each draw one uniform per round, and the regret increments score
one round at a time, the way the simulator's vectorized episode metrics must
add up. The reference helpers
(bilinear payoffs, best responses, single draws and rewards, expert readings,
the closed-form radius) score one entry or one draw at a time, and a trial's
expert stacks are drawn in one call over the whole horizon; no simulator
code path calls them. The last helpers are the exception: they read what an
environment reveals for an episode through its own ``reveal``, and write
plot tables as ``expertgames plot-data`` does, for tests that only inspect.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from expertgames.estimator import RidgeEstimator
from expertgames.game import _MAX_PIVOTS, SIMPLEX_TOL, check_strategy
from expertgames.harness import read_plot_tables, write_plot_tables

_FEAS_TOL = 1e-8


def support_enumeration_saddle(matrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve a zero-sum game by exhaustive enumeration of strategy supports.

    For every pair of candidate supports, solve the linear system that makes
    each player indifferent across the opponent's support, then keep the
    solution if it is a valid strategy pair whose security levels certify a
    saddle point. Returns (value, row_strategy, col_strategy).
    """
    m = np.asarray(matrix, dtype=float)
    n1, n2 = m.shape
    row_supports = [s for size in range(1, n1 + 1) for s in itertools.combinations(range(n1), size)]
    col_supports = [s for size in range(1, n2 + 1) for s in itertools.combinations(range(n2), size)]
    pairs = sorted(
        ((r, c) for r in row_supports for c in col_supports),
        key=lambda rc: (len(rc[0]) + len(rc[1]), rc),
    )
    for rows, cols in pairs:
        solved = _solve_support_pair(m, rows, cols)
        if solved is not None:
            return solved
    raise RuntimeError("support enumeration found no equilibrium (should be impossible)")


def _solve_support_pair(m, rows, cols):
    n1, n2 = m.shape
    k1, k2 = len(rows), len(cols)
    # Unknowns: mu on `rows`, nu on `cols`, and the common value v.
    n_unknowns = k1 + k2 + 1
    eqs = []
    rhs = []
    for j_pos, j in enumerate(cols):  # row mix makes every support column worth v
        row = np.zeros(n_unknowns)
        row[:k1] = m[list(rows), j]
        row[-1] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    for i_pos, i in enumerate(rows):  # column mix makes every support row worth v
        row = np.zeros(n_unknowns)
        row[k1 : k1 + k2] = m[i, list(cols)]
        row[-1] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    for start, width in ((0, k1), (k1, k2)):  # both mixes are distributions
        row = np.zeros(n_unknowns)
        row[start : start + width] = 1.0
        eqs.append(row)
        rhs.append(1.0)

    a = np.array(eqs)
    b = np.array(rhs)
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ solution - b)) > _FEAS_TOL:
        return None
    mu_s = solution[:k1]
    nu_s = solution[k1 : k1 + k2]
    value = float(solution[-1])
    if mu_s.min() < -_FEAS_TOL or nu_s.min() < -_FEAS_TOL:
        return None

    mu = np.zeros(n1)
    nu = np.zeros(n2)
    mu[list(rows)] = np.maximum(mu_s, 0.0)
    nu[list(cols)] = np.maximum(nu_s, 0.0)
    mu /= mu.sum()
    nu /= nu.sum()
    # Security certificates: mu guarantees >= v against every pure column,
    # nu concedes <= v against every pure row.
    if (mu @ m).min() < value - _FEAS_TOL:
        return None
    if (m @ nu).max() > value + _FEAS_TOL:
        return None
    return value, mu, nu


def row_elimination_positive_lp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The saddle solver's simplex with the pivot as row-by-row elimination.

    The same LP, tolerances and pivot rule as ``game._solve_positive_lp``,
    written the plain way: column 0 enters first, then the eligible column of
    largest steepest-edge score ``d_j**2 / (1 + sum_i t_ij**2)`` (squares
    added one row at a time, top to bottom), unless its minimum ratio is at
    most ``SIMPLEX_TOL``, where Bland's lowest eligible column enters
    instead; the pivot row is divided in place, every other row subtracts
    its outer-product share, and the leaving row is the tied row of lowest
    basis index. The library's in-place rank-1 pivot must return these bits
    exactly.
    """
    return _row_elimination_lp(a, rule="steepest_edge")


def dantzig_positive_lp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The same simplex with the most negative reduced cost entering (the
    lowest index on exact ties), Bland's column on degenerate pivots: the
    solver's rule before it priced by steepest edge."""
    return _row_elimination_lp(a, rule="dantzig")


def bland_positive_lp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The same simplex with Bland's lowest eligible column entering on every
    pivot: the solver's rule before it entered on the most negative reduced
    cost. It must reach the same optimum, in at least as many pivots on the
    benchmark-sized games."""
    return _row_elimination_lp(a, rule="bland")


def _steepest_edge_column(tab: np.ndarray, negative: np.ndarray) -> int:
    norms = np.ones(tab.shape[1] - 1)
    for row in tab[:, :-1]:
        norms = norms + row * row
    scores = tab[-1, :-1] * tab[-1, :-1] / norms
    return int(negative[np.argmax(scores[negative])])


def _row_elimination_lp(a: np.ndarray, rule: str):
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[-1, :n] = -1.0
    basis = np.arange(n, n + m)

    def ratio_test(enter):
        col = tab[:m, enter]
        eligible = col > SIMPLEX_TOL
        if not eligible.any():
            raise RuntimeError("LP unbounded; positivity shift violated")
        return np.where(eligible, tab[:m, -1] / np.where(eligible, col, 1.0), np.inf)

    for pivots in range(_MAX_PIVOTS):
        negative = np.flatnonzero(tab[-1, :-1] < -SIMPLEX_TOL)
        if negative.size == 0:
            break
        if rule == "bland" or (rule == "steepest_edge" and pivots == 0):
            enter = int(negative[0])
        elif rule == "steepest_edge":
            enter = _steepest_edge_column(tab, negative)
        else:
            enter = int(np.argmin(tab[-1, :-1]))
        ratios = ratio_test(enter)
        if ratios.min() <= SIMPLEX_TOL:
            enter = int(negative[0])
            ratios = ratio_test(enter)
        tied = np.flatnonzero(ratios <= ratios.min() + SIMPLEX_TOL)
        leave = int(tied[np.argmin(basis[tied])])
        tab[leave] /= tab[leave, enter]
        others = np.arange(m + 1) != leave
        tab[others] -= np.outer(tab[others, enter], tab[leave])
        basis[leave] = enter
    else:
        raise RuntimeError("simplex exceeded the pivot budget")
    q = np.zeros(n)
    from_q = basis < n
    q[basis[from_q]] = tab[:m, -1][from_q]
    return q, tab[-1, n : n + m].copy(), float(tab[-1, -1]), pivots


def expected_payoff(matrix, row_strategy, col_strategy) -> float:
    """Bilinear payoff mu' M nu to the row player."""
    m = np.asarray(matrix, dtype=float)
    mu = check_strategy(row_strategy)
    nu = check_strategy(col_strategy)
    if (mu.size, nu.size) != m.shape:
        raise ValueError(
            f"strategy dimensions ({mu.size}, {nu.size}) do not match game shape {m.shape}"
        )
    return float(mu @ m @ nu)


def best_response_value(matrix, opponent, side: str) -> float:
    """Value of the best pure response against an opponent mixed strategy.

    side="row": the row player responds, so the value is the maximum over
    pure rows of (M @ opponent). side="col": the column player responds, so
    the value is the minimum over pure columns of (opponent @ M).
    """
    m = np.asarray(matrix, dtype=float)
    probs = check_strategy(opponent)
    if side == "row":
        if probs.size != m.shape[1]:
            raise ValueError("opponent strategy length must equal the column count")
        return float((m @ probs).max())
    if side == "col":
        if probs.size != m.shape[0]:
            raise ValueError("opponent strategy length must equal the row count")
        return float((probs @ m).min())
    raise ValueError(f"side must be 'row' or 'col', got {side!r}")


def sample_action(strategy: np.ndarray, rng) -> int:
    """One inverse-CDF draw: the first action whose cumulative probability
    exceeds one ``rng.random()``, clipped to the last action."""
    idx = int(np.searchsorted(np.cumsum(strategy), rng.random(), side="right"))
    return min(idx, strategy.size - 1)


def emit_reward(matrix, i: int, j: int, noise_variance: float, rng: np.random.Generator) -> float:
    """One noisy payoff observation: M[i, j] + N(0, noise_variance)."""
    m = np.asarray(matrix, dtype=float)
    if not (0 <= i < m.shape[0] and 0 <= j < m.shape[1]):
        raise IndexError(f"entry ({i}, {j}) outside a {m.shape[0]}x{m.shape[1]} game")
    return float(m[i, j] + rng.normal(0.0, math.sqrt(noise_variance)))


def expert_features(stack: np.ndarray, i: int, j: int) -> np.ndarray:
    """The (n_experts, rows, cols) ``stack``'s expert readings of entry (i, j)."""
    _, rows, cols = stack.shape
    if not (0 <= i < rows and 0 <= j < cols):
        raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} game")
    return stack[:, i, j].copy()


def one_shot_reveals(config, seed, theta_star) -> tuple[np.ndarray, np.ndarray]:
    """Every episode's uniform expert stack, drawn in one call from the expert
    stream of the trial seeded by ``seed``, and every true game, mixed by one
    ``tensordot``."""
    expert_seq = np.random.SeedSequence(seed).spawn(3)[1]
    shape = (config.n_episodes, config.n_experts, config.n_rows, config.n_cols)
    stacks = np.random.default_rng(expert_seq).uniform(0.0, 1.0, size=shape)
    return stacks, np.tensordot(theta_star, stacks, axes=(0, 1))


def episode_stack(env, episode: int) -> np.ndarray:
    """Episode ``episode``'s expert stack, as ``Environment.reveal`` reveals it."""
    return env.reveal(episode)[1]


def episode_game(env, episode: int) -> np.ndarray:
    """Episode ``episode``'s true game, as ``Environment.reveal`` reveals it."""
    return env.reveal(episode)[2]


def episode_saddle(env, episode: int):
    """The saddle point of episode ``episode``'s true game, as ``Environment.reveal`` solves it."""
    return env.reveal(episode)[3]


def emit_plot_data(run_dir, out_dir=None, series=None) -> list:
    """``expertgames plot-data``: a finished run's aggregate tables, keeping only
    the rows of ``series`` (default: all), written to ``out_dir`` (default:
    ``<run>/plot``)."""
    out = Path(out_dir) if out_dir is not None else Path(run_dir) / "plot"
    return write_plot_tables(read_plot_tables(run_dir, series), out)


def ridge_solution(features: np.ndarray, rewards: np.ndarray, ridge: float) -> np.ndarray:
    """Closed-form ridge estimate from scratch: (lam I + Z'Z)^-1 Z'r."""
    z = np.asarray(features, dtype=float)
    r = np.asarray(rewards, dtype=float)
    dim = z.shape[1]
    return np.linalg.solve(ridge * np.eye(dim) + z.T @ z, z.T @ r)


def gram_from_scratch(features: np.ndarray, ridge: float) -> np.ndarray:
    z = np.asarray(features, dtype=float)
    return ridge * np.eye(z.shape[1]) + z.T @ z


def confidence_radius_from_scratch(
    features: np.ndarray, ridge: float, bound: float, delta: float
) -> float:
    """Recompute the confidence-ball radius from a from-scratch Gram matrix."""
    gram = gram_from_scratch(features, ridge)
    dim = gram.shape[0]
    sign, log_det = np.linalg.slogdet(gram)
    assert sign > 0
    inner = 0.5 * (log_det - dim * math.log(ridge)) + math.log(1.0 / delta)
    return (math.sqrt(2.0 * inner) + math.sqrt(ridge) * bound) ** 2


def cap_share_from_scratch(
    stack: np.ndarray, features: np.ndarray, rewards: np.ndarray, ridge: float, bound: float,
    delta: float,
) -> float:
    """The share of the plan's entries where the norm-ball cap
    <theta_hat, z> + bound * ||z|| lies strictly below the ellipsoid bound,
    recomputed from scratch with an explicit inverse."""
    theta = ridge_solution(features, rewards, ridge)
    beta = confidence_radius_from_scratch(features, ridge, bound, delta)
    ellipsoid = entrywise_optimistic_matrix(stack, theta, gram_from_scratch(features, ridge), beta)
    cap = np.tensordot(theta, stack, axes=1) + bound * np.linalg.norm(stack, axis=0)
    return float(np.mean(cap < ellipsoid))


def beta_radius_closed_form(estimator: RidgeEstimator) -> float:
    """Looser closed-form radius: the determinant ratio replaced by its
    dimension-based upper bound for n absorbed unit-norm-bounded features."""
    cfg = estimator.config
    growth = cfg.n_experts * math.log((cfg.ridge + estimator.n_obs) / cfg.ridge)
    root = math.sqrt(cfg.ridge) * cfg.param_bound + math.sqrt(
        2.0 * math.log(1.0 / cfg.delta) + growth
    )
    return root**2


def estimator_copy(estimator: RidgeEstimator) -> RidgeEstimator:
    """An independent estimator holding the same sufficient statistics and
    the same confidence set."""
    dup = RidgeEstimator(estimator.config)
    dup.gram = estimator.gram.copy()
    dup.xty = estimator.xty.copy()
    dup._chol = estimator._chol.copy()
    dup.n_obs = estimator.n_obs
    dup.potential_sum = estimator.potential_sum
    dup.theta_hat = estimator.theta_hat.copy()
    dup.log_det = estimator.log_det
    dup.beta = estimator.beta
    dup.potential_bound = estimator.potential_bound
    return dup


def absorb_row(estimator: RidgeEstimator, features, reward: float) -> None:
    """Fold one observation in on its own, as a batch of one row."""
    estimator.absorb_batch(np.asarray(features, dtype=float)[None], [reward])


def potential_sum_from_scratch(features: np.ndarray, ridge: float) -> float:
    """Exploration potential sum_t min(1, z_t' G_t^-1 z_t), with G_t the
    regularized Gram matrix of the rows before t, one dense solve per row."""
    z = np.asarray(features, dtype=float)
    gram = ridge * np.eye(z.shape[1])
    total = 0.0
    for row in z:
        total += min(1.0, float(row @ np.linalg.solve(gram, row)))
        gram += np.outer(row, row)
    return total


def ellipsoid_norm(estimator: RidgeEstimator, x) -> float:
    """sqrt(x' gram^-1 x) of one vector, through a fresh Cholesky factor."""
    vec = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector must be finite")
    half = solve_triangular(np.linalg.cholesky(estimator.gram), vec, lower=True)
    return float(np.sqrt(half @ half))


def entrywise_optimistic_matrix(
    expert_stack: np.ndarray,
    theta_hat: np.ndarray,
    gram: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Optimistic per-entry payoff bound computed with an explicit inverse."""
    gram_inv = np.linalg.inv(gram)
    s, n1, n2 = expert_stack.shape
    out = np.empty((n1, n2))
    for i in range(n1):
        for j in range(n2):
            z = expert_stack[:, i, j]
            out[i, j] = float(theta_hat @ z) + math.sqrt(radius) * math.sqrt(z @ gram_inv @ z)
    return out


def exp3_policy_trace(
    n_actions: int,
    actions: list[int],
    rewards: list[float],
    reward_min: float,
    reward_max: float,
) -> list[np.ndarray]:
    """Replay a scripted action/reward sequence through the textbook formulas.

    Policy at round t: alpha_t / n + (1 - alpha_t) * softmax(gamma_t * G)
    with G the per-arm sum of importance-weighted clipped rewards, where only
    the played arm's estimate is updated each round.
    """
    cumulative = np.zeros(n_actions)
    policies = []
    for t, (action, reward) in enumerate(zip(actions, rewards), start=1):
        alpha = min(1.0, math.sqrt(n_actions * math.log(n_actions) / t))
        gamma = math.sqrt(2.0 * math.log(n_actions) / (n_actions * t))
        weights = np.exp(gamma * cumulative - np.max(gamma * cumulative))
        policy = alpha / n_actions + (1.0 - alpha) * weights / weights.sum()
        policies.append(policy)
        clipped = min(max((reward - reward_min) / (reward_max - reward_min), 0.0), 1.0)
        cumulative[action] += clipped / policy[action]
    return policies


class NumpyExp3:
    """Exp3 rounds on numpy arrays: the policy of ``exp3_policy_trace``, then
    one ``rng.random()`` per action through ``np.cumsum`` and
    ``searchsorted``. The reference for the agent's action and policy stream."""

    def __init__(self, n_actions: int, seed, reward_min: float, reward_max: float):
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        self.reward_min = reward_min
        self.reward_max = reward_max
        self.cumulative_estimates = np.zeros(n_actions)
        self.last_strategy: np.ndarray | None = None

    def begin_episode(self) -> None:
        self.cumulative_estimates[:] = 0.0

    def act(self, t: int) -> int:
        n = self.n_actions
        log_n = math.log(n)
        alpha = min(1.0, math.sqrt(n * log_n / t))
        gamma = math.sqrt(2.0 * log_n / (n * t))
        scores = gamma * self.cumulative_estimates
        weights = np.exp(scores - scores.max())
        self.last_strategy = alpha / n + (1.0 - alpha) * weights / weights.sum()
        cutoffs = np.cumsum(self.last_strategy)
        return min(int(np.searchsorted(cutoffs, self.rng.random(), side="right")), n - 1)

    def observe(self, action: int, reward: float) -> None:
        span = self.reward_max - self.reward_min
        clipped = min(max((reward - self.reward_min) / span, 0.0), 1.0)
        self.cumulative_estimates[action] += clipped / self.last_strategy[action]


class FloatExp3(NumpyExp3):
    """The same rounds on Python floats: ``math.exp`` of each score minus the
    largest, ``math.fsum`` of the weights, and a running total of the policy
    against one ``rng.random()`` per round. The agent must match it bit for bit."""

    def act(self, t: int) -> int:
        n = self.n_actions
        log_n = math.log(n)
        alpha = min(1.0, math.sqrt(n * log_n / t))
        gamma = math.sqrt(2.0 * log_n / (n * t))
        scores = [gamma * g for g in self.cumulative_estimates.tolist()]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = math.fsum(weights)
        self.last_strategy = [alpha / n + (1.0 - alpha) * w / total for w in weights]
        u = self.rng.random()
        running = 0.0
        for action, p in enumerate(self.last_strategy):
            running += p
            if u < running:
                return action
        return n - 1


def saddle_regret_increment(true_value: float, reward: float) -> float:
    """Realized saddle-point regret for one round: val(M) - r."""
    return true_value - reward


def pseudo_saddle_regret_increment(true_value, row_strategy, matrix, col_strategy) -> float:
    """Expectation-form increment: val(M) - mu' M nu."""
    return true_value - expected_payoff(matrix, row_strategy, col_strategy)


def best_response_regret_increment(matrix, col_strategy, reward: float) -> float:
    """Row player's realized best-response regret: max_mu mu' M nu - r."""
    return best_response_value(matrix, col_strategy, "row") - reward


def best_response_regret_increment_p2(matrix, row_strategy, reward: float) -> float:
    """Column player's realized best-response regret: r - min_nu mu' M nu."""
    return reward - best_response_value(matrix, row_strategy, "col")


def hindsight_best_row_regret(matrix, col_actions, rewards) -> float:
    """Within-episode external regret: max_i sum_t M[i, j_t] - sum_t r_t."""
    m = np.asarray(matrix, dtype=float)
    cols = np.asarray(col_actions, dtype=int)
    row_totals = m[:, cols].sum(axis=1)
    return float(row_totals.max() - np.sum(rewards))
