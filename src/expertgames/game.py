"""Zero-sum matrix games: mixed strategies and exact mixed saddle-point solving.

A game is the row player's (rows, cols) float payoff array: the row player
maximizes, the column player minimizes, and the column player's payoff is its
negation. A mixed strategy is a read-only float64 probability vector over one
player's actions.

The solver uses the classical reduction of a matrix game to a linear program:
shift the payoffs so every entry is strictly positive, solve the resulting
bounded LP with a dense tableau simplex, and read both players' strategies off
the optimal tableau (one from the basis, one from the dual multipliers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for reported game values and security levels.
VALUE_TOL = 1e-7
# Pivot / normalization tolerance inside the simplex solver.
SIMPLEX_TOL = 1e-9
# How far a probability vector's sum may stray from 1.
SUM_TOL = 1e-9

_MAX_PIVOTS = 10_000


def _as_payoff_array(matrix) -> np.ndarray:
    """``matrix`` as a float array, without a copy when it is one already."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("payoff matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("payoff matrix entries must be finite")
    return arr


def strategy_problem(probs: np.ndarray) -> str | None:
    """Why the float array ``probs`` is not a probability vector along its
    last axis, or None: every entry must be at least ``-SIMPLEX_TOL`` and
    each vector must sum to 1 within ``SUM_TOL``; NaN and +-inf fail."""
    # A NaN or -inf fails the least-entry test and any non-finite entry
    # makes a sum non-finite, so np.isfinite runs only after a failure.
    if not probs.min() >= -SIMPLEX_TOL:
        if not np.isfinite(probs).all():
            return "strategy probabilities must be finite"
        return "strategy probabilities must be nonnegative"
    with np.errstate(over="ignore"):  # finite entries whose sum overflows
        sums = probs.sum(axis=-1)
    if not np.isfinite(sums).all() and not np.isfinite(probs).all():
        return "strategy probabilities must be finite"
    if not (np.abs(sums - 1.0) <= SUM_TOL).all():
        return "strategy probabilities must sum to 1"
    return None


def check_strategy(probs) -> np.ndarray:
    """``probs`` as a strategy: a new read-only float64 vector with its
    entries clipped at 0, so the caller's array is neither frozen nor
    aliased. Anything but a non-empty 1-D probability vector raises
    ``ValueError``."""
    given = np.asarray(probs, dtype=float)
    if given.ndim != 1 or given.size == 0:
        raise ValueError("strategy must be a non-empty 1-D probability vector")
    problem = strategy_problem(given)
    if problem:
        raise ValueError(problem)
    strategy = np.maximum(given, 0.0)
    strategy.setflags(write=False)
    return strategy


@dataclass(frozen=True)
class SaddlePoint:
    """Mixed-strategy saddle point: optimal strategies (read-only float64
    probability vectors), the game value, and the number of simplex pivots
    the solve took."""

    row_strategy: np.ndarray
    col_strategy: np.ndarray
    value: float
    pivots: int


def _solve_positive_lp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Simplex for: maximize sum(q) subject to a @ q <= 1, q >= 0.

    Requires a strictly positive ``a``, which makes the all-slack basis
    feasible and the problem bounded. Column 0 enters first: at the slack
    basis every structural reduced cost is exactly -1. Every later entering
    column is priced by steepest edge: among the eligible columns, those with
    a reduced cost ``d_j < -SIMPLEX_TOL``, the one with the largest
    ``d_j**2 / (1 + sum_i t_ij**2)`` enters, the lowest index on exact ties.
    The sum runs over every tableau row, the objective row included, so it
    orders the columns exactly as ``d_j**2 / (1 + |a_j|**2)`` does. The
    squares are added row by row in a fixed order (``np.add.reduce`` along
    axis 0, never a BLAS product, whose summation order can depend on memory
    alignment), so the pricing, and with it replay, is reproducible bit for
    bit. The leaving row is the tied row of lowest basis index. When the
    entering column's minimum ratio is at most ``SIMPLEX_TOL`` the pivot is
    degenerate, and the column is replaced by Bland's: the lowest eligible
    index. Every pivot that leaves the objective unchanged is then a Bland
    pivot, and Bland's theorem rules out a cycle made only of those, so the
    simplex terminates. The pivot sequence is fully deterministic.

    Each pivot is one in-place rank-1 update of the dense tableau: the
    entering column, copied across a buffer allocated once per solve, is
    multiplied by the pivot row over the pivot and subtracted from the
    tableau, and then the pivot row is stored. Every other row gets exactly
    ``x - c * r``, one product and one difference per entry: the bits of a
    row-by-row elimination. The pricing squares the tableau into the buffer.

    Returns (q, dual multipliers of the row constraints, objective value,
    number of pivots).
    """
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    # The slack identity: row i's 1 sits at flat index n + i * (n + m + 2).
    tab.reshape(-1)[n : m * (n + m + 1) : n + m + 2] = 1.0
    tab[:m, -1] = 1.0
    tab[-1, :n] = -1.0
    basis = np.arange(n, n + m)
    update = np.empty_like(tab)
    ratios = np.empty(m)
    scores = np.empty(n + m + 1)
    rhs = tab[:m, -1]
    objective_row = tab[-1]
    reduced_costs = objective_row[:-1]

    def min_ratio(enter: int) -> float:
        col = tab[:m, enter]
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > SIMPLEX_TOL)
        lowest = float(ratios.min())
        # Finite right-hand sides over entries above SIMPLEX_TOL give finite
        # ratios, so an infinite minimum means no entry was eligible.
        if lowest == np.inf:
            raise RuntimeError("LP unbounded; positivity shift violated")
        return lowest

    enter = 0
    for pivots in range(1, _MAX_PIVOTS + 1):
        lowest = min_ratio(enter)
        if lowest <= SIMPLEX_TOL:
            bland = int((reduced_costs < -SIMPLEX_TOL).argmax())
            if bland != enter:
                enter = bland
                lowest = min_ratio(enter)
        tied = ratios <= lowest + SIMPLEX_TOL
        leave = int(np.where(tied, basis, n + m).argmin())
        pivot_row = tab[leave] / tab[leave, enter]
        np.copyto(update, tab[:, enter, None])  # a broadcast product would allocate buffers
        update *= pivot_row
        tab -= update
        tab[leave] = pivot_row
        basis[leave] = enter
        # Priced after every pivot, the last allowed one included, so a solve
        # that reaches its optimum within the budget returns.
        np.multiply(tab, tab, out=update)
        np.add.reduce(update, axis=0, out=scores, initial=1.0)
        np.divide(update[-1], scores, out=scores)
        # The last entry is the objective value, which is never negative.
        np.putmask(scores, objective_row >= -SIMPLEX_TOL, -1.0)
        enter = int(scores.argmax())
        if not reduced_costs[enter] < -SIMPLEX_TOL:
            break
    else:
        raise RuntimeError("simplex exceeded the pivot budget")

    q = np.zeros(n)
    from_q = basis < n
    q[basis[from_q]] = rhs[from_q]
    duals = tab[-1, n : n + m].copy()
    return q, duals, float(tab[-1, -1]), pivots


def _normalized(weights: np.ndarray) -> np.ndarray:
    """``weights`` clipped at 0 and scaled to sum to 1, read-only."""
    w = np.maximum(weights, 0.0)
    total = w.sum()
    if total <= SIMPLEX_TOL:
        raise RuntimeError("degenerate LP solution: zero strategy mass")
    probs = w / total
    probs.setflags(write=False)
    return probs


def solve_saddle_point(matrix) -> SaddlePoint:
    """Compute an exact mixed-strategy saddle point of the zero-sum game whose
    row payoffs are ``matrix``, a non-empty 2-D array of finite floats (or
    anything ``np.asarray`` makes one of); any other input raises ``ValueError``.

    The payoffs are halved, which keeps the range of every finite game
    finite, and mapped onto [1/2, 1] by ``(1 + (H - low) / spread) / 2``,
    where ``H = M / 2``, ``low`` is its least entry and ``spread`` its range
    (1 for a constant game). Halving is exact, so the LP gets the bits of
    ``(M - min) / (max - min)``: it sees the same entries whatever the
    payoffs' scale or offset, the absolute ``SIMPLEX_TOL`` keeps its meaning,
    and no intermediate exceeds the payoff range. The row player's maximin
    LP is solved in its standard positive form, the column strategy is
    recovered from the dual, and the value is reported as
    ``2 * (low + spread * (2 / objective - 1))``.
    Deterministic: identical input yields identical output.

    Every result is certified before it is returned, within
    ``tol = VALUE_TOL * max(1, max |M|)``: the duality gap
    ``max_i (M nu)_i - min_j (mu' M)_j`` of the two strategies must be at
    most ``tol``, and the value must lie within ``tol`` of ``mu' M nu``, or a
    ``RuntimeError`` states which check failed.
    """
    entries = _as_payoff_array(matrix)
    half = entries * 0.5
    low = float(half.min())
    high = float(half.max())
    # Normalised by the range, the LP's smallest entry is half its largest at
    # every scale and offset, and its objective lies in [1, 2].
    spread = high - low or 1.0
    q, duals, objective, pivots = _solve_positive_lp(((half - low) / spread + 1.0) * 0.5)
    mu = _normalized(duals)
    nu = _normalized(q)
    value = 2.0 * (low + spread * (2.0 / objective - 1.0))
    col_payoffs = mu @ entries
    gap = float((entries @ nu).max() - col_payoffs.min())
    value_error = abs(value - float(col_payoffs @ nu))
    # Halving is exact, so this is max |M| itself.
    tol = VALUE_TOL * max(1.0, 2.0 * max(-low, high))
    if not gap <= tol:
        raise RuntimeError(
            f"saddle point failed its certificate: duality gap {gap:.3g} exceeds {tol:.3g} "
            f"on a {entries.shape[0]}x{entries.shape[1]} game"
        )
    if not value_error <= tol:
        raise RuntimeError(
            f"saddle point failed its certificate: value {value:.6g} is {value_error:.3g} "
            f"from mu' M nu, beyond {tol:.3g}, on a {entries.shape[0]}x{entries.shape[1]} game"
        )
    return SaddlePoint(row_strategy=mu, col_strategy=nu, value=value, pivots=pivots)
