"""Regret metrics over episodic traces.

Two families are computed everywhere: realized forms, which subtract the
noisy reward actually received, and expectation forms, which replace it with
the bilinear payoff of the round's mixed strategies. Expectation forms obey
the pointwise ordering pseudo-saddle <= best-response <= exploitability;
realized forms do not (noise breaks it) and are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-episode metric keys, in the order episode_metrics produces them.
METRIC_KEYS = (
    "saddle_realized",
    "saddle_pseudo",
    "best_response_p1_realized",
    "best_response_p1_expected",
    "best_response_p2_realized",
    "best_response_p2_expected",
    "external",
)


def episode_metrics(matrix, value: float, cols, rewards, row_strategy, col_strategy):
    """The seven per-episode metric sums and the hindsight row totals.

    ``row_strategy`` is either the learner's episode mix, shape (n_rows,),
    or its per-round policies stacked to shape (n_rounds, n_rows);
    ``col_strategy`` is the opponent's episode mix. Realized forms subtract
    the rewards, expectation forms the bilinear payoff mu_t' M nu of each
    round. ``row_totals[i]`` is sum_t M[i, j_t], the payoff row i would have
    collected against the played columns.

    Returns (sums keyed by ``METRIC_KEYS``, row_totals).
    """
    m = np.asarray(matrix, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    n_rounds = rewards.size
    game_nu = m @ col_strategy
    best_row = game_nu.max()
    expected = np.broadcast_to(row_strategy @ game_nu, (n_rounds,))
    best_col = np.broadcast_to((row_strategy @ m).min(axis=-1), (n_rounds,))
    row_totals = m @ np.bincount(cols, minlength=m.shape[1])
    sums = {
        "saddle_realized": float(np.sum(value - rewards)),
        "saddle_pseudo": float(np.sum(value - expected)),
        "best_response_p1_realized": float(np.sum(best_row - rewards)),
        "best_response_p1_expected": float(np.sum(best_row - expected)),
        "best_response_p2_realized": float(np.sum(rewards - best_col)),
        "best_response_p2_expected": float(np.sum(expected - best_col)),
        "external": float(row_totals.max() - rewards.sum()),
    }
    return sums, row_totals


@dataclass
class RegretReport:
    """Per-episode and cumulative regret series for one learner's trial."""

    per_episode: dict[str, np.ndarray]
    theta_error: np.ndarray
    external_single_row: float

    @property
    def n_episodes(self) -> int:
        return next(iter(self.per_episode.values())).size

    def cumulative(self) -> dict[str, np.ndarray]:
        return {name: np.cumsum(series) for name, series in self.per_episode.items()}

    def series_rows(self):
        """Yield (series, episode, value) rows in a stable order."""
        episodes = range(1, self.n_episodes + 1)
        for name in sorted(self.per_episode):
            for k, v in zip(episodes, self.per_episode[name]):
                yield f"per_episode_{name}", k, float(v)
        for name, series in sorted(self.cumulative().items()):
            for k, v in zip(episodes, series):
                yield f"cumulative_{name}", k, float(v)
        for k, v in zip(episodes, self.theta_error):
            yield "theta_error", k, float(v)
        # Across-episode single-best-row external regret, one terminal row.
        yield "external_single_row", self.n_episodes, float(self.external_single_row)


def build_report(traces) -> RegretReport:
    """Assemble a RegretReport from a trial's episode traces.

    Exploitability is formed here as the exact sum of the two expectation-form
    best-response series, and cumulative series are plain prefix sums, so the
    report-level identities hold to the last bit.
    """
    if not traces:
        raise ValueError("cannot build a report from an empty trace list")
    per_episode = {
        key: np.array([trace.metrics[key] for trace in traces]) for key in METRIC_KEYS
    }
    per_episode["exploitability"] = (
        per_episode["best_response_p1_expected"] + per_episode["best_response_p2_expected"]
    )
    theta_error = np.array(
        [np.nan if trace.theta_error is None else trace.theta_error for trace in traces]
    )
    totals = np.sum([trace.hindsight_row_totals for trace in traces], axis=0)
    realized = sum(float(np.sum(trace.rewards)) for trace in traces)
    return RegretReport(
        per_episode=per_episode,
        theta_error=theta_error,
        external_single_row=float(totals.max() - realized),
    )
