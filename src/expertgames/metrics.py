"""Regret metrics over episodic traces.

Two families are computed everywhere: realized forms, which subtract the
noisy reward actually received, and expectation forms, which replace it with
the bilinear payoff of the round's mixed strategies. Expectation forms obey
the pointwise ordering pseudo-saddle <= best-response <= exploitability;
realized forms do not (noise breaks it) and are reported separately.

A trial's report is one float64 column, the layout of which ``series_keys``
states once: its metric file labels its values with those keys, in the
spelling ``METRIC_FORMATS`` gives, and the run's aggregate stacks the columns
of every trial. ``SERIES`` names the report's series once, in sorted order,
for ``series_keys``, ``series_count`` and ``build_report``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

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
# The report's series, sorted by name: the per-episode metrics and exploitability.
SERIES = tuple(sorted((*METRIC_KEYS, "exploitability")))


def episode_metrics(m, value: float, cols, rewards, row_strategy, col_strategy):
    """The seven per-episode metric sums and the hindsight row totals.

    ``row_strategy`` is either the learner's episode mix, shape (n_rows,),
    or its per-round policies stacked to shape (n_rounds, n_rows);
    ``col_strategy`` is the opponent's episode mix. Realized forms subtract
    the rewards, expectation forms the bilinear payoff mu_t' M nu of each
    round. ``row_totals[i]`` is sum_t M[i, j_t], the payoff row i would have
    collected against the played columns.

    Returns (sums keyed by ``METRIC_KEYS``, row_totals).
    """
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


def series_keys(n_episodes: int) -> list[tuple[str, int]]:
    """The (series, episode) key of each value in a trial's report column.

    Every per-episode series by name, then their prefix sums, then
    ``theta_error``, one row per episode each, and last the terminal
    ``external_single_row``.
    """
    episodes = range(1, n_episodes + 1)
    keys = [(f"{form}_{name}", k) for form in ("per_episode", "cumulative") for name in SERIES
            for k in episodes]
    keys += [("theta_error", k) for k in episodes]
    keys.append(("external_single_row", n_episodes))
    return keys


def series_count(n_episodes: int) -> int:
    """``len(series_keys(n_episodes))``, without building the keys."""
    return (2 * len(SERIES) + 1) * n_episodes + 1


def _json_float(value: float) -> str:
    """What ``json.dumps(value)`` writes; a finite value's repr is taken directly."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


class MetricFormat(NamedTuple):
    """How a metric file spells a report: the header, then for each
    ``series_keys`` key its row's prefix, the spelled value and the end."""

    header: str
    prefix: Callable[[str, int], str]  # a (series, episode) key's row, up to its value
    spell: Callable[[float], str]
    end: str

    def text(self, prefixes, values) -> str:
        """A report's file, given the ``prefix`` of each of its keys."""
        spell, end = self.spell, self.end
        return self.header + "".join([p + spell(value) + end for p, value in zip(prefixes, values)])


# Each ``output_format``, also the file's suffix. A csv value is its repr; a jsonl
# row is ``json.dumps`` of its series, episode and value, with sorted keys.
METRIC_FORMATS = {
    "csv": MetricFormat("series,episode,value\n", lambda series, k: f"{series},{k},", repr, "\n"),
    "jsonl": MetricFormat(
        "", lambda series, k: f'{{"episode": {k}, "series": {json.dumps(series)}, "value": ',
        _json_float, "}\n"),
}


def build_report(traces) -> np.ndarray:
    """A trial's report: its float64 values in ``series_keys`` order.

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
    series = [per_episode[name] for name in SERIES]
    theta_error = [np.nan if trace.theta_error is None else trace.theta_error for trace in traces]
    totals = np.sum([trace.hindsight_row_totals for trace in traces], axis=0)
    realized = sum(float(np.sum(trace.rewards)) for trace in traces)
    # Across-episode single-best-row external regret, one terminal value.
    return np.concatenate(
        [*series, *map(np.cumsum, series), theta_error, [totals.max() - realized]]
    )
