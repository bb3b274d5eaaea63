import numpy as np
import pytest

from expertgames.agents import (
    BestResponderOpponent,
    Exp3Agent,
    FixedStrategyAgent,
    OFULinMatAgent,
    SaddleOracleOpponent,
)
from expertgames.config import EnvironmentConfig, ExpertSpec, ThetaSpec
from expertgames.environment import Environment
from expertgames.estimator import EstimatorConfig
from expertgames.game import solve_saddle_point
from expertgames.metrics import METRIC_KEYS, build_report, series_count, series_keys

from oracles import (
    absorb_row,
    best_response_regret_increment,
    best_response_regret_increment_p2,
    episode_game,
    episode_saddle,
    exp3_policy_trace,
    expected_payoff,
    hindsight_best_row_regret,
    pseudo_saddle_regret_increment,
    saddle_regret_increment,
)


class TestIncrements:
    def test_saddle_increment_arithmetic(self):
        assert saddle_regret_increment(0.0, 0.0) == 0.0
        assert saddle_regret_increment(1.0, 0.25) == 0.75

    def test_pseudo_increment_zero_at_saddle(self):
        m = np.random.default_rng(0).normal(size=(4, 4))
        saddle = solve_saddle_point(m)
        inc = pseudo_saddle_regret_increment(
            saddle.value, saddle.row_strategy, m, saddle.col_strategy
        )
        assert abs(inc) < 1e-9

    def test_saddle_row_strategy_never_regrets(self):
        # Security of the optimal row mix: increment <= 0 against anything.
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 5))
        saddle = solve_saddle_point(m)
        for _ in range(20):
            nu = rng.dirichlet(np.ones(5))
            inc = pseudo_saddle_regret_increment(saddle.value, saddle.row_strategy, m, nu)
            assert inc <= 1e-9

    def test_pseudo_increment_matches_bilinear_oracle(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        mu = rng.dirichlet(np.ones(5))
        nu = rng.dirichlet(np.ones(5))
        direct = 0.5 - sum(mu[i] * m[i, j] * nu[j] for i in range(5) for j in range(5))
        assert pseudo_saddle_regret_increment(0.5, mu, m, nu) == pytest.approx(direct)

    def test_best_response_increment_cases(self):
        pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert best_response_regret_increment(pennies, np.array([0.5, 0.5]), 0.0) == pytest.approx(0.0)
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert best_response_regret_increment(m, np.array([1.0, 0.0]), 1.0) == pytest.approx(1.0)

    def test_best_response_matches_enumeration(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 4))
        nu = rng.dirichlet(np.ones(4))
        mu = rng.dirichlet(np.ones(6))
        r = 0.3
        assert best_response_regret_increment(m, nu, r) == pytest.approx(
            max((m @ nu)[i] for i in range(6)) - r
        )
        assert best_response_regret_increment_p2(m, mu, r) == pytest.approx(
            r - min((mu @ m)[j] for j in range(4))
        )


class TestHindsightRegret:
    def test_playing_best_row_gives_zero(self):
        m = np.array([[3.0, 3.0], [1.0, 0.0]])
        cols = [0, 1, 0]
        rewards = [m[0, j] for j in cols]  # always played row 0, zero noise
        assert hindsight_best_row_regret(m, cols, rewards) == pytest.approx(0.0)

    def test_single_round_gap(self):
        m = np.array([[3.0], [1.0]])
        assert hindsight_best_row_regret(m, [0], [1.0]) == pytest.approx(2.0)

    def test_matches_row_enumeration(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 6))
        cols = rng.integers(0, 6, size=50)
        rewards = rng.normal(size=50)
        brute = max(sum(m[i, j] for j in cols) for i in range(5)) - rewards.sum()
        assert hindsight_best_row_regret(m, cols, rewards) == pytest.approx(brute)


def small_env(seed=0, episodes=4, rounds=30):
    return Environment(
        EnvironmentConfig(
            n_rows=4,
            n_cols=4,
            n_experts=3,
            n_episodes=episodes,
            rounds_per_episode=rounds,
            noise_variance=0.25,
            theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=2.0),
            experts=ExpertSpec(kind="uniform"),
        ),
        seed=seed,
    )


def by_series(report, n_episodes: int) -> dict[str, np.ndarray]:
    """A report column's values grouped by series name, each in episode order."""
    series: dict[str, list[float]] = {}
    for (name, _), value in zip(series_keys(n_episodes), report.tolist(), strict=True):
        series.setdefault(name, []).append(value)
    return {name: np.array(values) for name, values in series.items()}


class TestReport:
    def run_report(self, seed=0):
        env = small_env(seed)
        learner = OFULinMatAgent(
            4, EstimatorConfig(ridge=0.1, param_bound=2.0, delta=0.01, n_experts=3), seed=1
        )
        traces = env.run_trial([(learner, SaddleOracleOpponent(seed=2))])[0]
        return env, traces, by_series(build_report(traces), len(traces))

    def test_exploitability_is_exact_sum(self):
        _, _, report = self.run_report()
        assert np.array_equal(
            report["per_episode_exploitability"],
            report["per_episode_best_response_p1_expected"]
            + report["per_episode_best_response_p2_expected"],
        )

    def test_cumulative_is_prefix_sum(self):
        _, _, report = self.run_report()
        for name in (*METRIC_KEYS, "exploitability"):
            assert np.array_equal(
                report[f"cumulative_{name}"], np.cumsum(report[f"per_episode_{name}"])
            )

    def test_expectation_form_ordering(self):
        # pseudo-saddle <= best-response (P1) <= exploitability, cumulatively.
        for seed in range(5):
            _, _, report = self.run_report(seed)
            assert np.all(
                report["cumulative_saddle_pseudo"]
                <= report["cumulative_best_response_p1_expected"] + 1e-9
            )
            assert np.all(
                report["cumulative_best_response_p1_expected"]
                <= report["cumulative_exploitability"] + 1e-9
            )

    def test_pseudo_equals_best_response_against_saddle_oracle(self):
        # The oracle's column mix attains the value, so both expectation-form
        # series coincide episode by episode.
        _, _, report = self.run_report()
        assert np.allclose(
            report["per_episode_saddle_pseudo"],
            report["per_episode_best_response_p1_expected"],
            atol=1e-7,
        )

    def test_realized_equilibrium_play_has_mean_zero_regret(self):
        # A learner that plays the exact saddle strategy against the saddle
        # oracle: per-round expected regret is 0, so the realized mean over
        # many noisy rounds stays within 3 standard errors of 0.
        env = small_env(seed=6, episodes=1, rounds=1000)
        mu_star = episode_saddle(env, 0).row_strategy
        learner = FixedStrategyAgent(mu_star, seed=3)
        trace = env.run_episode(learner, SaddleOracleOpponent(seed=4), env.reveal(0))
        mean_inc = trace.metrics["saddle_realized"] / 1000
        se = (0.25 / 1000) ** 0.5
        assert abs(mean_inc) < 3 * se + 5e-3

    def test_theta_error_series_tracks_estimator(self):
        env, traces, report = self.run_report()
        assert report["theta_error"][0] == pytest.approx(np.linalg.norm(env.theta_star))
        assert np.all(np.isfinite(report["theta_error"]))

    def test_theta_error_nan_for_non_estimating_learner(self):
        env = small_env(seed=8)
        traces = env.run_trial(
            [(FixedStrategyAgent.uniform(4, seed=0), SaddleOracleOpponent(seed=1))]
        )[0]
        report = by_series(build_report(traces), len(traces))
        assert np.all(np.isnan(report["theta_error"]))

    def test_single_best_row_external_weaker_than_per_episode(self):
        _, _, report = self.run_report()
        per_episode_total = report["per_episode_external"].sum()
        assert report["external_single_row"].shape == (1,)
        assert report["external_single_row"][0] <= per_episode_total + 1e-9

    def test_series_rows_cover_all_series(self):
        _, traces, _ = self.run_report()
        report = build_report(traces)
        keys = series_keys(len(traces))
        names = {name for name, _ in keys}
        assert "per_episode_saddle_pseudo" in names
        assert "cumulative_exploitability" in names
        assert "theta_error" in names
        assert "external_single_row" in names
        n_series = len(METRIC_KEYS) + 1  # with exploitability
        assert report.shape == (len(keys),) == ((2 * n_series + 1) * len(traces) + 1,)
        assert report.dtype == np.float64
        assert keys[-1] == ("external_single_row", len(traces))

    @pytest.mark.parametrize("n_episodes", [1, 2, 15])
    def test_series_count_is_the_number_of_keys(self, n_episodes):
        assert series_count(n_episodes) == len(series_keys(n_episodes))

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            build_report([])


def round_by_round_sums(matrix, value, rows, cols, rewards, policies, nu):
    """The seven episode sums added up one round at a time from the oracles."""
    sums = dict.fromkeys(METRIC_KEYS, 0.0)
    for r, mu in zip(rewards, policies):
        expected = expected_payoff(matrix, mu, nu)
        sums["saddle_realized"] += saddle_regret_increment(value, r)
        sums["saddle_pseudo"] += pseudo_saddle_regret_increment(value, mu, matrix, nu)
        sums["best_response_p1_realized"] += best_response_regret_increment(matrix, nu, r)
        sums["best_response_p1_expected"] += best_response_regret_increment(matrix, nu, expected)
        sums["best_response_p2_realized"] += best_response_regret_increment_p2(matrix, mu, r)
        sums["best_response_p2_expected"] += best_response_regret_increment_p2(matrix, mu, expected)
    sums["external"] = hindsight_best_row_regret(matrix, cols, rewards)
    return sums


class TestEpisodeMetricsMatchRoundByRound:
    LEARNERS = {
        "ofulinmat": lambda: OFULinMatAgent(
            4, EstimatorConfig(ridge=0.1, param_bound=2.0, delta=0.01, n_experts=3), seed=1
        ),
        "exp3": lambda: Exp3Agent(4, seed=1, reward_min=-5.0, reward_max=5.0),
        "uniform": lambda: FixedStrategyAgent.uniform(4, seed=1),
    }
    OPPONENTS = {"saddle_oracle": SaddleOracleOpponent, "best_responder": BestResponderOpponent}

    @pytest.mark.parametrize("opponent", sorted(OPPONENTS))
    @pytest.mark.parametrize("learner", sorted(LEARNERS))
    def test_trace_metrics_equal_oracle_sums(self, learner, opponent):
        env = small_env(seed=3)
        traces = env.run_trial([(self.LEARNERS[learner](), self.OPPONENTS[opponent](seed=2))])[0]
        for trace in traces:
            m = episode_game(env, trace.episode)
            if learner == "exp3":
                # Exp3's per-round policies are replayed from its actions and rewards.
                policies = exp3_policy_trace(
                    4, trace.row_actions.tolist(), trace.rewards.tolist(), -5.0, 5.0
                )
            else:
                policies = [trace.learner_strategy] * trace.rewards.size
            oracle = round_by_round_sums(
                m,
                trace.true_value,
                trace.row_actions,
                trace.col_actions,
                trace.rewards,
                policies,
                trace.opponent_strategy,
            )
            for key in METRIC_KEYS:
                np.testing.assert_allclose(
                    trace.metrics[key], oracle[key], rtol=1e-12, atol=1e-12, err_msg=key
                )
            np.testing.assert_allclose(
                trace.hindsight_row_totals,
                m[:, trace.col_actions].sum(axis=1),
                rtol=1e-12,
                atol=1e-12,
            )


class TestThetaErrorMonotoneNoiseless:
    def test_designed_full_rank_schedule(self):
        # Noiseless rewards and a basis-cycling feature schedule keep the
        # Gram matrix diagonal, so the estimation error decreases monotonically.
        from expertgames.estimator import RidgeEstimator

        dim = 4
        theta_star = np.array([0.8, -0.3, 0.5, 1.1])
        est = RidgeEstimator(EstimatorConfig(ridge=1.0, param_bound=2.0, delta=0.05, n_experts=dim))
        errors = [np.linalg.norm(est.theta_hat - theta_star)]
        for step in range(60):
            z = np.zeros(dim)
            z[step % dim] = 1.0
            absorb_row(est, z, float(theta_star @ z))
            errors.append(np.linalg.norm(est.theta_hat - theta_star))
        diffs = np.diff(errors)
        assert np.all(diffs <= 1e-12)
