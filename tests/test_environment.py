import math
import tracemalloc

import numpy as np
import pytest

from expertgames.agents import Exp3Agent, FixedOpponent, FixedStrategyAgent, SaddleOracleOpponent
from expertgames.environment import (
    _THETA_DRAW_LIMIT,
    PAYOFF_LIMIT,
    Environment,
    EnvironmentConfig,
    ExpertEnsemble,
    ExpertSpec,
    SimulationError,
    ThetaSpec,
    check_payoffs_bounded,
    check_theta_reachable,
)

from oracles import (
    emit_reward,
    episode_ensemble,
    episode_game,
    episode_saddle,
    expert_features,
    one_shot_reveals,
)


def config(**overrides):
    base = dict(
        n_rows=3,
        n_cols=3,
        n_experts=2,
        n_episodes=4,
        rounds_per_episode=5,
        noise_variance=0.0,
        theta=ThetaSpec(kind="fixed", values=(1.0, 0.0)),
        experts=ExpertSpec(kind="uniform"),
        seed=0,
    )
    base.update(overrides)
    return EnvironmentConfig(**base)


class TestExpertEnsemble:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            ExpertEnsemble(np.full((1, 2, 2), 1.5))
        with pytest.raises(ValueError):
            ExpertEnsemble(np.full((1, 2, 2), -0.1))

    def test_feature_invariants(self):
        rng = np.random.default_rng(0)
        ensemble = ExpertEnsemble(rng.uniform(size=(5, 3, 4)))
        for i in range(3):
            for j in range(4):
                z = expert_features(ensemble, i, j)
                assert z.min() >= 0.0 and z.max() <= 1.0
                assert np.linalg.norm(z) <= math.sqrt(5) + 1e-12
        assert ensemble.feature_matrix().shape == (5, 12)

    def test_features_out_of_range(self):
        ensemble = ExpertEnsemble(np.zeros((1, 2, 2)))
        with pytest.raises(IndexError):
            expert_features(ensemble, 2, 0)
        with pytest.raises(IndexError):
            expert_features(ensemble, 0, -1)


class TestGroundTruth:
    def test_basis_theta_reproduces_first_expert(self):
        env = Environment(config())
        for k in range(4):
            first_expert = episode_ensemble(env, k).matrices[0]
            assert np.array_equal(episode_game(env, k).entries, first_expert)

    def test_zero_theta_gives_zero_game(self):
        env = Environment(config(theta=ThetaSpec(kind="fixed", values=(0.0, 0.0))))
        for k in range(4):
            assert np.all(episode_game(env, k).entries == 0.0)
            assert abs(episode_saddle(env, k).value) < 1e-9

    def test_entrywise_linear_consistency(self):
        cfg = config(
            n_rows=10,
            n_cols=10,
            n_experts=10,
            n_episodes=3,
            theta=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
            seed=7,
        )
        env = Environment(cfg)
        for k in range(3):
            ensemble = episode_ensemble(env, k)
            game = episode_game(env, k).entries
            worst = 0.0
            for i in range(10):
                for j in range(10):
                    z = expert_features(ensemble, i, j)
                    worst = max(worst, abs(game[i, j] - env.theta_star @ z))
            assert worst <= 1e-12

    def test_rejection_sampling_respects_bound(self):
        for seed in range(5):
            cfg = config(
                n_experts=10,
                theta=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
                seed=seed,
            )
            env = Environment(cfg)
            assert np.linalg.norm(env.theta_star) <= 3.0
            assert env.theta_rejections >= 0

    def test_fixed_theta_length_check(self):
        with pytest.raises(ValueError):
            Environment(config(theta=ThetaSpec(kind="fixed", values=(1.0, 0.0, 0.0))))

    def test_fixed_expert_list_shape_check(self):
        bad = np.zeros((3, 2, 3, 3))  # 3 episodes, config wants 4
        with pytest.raises(ValueError):
            Environment(config(experts=ExpertSpec(kind="fixed", matrices=tuple(bad.tolist()))))

    def test_rounds_do_not_perturb_expert_draws(self):
        short = Environment(config(rounds_per_episode=2))
        long = Environment(config(rounds_per_episode=50))
        for k in range(4):
            assert np.array_equal(
                episode_ensemble(short, k).matrices, episode_ensemble(long, k).matrices
            )
        assert np.array_equal(short.theta_star, long.theta_star)

    def test_cross_episode_independence_smoke(self):
        env = Environment(config(n_episodes=400, seed=3))
        series = np.array([episode_ensemble(env, k).matrices[0, 0, 0] for k in range(400)])
        lagged = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert abs(lagged) < 0.15

    # The stacks are equal bit for bit at any shape. The products are equal
    # when the cell count is a multiple of the BLAS kernel's row block (4 with
    # OpenBLAS on x86-64), so that no entry falls in a remainder loop that
    # rounds differently; 16 and 3600 cells, as in the benchmark's 4x4 and
    # 60x60 games, leave room for wider blocks.
    @pytest.mark.parametrize("rows, cols, n_experts", [(4, 4, 3), (60, 60, 10)])
    def test_reveals_in_any_order_equal_the_one_shot_draw(self, rows, cols, n_experts):
        cfg = config(
            n_rows=rows,
            n_cols=cols,
            n_experts=n_experts,
            n_episodes=5,
            theta=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
            seed=[4, 1, 0],
        )
        env = Environment(cfg)
        stacks, games = one_shot_reveals(cfg, env.theta_star)
        for k in (4, 0, 2, 2, 1, 3):
            assert np.array_equal(episode_ensemble(env, k).matrices, stacks[k])
            assert np.array_equal(episode_game(env, k).entries, games[k])

    def test_episodes_outside_the_horizon_are_refused(self):
        env = Environment(config())
        for k in (-1, 4):
            with pytest.raises(IndexError, match=r"outside \[0, 4\)"):
                episode_ensemble(env, k)
        with pytest.raises(TypeError):
            episode_game(env, 2.5)
        assert np.array_equal(
            episode_ensemble(env, np.int64(3)).matrices, episode_ensemble(env, 3).matrices
        )

    def test_a_trial_holds_one_episode_of_experts(self):
        # One stack is 288,000 bytes; the whole horizon's stacks take 5.76 MB.
        cfg = config(n_rows=60, n_cols=60, n_experts=10, n_episodes=20, theta=ThetaSpec())
        stack_bytes = 8 * 10 * 60 * 60
        episode_game(Environment(cfg), 0)  # imports numpy.random, which numpy loads lazily
        tracemalloc.start()
        try:
            env = Environment(cfg)
            for k in range(cfg.n_episodes):
                ensemble, game = episode_ensemble(env, k), episode_game(env, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ensemble.matrices.shape == (10, 60, 60) and game.entries.shape == (60, 60)
        assert peak < 4 * stack_bytes


class TestThetaReachable:
    @pytest.mark.parametrize(
        "mean, norm_bound, n_experts",
        [(0.5, 1e-9, 10), (50.0, 3.0, 10), (0.5, 1e-9, 2), (0.0, 0.5, 10), (1e308, 3.0, 2)],
    )
    def test_unreachable_balls_are_rejected(self, mean, norm_bound, n_experts):
        with pytest.raises(ValueError, match="miss it with probability above 1e-9"):
            check_theta_reachable(mean, norm_bound, n_experts)

    def test_never_rejects_a_ball_the_draws_reach(self):
        # The exact chance that one draw lands: ||theta||^2 is noncentral chi-square.
        from scipy.special import chndtr

        rejected = 0
        for d in (1, 2, 3, 10, 30):
            for mean in (0.0, 0.5, 1.0, 3.0):
                for bound in np.geomspace(0.05, 30.0, 40):
                    p = chndtr(bound * bound, d, d * mean * mean)
                    try:
                        check_theta_reachable(mean, float(bound), d)
                    except ValueError:
                        rejected += 1
                        assert _THETA_DRAW_LIMIT * math.log1p(-p) > math.log(1e-9)
        assert rejected > 0


_HALF_LIMIT = PAYOFF_LIMIT / 2


class TestPayoffsBounded:
    @pytest.mark.parametrize(
        "spec",
        [
            ThetaSpec(kind="fixed", values=(_HALF_LIMIT, -_HALF_LIMIT)),
            ThetaSpec(kind="gaussian", mean=-_HALF_LIMIT),
            ThetaSpec(kind="gaussian", mean=0.5, norm_bound=1e300),
            ThetaSpec(kind="gaussian", mean=1e308, norm_bound=_HALF_LIMIT),
        ],
        ids=["fixed-at-limit", "mean-at-limit", "huge-ball-small-mean", "huge-mean-small-ball"],
    )
    def test_payoffs_up_to_the_limit_pass(self, spec):
        check_payoffs_bounded(spec, 2)

    @pytest.mark.parametrize(
        "spec, n_experts",
        [
            (ThetaSpec(kind="fixed", values=(0.0, math.nextafter(_HALF_LIMIT, math.inf))), 2),
            (ThetaSpec(kind="gaussian", mean=_HALF_LIMIT), 3),
            (ThetaSpec(kind="gaussian", mean=1e308), 2),
            (ThetaSpec(kind="fixed", values=(1e308,) * 3), 3),
        ],
        ids=["fixed-past-limit", "mean-past-limit", "mean-1e308", "values-1e308"],
    )
    def test_payoffs_past_the_limit_are_rejected(self, spec, n_experts):
        with pytest.raises(ValueError, match="beyond the limit of 1e\\+100"):
            check_payoffs_bounded(spec, n_experts)


class TestEmitReward:
    def test_noiseless_is_exact(self):
        m = np.array([[0.3, 0.7], [0.1, 0.9]])
        rng = np.random.default_rng(0)
        assert emit_reward(m, 1, 0, 0.0, rng) == 0.1

    def test_moments(self):
        m = np.array([[0.25]])
        rng = np.random.default_rng(1)
        draws = np.array([emit_reward(m, 0, 0, 0.5, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.25) < 3 * math.sqrt(0.5 / 10_000)
        assert abs(draws.var() - 0.5) < 0.05

    def test_same_seed_same_sequence(self):
        m = np.array([[0.5, 0.2]])
        a = [emit_reward(m, 0, 1, 0.5, np.random.default_rng(9)) for _ in range(1)]
        b = [emit_reward(m, 0, 1, 0.5, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_out_of_range_indices(self):
        with pytest.raises(IndexError):
            emit_reward(np.zeros((2, 2)), 2, 0, 0.0, np.random.default_rng(0))


class TestRunEpisode:
    def test_single_round_scripted(self):
        env = Environment(config(rounds_per_episode=1))
        learner = FixedStrategyAgent(np.array([0.0, 1.0, 0.0]), seed=0)
        opponent = FixedOpponent(np.array([1.0, 0.0, 0.0]), seed=1)
        trace = env.run_episode(learner, opponent, 0)
        assert trace.row_actions.tolist() == [1]
        assert trace.col_actions.tolist() == [0]
        assert trace.rewards[0] == episode_game(env, 0).entries[1, 0]

    def test_pure_agents_zero_noise_constant_reward(self):
        env = Environment(config(rounds_per_episode=20))
        learner = FixedStrategyAgent(np.array([1.0, 0.0, 0.0]), seed=0)
        opponent = FixedOpponent(np.array([0.0, 0.0, 1.0]), seed=1)
        trace = env.run_episode(learner, opponent, 2)
        assert np.all(trace.rewards == episode_game(env, 2).entries[0, 2])

    def test_trace_has_exactly_t_records(self):
        env = Environment(config(rounds_per_episode=7))
        trace = env.run_episode(
            FixedStrategyAgent.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0]), seed=1), 0
        )
        assert len(trace.row_actions) == len(trace.col_actions) == len(trace.rewards) == 7

    def test_replayed_episode_is_identical(self):
        cfg = config(noise_variance=0.5, rounds_per_episode=200, seed=5)
        traces = []
        for _ in range(2):
            env = Environment(cfg)
            learner = FixedStrategyAgent.uniform(3, seed=10)
            opponent = SaddleOracleOpponent(seed=11)
            traces.append(env.run_episode(learner, opponent, 1))
        first, second = traces
        assert np.array_equal(first.row_actions, second.row_actions)
        assert np.array_equal(first.col_actions, second.col_actions)
        assert np.array_equal(first.rewards, second.rewards)

    def test_out_of_range_action_aborts(self):
        class RogueAgent(FixedStrategyAgent):
            def act_episode(self, n_rounds):
                return np.full(n_rounds, 99)

        env = Environment(config())
        with pytest.raises(SimulationError):
            env.run_episode(RogueAgent.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), 0)

    def test_out_of_range_per_round_action_aborts(self):
        class RogueExp3(Exp3Agent):
            def play_episode(self, reward, n_rounds):
                rows, policies = super().play_episode(reward, n_rounds)
                rows[2] = 99
                return rows, policies

        env = Environment(config())
        with pytest.raises(SimulationError, match=r"learner produced row 99 .* round 3$"):
            env.run_episode(RogueExp3(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), 0)

    @pytest.mark.parametrize(
        "t, i, message",
        [
            (1, -1, r"^learner produced row -1 outside \[0, 3\) at episode 2, round 2$"),
            (-1, 0, r"^learner asked for the reward of round 0 outside \[1, 5\] at episode 2$"),
            (5, 0, r"^learner asked for the reward of round 6 outside \[1, 5\] at episode 2$"),
        ],
        ids=["row-minus-1", "round-minus-1", "round-n_rounds"],
    )
    def test_reward_out_of_range_aborts(self, t, i, message):
        # The rows the learner reports are legal, so only the closure sees the
        # bad index: a -1 would otherwise read the last payoff row, or the
        # last round's column and noise.
        class Peeker(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                rows, strategy = super().play_episode(reward, n_rounds)
                reward(t, i)
                return rows, strategy

        env = Environment(config())
        with pytest.raises(SimulationError, match=message):
            env.run_episode(Peeker.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), 2)

    def test_out_of_range_opponent_column_aborts(self):
        class RogueOpponent(FixedOpponent):
            def act_episode(self, n_rounds):
                return np.full(n_rounds, -1)

        env = Environment(config())
        with pytest.raises(SimulationError, match="opponent produced column -1"):
            env.run_episode(
                FixedStrategyAgent.uniform(3, seed=0), RogueOpponent(np.array([1.0, 0, 0])), 0
            )

    def test_agent_without_strategy_aborts(self):
        class Blind(Exp3Agent):
            def play_episode(self, reward, n_rounds):
                rows, _ = super().play_episode(reward, n_rounds)
                return rows, None

        env = Environment(config())
        with pytest.raises(SimulationError, match="exposes no strategy"):
            env.run_episode(Blind(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), 0)

    @pytest.mark.parametrize(
        "strategy",
        [
            [2.0, -1.0, 0.0],
            [0.5, 0.5, 0.5],
            [math.nan, 0.5, 0.5],
            [[1 / 3] * 3] * 3 + [[0.6, 0.6, -0.2]] + [[1 / 3] * 3],
        ],
        ids=["negative-mix", "mix-sums-to-1.5", "nan-mix", "one-bad-round-policy"],
    )
    def test_a_strategy_off_the_simplex_aborts(self, strategy):
        class Liar(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                rows, _ = super().play_episode(reward, n_rounds)
                return rows, strategy

        env = Environment(config())
        with pytest.raises(SimulationError, match="strategy at episode 1 is not a probability"):
            env.run_episode(Liar.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), 1)

    def test_trace_rewards_are_the_rewards_paid(self):
        # Exp3 asks the closure once per round, and the trace holds the very
        # floats it was paid. A fixed learner never asks, and the trace holds
        # what the closure would have paid for its rows.
        class Recorder(Exp3Agent):
            def play_episode(self, reward, n_rounds):
                self.paid = []
                return super().play_episode(
                    lambda t, i: self.paid.append(reward(t, i)) or self.paid[-1], n_rounds
                )

        env = Environment(config(noise_variance=0.5, rounds_per_episode=40))
        opponent = SaddleOracleOpponent(seed=1)
        learner = Recorder(3, seed=0, reward_min=-2.0, reward_max=2.0)
        trace = env.run_episode(learner, opponent, 2)
        assert trace.rewards.dtype == np.float64
        assert trace.rewards.tolist() == learner.paid and len(learner.paid) == 40

        fixed = env.run_episode(FixedStrategyAgent.uniform(3, seed=0), opponent, 1)
        m = episode_game(env, 1).entries
        paid = m[fixed.row_actions, fixed.col_actions] + env.noise[1]
        assert fixed.rewards.tolist() == paid.tolist()

    def test_noise_shared_across_learners(self):
        # Two different learners replayed on the same environment draw the
        # same per-round noise: reward differences equal payoff differences.
        cfg = config(noise_variance=0.5, rounds_per_episode=30, seed=8)
        env_a = Environment(cfg)
        env_b = Environment(cfg)
        m = episode_game(env_a, 0).entries
        trace_a = env_a.run_episode(
            FixedStrategyAgent(np.array([1.0, 0, 0]), seed=0), FixedOpponent(np.array([1.0, 0, 0])), 0
        )
        trace_b = env_b.run_episode(
            FixedStrategyAgent(np.array([0, 1.0, 0]), seed=0), FixedOpponent(np.array([1.0, 0, 0])), 0
        )
        diff = trace_a.rewards - trace_b.rewards
        assert np.allclose(diff, m[0, 0] - m[1, 0])


class TestRunTrial:
    def test_trial_produces_all_episodes(self):
        env = Environment(config())
        traces = env.run_trial(FixedStrategyAgent.uniform(3, seed=0), SaddleOracleOpponent(seed=1))
        assert [t.episode for t in traces] == [0, 1, 2, 3]

    def test_learner_with_only_the_protocol_records_its_mix(self):
        # No act_episode and no current_strategy: the episode mix that
        # play_episode returns is the learner's strategy, and the opponent
        # best-responds to it in the next episode.
        class Alternator:
            def __init__(self):
                self.records = []

            def begin_episode(self, ensemble):
                pass

            def play_episode(self, reward, n_rounds):
                return [t % 2 for t in range(n_rounds)], [0.5, 0.5, 0.0]

            def end_episode(self, rows, cols, rewards):
                self.records.append((rows.tolist(), cols.tolist(), rewards.tolist()))

        from expertgames.agents import BestResponderOpponent

        env = Environment(config())
        learner = Alternator()
        traces = env.run_trial(learner, BestResponderOpponent(seed=1))
        assert len(learner.records) == len(traces) == 4
        for k, (trace, record) in enumerate(zip(traces, learner.records)):
            assert trace.learner_strategy.tolist() == [0.5, 0.5, 0.0]
            rows, cols, rewards = record
            assert rows == trace.row_actions.tolist() == [t % 2 for t in range(5)]
            assert cols == trace.col_actions.tolist()
            m = episode_game(env, k).entries
            assert rewards == trace.rewards.tolist() == m[rows, cols].tolist()
            if k:
                expected_col = int(np.argmin(np.array([0.5, 0.5, 0.0]) @ m))
                assert trace.opponent_strategy[expected_col] == 1.0

    def test_best_responder_sees_previous_strategy(self):
        from expertgames.agents import BestResponderOpponent

        env = Environment(config())
        learner = FixedStrategyAgent(np.array([1.0, 0.0, 0.0]), seed=0)
        opponent = BestResponderOpponent(seed=1)
        traces = env.run_trial(learner, opponent)
        # First episode: no history, uniform. Later: pure best response.
        assert np.allclose(traces[0].opponent_strategy, 1 / 3)
        for k in (1, 2, 3):
            m = episode_game(env, k).entries
            expected_col = int(np.argmin(m[0]))
            assert traces[k].opponent_strategy[expected_col] == 1.0
