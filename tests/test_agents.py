import bisect
import itertools
import math

import numpy as np
import pytest

from expertgames.agents import (
    AgentProtocolError,
    BestResponderOpponent,
    Exp3Agent,
    FixedOpponent,
    FixedStrategyAgent,
    OFULinMatAgent,
    SaddleOracleOpponent,
    UniformOpponent,
)
from expertgames.estimator import EstimatorConfig
from expertgames.game import solve_saddle_point

from oracles import (
    FloatExp3,
    NumpyExp3,
    absorb_row,
    entrywise_optimistic_matrix,
    estimator_copy,
    exp3_policy_trace,
    sample_action,
)


def case_study_estimator_config(n_experts=10):
    return EstimatorConfig(ridge=0.1, param_bound=3.0, delta=3e-3, n_experts=n_experts)


class TestOFULinMatPlanning:
    def test_degenerate_constant_expert_gives_valid_strategy(self):
        # No data, near-vanishing bound and near-one delta: the optimistic
        # matrix built from an all-ones expert is constant, so any valid
        # mixed strategy is acceptable.
        config = EstimatorConfig(ridge=1.0, param_bound=1e-9, delta=0.999, n_experts=1)
        agent = OFULinMatAgent(2, config, seed=0)
        agent.begin_episode(np.ones((1, 2, 2)))
        assert np.allclose(agent.estimator.theta_hat, 0.0)
        spread = agent.optimistic_matrix.max() - agent.optimistic_matrix.min()
        assert spread < 1e-12
        assert agent.current_strategy.min() >= 0.0
        assert agent.current_strategy.sum() == pytest.approx(1.0)

    def test_single_expert_recovers_scaled_game(self):
        # With one expert and plentiful noiseless data from theta* = 2, the
        # optimistic matrix is a positive multiple of the expert game, so the
        # planned strategy matches that game's saddle strategy exactly.
        expert = np.array([[0.9, 0.1], [0.2, 0.8]])
        stack = expert[None, :, :]
        config = EstimatorConfig(ridge=0.01, param_bound=3.0, delta=0.01, n_experts=1)
        agent = OFULinMatAgent(2, config, seed=1)
        rng = np.random.default_rng(2)
        readings = [expert[rng.integers(2), rng.integers(2)] for _ in range(2000)]
        agent.estimator.absorb_batch(np.array(readings)[:, None], 2.0 * np.array(readings))
        agent.begin_episode(stack)
        assert agent.estimator.theta_hat[0] == pytest.approx(2.0, abs=1e-3)
        assert np.allclose(agent.optimistic_matrix / expert, agent.optimistic_matrix[0, 0] / expert[0, 0])
        reference = solve_saddle_point(expert)
        assert np.allclose(agent.current_strategy, reference.row_strategy, atol=1e-7)

    def test_matches_dense_inverse_oracle_at_case_study_scale(self):
        rng = np.random.default_rng(3)
        config = case_study_estimator_config()
        agent = OFULinMatAgent(10, config, seed=4)
        theta_star = rng.normal(0.15, 0.4, size=10)  # small norm: no payoff cap
        features = np.empty((2000, 10))
        rewards = np.empty(2000)
        for t in range(2000):
            z = features[t] = rng.uniform(size=10)
            rewards[t] = float(theta_star @ z) + rng.normal()
        agent.estimator.absorb_batch(features, rewards)
        stack = rng.uniform(size=(10, 10, 10))
        agent.begin_episode(stack)
        assert agent.cap_share == 0.0
        oracle = entrywise_optimistic_matrix(
            stack,
            agent.estimator.theta_hat,
            agent.estimator.gram,
            agent.estimator.beta,
        )
        assert np.allclose(agent.optimistic_matrix, oracle, atol=1e-8)

    def test_cap_applies_without_data(self):
        # Fresh estimator with the case-study hyperparameters: the confidence
        # ellipsoid dwarfs the norm ball, so entries are capped at
        # <theta, z> + bound * ||z||, here bound * ||z|| with theta = 0.
        config = case_study_estimator_config(n_experts=3)
        agent = OFULinMatAgent(2, config, seed=5)
        stack = np.random.default_rng(6).uniform(size=(3, 2, 2))
        agent.begin_episode(stack)
        assert agent.cap_share == 1.0
        norms = np.linalg.norm(stack, axis=0)
        assert np.allclose(agent.optimistic_matrix, 3.0 * norms)

    def test_rejects_mismatched_stack(self):
        agent = OFULinMatAgent(2, case_study_estimator_config(n_experts=2), seed=0)
        with pytest.raises(ValueError, match="^stack has 3 experts, estimator expects 2$"):
            agent.begin_episode(np.ones((3, 2, 2)))
        with pytest.raises(ValueError, match="^stack row count does not match"):
            agent.begin_episode(np.ones((2, 4, 2)))

    def test_plans_on_a_gram_matrix_whose_eigenvalues_round_below_ridge(self):
        # All-ones experts make every feature the all-ones vector. With a tiny
        # ridge, the Gram matrix's smallest eigenvalue reads below ridge in
        # floating point, negative from episode 8 on, though it is at least ridge.
        config = EstimatorConfig(ridge=2e-12, param_bound=3.0, delta=3e-3, n_experts=10)
        agent = OFULinMatAgent(10, config, seed=0)
        stack = np.ones((10, 10, 10))
        rng = np.random.default_rng(0)
        for _ in range(15):
            agent.begin_episode(stack)
            rows, _ = agent.play_episode(None, 200)
            cols = rng.integers(10, size=200)
            agent.end_episode(rows, cols, 5.0 + rng.normal(0.0, 0.7, size=200))
        assert agent.estimator.n_obs == 15 * 200


class TestOFULinMatActObserve:
    def make_agent(self, n=3, seed=0):
        return OFULinMatAgent(n, case_study_estimator_config(n_experts=2), seed=seed)

    def test_act_before_planning_raises(self):
        with pytest.raises(AgentProtocolError):
            self.make_agent().play_episode(None, 1)

    def test_degenerate_strategy_always_first_action(self):
        agent = self.make_agent()
        agent.current_strategy = np.array([1.0, 0.0, 0.0])
        assert all(agent.play_episode(None, 49)[0] == 0)

    def test_uniform_sampling_frequencies(self):
        agent = OFULinMatAgent(10, case_study_estimator_config(n_experts=1), seed=7)
        agent.current_strategy = np.full(10, 0.1)
        draws, _ = agent.play_episode(None, 10_000)
        freqs = np.bincount(draws, minlength=10) / 10_000
        se = math.sqrt(0.1 * 0.9 / 10_000)
        assert np.all(np.abs(freqs - 0.1) < 3 * se + 1e-12)

    def test_same_seed_same_actions(self):
        strategy = np.array([0.2, 0.5, 0.3])
        seq = []
        for _ in range(2):
            agent = self.make_agent(seed=11)
            agent.current_strategy = strategy
            seq.append(agent.play_episode(None, 39)[0].tolist())
        assert seq[0] == seq[1]

    def test_end_episode_empty_buffer_is_noop(self):
        agent = self.make_agent()
        agent.begin_episode(np.full((2, 3, 3), 0.5))
        before = agent.estimator.gram.copy()
        agent.end_episode([], [], [])
        assert np.array_equal(agent.estimator.gram, before)

    def test_end_episode_before_planning_raises(self):
        with pytest.raises(AgentProtocolError):
            self.make_agent().end_episode([0], [0], [1.0])

    def test_buffered_episode_equals_direct_absorption(self):
        rng = np.random.default_rng(8)
        stack = rng.uniform(size=(2, 3, 3))
        agent = self.make_agent()
        agent.begin_episode(stack)
        mirror = estimator_copy(agent.estimator)
        plays = [(rng.integers(3), rng.integers(3), rng.normal()) for _ in range(200)]
        rows, cols, rewards = (list(column) for column in zip(*plays))
        agent.end_episode(rows, cols, rewards)
        for i, j, r in plays:
            absorb_row(mirror, stack[:, i, j], float(r))
        assert np.allclose(agent.estimator.gram, mirror.gram, rtol=1e-12)
        assert np.allclose(agent.estimator.xty, mirror.xty, rtol=1e-12)
        assert agent.estimator.n_obs == 200


class TestStrategyConstantWithinEpisode:
    def test_ofulinmat_policy_is_frozen_between_boundaries(self):
        from expertgames.config import EnvironmentConfig, ExpertSpec, ThetaSpec
        from expertgames.environment import Environment
        from expertgames.agents import SaddleOracleOpponent

        class SpyAgent(OFULinMatAgent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.fingerprints = []

            def play_episode(self, reward, n_rounds):
                # One fingerprint per drawn action: the strategy it came from.
                actions, mix = super().play_episode(reward, n_rounds)
                self.fingerprints += [self.current_strategy.tobytes()] * len(actions)
                return actions, mix

        env = Environment(
            EnvironmentConfig(
                n_rows=4,
                n_cols=4,
                n_experts=3,
                n_episodes=3,
                rounds_per_episode=50,
                noise_variance=0.5,
                theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=2.0),
                experts=ExpertSpec(kind="uniform"),
            ),
            seed=12,
        )
        agent = SpyAgent(4, EstimatorConfig(0.1, 2.0, 0.01, 3), seed=13)
        env.run_trial([(agent, SaddleOracleOpponent(seed=14))])
        per_episode = [agent.fingerprints[k * 50 : (k + 1) * 50] for k in range(3)]
        for hashes in per_episode:
            assert len(set(hashes)) == 1


class TestExp3:
    def test_first_round_policy_is_uniform_regardless_of_estimates(self):
        agent = Exp3Agent(10, seed=0)
        agent.cumulative_estimates[:] = np.arange(10.0)
        # alpha_1 = min(1, sqrt(10 ln 10)) clamps to 1, wiping the softmax out.
        assert np.allclose(agent.policy(1), 0.1)

    def test_policy_refuses_round_zero(self):
        with pytest.raises(ValueError, match="^round index must be >= 1$"):
            Exp3Agent(3, seed=0).policy(0)

    def test_zero_rewards_keep_policy_uniform(self):
        agent = Exp3Agent(10, seed=1)
        agent.begin_episode()
        for t in range(1, 60):
            agent.observe(agent.act(t), 0, 0.0)
            assert np.allclose(agent.policy(t), 1.0 / 10)

    def test_scripted_trace_matches_reference(self):
        rng = np.random.default_rng(2)
        actions = [int(a) for a in rng.integers(0, 4, size=20)]
        rewards = [float(r) for r in rng.normal(0.4, 0.7, size=20)]
        agent = Exp3Agent(4, seed=3, reward_min=-2.0, reward_max=2.0)
        agent.begin_episode()
        seen = []
        for t, (action, reward) in enumerate(zip(actions, rewards), start=1):
            seen.append(agent.policy(t))
            agent._last_policy = seen[-1]
            agent._awaiting_feedback = True
            agent.observe(action, 0, reward)
        reference = exp3_policy_trace(4, actions, rewards, -2.0, 2.0)
        for ours, theirs in zip(seen, reference):
            assert np.allclose(ours, theirs, atol=1e-12)

    @pytest.mark.parametrize("n_actions", [2, 4, 10])
    def test_stream_equals_numpy_reference(self, n_actions):
        # Three 300-round episodes, each one block of uniform draws, cross
        # two episode boundaries, where the reference draws on. The agent's
        # Python-float round must give the float oracle's bits; np.exp and
        # numpy's pairwise sum may differ from math.exp and math.fsum in the
        # last bit, so against the numpy round the actions are equal and the
        # policies agree to 1e-14 (the largest gap seen is 7.8e-16).
        for seed in range(50):
            agent = Exp3Agent(n_actions, seed=seed, reward_min=-1.0, reward_max=1.0)
            floats = FloatExp3(n_actions, seed, reward_min=-1.0, reward_max=1.0)
            numpy = NumpyExp3(n_actions, seed, reward_min=-1.0, reward_max=1.0)
            table = np.random.default_rng([seed, 99]).uniform(-1.5, 1.5, size=(900, n_actions))
            for episode in range(3):
                episode_table = table[300 * episode : 300 * (episode + 1)].tolist()
                agent.begin_episode()
                asked = []
                rows, policies = agent.play_episode(
                    lambda t, i: asked.append((t, i)) or episode_table[t][i], 300
                )
                for reference in (floats, numpy):
                    reference.begin_episode()
                    expected_rows, expected_policies = [], []
                    for t, round_rewards in enumerate(episode_table, 1):
                        action = reference.act(t)
                        expected_rows.append(action)
                        expected_policies.append(list(reference.last_strategy))
                        reference.observe(action, round_rewards[action])
                    assert rows.tolist() == expected_rows, f"seed {seed}, episode {episode}"
                    if reference is floats:
                        assert policies.tolist() == expected_policies, f"seed {seed}"
                    else:
                        np.testing.assert_allclose(policies, expected_policies, rtol=0, atol=1e-14)
                # Only the played row's reward is asked, once per round.
                assert asked == list(enumerate(expected_rows))

    @staticmethod
    def assert_episode_equals_float_oracle(agent, oracle, table):
        """One episode on ``table[t][i]`` rewards: the agent's rows and policy
        stack equal the float oracle's bit for bit. Returns the oracle's
        leading arm after each round."""
        agent.begin_episode()
        rows, policies = agent.play_episode(lambda t, i: table[t][i], len(table))
        oracle.begin_episode()
        expected_rows, expected_policies, leaders = [], [], []
        for t, round_rewards in enumerate(table, 1):
            action = oracle.act(t)
            expected_rows.append(action)
            expected_policies.append(oracle.last_strategy)
            oracle.observe(action, round_rewards[action])
            leaders.append(int(oracle.cumulative_estimates.argmax()))
        assert rows.tolist() == expected_rows
        assert policies.shape == (len(table), agent.n_actions)
        assert policies.tobytes() == np.array(expected_policies).tobytes()
        assert agent.cumulative_estimates == oracle.cumulative_estimates.tolist()
        return leaders

    def test_one_agent_across_horizons_equals_the_float_oracle(self):
        # Horizons of 1, 37 and 300 rounds, then 37 again, on one agent and
        # one generator: each horizon's schedule is its own, and a repeated
        # horizon reads the one computed before.
        agent = Exp3Agent(5, seed=13, reward_min=-1.0, reward_max=1.0)
        oracle = FloatExp3(5, 13, reward_min=-1.0, reward_max=1.0)
        rng = np.random.default_rng([13, 99])
        for n_rounds in (1, 37, 300, 37):
            table = rng.uniform(-1.5, 1.5, size=(n_rounds, 5)).tolist()
            self.assert_episode_equals_float_oracle(agent, oracle, table)

    @pytest.mark.parametrize("n_actions", [1, 2])
    def test_fewest_actions_equal_the_float_oracle(self, n_actions):
        # One action has ln n = 0, so alpha and gamma are 0 and its policy is 1.
        for seed in range(10):
            agent = Exp3Agent(n_actions, seed=seed, reward_min=-1.0, reward_max=1.0)
            oracle = FloatExp3(n_actions, seed, reward_min=-1.0, reward_max=1.0)
            tables = np.random.default_rng([seed, 98]).uniform(-1.5, 1.5, size=(2, 100, n_actions))
            for table in tables.tolist():
                self.assert_episode_equals_float_oracle(agent, oracle, table)
        if n_actions == 1:
            assert agent.play_episode(lambda t, i: 1.0, 3)[1].tolist() == [[1.0]] * 3

    @pytest.mark.parametrize("n_actions", [2, 4, 10])
    def test_rounds_where_alpha_clamps_play_exactly_uniform(self, n_actions):
        # alpha_t = min(1, sqrt(n ln n / t)) is 1 while t <= n ln n: those
        # rounds' policy is exactly 1/n, whatever the estimates hold.
        n_ln_n = n_actions * math.log(n_actions)
        clamped = sum(math.sqrt(n_ln_n / t) >= 1.0 for t in range(1, 200))
        assert clamped >= 1
        agent = Exp3Agent(n_actions, seed=3, reward_min=0.0, reward_max=1.0)
        oracle = FloatExp3(n_actions, 3, reward_min=0.0, reward_max=1.0)
        table = np.random.default_rng(4).uniform(0.5, 1.0, size=(200, n_actions)).tolist()
        self.assert_episode_equals_float_oracle(agent, oracle, table)
        agent.begin_episode()
        policies = agent.play_episode(lambda t, i: table[t][i], 200)[1].tolist()
        assert policies[:clamped] == [[1.0 / n_actions] * n_actions] * clamped
        assert policies[clamped] != [1.0 / n_actions] * n_actions

    def test_an_episode_whose_leading_arm_changes_equals_the_float_oracle(self):
        # Arm 0 pays the most for 100 rounds, then arm 2: the arm holding the
        # largest estimate changes during the episode.
        table = [[1.0, 0.2, 0.0]] * 100 + [[0.0, 0.2, 1.0]] * 200
        for seed in range(5):
            agent = Exp3Agent(3, seed=seed, reward_min=0.0, reward_max=1.0)
            oracle = FloatExp3(3, seed, reward_min=0.0, reward_max=1.0)
            leaders = self.assert_episode_equals_float_oracle(agent, oracle, table)
            assert leaders[99] == 0 and leaders[-1] == 2

    def test_draws_on_and_past_the_running_totals(self):
        # Rounds 1-3 over ten actions play exactly 0.1 each. A draw equal to
        # a running total does not exceed it, so the next action plays; ten
        # 0.1s add up to the largest double below 1, so a draw of that double
        # exceeds no total and plays the last action. bisect_right over the
        # cumulative sums gives the same actions.
        draws = [np.nextafter(0.1, 0.0), 0.1, np.nextafter(1.0, 0.0)]
        cutoffs = list(itertools.accumulate([0.1] * 10))
        expected = [min(bisect.bisect_right(cutoffs, u), 9) for u in draws]
        assert expected == [0, 1, 9]

        class ScriptedDraws:
            def random(self, size=None):
                return draws.pop(0) if size is None else np.array(draws[:size])

        agent = Exp3Agent(10)
        agent.rng = ScriptedDraws()
        agent.begin_episode()
        assert agent.play_episode(lambda t, i: 0.0, 3)[0].tolist() == expected
        agent.begin_episode()
        for t, action in enumerate(expected, 1):
            assert agent.act(t) == action
            agent.observe(action, 0, 0.0)

    @pytest.mark.parametrize("n_actions", [0, -1])
    def test_refuses_fewer_than_one_action(self, n_actions):
        with pytest.raises(ValueError, match=f"^n_actions must be at least 1, got {n_actions}$"):
            Exp3Agent(n_actions, seed=0)

    def test_play_episode_equals_stepping(self):
        # 3 episodes of 200 rounds: each episode's block of draws equals the
        # stepped learner's 200 single draws, across two episode boundaries.
        table = np.random.default_rng(8).uniform(-1.5, 1.5, size=(600, 7)).tolist()
        whole = Exp3Agent(7, seed=8, reward_min=-1.0, reward_max=1.0)
        stepped = Exp3Agent(7, seed=8, reward_min=-1.0, reward_max=1.0)
        for episode in range(3):
            episode_table = table[200 * episode : 200 * (episode + 1)]
            whole.begin_episode()
            asked = []
            rows, policies = whole.play_episode(
                lambda t, i: asked.append(episode_table[t][i]) or asked[-1], 200
            )
            stepped.begin_episode()
            stepped_rows, stepped_rewards, stepped_policies = [], [], []
            for t, round_rewards in enumerate(episode_table, 1):
                action = stepped.act(t)
                stepped.observe(action, 0, round_rewards[action])
                stepped_rows.append(action)
                stepped_rewards.append(round_rewards[action])
                stepped_policies.append(stepped._last_policy)
            stepped.end_episode(stepped_rows, [0] * 200, stepped_rewards)
            assert rows.tolist() == stepped_rows
            assert asked == stepped_rewards
            assert policies.tolist() == stepped_policies
            assert whole.cumulative_estimates == stepped.cumulative_estimates
            assert policies.tolist()[-1] == stepped._last_policy
            whole.end_episode(rows, [0] * 200, asked)

    def test_play_episode_then_act_draw_one_stream(self):
        # An episode of 37 rounds, then 5 stepped rounds, take the uniforms
        # of one random(42) call: the actions are those uniforms' inverse-CDF
        # draws, and the generator ends where the single call leaves it.
        agent = Exp3Agent(4, seed=21, reward_min=-1.0, reward_max=1.0)
        uniforms = np.random.default_rng(21).random(37 + 5).tolist()
        fresh = np.random.default_rng(21)
        fresh.random(37 + 5)

        def inverse_cdf(policy, u):
            return min(bisect.bisect_right(list(itertools.accumulate(policy)), u), 3)

        agent.begin_episode()
        rows, policies = agent.play_episode(lambda t, i: math.sin(t + i), 37)
        assert rows.tolist() == [inverse_cdf(p, u) for p, u in zip(policies.tolist(), uniforms)]
        agent.begin_episode()
        for t, u in enumerate(uniforms[37:], 1):
            action = agent.act(t)
            assert action == inverse_cdf(agent._last_policy, u)
            agent.observe(action, 0, math.cos(t))
        assert agent.rng.bit_generator.state == fresh.bit_generator.state

    def test_policy_respects_uniform_floor(self):
        agent = Exp3Agent(5, seed=4, reward_min=-1.0, reward_max=1.0)
        agent.begin_episode()
        for t in range(1, 200):
            policy = agent.policy(t)
            alpha = min(1.0, math.sqrt(5 * math.log(5) / t))
            assert min(policy) >= alpha / 5 - 1e-15
            assert sum(policy) == pytest.approx(1.0)
            agent.observe(agent.act(t), 0, 1.0)

    def test_estimates_reset_each_episode(self):
        agent = Exp3Agent(3, seed=5)
        agent.begin_episode()
        agent.observe(agent.act(1), 0, 1.0)
        assert max(agent.cumulative_estimates) > 0
        agent.begin_episode()
        assert agent.cumulative_estimates == [0.0, 0.0, 0.0]

    def test_observe_before_act_raises(self):
        agent = Exp3Agent(3, seed=6)
        agent.begin_episode()
        with pytest.raises(AgentProtocolError):
            agent.observe(0, 0, 1.0)

    def test_act_twice_raises(self):
        agent = Exp3Agent(3, seed=7)
        agent.begin_episode()
        agent.act(1)
        with pytest.raises(AgentProtocolError):
            agent.act(2)

    def test_rejects_degenerate_clip_range(self):
        with pytest.raises(ValueError):
            Exp3Agent(3, reward_min=1.0, reward_max=1.0)

    def test_same_seed_same_trajectory(self):
        def play(seed):
            agent = Exp3Agent(6, seed=seed, reward_min=-1.0, reward_max=1.0)
            agent.begin_episode()
            out = []
            for t in range(1, 100):
                a = agent.act(t)
                out.append(a)
                agent.observe(a, 0, math.sin(t))
            return out

        assert play(42) == play(42)


class TestOpponents:
    def test_saddle_oracle_on_matching_pennies(self):
        opponent = SaddleOracleOpponent(seed=0)
        opponent.begin_episode(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(opponent.current_strategy, [0.5, 0.5], atol=1e-7)
        assert opponent.play_episode(None, 1)[0][0] in (0, 1)

    def test_fixed_opponent_always_plays_stored_column(self):
        opponent = FixedOpponent(np.array([0.0, 1.0]), seed=1)
        opponent.begin_episode(np.zeros((2, 2)))
        assert all(opponent.play_episode(None, 20)[0] == 1)

    def test_fixed_opponent_dimension_check(self):
        opponent = FixedOpponent(np.array([0.5, 0.5]), seed=1)
        with pytest.raises(ValueError):
            opponent.begin_episode(np.zeros((2, 3)))

    def test_best_responder_poaches_previous_strategy(self):
        opponent = BestResponderOpponent(seed=2)
        game = np.array([[1.0, -1.0], [-1.0, 1.0]])
        opponent.begin_episode(game, learner_previous_strategy=np.array([1.0, 0.0]))
        assert np.array_equal(opponent.current_strategy, [0.0, 1.0])

    def test_best_responder_without_history_is_uniform(self):
        opponent = BestResponderOpponent(seed=3)
        opponent.begin_episode(np.zeros((2, 4)))
        assert np.allclose(opponent.current_strategy, 0.25)

    def test_uniform_opponent(self):
        opponent = UniformOpponent(seed=4)
        opponent.begin_episode(np.zeros((2, 5)))
        assert np.allclose(opponent.current_strategy, 0.2)

    def test_pure_and_uniform_strategies_are_read_only_arrays(self):
        # Column 2 is the best response to the row mix (0.5, 0.5).
        game = np.array([[1.0, 2.0, 0.0, 3.0], [1.0, 0.0, -1.0, 1.0]])
        responder = BestResponderOpponent(seed=6)
        responder.begin_episode(game, learner_previous_strategy=np.array([0.5, 0.5]))
        uniform = UniformOpponent(seed=7)
        uniform.begin_episode(np.zeros((2, 5)))
        fixed = FixedOpponent([0.25, 0.75], seed=8)
        fixed.begin_episode(np.zeros((2, 2)))
        pure = responder.current_strategy
        assert pure.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert np.allclose(uniform.current_strategy, 0.2)
        for player in (responder, uniform, fixed, FixedStrategyAgent.uniform(5)):
            strategy = player.current_strategy
            assert strategy.dtype == np.float64 and not strategy.flags.writeable

    def test_act_before_begin_raises(self):
        with pytest.raises(AgentProtocolError):
            UniformOpponent(seed=5).play_episode(None, 1)


class TestFixedStrategyAgent:
    def test_uniform_constructor(self):
        agent = FixedStrategyAgent.uniform(4, seed=0)
        assert np.allclose(agent.current_strategy, 0.25)

    def test_protocol_is_inert(self):
        agent = FixedStrategyAgent(np.array([1.0, 0.0]), seed=1)
        agent.begin_episode(None)
        asked = []
        rows, strategy = agent.play_episode(lambda t, i: asked.append((t, i)), 3)
        assert rows.tolist() == [0, 0, 0]
        assert asked == []  # a committed mix needs no reward within the episode
        agent.end_episode(rows, [0, 0, 0], [0.0, 10.0, 20.0])
        assert np.array_equal(strategy, [1.0, 0.0])
        assert np.array_equal(agent.current_strategy, [1.0, 0.0])

    def test_strategy_is_checked_once_as_a_read_only_copy(self):
        given = np.array([0.5, 0.5 + 1e-12, -1e-12])
        agent = FixedStrategyAgent(given, seed=0)
        assert agent.current_strategy.tolist() == [0.5, 0.5 + 1e-12, 0.0]
        assert not agent.current_strategy.flags.writeable
        assert not np.shares_memory(given, agent.current_strategy)
        for player in (FixedStrategyAgent, FixedOpponent):
            with pytest.raises(ValueError, match="must sum to 1"):
                player([0.5, 0.4])

    @pytest.mark.parametrize(
        "probs", [[0.3, 0.5, 0.2], [0.1] * 10, [0.0, 1.0, 0.0], [1.0 / 3] * 3]
    )
    def test_play_episode_equals_repeated_sample(self, probs):
        agent = FixedStrategyAgent(np.array(probs), seed=np.random.default_rng(7))
        many, mix = agent.play_episode(None, 500)
        rng = np.random.default_rng(7)
        assert many.tolist() == [sample_action(mix, rng) for _ in range(500)]

    def test_play_episode_clips_draws_above_a_short_cumulative_sum(self):
        # Ten 0.1s add up to the largest double below 1, so the top draw
        # lands past the last cutoff and must be clipped to the last action.
        agent = FixedStrategyAgent(np.full(10, 0.1))
        assert np.cumsum(agent.current_strategy)[-1] < 1.0
        draws = [0.0, 0.55, np.nextafter(1.0, 0.0)]

        class ScriptedDraws:
            def __init__(self):
                self.queue = list(draws)

            def random(self, size=None):
                if size is None:
                    return self.queue.pop(0)
                out, self.queue = np.array(self.queue[:size]), self.queue[size:]
                return out

        agent.rng = ScriptedDraws()
        many, mix = agent.play_episode(None, 3)
        rng = ScriptedDraws()
        assert many.tolist() == [sample_action(mix, rng) for _ in range(3)] == [0, 5, 9]
