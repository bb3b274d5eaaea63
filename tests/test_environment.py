import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from expertgames import estimator as estimator_module
from expertgames.agents import (
    Exp3Agent,
    FixedOpponent,
    FixedStrategyAgent,
    OFULinMatAgent,
    SaddleOracleOpponent,
)
from expertgames.config import (
    _THETA_DRAW_LIMIT,
    PAYOFF_LIMIT,
    EnvironmentConfig,
    ExperimentConfig,
    ExpertSpec,
    LearnerSpec,
    OpponentSpec,
    ThetaSpec,
    check_payoffs_bounded,
    check_theta_reachable,
    default_paper_config,
)
from expertgames.environment import Environment, SimulationError
from expertgames.estimator import EstimatorConfig
from expertgames.game import VALUE_TOL
from expertgames.harness import run_trial

from oracles import (
    cap_share_from_scratch,
    confidence_radius_from_scratch,
    emit_reward,
    episode_game,
    episode_saddle,
    episode_stack,
    expert_features,
    gram_from_scratch,
    one_shot_reveals,
    potential_sum_from_scratch,
    ridge_solution,
)


def config(**overrides):
    base = dict(
        n_rows=3,
        n_cols=3,
        n_experts=2,
        n_episodes=4,
        rounds_per_episode=5,
        noise_variance=0.0,
        theta_star=ThetaSpec(kind="fixed", values=(1.0, 0.0)),
        experts=ExpertSpec(kind="uniform"),
    )
    base.update(overrides)
    return EnvironmentConfig(**base)


class TestExpertFeatures:
    def test_revealed_features_lie_in_the_unit_cube(self):
        # Uniform experts are U[0, 1) draws and ExpertSpec checks fixed ones,
        # so every revealed stack is a float64 array of entries in [0, 1].
        matrices = np.random.default_rng(0).uniform(size=(4, 5, 3, 4))
        theta = ThetaSpec(kind="fixed", values=(1.0,) * 5)
        for experts in (ExpertSpec(kind="uniform"), ExpertSpec(kind="fixed", matrices=matrices)):
            cfg = config(n_rows=3, n_cols=4, n_experts=5, experts=experts, theta_star=theta)
            env = Environment(cfg, seed=1)
            for k in range(4):
                stack = episode_stack(env, k)
                assert stack.shape == (5, 3, 4) and stack.dtype == np.float64
                for i in range(3):
                    for j in range(4):
                        z = expert_features(stack, i, j)
                        assert z.min() >= 0.0 and z.max() <= 1.0
                        assert np.linalg.norm(z) <= math.sqrt(5) + 1e-12

    @pytest.mark.parametrize("entry", [1.5, -0.1, math.nan])
    def test_fixed_experts_outside_the_unit_interval_are_refused(self, entry):
        matrices = np.full((4, 2, 3, 3), 0.5)
        matrices[2, 1, 0, 2] = entry
        with pytest.raises(ValueError, match=r"^matrices: entries must"):
            ExpertSpec(kind="fixed", matrices=matrices)

    def test_features_out_of_range(self):
        stack = np.zeros((1, 2, 2))
        with pytest.raises(IndexError):
            expert_features(stack, 2, 0)
        with pytest.raises(IndexError):
            expert_features(stack, 0, -1)


class TestGroundTruth:
    def test_basis_theta_reproduces_first_expert(self):
        env = Environment(config())
        for k in range(4):
            first_expert = episode_stack(env, k)[0]
            assert np.array_equal(episode_game(env, k), first_expert)

    def test_zero_theta_gives_zero_game(self):
        env = Environment(config(theta_star=ThetaSpec(kind="fixed", values=(0.0, 0.0))))
        for k in range(4):
            assert np.all(episode_game(env, k) == 0.0)
            assert abs(episode_saddle(env, k).value) < 1e-9

    def test_entrywise_linear_consistency(self):
        cfg = config(
            n_rows=10,
            n_cols=10,
            n_experts=10,
            n_episodes=3,
            theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
        )
        env = Environment(cfg, seed=7)
        for k in range(3):
            stack = episode_stack(env, k)
            game = episode_game(env, k)
            worst = 0.0
            for i in range(10):
                for j in range(10):
                    z = expert_features(stack, i, j)
                    worst = max(worst, abs(game[i, j] - env.theta_star @ z))
            assert worst <= 1e-12

    def test_rejection_sampling_respects_bound(self):
        for seed in range(5):
            cfg = config(
                n_experts=10,
                theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
            )
            env = Environment(cfg, seed=seed)
            assert np.linalg.norm(env.theta_star) <= 3.0
            assert env.theta_rejections >= 0

    def test_fixed_theta_length_check(self):
        with pytest.raises(ValueError):
            Environment(config(theta_star=ThetaSpec(kind="fixed", values=(1.0, 0.0, 0.0))))

    def test_fixed_expert_list_shape_check(self):
        bad = np.zeros((3, 2, 3, 3))  # 3 episodes, config wants 4
        with pytest.raises(ValueError):
            Environment(config(experts=ExpertSpec(kind="fixed", matrices=tuple(bad.tolist()))))

    def test_fixed_experts_are_one_array_every_trial_shares(self):
        given = np.full((4, 2, 3, 3), 0.5)
        given[3, 1, 2, 2] = 1.0
        nested = given.tolist()
        nested[3][1][2][2] = 1  # an int among the floats
        spec = ExpertSpec(kind="fixed", matrices=nested)
        stack = spec.matrices
        assert type(stack) is np.ndarray and stack.dtype == np.float64
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert np.array_equal(stack, given)
        assert spec == ExpertSpec(kind="fixed", matrices=given)
        given[0, 0, 0, 0] = 0.25
        assert spec != ExpertSpec(kind="fixed", matrices=given)
        assert not np.shares_memory(ExpertSpec(kind="fixed", matrices=given).matrices, given)
        cfg = config(experts=spec)
        for seed in (0, [1, 2, 0]):
            env = Environment(cfg, seed)
            for k in range(4):
                assert np.shares_memory(episode_stack(env, k), stack)

    def test_rounds_do_not_perturb_expert_draws(self):
        short = Environment(config(rounds_per_episode=2))
        long = Environment(config(rounds_per_episode=50))
        for k in range(4):
            assert np.array_equal(episode_stack(short, k), episode_stack(long, k))
        assert np.array_equal(short.theta_star, long.theta_star)

    def test_cross_episode_independence_smoke(self):
        env = Environment(config(n_episodes=400), seed=3)
        series = np.array([episode_stack(env, k)[0, 0, 0] for k in range(400)])
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
            theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
        )
        env = Environment(cfg, seed=[4, 1, 0])
        stacks, games = one_shot_reveals(cfg, [4, 1, 0], env.theta_star)
        for k in (4, 0, 2, 2, 1, 3):
            assert np.array_equal(episode_stack(env, k), stacks[k])
            assert np.array_equal(episode_game(env, k), games[k])

    def test_episodes_outside_the_horizon_are_refused(self):
        env = Environment(config())
        for k in (-1, 4):
            with pytest.raises(IndexError, match=r"outside \[0, 4\)"):
                episode_stack(env, k)
        with pytest.raises(TypeError):
            episode_game(env, 2.5)
        assert np.array_equal(episode_stack(env, np.int64(3)), episode_stack(env, 3))

    def test_a_trial_holds_one_episode_of_experts(self):
        # One stack is 288,000 bytes; the whole horizon's stacks take 5.76 MB.
        cfg = config(n_rows=60, n_cols=60, n_experts=10, n_episodes=20, theta_star=ThetaSpec())
        stack_bytes = 8 * 10 * 60 * 60
        episode_game(Environment(cfg), 0)  # imports numpy.random, which numpy loads lazily
        tracemalloc.start()
        try:
            env = Environment(cfg)
            for k in range(cfg.n_episodes):
                _, stack, game, _ = env.reveal(k)  # one reveal per episode, as in a trial
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack.shape == (10, 60, 60) and game.shape == (60, 60)
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


def off_simplex_cases():
    # The three failed conditions, for a learner mix, for one of five
    # per-round policies and for an opponent's mix.
    policies = [[1 / 3] * 3] * 4
    bad = {"nan": [math.nan, 0.5, 0.5], "negative": [0.6, 0.6, -0.2], "short-sum": [0.5, 0.25, 0.2]}
    problems = {"nan": "be finite", "negative": "be nonnegative", "short-sum": "sum to 1"}
    cases = [
        pytest.param("learner", [2.0, -1.0, 0.0], "be nonnegative", id="negative-mix"),
        pytest.param("learner", [0.5, 0.5, 0.5], "sum to 1", id="mix-sums-to-1.5"),
        pytest.param("learner", policies[:3] + [[0.6, 0.6, -0.2]] + policies[:1],
                     "be nonnegative", id="one-bad-round-policy"),
    ]
    for name, mix in bad.items():
        cases += [
            pytest.param("learner", mix, problems[name], id=f"{name}-learner-mix"),
            pytest.param("learner", policies + [mix], problems[name], id=f"{name}-policies"),
            pytest.param("opponent", mix, problems[name], id=f"{name}-opponent"),
        ]
    return cases


class TestRunEpisode:
    def test_single_round_scripted(self):
        env = Environment(config(rounds_per_episode=1))
        learner = FixedStrategyAgent(np.array([0.0, 1.0, 0.0]), seed=0)
        opponent = FixedOpponent(np.array([1.0, 0.0, 0.0]), seed=1)
        trace = env.run_episode(learner, opponent, env.reveal(0))
        assert trace.row_actions.tolist() == [1]
        assert trace.col_actions.tolist() == [0]
        assert trace.rewards[0] == episode_game(env, 0)[1, 0]

    def test_pure_agents_zero_noise_constant_reward(self):
        env = Environment(config(rounds_per_episode=20))
        learner = FixedStrategyAgent(np.array([1.0, 0.0, 0.0]), seed=0)
        opponent = FixedOpponent(np.array([0.0, 0.0, 1.0]), seed=1)
        trace = env.run_episode(learner, opponent, env.reveal(2))
        assert np.all(trace.rewards == episode_game(env, 2)[0, 2])

    def test_trace_has_exactly_t_records(self):
        env = Environment(config(rounds_per_episode=7))
        trace = env.run_episode(
            FixedStrategyAgent.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0]), seed=1),
            env.reveal(0)
        )
        assert len(trace.row_actions) == len(trace.col_actions) == len(trace.rewards) == 7

    def test_replayed_episode_is_identical(self):
        cfg = config(noise_variance=0.5, rounds_per_episode=200)
        traces = []
        for _ in range(2):
            env = Environment(cfg, seed=5)
            learner = FixedStrategyAgent.uniform(3, seed=10)
            opponent = SaddleOracleOpponent(seed=11)
            traces.append(env.run_episode(learner, opponent, env.reveal(1)))
        first, second = traces
        assert np.array_equal(first.row_actions, second.row_actions)
        assert np.array_equal(first.col_actions, second.col_actions)
        assert np.array_equal(first.rewards, second.rewards)

    def test_out_of_range_action_aborts(self):
        class RogueAgent(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                return np.full(n_rounds, 99), self.current_strategy

        env = Environment(config())
        with pytest.raises(SimulationError):
            env.run_episode(
                RogueAgent.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(0)
            )

    def test_out_of_range_per_round_action_aborts(self):
        class RogueExp3(Exp3Agent):
            def play_episode(self, reward, n_rounds):
                rows, policies = super().play_episode(reward, n_rounds)
                rows[2] = 99
                return rows, policies

        env = Environment(config())
        with pytest.raises(SimulationError, match=r"learner produced row 99 .* round 3$"):
            env.run_episode(
                RogueExp3(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(0)
            )

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
            env.run_episode(
                Peeker.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(2)
            )

    def test_out_of_range_opponent_column_aborts(self):
        class RogueOpponent(FixedOpponent):
            def play_episode(self, reward, n_rounds):
                return np.full(n_rounds, -1), self.current_strategy

        env = Environment(config())
        with pytest.raises(SimulationError, match="opponent produced column -1"):
            env.run_episode(
                FixedStrategyAgent.uniform(3, seed=0), RogueOpponent(np.array([1.0, 0, 0])),
                env.reveal(0)
            )

    @pytest.mark.parametrize("seat", ["learner", "opponent"])
    def test_actions_short_of_the_episode_abort(self, seat):
        players = {"learner": FixedStrategyAgent.uniform(3, seed=0),
                   "opponent": FixedOpponent(np.array([1.0, 0, 0]), seed=1)}
        play = players[seat].play_episode

        def one_round_short(reward, n_rounds):
            actions, strategy = play(reward, n_rounds)
            return actions[:-1], strategy

        players[seat].play_episode = one_round_short
        env = Environment(config())
        message = rf"^{seat} drew \(4,\) actions for a 5-round episode 0$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(players["learner"], players["opponent"], env.reveal(0))

    def test_agent_without_strategy_aborts(self):
        class Blind(Exp3Agent):
            def play_episode(self, reward, n_rounds):
                rows, _ = super().play_episode(reward, n_rounds)
                return rows, None

        env = Environment(config())
        with pytest.raises(SimulationError, match="exposes no strategy"):
            env.run_episode(Blind(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(0))

    @pytest.mark.parametrize(
        "learner, message",
        [
            (FixedStrategyAgent([0.5, 0.25, 0.25], seed=0),
             r"^learner's strategy at episode 0 has shape \(3,\), not \(4,\) or \(5, 4\)$"),
            (Exp3Agent(3, seed=0),
             r"^learner's strategy at episode 0 has shape \(5, 3\), not \(4,\) or \(5, 4\)$"),
        ],
        ids=["fixed-mix", "exp3-policies"],
    )
    def test_a_strategy_of_the_wrong_shape_is_named(self, learner, message):
        # The rows are legal in a 4-row game; only the strategy's shape is wrong.
        env = Environment(config(n_rows=4))
        with pytest.raises(SimulationError, match=message):
            env.run_episode(learner, FixedOpponent(np.array([1.0, 0, 0])), env.reveal(0))

    def test_opponent_strategy_of_the_wrong_shape_is_named(self):
        class Wide(FixedOpponent):
            def play_episode(self, reward, n_rounds):
                cols, _ = super().play_episode(reward, n_rounds)
                return cols, [0.25] * 4

        env = Environment(config())
        message = r"^opponent's strategy at episode 0 has shape \(4,\), not \(3,\)$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(FixedStrategyAgent.uniform(3, seed=0), Wide([1.0, 0, 0]), env.reveal(0))

    @pytest.mark.parametrize("experts", ["uniform", "fixed"])
    def test_players_get_read_only_arrays(self, experts):
        # The stack and the true game reach the players without a copy, so a
        # write must fail and leave the episode as it would have been.
        matrices = np.random.default_rng(5).uniform(size=(4, 2, 3, 3))
        spec = ExpertSpec(kind="fixed", matrices=matrices) if experts == "fixed" else ExpertSpec()
        theta = ThetaSpec(kind="fixed", values=(0.7, -0.2))
        cfg = config(noise_variance=0.5, experts=spec, theta_star=theta)
        refused = []

        def scribble(array):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            refused.append(array.shape)

        class Scribbler(OFULinMatAgent):
            def begin_episode(self, stack):
                scribble(stack)
                super().begin_episode(stack)

        class Vandal(SaddleOracleOpponent):
            def begin_episode(self, true_game, learner_previous_strategy=None):
                scribble(true_game)
                super().begin_episode(true_game, learner_previous_strategy)

        est = EstimatorConfig(0.1, 3.0, 3e-3, 2)
        plain = Environment(cfg, seed=2).run_trial(
            [(OFULinMatAgent(3, est, seed=0), SaddleOracleOpponent(seed=1))]
        )[0]
        env = Environment(cfg, seed=2)
        scribbled = env.run_trial([(Scribbler(3, est, seed=0), Vandal(seed=1))])[0]
        assert refused == [(2, 3, 3), (3, 3)] * 4
        for k, (a, b) in enumerate(zip(plain, scribbled)):
            assert a.rewards.tolist() == b.rewards.tolist()
            assert np.array_equal(a.row_actions, b.row_actions)
            assert np.array_equal(a.col_actions, b.col_actions)
            assert a.theta_hat.tolist() == b.theta_hat.tolist()
        if experts == "fixed":
            assert np.array_equal(spec.matrices, matrices)

    @pytest.mark.parametrize("role, strategy, problem", off_simplex_cases())
    def test_a_strategy_off_the_simplex_aborts(self, role, strategy, problem):
        class Liar(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                rows, _ = super().play_episode(reward, n_rounds)
                return rows, strategy

        class LyingOpponent(FixedOpponent):
            def play_episode(self, reward, n_rounds):
                cols, _ = super().play_episode(reward, n_rounds)
                return cols, strategy

        learner, opponent = FixedStrategyAgent.uniform(3, seed=0), FixedOpponent([1.0, 0, 0])
        if role == "learner":
            learner = Liar.uniform(3, seed=0)
        else:
            opponent = LyingOpponent([1.0, 0, 0])
        message = (rf"^{role}'s strategy at episode 1 is not a probability vector: "
                   rf"strategy probabilities must {problem}$")
        with pytest.raises(SimulationError, match=message):
            env = Environment(config())
            env.run_episode(learner, opponent, env.reveal(1))

    @pytest.mark.parametrize(
        "make_rows, dtype",
        [
            (lambda rows: rows + 0.9, "float64"),
            (lambda rows: [0.0, 1.7, 2.9, 0.0, 1.0], "float64"),
            (lambda rows: ["1", "2", "0", "1", "2"], "<U1"),
            (lambda rows: [True, False, True, True, False], "bool"),
        ],
        ids=["rows-plus-0.9", "floats", "strings", "bools"],
    )
    def test_non_integer_rows_abort(self, make_rows, dtype):
        # A cast to int would truncate the floats, parse the strings and read
        # the bools as 0 and 1, all of them legal rows.
        class Caster(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                rows, strategy = super().play_episode(reward, n_rounds)
                return make_rows(rows), strategy

        env = Environment(config())
        message = rf"^learner drew rows of dtype {dtype}, not integers, at episode 1$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(
                Caster.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(1)
            )

    @pytest.mark.parametrize(
        "strategy, dtype",
        [([True, False, False], "bool"), (["1", "0", "0"], "<U1")],
        ids=["bools", "strings"],
    )
    def test_a_strategy_that_is_not_real_numbers_aborts(self, strategy, dtype):
        class Caster(FixedStrategyAgent):
            def play_episode(self, reward, n_rounds):
                rows, _ = super().play_episode(reward, n_rounds)
                return rows, strategy

        env = Environment(config())
        message = rf"^learner's strategy at episode 2 has dtype {dtype}, not real numbers$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(
                Caster.uniform(3, seed=0), FixedOpponent(np.array([1.0, 0, 0])), env.reveal(2)
            )

    def test_non_integer_opponent_columns_abort(self):
        class Caster(FixedOpponent):
            def play_episode(self, reward, n_rounds):
                cols, strategy = super().play_episode(reward, n_rounds)
                return cols + 0.5, strategy

        env = Environment(config())
        message = r"^opponent drew columns of dtype float64, not integers, at episode 0$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(
                FixedStrategyAgent.uniform(3, seed=0), Caster(np.array([1.0, 0, 0])), env.reveal(0)
            )

    def test_an_opponent_strategy_of_bools_aborts(self):
        class Caster(FixedOpponent):
            def play_episode(self, reward, n_rounds):
                cols, strategy = super().play_episode(reward, n_rounds)
                return cols, strategy.astype(bool)

        env = Environment(config())
        message = r"^opponent's strategy at episode 0 has dtype bool, not real numbers$"
        with pytest.raises(SimulationError, match=message):
            env.run_episode(
                FixedStrategyAgent.uniform(3, seed=0), Caster(np.array([1.0, 0, 0])), env.reveal(0)
            )

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
        trace = env.run_episode(learner, opponent, env.reveal(2))
        assert trace.rewards.dtype == np.float64
        assert trace.rewards.tolist() == learner.paid and len(learner.paid) == 40

        fixed = env.run_episode(FixedStrategyAgent.uniform(3, seed=0), opponent, env.reveal(1))
        m = episode_game(env, 1)
        paid = m[fixed.row_actions, fixed.col_actions] + env.noise[1]
        assert fixed.rewards.tolist() == paid.tolist()

    def test_noise_shared_across_learners(self):
        # Two different learners replayed on the same environment draw the
        # same per-round noise: reward differences equal payoff differences.
        cfg = config(noise_variance=0.5, rounds_per_episode=30)
        env_a = Environment(cfg, seed=8)
        env_b = Environment(cfg, seed=8)
        m = episode_game(env_a, 0)
        trace_a = env_a.run_episode(
            FixedStrategyAgent(np.array([1.0, 0, 0]), seed=0), FixedOpponent(np.array([1.0, 0, 0])),
            env_a.reveal(0)
        )
        trace_b = env_b.run_episode(
            FixedStrategyAgent(np.array([0, 1.0, 0]), seed=0), FixedOpponent(np.array([1.0, 0, 0])),
            env_b.reveal(0)
        )
        diff = trace_a.rewards - trace_b.rewards
        assert np.allclose(diff, m[0, 0] - m[1, 0])


class TestRunTrial:
    def test_trial_produces_all_episodes(self):
        env = Environment(config())
        traces = env.run_trial(
            [(FixedStrategyAgent.uniform(3, seed=0), SaddleOracleOpponent(seed=1))]
        )[0]
        assert [t.episode for t in traces] == [0, 1, 2, 3]

    def test_learner_with_only_the_protocol_records_its_mix(self):
        # No current_strategy: the episode mix that
        # play_episode returns is the learner's strategy, and the opponent
        # best-responds to it in the next episode.
        class Alternator:
            def __init__(self):
                self.records = []

            def begin_episode(self, stack):
                pass

            def play_episode(self, reward, n_rounds):
                return [t % 2 for t in range(n_rounds)], [0.5, 0.5, 0.0]

            def end_episode(self, rows, cols, rewards):
                self.records.append((rows.tolist(), cols.tolist(), rewards.tolist()))

        from expertgames.agents import BestResponderOpponent

        env = Environment(config())
        learner = Alternator()
        traces = env.run_trial([(learner, BestResponderOpponent(seed=1))])[0]
        assert len(learner.records) == len(traces) == 4
        for k, (trace, record) in enumerate(zip(traces, learner.records)):
            assert trace.learner_strategy.tolist() == [0.5, 0.5, 0.0]
            rows, cols, rewards = record
            assert rows == trace.row_actions.tolist() == [t % 2 for t in range(5)]
            assert cols == trace.col_actions.tolist()
            m = episode_game(env, k)
            assert rewards == trace.rewards.tolist() == m[rows, cols].tolist()
            if k:
                expected_col = int(np.argmin(np.array([0.5, 0.5, 0.0]) @ m))
                assert trace.opponent_strategy[expected_col] == 1.0

    def test_best_responder_sees_previous_strategy(self):
        from expertgames.agents import BestResponderOpponent

        env = Environment(config())
        learner = FixedStrategyAgent(np.array([1.0, 0.0, 0.0]), seed=0)
        opponent = BestResponderOpponent(seed=1)
        traces = env.run_trial([(learner, opponent)])[0]
        # First episode: no history, uniform. Later: pure best response.
        assert np.allclose(traces[0].opponent_strategy, 1 / 3)
        for k in (1, 2, 3):
            m = episode_game(env, k)
            expected_col = int(np.argmin(m[0]))
            assert traces[k].opponent_strategy[expected_col] == 1.0


class TestOFULinMatRecord:
    RIDGE, BOUND, DELTA = 0.1, 3.0, 3e-3

    def players(self, n_episodes=8):
        cfg = config(n_rows=4, n_cols=4, n_experts=3, n_episodes=n_episodes,
                     rounds_per_episode=60, noise_variance=0.5,
                     theta_star=ThetaSpec(kind="fixed", values=(0.6, -0.4, 0.3)))
        env = Environment(cfg, seed=3)
        learner = OFULinMatAgent(4, EstimatorConfig(self.RIDGE, self.BOUND, self.DELTA, 3), seed=1)
        return env, learner, SaddleOracleOpponent(seed=2)

    def test_trace_equals_a_from_scratch_recomputation(self):
        # theta_hat, beta and the cap share are the plan's, from the rows before
        # the episode; det_ratio and the potential sum and bound are from the
        # rows through it. Each is recomputed from the trace's rows, columns
        # and rewards with dense numpy, to 1e-9 relative.
        ridge, bound = self.RIDGE, self.BOUND
        env, learner, opponent = self.players()
        traces = env.run_trial([(learner, opponent)])[0]
        feats, rewards = np.empty((0, 3)), np.empty(0)
        shares = []
        for k, trace in enumerate(traces):
            theta = ridge_solution(feats, rewards, ridge)
            beta = confidence_radius_from_scratch(feats, ridge, bound, self.DELTA)
            stack = episode_stack(env, k)
            shares.append(cap_share_from_scratch(stack, feats, rewards, ridge, bound, self.DELTA))
            log_det_before = np.linalg.slogdet(gram_from_scratch(feats, ridge))[1]
            feats = np.vstack([feats, stack[:, trace.row_actions, trace.col_actions].T])
            rewards = np.concatenate([rewards, trace.rewards])
            log_det_after = np.linalg.slogdet(gram_from_scratch(feats, ridge))[1]

            assert np.allclose(trace.theta_hat, theta, rtol=1e-9, atol=1e-12)
            error = np.linalg.norm(theta - env.theta_star)
            assert trace.theta_error == pytest.approx(error, rel=1e-9)
            assert trace.beta == pytest.approx(beta, rel=1e-9)
            assert trace.diagnostics["cap_share"] == shares[-1]
            ratio = math.exp(log_det_after - log_det_before)
            assert trace.diagnostics["det_ratio"] == pytest.approx(ratio, rel=1e-9)
            assert trace.diagnostics["potential_sum"] == pytest.approx(
                potential_sum_from_scratch(feats, ridge), rel=1e-9
            )
            growth = log_det_after - 3 * math.log(ridge)
            assert trace.diagnostics["potential_bound"] == pytest.approx(2.0 * growth, rel=1e-9)
        # The cap lowers every entry at first, then some of them, then none.
        assert shares[0] == 1.0 and any(0.0 < x < 1.0 for x in shares) and shares[-1] == 0.0

    def test_the_cap_lowers_every_entry_at_episode_1_of_the_case_study(self):
        # With no data the ellipsoid bonus is (sqrt(2 ln(1/delta) / ridge) + B) ||z||,
        # above the norm ball's B ||z|| on every entry; by the last episode the
        # ellipsoid lies inside the ball.
        traces = run_trial(default_paper_config(trials=1), 0)["learners"]["ofulinmat"]["traces"]
        assert traces[0].diagnostics["cap_share"] == 1.0
        assert traces[-1].diagnostics["cap_share"] == 0.0

    def test_a_covered_episode_plans_optimistically(self):
        # The cap is theta_hat'z + B ||z||, not the ball's own B ||z||, so
        # coverage alone does not make the plan at least the true game; this
        # pins that it does on the case study (2 trials, against the saddle
        # oracle) and on 20 many-trials-sized trials against the best
        # responder. The plan and the true game are summed in different
        # orders, so a margin may miss 0 by rounding: k = 1 multiple of
        # VALUE_TOL * max|M|, far above float64 rounding at these scales.
        k = 1.0
        paper = default_paper_config(trials=2)
        paper = dataclasses.replace(paper, learners=(LearnerSpec("ofulinmat"),))
        env = EnvironmentConfig(n_rows=4, n_cols=4, n_experts=3, n_episodes=5,
                                rounds_per_episode=25, noise_variance=0.5,
                                theta_star=ThetaSpec(norm_bound=3.0))
        small = ExperimentConfig(env, (LearnerSpec("ofulinmat"),), OpponentSpec("best_responder"))
        covered = 0
        for cfg, trials in ((paper, 2), (small, 20)):
            for trial in range(trials):
                traces = run_trial(cfg, trial)["learners"]["ofulinmat"]["traces"]
                truth = Environment(cfg.environment, [cfg.master_seed, trial, 0])
                for trace in traces:
                    if not trace.diagnostics["coverage"]:
                        continue
                    covered += 1
                    scale = np.abs(episode_game(truth, trace.episode)).max()
                    margin = trace.diagnostics["entrywise_optimism_margin"]
                    assert margin >= -k * VALUE_TOL * scale, (trial, trace.episode, margin)
        assert covered == 2 * 15 + 20 * 5  # every episode was covered at these seeds

    def test_an_episode_solves_for_theta_hat_once(self, monkeypatch):
        # Plan, diagnostics and fold all read one confidence set, set by the
        # fold: one back substitution per episode once data exists.
        env, learner, opponent = self.players(n_episodes=3)
        env.run_episode(learner, opponent, env.reveal(0))
        env.run_episode(learner, opponent, env.reveal(1))
        calls = []
        back_solve = estimator_module._back_solve
        monkeypatch.setattr(
            estimator_module, "_back_solve", lambda *args: calls.append(1) or back_solve(*args)
        )
        trace = env.run_episode(learner, opponent, env.reveal(2))
        assert len(calls) == 1
        assert trace.theta_hat is not learner.estimator.theta_hat
