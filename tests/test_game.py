import numpy as np
import pytest

from expertgames import game
from expertgames.game import (
    VALUE_TOL,
    check_strategy,
    solve_saddle_point,
    strategy_problem,
)

from oracles import (
    best_response_value,
    bland_positive_lp,
    dantzig_positive_lp,
    expected_payoff,
    row_elimination_positive_lp,
    sample_action,
    support_enumeration_saddle,
)


def assert_saddle_invariants(matrix, saddle):
    m = np.asarray(matrix, dtype=float)
    mu = saddle.row_strategy
    nu = saddle.col_strategy
    assert abs(float(mu @ m @ nu) - saddle.value) < VALUE_TOL
    # Security levels: mu guarantees the value against every pure column,
    # nu concedes at most the value against every pure row.
    assert (mu @ m).min() >= saddle.value - VALUE_TOL
    assert (m @ nu).max() <= saddle.value + VALUE_TOL


class TestTypes:
    def test_solver_rejects_nan(self):
        with pytest.raises(ValueError, match="^payoff matrix entries must be finite$"):
            solve_saddle_point(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,), (1, 2, 2)],
                             ids=["no-rows", "no-cols", "1-d", "3-d"])
    def test_solver_rejects_empty_or_not_2d(self, shape):
        with pytest.raises(ValueError, match="^payoff matrix must be a non-empty 2-D array$"):
            solve_saddle_point(np.zeros(shape))

    def test_strategy_must_sum_to_one(self):
        with pytest.raises(ValueError):
            check_strategy(np.array([0.5, 0.4]))

    def test_strategy_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            check_strategy(np.array([1.2, -0.2]))

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([], "non-empty 1-D"),
            ([[0.5, 0.5]], "non-empty 1-D"),
            ([np.nan, 1.0], "must be finite"),
            ([np.inf, 0.0], "must be finite"),
            ([np.inf, -np.inf], "must be finite"),
            ([-1e308, -1e308], "must be nonnegative"),
            ([1e308, 1e308], "must sum to 1"),  # finite entries whose sum overflows
        ],
    )
    def test_strategy_checks_and_messages(self, probs, message):
        with pytest.raises(ValueError, match=message):
            check_strategy(np.array(probs, dtype=float))

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([[0.5, 0.5], [np.nan, 1.0]], "must be finite"),
            ([[0.5, 0.5], [1.0, -1e-8]], "must be nonnegative"),
            ([[0.5, 0.5], [0.5, 0.4]], "must sum to 1"),
            ([[0.5, 0.5], [1.0, -1e-12]], None),
        ],
    )
    def test_strategy_problem_reads_each_vector_of_the_last_axis(self, probs, message):
        problem = strategy_problem(np.array(probs))
        assert problem is None if message is None else message in problem

    def test_strategy_clips_a_copy(self):
        given = np.array([0.5, 0.5 + 1e-12, -1e-12, -0.0])
        strategy = check_strategy(given)
        assert strategy.tolist() == [0.5, 0.5 + 1e-12, 0.0, 0.0]
        assert np.signbit(strategy).tolist() == [False] * 4
        assert not strategy.flags.writeable and strategy.dtype == np.float64
        assert given.flags.writeable and not np.shares_memory(given, strategy)

    def test_sample_is_reproducible(self):
        strategy = np.array([0.3, 0.5, 0.2])
        draws_a = [sample_action(strategy, np.random.default_rng(7)) for _ in range(1)]
        draws_b = [sample_action(strategy, np.random.default_rng(7)) for _ in range(1)]
        assert draws_a == draws_b


class TestSolveSaddlePoint:
    def test_zero_matrix(self):
        saddle = solve_saddle_point(np.zeros((2, 2)))
        assert abs(saddle.value) < VALUE_TOL
        assert_saddle_invariants(np.zeros((2, 2)), saddle)

    def test_matching_pennies(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        saddle = solve_saddle_point(m)
        assert abs(saddle.value) < VALUE_TOL
        assert np.allclose(saddle.row_strategy, [0.5, 0.5], atol=1e-7)
        assert np.allclose(saddle.col_strategy, [0.5, 0.5], atol=1e-7)

    def test_strategies_are_read_only_probability_vectors(self):
        saddle = solve_saddle_point(np.array([[3.0, 2.0, 0.5], [1.0, 0.0, 4.0]]))
        for strategy, size in ((saddle.row_strategy, 2), (saddle.col_strategy, 3)):
            assert strategy.dtype == np.float64 and strategy.shape == (size,)
            assert not strategy.flags.writeable
            assert strategy_problem(strategy) is None and not np.signbit(strategy).any()

    def test_dominant_pure_strategy(self):
        m = np.array([[3.0, 2.0], [1.0, 0.0]])
        saddle = solve_saddle_point(m)
        assert abs(saddle.value - 2.0) < VALUE_TOL
        assert_saddle_invariants(m, saddle)

    def test_random_games_match_support_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = rng.integers(-3, 4, size=(4, 4)).astype(float)
            saddle = solve_saddle_point(m)
            oracle_value, _, _ = support_enumeration_saddle(m)
            assert abs(saddle.value - oracle_value) < VALUE_TOL
            assert_saddle_invariants(m, saddle)

    def test_rectangular_games(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 4), (4, 1), (2, 5), (5, 3)]:
            m = rng.normal(size=shape)
            saddle = solve_saddle_point(m)
            oracle_value, _, _ = support_enumeration_saddle(m)
            assert abs(saddle.value - oracle_value) < VALUE_TOL
            assert_saddle_invariants(m, saddle)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve_saddle_point(np.array([[1.0, np.inf], [0.0, 0.0]]))

    def test_deterministic(self):
        m = np.random.default_rng(11).normal(size=(6, 6))
        first = solve_saddle_point(m)
        second = solve_saddle_point(m)
        assert first.value == second.value
        assert np.array_equal(first.row_strategy, second.row_strategy)
        assert np.array_equal(first.col_strategy, second.col_strategy)


class TestSolverProperties:
    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 4))
        base = solve_saddle_point(m)
        for c in [-2.5, 0.75, 10.0]:
            shifted = solve_saddle_point(m + c)
            assert abs(shifted.value - (base.value + c)) < VALUE_TOL
            assert_saddle_invariants(m + c, shifted)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(4, 3))
        base = solve_saddle_point(m)
        for c in [0.5, 2.0, 7.0]:
            scaled = solve_saddle_point(c * m)
            assert abs(scaled.value - c * base.value) < VALUE_TOL * max(1.0, c)
            assert_saddle_invariants(c * m, scaled)

    def test_minimax_equality_via_security_levels(self):
        # Von Neumann: the row guarantee and the column concession coincide.
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=rng.integers(2, 7, size=2))
            saddle = solve_saddle_point(m)
            row_guarantee = (saddle.row_strategy @ m).min()
            col_concession = (m @ saddle.col_strategy).max()
            assert abs(row_guarantee - col_concession) < VALUE_TOL

    def test_best_response_brackets_value(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5))
        saddle = solve_saddle_point(m)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(5))
            nu = rng.dirichlet(np.ones(5))
            assert best_response_value(m, nu, "row") >= saddle.value - VALUE_TOL
            assert best_response_value(m, mu, "col") <= saddle.value + VALUE_TOL

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4)
            m = np.array([[a, b], [c, d]])
            saddle = solve_saddle_point(m)
            maximin = max(min(a, b), min(c, d))
            minimax = min(max(a, c), max(b, d))
            if maximin == minimax:  # saddle in pure strategies
                expected = maximin
            else:
                expected = (a * d - b * c) / (a - b - c + d)
            assert abs(saddle.value - expected) < VALUE_TOL
            assert_saddle_invariants(m, saddle)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6, 1e8, 1e9, 1e12])
    def test_scale_equivariance_across_magnitudes(self, c):
        # The LP sees payoffs shifted by their range and divided by their
        # largest entry, so neither the absolute simplex tolerance nor the
        # shift depends on the payoff scale. Shifted by 1 and left unscaled,
        # this game fails its certificate at 1e8, loses all strategy mass at
        # 1e9 and 1e12, and its value is off by 1.6e-8 of itself at 1e-6.
        m = np.random.default_rng(4).normal(size=(8, 8))
        base = solve_saddle_point(m)
        scaled = solve_saddle_point(c * m)
        assert abs(scaled.value - c * base.value) <= 1e-12 * abs(c * base.value)
        np.testing.assert_array_equal(
            scaled.row_strategy > 0, base.row_strategy > 0
        )

    @pytest.mark.parametrize(
        "m, value",
        [
            pytest.param([[0.0, 1e10]], 0.0, id="pure-0-1e10"),
            pytest.param([[-1e10, 0.0], [-1e10, 5.0]], -1e10, id="pure-neg1e10-5"),
            pytest.param([[0.0, 1e10], [1e10, 0.0]], 5e9, id="mixed-0-1e10"),
            pytest.param([[1e-300, 0.0], [0.0, 1e-300]], 5e-301, id="mixed-1e-300"),
            pytest.param([[0.0, 1.5e308]], 0.0, id="pure-0-1.5e308"),
            pytest.param([[-1.5e308, 0.0], [0.0, -1.5e308]], -7.5e307, id="mixed-neg1.5e308"),
        ],
    )
    def test_wide_and_tiny_payoff_ranges(self, m, value):
        # Shifted by 1 and divided by the largest entry, the smallest LP
        # entry of the first two games falls below the simplex tolerance and
        # the solve raises "LP unbounded". The last two have a range above
        # half the float maximum, which a shift by the range would overflow.
        m = np.array(m)
        saddle = solve_saddle_point(m)
        tol = 1e-12 * np.abs(m).max()
        assert abs(saddle.value - value) <= 1e-12 * abs(value)
        assert (saddle.row_strategy @ m).min() >= saddle.value - tol
        assert (m @ saddle.col_strategy).max() <= saddle.value + tol

    @pytest.mark.parametrize(
        "m, value, mu, nu",
        [
            pytest.param([[-1e308, 1e308]], -1e308, [1.0], [1.0, 0.0], id="range-2e308"),
            pytest.param(
                [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]], 0.0, [0.5, 0.5], [0.5, 0.5],
                id="pennies-1.7e308",
            ),
        ],
    )
    def test_ranges_beyond_the_float_maximum_solve_and_certify(self, m, value, mu, nu):
        # The range overflows to inf unless the payoffs are halved first;
        # unhalved, the first game's value came back NaN with a certificate
        # that looked only at the strategies.
        m = np.array(m)
        saddle = solve_saddle_point(m)
        assert abs(saddle.value - value) <= VALUE_TOL * np.abs(m).max()
        assert abs(saddle.value - saddle.row_strategy @ m @ saddle.col_strategy) <= (
            VALUE_TOL * np.abs(m).max()
        )
        np.testing.assert_allclose(saddle.row_strategy, mu, atol=1e-12)
        np.testing.assert_allclose(saddle.col_strategy, nu, atol=1e-12)


def _positive(m):
    """The matrix in [1/2, 1] that ``solve_saddle_point`` hands the LP."""
    m = np.asarray(m, dtype=float)
    low = float(m.min())
    spread = float(m.max()) - low or 1.0
    return ((m - low) / spread + 1.0) * 0.5


def _seeded_games():
    rng = np.random.default_rng(2024)
    for n in [1, 2, 3, 5, 10, 17, 30, 45, 60]:
        yield f"uniform-{n}x{n}", rng.uniform(0.0, 1.0, size=(n, n))
        yield f"normal-{n}x{n}", rng.normal(size=(n, n))
    for shape in [(1, 7), (7, 1), (3, 12), (12, 3), (20, 60), (60, 20)]:
        yield f"rect-{shape[0]}x{shape[1]}", rng.normal(size=shape)


def _tied_games():
    """Symmetric and degenerate games. The constant, duplicated-row and
    integer games tie in the ratio test, where Bland's lowest-basis
    tie-break decides. In integer-3x4 and integer-5x5 the priced column
    meets a zero ratio while a lower column is eligible, so Bland's column
    enters instead."""
    base = np.random.default_rng(5).uniform(size=(4, 3))
    yield "matching-pennies", np.array([[1.0, -1.0], [-1.0, 1.0]])
    yield "rock-paper-scissors", np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    yield "constant", np.full((4, 5), 3.0)
    yield "duplicated-rows", np.vstack([base, base[[2, 0]]])
    yield "duplicated-cols", base[:, [0, 1, 1, 2, 0]]
    yield "duplicated-both", np.vstack([base, base])[:, [0, 0, 1, 2, 2]]
    # Ties where the lowest tied row and the lowest tied basis index differ.
    yield "integer-2x5", np.array([[1.0, 1.0, 0.0, 2.0, 1.0], [2.0, 1.0, 1.0, 0.0, 1.0]])
    yield "integer-5x4", np.array(
        [[1.0, 0, 0, 0], [0, 0, 0, 2], [1, 2, 1, 1], [2, 2, 1, 1], [1, 2, 0, 2]]
    )
    yield "integer-3x4", np.array([[2.0, 2, 1, 0], [1, 1, 0, 2], [2, 0, 0, 2]])
    yield "integer-5x5", np.array(
        [[0.0, 0, 1, 1, 2], [2, 1, 0, 0, 1], [2, 1, 2, 2, 2], [2, 1, 2, 2, 1], [1, 1, 1, 0, 2]]
    )
    yield "identity-5x5", np.eye(5)


_ALL_GAMES = [pytest.param(m, id=name) for name, m in [*_seeded_games(), *_tied_games()]]


class TestInPlacePivot:
    @pytest.mark.parametrize("m", _ALL_GAMES)
    def test_bits_equal_row_elimination(self, m):
        a = _positive(m)
        q, duals, objective, pivots = game._solve_positive_lp(a)
        ref_q, ref_duals, ref_objective, ref_pivots = row_elimination_positive_lp(a)
        assert q.tobytes() == ref_q.tobytes()
        assert duals.tobytes() == ref_duals.tobytes()
        assert objective == ref_objective
        assert pivots == ref_pivots


class TestPivotRule:
    @pytest.mark.parametrize("m", _ALL_GAMES)
    def test_same_optimum_as_bland(self, m):
        a = _positive(m)
        q, duals, objective, _ = game._solve_positive_lp(a)
        ref_q, ref_duals, ref_objective, _ = bland_positive_lp(a)
        np.testing.assert_array_equal(q > 0, ref_q > 0)
        np.testing.assert_array_equal(duals > 0, ref_duals > 0)
        # Relative to each vector's largest entry: a strategy's small
        # weights carry the rounding of its large ones.
        assert np.abs(q - ref_q).max() <= 1e-12 * np.abs(ref_q).max()
        assert np.abs(duals - ref_duals).max() <= 1e-12 * np.abs(ref_duals).max()
        assert abs(objective - ref_objective) <= 1e-12 * abs(ref_objective)

    @pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in _tied_games()])
    def test_degenerate_games_terminate_and_certify(self, m):
        saddle = solve_saddle_point(m)
        assert_saddle_invariants(m, saddle)
        assert 1 <= saddle.pivots <= sum(m.shape)

    def test_pinned_pivot_counts(self):
        games = np.random.default_rng(0).uniform(size=(5, 60, 60))
        assert [solve_saddle_point(m).pivots for m in games] == [56, 51, 55, 59, 64]
        assert solve_saddle_point(np.array([[1.0, -1.0], [-1.0, 1.0]])).pivots == 2
        assert solve_saddle_point(np.random.default_rng(1).normal(size=(10, 10))).pivots == 10

    def test_fewer_pivots_than_bland_on_large_games(self):
        for m in np.random.default_rng(0).uniform(size=(5, 60, 60)):
            assert solve_saddle_point(m).pivots < bland_positive_lp(_positive(m))[3]

    def test_fewer_pivots_than_dantzig_on_expert_mixtures(self):
        # The large-game workload's true games: theta . (10 U[0,1] experts).
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = np.tensordot(rng.normal(0.5, 1.0, size=10), rng.uniform(size=(10, 60, 60)), 1)
            assert solve_saddle_point(m).pivots < dantzig_positive_lp(_positive(m))[3]


class TestSolverErrors:
    def test_pivot_budget(self, monkeypatch):
        monkeypatch.setattr(game, "_MAX_PIVOTS", 1)
        m = np.random.default_rng(3).normal(size=(5, 5))
        with pytest.raises(RuntimeError, match="pivot budget"):
            solve_saddle_point(m)
        # Matching pennies takes two pivots, so the second allowed pivot may
        # reach the optimum, while a budget of one still runs out.
        pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(RuntimeError, match="pivot budget"):
            solve_saddle_point(pennies)
        monkeypatch.setattr(game, "_MAX_PIVOTS", 2)
        assert solve_saddle_point(pennies).pivots == 2

    def test_unbounded_lp(self):
        # Column 1 is all zero, so q_1 grows without bound once column 0 is in.
        with pytest.raises(RuntimeError, match="LP unbounded"):
            game._solve_positive_lp(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [-1.0, 0.0], [1e-12, 0.0]])
    def test_zero_strategy_mass(self, weights):
        with pytest.raises(RuntimeError, match="zero strategy mass"):
            game._normalized(np.array(weights))

    def test_certificate_rejects_a_corrupted_solution(self, monkeypatch):
        solve = game._solve_positive_lp

        def swapped_columns(a):
            q, duals, objective, pivots = solve(a)
            return q[::-1].copy(), duals, objective, pivots

        m = np.array([[3.0, 0.0], [0.0, 1.0]])  # unique mixed saddle (1/4, 3/4)
        monkeypatch.setattr(game, "_solve_positive_lp", swapped_columns)
        with pytest.raises(RuntimeError, match=r"duality gap 1\.5 exceeds 3e-07 on a 2x2 game"):
            solve_saddle_point(m)

    def test_certificate_rejects_a_wrong_value(self, monkeypatch):
        solve = game._solve_positive_lp

        def shifted_objective(a):
            q, duals, objective, pivots = solve(a)
            return q, duals, objective * 0.9, pivots

        m = np.array([[3.0, 0.0], [0.0, 1.0]])
        monkeypatch.setattr(game, "_solve_positive_lp", shifted_objective)
        message = r"value 1\.16667 is 0\.417 from mu' M nu, beyond 3e-07"
        with pytest.raises(RuntimeError, match=message):
            solve_saddle_point(m)


class TestBestResponseValue:
    def test_matching_pennies_uniform(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert best_response_value(m, np.array([0.5, 0.5]), "row") == pytest.approx(0.0)

    def test_pure_column_case(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert best_response_value(m, np.array([1.0, 0.0]), "row") == pytest.approx(2.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(5, 5))
        nu = rng.dirichlet(np.ones(5))
        brute = max(sum(m[i, j] * nu[j] for j in range(5)) for i in range(5))
        assert best_response_value(m, nu, "row") == pytest.approx(brute)
        mu = rng.dirichlet(np.ones(5))
        brute_col = min(sum(mu[i] * m[i, j] for i in range(5)) for j in range(5))
        assert best_response_value(m, mu, "col") == pytest.approx(brute_col)

    def test_dimension_mismatch(self):
        m = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            best_response_value(m, np.array([0.5, 0.5]), "row")
        with pytest.raises(ValueError):
            best_response_value(m, np.array([0.5, 0.5]), "col")
        with pytest.raises(ValueError):
            best_response_value(m, np.array([1.0]), "diag")


class TestExpectedPayoff:
    def test_matching_pennies_uniform(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        uniform = np.array([0.5, 0.5])
        assert expected_payoff(m, uniform, uniform) == pytest.approx(0.0)

    def test_pure_selection(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert expected_payoff(m, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_matches_double_sum(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(3, 4))
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(4))
        brute = sum(mu[i] * m[i, j] * nu[j] for i in range(3) for j in range(4))
        assert expected_payoff(m, mu, nu) == pytest.approx(brute)

    def test_dimension_mismatch(self):
        m = np.zeros((2, 3))
        with pytest.raises(ValueError):
            expected_payoff(m, np.array([1.0]), np.array([1.0, 0.0, 0.0]))
