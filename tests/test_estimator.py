import math

import numpy as np
import pytest

from scipy.linalg import cho_solve, solve_triangular

from expertgames.estimator import EstimatorConfig, RidgeEstimator, _back_solve, _forward_solve

from oracles import (
    absorb_row,
    beta_radius_closed_form,
    confidence_radius_from_scratch,
    ellipsoid_norm,
    estimator_copy,
    gram_from_scratch,
    potential_sum_from_scratch,
    ridge_solution,
)


def make(ridge=1.0, bound=1.0, delta=0.05, dim=2):
    return RidgeEstimator(EstimatorConfig(ridge, bound, delta, dim))


STATE = ("gram", "xty", "_chol", "n_obs", "potential_sum",
         "theta_hat", "log_det", "beta", "potential_bound")


def state_bytes(est):
    """Every attribute of the estimator's state, bit for bit."""
    return {name: np.array(getattr(est, name)).tobytes() for name in STATE}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ridge": 0.0},
            {"ridge": -1.0},
            {"param_bound": 0.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"n_experts": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(ridge=0.1, param_bound=3.0, delta=0.003, n_experts=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            EstimatorConfig(**base)

    @pytest.mark.parametrize("kwargs", [{"param_bound": 1e300}, {"ridge": 1e308}])
    def test_rejects_overflowing_radius(self, kwargs):
        base = dict(ridge=0.1, param_bound=3.0, delta=0.003, n_experts=10)
        base.update(kwargs)
        with pytest.raises(ValueError, match=r"^param_bound: .*overflows.* ridge "):
            EstimatorConfig(**base)

    def test_large_finite_radius_is_accepted(self):
        est = make(ridge=0.1, bound=1e150, delta=0.003, dim=2)
        assert math.isfinite(est.beta)


def spd_factor(dim: int, seed: int) -> np.ndarray:
    """Cholesky factor of a ridge Gram matrix of uniform features, as the estimator holds."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(size=(3 * dim, dim))
    return np.linalg.cholesky(0.1 * np.eye(dim) + feats.T @ feats)


def assert_close_relative(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestTriangularSolves:
    """The numpy substitutions agree with scipy's LAPACK solves."""

    @pytest.mark.parametrize("n_rhs", [1, 64, 3600])
    @pytest.mark.parametrize("dim", [1, 3, 10, 60])
    def test_match_scipy(self, dim, n_rhs):
        lower = spd_factor(dim, seed=10 * dim + n_rhs)
        rng = np.random.default_rng(dim + n_rhs)
        # One right-hand side is a vector, as in the estimate theta_hat.
        rhs = rng.normal(size=dim) if n_rhs == 1 else rng.normal(size=(dim, n_rhs))
        assert_close_relative(_forward_solve(lower, rhs), solve_triangular(lower, rhs, lower=True))
        assert_close_relative(
            _back_solve(lower, rhs), solve_triangular(lower, rhs, lower=True, trans="T")
        )
        assert_close_relative(
            _back_solve(lower, _forward_solve(lower, rhs)), cho_solve((lower, True), rhs)
        )

    def test_leaves_the_right_hand_side_alone(self):
        lower = spd_factor(4, seed=0)
        rhs = np.arange(8.0).reshape(4, 2)
        _back_solve(lower, _forward_solve(lower, rhs))
        assert np.array_equal(rhs, np.arange(8.0).reshape(4, 2))


class TestInit:
    def test_scaled_identity(self):
        est = make(ridge=0.1, dim=2)
        assert np.allclose(est.gram, 0.1 * np.eye(2))
        assert np.array_equal(est.xty, np.zeros(2))
        assert est.n_obs == 0

    def test_one_dimensional(self):
        est = make(ridge=1.0, dim=1)
        assert est.gram == pytest.approx(np.array([[1.0]]))

    def test_determinant_of_init(self):
        est = make(ridge=0.1, dim=10)
        assert math.exp(est.log_det) == pytest.approx(0.1**10)


class TestAbsorb:
    def test_basis_vector_update(self):
        est = make(ridge=1.0, dim=2)
        absorb_row(est, [1.0, 0.0], 2.0)
        assert np.allclose(est.gram, np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(est.xty, np.array([2.0, 0.0]))
        assert est.n_obs == 1

    def test_zero_feature_is_inert(self):
        est = make(dim=3)
        before_gram = est.gram.copy()
        absorb_row(est, np.zeros(3), 5.0)
        assert np.array_equal(est.gram, before_gram)
        assert np.array_equal(est.xty, np.zeros(3))

    def test_matches_from_scratch_oracle(self):
        rng = np.random.default_rng(0)
        est = make(ridge=0.3, dim=4)
        feats = rng.uniform(size=(100, 4))
        rewards = rng.normal(size=100)
        est.absorb_batch(feats, rewards)
        assert np.allclose(est.gram, gram_from_scratch(feats, 0.3), rtol=1e-12)
        assert np.allclose(est.xty, feats.T @ rewards, rtol=1e-12)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(1)
        feats = rng.uniform(size=(50, 3))
        rewards = rng.normal(size=50)
        seq = make(dim=3)
        for z, r in zip(feats, rewards):
            absorb_row(seq, z, r)
        batch = make(dim=3)
        batch.absorb_batch(feats, rewards)
        assert np.array_equal(batch.gram, seq.gram)
        assert np.array_equal(batch.xty, seq.xty)
        # A block's potential terms come from one factorization, a single
        # row's from its own: the sums agree to rounding (1.1e-15 at most
        # over 200 seeds), not bit for bit.
        assert batch.potential_sum == pytest.approx(seq.potential_sum, rel=1e-13, abs=0)

    def test_gram_and_xty_add_rows_in_order_exactly(self):
        rng = np.random.default_rng(13)
        feats = rng.uniform(size=(150, 4))
        rewards = rng.normal(size=150)
        est = make(ridge=0.3, dim=4)
        est.absorb_batch(feats, rewards)
        gram, xty = 0.3 * np.eye(4), np.zeros(4)
        for z, r in zip(feats, rewards):
            gram += np.outer(z, z)
            xty += z * r
        assert np.array_equal(est.gram, gram)
        assert np.array_equal(est.xty, xty)

    @staticmethod
    def assert_rejected_untouched(features, rewards, match):
        est = make(dim=2)
        absorb_row(est, [0.5, 0.25], 1.0)
        before = state_bytes(est)
        with pytest.raises(ValueError, match=match):
            est.absorb_batch(features, rewards)
        assert state_bytes(est) == before
        assert est.n_obs == 1

    def test_rejects_non_finite(self):
        finite = "^features and rewards must be finite$"
        self.assert_rejected_untouched([[0.5, 0.5], [np.nan, 0.0]], [1.0, 1.0], finite)
        self.assert_rejected_untouched([[0.5, 0.5], [0.5, 0.0]], [1.0, math.inf], finite)

    def test_rejects_dimension_mismatch(self):
        shape = r"^features must be \(n, 2\) with one reward per row, got "
        self.assert_rejected_untouched(np.ones((4, 3)), np.ones(4), shape + r"\(4, 3\) and \(4,\)")
        self.assert_rejected_untouched(np.ones((4, 2)), np.ones(3), shape + r"\(4, 2\) and \(3,\)")
        self.assert_rejected_untouched(np.ones(2), np.ones(1), shape + r"\(2,\) and \(1,\)")

    def test_log_det_non_decreasing(self):
        rng = np.random.default_rng(2)
        est = make(dim=5)
        previous = est.log_det
        for _ in range(30):
            absorb_row(est, rng.uniform(size=5), rng.normal())
            current = est.log_det
            assert current >= previous - 1e-12
            previous = current


class TestFoldErrors:
    @pytest.mark.parametrize(
        "rows",
        [
            [[1e200, 1.0], [1.0, 1e200]],  # the outer products overflow to inf
            [[1e100, 1e100]],  # swamps the ridge: the Gram matrix turns singular
            [[1e200, 1.0]],  # one row whose outer product overflows
        ],
    )
    def test_bad_batch_raises_and_leaves_the_state(self, rows):
        rng = np.random.default_rng(11)
        est = make(ridge=0.1, dim=2)
        est.absorb_batch(rng.uniform(size=(5, 2)), rng.normal(size=5))
        before = state_bytes(est)
        with pytest.raises(
            ValueError, match=rf"absorbing {len(rows)} observation\(s\) into an estimator holding 5"
        ):
            est.absorb_batch(rows, [0.0] * len(rows))
        assert state_bytes(est) == before
        assert est.n_obs == 5
        absorb_row(est, [0.5, 0.5], 1.0)
        assert est.n_obs == 6


class TestPointEstimate:
    def test_zero_without_data(self):
        assert np.array_equal(make(dim=4).theta_hat, np.zeros(4))

    def test_single_scalar_observation(self):
        est = make(ridge=1.0, dim=1)
        absorb_row(est, [1.0], 3.0)
        assert est.theta_hat[0] == pytest.approx(1.5)

    def test_noiseless_matches_closed_form_and_recovers_truth(self):
        rng = np.random.default_rng(3)
        theta_star = np.array([0.7, -0.2, 1.4])
        feats = rng.uniform(size=(50, 3))
        rewards = feats @ theta_star
        for ridge in [1.0, 1e-3, 1e-8]:
            est = make(ridge=ridge, dim=3)
            est.absorb_batch(feats, rewards)
            oracle = ridge_solution(feats, rewards, ridge)
            assert np.allclose(est.theta_hat, oracle, atol=1e-10)
        # Vanishing regularization recovers the noiseless truth.
        assert np.allclose(est.theta_hat, theta_star, atol=1e-6)

    def test_reward_scaling_scales_estimate(self):
        rng = np.random.default_rng(4)
        feats = rng.uniform(size=(40, 3))
        rewards = rng.normal(size=40)
        base = make(dim=3)
        base.absorb_batch(feats, rewards)
        scaled = make(dim=3)
        scaled.absorb_batch(feats, 2.5 * rewards)
        assert np.allclose(scaled.theta_hat, 2.5 * base.theta_hat, rtol=1e-12)


class TestBetaRadius:
    def test_initial_radius_formula(self):
        est = make(ridge=1.0, bound=1.0, delta=0.999, dim=3)
        expected = (math.sqrt(2.0 * math.log(1.0 / 0.999)) + 1.0) ** 2
        assert est.beta == pytest.approx(expected)

    def test_monotone_in_observations(self):
        rng = np.random.default_rng(5)
        est = make(ridge=0.1, bound=3.0, delta=0.003, dim=4)
        previous = est.beta
        for _ in range(50):
            absorb_row(est, rng.uniform(size=4), rng.normal())
            current = est.beta
            assert current >= previous - 1e-12
            previous = current

    def test_matches_recompute_oracle_after_long_run(self):
        rng = np.random.default_rng(6)
        est = make(ridge=0.1, bound=3.0, delta=3e-3, dim=10)
        feats = rng.uniform(size=(3000, 10))
        est.absorb_batch(feats, rng.normal(size=3000))
        oracle = confidence_radius_from_scratch(feats, 0.1, 3.0, 3e-3)
        assert est.beta == pytest.approx(oracle, rel=1e-9)

    def test_closed_form_dominates_exact_radius(self):
        # Features live in [0,1]^dim, the regime the closed form assumes.
        rng = np.random.default_rng(7)
        est = make(ridge=0.5, bound=2.0, delta=0.01, dim=6)
        for _ in range(200):
            absorb_row(est, rng.uniform(size=6), rng.normal())
        assert beta_radius_closed_form(est) >= est.beta


class TestNorms:
    def test_identity_gram_is_euclidean(self):
        est = make(ridge=1.0, dim=2)
        assert ellipsoid_norm(est, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_scaled_identity_basis_vector(self):
        est = make(ridge=0.25, dim=3)
        assert ellipsoid_norm(est, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(8)
        est = make(ridge=0.7, dim=5)
        est.absorb_batch(rng.uniform(size=(60, 5)), rng.normal(size=60))
        inv = np.linalg.inv(est.gram)
        for _ in range(10):
            x = rng.normal(size=5)
            assert ellipsoid_norm(est, x) == pytest.approx(math.sqrt(x @ inv @ x), abs=1e-9)
            # The membership test's norm sqrt(x' gram x) puts theta_hat + s x on
            # the ball's boundary: covered just inside it, not just outside.
            s = math.sqrt(est.beta / (x @ est.gram @ x))
            assert est.covers(est.theta_hat + (1.0 - 1e-9) * s * x)
            assert not est.covers(est.theta_hat + (1.0 + 1e-9) * s * x)

    def test_column_batch_matches_single(self):
        rng = np.random.default_rng(9)
        est = make(dim=4)
        est.absorb_batch(rng.uniform(size=(20, 4)), rng.normal(size=20))
        cols = rng.normal(size=(4, 7))
        batched = est.ellipsoid_norms(cols)
        singles = [ellipsoid_norm(est, cols[:, j]) for j in range(7)]
        assert np.allclose(batched, singles)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ellipsoid_norm(make(dim=2), np.array([1.0, np.inf]))


class TestPotentialSum:
    @pytest.mark.parametrize("dim", [1, 10])
    def test_matches_per_row_dense_solves_under_any_split(self, dim):
        # "one" folds a single row in on its own and an integer absorbs a
        # batch of that many rows: singles with and without reads between
        # them, and batches of 1, 7 and 200 rows (several fold blocks).
        plan = ["one", "one", "read", 1, "one", "one", 7, "read", 200, "read",
                "one", 7, "one", "one", "one", "read"]
        n_rows = sum(1 if step == "one" else step for step in plan if step != "read")
        rng = np.random.default_rng(12 + dim)
        feats = rng.uniform(size=(n_rows, dim))
        rewards = rng.normal(size=n_rows)
        est = make(ridge=0.1, bound=3.0, delta=0.003, dim=dim)
        done = 0
        for step in plan:
            if step == "read":
                oracle = potential_sum_from_scratch(feats[:done], 0.1)
                assert est.potential_sum == pytest.approx(oracle, rel=1e-10)
            elif step == "one":
                absorb_row(est, feats[done], rewards[done])
                done += 1
            else:
                est.absorb_batch(feats[done : done + step], rewards[done : done + step])
                done += step
        assert done == n_rows == est.n_obs


class TestConfidenceSet:
    """theta_hat, log_det, beta and potential_bound are set at init and by
    each fold; TestAbsorb and TestFoldErrors check that a refused batch leaves
    them."""

    @staticmethod
    def assert_from_scratch(est, feats, rewards):
        cfg = est.config
        gram = gram_from_scratch(feats, cfg.ridge)
        theta = ridge_solution(feats, rewards, cfg.ridge)
        beta = confidence_radius_from_scratch(feats, cfg.ridge, cfg.param_bound, cfg.delta)
        sign, log_det = np.linalg.slogdet(gram)
        assert sign > 0
        assert np.allclose(est.theta_hat, theta, rtol=1e-9, atol=1e-12)
        assert est.log_det == pytest.approx(log_det, rel=1e-12, abs=1e-12)
        assert est.beta == pytest.approx(beta, rel=1e-12)
        growth = log_det - cfg.n_experts * math.log(cfg.ridge)
        assert est.potential_bound == pytest.approx(2.0 * growth, rel=1e-12, abs=1e-12)

    def test_every_fold_sets_the_from_scratch_values(self):
        rng = np.random.default_rng(14)
        est = make(ridge=0.1, bound=3.0, delta=3e-3, dim=4)
        feats, rewards = np.empty((0, 4)), np.empty(0)
        self.assert_from_scratch(est, feats, rewards)
        read = [(est.theta_hat, est.theta_hat.tobytes())]
        for size in (0, 1, 5, 70, 3, 130, 1, 400):
            z, r = rng.uniform(size=(size, 4)), rng.normal(0.5, 1.0, size=size)
            est.absorb_batch(z, r)
            feats, rewards = np.vstack([feats, z]), np.concatenate([rewards, r])
            self.assert_from_scratch(est, feats, rewards)
            read.append((est.theta_hat, est.theta_hat.tobytes()))
        # A fold never writes into an estimate read before it.
        assert all(theta.tobytes() == bits for theta, bits in read)

    def test_a_copy_carries_the_confidence_set(self):
        rng = np.random.default_rng(16)
        est = make(ridge=0.1, bound=3.0, delta=3e-3, dim=3)
        est.absorb_batch(rng.uniform(size=(40, 3)), rng.normal(size=40))
        dup = estimator_copy(est)
        assert state_bytes(dup) == state_bytes(est)
        assert dup.theta_hat is not est.theta_hat


class TestPotentialInequality:
    def test_holds_on_random_trajectories(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            est = make(ridge=0.1, dim=6)
            draws = [(rng.uniform(size=6), rng.normal()) for _ in range(400)]
            est.absorb_batch([z for z, _ in draws], [r for _, r in draws])
            assert est.potential_sum <= est.potential_bound + 1e-12

    def test_bound_starts_at_zero(self):
        est = make(dim=3)
        assert est.potential_bound == pytest.approx(0.0)
        assert est.potential_sum == 0.0
