"""Online ridge regression with an elliptical confidence set.

Tracks the regularized Gram matrix and the reward-weighted feature sum, and
exposes the point estimate, the confidence-ball radius, and Mahalanobis-type
norms. All inverse applications go through a Cholesky factor of the Gram
matrix; the factor is cached and only rebuilt after new observations, so a
whole planning step reuses a single factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular


@dataclass(frozen=True)
class EstimatorConfig:
    """Hyperparameters of the regularized estimator.

    ridge: l2 regularization weight (> 0).
    param_bound: known bound on the Euclidean norm of the true parameter.
    delta: confidence parameter in (0, 1); the ball covers the truth with
        probability at least 1 - delta.
    n_experts: feature dimension (one coordinate per expert game).
    """

    ridge: float
    param_bound: float
    delta: float
    n_experts: int

    def __post_init__(self):
        for name in ("ridge", "param_bound"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name}: must be a positive finite number, got {value}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta: must lie strictly between 0 and 1, got {self.delta}")
        if self.n_experts < 1:
            raise ValueError(f"n_experts: must be at least 1, got {self.n_experts}")


class RidgeEstimator:
    """Sequential least-squares state: gram = ridge*I + sum z z', xty = sum z r.

    Also maintains the exploration potential sum(min(1, ||z||^2 in the
    inverse-gram norm)) accumulated with the pre-update gram at every
    observation; together with the log-determinant it gives a runtime check
    of the elliptical potential inequality.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        dim = config.n_experts
        self.gram = config.ridge * np.eye(dim)
        self.xty = np.zeros(dim)
        self.n_obs = 0
        self.potential_sum = 0.0
        self._chol: np.ndarray | None = None

    def _factor(self) -> np.ndarray:
        if self._chol is None:
            self._chol = np.linalg.cholesky(self.gram)
        return self._chol

    def absorb(self, features, reward: float) -> None:
        """Fold one (feature vector, reward) observation into the state."""
        z = np.asarray(features, dtype=float)
        if z.shape != (self.config.n_experts,):
            raise ValueError(
                f"feature vector must have shape ({self.config.n_experts},), got {z.shape}"
            )
        if not (np.all(np.isfinite(z)) and math.isfinite(reward)):
            raise ValueError("features and reward must be finite")
        self._absorb_row(z, float(reward))

    def absorb_batch(self, features, rewards) -> None:
        """Absorb a whole episode of observations, one at a time, in order.

        The batch is validated once; each row then takes exactly the update
        of :meth:`absorb`, so the state equals sequential absorption bit for
        bit.
        """
        z = np.asarray(features, dtype=float)
        r = np.asarray(rewards, dtype=float)
        dim = self.config.n_experts
        if z.ndim != 2 or z.shape[1] != dim or r.shape != (z.shape[0],):
            raise ValueError(
                f"features must be (n, {dim}) with one reward per row, "
                f"got {z.shape} and {r.shape}"
            )
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(r))):
            raise ValueError("features and rewards must be finite")
        for row, reward in zip(z, r.tolist()):
            self._absorb_row(row, reward)

    def _absorb_row(self, z: np.ndarray, reward: float) -> None:
        # Pre-update exploration weight; a direct solve avoids refactoring
        # the Gram matrix on every absorption inside a batch.
        bonus_sq = float(z @ np.linalg.solve(self.gram, z))
        self.potential_sum += min(1.0, bonus_sq)
        self.gram += z[:, None] * z  # np.outer's arithmetic, without its call overhead
        self.xty += z * reward
        self.n_obs += 1
        self._chol = None

    def point_estimate(self) -> np.ndarray:
        """Ridge estimate gram^-1 xty via the cached SPD factorization."""
        if self.n_obs == 0:
            return np.zeros(self.config.n_experts)
        return cho_solve((self._factor(), True), self.xty)

    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._factor()))))

    def beta_radius(self) -> float:
        """Confidence-ball radius from the exact determinant ratio.

        (sqrt(2 ln(det(gram)^1/2 det(ridge I)^-1/2 / delta)) + sqrt(ridge) B)^2,
        evaluated with log-determinants. With no data the determinant ratio is
        1 and the radius reduces to (sqrt(2 ln(1/delta)) + sqrt(ridge) B)^2.
        """
        cfg = self.config
        log_ratio = 0.5 * (self.log_det() - cfg.n_experts * math.log(cfg.ridge))
        inner = log_ratio + math.log(1.0 / cfg.delta)
        return (math.sqrt(2.0 * inner) + math.sqrt(cfg.ridge) * cfg.param_bound) ** 2

    def ellipsoid_norms(self, columns: np.ndarray) -> np.ndarray:
        """Column-wise sqrt(z' gram^-1 z) for a (dim, n) stack of vectors."""
        half = solve_triangular(self._factor(), columns, lower=True)
        return np.sqrt(np.sum(half * half, axis=0))

    def mahalanobis_norm(self, x) -> float:
        """sqrt(x' gram x), the norm used by the confidence-ball membership test."""
        half = self._factor().T @ np.asarray(x, dtype=float)
        return float(np.sqrt(half @ half))

    def covers(self, theta) -> bool:
        """Whether theta lies inside the current confidence ball."""
        err = np.asarray(theta, dtype=float) - self.point_estimate()
        return self.mahalanobis_norm(err) <= math.sqrt(self.beta_radius())

    def confidence_set_escapes_ball(self) -> bool:
        """Conservative check that the ellipsoid might poke out of the norm ball.

        Uses the bound ||theta|| <= ||estimate|| + sqrt(radius / lambda_min(gram))
        over the ellipsoid; when it exceeds the parameter bound the caller
        should fall back to the norm-ball payoff cap.
        """
        lam_min = float(np.linalg.eigvalsh(self.gram)[0])
        reach = float(np.linalg.norm(self.point_estimate())) + math.sqrt(
            self.beta_radius() / lam_min
        )
        return reach > self.config.param_bound

    def potential_bound(self) -> float:
        """2 ln(det(gram) / det(gram at init)), the potential inequality cap."""
        cfg = self.config
        return 2.0 * (self.log_det() - cfg.n_experts * math.log(cfg.ridge))
