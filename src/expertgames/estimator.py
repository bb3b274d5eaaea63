"""Online ridge regression with an elliptical confidence set.

Tracks the regularized Gram matrix and the reward-weighted feature sum, and
holds the confidence set they define (point estimate, log-determinant and
radius), worked out once whenever observations are folded in, so the plan and
the episode's record read the same numbers. All inverse applications go
through a Cholesky factor of the Gram matrix, refreshed at the same time.
They are plain forward and back substitution in numpy: d steps per triangular
solve for d experts, each one vectorized over every right-hand side, so the
package needs no linear-algebra library beyond numpy.

Observations enter only through ``absorb_batch``, which folds a whole batch
in at once, as the learner does at the end of each episode: one small
Cholesky factorization per block of rows yields each row's
exploration-potential term against the Gram matrix of all rows before it,
where a per-row update would need one linear solve per row. A batch that is
malformed, or whose fold would leave the Gram matrix not finite or not
positive definite, raises ``ValueError`` at that call and leaves the state as
it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows per potential-term factorization when folding observations in.
_FOLD_ROWS = 64


def _forward_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower @ x = rhs by forward substitution, one row of x per step."""
    x = np.array(rhs, dtype=float)
    for i in range(len(lower)):
        x[i] -= lower[i, :i] @ x[:i]
        x[i] /= lower[i, i]
    return x


def _back_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower.T @ x = rhs by back substitution, one row of x per step."""
    x = np.array(rhs, dtype=float)
    for i in reversed(range(len(lower))):
        x[i] -= lower[i + 1 :, i] @ x[i + 1 :]
        x[i] /= lower[i, i]
    return x


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
        # The confidence radius only grows with data; its data-free value must be a float.
        root = math.sqrt(2.0 * math.log(1.0 / self.delta))
        root += math.sqrt(self.ridge) * self.param_bound
        if not math.isfinite(root * root):
            raise ValueError(
                f"param_bound: the confidence radius (sqrt(2 ln(1/delta)) + sqrt(ridge) * "
                f"param_bound)^2 overflows with param_bound {self.param_bound} and "
                f"ridge {self.ridge}"
            )


class RidgeEstimator:
    """Sequential least-squares state: gram = ridge*I + sum z z', xty = sum z r.

    Also maintains the exploration potential sum(min(1, ||z||^2 in the
    inverse-gram norm)) accumulated with the pre-update gram at every
    observation; ``potential_bound`` caps it by the elliptical potential
    inequality. ``theta_hat``, ``log_det``, ``beta`` and ``potential_bound``
    are computed once per fold. Only ``absorb_batch`` changes any of these
    attributes.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        dim = config.n_experts
        self.gram = config.ridge * np.eye(dim)
        self.xty = np.zeros(dim)
        self.n_obs = 0
        self.potential_sum = 0.0
        self._chol = np.linalg.cholesky(self.gram)  # always the factor of gram
        self._set_confidence_set()

    def absorb_batch(self, features, rewards) -> None:
        """Fold a batch of observations in, in order, or raise and keep the state.

        Every row gets the exploration term it would get if absorbed alone,
        against the Gram matrix of all earlier rows, and the rows are added
        to the Gram matrix and ``xty`` in order, so those two equal
        per-row absorption bit for bit.

        For a block of rows Z against the Gram factor L_G, let W = L_G^-1 Z'
        and L_M the Cholesky factor of I + W'W. Then L_M[t, t]^2 - 1 equals
        z_t' (G + sum_{s<t} z_s z_s')^-1 z_t (Woodbury and the Schur
        complement), so one small factorization gives every row's sequential
        potential term. Blocks of at most _FOLD_ROWS rows keep that
        factorization's cubic cost and memory small.
        """
        z_all = np.asarray(features, dtype=float)
        r_all = np.asarray(rewards, dtype=float)
        dim = self.config.n_experts
        if z_all.ndim != 2 or z_all.shape[1] != dim or r_all.shape != (z_all.shape[0],):
            raise ValueError(
                f"features must be (n, {dim}) with one reward per row, "
                f"got {z_all.shape} and {r_all.shape}"
            )
        if not (np.all(np.isfinite(z_all)) and np.all(np.isfinite(r_all))):
            raise ValueError("features and rewards must be finite")
        gram, xty, chol = self.gram, self.xty, self._chol
        potential = self.potential_sum
        for start in range(0, len(z_all), _FOLD_ROWS):
            z = z_all[start : start + _FOLD_ROWS]
            r = r_all[start : start + _FOLD_ROWS]
            w = _forward_solve(chol, z.T)
            with np.errstate(over="ignore", invalid="ignore"):
                inner = np.eye(len(z)) + w.T @ w
                # One sum along the stacking axis adds the rows in order,
                # exactly like a per-row `gram += outer(z, z)`.
                gram = np.concatenate([gram[None], z[:, :, None] * z[:, None, :]]).sum(axis=0)
                xty = np.concatenate([xty[None], z * r[:, None]]).sum(axis=0)
            if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(inner))):
                raise self._fold_error(len(z_all))
            try:
                terms = np.diag(np.linalg.cholesky(inner)) ** 2 - 1.0
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                raise self._fold_error(len(z_all)) from None
            for term in terms.tolist():
                potential += min(1.0, term)
        self.gram, self.xty, self._chol = gram, xty, chol
        self.potential_sum = potential
        self.n_obs += len(z_all)
        self._set_confidence_set()

    def _set_confidence_set(self) -> None:
        """Set theta_hat = gram^-1 xty, log_det = ln det(gram), the radius
        beta = (sqrt(2 ln(det(gram)^1/2 det(ridge I)^-1/2 / delta)) + sqrt(ridge) B)^2,
        and potential_bound = 2 ln(det(gram) / det(ridge I)). Each call assigns
        a new theta_hat, so an array read earlier never changes.
        """
        cfg = self.config
        self.theta_hat = _back_solve(self._chol, _forward_solve(self._chol, self.xty))
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        log_growth = self.log_det - cfg.n_experts * math.log(cfg.ridge)
        inner = 0.5 * log_growth + math.log(1.0 / cfg.delta)
        self.beta = (math.sqrt(2.0 * inner) + math.sqrt(cfg.ridge) * cfg.param_bound) ** 2
        self.potential_bound = 2.0 * log_growth

    def _fold_error(self, n_rows: int) -> ValueError:
        return ValueError(
            f"absorbing {n_rows} observation(s) into an estimator holding {self.n_obs}: "
            "the Gram matrix update is not finite and positive definite; "
            "the observations were discarded"
        )

    def ellipsoid_norms(self, columns: np.ndarray) -> np.ndarray:
        """Column-wise sqrt(z' gram^-1 z) for a (dim, n) stack of vectors."""
        half = _forward_solve(self._chol, columns)
        return np.sqrt(np.sum(half * half, axis=0))

    def covers(self, theta) -> bool:
        """Whether theta lies inside the current confidence ball, in the norm sqrt(x' gram x)."""
        half = self._chol.T @ (np.asarray(theta, dtype=float) - self.theta_hat)
        return float(np.sqrt(half @ half)) <= math.sqrt(self.beta)
