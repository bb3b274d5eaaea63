"""Online learning in episodic zero-sum matrix games built from expert ensembles."""

import os

# Every BLAS operand here is d-dimensional (one coordinate per expert, d ~ 10), so
# threads cannot help, and an OpenBLAS worker woken once per episode spins between calls.
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .agents import (
    BestResponderOpponent,
    Exp3Agent,
    FixedOpponent,
    FixedStrategyAgent,
    OFULinMatAgent,
    SaddleOracleOpponent,
    UniformOpponent,
)
from .config import (
    EnvironmentConfig,
    ExperimentConfig,
    ExpertSpec,
    LearnerSpec,
    OpponentSpec,
    ThetaSpec,
    default_paper_config,
    load_config,
)
from .environment import Environment, EpisodeTrace
from .estimator import EstimatorConfig, RidgeEstimator
from .game import SaddlePoint, solve_saddle_point
from .harness import run_experiment
from .metrics import build_report, series_keys

__all__ = [
    "BestResponderOpponent",
    "Environment",
    "EnvironmentConfig",
    "EpisodeTrace",
    "EstimatorConfig",
    "Exp3Agent",
    "ExpertSpec",
    "ExperimentConfig",
    "FixedOpponent",
    "FixedStrategyAgent",
    "LearnerSpec",
    "OFULinMatAgent",
    "OpponentSpec",
    "RidgeEstimator",
    "SaddleOracleOpponent",
    "SaddlePoint",
    "ThetaSpec",
    "UniformOpponent",
    "build_report",
    "default_paper_config",
    "load_config",
    "run_experiment",
    "series_keys",
    "solve_saddle_point",
]
