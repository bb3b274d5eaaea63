"""The benchmark's workloads: one experiment config and worker count each.

The configs are frozen here rather than generated by the program under test,
so a later change to ``expertgames paper-default`` cannot silently change
what the benchmark measures. The workload seed reaches the program only
through ``expertgames run --seed``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# `expertgames paper-default` as printed at the commit that defined the benchmark.
PAPER_DEFAULT = {
    "environment": {
        "experts": {"type": "uniform"},
        "n_cols": 10,
        "n_episodes": 15,
        "n_experts": 10,
        "n_rows": 10,
        "noise_variance": 0.5,
        "rounds_per_episode": 200,
        "theta_star": {"mean": 0.5, "norm_bound": 3.0, "type": "gaussian"},
    },
    "learners": [
        {"delta": 0.003, "name": "ofulinmat", "param_bound": 3.0, "ridge": 0.1, "type": "ofulinmat"},
        {
            "name": "exp3",
            "reward_max": 94.86832980505139,
            "reward_min": -94.86832980505139,
            "type": "exp3",
        },
    ],
    "master_seed": 0,
    "opponent": {"type": "saddle_oracle"},
    "output_format": "csv",
    "trials": 20,
}

_OFULINMAT = PAPER_DEFAULT["learners"][0]


def _variant(environment: dict, **top) -> dict:
    config = copy.deepcopy(PAPER_DEFAULT)
    config["environment"].update(environment)
    config.update(copy.deepcopy(top))
    return config


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    workers: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-serial",
            copy.deepcopy(PAPER_DEFAULT),
            workers=1,
            why="the paper's case study; play loop and estimator absorb dominate, solver ~13%",
        ),
        Workload(
            "paper-workers2",
            copy.deepcopy(PAPER_DEFAULT),
            workers=2,
            why="the only workload on the harness process pool, where BLAS oversubscription shows",
        ),
        Workload(
            "large-game",
            _variant(
                {"n_rows": 60, "n_cols": 60, "rounds_per_episode": 20},
                learners=[_OFULINMAT],
                trials=4,
            ),
            workers=1,
            why="60x60 games: the saddle solver is most of the work, play loop and estimator ~1-2%",
        ),
        Workload(
            "many-trials",
            _variant(
                {"n_rows": 4, "n_cols": 4, "n_experts": 3, "n_episodes": 5, "rounds_per_episode": 25},
                learners=[
                    _OFULINMAT,
                    {"name": "exp3", "type": "exp3"},
                    {"name": "uniform", "type": "uniform"},
                ],
                opponent={"type": "best_responder"},
                output_format="jsonl",
                trials=300,
            ),
            workers=1,
            why="300 tiny trials: per-trial fixed costs and file writing dominate; jsonl writer",
        ),
    )
}
