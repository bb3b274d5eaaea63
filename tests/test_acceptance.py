"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight simulations are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from expertgames.environment import EnvironmentConfig, ExpertSpec, ThetaSpec
from expertgames.estimator import EstimatorConfig, RidgeEstimator
from expertgames.game import VALUE_TOL, solve_saddle_point
from expertgames.harness import (
    ExperimentConfig,
    LearnerSpec,
    OpponentSpec,
    default_paper_config,
    load_manifest_config,
    run_experiment,
    run_trial,
)
from expertgames.metrics import series_keys

from oracles import confidence_radius_from_scratch, ridge_solution, support_enumeration_saddle


def _report(criterion: str, ok: bool, detail: str):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def paper_runs():
    config = default_paper_config(trials=20)
    start = time.time()
    trials = [run_trial(config, n) for n in range(config.trials)]
    return {"trials": trials, "elapsed": time.time() - start}


def _scaling_config(n_episodes: int) -> ExperimentConfig:
    n_experts = 5
    clip = 3.0 * math.sqrt(n_experts) * n_experts
    return ExperimentConfig(
        environment=EnvironmentConfig(
            n_rows=10,
            n_cols=10,
            n_experts=n_experts,
            n_episodes=n_episodes,
            rounds_per_episode=100,
            noise_variance=0.5,
            theta=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=3.0),
            experts=ExpertSpec(kind="uniform"),
        ),
        learners=(
            LearnerSpec(
                kind="ofulinmat",
                name="ofulinmat",
                estimator=EstimatorConfig(
                    ridge=0.1, param_bound=3.0, delta=3e-3, n_experts=n_experts
                ),
            ),
            LearnerSpec(kind="exp3", name="exp3", reward_min=-clip, reward_max=clip),
        ),
        opponent=OpponentSpec(kind="saddle_oracle"),
        trials=10,
        master_seed=123,
    )


@pytest.fixture(scope="module")
def scaling_runs():
    start = time.time()
    results = {}
    for n_episodes in (10, 40, 160):
        config = _scaling_config(n_episodes)
        results[n_episodes] = [run_trial(config, n) for n in range(config.trials)]
    return {"runs": results, "elapsed": time.time() - start}


def test_criterion_1_saddle_solver_matches_support_enumeration():
    rng = np.random.default_rng(2718)
    start = time.time()
    worst_gap = 0.0
    for _ in range(200):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        m = rng.integers(-5, 6, size=shape).astype(float)
        saddle = solve_saddle_point(m)
        oracle_value, _, _ = support_enumeration_saddle(m)
        gap = abs(saddle.value - oracle_value)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-7, f"value gap {gap} on {m}"
        mu = saddle.row_strategy.probs
        nu = saddle.col_strategy.probs
        assert (mu @ m).min() >= saddle.value - VALUE_TOL
        assert (m @ nu).max() <= saddle.value + VALUE_TOL
    elapsed = time.time() - start
    _report(
        "criterion 1 (saddle solver vs support enumeration)",
        elapsed < 10.0,
        f"200 games, worst value gap {worst_gap:.2e}, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_estimator_exactness():
    rng = np.random.default_rng(314)
    config = EstimatorConfig(ridge=0.1, param_bound=3.0, delta=3e-3, n_experts=10)
    est = RidgeEstimator(config)
    features = rng.uniform(size=(3000, 10))
    rewards = rng.normal(0.5, 1.0, size=3000)
    checkpoints = (1, 17, 200, 1234, 3000)
    worst_theta = 0.0
    worst_beta = 0.0
    for start, n in zip((0,) + checkpoints, checkpoints):
        est.absorb_batch(features[start:n], rewards[start:n])
        oracle_theta = ridge_solution(features[:n], rewards[:n], config.ridge)
        scale = max(1.0, float(np.linalg.norm(oracle_theta)))
        worst_theta = max(
            worst_theta, float(np.linalg.norm(est.point_estimate() - oracle_theta)) / scale
        )
        oracle_beta = confidence_radius_from_scratch(
            features[:n], config.ridge, config.param_bound, config.delta
        )
        worst_beta = max(worst_beta, abs(est.beta_radius() - oracle_beta) / oracle_beta)
    ok = worst_theta < 1e-9 and worst_beta < 1e-9
    _report(
        "criterion 2 (estimator matches closed-form ridge and radius recompute)",
        ok,
        f"worst relative error: theta {worst_theta:.2e}, beta {worst_beta:.2e}",
    )


def test_criterion_3_confidence_coverage():
    delta = 0.05
    n_trials = 500
    start = time.time()
    failures = 0
    for trial in range(n_trials):
        rng = np.random.default_rng(trial + 10_000)
        direction = rng.normal(size=5)
        theta = direction / np.linalg.norm(direction) * rng.uniform(0.0, 1.0)
        est = RidgeEstimator(
            EstimatorConfig(ridge=0.1, param_bound=1.0, delta=delta, n_experts=5)
        )
        escaped = False
        for _episode in range(10):  # 10 episodes x 100 rounds = 1000 observations
            features = np.empty((100, 5))
            rewards = np.empty(100)
            for t in range(100):
                z = features[t] = rng.uniform(size=5)
                rewards[t] = float(theta @ z) + rng.normal()
            est.absorb_batch(features, rewards)
            if not est.covers(theta):
                escaped = True
        failures += escaped
    elapsed = time.time() - start
    fraction = failures / n_trials
    ok = fraction <= delta + 0.03 and elapsed < 120.0
    _report(
        "criterion 3 (confidence coverage over 500 trials)",
        ok,
        f"escape fraction {fraction:.3f} <= {delta + 0.03:.3f}, {elapsed:.0f}s < 120s",
    )


def test_criterion_4_optimism_under_coverage(paper_runs):
    episodes_checked = 0
    episodes_covered = 0
    worst_value_gap = math.inf
    worst_entry_margin = math.inf
    for trial in paper_runs["trials"]:
        for trace in trial["learners"]["ofulinmat"]["traces"]:
            episodes_checked += 1
            if trace.diagnostics["coverage"] != 1.0:
                continue
            episodes_covered += 1
            worst_value_gap = min(worst_value_gap, trace.diagnostics["value_optimism_gap"])
            worst_entry_margin = min(
                worst_entry_margin, trace.diagnostics["entrywise_optimism_margin"]
            )
    ok = worst_value_gap >= -1e-7 and worst_entry_margin >= -1e-7 and episodes_covered > 0
    _report(
        "criterion 4 (optimism at every covered episode)",
        ok,
        f"{episodes_covered}/{episodes_checked} episodes covered, "
        f"min value gap {worst_value_gap:.2e}, min entry margin {worst_entry_margin:.2e}",
    )


def _series(trial: dict, learner: str, series: str) -> np.ndarray:
    """One series of a learner's report in a ``run_trial`` result, in episode order."""
    payload = trial["learners"][learner]
    keys = series_keys(len(payload["traces"]))
    return payload["report"][[i for i, (name, _) in enumerate(keys) if name == series]]


def test_criterion_5_case_study_reproduction(paper_runs):
    trials = paper_runs["trials"]
    ofu = np.array([_series(t, "ofulinmat", "per_episode_saddle_pseudo") for t in trials])
    exp3 = np.array([_series(t, "exp3", "per_episode_saddle_pseudo") for t in trials])
    ofu_mean = ofu.mean(axis=0)
    ratio = ofu_mean.sum() / exp3.mean(axis=0).sum()
    flattening = ofu_mean[10:15].mean() / ofu_mean[0:5].mean()
    theta_errors = np.array([_series(t, "ofulinmat", "theta_error") for t in trials])
    mean_error = theta_errors.mean(axis=0)
    theta_norms = np.mean([np.linalg.norm(t["environment"]["theta_star"]) for t in trials])
    final_ok = mean_error[-1] < 0.2 * theta_norms
    monotone_ok = bool(np.all(np.diff(mean_error) <= 1e-12))
    ok = ratio < 0.6 and flattening < 0.5 and final_ok and monotone_ok
    _report(
        "criterion 5 (case-study reproduction)",
        ok,
        f"regret ratio {ratio:.3f} < 0.6, late/early flattening {flattening:.3f} < 0.5, "
        f"final theta error {mean_error[-1]:.3f} < {0.2 * theta_norms:.3f}, "
        f"monotone mean error {monotone_ok}, {paper_runs['elapsed']:.0f}s elapsed",
    )


def test_criterion_6_sublinear_scaling(scaling_runs):
    horizons = np.array(sorted(scaling_runs["runs"]))
    means = {}
    for name in ("ofulinmat", "exp3"):
        means[name] = np.array(
            [
                np.mean(
                    [
                        _series(trial, name, "cumulative_saddle_pseudo")[-1]
                        for trial in scaling_runs["runs"][k]
                    ]
                )
                for k in horizons
            ]
        )
    slopes = {
        name: float(np.polyfit(np.log(horizons), np.log(series), 1)[0])
        for name, series in means.items()
    }
    elapsed = scaling_runs["elapsed"]
    ok = slopes["ofulinmat"] <= 0.75 and slopes["exp3"] >= 0.9 and elapsed < 600.0
    _report(
        "criterion 6 (log-log regret scaling in the episode count)",
        ok,
        f"ofulinmat slope {slopes['ofulinmat']:.3f} <= 0.75, "
        f"exp3 slope {slopes['exp3']:.3f} >= 0.9, {elapsed:.0f}s < 600s",
    )


def test_criterion_7_potential_inequality_on_all_trajectories(paper_runs, scaling_runs):
    trajectories = 0
    worst_slack = math.inf
    all_trials = list(paper_runs["trials"])
    for runs in scaling_runs["runs"].values():
        all_trials.extend(runs)
    for trial in all_trials:
        for trace in trial["learners"]["ofulinmat"]["traces"]:
            slack = trace.diagnostics["potential_bound"] - trace.diagnostics["potential_sum"]
            worst_slack = min(worst_slack, slack)
        trajectories += 1
    ok = worst_slack >= -1e-9 and trajectories > 0
    _report(
        "criterion 7 (elliptical potential inequality on every trajectory)",
        ok,
        f"{trajectories} trajectories, min logged slack {worst_slack:.3e}",
    )


def test_criterion_8_manifest_replay_determinism(tmp_path):
    config = ExperimentConfig(
        environment=EnvironmentConfig(
            n_rows=4,
            n_cols=4,
            n_experts=3,
            n_episodes=3,
            rounds_per_episode=25,
            noise_variance=0.5,
            theta=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=2.0),
            experts=ExpertSpec(kind="uniform"),
        ),
        learners=(
            LearnerSpec(
                kind="ofulinmat",
                name="ofulinmat",
                estimator=EstimatorConfig(ridge=0.1, param_bound=2.0, delta=0.01, n_experts=3),
            ),
            LearnerSpec(kind="exp3", name="exp3", reward_min=-10.0, reward_max=10.0),
        ),
        opponent=OpponentSpec(kind="saddle_oracle"),
        trials=2,
        master_seed=99,
    )
    run_experiment(config, tmp_path / "original")
    # What `expertgames replay` runs.
    run_experiment(load_manifest_config(tmp_path / "original/manifest.json"), tmp_path / "replayed")
    original = {
        p.relative_to(tmp_path / "original"): p.read_bytes()
        for p in sorted((tmp_path / "original").rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    replayed = {
        p.relative_to(tmp_path / "replayed"): p.read_bytes()
        for p in sorted((tmp_path / "replayed").rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    identical = original.keys() == replayed.keys() and all(
        original[k] == replayed[k] for k in original
    )
    _report(
        "criterion 8 (byte-identical manifest replay)",
        identical,
        f"{len(original)} metric/trace files compared",
    )
