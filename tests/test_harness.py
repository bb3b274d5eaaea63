import concurrent.futures
import copy
import dataclasses
import filecmp
import json
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import expertgames
from expertgames import environment, harness
from expertgames.cli import main as cli_main
from expertgames.config import (
    PAYOFF_LIMIT,
    ConfigError,
    EnvironmentConfig,
    ExperimentConfig,
    ExpertSpec,
    LearnerSpec,
    OpponentSpec,
    ThetaSpec,
    _build,
    check_theta_reachable,
    config_from_dict,
    config_to_dict,
    default_paper_config,
    load_config,
    load_manifest_config,
    ridge_floor,
)
from expertgames.harness import aggregate_series, run_experiment, run_trial
from expertgames.metrics import METRIC_FORMATS, series_count, series_keys

from oracles import emit_plot_data, episode_stack


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        environment=EnvironmentConfig(
            n_rows=3,
            n_cols=3,
            n_experts=2,
            n_episodes=2,
            rounds_per_episode=10,
            noise_variance=0.5,
            theta_star=ThetaSpec(kind="gaussian", mean=0.5, norm_bound=2.0),
            experts=ExpertSpec(kind="uniform"),
        ),
        learners=(
            LearnerSpec(
                kind="ofulinmat", name="ofulinmat", ridge=0.1, param_bound=2.0, delta=0.01
            ),
            LearnerSpec(kind="exp3", name="exp3", reward_min=-5.0, reward_max=5.0),
        ),
        opponent=OpponentSpec(kind="saddle_oracle"),
        trials=2,
        master_seed=7,
        output_format="csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fixed_experts(shape, last=0.5) -> list:
    """A JSON expert stack of 0.5 entries whose final entry is ``last``."""
    stack = np.full(shape, 0.5).tolist()
    row = stack
    for _ in shape[:-1]:
        row = row[-1]
    row[-1] = last
    return stack


def paper_with_ridge(raw: dict, ridge: float) -> None:
    """Replace ``raw`` by the paper config with the optimistic learner's ``ridge``."""
    raw.update(config_to_dict(default_paper_config()))
    raw["learners"][0]["ridge"] = ridge


# Config faults that EnvironmentConfig, ThetaSpec and ExpertSpec reject
# themselves: id -> (JSON path, mutation of the tiny config's dict).
ENVIRONMENT_RULE_CASES = {
    "short-theta": (
        "environment.theta_star.values",
        lambda raw: raw["environment"].update(theta_star={"type": "fixed", "values": [1.0]}),
    ),
    "expert-entry-above-one": (
        "environment.experts.matrices",
        lambda raw: raw["environment"].update(
            experts={"type": "fixed", "matrices": fixed_experts((2, 2, 3, 3), last=1.9)}
        ),
    ),
    "expert-stack-wrong-shape": (
        "environment.experts.matrices",
        lambda raw: raw["environment"].update(
            experts={"type": "fixed", "matrices": fixed_experts((2, 3, 3))}
        ),
    ),
    "negative-norm-bound": (
        "environment.theta_star.norm_bound",
        lambda raw: raw["environment"]["theta_star"].update(norm_bound=-1),
    ),
    "zero-rows": ("environment.n_rows", lambda raw: raw["environment"].update(n_rows=0)),
    "negative-noise": (
        "environment.noise_variance",
        lambda raw: raw["environment"].update(noise_variance=-1),
    ),
    # 40 standard deviations of this noise reach 5.2e155, beyond PAYOFF_LIMIT.
    "noise-beyond-payoff-limit": (
        "environment.noise_variance",
        lambda raw: raw["environment"].update(noise_variance=1.7e308),
    ),
    "unreachable-tiny-ball": (
        "environment.theta_star",
        lambda raw: raw["environment"]["theta_star"].update(norm_bound=1e-9),
    ),
    "unreachable-far-mean": (
        "environment.theta_star",
        lambda raw: raw["environment"]["theta_star"].update(mean=50.0, norm_bound=3.0),
    ),
    "overflowing-theta-mean": (
        "environment.theta_star",
        lambda raw: raw["environment"].update(theta_star={"mean": 1e308, "norm_bound": None}),
    ),
    "overflowing-theta-values": (
        "environment.theta_star",
        lambda raw: raw["environment"].update(
            theta_star={"type": "fixed", "values": [1e308, 1e308]}
        ),
    ),
    # Sizes whose arrays exceed the byte budget; no allocation is tried.
    **{
        f"oversized-{key}": (
            "environment", lambda raw, key=key: raw["environment"].update({key: 1e150})
        )
        for key in ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
    },
}


def environment_config(section: dict) -> EnvironmentConfig:
    """The EnvironmentConfig of a JSON environment section, built without the
    parser; sizes get ints, as the parser makes an integral float one."""
    theta = dict(section.get("theta_star", {}))
    experts = dict(section.get("experts", {}))
    sizes = ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")
    return EnvironmentConfig(
        **{key: int(section[key]) for key in sizes},
        noise_variance=section.get("noise_variance", 0.0),
        theta_star=ThetaSpec(kind=theta.pop("type", "gaussian"), **theta),
        experts=ExpertSpec(kind=experts.pop("type", "uniform"), **experts),
    )


def python_config(raw: dict) -> ExperimentConfig:
    """The ExperimentConfig of a JSON config with every key written out, built
    without the parser, each integral float given as an int."""
    def ints(node):
        if isinstance(node, float) and node.is_integer():
            return int(node)
        if isinstance(node, list):
            return [ints(item) for item in node]
        if isinstance(node, dict):
            return {key: ints(value) for key, value in node.items()}
        return node

    raw = ints(raw)
    for entry in (*raw["learners"], raw["opponent"]):
        entry["kind"] = entry.pop("type")
    return ExperimentConfig(
        environment=environment_config(raw["environment"]),
        learners=tuple(LearnerSpec(**entry) for entry in raw["learners"]),
        opponent=OpponentSpec(**raw["opponent"]),
        **{key: raw[key] for key in ("trials", "master_seed", "output_format")},
    )


# A small config with every optional key written out, whose every leaf the
# mutation table replaces in turn. A strategy list is one leaf.
MUTATION_BASE = {
    "environment": {
        "n_rows": 3,
        "n_cols": 3,
        "n_experts": 2,
        "n_episodes": 2,
        "rounds_per_episode": 5,
        "noise_variance": 0.5,
        "theta_star": {"type": "gaussian", "mean": 0.5, "norm_bound": 2.0},
        "experts": {"type": "uniform"},
    },
    "learners": [
        {"type": "ofulinmat", "name": "ofulinmat", "ridge": 0.1, "param_bound": 2.0, "delta": 0.01},
        {"type": "exp3", "name": "exp3", "reward_min": -5.0, "reward_max": 5.0},
        {"type": "fixed", "name": "fixed", "strategy": [0.2, 0.3, 0.5]},
    ],
    "opponent": {"type": "fixed", "strategy": [0.5, 0.25, 0.25]},
    "trials": 1,
    "master_seed": 0,
    "output_format": "csv",
}
# MUTATION_BASE with a fixed theta_star and fixed experts, whose two
# sections' leaves the table also replaces: values and matrices are leaves
# MUTATION_BASE lacks.
FIXED_MUTATION_BASE = copy.deepcopy(MUTATION_BASE)
FIXED_MUTATION_BASE["environment"].update(
    theta_star={"type": "fixed", "values": [0.7, -0.2]},
    experts={"type": "fixed", "matrices": fixed_experts((2, 2, 3, 3), last=0.75)},
)
MUTATION_VALUES = [
    0, -1, 0.5, 1e-300, 1e150, 1e308, -1e308, 2**70, 10**400, float("nan"), float("inf"), True,
    None, "x", [], {}, [1.0], [True],
]
# Fields that size the run's arrays: a value from the table must never run.
SIZE_FIELDS = [
    *(f"environment.{key}" for key in
      ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode")),
    "trials",
]


def config_leaves(node, keys=()) -> list[tuple]:
    """The key path of every leaf of a config dict, such as ``("learners", 0, "ridge")``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and all(isinstance(item, dict) for item in node):
        items = enumerate(node)
    else:
        return [keys]
    return [leaf for key, item in items for leaf in config_leaves(item, (*keys, key))]


MUTATION_CASES = [
    *((MUTATION_BASE, keys) for keys in config_leaves(MUTATION_BASE)),
    *((FIXED_MUTATION_BASE, keys) for keys in config_leaves(FIXED_MUTATION_BASE)
      if keys[:2] in (("environment", "theta_star"), ("environment", "experts"))),
]


def leaf_section(raw: dict, keys) -> dict:
    """The object that holds the leaf at ``keys``."""
    for key in keys[:-1]:
        raw = raw[key]
    return raw


def json_path(keys) -> str:
    """``("learners", 0, "ridge")`` as the parser names it: ``learners[0].ridge``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys).lstrip(".")


# Every type of each tagged object of MUTATION_BASE, with every key of its
# type written out: JSON path -> (the spec's KINDS, {type: object}).
TAGGED_OBJECTS = {
    ("environment", "theta_star"): (ThetaSpec.KINDS, {
        "gaussian": {"type": "gaussian", "mean": -0.25, "norm_bound": 2.0},
        "fixed": {"type": "fixed", "values": [0.7, -0.2]},
    }),
    ("environment", "experts"): (ExpertSpec.KINDS, {
        "uniform": {"type": "uniform"},
        "fixed": {"type": "fixed", "matrices": fixed_experts((2, 2, 3, 3), last=0.75)},
    }),
    ("learners", 0): (LearnerSpec.KINDS, {
        "ofulinmat": {"type": "ofulinmat", "name": "case", "ridge": 0.5, "param_bound": 2.5,
                      "delta": 0.05},
        "exp3": {"type": "exp3", "name": "case", "reward_min": -2.0, "reward_max": 3.5},
        "fixed": {"type": "fixed", "name": "case", "strategy": [0.1, 0.0, 0.9]},
        "uniform": {"type": "uniform", "name": "case"},
    }),
    ("opponent",): (OpponentSpec.KINDS, {
        "saddle_oracle": {"type": "saddle_oracle"},
        "uniform": {"type": "uniform"},
        "best_responder": {"type": "best_responder"},
        "fixed": {"type": "fixed", "strategy": [0.6, 0.4, 0.0]},
    }),
}
ROUND_TRIP_CASES = [
    (keys, kind) for keys, (tables, _) in TAGGED_OBJECTS.items() for kind in tables
]


def replace_learner(index: int, spec: LearnerSpec) -> dict:
    """tiny_config overrides that put ``spec`` in place of learner ``index``."""
    learners = list(tiny_config().learners)
    learners[index] = spec
    return {"learners": tuple(learners)}


# Faults that join two parts of a config, which ExperimentConfig rejects
# itself: id -> (JSON path, tiny_config overrides, the same fault as a
# mutation of the tiny config's dict, or None when JSON cannot express it).
JOINT_RULE_CASES = {
    "short-learner-strategy": (
        "learners[1].strategy",
        lambda: replace_learner(1, LearnerSpec(kind="fixed", name="fixed", strategy=(0.5, 0.5))),
        lambda raw: raw["learners"].__setitem__(
            1, {"type": "fixed", "name": "fixed", "strategy": [0.5, 0.5]}
        ),
    ),
    "ridge-below-floor": (
        "learners[0].ridge",
        lambda: replace_learner(0, LearnerSpec(
            kind="ofulinmat", name="ofulinmat", ridge=1e-300, param_bound=2.0, delta=0.01,
        )),
        lambda raw: raw["learners"][0].update(ridge=1e-300),
    ),
    "exp3-bounds-reversed": (
        "learners[1]",
        lambda: replace_learner(1, LearnerSpec(kind="exp3", reward_min=1.0, reward_max=-1.0)),
        lambda raw: raw["learners"][1].update(reward_min=1.0, reward_max=-1.0),
    ),
    "exp3-span-overflows": (
        "learners[1]",
        lambda: replace_learner(1, LearnerSpec(kind="exp3", reward_min=-1e308, reward_max=1e308)),
        lambda raw: raw["learners"][1].update(reward_min=-1e308, reward_max=1e308),
    ),
    "unknown-learner-type": (
        "learners[1].type",
        lambda: replace_learner(1, LearnerSpec(kind="bogus", name="bogus")),
        lambda raw: raw["learners"].__setitem__(1, {"type": "bogus", "name": "bogus"}),
    ),
    "ofulinmat-without-estimator": (
        "learners[0].ridge",
        lambda: replace_learner(0, LearnerSpec(kind="ofulinmat", ridge=None)),
        lambda raw: raw["learners"][0].update(ridge=None),
    ),
    "short-opponent-strategy": (
        "opponent.strategy",
        lambda: {"opponent": OpponentSpec(kind="fixed", strategy=(0.5, 0.5))},
        lambda raw: raw.update(opponent={"type": "fixed", "strategy": [0.5, 0.5]}),
    ),
    "no-learners": ("learners", lambda: {"learners": ()}, lambda raw: raw.update(learners=[])),
}


def parsed_environment(**fields) -> EnvironmentConfig:
    """The tiny config's environment with ``fields`` replaced, built as the
    parser builds it, so a ValueError becomes a ConfigError under its path."""
    base = {field.name: getattr(tiny_config().environment, field.name)
            for field in dataclasses.fields(EnvironmentConfig)}
    return _build(EnvironmentConfig, "environment", **{**base, **fields})


# Scalars of a type JSON cannot hold, or that the run cannot use, in a config
# built in Python: id -> (the ConfigError's problem, the construction).
SCALAR_TYPE_CASES = {
    "numpy-trials": (
        "trials: must be an int, got np.int64(2)", lambda: tiny_config(trials=np.int64(2))
    ),
    "numpy-master-seed": (
        "master_seed: must be an int, got np.int64(1)",
        lambda: tiny_config(master_seed=np.int64(1)),
    ),
    "bool-trials": ("trials: must be an int, got True", lambda: tiny_config(trials=True)),
    "numpy-n-rows": (
        "environment.n_rows: must be an int, got np.int64(3)",
        lambda: parsed_environment(n_rows=np.int64(3)),
    ),
    "numpy-noise-variance": (
        "environment.noise_variance: must be an int or a float, got np.float32(0.5)",
        lambda: parsed_environment(noise_variance=np.float32(0.5)),
    ),
    "float-n-episodes": (
        "environment.n_episodes: must be an int, got 2.0",
        lambda: parsed_environment(n_episodes=2.0),
    ),
    "numpy-theta-mean": (
        "environment.theta_star.mean: must be an int or a float, got np.float32(0.5)",
        lambda: _build(ThetaSpec, "environment.theta_star", mean=np.float32(0.5)),
    ),
    "numpy-ridge": (
        "learners[0].ridge: must be an int or a float, got np.float32(0.1)",
        lambda: tiny_config(**replace_learner(0, LearnerSpec(
            kind="ofulinmat", name="ofulinmat", ridge=np.float32(0.1), param_bound=2.0, delta=0.01,
        ))),
    ),
}


# Configs built in Python whose values JSON cannot hold, or that overflow
# float arithmetic: id -> (the JSON path of the ConfigError, the construction).
PYTHON_PROBES = {
    "infinite-norm-bound": (
        "environment.theta_star.norm_bound",
        lambda: _build(ThetaSpec, "environment.theta_star", norm_bound=float("inf")),
    ),
    "huge-theta-mean": (
        "environment.theta_star.mean",
        lambda: _build(ThetaSpec, "environment.theta_star", mean=10**400),
    ),
    "nan-theta-value": (
        "environment.theta_star.values[1]",
        lambda: _build(
            ThetaSpec, "environment.theta_star", kind="fixed", values=(1.0, float("nan"))
        ),
    ),
    "huge-n-rows": ("environment.n_rows", lambda: parsed_environment(n_rows=10**400)),
    "bool-expert-leaves": (
        "environment.experts.matrices",
        lambda: _build(ExpertSpec, "environment.experts", kind="fixed",
                               matrices=((((True, False),),),)),
    ),
    "string-expert-leaves": (
        "environment.experts.matrices",
        lambda: _build(ExpertSpec, "environment.experts", kind="fixed",
                               matrices=((("0.5", "0.5"),),)),
    ),
    "string-learner-strategy": (
        "learners[1].strategy[0]",
        lambda: tiny_config(**replace_learner(
            1, LearnerSpec("fixed", "fixed", strategy=("0.5", "0.25", "0.25")))),
    ),
    "bool-learner-strategy": (
        "learners[1].strategy[0]",
        lambda: tiny_config(**replace_learner(
            1, LearnerSpec("fixed", "fixed", strategy=(True, False, False)))),
    ),
    "string-opponent-strategy": (
        "opponent.strategy[0]",
        lambda: tiny_config(opponent=OpponentSpec("fixed", strategy=("0.5", "0.25", "0.25"))),
    ),
    "bool-opponent-strategy": (
        "opponent.strategy[0]",
        lambda: tiny_config(opponent=OpponentSpec("fixed", strategy=(True, False, False))),
    ),
}


def tree_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestConfigRoundTrip:
    def test_paper_default_round_trips(self):
        config = default_paper_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_paper_default_is_its_sizes_and_types(self):
        # Every other value is a field default: the learners' estimator and
        # clip, the Gaussian mean, uniform experts, the seed and the format.
        env = EnvironmentConfig(n_rows=10, n_cols=10, n_experts=10, n_episodes=15,
                                rounds_per_episode=200, noise_variance=0.5,
                                theta_star=ThetaSpec(norm_bound=3.0))
        built = ExperimentConfig(env, (LearnerSpec("ofulinmat"), LearnerSpec("exp3")),
                                 OpponentSpec("saddle_oracle"), trials=20)
        section = {key: getattr(env, key) for key in
                   ("n_rows", "n_cols", "n_experts", "n_episodes", "rounds_per_episode",
                    "noise_variance")}
        read = config_from_dict({
            "environment": {**section, "theta_star": {"norm_bound": 3.0}},
            "learners": [{"type": "ofulinmat"}, {"type": "exp3"}],
            "opponent": {"type": "saddle_oracle"},
            "trials": 20,
        })
        assert built == read == default_paper_config()

    def test_paper_default_theta_ball_is_reachable(self):
        env = default_paper_config().environment
        check_theta_reachable(env.theta_star.mean, env.theta_star.norm_bound, env.n_experts)

    def test_paper_default_fields(self):
        config = default_paper_config()
        env = config.environment
        assert env.n_episodes == 15
        assert env.rounds_per_episode == 200
        assert env.n_rows == env.n_cols == 10
        assert env.n_experts == 10
        assert env.noise_variance == 0.5
        assert env.theta_star.norm_bound == 3.0
        ofu = config.learners[0]
        assert ofu.ridge == 0.1
        assert ofu.delta == 3e-3
        assert ofu.param_bound == 3.0
        assert config.learners[1].kind == "exp3"
        assert config.opponent.kind == "saddle_oracle"
        assert config.trials == 20

    def test_unknown_keys_are_errors(self):
        raw = config_to_dict(tiny_config())
        raw["environment"]["bogus"] = 1
        with pytest.raises(ConfigError, match="environment: unknown key 'bogus'"):
            config_from_dict(raw)
        raw = config_to_dict(tiny_config())
        raw["surprise"] = True
        with pytest.raises(ConfigError, match="unknown key 'surprise'"):
            config_from_dict(raw)
        raw = config_to_dict(tiny_config())
        raw["learners"][0]["alpha"] = 0.3
        with pytest.raises(ConfigError, match=r"learners\[0\]: unknown key 'alpha'"):
            config_from_dict(raw)

    def test_missing_sections_are_errors(self):
        raw = config_to_dict(tiny_config())
        del raw["opponent"]
        with pytest.raises(ConfigError, match="missing section 'opponent'"):
            config_from_dict(raw)

    def test_duplicate_learner_names_rejected(self):
        raw = config_to_dict(tiny_config())
        raw["learners"][1]["name"] = raw["learners"][0]["name"]
        with pytest.raises(ConfigError, match="names must be unique"):
            config_from_dict(raw)

    @pytest.mark.parametrize("name", ["../escaped", "", 5, "env.json", "ofulinmat"])
    def test_learner_names_checked_on_direct_construction(self, name):
        learners = tiny_config().learners
        bad = LearnerSpec(kind="uniform", name=name)
        with pytest.raises(ConfigError, match=r"learners\[2\]\.name: "):
            tiny_config(learners=learners + (bad,))

    @pytest.mark.parametrize(
        "path, build",
        [
            ("opponent.strategy", lambda: OpponentSpec("uniform", strategy=(0.5,))),
            ("learners[2].reward_min", lambda: LearnerSpec("uniform", "u", reward_min=3.0)),
            ("learners[2].strategy", lambda: LearnerSpec(
                "exp3", "e", reward_min=-1.0, reward_max=1.0, strategy=(1.0, 0.0, 0.0))),
            ("learners[2].reward_max", lambda: LearnerSpec(
                "ofulinmat", "o", ridge=0.1, param_bound=2.0, delta=0.01, reward_max=1.0)),
            ("mean", lambda: ThetaSpec("fixed", values=(1.0, 2.0), norm_bound=0.001, mean=7.0)),
            ("norm_bound", lambda: ThetaSpec("fixed", values=(1.0, 2.0), norm_bound=0.001)),
            ("values", lambda: ThetaSpec("gaussian", values=(1.0, 2.0))),
            ("matrices", lambda: ExpertSpec("uniform", matrices=np.full((2, 2, 3, 3), 0.5))),
        ],
        ids=["opponent", "uniform-learner", "exp3-learner", "ofulinmat-learner",
             "fixed-theta-mean", "fixed-theta-norm-bound", "gaussian-theta-values",
             "uniform-experts"],
    )
    def test_a_field_outside_its_types_keys_is_refused(self, path, build):
        # No JSON config can set such a field, and the manifest would drop it.
        # A spec refuses it itself, or the config refuses its learner or opponent.
        def construct():
            spec = build()
            if isinstance(spec, LearnerSpec):
                tiny_config(learners=tiny_config().learners + (spec,))
            elif isinstance(spec, OpponentSpec):
                tiny_config(opponent=spec)

        escaped = path.replace("[", r"\[").replace("]", r"\]")
        with pytest.raises(ValueError, match=rf"^{escaped}: not a key of type '\w+'; leave it at "):
            construct()

    def test_invalid_field_values_are_reported(self):
        raw = config_to_dict(tiny_config())
        raw["learners"][0]["delta"] = 2.0
        with pytest.raises(ConfigError, match=r"learners\[0\]"):
            config_from_dict(raw)

    @pytest.mark.parametrize("path, mutate", ENVIRONMENT_RULE_CASES.values(),
                             ids=ENVIRONMENT_RULE_CASES)
    def test_environment_rules_hold_without_the_parser(self, path, mutate):
        raw = config_to_dict(tiny_config())
        mutate(raw)
        with pytest.raises(ConfigError) as parsed:
            config_from_dict(raw)
        with pytest.raises(ValueError) as direct:
            environment_config(raw["environment"])
        message = str(direct.value)
        assert parsed.value.problems[0] in (
            f"environment: {message}",
            f"environment.{message}",
            f"environment.theta_star.{message}",
            f"environment.experts.{message}",
        )
        assert parsed.value.problems[0].startswith(f"{path}: ")

    @pytest.mark.parametrize("path, overrides, mutate", JOINT_RULE_CASES.values(),
                             ids=JOINT_RULE_CASES)
    def test_joint_rules_hold_without_the_parser(self, path, overrides, mutate):
        with pytest.raises(ConfigError) as direct:
            tiny_config(**overrides())
        assert direct.value.problems[0].startswith(f"{path}: ")
        if mutate is not None:
            raw = config_to_dict(tiny_config())
            mutate(raw)
            with pytest.raises(ConfigError) as parsed:
                config_from_dict(raw)
            assert parsed.value.problems[0] == direct.value.problems[0]

    @pytest.mark.parametrize("problem, build", SCALAR_TYPE_CASES.values(), ids=SCALAR_TYPE_CASES)
    def test_scalars_json_cannot_hold_are_refused_before_any_output(self, tmp_path, problem, build):
        out = tmp_path / "run"
        with pytest.raises(ConfigError) as info:
            run_experiment(build(), out)
        assert info.value.problems == [problem]
        paths = {json_path(keys) for keys in config_leaves(config_to_dict(tiny_config()))}
        assert problem.partition(": ")[0] in paths
        assert not out.exists()

    @pytest.mark.parametrize("path, build", PYTHON_PROBES.values(), ids=PYTHON_PROBES)
    def test_python_values_json_cannot_hold_are_refused_under_their_path(self, path, build):
        # Unrefused, each would run and record a manifest that replay refuses,
        # overflow float arithmetic, or die mid-run with its output half written.
        with pytest.raises(ConfigError) as info:
            build()
        assert info.value.problems[0].startswith(f"{path}: ")

    @pytest.mark.parametrize("keys, kind", ROUND_TRIP_CASES,
                             ids=[f"{json_path(keys)}-{kind}" for keys, kind in ROUND_TRIP_CASES])
    def test_a_config_built_in_python_replays(self, keys, kind):
        raw = copy.deepcopy(MUTATION_BASE)
        leaf_section(raw, keys)[keys[-1]] = copy.deepcopy(TAGGED_OBJECTS[keys][1][kind])
        config = python_config(raw)  # every integral float given as an int
        recorded = json.dumps(config_to_dict(config), sort_keys=True)
        replayed = config_from_dict(json.loads(recorded))
        assert replayed == config
        assert json.dumps(config_to_dict(replayed), sort_keys=True) == recorded

    @pytest.mark.parametrize("keys, kind", ROUND_TRIP_CASES,
                             ids=[f"{json_path(keys)}-{kind}" for keys, kind in ROUND_TRIP_CASES])
    def test_a_spec_of_its_type_alone_equals_its_json(self, keys, kind):
        # Every absent key takes its field's default, in both forms; a fixed
        # type also needs its list, which has none.
        entry = {key: value for key, value in TAGGED_OBJECTS[keys][1][kind].items()
                 if key in ("type", "values", "matrices", "strategy")}
        raw = copy.deepcopy(MUTATION_BASE)
        if keys[0] == "learners":
            raw["learners"] = [entry]  # a learner named after its type, as no other is
        else:
            leaf_section(raw, keys)[keys[-1]] = entry
        assert python_config(copy.deepcopy(raw)) == config_from_dict(raw)

    def test_exp3_bounds_left_at_none_are_the_clip(self, tmp_path):
        # -/+ 3 * sqrt(n_experts) * n_experts, set by the config and recorded,
        # so the manifest replays without the rule.
        clip = 3.0 * math.sqrt(2) * 2
        config = tiny_config(**replace_learner(1, LearnerSpec("exp3", reward_max=4.0)))
        assert (config.learners[1].reward_min, config.learners[1].reward_max) == (-clip, 4.0)
        raw = config_to_dict(tiny_config())
        raw["learners"][1].update(reward_min=None, reward_max=4.0)
        assert config_from_dict(raw) == config
        del raw["learners"][1]["reward_min"]
        assert config_from_dict(raw) == config
        run_experiment(config, tmp_path / "run")
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["config"]["learners"][1]["reward_min"] == -clip
        assert load_manifest_config(tmp_path / "run/manifest.json") == config

    def test_int_reals_are_held_as_floats(self):
        theta = ThetaSpec(mean=1, norm_bound=10**200)
        assert (type(theta.mean), type(theta.norm_bound)) == (float, float)
        assert theta.norm_bound == 1e200
        env = dataclasses.replace(tiny_config().environment, noise_variance=1, theta_star=theta)
        config = tiny_config(environment=env, **replace_learner(0, LearnerSpec(
            kind="ofulinmat", name="ofulinmat", ridge=1, param_bound=2, delta=0.01)))
        ofu = config.learners[0]
        assert (type(ofu.ridge), type(ofu.param_bound)) == (float, float)
        assert type(config.environment.noise_variance) is float
        assert config_to_dict(config)["learners"][0]["ridge"] == 1.0

    def test_a_negative_zero_real_is_held_as_zero(self):
        # sqrt(-0.0) is -0.0, a negative scale to a normal draw.
        theta = ThetaSpec(kind="fixed", values=(-0.0, np.float64(-0.0)))
        env = dataclasses.replace(tiny_config().environment, noise_variance=-0.0, theta_star=theta)
        held = [env.noise_variance, *theta.values]
        assert [math.copysign(1.0, v) for v in held] == [1.0] * 3

    @pytest.mark.parametrize("section, cls", [("theta_star", ThetaSpec), ("experts", ExpertSpec)])
    def test_a_bad_kind_names_type_in_both_forms(self, section, cls):
        raw = config_to_dict(tiny_config())
        raw["environment"][section] = {"type": "bogus"}
        with pytest.raises(ConfigError) as parsed:
            config_from_dict(raw)
        with pytest.raises(ValueError) as direct:
            cls("bogus")
        kinds = tuple(cls.KINDS)
        assert str(direct.value) == f"type: must be one of {kinds}, got 'bogus'"
        assert parsed.value.problems == [f"environment.{section}.{direct.value}"]

    @pytest.mark.parametrize(
        "matrices, problem",
        [
            (None, "must be a nested list of numbers, got None"),
            ("x", "must be a nested list of numbers, got 'x'"),
            (0, "must be a nested list of numbers, got 0"),
            ([[[["0.5"]]]], "must be a nested list of numbers"),
            ([[[[0.5, True]]]], "must be a nested list of numbers, not booleans"),
        ],
        ids=["null", "string", "zero", "string-leaf", "bool-leaf"],
    )
    def test_fixed_matrices_that_are_not_numbers_are_named(self, matrices, problem):
        raw = config_to_dict(tiny_config())
        raw["environment"]["experts"] = {"type": "fixed", "matrices": matrices}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [f"environment.experts.matrices: {problem}"]
        with pytest.raises(ValueError, match=f"^matrices: {re.escape(problem)}$"):
            ExpertSpec("fixed", matrices)

    @pytest.mark.parametrize("keys, kind", ROUND_TRIP_CASES,
                             ids=[f"{json_path(keys)}-{kind}" for keys, kind in ROUND_TRIP_CASES])
    def test_every_type_round_trips(self, keys, kind):
        tables, objects = TAGGED_OBJECTS[keys]
        entry = objects[kind]
        assert set(entry) - {"name"} == {"type", *tables[kind]}  # every key is written out
        raw = copy.deepcopy(MUTATION_BASE)
        leaf_section(raw, keys)[keys[-1]] = copy.deepcopy(entry)
        assert config_to_dict(config_from_dict(raw)) == raw

    def test_unknown_types_and_missing_keys_name_their_path(self):
        raw = config_to_dict(tiny_config())
        raw["opponent"] = {"type": "oracle"}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [
            "opponent.type: must be one of ('saddle_oracle', 'uniform', 'best_responder', "
            "'fixed'), got 'oracle'"
        ]
        raw["opponent"] = {"strategy": [1.0, 0.0, 0.0]}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == ["opponent: missing key 'type'"]
        # A fixed type's list has no default: its absence is refused at its leaf.
        raw["opponent"] = {"type": "fixed"}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == ["opponent.strategy: must be a list of numbers, got None"]
        raw["environment"]["theta_star"] = {"type": "fixed"}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [
            "environment.theta_star.values: must be a list of numbers, got None"
        ]

    def test_master_seed_checked_on_direct_construction(self):
        with pytest.raises(ConfigError, match="^master_seed: must be nonnegative, got -1$"):
            tiny_config(master_seed=-1)

    @pytest.mark.parametrize(
        "path, mutate",
        [
            ("environment", lambda raw: raw.update(environment=[])),
            ("environment.theta_star", lambda raw: raw["environment"].update(theta_star=[1])),
            ("environment.experts", lambda raw: raw["environment"].update(experts="uniform")),
            ("learners[0]", lambda raw: raw.update(learners=["ofulinmat"])),
            ("opponent", lambda raw: raw.update(opponent="saddle_oracle")),
        ],
        ids=["environment", "theta-star", "experts", "learner", "opponent"],
    )
    def test_sections_must_be_objects(self, path, mutate):
        raw = config_to_dict(tiny_config())
        mutate(raw)
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [f"{path}: must be an object"]

    @pytest.mark.parametrize(
        "learners, problem",
        [
            ([], "learners: at least one learner is required"),
            ({}, "learners: must be a list"),
            ("ofulinmat", "learners: must be a list"),
        ],
        ids=["empty", "object", "string"],
    )
    def test_learners_must_be_a_non_empty_list(self, learners, problem):
        raw = config_to_dict(tiny_config())
        raw["learners"] = learners
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [problem]

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestByteBudget:
    @staticmethod
    def two_uniform_learners(rounds: int) -> ExperimentConfig:
        env = EnvironmentConfig(n_rows=2, n_cols=2, n_experts=2, n_episodes=2,
                                rounds_per_episode=rounds)
        return ExperimentConfig(env, (LearnerSpec("uniform", "a"), LearnerSpec("uniform", "b")),
                                OpponentSpec("uniform"))

    def test_the_charge_covers_what_a_trial_holds(self):
        # A finished trial of 2 x 200k rounds held 19.2 MB of traces
        # (tracemalloc), which the environment's arrays alone, 3.2 MB, undercount.
        assert self.two_uniform_learners(200_000).trial_bytes >= 19.2e6
        config = self.two_uniform_learners(20_000)
        run_trial(config, 0)  # lazy imports and caches
        tracemalloc.start()
        try:
            result = run_trial(config, 0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result["learners"]["a"]["traces"]
        assert held <= config.trial_bytes, (held, config.trial_bytes)

    def test_a_trial_is_charged_one_episodes_experts(self):
        # Charged for every episode's stack, 1.27e9 bytes, this was refused.
        env = EnvironmentConfig(n_rows=60, n_cols=60, n_experts=10, n_episodes=4000,
                                rounds_per_episode=20)
        config = ExperimentConfig(env, (LearnerSpec("ofulinmat"), LearnerSpec("exp3")),
                                  OpponentSpec("saddle_oracle"))
        assert config.trial_bytes == env.array_bytes + 24 * 4000 * 20 * 2
        assert env.array_bytes == 8 * (4000 * 20 + 11 * 3600)
        fixed = dataclasses.replace(env, n_episodes=1, experts=ExpertSpec(
            "fixed", matrices=np.full((1, 10, 60, 60), 0.5)))
        assert fixed.array_bytes == 8 * (20 + 21 * 3600)  # with the config's stacks

    def test_the_trials_refusal_counts_the_aggregate_rows(self):
        n = tiny_config().environment.n_episodes
        with pytest.raises(ConfigError) as info:
            tiny_config(trials=10**9)
        factor = re.search(r"\((\d+) \* n_episodes \+ 1\)", info.value.problems[0]).group(1)
        assert int(factor) == (series_count(n) - 1) // n


class TestConfigMutations:
    @pytest.mark.parametrize(
        "base, keys", MUTATION_CASES,
        ids=[("fixed:" if base is FIXED_MUTATION_BASE else "") + json_path(keys)
             for base, keys in MUTATION_CASES],
    )
    def test_every_value_is_named_or_runs_to_the_end(self, tmp_path, base, keys):
        """Each table value in this leaf is a ConfigError that names the leaf,
        its object or a sibling (the joint checks), or a complete run. A size
        field never parses, so no run is tried with a huge size."""
        path, section = json_path(keys), keys[:-1]
        named = [path]
        if section:
            siblings = leaf_section(base, keys)
            named += [json_path(section), *(json_path((*section, key)) for key in siblings)]
        prefixes = tuple(f"{name}{end}" for name in named for end in ":.[")
        faults = []
        for index, value in enumerate(MUTATION_VALUES):
            raw = copy.deepcopy(base)
            leaf_section(raw, keys)[keys[-1]] = value
            try:
                config = config_from_dict(raw)
            except ConfigError as exc:
                faults += [f"{value!r}: {p}" for p in exc.problems if not p.startswith(prefixes)]
                continue
            if path in SIZE_FIELDS:
                faults.append(f"{value!r}: parsed, so a run would be tried")
                continue
            out = tmp_path / f"run_{index}"
            run_experiment(config, out)
            if not (out / "manifest.json").is_file():
                faults.append(f"{value!r}: the run wrote no manifest.json")
        assert not faults


def trace_bits(trace) -> dict:
    """Every field of an EpisodeTrace, an array as its dtype, shape and bytes."""
    bits = {}
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        bits[f.name] = (
            (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
            else repr(value)
        )
    return bits


class TestHorizonsNest:
    """A run of K episodes is the first K episodes of the same config run for
    T > K episodes: theta*, the experts and the noise each draw from a stream
    of their own, the noise table is one row-major draw, the expert stream
    advances by episode, and no player reads the horizon."""

    SHORT, LONG = 3, 7
    LEARNERS = tuple(LearnerSpec.KINDS)

    def config(self, n_episodes, opponent, experts) -> ExperimentConfig:
        if experts == "fixed":
            stacks = np.random.default_rng(5).uniform(size=(self.LONG, 2, 3, 3))
            theta = ThetaSpec(kind="fixed", values=(0.8, -0.3))
            expert_spec = ExpertSpec(kind="fixed", matrices=stacks[:n_episodes])
        else:
            theta, expert_spec = ThetaSpec(kind="gaussian", mean=0.5), ExpertSpec(kind="uniform")
        strategy = (0.5, 0.25, 0.25)
        return ExperimentConfig(
            environment=EnvironmentConfig(
                n_rows=3, n_cols=3, n_experts=2, n_episodes=n_episodes, rounds_per_episode=10,
                noise_variance=0.5, theta_star=theta, experts=expert_spec,
            ),
            learners=tuple(
                LearnerSpec(kind, strategy=strategy if kind == "fixed" else None)
                for kind in self.LEARNERS
            ),
            opponent=OpponentSpec(opponent, strategy=strategy if opponent == "fixed" else None),
            trials=2,
            master_seed=11,
        )

    @pytest.mark.parametrize("experts", ["uniform", "fixed"])
    @pytest.mark.parametrize("opponent", list(OpponentSpec.KINDS))
    def test_a_short_run_is_a_prefix_of_a_long_one(self, opponent, experts):
        short = run_trial(self.config(self.SHORT, opponent, experts), 1)
        long = run_trial(self.config(self.LONG, opponent, experts), 1)
        assert short["environment"] == long["environment"]
        for name in self.LEARNERS:
            played, longer = short["learners"][name], long["learners"][name]
            assert [trace_bits(t) for t in played["traces"]] == [
                trace_bits(t) for t in longer["traces"][: self.SHORT]
            ]
            # Every per-episode, cumulative and theta_error row of episodes
            # 1..K; the terminal single-row regret covers the whole run.
            rows = dict(zip(series_keys(self.LONG), longer["report"]))
            keys = series_keys(self.SHORT)[:-1]
            assert np.array([rows[key] for key in keys]).tobytes() == played["report"][:-1].tobytes()


class TestRunExperiment:
    def test_trivial_single_round_run(self, tmp_path):
        expert = [[[[0.1, 0.9], [0.4, 0.6]]]]  # one episode, one expert, 2x2
        config = ExperimentConfig(
            environment=EnvironmentConfig(
                n_rows=2,
                n_cols=2,
                n_experts=1,
                n_episodes=1,
                rounds_per_episode=1,
                noise_variance=0.0,
                theta_star=ThetaSpec(kind="fixed", values=(1.0,)),
                experts=ExpertSpec(kind="fixed", matrices=tuple(expert)),
            ),
            learners=(LearnerSpec(kind="fixed", name="fixed", strategy=(0.0, 1.0)),
                      LearnerSpec(kind="ofulinmat")),
            opponent=OpponentSpec(kind="fixed", strategy=(1.0, 0.0)),
            trials=1,
            master_seed=0,
        )
        run_experiment(config, tmp_path / "run")
        trace_lines = (tmp_path / "run/trials/trial_000/fixed/trace.jsonl").read_text().splitlines()
        assert len(trace_lines) == 1
        record = json.loads(trace_lines[0])
        # Every EpisodeTrace field but hindsight_row_totals, so a new field
        # reaches the output only through an edit here.
        assert list(record) == [
            "beta", "col_actions", "diagnostics", "episode", "learner_strategy", "metrics",
            "opponent_strategy", "rewards", "row_actions", "theta_error", "theta_hat",
            "true_value",
        ]
        assert record["row_actions"] == [1]
        assert record["col_actions"] == [0]
        assert record["rewards"] == [0.4]
        # Only an optimistic learner has diagnostics, and a new one reaches
        # the output only through an edit here too.
        trace = (tmp_path / "run/trials/trial_000/ofulinmat/trace.jsonl").read_text()
        assert list(json.loads(trace)["diagnostics"]) == [
            "cap_share", "coverage", "det_ratio", "entrywise_optimism_margin",
            "potential_bound", "potential_sum", "value_optimism_gap",
        ]
        assert record["diagnostics"] == {}

    def test_outputs_exist_for_each_learner_and_trial(self, tmp_path):
        config = tiny_config()
        run_experiment(config, tmp_path / "run")
        for n in range(2):
            assert (tmp_path / f"run/trials/trial_{n:03d}/env.json").is_file()
            for name in ("ofulinmat", "exp3"):
                base = tmp_path / f"run/trials/trial_{n:03d}/{name}"
                assert (base / "metrics.csv").is_file()
                assert (base / "trace.jsonl").is_file()
        assert (tmp_path / "run/aggregate/ofulinmat.csv").is_file()
        assert (tmp_path / "run/manifest.json").is_file()

    def test_env_json_records_ground_truth(self, tmp_path):
        config = tiny_config(trials=1)
        run_experiment(config, tmp_path / "run")
        env_info = json.loads((tmp_path / "run/trials/trial_000/env.json").read_text())
        assert set(env_info) == {"theta_star", "theta_rejections"}
        assert len(env_info["theta_star"]) == 2
        assert np.linalg.norm(env_info["theta_star"]) <= 2.0  # rejection bound
        assert env_info["theta_rejections"] >= 0

    def test_replay_is_byte_identical(self, tmp_path):
        config = tiny_config()
        run_experiment(config, tmp_path / "a")
        run_experiment(load_manifest_config(tmp_path / "a/manifest.json"), tmp_path / "b")
        files_a = tree_files(tmp_path / "a")
        files_b = tree_files(tmp_path / "b")
        keys_a = {k for k in files_a if not k.endswith("manifest.json")}
        keys_b = {k for k in files_b if not k.endswith("manifest.json")}
        assert keys_a == keys_b
        for key in sorted(keys_a):
            assert files_a[key] == files_b[key], f"{key} differs between run and replay"

    def test_seed_isolation_across_learner_lists(self, monkeypatch):
        built = []  # the environment of each run_trial call

        class Recorded(harness.Environment):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(harness, "Environment", Recorded)
        both = tiny_config()
        solo = tiny_config(learners=(both.learners[0],))
        traces_both = run_trial(both, 0)["learners"]["ofulinmat"]["traces"]
        traces_solo = run_trial(solo, 0)["learners"]["ofulinmat"]["traces"]
        env_both, env_solo = built
        assert np.array_equal(env_both.theta_star, env_solo.theta_star)
        for k in range(both.environment.n_episodes):
            assert np.array_equal(episode_stack(env_both, k), episode_stack(env_solo, k))
        assert np.array_equal(env_both.noise, env_solo.noise)
        for a, b in zip(traces_both, traces_solo):
            assert np.array_equal(a.row_actions, b.row_actions)
            assert np.array_equal(a.rewards, b.rewards)

    def test_a_trial_reveals_and_solves_each_episode_once(self, monkeypatch):
        # Three learners play each episode on one reveal, whose true game is
        # solved once, and the environment is the same object after the trial.
        built, reveals, solves = [], [], []

        class Recorded(harness.Environment):
            def __init__(self, *args):
                super().__init__(*args)
                built.append((self, pickle.dumps(vars(self))))

            def reveal(self, episode):
                reveals.append(episode)
                return super().reveal(episode)

        solve = environment.solve_saddle_point
        monkeypatch.setattr(environment, "solve_saddle_point",
                            lambda game: solves.append(1) or solve(game))
        monkeypatch.setattr(harness, "Environment", Recorded)
        config = tiny_config(trials=1, learners=(
            LearnerSpec("ofulinmat"), LearnerSpec("exp3"), LearnerSpec("uniform")))
        n_episodes = config.environment.n_episodes
        learners = run_trial(config, 0)["learners"]
        assert [len(learners[spec.name]["traces"]) for spec in config.learners] == [n_episodes] * 3
        assert reveals == list(range(n_episodes))
        assert len(solves) == n_episodes
        (env, pickled), = built
        assert pickle.dumps(vars(env)) == pickled

    def test_a_run_holds_one_aggregate_array(self, tmp_path):
        # Across trials a run keeps each learner's (rows, trials) float64
        # array and nothing else per trial. The variance adds one temporary
        # of a learner's array, and the manifest a few dozen bytes per trial
        # seed; 16 KiB of slack covers those. Keeping every trial's report
        # costs about 2 KB per (trial, learner), beyond this bound.
        few, many = 10, 40
        run_experiment(tiny_config(trials=2), tmp_path / "warm-up")  # lazy imports, caches

        def peak(trials):
            tracemalloc.start()
            try:
                run_experiment(tiny_config(trials=trials), tmp_path / f"run_{trials}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        config = tiny_config()
        rows = 17 * config.environment.n_episodes + 1
        array_bytes = 8 * rows * (many - few) * len(config.learners)
        growth = peak(many) - peak(few)
        assert growth <= 2 * array_bytes + 16 * 1024, (growth, array_bytes)

    def test_serial_run_never_loads_the_pool(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=2))))
        code = (
            "import sys\n"
            "from expertgames.cli import main\n"
            "main(['run', '--config', sys.argv[1], '--workers', '1', '--out', sys.argv[2]])\n"
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging'))))\n"
        )
        src = Path(harness.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, str(config_path), str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "run/manifest.json").is_file()

    def test_workers_produce_identical_outputs(self, tmp_path, monkeypatch):
        # A task carries only its trial number: the parent pickles the config
        # at most once per worker (never, when the workers are forked), not
        # once per trial, and the pooled files equal the serial ones.
        config = tiny_config(trials=5)
        run_experiment(config, tmp_path / "seq", workers=1)
        pickled = []

        def counting_reduce_ex(self, protocol):
            pickled.append(protocol)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(ExperimentConfig, "__reduce_ex__", counting_reduce_ex)
        # Two usable CPUs on any machine, so the run has a pool of two processes.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_experiment(config, tmp_path / "par", workers=2)
        assert len(pickled) <= 2
        files_seq = tree_files(tmp_path / "seq")
        files_par = tree_files(tmp_path / "par")
        assert files_seq.pop("manifest.json") and files_par.pop("manifest.json")
        assert files_par == files_seq

    @staticmethod
    def recorded_pool_sizes(monkeypatch, cpus):
        """Pool sizes asked for, with ``cpus`` CPUs usable; the pool is one thread."""
        sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=1, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return sizes

    @pytest.mark.parametrize(
        "workers, trials, cpus, pool_size",
        [(8, 2, 8, 2), (8, 1, 8, None), (8, 5, 3, 3)],
        ids=["trials-cap", "one-trial", "cpu-cap"],
    )
    def test_pool_never_exceeds_trial_count(self, tmp_path, monkeypatch, workers, trials, cpus,
                                            pool_size):
        sizes = self.recorded_pool_sizes(monkeypatch, cpus)
        run_experiment(tiny_config(trials=trials), tmp_path / "run", workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(list((tmp_path / "run/trials").iterdir())) == trials

    def test_workers_8_on_one_cpu_run_with_no_pool(self, tmp_path, monkeypatch):
        sizes = self.recorded_pool_sizes(monkeypatch, 1)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=3))))
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "run"), "--workers", "8"]
        assert cli_main(argv) == 0
        assert sizes == []
        assert len(list((tmp_path / "run/trials").iterdir())) == 3

    def test_cpu_count_caps_the_pool_where_affinity_is_missing(self, tmp_path, monkeypatch):
        sizes = self.recorded_pool_sizes(monkeypatch, 8)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_experiment(tiny_config(trials=4), tmp_path / "run", workers=8)
        assert sizes == [2]

    def test_crashed_run_has_trial_files_but_no_manifest(self, tmp_path, monkeypatch):
        def crash_on_second(config, trial):
            if trial == 1:
                raise RuntimeError("trial 1 failed")
            return run_trial(config, trial)

        monkeypatch.setattr(harness, "run_trial", crash_on_second)
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")  # left by an earlier run
        with pytest.raises(RuntimeError, match="trial 1 failed"):
            run_experiment(tiny_config(trials=2), out)
        assert (out / "trials/trial_000/env.json").is_file()
        assert (out / "trials/trial_000/exp3/trace.jsonl").is_file()
        assert not (out / "trials/trial_001").exists()
        assert not (out / "manifest.json").exists()
        assert not (out / "aggregate").exists()

    def test_a_run_never_rechecks_its_environment_config(self, tmp_path, monkeypatch):
        # The config was checked when it was built; a trial adds only its seed.
        env = dataclasses.replace(tiny_config().environment, experts=ExpertSpec(
            "fixed", matrices=np.full((2, 2, 3, 3), 0.5)))
        config = tiny_config(environment=env, trials=3)
        checks = []
        check = EnvironmentConfig.__post_init__
        monkeypatch.setattr(EnvironmentConfig, "__post_init__",
                            lambda self: checks.append(self) or check(self))
        run_experiment(config, tmp_path / "run")
        assert len(checks) == 0
        assert (tmp_path / "run/manifest.json").is_file()

    @pytest.mark.parametrize("name", ["trials", "aggregate", "plot", "plot-link"])
    def test_a_stale_file_by_an_output_name_is_removed(self, tmp_path, name):
        # A file by one of these names would block the run's own directory,
        # or, for plot, the tables plot-data writes next. A link goes, and
        # what it points to stays.
        out = tmp_path / "run"
        out.mkdir()
        target = tmp_path / "elsewhere"
        target.mkdir()
        (target / "kept.csv").write_text("kept\n")
        if name == "plot-link":
            name = "plot"
            (out / name).symlink_to(target, target_is_directory=True)
        else:
            (out / name).write_text("stale\n")
        run_experiment(tiny_config(), out)
        assert (out / "manifest.json").is_file()
        assert not (out / "plot").exists() and not (out / "plot").is_symlink()
        assert (target / "kept.csv").read_text() == "kept\n"
        assert cli_main(["plot-data", "--run", str(out)]) == 0
        assert (out / "plot/exp3.csv").read_bytes() == (out / "aggregate/exp3.csv").read_bytes()

    def test_rerun_into_a_run_directory_replaces_its_outputs(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(trials=3), out)
        emit_plot_data(out)
        (out / "notes.txt").write_text("kept\n")
        run_experiment(tiny_config(trials=1, master_seed=5), out)
        assert sorted(p.name for p in (out / "trials").iterdir()) == ["trial_000"]
        assert not (out / "plot").exists()
        assert (out / "notes.txt").read_text() == "kept\n"
        run_experiment(tiny_config(trials=1, master_seed=5), tmp_path / "fresh")
        rerun = tree_files(out)
        del rerun["notes.txt"], rerun["manifest.json"]
        fresh = tree_files(tmp_path / "fresh")
        del fresh["manifest.json"]
        assert rerun == fresh

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_config(trials=1), tmp_path / "run", workers=0)
        assert not (tmp_path / "run").exists()

    def test_jsonl_output_format(self, tmp_path):
        config = tiny_config(output_format="jsonl")
        run_experiment(config, tmp_path / "run")
        path = tmp_path / "run/trials/trial_000/exp3/metrics.jsonl"
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) == {"series", "episode", "value"}

    # Every series holds these values, the first series in order.
    SPECIAL = [np.nan, np.inf, -np.inf, 0.1, -0.0, 1e-310, 2.5e300, 1 / 3]

    def special_text(self, output_format):
        """The rows of SPECIAL values under every series key, and the file
        ``METRIC_FORMATS[output_format]`` spells of them."""
        keys = series_keys(len(self.SPECIAL))
        rows = list(zip(keys, np.resize(self.SPECIAL, len(keys)).tolist()))
        spelled = METRIC_FORMATS[output_format]
        return rows, spelled.text([spelled.prefix(*key) for key in keys], [v for _, v in rows])

    def test_jsonl_rows_are_the_bytes_of_json_dumps(self):
        rows, text = self.special_text("jsonl")
        expected = "".join(
            json.dumps({"series": name, "episode": episode, "value": value}, sort_keys=True)
            + "\n"
            for (name, episode), value in rows
        )
        assert text == expected
        assert "NaN" in expected and "-Infinity" in expected and "e-310" in expected

    def test_csv_rows_are_the_repr_of_each_value(self):
        rows, text = self.special_text("csv")
        expected = "".join(f"{name},{episode},{value!r}\n" for (name, episode), value in rows)
        assert text == "series,episode,value\n" + expected
        assert "nan" in expected and "-inf" in expected and "-0.0" in expected

    def test_csv_and_jsonl_runs_hold_the_same_rows(self, tmp_path):
        def rows(output_format):
            """(learner directory, series, episode, value bits) of every metric row of a run."""
            run = tmp_path / output_format
            run_experiment(tiny_config(output_format=output_format), run)
            found = []
            for path in sorted(run.glob(f"trials/*/*/metrics.{output_format}")):
                lines = path.read_text().splitlines()
                if output_format == "csv":
                    parsed = [line.split(",") for line in lines[1:]]
                else:
                    parsed = [(row["series"], row["episode"], row["value"]) for row in map(json.loads, lines)]
                found += [(path.parent.relative_to(run), series, int(episode), struct.pack("<d", float(value)))
                          for series, episode, value in parsed]
            return found

        csv_rows = rows("csv")
        assert csv_rows == rows("jsonl")
        # Exp3's theta_error rows are NaN, which only a comparison of bits counts as equal.
        assert any(series == "theta_error" and math.isnan(struct.unpack("<d", bits)[0])
                   for _, series, _, bits in csv_rows)


class TestAggregation:
    def test_aggregate_matches_per_trial_mean(self, tmp_path):
        # 12 trials: from 8 on, numpy's pairwise sum makes the bits depend
        # on how the values are laid out, so every row is compared as text.
        trials = 12
        run_experiment(tiny_config(trials=trials), tmp_path / "run")
        for learner in ("ofulinmat", "exp3"):
            values: dict[str, list[float]] = {}
            for n in range(trials):
                path = tmp_path / f"run/trials/trial_{n:03d}/{learner}/metrics.csv"
                for line in path.read_text().splitlines()[1:]:
                    name, episode, value = line.split(",")
                    values.setdefault(f"{name},{episode}", []).append(float(value))
            expected = sorted(
                f"{key},{float(np.mean(row))!r},{float(np.std(row, ddof=1) / np.sqrt(trials))!r}"
                for key, row in values.items()
            )
            lines = (tmp_path / f"run/aggregate/{learner}.csv").read_text().splitlines()[1:]
            assert sorted(lines) == expected
            assert any(",nan," in line for line in lines) == (learner == "exp3")

    def test_single_trial_stderr_is_zero(self, tmp_path):
        config = tiny_config(trials=1)
        run_experiment(config, tmp_path / "run")
        emit_plot_data(tmp_path / "run")
        for line in (tmp_path / "run/plot/ofulinmat.csv").read_text().splitlines()[1:]:
            assert line.endswith(",0.0")

    @pytest.mark.parametrize("output_format", ["csv", "jsonl"])
    def test_plot_data_recomputes_run_aggregate(self, tmp_path, output_format):
        config = tiny_config(trials=3, output_format=output_format)
        run_experiment(config, tmp_path / "run")
        emit_plot_data(tmp_path / "run")
        assert filecmp.cmp(
            tmp_path / "run/aggregate/exp3.csv", tmp_path / "run/plot/exp3.csv", shallow=False
        )

    def test_plot_data_series_filter_and_errors(self, tmp_path, capsys):
        config = tiny_config(trials=1)
        run_experiment(config, tmp_path / "run")
        written = emit_plot_data(
            tmp_path / "run", tmp_path / "filtered", ["cumulative_saddle_pseudo"]
        )
        content = written[0].read_text().splitlines()
        assert all(
            line.startswith("cumulative_saddle_pseudo,") for line in content[1:]
        )
        with pytest.raises(ValueError, match="no_such_series"):
            emit_plot_data(tmp_path / "run", tmp_path / "missing", ["no_such_series"])
        argv = ["plot-data", "--run", str(tmp_path / "run"), "--series", "no_such_series"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: series not present in run outputs: no_such_series\n"

    def test_plot_data_rejects_bad_metrics_header(self, tmp_path, capsys):
        run_experiment(tiny_config(trials=1), tmp_path / "run")
        bad = tmp_path / "run/aggregate/exp3.csv"
        bad.write_text("name,ep,mu,se\n" + bad.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match="aggregate/exp3.csv"):
            emit_plot_data(tmp_path / "run")
        assert cli_main(["plot-data", "--run", str(tmp_path / "run")]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_plot_data_refuses_a_run_without_manifest(self, tmp_path, capsys):
        run_experiment(tiny_config(trials=1), tmp_path / "run")
        (tmp_path / "run/manifest.json").unlink()
        with pytest.raises(FileNotFoundError, match="not a finished run: it has no manifest.json"):
            emit_plot_data(tmp_path / "run")
        assert cli_main(["plot-data", "--run", str(tmp_path / "run")]) == 1
        assert "no manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "run/plot").exists()

    def test_aggregate_series_helper(self):
        config = tiny_config(trials=2)
        keys = series_keys(config.environment.n_episodes)
        reports = [run_trial(config, n)["learners"]["exp3"]["report"] for n in range(2)]
        rows = aggregate_series(keys, np.stack(reports, axis=1))
        means = [mean for name, _, mean, _ in rows if name == "cumulative_saddle_realized"]
        picked = [i for i, (name, _) in enumerate(keys) if name == "cumulative_saddle_realized"]
        first, second = reports[0][picked], reports[1][picked]
        np.testing.assert_allclose(means, (first + second) / 2)


class TestCli:
    def test_paper_default_prints_valid_config(self, capsys):
        assert cli_main(["paper-default"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert config_from_dict(printed) == default_paper_config()

    def test_run_and_plot_data(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert cli_main(["plot-data", "--run", str(out)]) == 0

    def test_run_completes_with_huge_noise_variance(self, tmp_path):
        # The largest variance below the bound: 40 standard deviations reach
        # 9.96e99. The confidence radius makes OFULinMat's optimistic payoffs
        # huge; the solver normalises them by their range before the LP, so
        # they still solve, and every aggregate is finite. An exp3 learner
        # has no estimate, so its theta_error is NaN.
        raw = config_to_dict(tiny_config(
            trials=3, opponent=OpponentSpec("best_responder"),
            environment=dataclasses.replace(
                tiny_config().environment, n_episodes=3, rounds_per_episode=200
            ),
        ))
        raw["environment"]["noise_variance"] = 6.2e196
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        for table in (out / "aggregate").glob("*.csv"):
            for row in table.read_text().splitlines()[1:]:
                series, _, mean, stderr = row.split(",")
                finite = math.isfinite(float(mean)) and math.isfinite(float(stderr))
                assert finite or (table.stem, series) == ("exp3", "theta_error"), (table, row)

    def test_run_with_a_negative_zero_noise_variance_records_zero(self, tmp_path):
        raw = config_to_dict(tiny_config(trials=1))
        raw["environment"]["noise_variance"] = -0.0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        assert '"noise_variance": 0.0,' in text and "-0.0" not in text

    def test_noise_beyond_the_payoff_limit_names_the_limit(self):
        raw = config_to_dict(tiny_config())
        raw["environment"]["noise_variance"] = 1.7e308
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.problems == [
            "environment.noise_variance: must be at most 6.25e+196, so that 40 standard "
            "deviations of noise stay within the payoff limit of 1e+100, got 1.7e+308"
        ]

    def test_run_seed_and_trials_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config())))
        out = tmp_path / "run"
        code = cli_main(
            ["run", "--config", str(config_path), "--out", str(out), "--trials", "1", "--seed", "99"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 1
        assert manifest["config"]["master_seed"] == 99

    def test_invalid_config_exits_one_with_diagnostics(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        raw = config_to_dict(tiny_config())
        raw["environment"]["n_rows"] = 0
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, mutate",
        [
            ("trials", lambda raw: raw.update(trials=True)),
            ("trials", lambda raw: raw.update(trials=1e150)),
            ("trials", lambda raw: raw.update(trials=2**70)),
            ("master_seed", lambda raw: raw.update(master_seed=2.5)),
            ("master_seed", lambda raw: raw.update(master_seed=-1)),
            ("environment.n_rows", lambda raw: raw["environment"].update(n_rows=10.7)),
            (
                "environment.rounds_per_episode",
                lambda raw: raw["environment"].update(rounds_per_episode=False),
            ),
            (
                "learners[1].strategy",
                lambda raw: raw["learners"].__setitem__(
                    1, {"type": "fixed", "strategy": [0.5, 0.5]}
                ),
            ),
            (
                "opponent.strategy",
                lambda raw: raw.update(opponent={"type": "fixed", "strategy": [0.5, 0.5]}),
            ),
            (
                "environment.experts.matrices",
                lambda raw: raw["environment"].update(
                    experts={"type": "fixed", "matrices": fixed_experts((2, 2, 3, 3), last=True)}
                ),
            ),
            ("learners[0].name", lambda raw: raw["learners"][0].update(name=5)),
            ("learners[1].name", lambda raw: raw["learners"][1].update(name="../escaped")),
            ("learners[0].name", lambda raw: raw["learners"][0].update(name="env.json")),
            (
                "environment.noise_variance",
                lambda raw: raw["environment"].update(noise_variance="x"),
            ),
            ("learners[0].ridge", lambda raw: raw["learners"][0].update(ridge=True)),
            ("learners[0].delta", lambda raw: raw["learners"][0].update(delta="0.01")),
            ("learners[1].reward_max", lambda raw: raw["learners"][1].update(reward_max=True)),
            (
                "environment.theta_star.mean",
                lambda raw: raw["environment"]["theta_star"].update(mean=float("nan")),
            ),
            (
                "environment.theta_star.values[1]",
                lambda raw: raw["environment"].update(
                    theta_star={"type": "fixed", "values": [1.0, float("inf")]}
                ),
            ),
            (
                "environment.theta_star.type",
                lambda raw: raw["environment"].update(theta_star={"type": "bogus"}),
            ),
            (
                "environment.experts.type",
                lambda raw: raw["environment"].update(experts={"type": "unifrom"}),
            ),
            (
                "environment.theta_star",
                lambda raw: raw["environment"].update(
                    theta_star={"type": "fixed", "values": [1.0, 0.0], "norm_bound": 2.0}
                ),
            ),
            (
                "environment.theta_star",
                lambda raw: raw["environment"]["theta_star"].update(values=[1.0, 0.0]),
            ),
            (
                "environment.experts",
                lambda raw: raw["environment"]["experts"].update(
                    matrices=fixed_experts((2, 2, 3, 3))
                ),
            ),
            ("environment.n_rows", lambda raw: raw["environment"].update(n_rows=10**400)),
            ("learners[0].ridge", lambda raw: raw["learners"][0].update(ridge=0)),
            ("learners[0].delta", lambda raw: raw["learners"][0].update(delta=2)),
            ("learners[0].param_bound", lambda raw: raw["learners"][0].update(param_bound=1e300)),
            ("learners[0].param_bound", lambda raw: raw["learners"][0].update(ridge=1e308)),
            ("learners[0].ridge", lambda raw: raw["learners"][0].update(ridge=1e-300)),
            ("learners[0].ridge", lambda raw: paper_with_ridge(raw, 1e-15)),
            # Two learners' traces take 96 bytes per round of the two episodes.
            (
                "learners",
                lambda raw: raw["environment"].update(rounds_per_episode=12_000_000),
            ),
            ("learners", lambda raw: raw.update(learners=[])),
            ("learners", lambda raw: raw.update(learners={})),
            *ENVIRONMENT_RULE_CASES.values(),
        ],
        ids=[
            "bool-trials",
            "huge-trials",
            "trials-2-to-70",
            "fractional-seed",
            "negative-seed",
            "fractional-rows",
            "bool-rounds",
            "short-learner-strategy",
            "short-opponent-strategy",
            "expert-entry-true",
            "integer-name",
            "escaping-name",
            "file-name",
            "string-noise",
            "bool-ridge",
            "string-delta",
            "bool-reward-max",
            "nan-theta-mean",
            "infinite-theta-value",
            "unknown-theta-type",
            "unknown-expert-type",
            "norm-bound-on-fixed-theta",
            "values-on-gaussian-theta",
            "matrices-on-uniform-experts",
            "huge-rows",
            "zero-ridge",
            "delta-above-one",
            "overflowing-radius-param-bound",
            "overflowing-radius-ridge",
            "ridge-below-floor",
            "paper-ridge-below-floor",
            "traces-beyond-budget",
            "empty-learners",
            "object-learners",
            *ENVIRONMENT_RULE_CASES,
        ],
    )
    def test_invalid_field_exits_one_before_any_output(
        self, tmp_path, capsys, monkeypatch, path, mutate
    ):
        def no_trial(config, trial):  # a huge trial count fails here, never hangs
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        raw = config_to_dict(tiny_config())
        mutate(raw)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_weights_at_the_payoff_limit_run_to_the_end(self, tmp_path):
        # Two experts with weights of half the limit reach it exactly.
        raw = config_to_dict(tiny_config())
        half = PAYOFF_LIMIT / 2
        raw["environment"]["theta_star"] = {"type": "fixed", "values": [half, -half]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_ridge_at_the_floor_runs_to_the_end(self, tmp_path):
        # All-ones experts make every feature the all-ones vector, the most
        # ill-conditioned Gram matrix [0, 1]^d features can build.
        raw = config_to_dict(default_paper_config())
        env = raw["environment"]
        env["experts"] = {"type": "fixed", "matrices": np.ones(
            (env["n_episodes"], env["n_experts"], env["n_rows"], env["n_cols"])).tolist()}
        raw["learners"][0]["ridge"] = ridge_floor(config_from_dict(raw).environment)
        raw["trials"] = 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_workers_below_one(self, tmp_path, capsys, workers):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        out = tmp_path / "run"
        argv = ["run", "--config", str(config_path), "--out", str(out), "--workers", workers]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 1
        assert "error: --workers: workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_rejects_workers_below_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")])
        replay_out = tmp_path / "replayed"
        argv = ["replay", "--manifest", str(tmp_path / "run/manifest.json"),
                "--out", str(replay_out), "--workers", "0"]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 1
        assert "error: --workers: workers must be at least 1" in capsys.readouterr().err
        assert not replay_out.exists()

    def test_unwritable_output_exits_two(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where a directory is needed
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "--config", str(config_path), "--out", str(blocker / "sub")])
        assert excinfo.value.code == 2

    def test_plot_data_unwritable_output_exits_two(self, tmp_path, capsys):
        run = tmp_path / "run"
        run_experiment(tiny_config(trials=1), run)
        blocked = run / "manifest.json" / "sub"  # a file where a directory is needed
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["plot-data", "--run", str(run), "--out", str(blocked)])
        assert excinfo.value.code == 2
        assert f"error: output directory {blocked} is not writable" in capsys.readouterr().err
        # A run without a manifest is still refused first, and nothing is written.
        (run / "manifest.json").unlink()
        out = tmp_path / "plot"
        assert cli_main(["plot-data", "--run", str(run), "--out", str(out)]) == 1
        assert "no manifest.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "config: not valid JSON"),
            ("[1, 2]", "is not a run manifest"),
            (json.dumps(config_to_dict(tiny_config())), "is not a run manifest"),
            (
                json.dumps({"config": {**config_to_dict(tiny_config()), "trials": 0}}),
                "trials: must be at least 1",
            ),
        ],
        ids=["not-json", "json-list", "a-config", "bad-config"],
    )
    def test_replay_refuses_a_bad_manifest_before_any_output(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "replayed"
        assert cli_main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["missing", "directory", "binary"])
    def test_unreadable_config_exits_one_before_any_output(self, tmp_path, capsys, form):
        path = tmp_path / "config.json"
        if form == "directory":
            path.mkdir()
        elif form == "binary":
            path.write_bytes(b"\xff\xfe\x00{\x80")
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: config: cannot read {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_replay_cli(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        out = tmp_path / "run"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        replay_out = tmp_path / "replayed"
        code = cli_main(
            ["replay", "--manifest", str(out / "manifest.json"), "--out", str(replay_out)]
        )
        assert code == 0
        assert filecmp.cmp(
            out / "aggregate/ofulinmat.csv",
            replay_out / "aggregate/ofulinmat.csv",
            shallow=False,
        )

    @pytest.mark.parametrize("version", [None, "0.0.1"], ids=["same-version", "other-version"])
    def test_replay_warns_of_another_versions_manifest(self, tmp_path, capsys, version):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["version"] = version or manifest["version"]
        edited = tmp_path / "edited" / "manifest.json"
        edited.parent.mkdir()
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "replayed"
        assert cli_main(["replay", "--manifest", str(edited), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        if version is None:
            assert err == ""
        else:
            assert err == (f"warning: {edited} was written by expertgames 0.0.1, this is "
                           f"{expertgames.__version__}; its outputs may differ from the run's\n")
        replayed, original = tree_files(out), tree_files(run)
        del replayed["manifest.json"], original["manifest.json"]
        assert replayed == original

    def test_replay_from_inside_the_run_directory(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        run_experiment(tiny_config(trials=1), run)
        monkeypatch.chdir(run)
        assert cli_main(["replay", "--manifest", "manifest.json"]) == 0
        replayed = tmp_path / "run_replay"
        assert (replayed / "manifest.json").is_file()
        assert filecmp.cmp(
            run / "aggregate/exp3.csv", replayed / "aggregate/exp3.csv", shallow=False
        )

    @pytest.mark.parametrize("inside", [False, True], ids=["run-path", "dot-from-inside"])
    def test_replay_refuses_to_write_over_the_run_it_replays(
        self, tmp_path, monkeypatch, capsys, inside
    ):
        # Replaying into the run would delete its manifest, trials and
        # aggregates before rewriting them: the source tree stays as it was.
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        before = tree_files(run)
        stamps = {p: p.stat().st_mtime_ns for p in run.rglob("*")}
        manifest, out = run / "manifest.json", run
        if inside:
            monkeypatch.chdir(run)
            manifest, out = Path("manifest.json"), Path(".")
        assert cli_main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 1
        message = f"error: --out {out} is {run.resolve()}, the directory of the run being replayed"
        assert message in capsys.readouterr().err
        assert tree_files(run) == before
        assert {p: p.stat().st_mtime_ns for p in run.rglob("*")} == stamps

    @pytest.mark.parametrize("command, where", [
        ("run", "plot/cfg.json"), ("run", "trials/trial_000/cfg.json"), ("run", "manifest.json"),
        ("replay", "plot/source"),
    ])
    def test_a_command_refuses_an_input_in_a_tree_its_run_replaces(
        self, tmp_path, capsys, command, where
    ):
        # The run would clear the tree that holds its own config, or the run
        # being replayed, after reading it: the whole tree stays as it was.
        out = tmp_path / "run"
        run_experiment(tiny_config(), out)
        source = out / where
        if command == "run":
            source.parent.mkdir(parents=True, exist_ok=True)
            source.write_text(json.dumps(config_to_dict(tiny_config())))
            argv = ["run", "--config", str(source), "--out", str(out)]
            role = "the config file"
        else:
            run_experiment(tiny_config(trials=1), source)
            argv = ["replay", "--manifest", str(source / "manifest.json"), "--out", str(out)]
            role = "the directory of the run being replayed"
        before = tree_files(out)
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        assert cli_main(argv) == 1
        replaced = out.resolve() / where.split("/")[0]
        message = (f"error: {source.resolve()}, {role}, lies in {replaced}, "
                   f"which a run into --out {out} replaces")
        assert message in capsys.readouterr().err
        assert tree_files(out) == before
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps

    @pytest.mark.parametrize("inside", ["trials", "aggregate", "new"])
    def test_replay_refuses_to_write_inside_the_run_it_replays(
        self, tmp_path, capsys, inside
    ):
        # The replay would write a manifest, trials and aggregates among the
        # run's own files: the source tree stays as it was.
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        before = tree_files(run)
        stamps = {p: p.stat().st_mtime_ns for p in run.rglob("*")}
        out = run / inside
        assert cli_main(["replay", "--manifest", str(run / "manifest.json"), "--out", str(out)]) == 1
        message = (f"error: --out {out} lies inside {run.resolve()}, "
                   f"the directory of the run being replayed")
        assert message in capsys.readouterr().err
        assert tree_files(run) == before
        assert {p: p.stat().st_mtime_ns for p in run.rglob("*")} == stamps

    @pytest.mark.parametrize("form", ["aggregate", "plot/../aggregate"])
    def test_plot_data_refuses_to_write_over_its_runs_aggregate(self, tmp_path, capsys, form):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        (run / "plot").mkdir()
        before = tree_files(run)
        out = run / form
        argv = ["plot-data", "--run", str(run), "--out", str(out), "--series", "theta_error"]
        assert cli_main(argv) == 1
        message = f"error: --out {out} is the run's aggregate directory, its input"
        assert message in capsys.readouterr().err
        assert tree_files(run) == before

    def test_plot_data_unknown_series_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(tiny_config(trials=1))))
        out = tmp_path / "run"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        code = cli_main(["plot-data", "--run", str(out), "--series", "nope"])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("series", [[], ["--series", "theta_error"]], ids=["all", "one"])
    def test_plot_data_refuses_a_table_with_no_rows(self, tmp_path, capsys, series):
        run, out = tmp_path / "run", tmp_path / "plot"
        run_experiment(tiny_config(trials=1), run)
        empty = run / "aggregate/exp3.csv"
        empty.write_text(empty.read_text().partition("\n")[0] + "\n")
        assert cli_main(["plot-data", "--run", str(run), "--out", str(out), *series]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no rows below its header\n"
        assert not out.exists()

    def test_plot_data_refuses_a_run_without_aggregate_tables(self, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "plot"
        run_experiment(tiny_config(trials=1), run)
        for table in (run / "aggregate").glob("*.csv"):
            table.unlink()
        assert cli_main(["plot-data", "--run", str(run), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: no aggregate tables under {run / 'aggregate'}\n"
        assert not out.exists()

    def test_plot_data_refuses_an_empty_series_name(self, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "plot"
        run_experiment(tiny_config(trials=1), run)
        argv = ["plot-data", "--run", str(run), "--out", str(out), "--series", "theta_error,,external"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: empty series name in --series\n"
        assert not out.exists()
