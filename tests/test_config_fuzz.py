"""A seeded fuzzer over JSON configs: every mutated config either parses or is
refused with a ``ConfigError``, and an accepted one round-trips and runs.

The base configs cover every learner type, every opponent type, uniform and
fixed experts, and Gaussian and fixed mixing weights. Each case mutates one
to three leaves, or deletes a key, drawing values from a pool of edge cases.
Descent picks a child uniformly at each level, so a fixed expert array does
not draw most of the mutations to its own entries.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import warnings

import pytest

from expertgames.cli import main as cli_main
from expertgames.config import ConfigError, config_from_dict, config_to_dict
from expertgames.harness import run_trial

_MATRICES = [
    [[[0.1, 0.9, 0.4], [0.6, 0, 0.3], [1, 0.2, 0.7]],
     [[0.5, 0.5, 0.25], [0.75, 0.1, 0.9], [0.3, 0.6, 0]]],
    [[[0.2, 0.8, 1], [0.4, 0.35, 0.65], [0.9, 0.05, 0.5]],
     [[0, 1, 0.45], [0.55, 0.15, 0.85], [0.7, 0.3, 0.2]]],
]


def _environment(**overrides) -> dict:
    env = {"n_rows": 3, "n_cols": 3, "n_experts": 2, "n_episodes": 2,
           "rounds_per_episode": 6, "noise_variance": 0.5}
    return {**env, **overrides}


BASES = [
    {"environment": _environment(theta_star={"type": "gaussian", "mean": 0.5, "norm_bound": 3.0}),
     "learners": [{"type": "ofulinmat"}, {"type": "exp3"},
                  {"type": "fixed", "strategy": [0.5, 0.25, 0.25]}, {"type": "uniform"}],
     "opponent": {"type": "saddle_oracle"}, "trials": 2},
    {"environment": _environment(theta_star={"type": "gaussian", "mean": 0.5, "norm_bound": None}),
     "learners": [{"type": "ofulinmat", "ridge": 0.1, "param_bound": 3.0, "delta": 0.003},
                  {"type": "exp3", "name": "bandit"}],
     "opponent": {"type": "best_responder"}, "output_format": "jsonl", "master_seed": 3},
    {"environment": _environment(theta_star={"type": "fixed", "values": [0.8, -0.3]},
                                 experts={"type": "fixed", "matrices": _MATRICES}),
     "learners": [{"type": "ofulinmat"}, {"type": "fixed", "strategy": [0.5, 0.25, 0.25]}],
     "opponent": {"type": "fixed", "strategy": [0.2, 0.3, 0.5]}, "trials": 2},
    {"environment": _environment(experts={"type": "fixed", "matrices": _MATRICES}),
     "learners": [{"type": "exp3", "reward_min": -2.0, "reward_max": 2.0}, {"type": "uniform"}],
     "opponent": {"type": "uniform"}},
]

_SUBNORMAL = 2.2250738585072014e-308 / 4
POOL = [
    None, True, False, 1, 2, 0.5,
    0.0, -0.0, 5e-324, -5e-324, _SUBNORMAL,
    math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    1e308, -1e308, 10**400, math.nan, math.inf, -math.inf,
    "", "fixed", "uniform", "0.5",
    [], [0.5, 0.5], [0.2, 0.3, 0.5], [[0.5]],
    {}, {"type": "fixed"}, {"type": "fixed", "strategy": [1.0, 0.0, 0.0]},
]
CASES = 4000
# A trial runs only when it is this small: a bound on the fuzzer's time, not
# a filter of faults (sizes past it are refused or would only take longer).
_SMALL = {"n_rows": 4, "n_cols": 4, "n_experts": 3, "n_episodes": 3, "rounds_per_episode": 8}


def _json_copy(value):
    """A deep copy of a JSON value, as reading it from a file gives it (NaN,
    inf and ``10**400`` included)."""
    return json.loads(json.dumps(value))


def _leaf_path(rng: random.Random, node) -> list:
    """A path from ``node`` to a leaf, picking a child uniformly at each level;
    an empty container is a leaf."""
    path = []
    while isinstance(node, (dict, list)) and node:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path.append(key)
        node = node[key]
    return path


def mutate(rng: random.Random, base: dict) -> dict:
    """``base`` with one to three leaves set from ``POOL``, or one key deleted."""
    raw = _json_copy(base)
    if rng.random() < 0.2:
        path = _leaf_path(rng, raw)
        dicts = [k for k in range(len(path))
                 if isinstance(functools.reduce(operator.getitem, path[:k], raw), dict)]
        cut = path[:rng.choice(dicts) + 1]
        del functools.reduce(operator.getitem, cut[:-1], raw)[cut[-1]]
        return raw
    for _ in range(rng.randint(1, 3)):
        path = _leaf_path(rng, raw)
        functools.reduce(operator.getitem, path[:-1], raw)[path[-1]] = _json_copy(rng.choice(POOL))
    return raw


def fuzzed():
    """The ``CASES`` mutated configs of seed 0, with their parse results:
    the config, or the ``ConfigError``."""
    rng = random.Random(0)
    for case in range(CASES):
        raw = mutate(rng, BASES[case % len(BASES)])
        try:
            yield raw, config_from_dict(_json_copy(raw))
        except ConfigError as exc:
            yield raw, exc


def _small(config) -> bool:
    env = config.environment
    return all(getattr(env, name) <= limit for name, limit in _SMALL.items())


@pytest.fixture(scope="module")
def results():
    # Anything but a ConfigError escapes here and fails every test of the module.
    return list(fuzzed())


def test_every_mutation_parses_or_is_a_config_error(results):
    # The fixture fails on any other exception; both outcomes must occur
    # often enough that the tests below check something.
    accepted = sum(not isinstance(result, ConfigError) for _, result in results)
    assert 0.05 * CASES < accepted < 0.5 * CASES


def test_an_accepted_config_round_trips(results):
    for raw, config in results:
        if isinstance(config, ConfigError):
            continue
        written = config_to_dict(config)
        # The manifest records this dict as strict JSON.
        assert config_from_dict(json.loads(json.dumps(written, allow_nan=False))) == config, raw
        assert config_to_dict(config_from_dict(written)) == written, raw


def test_a_small_accepted_config_runs_a_trial(results):
    ran = 0
    for raw, config in results:
        if isinstance(config, ConfigError) or not _small(config):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_trial(config, 0)
        assert set(report["learners"]) == {spec.name for spec in config.learners}, raw
        ran += 1
    assert ran > 0.05 * CASES


def test_the_cli_refuses_a_mutated_config_before_any_output(results, tmp_path, capsys):
    refused = [raw for raw, result in results if isinstance(result, ConfigError)][:4]
    for k, raw in enumerate(refused):
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(raw))  # NaN and inf as JSON's NaN and Infinity
        out = tmp_path / f"run{k}"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1, raw
        assert not out.exists(), raw
        assert "config error" in capsys.readouterr().err, raw
