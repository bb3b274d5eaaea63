"""Where the config lives: ``config`` holds the schema and imports neither the
simulator nor the runner, and every name the benchmark reaches stays where it
looks for it."""

import ast
from pathlib import Path

import pytest

from expertgames import agents, cli, config, environment, estimator, harness


def test_config_imports_neither_the_simulator_nor_the_runner():
    # Importing expertgames.config runs the package __init__, which imports
    # every module, so sys.modules cannot show this; the source can.
    tree = ast.parse(Path(config.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {f"{prefix}{name}" for prefix in (".", "expertgames.")
                 for name in ("environment", "harness", "cli")}
    assert imported & forbidden == set()


# bench/spans.py wraps these in place and bench/run.py calls them, so a name
# moved elsewhere would go unwrapped, or fail only in a traced run.
BENCH_NAMES = [
    (harness, "run_experiment"),
    (harness, "run_trial"),
    (harness, "aggregate_series"),
    (harness, "build_report"),
    (harness, "config_from_dict"),
    (environment, "solve_saddle_point"),
    (environment, "Environment"),
    (environment.Environment, "__init__"),
    (environment.Environment, "run_episode"),
    (agents, "solve_saddle_point"),
    (agents.OFULinMatAgent, "begin_episode"),
    (agents.OFULinMatAgent, "end_episode"),
    (agents.Exp3Agent, "act"),
    (agents.Exp3Agent, "observe"),
    (agents.SaddleOracleOpponent, "begin_episode"),
    (agents.UniformOpponent, "begin_episode"),
    (agents.FixedOpponent, "begin_episode"),
    (agents.BestResponderOpponent, "begin_episode"),
    (estimator.RidgeEstimator, "absorb_batch"),
    (cli, "load_config"),
]


@pytest.mark.parametrize("owner, name", BENCH_NAMES, ids=[
    f"{owner.__name__.rpartition('.')[2]}.{name}" for owner, name in BENCH_NAMES
])
def test_the_benchmark_finds_each_name_where_it_looks(owner, name):
    assert hasattr(owner, name)
