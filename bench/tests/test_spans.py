"""Self-time arithmetic, the tracer's wrapping, and the benchmark's metric table."""

import json
from pathlib import Path

import run
import spans
from spans import Span, Tracer, instrumented, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        # Overlaps b and runs past the end of root: only [9, 10] is new cover.
        Span("c", 8.0, 11.0, 0),
    ]
    assert self_times(tree) == [2.0, 2.0, 1.0, 4.0, 3.0]


def test_write_time_is_run_experiment_self_time():
    tree = [
        Span("harness.run_experiment", 0.0, 8.0, None),
        Span("harness.trial", 0.5, 3.0, 0),
        Span("game.solve", 1.0, 2.0, 1),
        Span("harness.trial", 3.0, 6.0, 0),
        Span("harness.aggregate", 6.0, 6.5, 0),
    ]
    metrics = layer_metrics(tree)
    assert metrics["harness.write_s"] == 2.0
    assert metrics["harness.trial_s"] == 5.5
    assert metrics["harness.aggregate_ms"] == 500.0
    assert metrics["game.solve_s"] == 1.0
    assert metrics["trace.wall_s"] == 8.0


def test_tracer_records_parents_and_restores_the_program():
    from expertgames import agents, harness

    original_plan = agents.OFULinMatAgent.begin_episode
    config = harness.config_from_dict({
        "environment": {"n_rows": 3, "n_cols": 3, "n_experts": 2, "n_episodes": 2,
                        "rounds_per_episode": 5},
        "learners": [{"type": "ofulinmat"}],
        "opponent": {"type": "saddle_oracle"},
        "trials": 2,
    })
    tracer = Tracer()
    with instrumented(tracer):
        trials = [harness.run_trial(config, n) for n in range(config.trials)]
    assert agents.OFULinMatAgent.begin_episode is original_plan
    assert len(trials) == 2

    recorded = tracer.spans()
    names = [span.name for span in recorded]
    # Per OFULinMat episode: its own plan, the oracle opponent, the true game.
    assert names.count("game.solve") == 3 * 2 * 2
    for span in recorded:
        if span.name == "agents.plan":
            assert recorded[span.parent].name == "environment.episode"
        if span.parent is not None:
            parent = recorded[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

