"""Outside-in tracing of the library's layers, and the per-layer metrics.

The traced run wraps public functions and methods where their callers look
them up (module globals for imported names, class attributes for methods), so
the program itself is unchanged. Each call becomes a span (name, start, end,
parent, tag) kept in memory; spans are written out when the run ends.

Span names are ``<module>.<what>`` and are the names in-program phase timers
should reuse, so the two sources can be compared.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Per-layer metrics, in the order they are reported, with their units.
PER_LAYER = (
    ("game.solve_calls", "count"),
    ("game.solve_ms", "ms"),
    ("game.solve_s", "s"),
    ("game.solve_ms.n10", "ms"),
    ("game.solve_ms.n30", "ms"),
    ("game.solve_ms.n60", "ms"),
    ("game.solve_ms.n100", "ms"),
    ("estimator.absorb_calls", "count"),
    ("estimator.absorb_us", "us"),
    ("estimator.absorb_s", "s"),
    ("agents.plan_calls", "count"),
    ("agents.plan_self_ms", "ms"),
    ("agents.update_self_ms", "ms"),
    ("agents.opponent_plan_ms", "ms"),
    ("agents.exp3.round_us", "us"),
    ("environment.init_ms", "ms"),
    ("environment.episode_self_ms", "ms"),
    ("environment.rounds", "count"),
    ("environment.rounds_per_s", "1/s"),
    ("environment.rounds_per_s.ofulinmat", "1/s"),
    ("metrics.report_calls", "count"),
    ("metrics.report_ms", "ms"),
    ("harness.trial_s", "s"),
    ("harness.write_s", "s"),
    ("harness.aggregate_ms", "ms"),
    ("harness.bytes_written", "bytes"),
    ("harness.files_written", "count"),
    ("harness.parallel_efficiency", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(PER_LAYER)
SOLVER_SIZES = (10, 30, 60, 100)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested call spans of one thread in memory."""

    def __init__(self):
        # (id, name, start, end, parent, tag) tuples, appended as spans close.
        # Tuples of atomic values are untracked by the cyclic garbage
        # collector, so a long trace does not slow down the traced program.
        self._closed: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, tag=None):
        """Return ``fn`` recording a span per call; ``tag(args)`` annotates it."""
        closed, stack, ids, clock = self._closed, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            label = tag(args) if tag else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                closed.append((span_id, name, start, end, parent, label))

        return traced

    def spans(self) -> list[Span]:
        """Spans in call order; a span's parent is its index in this list."""
        return [Span(*record[1:]) for record in sorted(self._closed)]


def _targets():
    """(owner, attribute, span name, tag) for every wrapped entry point."""
    from expertgames import agents, environment, estimator, harness

    def episode_tag(args):
        env, learner = args[0], args[1]
        return {"learner": type(learner).__name__, "rounds": env.config.rounds_per_episode}

    targets = [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "run_trial", "harness.trial", None),
        (harness, "aggregate_series", "harness.aggregate", None),
        (harness, "build_report", "metrics.report", None),
        (environment, "solve_saddle_point", "game.solve", None),
        (agents, "solve_saddle_point", "game.solve", None),
        (environment.Environment, "__init__", "environment.init", None),
        (environment.Environment, "run_episode", "environment.episode", episode_tag),
        (agents.OFULinMatAgent, "begin_episode", "agents.plan", None),
        (agents.OFULinMatAgent, "end_episode", "agents.update", None),
        (agents.Exp3Agent, "act", "agents.exp3.act", None),
        (agents.Exp3Agent, "observe", "agents.exp3.observe", None),
        (estimator.RidgeEstimator, "absorb_batch", "estimator.absorb", lambda args: len(args[1])),
    ]
    for opponent in (
        agents.SaddleOracleOpponent,
        agents.UniformOpponent,
        agents.FixedOpponent,
        agents.BestResponderOpponent,
    ):
        targets.append((opponent, "begin_episode", "agents.opponent_plan", None))
    return targets


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    restore = []
    try:
        for owner, attr, name, tag in _targets():
            original = vars(owner).get(attr)  # None when the attribute is inherited
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), tag))
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            record = {"id": index, "name": span.name, "start": span.start, "end": span.end,
                      "parent": span.parent, "tag": span.tag}
            handle.write(json.dumps(record) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the ones measured elsewhere)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, ())]

    def self_of(name):
        return [selfs[i] for i in by_name.get(name, ())]

    solves = durations("game.solve")
    absorbed = sum(spans[i].tag for i in by_name.get("estimator.absorb", ()))
    rounds = busy = ofu_rounds = ofu_busy = 0
    for i in by_name.get("environment.episode", ()):
        span = spans[i]
        rounds += span.tag["rounds"]
        busy += span.duration
        if span.tag["learner"] == "OFULinMatAgent":
            ofu_rounds += span.tag["rounds"]
            ofu_busy += span.duration

    return {
        "game.solve_calls": len(solves),
        "game.solve_ms": 1e3 * _median(solves),
        "game.solve_s": sum(self_of("game.solve")),
        "estimator.absorb_calls": absorbed,
        "estimator.absorb_us": 1e6 * sum(durations("estimator.absorb")) / absorbed if absorbed else 0.0,
        "estimator.absorb_s": sum(self_of("estimator.absorb")),
        "agents.plan_calls": len(by_name.get("agents.plan", ())),
        "agents.plan_self_ms": 1e3 * _median(self_of("agents.plan")),
        "agents.update_self_ms": 1e3 * _median(self_of("agents.update")),
        "agents.opponent_plan_ms": 1e3 * _median(durations("agents.opponent_plan")),
        "environment.init_ms": 1e3 * _median(durations("environment.init")),
        "environment.episode_self_ms": 1e3 * _median(self_of("environment.episode")),
        "environment.rounds": rounds,
        "environment.rounds_per_s": rounds / busy if busy else 0.0,
        "environment.rounds_per_s.ofulinmat": ofu_rounds / ofu_busy if ofu_busy else 0.0,
        "metrics.report_calls": len(by_name.get("metrics.report", ())),
        "metrics.report_ms": 1e3 * _median(durations("metrics.report")),
        "harness.trial_s": sum(durations("harness.trial")),
        "harness.write_s": sum(self_of("harness.run_experiment")),
        "harness.aggregate_ms": 1e3 * sum(durations("harness.aggregate")),
        "trace.wall_s": sum(durations("harness.run_experiment")),
    }


def solver_scaling(solve, seed: int, min_seconds: float = 0.25, min_solves: int = 5):
    """Median milliseconds per saddle solve of seeded U[0,1] n-by-n games."""
    # numpy is imported here, not at module level: the end-to-end run imports
    # this module, and its own process should never load numpy or start BLAS threads.
    import numpy as np

    result = {}
    for n in SOLVER_SIZES:
        rng = np.random.default_rng([seed, n])
        games = rng.uniform(0.0, 1.0, size=(min_solves, n, n))
        times = []
        start = time.perf_counter()
        while len(times) < min_solves or time.perf_counter() - start < min_seconds:
            game = games[len(times) % min_solves]
            t0 = time.perf_counter()
            solve(game)
            times.append(time.perf_counter() - t0)
        result[f"game.solve_ms.n{n}"] = 1e3 * statistics.median(times)
    return result


def exp3_round_us(exp3_agent, seed: int, n_actions: int = 10, rounds: int = 200,
                  min_seconds: float = 0.25, min_episodes: int = 20) -> float:
    """Median microseconds per Exp3 round (act + observe) over seeded episodes.

    A micro-run at the paper's size (10 actions, 200-round episodes), so the
    number exists on every workload, including those without an Exp3 learner.
    """
    import numpy as np

    rng = np.random.default_rng([seed, n_actions])
    agent = exp3_agent(n_actions, seed=rng, reward_min=-1.0, reward_max=1.0)
    rewards = rng.uniform(-1.0, 1.0, size=rounds).tolist()
    per_round = []
    start = time.perf_counter()
    while len(per_round) < min_episodes or time.perf_counter() - start < min_seconds:
        agent.begin_episode()
        t0 = time.perf_counter()
        for t, reward in enumerate(rewards, 1):
            agent.observe(agent.act(t), 0, reward)
        per_round.append((time.perf_counter() - t0) / rounds)
    return 1e6 * statistics.median(per_round)
