#!/usr/bin/env python3
"""Benchmark of the `expertgames` CLI and library, end to end and per layer.

    python3 bench/run.py --workload paper-serial --seed 0 --seconds 20 --trace 0

--trace 0 measures end to end. It launches `python -m expertgames.cli run` as a
child process, one at a time, with the workload seed as `--seed`. It discards
one warm-up run, then repeats the run until --seconds have passed, validating
every output. It reports medians of wall time, CPU time of the whole process
tree and peak RSS, plus the median set-up time (import and config load) over
several separate child processes.

--trace 1 measures per layer. It runs the workload once untraced and once
traced in this process (serially), wrapping the library's public entry points
from outside, and derives the per-layer metrics from the recorded spans. It
also times the solver on a range of game sizes, and runs the workload serially
and with two workers as child processes for the parallel efficiency.

BLAS threading is left exactly as the caller set it, and recorded.

Human-readable lines come first. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Outputs, span dumps and a full
result record (machine, provenance, every sample) go under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from validate import Validation, validate_run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0  # the seed whose aggregate results are recorded in reference.json
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # every run, including its warm-up and set-up, ends within this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CASE_STUDY = {"paper-serial", "paper-workers2"}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PROBE = (
    "import json, numpy, scipy\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
    "except Exception as exc:\n"
    "    blas = f'unknown ({exc})'\n"
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, 'blas': blas}))\n"
)
SETUP = "import sys\nfrom expertgames.cli import load_config\nload_config(sys.argv[1])\n"


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int


def child_env() -> dict:
    """The caller's environment, BLAS settings untouched, with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, timeout: float, stderr_path: Path) -> Child:
    """Run one child in its own process group and reap it with wait4.

    The rusage of wait4 covers the child and every descendant it reaped:
    ru_utime + ru_stime is the CPU time of the whole tree, and ru_maxrss is
    the peak RSS of its largest single process.
    """
    with stderr_path.open("a") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
    reaped = threading.Event()
    lock = threading.Lock()

    def kill_group():
        with lock:
            if not reaped.is_set():
                os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill_group)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused while the timer may fire.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            reaped.set()
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def run_argv(config_path: Path, out: Path, seed: int, workers: int, trials=None) -> list[str]:
    argv = [sys.executable, "-m", "expertgames.cli", "run", "--config", str(config_path),
            "--out", str(out), "--seed", str(seed), "--workers", str(workers)]
    return argv + (["--trials", str(trials)] if trials is not None else [])


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def machine_record() -> dict:
    try:
        probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                               capture_output=True, text=True, timeout=60)
        versions = json.loads(probe.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        versions = {"probe_error": str(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_VARS},
        "python": platform.python_version(),
        **versions,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_for(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def validate(workload, out: Path, returncode: int, seed: int) -> Validation:
    return validate_run(out, workload.config, returncode,
                        case_study=workload.name in CASE_STUDY,
                        reference=reference_for(workload.name, seed))


def _merge(total: Validation, part: Validation) -> None:
    total.attempted += part.attempted
    total.failed += part.failed
    total.problems += part.problems


def measure(workload, seed: int, seconds: int, work: Path, deadline: float):
    """End-to-end runs of the CLI; returns (metrics, samples, validation)."""
    config_path = work / "config.json"
    out = work / "out"
    stderr = work / "stderr.txt"
    validation = Validation(attempted=0)

    # Warm-up: the workload's command cut to one trial per worker. It pays the
    # cold-start costs (bytecode compilation, page cache) and is discarded.
    warm = run_child(run_argv(config_path, out, seed, workload.workers, trials=workload.workers),
                     deadline - time.perf_counter(), stderr)
    shutil.rmtree(out, ignore_errors=True)
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup = run_child([sys.executable, "-c", SETUP, str(config_path)],
                          deadline - time.perf_counter(), stderr)
        if setup.returncode != 0:
            validation.problems.append(f"set-up child exited with {setup.returncode}")
        setups.append(setup.wall)

    runs: list[Child] = []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        child = run_child(run_argv(config_path, out, seed, workload.workers),
                          deadline - time.perf_counter(), stderr)
        _merge(validation, validate(workload, out, child.returncode, seed))
        runs.append(child)
        now = time.perf_counter()
        if now - start >= seconds or deadline - now < 2 * child.wall + 5:
            break
    shutil.rmtree(out, ignore_errors=True)

    samples = {
        "wall_s": summary(r.wall for r in runs),
        "cpu_s": summary(r.cpu for r in runs),
        "peak_rss_mb": summary(r.rss_mb for r in runs),
        "setup_s": summary(setups),
        "warmup_wall_s": warm.wall,
    }
    metrics = {name: samples[name]["median"] for name, _ in END_TO_END}
    return metrics, samples, validation


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def trace(workload, seed: int, work: Path, deadline: float):
    """One untraced and one traced in-process run; returns (metrics, samples, validation)."""
    sys.path.insert(0, str(SRC))
    from expertgames import agents, game, harness

    config_dict = dict(workload.config, master_seed=seed)
    out = work / "out"
    validation = Validation(attempted=0)
    tracer = spans.Tracer()
    untraced_wall = 0.0
    returncode = 0
    try:
        harness.run_experiment(harness.config_from_dict(dict(config_dict, trials=1)), out)
        shutil.rmtree(out)
        config = harness.config_from_dict(config_dict)
        start = time.perf_counter()
        harness.run_experiment(config, out)
        untraced_wall = time.perf_counter() - start
        shutil.rmtree(out)
        with spans.instrumented(tracer):
            harness.run_experiment(config, out)
    except Exception:
        # A failing program is a result to report, not a crash of the benchmark.
        traceback.print_exc()
        returncode = 1
    _merge(validation, validate(workload, out, returncode, seed))
    recorded = tracer.spans()
    spans.write_spans(work / "spans.jsonl", recorded)
    metrics = spans.layer_metrics(recorded)
    metrics["harness.bytes_written"], metrics["harness.files_written"] = _tree_size(out)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    shutil.rmtree(out, ignore_errors=True)

    metrics.update(spans.solver_scaling(game.solve_saddle_point, seed))
    metrics["agents.exp3.round_us"] = spans.exp3_round_us(agents.Exp3Agent, seed)

    # Parallel efficiency: serial wall / (2 x wall with two pool workers).
    config_path = work / "config.json"
    walls = {}
    for workers in (1, 2):
        child = run_child(run_argv(config_path, out, seed, workers),
                          deadline - time.perf_counter(), work / "stderr.txt")
        _merge(validation, validate(workload, out, child.returncode, seed))
        walls[workers] = child.wall
        shutil.rmtree(out, ignore_errors=True)
    metrics["harness.parallel_efficiency"] = walls[1] / (2 * walls[2])
    samples = {"untraced_wall_s": untraced_wall, "spans": len(recorded),
               "efficiency_walls_s": walls}
    return metrics, samples, validation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "expertgames" / "cli.py").is_file():
        print(f"error: no expertgames sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(workload.config, indent=2) + "\n")

    machine = machine_record()
    commit = git_commit()
    if args.trace:
        metrics, samples, validation = trace(workload, args.seed, work, deadline)
        units = spans.UNITS
    else:
        metrics, samples, validation = measure(workload, args.seed, args.seconds, work, deadline)
        units = dict(END_TO_END)
    metrics = {name: metrics[name] for name in units}
    correct = validation.failed == 0 and not validation.problems

    blas_env = " ".join(f"{k}={v}" for k, v in machine["blas_env"].items())
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"commit {commit}")
    print(f"machine  nproc {machine['nproc']}  blas {machine.get('blas')}  {blas_env}  "
          f"python {machine.get('python')}  numpy {machine.get('numpy')}  "
          f"scipy {machine.get('scipy')}")
    for name, value in metrics.items():
        detail = samples.get(name)
        spread = (f"  q1 {detail['q1']:.4g}  q3 {detail['q3']:.4g}  n={detail['n']}"
                  if isinstance(detail, dict) else "")
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<36} {shown} {units[name]}{spread}")
    if args.trace and metrics["trace.wall_s"] > 0:
        wall = metrics["trace.wall_s"]
        for name in ("game.solve_s", "estimator.absorb_s", "harness.write_s"):
            print(f"  share of traced wall  {name:<22} {metrics[name] / wall:.3f}")
    fail_frac = validation.failed / validation.attempted if validation.attempted else 1.0
    print(f"  {'fail_frac':<36} {fail_frac:>14.6g} ratio  "
          f"({validation.failed} of {validation.attempted} trials)")
    for problem in validation.problems[:20]:
        print(f"  problem: {problem}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit, "machine": machine,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples, "fail_frac": fail_frac, "attempted": validation.attempted,
        "failed": validation.failed, "problems": validation.problems,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"result record: {(work / 'result.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(validation.attempted, 1),
        "failed": validation.failed if validation.attempted else 1,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
