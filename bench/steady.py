#!/usr/bin/env python3
"""Steadiness report: run every workload N times and summarise each metric.

    python3 bench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Each run is `bench/run.py --trace 0` with its own seed (first-seed, first-seed+1,
...) and the run length from BENCHMARK.json. Per workload and end-to-end metric
it prints the median, the quartiles, and the spread (q3 - q1) / median next to
the metric's bound; the benchmark is steady when every spread is below a third
of its bound. It then makes one traced run per workload (`--trace 1`, first
seed) and prints every per-layer metric by name and unit, so one command shows
every metric. fail_frac is reported over all runs. Raw results are saved to
.bench_out/steady-seed<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: every workload)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    raw = {}
    for workload in workloads:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"], trace=0))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        raw[workload] = {"runs": results}

    print(f"\nend-to-end, {args.runs} runs per workload, seeds {seeds.start}..{seeds.stop - 1}")
    print(f"{'workload':<16}{'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}{'spread/bound':>14}")
    for workload in workloads:
        results = raw[workload]["runs"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            print(f"{workload:<16}{metric['name']:<13}{median:>11.5g}{q1:>11.5g}{q3:>11.5g}"
                  f"{spread:>9.3f}{metric['bound']:>7.2f}{spread / metric['bound']:>14.2f}"
                  f"  {metric['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:<16}{'fail_frac':<13}{failed / attempted:>11.4g}"
              f"  ({failed} of {attempted} trials, correct in "
              f"{sum(r['correct'] for r in results)} of {len(results)} runs)")

    print(f"\nper-layer, one traced run per workload, seed {seeds.start}")
    for workload in workloads:
        traced = run_once(workload, seeds.start, spec["run_seconds"], trace=1)
        raw[workload]["traced"] = traced
        print(f"{workload}  (fail_frac {traced['failed'] / traced['attempted']:.4g})")
        for name, metric in traced["metrics"].items():
            print(f"  {name:<38}{metric['value']:>16.6g} {metric['unit']}")

    out = ROOT / ".bench_out" / f"steady-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
