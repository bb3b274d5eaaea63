"""Command-line entry point for running and replaying experiments.

Subcommands:
    run           run an experiment from a JSON config file
    replay        re-run the exact experiment recorded in a manifest
    plot-data     filter a finished run's aggregate mean/stderr tables by series
    paper-default print the built-in case-study configuration as JSON

Exit codes: 0 success, 1 invalid configuration, 2 unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    check_workers,
    config_to_dict,
    default_paper_config,
    load_config,
    read_plot_tables,
    replay_manifest,
    run_experiment,
    write_plot_tables,
)


def _worker_count(text: str) -> int:
    """``--workers`` type: a count ``run_experiment`` rejects exits 1 while parsing,
    before any output exists."""
    workers = int(text)  # argparse reports a non-integer itself
    try:
        return check_workers(workers)
    except ValueError as exc:
        print(f"error: --workers: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertgames",
        description="Simulate episodic zero-sum games learned from expert ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--out", default="runs/latest", help="output directory")
    run.add_argument("--workers", type=_worker_count, default=1, help="concurrent trial workers")

    replay = sub.add_parser("replay", help="re-run the experiment stored in a manifest")
    replay.add_argument("--manifest", required=True, help="path to a manifest.json")
    replay.add_argument("--out", default=None, help="output directory (default: <run>_replay)")
    replay.add_argument("--workers", type=_worker_count, default=1)

    plot = sub.add_parser(
        "plot-data", help="filter a finished run's aggregate tables into plot-ready tables"
    )
    plot.add_argument("--run", required=True, help="directory of a finished run")
    plot.add_argument("--out", default=None, help="output directory (default: <run>/plot)")
    plot.add_argument(
        "--series",
        default=None,
        help="comma-separated series names to include (default: all)",
    )

    sub.add_parser("paper-default", help="print the case-study default config")
    return parser


def _check_writable(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory {out_dir} is not writable: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_run(args) -> int:
    try:
        overrides = {"master_seed": args.seed, "trials": args.trials}
        config = dataclasses.replace(
            load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
        )
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    _check_writable(out)
    manifest = run_experiment(config, out, workers=args.workers)
    print(f"run complete: {config.trials} trial(s) -> {out} ({manifest.elapsed_seconds:.1f}s)")
    return 0


def _cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        print(f"error: manifest not found: {manifest_path}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else manifest_path.parent.with_name(
        manifest_path.parent.name + "_replay"
    )
    _check_writable(out)
    try:
        replay_manifest(manifest_path, out, workers=args.workers)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    print(f"replay complete -> {out}")
    return 0


def _cmd_plot_data(args) -> int:
    series = args.series.split(",") if args.series else None
    if series is not None and any(not name for name in series):
        print("error: empty series name in --series", file=sys.stderr)
        return 1
    try:
        tables = read_plot_tables(args.run, series)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    # Checked only after the run is read, so a refused run gets no directory.
    out = Path(args.out) if args.out else Path(args.run) / "plot"
    _check_writable(out)
    for path in write_plot_tables(tables, out):
        print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "plot-data":
        return _cmd_plot_data(args)
    if args.command == "paper-default":
        print(json.dumps(config_to_dict(default_paper_config()), indent=2, sort_keys=True))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
