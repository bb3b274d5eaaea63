"""Command-line entry point for running and replaying experiments.

Subcommands:
    run           run an experiment from a JSON config file
    replay        re-run the exact experiment recorded in a manifest
    plot-data     filter a finished run's aggregate mean/stderr tables by series
    paper-default print the built-in case-study configuration as JSON

Exit codes: 0 success, 1 invalid configuration or an output that would
delete or write into its own input, 2 unwritable output or a command line
argparse rejects.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from .config import (
    ConfigError,
    config_to_dict,
    default_paper_config,
    load_config,
    load_manifest_config,
)
from .harness import RUN_OUTPUTS, check_workers, read_plot_tables, run_experiment, write_plot_tables


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
    workers_help = "concurrent trial workers, at most the trial count and the CPUs this process may use"
    run.add_argument("--workers", type=_worker_count, default=1, help=workers_help)

    replay = sub.add_parser("replay", help="re-run the experiment stored in a manifest")
    replay.add_argument("--manifest", required=True, help="path to a manifest.json")
    replay.add_argument("--out", default=None, help="output directory (default: <run>_replay)")
    replay.add_argument("--workers", type=_worker_count, default=1, help=workers_help)

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
        with tempfile.TemporaryFile(dir=out_dir):  # a fresh name: no file there is touched
            pass
    except OSError as exc:
        print(f"error: output directory {out_dir} is not writable: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _overwrites_input(source: Path, role: str, out: Path) -> bool:
    """Whether a run into ``out`` would delete or write into ``source``, the
    command's input that ``role`` names, and if so say why on stderr: ``out``
    is ``source`` or lies inside it, or ``source`` lies in a tree the run replaces."""
    source, target = source.resolve(), out.resolve()
    # Not resolved further: the run removes a link by one of these names, not its target.
    replaced = [target / name for name in RUN_OUTPUTS if source.is_relative_to(target / name)]
    if target == source:
        problem = f"--out {out} is {source}, {role}"
    elif target.is_relative_to(source):
        problem = f"--out {out} lies inside {source}, {role}"
    elif replaced:
        problem = f"{source}, {role}, lies in {replaced[0]}, which a run into --out {out} replaces"
    else:
        return False
    print(f"error: {problem}", file=sys.stderr)
    return True


def _config_errors(exc: ConfigError) -> int:
    for problem in exc.problems:
        print(f"config error: {problem}", file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    overrides = {"master_seed": args.seed, "trials": args.trials}
    try:
        config = dataclasses.replace(
            load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
        )
    except ConfigError as exc:
        return _config_errors(exc)
    out = Path(args.out)
    if _overwrites_input(Path(args.config), "the config file", out):
        return 1
    _check_writable(out)
    manifest = run_experiment(config, out, workers=args.workers)
    print(f"run complete: {config.trials} trial(s) -> {out} ({manifest['elapsed_seconds']:.1f}s)")
    return 0


def _cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        config = load_manifest_config(manifest_path)
    except ConfigError as exc:
        return _config_errors(exc)
    # Resolved, so a manifest named from inside its run directory still has a run name.
    run = manifest_path.resolve().parent
    out = Path(args.out) if args.out else run.with_name(run.name + "_replay")
    if _overwrites_input(run, "the directory of the run being replayed", out):
        return 1
    _check_writable(out)
    run_experiment(config, out, workers=args.workers)
    print(f"replay complete -> {out}")
    return 0


def _cmd_plot_data(args) -> int:
    series = args.series.split(",") if args.series else None
    if series is not None and any(not name for name in series):
        print("error: empty series name in --series", file=sys.stderr)
        return 1
    run = Path(args.run)
    out = Path(args.out) if args.out else run / "plot"
    if out.resolve() == (run / "aggregate").resolve():
        print(f"error: --out {out} is the run's aggregate directory, its input", file=sys.stderr)
        return 1
    try:
        tables = read_plot_tables(run, series)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Checked only after the run is read, so a refused run gets no directory.
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
