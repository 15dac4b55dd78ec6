"""Command-line entry point: run campaigns, validate configs, summarize outputs.

Exit codes are stable:
  0  success
  1  unexpected error
  2  bad usage (argparse: unknown command or option, missing argument)
  3  configuration problem (bad config, unknown method, bad override)
  4  fixture problem (missing or malformed data file)
  5  `validate` found violations
  6  numerical failure (factorization or solver breakdown)
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from .campaign import (
    CampaignConfig,
    registered_method_names,
    run_campaign,
    validate_campaign,
    write_acquisition_files,
    write_aggregate_csv,
    write_hyperparameter_files,
    write_rounds_csv,
)
from .exceptions import ConfigError, FixtureError, NumericalError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2  # raised by argparse itself, as SystemExit
EXIT_CONFIG = 3
EXIT_FIXTURE = 4
EXIT_VIOLATIONS = 5
EXIT_NUMERICAL = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abbo",
        description="Batch Bayesian optimization campaigns over protein variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a campaign and write its logs")
    run_p.add_argument("--config", required=True, help="campaign YAML config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    run_p.add_argument(
        "--method",
        default=None,
        help="override the surrogate method (see `abbo validate --help`)",
    )
    run_p.add_argument("--rounds", type=int, default=None, help="override the round count")
    run_p.add_argument("--verbose", action="store_true", help="print per-round progress")

    val_p = sub.add_parser("validate", help="check a config and its fixtures")
    val_p.add_argument("--config", required=True, help="campaign YAML config")
    val_p.add_argument("--verbose", action="store_true", help="list the known methods too")

    rep_p = sub.add_parser("report", help="summarize finished run directories")
    rep_p.add_argument(
        "--out",
        required=True,
        help="directory containing one or more rounds.csv files (searched recursively)",
    )
    rep_p.add_argument("--verbose", action="store_true", help="print the full table")
    return parser


def _apply_overrides(config: CampaignConfig, args: argparse.Namespace) -> CampaignConfig:
    import dataclasses

    if args.seed is not None:
        config = dataclasses.replace(config, seed=int(args.seed))
    if args.method is not None:
        config = dataclasses.replace(config, method=args.method)
    if args.rounds is not None:
        if args.rounds < 1:
            raise ConfigError(f"--rounds must be >= 1, got {args.rounds}")
        config = dataclasses.replace(
            config, protocol=dataclasses.replace(config.protocol, rounds=args.rounds)
        )
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(CampaignConfig.from_yaml(args.config), args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_campaign(
        config,
        verbose=args.verbose,
        front_dump_dir=out_dir / "fronts" if config.dump_fronts else None,
    )
    write_rounds_csv(out_dir / "rounds.csv", result)
    write_aggregate_csv(out_dir / "aggregate.csv", result)
    write_hyperparameter_files(out_dir, result)
    write_acquisition_files(out_dir, result)
    final = result.logs[0].records[-1]
    print(
        f"{config.method}: {config.protocol.repeats} repeat(s), "
        f"{config.protocol.rounds} round(s), final dataset {final.n_data}, "
        f"outputs in {out_dir}"
    )
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    # config-level contradictions are part of the violation report here, not
    # a hard failure like they are under `run`
    try:
        config = CampaignConfig.from_yaml(args.config)
    except ConfigError as err:
        print("1 problem(s) found:")
        print(f"  - {err}")
        return EXIT_VIOLATIONS
    problems = validate_campaign(config)
    if args.verbose:
        print("known methods:")
        for name in registered_method_names():
            print(f"  {name}")
    if problems:
        print(f"{len(problems)} problem(s) found:")
        for item in problems:
            print(f"  - {item}")
        return EXIT_VIOLATIONS
    print(f"config ok: method {config.method}, "
          f"{config.protocol.rounds} rounds x {config.protocol.repeats} repeats")
    return EXIT_OK


def _read_rounds_file(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.out)
    if not root.exists():
        raise FixtureError(f"output directory {root} does not exist")
    files = sorted(root.rglob("rounds.csv"))
    if not files:
        raise FixtureError(f"no rounds.csv found under {root}")

    best: dict[tuple[str, int], list[float]] = defaultdict(list)
    rmsd: dict[tuple[str, int], list[float]] = defaultdict(list)
    for path in files:
        for row in _read_rounds_file(path):
            try:
                key = (row["method"], int(row["round"]))
                best[key].append(float(row["best_so_far"]))
                if row.get("batch_rmsd_mean"):
                    rmsd[key].append(float(row["batch_rmsd_mean"]))
            except (KeyError, ValueError) as err:
                raise FixtureError(f"corrupt rounds file {path}: {err}") from None

    def summarize(table: dict[tuple[str, int], list[float]]) -> list[list]:
        rows = []
        for (method, rnd) in sorted(table):
            values = np.array(table[(method, rnd)])
            se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            rows.append([method, rnd, values.size, float(values.mean()), se])
        return rows

    best_rows = summarize(best)
    rmsd_rows = summarize(rmsd)
    for name, rows, value_name in (
        ("summary_best.csv", best_rows, "best_so_far"),
        ("summary_rmsd.csv", rmsd_rows, "batch_rmsd"),
    ):
        if not rows:
            continue
        with (root / name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "round", "n", f"{value_name}_mean", f"{value_name}_se"])
            for row in rows:
                writer.writerow([row[0], row[1], row[2], f"{row[3]:.10g}", f"{row[4]:.10g}"])

    print(f"summarized {len(files)} run(s) into {root / 'summary_best.csv'}")
    if args.verbose:
        print(f"{'method':24s} {'round':>5s} {'n':>3s} {'best mean':>12s} {'se':>10s}")
        for method, rnd, n, mean, se in best_rows:
            print(f"{method:24s} {rnd:5d} {n:3d} {mean:12.5f} {se:10.5f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except FixtureError as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return EXIT_FIXTURE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as err:  # pragma: no cover - last-resort guard
        print(f"unexpected error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
