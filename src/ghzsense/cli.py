"""Command-line entry point.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ScenarioConfig, load_config
from .errors import NumericalError, ValidationError
from .estimation import fit_fringe, infer_multiplier
from .harness import (
    FIGURES,
    read_columns,
    reproduce,
    run_estimation,
    run_fisher,
    run_sweep,
    write_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Config-driven commands and the harness run each one reports.
_RUNS = {"simulate": run_sweep, "fisher": run_fisher, "estimate": run_estimation}


def build_parser() -> argparse.ArgumentParser:
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--seed", type=int, help="override config seed")
    report.add_argument(
        "--out-dir", help="output directory (default: config's out_dir, else '.')"
    )
    report.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    plotted = argparse.ArgumentParser(add_help=False, parents=[report])
    plotted.add_argument("--svg", action="store_true", help="also write SVG plots")

    parser = argparse.ArgumentParser(
        prog="ghzsense",
        description="Simulate and analyze GHZ-probe distributed phase sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep_config = "scenario JSON file with a 'sweep' block"
    sub.add_parser(
        "simulate", parents=[plotted], help="run a sweep scenario from a config file"
    ).add_argument("config", help=sweep_config)
    p_fish = sub.add_parser(
        "fisher", parents=[report], help="exact Fisher-information sweep (no sampling)"
    )
    p_fish.add_argument("config", help=sweep_config)
    p_fish.set_defaults(svg=False)
    sub.add_parser(
        "estimate", parents=[plotted], help="grouped MLE runs from a config file"
    ).add_argument("config", help="scenario JSON file with 'theta_true'")
    sub.add_parser(
        "reproduce", parents=[plotted], help="run a bundled figure preset"
    ).add_argument("figure", choices=FIGURES)

    p_fit = sub.add_parser("fit", help="fit fringe visibilities from a sweep CSV")
    p_fit.add_argument("csv", help="CSV produced by 'simulate' or 'reproduce'")
    p_fit.add_argument(
        "--multiplier",
        type=float,
        help="fringe multiplier; inferred from integers 1..32 when omitted",
    )
    return parser


def _cmd_run(args) -> list:
    config = load_config(args.config)
    if args.seed is not None:
        config = ScenarioConfig.from_dict({**config.to_dict(), "seed": args.seed})
    report = _RUNS[args.command](config)
    out_dir = args.out_dir if args.out_dir is not None else config.out_dir or "."
    return write_report(report, out_dir, fmt=args.format, svg=args.svg)


def _cmd_reproduce(args) -> list:
    out_dir = args.out_dir or "."
    return reproduce(args.figure, out_dir, args.seed, args.format, args.svg)[1]


def _cmd_fit(args) -> list:
    data = read_columns(args.csv)
    needed = ("theta_hat", "p_plus_sampled", "p_minus_sampled")
    if not set(needed) <= data.keys():
        raise ValidationError(
            f"{args.csv}: need columns {sorted(needed)} from the sweep CSV contract"
        )
    theta, p_plus, p_minus = (data[name] for name in needed)
    multiplier = args.multiplier
    if multiplier is None:
        multiplier = float(infer_multiplier(theta, p_plus, p_minus))
    fit = fit_fringe(theta, p_plus, p_minus, multiplier)
    result = {"multiplier": multiplier, **fit.to_dict()}
    print(json.dumps(result, indent=2, sort_keys=True))
    return []


_COMMANDS = {
    **dict.fromkeys(_RUNS, _cmd_run),
    "reproduce": _cmd_reproduce,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in _COMMANDS[args.command](args):
            print(path)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
