"""Command-line interface: table1, sweep, demo2d, quantize-bench."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (ALGORITHMS, PRESETS, ExperimentConfig, emit_tables,
                          emit_trajectory_demo, quantize_bench, run_sweep)
from .lattices import ConfigurationError
from .moments import _worker_count, format_report_csv, format_report_text, table1_report


def _seed(text: str) -> int:
    if not (text.isdigit() and text.isascii()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common(p):
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=str, default=None, help="output file or directory")


def _write(out: str, path) -> None:
    """Write ``out`` to the file ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(out)
    else:
        sys.stdout.write(out)


def _int_list(text: str) -> tuple:
    return tuple(int(b) for b in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latfold",
        description="Lattice-modulo folding experiments and reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="second-moment comparison table")
    _add_common(p1)
    p1.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p1.add_argument("--samples", type=int, default=10**6)
    p1.add_argument("--workers", type=int, default=None,
                    help="threads that estimate chunks in parallel (default: "
                         "one per usable CPU); the table does not depend on it")

    p2 = sub.add_parser("sweep", help="Monte Carlo recovery-rate sweep")
    _add_common(p2)
    p2.set_defaults(seed=None)          # unset: the base config's master_seed
    p2.add_argument("--format", choices=("csv", "json", "text"), default="text")
    base = p2.add_mutually_exclusive_group()
    base.add_argument("--config", type=str, default=None, help="JSON config file")
    base.add_argument("--preset", choices=PRESETS, default=None, help="default: additive")
    p2.add_argument("--trials", type=int, default=None)
    p2.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p2.add_argument("--order", type=int, default=None, help="difference order for hod")
    p2.add_argument("--dump-config", type=str, default=None,
                    help="write the effective config JSON and exit")
    p2.add_argument("--strict", action="store_true",
                    help="exit nonzero when any cell reports an error")
    p2.add_argument("--workers", type=int, default=None,
                    help="worker processes that run the (OF, level) groups (default: "
                         "one per usable CPU); the tables do not depend on it")

    p3 = sub.add_parser("demo2d", help="square vs hexagon 2D trajectory demo")
    _add_common(p3)
    p3.add_argument("--lam", type=float, default=1.0)
    p3.add_argument("--power-trials", type=int, default=200)
    p3.add_argument("--workers", type=int, default=None,
                    help="worker processes that run the square, the hexagon and the "
                         "power ratio (default: one per usable CPU); the outputs do "
                         "not depend on it")

    p4 = sub.add_parser("quantize-bench", help="matched/mismatched quantizer check")
    _add_common(p4)
    p4.add_argument("--samples", type=int, default=200000)
    p4.add_argument("--bits", type=_int_list, default="2,4,6")

    args = parser.parse_args(argv)
    try:                    # bad input of any command: exit 2, naming it
        if args.command == "table1":
            rows = table1_report(n_samples=args.samples, seed=args.seed,
                                 workers=args.workers)
            if args.format == "json":
                out = json.dumps(rows, indent=2, sort_keys=True) + "\n"
            else:
                out = (format_report_csv if args.format == "csv" else format_report_text)(rows)
            _write(out, args.out)
            return 0

        if args.command == "sweep":
            cfg = (ExperimentConfig.load(args.config) if args.config
                   else PRESETS[args.preset or "additive"]())
            overrides = {"n_trials": args.trials, "algorithm": args.algorithm,
                         "hod_order": args.order, "master_seed": args.seed}
            cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
            workers = _worker_count(args.workers)       # not a config key
            if args.dump_config:
                cfg.save(args.dump_config)
                return 0
            result = run_sweep(cfg, workers)
            _write(emit_tables(result, fmt=args.format), args.out)
            bad = [c for c in result.cells if c.error]
            for c in bad:
                print(f"cell error: OF={c.of:g} {c.level_kind}={c.level} "
                      f"{c.architecture}: {c.error}", file=sys.stderr)
            return 1 if bad and args.strict else 0

        if args.command == "demo2d":
            summary = emit_trajectory_demo(args.out or "demo2d_out", seed=args.seed,
                                           lam=args.lam, power_trials=args.power_trials,
                                           workers=args.workers)
            sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            return 0

        report = quantize_bench(n_samples=args.samples, seed=args.seed, bits=args.bits)
        _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    except ConfigurationError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
