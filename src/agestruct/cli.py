"""Command-line interface for simulation, limits, fluctuations and verification.

Subcommands mirror the verification surfaces: ``simulate``, ``limit``,
``fluctuate``, ``qv``, ``lln``, ``clt``, ``converge`` run one study from a
JSON config and write a result directory; ``validate`` runs the full
acceptance suite.  Exit code is 0 iff every verdict passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .acceptance import PREREGISTERED_SEED, AcceptanceSuite
from .branching import CapacityError
from .harness import (ExperimentConfig, emit, run_clt, run_convergence,
                      run_fluctuate, run_limit, run_lln, run_qv_check,
                      run_simulate)
from .rates import ModelError


def _add_common(p: argparse.ArgumentParser, flags: set):
    """Add the config/output/seed options plus the optional ``flags`` a study reads."""
    p.add_argument("--config", type=Path, required=True,
                   help="experiment JSON config")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    if "workers" in flags:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for replicates")
    if "emit_events" in flags:
        p.add_argument("--emit-events", action="store_true",
                       help="write per-replicate event logs")
    if "emit_fields" in flags:
        p.add_argument("--emit-fields", action="store_true",
                       help="write solver/fluctuation field CSVs")


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    for flag in ("emit_events", "emit_fields"):
        if getattr(args, flag, False):
            overrides[flag] = True
    # replace() re-runs the config checks on the overridden values
    return dataclasses.replace(ExperimentConfig.from_json(args.config), **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agestruct",
        description="age-structured branching simulation and limit verification")
    sub = parser.add_subparsers(dest="command", required=True)
    runs = {   # subcommand: (help, the optional flags its study reads, the study)
        "simulate": ("simulate finite-population replicates",
                     {"workers", "emit_events", "emit_fields"},
                     lambda config, out: run_simulate(config, outdir=out)),
        "limit": ("solve the deterministic limit", {"emit_fields"}, lambda config, out:
                  run_limit(config, outdir=out if config.emit_fields else None)),
        "fluctuate": ("simulate fluctuation-field paths", {"emit_fields"},
                      lambda config, out: run_fluctuate(config, outdir=out)),
        "qv": ("martingale quadratic-variation checks", {"workers"},
               lambda config, _: run_qv_check(config)),
        "lln": ("law-of-large-numbers checks", {"workers"}, lambda config, _: run_lln(config)),
        "clt": ("fluctuation mean/variance/Gaussianity checks", {"workers"},
                lambda config, _: run_clt(config)),
        "converge": ("solver refinement studies", set(),
                     lambda config, _: run_convergence(config)),
    }
    for name, (help_text, flags, _) in runs.items():
        _add_common(sub.add_parser(name, help=help_text), flags)
    v = sub.add_parser("validate", help="run the full acceptance suite")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    # a value the config or the suite rejects is a bad flag too: exit 2, one line
    try:
        if args.command == "validate":
            suite = AcceptanceSuite(seed=PREREGISTERED_SEED if args.seed is None else args.seed,
                                    workers=args.workers)
        else:
            config = _load_config(args)
    except OSError as err:
        parser.error(f"--config {args.config}: {err.strerror}")
    except ValueError as err:
        parser.error(str(err))

    if args.command == "validate":
        results = suite.run_all()
        for res in results:
            print(res.line())
            for d in res.details:
                print(f"    {d}")
        ok = all(r.passed for r in results)
        print("acceptance suite:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    outdir = args.out if args.out is not None else Path(config.outdir or f"out_{args.command}")
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:      # a bound passed, or a start or grid the study cannot take: one line, as a bad value
        report = runs[args.command][2](config, outdir)
    except (ModelError, CapacityError, ValueError) as err:
        parser.error(f"{args.command} --config {args.config}: {err}")
    emit(report, outdir, config=config, wall_clock_s=time.perf_counter() - t0)
    n_fail = sum(not r.passed for r in report.rows)
    print(f"{args.command}: {len(report.rows)} checks, {n_fail} failed -> {outdir}")
    for note in report.notes:
        print("note:", note)
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
