"""Command line front end.

Subcommands: ``run`` executes a Monte-Carlo campaign and writes CSV,
``analyze`` prints the closed-form two-UE table per sparsity level, and
``validate`` runs the seeded self-checks.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from .closed_form import analyze_two_ue
from .harness import ALGORITHMS, Campaign, emit_csv, run_campaign, watt_to_dbm
from .scenario import ScenarioError, default_scenario, load_scenario, \
    scenario_geometry
from .validation import run_checks


# Most points a --sweep may ask for (each one solves every trial again)
_MAX_SWEEP_POINTS = 10_000


def parse_sweep(text: str) -> tuple[float, ...]:
    """Parse ``ptot_dbm=start:stop:step`` into the swept dBm values
    (inclusive of the stop point up to rounding), at most
    ``_MAX_SWEEP_POINTS`` of them."""
    name, _, rng = text.partition("=")
    if name != "ptot_dbm" or not rng:
        raise ValueError(f"sweep must look like ptot_dbm=a:b:step, got {text!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep range must be a:b:step, got {rng!r}")
    start, stop, step = (float(p) for p in parts)
    for label, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"sweep {label} must be finite, got {value}")
    if step <= 0.0:
        raise ValueError(f"sweep step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"sweep stop {stop} is below start {start}")
    steps = (stop - start) / step
    if not steps < _MAX_SWEEP_POINTS:
        raise ValueError(f"sweep {rng!r} spans {steps:.3g} steps, more than "
                         f"the {_MAX_SWEEP_POINTS} points allowed")
    count = int(np.floor(steps + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _load(path: str | None):
    return load_scenario(path) if path else default_scenario()


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1 (1 runs in-process), "
                         f"got {args.jobs}")
    scenario = _load(args.scenario)
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    sweep = parse_sweep(args.sweep) if args.sweep else ()
    campaign = Campaign(scenario=scenario, algorithms=algorithms,
                        n_trials=args.trials, seed=args.seed, sweep_dbm=sweep)
    # opened before the run, so a bad path fails before any trial runs
    with (nullcontext(sys.stdout) if args.output == "-" else
          open(args.output, "w", encoding="utf-8", newline="")) as fh:
        rows = run_campaign(campaign, jobs=args.jobs)
        emit_csv(rows, fh)
    failed = [r for r in rows if r.status.startswith("failed:")]
    if failed:
        print(f"{len(failed)} of {len(rows)} rows failed", file=sys.stderr)
        for algorithm, message in dict.fromkeys((r.algorithm, r.message)
                                                for r in failed):
            print(f"  {algorithm}: {message}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    scenario = _load(args.scenario)
    config = scenario.config
    if config.n_ues != 2:
        config = replace(config, n_ues=2)
        scenario = replace(scenario, config=config, ue_pos=None)
    rng = np.random.default_rng(args.seed)
    geometry = scenario_geometry(scenario, rng)
    table = analyze_two_ue(geometry, config)
    print(f"power {watt_to_dbm(config.total_power):.6g} dBm, "
          f"separation {geometry.u_ru_aod[1] - geometry.u_ru_aod[0]:.6g}")
    print(f"{'eta':>4} {'eps':>14} {'eps_bar':>14} {'sum_rate_bits':>14}")
    for row in table:
        print(f"{row['eta']:>4} {row['eps']:>14.6e} "
              f"{row['eps_bar']:>14.6e} {row['sum_rate_bits']:>14.6f}")
    return 0


def _cmd_validate(args) -> int:
    results = run_checks(args.seed)
    ok = True
    for res in results:
        tag = "ok" if res.passed else "FAIL"
        print(f"[{tag:>4}] {res.name}: {res.detail}")
        ok = ok and res.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdars",
        description="Joint sparsity and beamforming design toolkit for "
                    "reconfigurable surfaces with wired active elements.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo campaign, emit CSV")
    run.add_argument("--scenario", help="scenario file (default: built-in)")
    run.add_argument("--algorithms", default="WA_OPT_ETA,COMPACT_ETA1,RANDOM_ETA",
                     help=f"comma list from {','.join(ALGORITHMS)}")
    run.add_argument("--trials", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sweep", help="ptot_dbm=start:stop:step")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes, one trial per task, at most "
                          "one per trial (1 = in-process)")
    run.add_argument("--output", default="-", help="CSV path, - for stdout")
    run.set_defaults(func=_cmd_run)

    analyze = sub.add_parser(
        "analyze", help="closed-form two-UE table per sparsity level "
                        "(the UE count is forced to two)")
    analyze.add_argument("--scenario", help="scenario file (default: built-in)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(func=_cmd_analyze)

    validate = sub.add_parser("validate", help="run the seeded self-checks")
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
