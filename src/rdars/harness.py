"""Monte-Carlo campaign harness.

Runs the competing design procedures over seeded UE drops and emits one
CSV row per (trial, sweep value, algorithm). Determinism contract: trial
t always uses the generator seeded with seed XOR t, and every trial draws
in a fixed order (all UE radii, all UE angles, then the sparsity level
for ``RANDOM_ETA``), so UE positions agree across algorithms and sweep
values and reruns are byte-identical apart from wall times.

A campaign's unit of work is the drop, one (sweep value, trial) pair: its
geometry, channels and random sparsity pick are made once, and the
alternating optimization runs at most once per sparsity level, shared by
every algorithm that needs that level (``WA_OPT_ETA`` solves every level
not solved yet in one lockstep ``ao_solve_levels`` call and hands the
memo to ``sparsity_search``, ``COMPACT_ETA1`` takes level 1,
``RANDOM_ETA`` the pick). A level whose solve raised keeps its exception,
which every row needing that level reports. Rows are the same as when
each trial runs alone; only ``wall_ms`` differs, because a shared piece
of work is charged to the first row that needs it and later rows reuse it.

Row status is ``ok``; ``unconverged`` for a solver row whose alternating
optimization stopped at its iteration cap (the row keeps that solve's last
iterate); or ``failed:<ExceptionName>`` with NaN rates, in which case the
row's ``message`` (not a CSV column) keeps the exception text.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ChannelSet, feasible_sparsities, los_channels, make_mode
from .closed_form import _midpoint_rates, select_two_ue_eta, single_ue_solution
from .scenario import Geometry, Scenario, scenario_geometry
from .wmmse import AoResult, ao_solve_levels, sparsity_search

CSV_FIELDS = ("trial", "sweep_value", "algorithm", "eta", "sum_rate_bits",
              "min_ue_rate", "iters", "wall_ms", "status")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def watt_to_dbm(watt: float) -> float:
    if watt <= 0.0:
        raise ValueError(f"power must be positive, got {watt}")
    return 10.0 * math.log10(watt * 1000.0)


@dataclass(frozen=True)
class Campaign:
    """A batch of seeded trials over a set of algorithms and, optionally,
    a sweep of total transmit powers (in dBm)."""

    scenario: Scenario
    algorithms: tuple[str, ...]
    n_trials: int
    seed: int
    sweep_dbm: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be positive, got {self.n_trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; "
                             f"choose from {ALGORITHMS}")
        for v in self.sweep_dbm:
            if not math.isfinite(v):
                raise ValueError(f"sweep value {v} is not finite")

    def sweep_points(self) -> tuple[float, ...]:
        if self.sweep_dbm:
            return self.sweep_dbm
        return (watt_to_dbm(self.scenario.config.total_power),)


@dataclass(frozen=True)
class TrialRow:
    """One CSV row, plus ``message``: the exception text of a failed row
    (empty otherwise), which the CSV leaves out."""

    trial: int
    sweep_value: float
    algorithm: str
    eta: int
    sum_rate_bits: float
    min_ue_rate: float
    iters: int
    wall_ms: float
    status: str
    message: str = ""


class _Drop:
    """One seeded UE drop at one transmit power, shared by the algorithms
    of a campaign. The geometry (with the random sparsity pick drawn right
    after it), the channels and one solve per sparsity level are each made
    on first use and kept."""

    def __init__(self, campaign: Campaign, trial: int, sweep_dbm: float):
        self.config = replace(campaign.scenario.config,
                              total_power=dbm_to_watt(sweep_dbm))
        self._scenario = replace(campaign.scenario, config=self.config)
        self._seed = campaign.seed ^ trial
        self._geometry: Geometry | None = None
        self._channels: ChannelSet | None = None
        self._solved: dict[int, AoResult | Exception] = {}
        self.random_eta = 0

    def geometry(self) -> Geometry:
        if self._geometry is None:
            rng = np.random.default_rng(self._seed)
            geometry = scenario_geometry(self._scenario, rng)
            fset = feasible_sparsities(self.config.n_elems,
                                       self.config.n_connected)
            self.random_eta = fset[int(rng.integers(len(fset)))]
            self._geometry = geometry
        return self._geometry

    def channels(self) -> ChannelSet:
        if self._channels is None:
            self._channels = los_channels(self.geometry(), self.config)
        return self._channels

    def solve_levels(self, levels) -> None:
        """Solve the given sparsity levels not solved yet, all in one
        lockstep ``ao_solve_levels`` call, and memoize each outcome: the
        result, or the exception that ended that level."""
        missing = [eta for eta in levels if eta not in self._solved]
        if missing:
            config = self.config
            modes = [make_mode(config.n_elems, config.n_connected, eta)
                     for eta in missing]
            self._solved.update(zip(missing, ao_solve_levels(
                self.channels(), modes, config)))

    def solve_at(self, eta: int) -> AoResult:
        """``ao_solve`` on this drop's channels at one sparsity level,
        memoized per level; a level that failed raises its exception
        again, without another solve."""
        result = self._solved.get(eta)
        if result is None:
            self.solve_levels((eta,))
            result = self._solved[eta]
        if isinstance(result, Exception):
            raise result
        return result


def _solver_row(result: AoResult) -> tuple:
    """Row fields (eta, sum rate, min UE rate, iterations, status) of a
    solver result."""
    report = result.report
    status = "ok" if report.converged else "unconverged"
    return (result.mode.eta, report.sum_rate, float(np.min(report.rate)),
            report.iterations, status)


def _wa_opt_eta(drop: _Drop) -> tuple:
    """Row fields of the scan: every level of the drop is solved in one
    lockstep call, then ``sparsity_search`` reads the memo."""
    drop.solve_levels(feasible_sparsities(drop.config.n_elems,
                                          drop.config.n_connected))
    return _solver_row(sparsity_search(drop.solve_at, drop.config)[0])


def _single_ue_closed(drop: _Drop) -> tuple:
    config = drop.config
    mode = make_mode(config.n_elems, config.n_connected, 1)
    sol = single_ue_solution(drop.geometry(), config, mode)
    rate = math.log2(1.0 + sol.snr_max)
    return mode.eta, rate, rate, 0, "ok"


def _two_ue_prop1(drop: _Drop) -> tuple:
    eta, _ = select_two_ue_eta(drop.geometry(), drop.config)
    (_, rates), = _midpoint_rates(drop.geometry(), drop.config, (eta,))
    return eta, float(rates.sum()), float(rates.min()), 0, "ok"


# Algorithm name -> row fields of one drop.
_ALGORITHMS = {
    "WA_OPT_ETA": _wa_opt_eta,
    "COMPACT_ETA1": lambda drop: _solver_row(drop.solve_at(1)),
    "RANDOM_ETA": lambda drop: _solver_row(drop.solve_at(drop.random_eta)),
    "SINGLE_UE_CLOSED": _single_ue_closed,
    "TWO_UE_PROP1": _two_ue_prop1,
}
ALGORITHMS = tuple(_ALGORITHMS)


def run_trial(campaign: Campaign, trial: int, algorithm: str,
              sweep_dbm: float, _drop: _Drop | None = None) -> TrialRow:
    """One seeded trial of one algorithm at one transmit power.

    Failures are captured as a row with status ``failed:<ExceptionName>``,
    NaN rates and the exception text as ``message`` rather than aborting
    the campaign. ``run_campaign`` passes the drop it shares across the
    trial's algorithms as ``_drop``; the row is the same without it, apart
    from ``wall_ms``.
    """
    drop = _drop if _drop is not None else _Drop(campaign, trial, sweep_dbm)
    t0 = time.perf_counter()
    message = ""
    try:
        drop.geometry()     # draws the random level too, before it is read
        row_fields = _ALGORITHMS.get(algorithm)
        if row_fields is None:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        eta, srate, min_rate, iters, status = row_fields(drop)
    except Exception as exc:
        eta, srate, min_rate, iters = 0, math.nan, math.nan, 0
        status = f"failed:{type(exc).__name__}"
        message = f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - t0) * 1e3
    return TrialRow(trial=trial, sweep_value=sweep_dbm, algorithm=algorithm,
                    eta=eta, sum_rate_bits=srate, min_ue_rate=min_rate,
                    iters=iters, wall_ms=wall_ms, status=status,
                    message=message)


def _run_drop(args) -> list[TrialRow]:
    campaign, trial, sweep = args
    drop = _Drop(campaign, trial, sweep)
    return [run_trial(campaign, trial, alg, sweep, drop)
            for alg in campaign.algorithms]


def run_campaign(campaign: Campaign, jobs: int = 1) -> list[TrialRow]:
    """Run every (sweep value, algorithm, trial) combination, one task per
    drop (sweep value, trial), rows in drop order; with jobs greater than
    one the drops run in worker processes. The row set is identical
    either way."""
    tasks = [(campaign, trial, sweep)
             for sweep in campaign.sweep_points()
             for trial in range(campaign.n_trials)]
    if jobs <= 1:
        per_drop = [_run_drop(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_drop = list(pool.map(_run_drop, tasks))
    return [row for rows in per_drop for row in rows]


def emit_csv(rows, stream) -> None:
    """Write rows sorted by (sweep value, algorithm, trial); floats are
    rendered with nine significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in sorted(rows, key=lambda r: (r.sweep_value, r.algorithm, r.trial)):
        writer.writerow([
            row.trial,
            format(row.sweep_value, ".9g"),
            row.algorithm,
            row.eta,
            format(row.sum_rate_bits, ".9g"),
            format(row.min_ue_rate, ".9g"),
            row.iters,
            format(row.wall_ms, ".9g"),
            row.status,
        ])
