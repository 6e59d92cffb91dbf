"""Monte-Carlo campaign harness.

Runs the competing design procedures over seeded UE drops and emits one
CSV row per (trial, sweep value, algorithm). Determinism contract: trial
t always uses the generator seeded with seed XOR t, and every trial draws
in a fixed order (all UE radii, all UE angles, then the sparsity level
for ``RANDOM_ETA``), so UE positions agree across algorithms and sweep
values and reruns are byte-identical apart from wall times.

A campaign's unit of work is the trial. Its geometry, channels and random
sparsity pick do not depend on the transmit power, so they are made once
for every sweep value. The alternating optimization runs at most once per
(sweep value, sparsity level), shared by every algorithm that needs that
level: the first row that needs a level solves it at every sweep value of
the trial in one lockstep ``ao_solve_levels`` call (``WA_OPT_ETA`` asks
for every level and hands its sweep value's (level, outcome) scan to
``sparsity_search``, ``COMPACT_ETA1`` for level 1, ``RANDOM_ETA`` for the
pick). A (sweep value, level) whose solve raised keeps its exception,
which every row needing it reports. Rows are the same as when each row
runs alone; only ``wall_ms`` differs, because a shared piece of work is
charged to the first row that needs it and later rows reuse it.

Row status is ``ok``; ``unconverged`` for a solver row whose alternating
optimization stopped at its iteration cap (the row keeps that solve's last
iterate); or ``failed:<ExceptionName>`` with NaN rates, in which case the
row's ``message`` (not a CSV column) keeps the exception text.
"""

from __future__ import annotations

import csv
import math
import time
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
            try:
                watt = dbm_to_watt(v)
            except OverflowError:       # above about 3082 dBm
                watt = math.inf
            if not 0.0 < watt < math.inf:
                raise ValueError(f"sweep value {v} dBm is not a positive "
                                 f"finite power in watts ({watt:g} W)")

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


class _Trial:
    """One seeded trial of a campaign at the given sweep values (in dBm).
    The geometry (with the random sparsity pick drawn right after it), the
    channels and one solve per (sweep value, sparsity level) are each made
    on first use and kept. The algorithms read it at one sweep value
    each; nothing it holds refers back to them or to the rows, so it is
    freed as soon as its rows are made."""

    def __init__(self, campaign: Campaign, trial: int, sweep_dbm):
        self._scenario = campaign.scenario
        self._seed = campaign.seed ^ trial
        self.configs = {s: replace(campaign.scenario.config,
                                   total_power=dbm_to_watt(s))
                        for s in sweep_dbm}
        self._geometry: Geometry | None = None
        self._channels: ChannelSet | None = None
        self._solved: dict[tuple[float, int], AoResult | Exception] = {}
        self.random_eta = 0

    def geometry(self) -> Geometry:
        if self._geometry is None:
            rng = np.random.default_rng(self._seed)
            geometry = scenario_geometry(self._scenario, rng)
            config = self._scenario.config
            fset = feasible_sparsities(config.n_elems, config.n_connected)
            self.random_eta = fset[int(rng.integers(len(fset)))]
            self._geometry = geometry
        return self._geometry

    def channels(self) -> ChannelSet:
        if self._channels is None:
            self._channels = los_channels(self.geometry(),
                                          self._scenario.config)
        return self._channels

    def solve_levels(self, levels) -> None:
        """Solve the given sparsity levels at every sweep value, all pairs
        not solved yet in one lockstep ``ao_solve_levels`` call, and
        memoize each outcome: the result, or the exception that ended that
        lane (without its traceback, whose frames would keep this trial
        alive)."""
        missing = [(s, eta) for eta in levels for s in self.configs
                   if (s, eta) not in self._solved]
        if missing:
            config = self._scenario.config
            modes = {eta: make_mode(config.n_elems, config.n_connected, eta)
                     for eta in {eta for _, eta in missing}}
            outcomes = ao_solve_levels(self.channels(), [
                (modes[eta], self.configs[s]) for s, eta in missing])
            for key, out in zip(missing, outcomes):
                if isinstance(out, Exception):
                    out = out.with_traceback(None)
                self._solved[key] = out

    def solve_at(self, sweep_dbm: float, eta: int) -> AoResult:
        """``ao_solve`` at one sweep value and sparsity level, memoized; a
        failed lane raises its exception again, without another solve."""
        result = self._solved.get((sweep_dbm, eta))
        if result is None:
            self.solve_levels((eta,))
            result = self._solved[(sweep_dbm, eta)]
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


def _wa_opt_eta(trial: _Trial, sweep_dbm: float) -> tuple:
    """Row fields of the scan: every level of the trial is solved in one
    lockstep call, then ``sparsity_search`` scans this sweep value's
    outcomes."""
    config = trial.configs[sweep_dbm]
    levels = feasible_sparsities(config.n_elems, config.n_connected)
    trial.solve_levels(levels)
    return _solver_row(sparsity_search(
        [(eta, trial._solved[sweep_dbm, eta]) for eta in levels])[0])


def _single_ue_closed(trial: _Trial, sweep_dbm: float) -> tuple:
    config = trial.configs[sweep_dbm]
    mode = make_mode(config.n_elems, config.n_connected, 1)
    sol = single_ue_solution(trial.geometry(), config, mode)
    rate = math.log2(1.0 + sol.snr_max)
    return mode.eta, rate, rate, 0, "ok"


def _two_ue_prop1(trial: _Trial, sweep_dbm: float) -> tuple:
    config = trial.configs[sweep_dbm]
    eta, _ = select_two_ue_eta(trial.geometry(), config)
    (_, rates), = _midpoint_rates(trial.geometry(), config, (eta,))
    return eta, float(rates.sum()), float(rates.min()), 0, "ok"


# Algorithm name -> row fields of a trial at one sweep value.
_ALGORITHMS = {
    "WA_OPT_ETA": _wa_opt_eta,
    "COMPACT_ETA1": lambda trial, s: _solver_row(trial.solve_at(s, 1)),
    "RANDOM_ETA": lambda trial, s: _solver_row(
        trial.solve_at(s, trial.random_eta)),
    "SINGLE_UE_CLOSED": _single_ue_closed,
    "TWO_UE_PROP1": _two_ue_prop1,
}
ALGORITHMS = tuple(_ALGORITHMS)


def run_trial(campaign: Campaign, trial: int, algorithm: str,
              sweep_dbm: float, _trial: _Trial | None = None) -> TrialRow:
    """One seeded trial of one algorithm at one transmit power.

    Failures are captured as a row with status ``failed:<ExceptionName>``,
    NaN rates and the exception text as ``message`` rather than aborting
    the campaign. ``run_campaign`` passes the ``_Trial`` it shares across
    sweep values and algorithms as ``_trial``; without it the row is made
    from a trial of this sweep value alone, and is the same apart from
    ``wall_ms``.
    """
    if _trial is None:
        _trial = _Trial(campaign, trial, (sweep_dbm,))
    t0 = time.perf_counter()
    message = ""
    try:
        _trial.geometry()   # draws the random level too, before it is read
        row_fields = _ALGORITHMS.get(algorithm)
        if row_fields is None:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        eta, srate, min_rate, iters, status = row_fields(_trial, sweep_dbm)
    except Exception as exc:
        eta, srate, min_rate, iters = 0, math.nan, math.nan, 0
        status = f"failed:{type(exc).__name__}"
        message = f"{type(exc).__name__}: {exc}"
        # a memoized exception would keep this frame, and so the trial,
        # alive through its traceback
        exc.with_traceback(None)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return TrialRow(trial=trial, sweep_value=sweep_dbm, algorithm=algorithm,
                    eta=eta, sum_rate_bits=srate, min_ue_rate=min_rate,
                    iters=iters, wall_ms=wall_ms, status=status,
                    message=message)


def _run_trial_rows(args) -> list[list[TrialRow]]:
    """Every row of one trial, one list per sweep value."""
    campaign, trial = args
    shared = _Trial(campaign, trial, campaign.sweep_points())
    return [[run_trial(campaign, trial, alg, sweep, shared)
             for alg in campaign.algorithms]
            for sweep in campaign.sweep_points()]


def run_campaign(campaign: Campaign, jobs: int = 1) -> list[TrialRow]:
    """Run every (sweep value, algorithm, trial) combination, one task per
    trial, rows in (sweep value, trial, algorithm) order. With jobs greater
    than one the trials run in min(jobs, trials) worker processes; with
    one worker they run in this process. The row set is identical either
    way."""
    tasks = [(campaign, trial) for trial in range(campaign.n_trials)]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        per_trial = [_run_trial_rows(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_run_trial_rows, tasks))
    return [row for i in range(len(campaign.sweep_points()))
            for rows in per_trial for row in rows[i]]


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
