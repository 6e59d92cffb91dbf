"""Monte-Carlo campaign harness.

Runs the competing design procedures over seeded UE drops and emits one
CSV row per (trial, sweep value, algorithm). Determinism contract: trial
t always uses the generator seeded with seed XOR t, and every trial draws
in a fixed order (all UE radii, all UE angles, then the sparsity level
for ``RANDOM_ETA``), so UE positions agree across algorithms and sweep
values and reruns are byte-identical apart from wall times.

A campaign's unit of work is the trial. Its geometry, channels and random
sparsity pick do not depend on the transmit power, so they are made once
for every sweep value. The alternating optimization runs once per trial:
its first solver row plans every (sparsity level, sweep value) lane that
the campaign's algorithms read (``WA_OPT_ETA`` every level, each sweep
value's (level, outcome) scan going to ``sparsity_search``;
``COMPACT_ETA1`` level 1; ``RANDOM_ETA`` the pick) and solves them in one
lockstep ``ao_solve_levels`` call, whatever the order of the algorithms. A
lane whose solve raised keeps its exception, which every row needing it
reports. Rows are the same as when each row runs alone; only ``wall_ms``
differs, because the trial's solve is charged to its first solver row and
later rows read it.

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
from functools import partial

import numpy as np

from .arrays import feasible_sparsities, los_channels, make_mode
from .closed_form import _midpoint_rates, select_two_ue_eta, single_ue_solution
from .metrics import rate_bits
from .scenario import Geometry, Scenario, SystemConfig, scenario_geometry
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

    def config_at(self, sweep_dbm: float) -> SystemConfig:
        """The config at one sweep value: without a sweep, the scenario's
        own, so that its power is not rounded through dBm."""
        config = self.scenario.config
        if not self.sweep_dbm and sweep_dbm == self.sweep_points()[0]:
            return config
        return replace(config, total_power=dbm_to_watt(sweep_dbm))


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
    """One seeded trial of a campaign at the given sweep values (in dBm),
    for the given algorithms. The geometry, with the random sparsity pick
    drawn right after it, is made on first use. The first outcome read
    solves every (level, sweep value) lane that the solver algorithms read
    (``_SOLVER_LEVELS``), level-major, in one ``ao_solve_levels`` call,
    and keeps each outcome: the result, or the exception that ended that
    lane without its traceback, whose frames would keep this trial alive
    after its rows are made."""

    def __init__(self, campaign: Campaign, trial: int, sweep_dbm, algorithms):
        self._scenario = campaign.scenario
        self._seed = campaign.seed ^ trial
        self._algorithms = algorithms
        self.configs = {s: campaign.config_at(s) for s in sweep_dbm}
        self._geometry: Geometry | None = None
        self._solved: dict[tuple[float, int], AoResult | Exception] = {}
        self.levels: list[int] = []
        self.random_eta = 0

    def geometry(self) -> Geometry:
        if self._geometry is None:
            rng = np.random.default_rng(self._seed)
            geometry = scenario_geometry(self._scenario, rng)
            config = self._scenario.config
            self.levels = feasible_sparsities(config.n_elems,
                                              config.n_connected)
            self.random_eta = self.levels[int(rng.integers(len(self.levels)))]
            self._geometry = geometry
        return self._geometry

    def solved(self, sweep_dbm: float, eta: int) -> AoResult | Exception:
        """The outcome of the solve at one sweep value and sparsity level."""
        if not self._solved:
            geometry, config = self.geometry(), self._scenario.config
            levels = sorted({level for alg in self._algorithms
                             if alg in _SOLVER_LEVELS
                             for level in _SOLVER_LEVELS[alg](self)})
            keys = [(s, level) for level in levels for s in self.configs]
            modes = {level: make_mode(config.n_elems, config.n_connected,
                                      level) for level in levels}
            outcomes = ao_solve_levels(
                los_channels(geometry, config), config,
                [(modes[level], self.configs[s].total_power)
                 for s, level in keys])
            self._solved = {
                key: (out.with_traceback(None) if isinstance(out, Exception)
                      else out) for key, out in zip(keys, outcomes)}
        return self._solved[sweep_dbm, eta]


# Solver algorithm name -> the sparsity levels its rows read in a trial.
_SOLVER_LEVELS = {
    "WA_OPT_ETA": lambda trial: trial.levels,
    "COMPACT_ETA1": lambda trial: (1,),
    "RANDOM_ETA": lambda trial: (trial.random_eta,),
}


def _solver_row(levels, trial: _Trial, sweep_dbm: float) -> tuple:
    """Row fields (eta, sum rate, min UE rate, iterations, status) of the
    ``sparsity_search`` pick among the solves at ``levels(trial)``: a
    single level's own result, or its kept exception raised again."""
    best, _ = sparsity_search((eta, trial.solved(sweep_dbm, eta))
                              for eta in levels(trial))
    r = best.report     # min UE rate at argmin: a third of min()'s cost
    return (best.mode.eta, r.sum_rate, r.rate.item(r.rate.argmin()),
            r.iterations, "ok" if r.converged else "unconverged")


def _single_ue_closed(trial: _Trial, sweep_dbm: float) -> tuple:
    config = trial.configs[sweep_dbm]
    mode = make_mode(config.n_elems, config.n_connected, 1)
    sol = single_ue_solution(trial.geometry(), config, mode)
    rate = float(rate_bits(sol.snr_max))
    return mode.eta, rate, rate, 0, "ok"


def _two_ue_prop1(trial: _Trial, sweep_dbm: float) -> tuple:
    config = trial.configs[sweep_dbm]
    eta, _ = select_two_ue_eta(trial.geometry(), config)
    (_, rates), = _midpoint_rates(trial.geometry(), config, (eta,))
    return eta, float(rates.sum()), float(rates.min()), 0, "ok"


# Algorithm name -> row fields of a trial at one sweep value.
_ALGORITHMS = {
    **{name: partial(_solver_row, levels)
       for name, levels in _SOLVER_LEVELS.items()},
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
    from a trial of this sweep value and algorithm alone, and is the same
    apart from ``wall_ms``.
    """
    if _trial is None:
        _trial = _Trial(campaign, trial, (sweep_dbm,), (algorithm,))
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
    shared = _Trial(campaign, trial, campaign.sweep_points(),
                    campaign.algorithms)
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
