"""The benchmark's workloads: inputs made from a seed, the op each one
times, and the correctness gates every op must pass.

Each workload object exposes
  ``items``        one pass over its inputs, in an order set by the seed;
  ``trace_items``  the fixed op list of a traced run;
  ``warmup()``     the untimed warm-up;
  ``run(item)``    the op(s) for one item as a list of ``Op``;
  ``finish()``     workload-level gates, as a list of error strings.

Every call into rdars goes through a module attribute (``self.r.wmmse.
wa_solve``), so the tracer's rebinding reaches the benchmark's own calls.

Pools are fixed and stored with their fingerprints in fingerprints.json,
and a run always measures whole passes over its pool. The seed sets the
visiting order and, for two_ue_closed, which 256 of the 1024 stored close
pairs form the pass; every pair costs about the same, so that choice moves
the timings little.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

RATE_RTOL = 1e-6          # sum rates of a stored drop may move this much
POWER_RTOL = 1e-6         # transmit power may exceed the budget this much
UNIT_MODULUS_TOL = 1e-12  # |phi| may differ from 1 this much


@dataclass
class Op:
    """One timed op. ``state`` is ``ok``; ``failed`` when the program itself
    reported a failed result (a ``failed:*`` campaign row); or ``bad`` when
    the call raised or the output failed a correctness gate."""

    seconds: float
    state: str
    group: str = ""
    detail: str = ""


def _relerr(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def drop(r, scenario, d: int):
    """Stored drop ``d``: ``scenario_geometry(scenario, default_rng(d))``."""
    return r.scenario.scenario_geometry(scenario, np.random.default_rng(d))


def two_ue_scenario(r):
    """Close pairs: the default layout with K=2 in a 3 m disk at 30 dBm."""
    scenario = r.scenario.default_scenario()
    config = replace(scenario.config, n_ues=2)
    return replace(scenario, config=config, ue_radius=3.0)


def evaluate_two_ue(r, scenario, ue_pos) -> tuple[int, float, float]:
    """Geometry from UE positions, the selected level, and the closed-form
    sum rates at that level and at level 1."""
    config, cf = scenario.config, r.closed_form
    geometry = r.scenario.derive_geometry(scenario.bs_pos, scenario.rdars_pos,
                                          ue_pos, config)
    eta, _ = cf.select_two_ue_eta(geometry, config)
    return (eta, cf.two_ue_rate(geometry, config, eta),
            cf.two_ue_rate(geometry, config, 1))


class ScanDefault:
    """``wa_solve`` on the README default scenario (32 BS antennas x 128
    elements, 20 wired, 20 UEs, 30 dBm); one op is one six-level scan of a
    stored drop ``scenario_geometry(default_scenario(), default_rng(d))``.

    The pool is drop 0 alone, ROADMAP's reference scan: at 3.5-5 s an op a
    run holds only a handful of scans, too few to average over drops that
    differ by up to 50% in cost, so every run times the same scan."""

    name = "scan_default"

    def __init__(self, r, seed: int, fingerprints: dict):
        scenario = r.scenario.default_scenario()
        self.r, self.config = r, scenario.config
        self.expected = {int(k): v for k, v in
                         fingerprints[self.name]["sum_rate"].items()}
        pool = np.array(sorted(self.expected))
        order = np.random.default_rng(seed).permutation(pool)
        self.items = [(int(d), drop(r, scenario, int(d))) for d in order]
        self.trace_items = self.items

    def warmup(self) -> list[Op]:
        return self.run(self.items[0])

    def run(self, item) -> list[Op]:
        d, geometry = item
        t0 = perf_counter()
        try:
            solution, _, report = self.r.wmmse.wa_solve(geometry, self.config)
        except Exception as exc:  # counted, reported, and the run goes on
            return [Op(perf_counter() - t0, "bad", detail=f"drop {d}: {_raised(exc)}")]
        seconds = perf_counter() - t0
        errors = []
        budget = self.config.total_power
        if not solution.transmit_power <= budget * (1.0 + POWER_RTOL):
            errors.append(f"power {solution.transmit_power!r} > budget {budget!r}")
        worst = float(np.max(np.abs(np.abs(solution.passive.phi) - 1.0)))
        if not worst <= UNIT_MODULUS_TOL:
            errors.append(f"phase modulus off by {worst:.3g}")
        if not _relerr(report.sum_rate, self.expected[d]) <= RATE_RTOL:
            errors.append(f"sum rate {report.sum_rate!r} != stored {self.expected[d]!r}")
        detail = f"drop {d}: " + "; ".join(errors) if errors else ""
        return [Op(seconds, "bad" if errors else "ok", detail=detail)]

    def finish(self) -> list[str]:
        return []


CAMPAIGN_ALGORITHMS = ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA")
CAMPAIGN_SWEEP_DBM = tuple(float(v) for v in range(-10, 91, 20))
CAMPAIGN_ROWS = sorted((s, a) for s in CAMPAIGN_SWEEP_DBM
                       for a in CAMPAIGN_ALGORITHMS)
# Fixed campaign seeds, one single-trial campaign each: a pass of 36 rows,
# about 8 s on a 2-core x86 box at one BLAS thread.
CAMPAIGN_POOL = (0, 1)


class CampaignSweep:
    """``run_campaign`` with the acceptance solver config (N_t=8, N=32,
    a=4, K=4), the CLI's default algorithms, ``ptot_dbm=-10:90:20``; one op
    is one CSV row. Rows at >= 50 dBm hit the precoder-bisection failure
    path and come back ``failed:ConvergenceError``; they are kept and
    reported in ok_frac / failed_frac, not hidden."""

    name = "campaign_sweep"

    def __init__(self, r, seed: int, fingerprints: dict):
        scenario = r.scenario.default_scenario()
        config = replace(scenario.config, n_tx=8, n_elems=32, n_connected=4,
                         n_ues=4)
        scenario = replace(scenario, config=config)
        self.r = r
        self.feasible = set(r.arrays.feasible_sparsities(config.n_elems,
                                                         config.n_connected))
        order = np.random.default_rng(seed).permutation(len(CAMPAIGN_POOL))
        self.items = [r.harness.Campaign(scenario=scenario,
                                         algorithms=CAMPAIGN_ALGORITHMS,
                                         n_trials=1, seed=CAMPAIGN_POOL[i],
                                         sweep_dbm=CAMPAIGN_SWEEP_DBM)
                      for i in order]
        self.trace_items = self.items
        self.first_rows: dict[int, tuple] = {}

    def warmup(self) -> list[Op]:
        return self.run(self.items[0])

    def run(self, campaign) -> list[Op]:
        t0 = perf_counter()
        try:
            rows = self.r.harness.run_campaign(campaign, jobs=1)
        except Exception as exc:  # counted, reported, and the run goes on
            share = (perf_counter() - t0) / len(CAMPAIGN_ROWS)
            return [Op(share, "bad", f"ptot_dbm={s:g}",
                       f"campaign {campaign.seed}: {_raised(exc)}")
                    for s, _ in CAMPAIGN_ROWS]
        got = sorted((float(row.sweep_value), row.algorithm) for row in rows)
        if got != CAMPAIGN_ROWS:
            return [Op(row.wall_ms / 1e3, "bad", f"ptot_dbm={row.sweep_value:g}",
                       f"campaign {campaign.seed}: rows {got} != {CAMPAIGN_ROWS}")
                    for row in rows]
        # rows minus wall_ms must repeat exactly between warm-up and passes
        stable = tuple(sorted(
            (row.sweep_value, row.algorithm, row.trial, row.eta,
             repr(row.sum_rate_bits), repr(row.min_ue_rate), row.iters,
             row.status) for row in rows))
        first = self.first_rows.setdefault(campaign.seed, stable)
        ops = []
        for row in rows:
            group = f"ptot_dbm={row.sweep_value:g}"
            label = f"campaign {campaign.seed} {row.algorithm} @ {group}"
            if stable != first:
                ops.append(Op(row.wall_ms / 1e3, "bad", group,
                              f"{label}: rows differ from the first pass"))
            elif row.status.startswith("failed"):
                ops.append(Op(row.wall_ms / 1e3, "failed", group,
                              f"{label}: {row.status}"))
            elif not (math.isfinite(row.sum_rate_bits)
                      and math.isfinite(row.min_ue_rate)
                      and row.eta in self.feasible):
                ops.append(Op(row.wall_ms / 1e3, "bad", group,
                              f"{label}: rate {row.sum_rate_bits!r}, "
                              f"eta {row.eta} on a {row.status} row"))
            else:
                ops.append(Op(row.wall_ms / 1e3, "ok", group))
        return ops

    def finish(self) -> list[str]:
        return []


TWO_UE_DROPS = 256        # stored drops in one pass
TWO_UE_TRACE_PASSES = 8   # a traced run repeats the pass this often
TWO_UE_MIN_GAIN = 1.10    # mean selected rate / mean compact rate


class TwoUeClosed:
    """Closed-form two-UE selector on close pairs (K=2 in a 3 m disk, the
    default 32x128 layout, 30 dBm). One op derives the geometry from the
    drop's UE positions, then runs ``select_two_ue_eta`` and ``two_ue_rate``
    at the chosen level and at level 1, the first half of acceptance
    criterion 09. No solver is involved."""

    name = "two_ue_closed"

    def __init__(self, r, seed: int, fingerprints: dict):
        self.r, self.scenario = r, two_ue_scenario(r)
        fp = fingerprints[self.name]
        self.expected = list(zip(fp["eta"], fp["rate_selected"],
                                 fp["rate_compact"]))
        picks = np.random.default_rng(seed).choice(
            len(self.expected), size=TWO_UE_DROPS, replace=False)
        self.items = [(int(d), drop(r, self.scenario, int(d)).ue_pos)
                      for d in picks]
        self.trace_items = self.items * TWO_UE_TRACE_PASSES
        self.rate_sums = [0.0, 0.0]

    def warmup(self) -> list[Op]:
        return [op for item in self.items for op in self.run(item)]

    def run(self, item) -> list[Op]:
        d, ue_pos = item
        t0 = perf_counter()
        try:
            eta, rate_sel, rate_one = evaluate_two_ue(self.r, self.scenario, ue_pos)
        except Exception as exc:  # counted, reported, and the run goes on
            return [Op(perf_counter() - t0, "bad", detail=f"drop {d}: {_raised(exc)}")]
        seconds = perf_counter() - t0
        self.rate_sums[0] += rate_sel
        self.rate_sums[1] += rate_one
        want_eta, want_sel, want_one = self.expected[d]
        if (eta != want_eta or _relerr(rate_sel, want_sel) > RATE_RTOL
                or _relerr(rate_one, want_one) > RATE_RTOL):
            return [Op(seconds, "bad", detail=(
                f"drop {d}: (eta, rates) {(eta, rate_sel, rate_one)!r} != "
                f"stored {(want_eta, want_sel, want_one)!r}"))]
        return [Op(seconds, "ok")]

    def finish(self) -> list[str]:
        sel, one = self.rate_sums
        if not sel >= TWO_UE_MIN_GAIN * one:
            return [f"mean selected rate / mean compact rate = {sel / one:.4f}"
                    f" < {TWO_UE_MIN_GAIN}"]
        return []


WORKLOADS = {cls.name: cls for cls in (ScanDefault, CampaignSweep, TwoUeClosed)}
