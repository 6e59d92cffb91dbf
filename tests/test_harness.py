import concurrent.futures
import gc
import io
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdars import harness, wmmse
from rdars.closed_form import analyze_two_ue, two_ue_rate
from rdars.harness import (ALGORITHMS, CSV_FIELDS, Campaign, TrialRow,
                           dbm_to_watt, emit_csv, run_campaign, run_trial,
                           watt_to_dbm)
from rdars.scenario import (Scenario, default_scenario, derive_geometry,
                            drop_ues, scenario_geometry)
from rdars.wmmse import solve_fixed_eta

from helpers import BS, CENTER, SURFACE, fail_levels, small_config


def _scenario(**overrides):
    cfg = small_config(n_ues=overrides.pop("n_ues", 2),
                       conv_threshold=overrides.pop("conv_threshold", 1e-3),
                       max_outer_iters=overrides.pop("max_outer_iters", 60))
    return Scenario(config=cfg, bs_pos=BS, rdars_pos=SURFACE,
                    ue_center=CENTER, ue_radius=20.0, **overrides)


def test_dbm_watt_reference_points():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watt(-91.4) == pytest.approx(7.244359600749892e-13,
                                               rel=1e-12)
    assert watt_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)


@given(st.floats(min_value=-100.0, max_value=60.0))
def test_dbm_watt_roundtrip(dbm):
    assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_watt_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)
    with pytest.raises(ValueError):
        watt_to_dbm(-1.0)


def test_drop_ues_stays_in_disk():
    rng = np.random.default_rng(7)
    pos = drop_ues(CENTER, 20.0, 50, rng)
    assert pos.shape == (50, 3)
    assert np.all(pos[:, 2] == CENTER[2])
    dist = np.hypot(pos[:, 0] - CENTER[0], pos[:, 1] - CENTER[1])
    assert np.all(dist <= 20.0 + 1e-12)


def test_drop_ues_frozen_positions():
    pos = drop_ues(CENTER, 20.0, 2, np.random.default_rng(0))
    want = [[115.4359307409165, 4.064076412939417, 1.5],
            [110.33223631830317, 1.0768371131628853, 1.5]]
    np.testing.assert_allclose(pos, want, rtol=1e-12)


def test_drop_ues_degenerate_and_invalid():
    pos = drop_ues(CENTER, 0.0, 3, np.random.default_rng(1))
    np.testing.assert_allclose(pos, np.tile(CENTER, (3, 1)))
    with pytest.raises(ValueError):
        drop_ues(CENTER, -1.0, 2, np.random.default_rng(1))
    with pytest.raises(ValueError):
        drop_ues(CENTER, 5.0, 0, np.random.default_rng(1))


def test_campaign_validation():
    sc = _scenario()
    with pytest.raises(ValueError):
        Campaign(sc, ("COMPACT_ETA1",), n_trials=0, seed=0)
    with pytest.raises(ValueError):
        Campaign(sc, ("COMPACT_ETA1",), n_trials=1, seed=-1)
    with pytest.raises(ValueError):
        Campaign(sc, (), n_trials=1, seed=0)
    with pytest.raises(ValueError):
        Campaign(sc, ("NO_SUCH_ALG",), n_trials=1, seed=0)
    with pytest.raises(ValueError):
        Campaign(sc, ("COMPACT_ETA1",), n_trials=1, seed=0,
                 sweep_dbm=(math.inf,))
    # powers in watts that overflow a float or underflow to zero
    for dbm in (4000.0, -4000.0):
        with pytest.raises(ValueError, match=f"sweep value {dbm} dBm"):
            Campaign(sc, ("COMPACT_ETA1",), n_trials=1, seed=0,
                     sweep_dbm=(30.0, dbm))
    Campaign(sc, ("COMPACT_ETA1",), n_trials=1, seed=0,
             sweep_dbm=(-3000.0, 3080.0))


def test_campaign_sweep_defaults_to_configured_power():
    camp = Campaign(_scenario(), ("COMPACT_ETA1",), n_trials=1, seed=0)
    assert camp.sweep_points() == (pytest.approx(30.0),)
    swept = Campaign(_scenario(), ("COMPACT_ETA1",), n_trials=1, seed=0,
                     sweep_dbm=(10.0, 20.0))
    assert swept.sweep_points() == (10.0, 20.0)


def test_run_trial_solver_row():
    camp = Campaign(_scenario(), ("WA_OPT_ETA",), n_trials=1, seed=3)
    row = run_trial(camp, 0, "WA_OPT_ETA", 30.0)
    assert row.status == "ok"
    assert row.trial == 0
    assert row.sweep_value == 30.0
    assert row.algorithm == "WA_OPT_ETA"
    assert 1 <= row.eta <= 5
    assert row.sum_rate_bits > 0.0
    assert 0.0 <= row.min_ue_rate <= row.sum_rate_bits
    assert row.iters >= 1
    assert row.wall_ms > 0.0


def test_run_trial_compact_pins_eta_one():
    camp = Campaign(_scenario(), ("COMPACT_ETA1",), n_trials=1, seed=3)
    row = run_trial(camp, 0, "COMPACT_ETA1", 30.0)
    assert row.status == "ok"
    assert row.eta == 1


def test_run_trial_random_eta_is_seed_pinned():
    camp = Campaign(_scenario(n_ues=3), ("RANDOM_ETA",), n_trials=2, seed=42)
    picks = [run_trial(camp, t, "RANDOM_ETA", 30.0).eta for t in (0, 1)]
    assert picks == [4, 5]


def test_run_trial_single_ue_closed_form():
    camp = Campaign(_scenario(n_ues=1), ("SINGLE_UE_CLOSED",), n_trials=1,
                    seed=5)
    row = run_trial(camp, 0, "SINGLE_UE_CLOSED", 30.0)
    assert row.status == "ok"
    assert row.iters == 0
    assert row.eta == 1
    assert row.min_ue_rate == pytest.approx(row.sum_rate_bits, rel=1e-12)


def test_run_trial_two_ue_selection():
    camp = Campaign(_scenario(), ("TWO_UE_PROP1",), n_trials=1, seed=5)
    row = run_trial(camp, 0, "TWO_UE_PROP1", 30.0)
    assert row.status == "ok"
    assert row.iters == 0
    assert 1 <= row.eta <= 5
    assert row.sum_rate_bits > 0.0


def _drop_geometry(camp, trial, sweep_dbm):
    """The geometry and config a campaign drop uses."""
    config = replace(camp.scenario.config, total_power=dbm_to_watt(sweep_dbm))
    rng = np.random.default_rng(camp.seed ^ trial)
    return scenario_geometry(replace(camp.scenario, config=config), rng), config


def test_run_trial_two_ue_row_is_the_closed_form_rate():
    camp = Campaign(_scenario(), ("TWO_UE_PROP1",), n_trials=2, seed=5,
                    sweep_dbm=(10.0, 30.0))
    for row in run_campaign(camp):
        geo, config = _drop_geometry(camp, row.trial, row.sweep_value)
        assert row.status == "ok"
        assert row.sum_rate_bits == two_ue_rate(geo, config, row.eta)


def test_unconverged_solver_rows_are_marked():
    camp = Campaign(_scenario(conv_threshold=1e-12, max_outer_iters=1),
                    ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA"),
                    n_trials=1, seed=3)
    rows = run_campaign(camp)
    assert [row.status for row in rows] == ["unconverged"] * 3
    for row in rows:
        # the row still carries that solve's eta and rates
        geo, config = _drop_geometry(camp, row.trial, row.sweep_value)
        _, mode, report = solve_fixed_eta(geo, config, row.eta)
        assert (row.eta, row.iters) == (mode.eta, 1)
        assert row.sum_rate_bits == report.sum_rate
        assert row.min_ue_rate == float(np.min(report.rate))


def test_run_trial_captures_failures_as_rows():
    # closed form needs exactly one UE; a two-UE drop must fail gracefully
    camp = Campaign(_scenario(), ("SINGLE_UE_CLOSED",), n_trials=1, seed=5)
    row = run_trial(camp, 0, "SINGLE_UE_CLOSED", 30.0)
    assert row.status == "failed:ValueError"
    assert row.message == "ValueError: single-UE solution needs K=1, got K=2"
    assert math.isnan(row.sum_rate_bits)
    assert math.isnan(row.min_ue_rate)
    assert row.eta == 0
    assert row.iters == 0


def test_run_trial_power_enters_through_sweep():
    camp = Campaign(_scenario(), ("COMPACT_ETA1",), n_trials=1, seed=9)
    low = run_trial(camp, 0, "COMPACT_ETA1", 0.0)
    high = run_trial(camp, 0, "COMPACT_ETA1", 30.0)
    assert high.sum_rate_bits > low.sum_rate_bits


def test_run_trial_is_deterministic_up_to_wall_time():
    camp = Campaign(_scenario(), ("WA_OPT_ETA",), n_trials=1, seed=11)
    a = run_trial(camp, 0, "WA_OPT_ETA", 30.0)
    b = run_trial(camp, 0, "WA_OPT_ETA", 30.0)
    assert replace(a, wall_ms=0.0) == replace(b, wall_ms=0.0)


def test_run_campaign_parallel_matches_serial():
    camp = Campaign(_scenario(), ("COMPACT_ETA1", "TWO_UE_PROP1"),
                    n_trials=2, seed=13)
    serial = run_campaign(camp, jobs=1)
    parallel = run_campaign(camp, jobs=2)
    assert len(serial) == 4
    key = lambda r: (r.sweep_value, r.algorithm, r.trial)
    stripped = lambda rows: [replace(r, wall_ms=0.0)
                             for r in sorted(rows, key=key)]
    assert stripped(serial) == stripped(parallel)


def test_high_power_campaign_is_deterministic_across_jobs():
    """At 50 and 70 dBm the solver accepts and rejects extrapolations;
    those decisions, and so the rows, repeat exactly across runs and
    worker counts."""
    camp = Campaign(_scenario(n_ues=3),
                    ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA"),
                    n_trials=2, seed=23, sweep_dbm=(50.0, 70.0))
    stripped = lambda rows: [replace(r, wall_ms=0.0) for r in rows]
    first = stripped(run_campaign(camp, jobs=1))
    assert len(first) == 2 * 3 * 2
    assert stripped(run_campaign(camp, jobs=1)) == first
    assert stripped(run_campaign(camp, jobs=2)) == first
    trials = [harness._Trial(camp, trial, camp.sweep_dbm, ("WA_OPT_ETA",))
              for trial in range(2)]
    solves = [trial.solved(sweep, eta) for trial in trials
              for sweep in (50.0, 70.0) for eta in range(1, 6)]
    assert sum(res.accepted for res in solves) > 0
    assert sum(res.rejected for res in solves) > 0


def test_run_campaign_solves_each_level_once_per_drop(monkeypatch):
    """Each trial builds its channels once and solves every (sweep value,
    level) once, all in one lockstep call made by its first row."""
    counts = {"ao_solve_levels": 0, "los_channels": 0}
    lanes_solved = []

    def counted(name):
        inner = getattr(harness, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "ao_solve_levels":
                lanes_solved.append([(power, mode.eta)
                                     for mode, power in args[2]])
            return inner(*args, **kwargs)
        return wrapper

    for name in ("ao_solve_levels", "los_channels"):
        monkeypatch.setattr(harness, name, counted(name))
    camp = Campaign(_scenario(), ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA"),
                    n_trials=2, seed=21, sweep_dbm=(10.0, 30.0))
    rows = run_campaign(camp)
    assert all(row.status == "ok" for row in rows)
    # N=16, a=4: five levels at two powers per trial, solved in one
    # lockstep call by the first scan row; the other rows read them
    assert counts == {"ao_solve_levels": 2, "los_channels": 2}
    for lanes in lanes_solved:
        assert sorted(lanes) == sorted(
            (dbm_to_watt(s), eta) for s in (10.0, 30.0) for eta in range(1, 6))


def _count_solves(monkeypatch):
    """Count ``ao_solve_levels`` and ``los_channels`` calls of the harness."""
    counts = {"ao_solve_levels": 0, "los_channels": 0}
    for name in counts:
        def counted(*args, _name=name, _inner=getattr(harness, name)):
            counts[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(harness, name, counted)
    return counts


def test_every_algorithm_order_solves_a_trial_in_one_call(monkeypatch):
    """In any order of the algorithms, a trial with a solver algorithm makes
    one ``ao_solve_levels`` call, and its rows equal the matching rows of
    the campaign that lists ``WA_OPT_ETA`` first; a trial without one
    builds no channels and solves nothing."""
    def campaign(algorithms):
        return Campaign(_scenario(n_ues=3), algorithms, n_trials=3, seed=42,
                        sweep_dbm=(10.0, 30.0))

    key = lambda r: (r.sweep_value, r.algorithm, r.trial)
    stripped = lambda rows: {key(r): replace(r, wall_ms=0.0) for r in rows}
    full = stripped(run_campaign(campaign(
        ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA"))))
    # the random picks differ from level 1, so the two orders below would
    # each ask for two levels if levels were solved as rows first read them
    assert all(r.eta != 1 for r in full.values()
               if r.algorithm == "RANDOM_ETA")
    counts = _count_solves(monkeypatch)
    for algorithms in (("COMPACT_ETA1", "RANDOM_ETA"),
                       ("RANDOM_ETA", "WA_OPT_ETA", "COMPACT_ETA1")):
        counts.update(ao_solve_levels=0, los_channels=0)
        rows = stripped(run_campaign(campaign(algorithms)))
        assert counts == {"ao_solve_levels": 3, "los_channels": 3}
        assert rows == {k: full[k] for k in rows}
        assert len(rows) == 2 * 3 * len(algorithms)
    counts.update(ao_solve_levels=0, los_channels=0)
    run_campaign(campaign(("SINGLE_UE_CLOSED", "TWO_UE_PROP1")))
    assert counts == {"ao_solve_levels": 0, "los_channels": 0}


def test_campaign_without_sweep_solves_at_the_scenario_power(monkeypatch):
    """Without a sweep, a trial's lanes run at the scenario's own power, not
    at that power rounded through dBm, which differs for some of these."""
    watts = (0.5, 2.0, 0.25, 7.0)
    assert any(dbm_to_watt(watt_to_dbm(w)) != w for w in watts)
    powers = []
    solve = harness.ao_solve_levels

    def recorded_solve(channels, config, lanes):
        powers.extend(power for _, power in lanes)
        return solve(channels, config, lanes)

    monkeypatch.setattr(harness, "ao_solve_levels", recorded_solve)
    for watt in watts:
        scenario = _scenario()
        scenario = replace(scenario, config=replace(scenario.config,
                                                    total_power=watt))
        camp = Campaign(scenario, ("COMPACT_ETA1", "TWO_UE_PROP1"),
                        n_trials=1, seed=3)
        powers.clear()
        rows = run_campaign(camp)
        assert powers == [watt]
        geo, _ = _drop_geometry(camp, 0, camp.sweep_points()[0])
        assert rows[1].sum_rate_bits == two_ue_rate(geo, scenario.config,
                                                    rows[1].eta)


def test_single_ue_closed_rate_keeps_its_digits_at_low_power():
    """The exact single-UE optimum keeps its relative digits at -200 dBm,
    where log2(1 + SNR) reads 0: ten powers of ten below its -100 dBm
    rate, and no lower than the solver's rate that it bounds."""
    scenario = default_scenario()
    scenario = replace(scenario, config=replace(
        scenario.config, n_tx=8, n_elems=32, n_connected=4, n_ues=1))
    camp = Campaign(scenario, ("SINGLE_UE_CLOSED", "WA_OPT_ETA"), n_trials=1,
                    seed=0, sweep_dbm=(-200.0, -100.0))
    rows = {(r.sweep_value, r.algorithm): r for r in run_campaign(camp)}
    low = rows[-200.0, "SINGLE_UE_CLOSED"].sum_rate_bits
    high = rows[-100.0, "SINGLE_UE_CLOSED"].sum_rate_bits
    assert low == pytest.approx(high * 1e-10, rel=1e-9)
    assert low >= rows[-200.0, "WA_OPT_ETA"].sum_rate_bits > 0.0


def test_solve_levels_builds_one_mode_per_level(monkeypatch):
    """A trial builds one ModeSelection per sparsity level it solves, and
    every sweep value's lane at that level shares it; the lanes are
    level-major."""
    built, lanes = [], []
    make_mode, solve = harness.make_mode, harness.ao_solve_levels

    def counted_make_mode(*args):
        built.append(args[2])
        return make_mode(*args)

    def recorded_solve(channels, config, pairs):
        lanes.extend(pairs)
        return solve(channels, config, pairs)

    monkeypatch.setattr(harness, "make_mode", counted_make_mode)
    monkeypatch.setattr(harness, "ao_solve_levels", recorded_solve)
    sweep = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    config = small_config(n_elems=32, n_ues=2, conv_threshold=1e-3,
                          max_outer_iters=60)
    camp = Campaign(Scenario(config=config, bs_pos=BS, rdars_pos=SURFACE,
                             ue_center=CENTER), ("WA_OPT_ETA",),
                    n_trials=1, seed=0, sweep_dbm=sweep)
    harness._Trial(camp, 0, sweep, camp.algorithms).solved(0.0, 1)
    assert sorted(built) == list(range(1, 11))
    assert len({id(mode) for mode, _ in lanes}) == 10
    # level-major: every sweep value of a level, then the next level
    assert [(mode.eta, power) for mode, power in lanes] == [
        (eta, dbm_to_watt(s)) for eta in range(1, 11) for s in sweep]


def test_failing_level_is_solved_once_and_spares_other_rows(monkeypatch):
    """One sparsity level is forced to raise inside the lockstep rounds.
    Rows that need only other levels equal the unforced rows; every row
    that needs the failing level reports its exception; and each (trial,
    sweep value) solves that level once."""
    camp = Campaign(_scenario(), ("WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA"),
                    n_trials=4, seed=31, sweep_dbm=(10.0, 30.0))
    clean = run_campaign(camp)
    fail_eta = next(r.eta for r in clean
                    if r.algorithm == "RANDOM_ETA" and r.eta != 1)
    solved = []

    def counted(channels, config, lanes):
        solved.extend(mode.eta for mode, _ in lanes)
        return wmmse.ao_solve_levels(channels, config, lanes)

    fail_levels(monkeypatch, fail_eta)
    monkeypatch.setattr(harness, "ao_solve_levels", counted)
    forced = run_campaign(camp)
    drops = camp.n_trials * len(camp.sweep_dbm)
    assert solved.count(fail_eta) == drops
    hit = 0
    for before, after in zip(clean, forced):
        needs_failing = (before.algorithm == "WA_OPT_ETA"
                         or before.eta == fail_eta)
        if needs_failing:
            hit += before.algorithm == "RANDOM_ETA"
            assert after.status == "failed:ArithmeticError"
            assert after.message.endswith(f"level {fail_eta}")
        else:
            assert replace(after, wall_ms=0.0) == replace(before, wall_ms=0.0)
    assert hit >= 1


def test_run_campaign_caps_workers_at_the_trial_count(monkeypatch):
    created = []

    class InlinePool:
        """Stand-in for ProcessPoolExecutor: records its worker count and
        runs the tasks in this process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_campaign imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    camp = Campaign(_scenario(), ("TWO_UE_PROP1",), n_trials=3, seed=13,
                    sweep_dbm=(10.0, 30.0))
    serial = run_campaign(camp)
    stripped = lambda rows: [replace(r, wall_ms=0.0) for r in rows]
    assert stripped(run_campaign(camp, jobs=8)) == stripped(serial)
    assert stripped(run_campaign(camp, jobs=2)) == stripped(serial)
    assert created == [3, 2]
    one = Campaign(_scenario(), ("TWO_UE_PROP1",), n_trials=1, seed=13)
    run_campaign(one, jobs=8)      # one trial runs in this process
    assert created == [3, 2]


def test_finished_campaign_frees_its_trials(monkeypatch):
    """No reference cycle keeps a trial, and with it every lane's result,
    alive after its rows are made: with the cycle collector off, every
    trial is gone when ``run_campaign`` returns, also when rows failed
    and a failed level's exception was memoized and raised again."""
    trials = []

    class Tracked(harness._Trial):
        def __init__(self, *args):
            super().__init__(*args)
            trials.append(weakref.ref(self))

    monkeypatch.setattr(harness, "_Trial", Tracked)
    camp = Campaign(_scenario(conv_threshold=1e-12, max_outer_iters=3),
                    ("COMPACT_ETA1", "WA_OPT_ETA", "SINGLE_UE_CLOSED"),
                    n_trials=2, seed=3, sweep_dbm=(10.0, 30.0))
    for forced in (False, True):
        if forced:
            # the scan raises at level 2 and never reads level 3's exception
            fail_levels(monkeypatch, 2, 3)
        trials.clear()
        gc.collect()
        gc.disable()
        try:
            rows = run_campaign(camp)
            assert len(trials) == 2
            assert [ref() for ref in trials] == [None, None]
        finally:
            gc.enable()
        want = {"unconverged", "failed:ValueError"}
        if forced:
            want.add("failed:ArithmeticError")
        assert {r.status for r in rows} == want


def test_run_campaign_rows_match_standalone_trials():
    algorithms = ("RANDOM_ETA", "WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA",
                  "SINGLE_UE_CLOSED", "TWO_UE_PROP1")
    camp = Campaign(_scenario(), algorithms, n_trials=2, seed=17,
                    sweep_dbm=(10.0, 30.0))
    key = lambda r: (r.sweep_value, r.algorithm, r.trial)
    shared = sorted((replace(r, wall_ms=0.0) for r in run_campaign(camp)),
                    key=key)
    alone = sorted((replace(run_trial(camp, t, alg, sweep), wall_ms=0.0)
                    for sweep in (10.0, 30.0) for alg in algorithms
                    for t in range(2)), key=key)
    assert shared == alone
    picks = [r.eta for r in shared if r.algorithm == "RANDOM_ETA"]
    assert picks[0::2] == picks[1::2]      # a repeated algorithm repeats
    assert [r.status for r in shared if r.algorithm == "SINGLE_UE_CLOSED"] \
        == ["failed:ValueError"] * 4


def test_emit_csv_formats_and_sorts():
    rows = [
        TrialRow(trial=1, sweep_value=30.0, algorithm="COMPACT_ETA1", eta=1,
                 sum_rate_bits=math.nan, min_ue_rate=math.nan, iters=0,
                 wall_ms=1.25, status="failed:ValueError"),
        TrialRow(trial=0, sweep_value=30.0, algorithm="COMPACT_ETA1", eta=1,
                 sum_rate_bits=12.3456789012, min_ue_rate=0.5, iters=7,
                 wall_ms=2.5, status="ok"),
        TrialRow(trial=0, sweep_value=20.0, algorithm="WA_OPT_ETA", eta=3,
                 sum_rate_bits=8.0, min_ue_rate=1.0, iters=9,
                 wall_ms=3.0, status="ok"),
    ]
    buf = io.StringIO()
    emit_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert lines[1] == "0,20,WA_OPT_ETA,3,8,1,9,3,ok"
    assert lines[2] == "0,30,COMPACT_ETA1,1,12.3456789,0.5,7,2.5,ok"
    assert lines[3] == "1,30,COMPACT_ETA1,1,nan,nan,0,1.25,failed:ValueError"
    assert len(lines) == 4


def test_algorithm_registry_is_closed():
    assert set(ALGORITHMS) == {"WA_OPT_ETA", "COMPACT_ETA1", "RANDOM_ETA",
                               "SINGLE_UE_CLOSED", "TWO_UE_PROP1"}
    with pytest.raises(ValueError, match="unknown algorithms"):
        Campaign(_scenario(), ("EXHAUSTIVE_ETA",), n_trials=1, seed=0)


def test_analyze_two_ue_scans_every_sparsity():
    cfg = small_config(n_ues=2)
    ue = np.array([[95.0, 4.0, 1.5], [108.0, -6.0, 1.5]])
    geo = derive_geometry(BS, SURFACE, ue, cfg)
    table = analyze_two_ue(geo, cfg)
    assert [row["eta"] for row in table] == [1, 2, 3, 4, 5]
    for row in table:
        assert set(row) == {"eta", "eps", "eps_bar", "sum_rate_bits"}
        assert 0.0 <= row["eps"] <= 1.0
        assert row["eps"] == pytest.approx(row["eps_bar"], abs=1e-9)
        assert row["sum_rate_bits"] > 0.0
