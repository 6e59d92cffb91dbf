import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdars.arrays import PassiveBeam, effective_matrix, los_channels, make_mode
from rdars.harness import dbm_to_watt
from rdars.metrics import (BeamformingSolution, RateReport, mse_all, sinr_all,
                           sum_rate)
from rdars.wmmse import (AoResult, PhaseQuadratic, ao_solve,
                         build_phase_quadratic, effective_noise,
                         phase_objective, power_iteration, precoders_at,
                         solve_fixed_eta, sparsity_search, surrogate_value,
                         update_precoders, update_receivers, update_weights,
                         wa_solve, zf_init)

from helpers import random_geometry, small_config


def _random_h(rng, n_ues, dim, scale=1.0):
    return scale * (rng.standard_normal((n_ues, dim))
                    + 1j * rng.standard_normal((n_ues, dim)))


def test_zf_init_nulls_interference():
    rng = np.random.default_rng(0)
    h = _random_h(rng, 3, 6)
    V = zf_init(h, 2.0)
    s = h @ V
    off = s - np.diag(np.diag(s))
    assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(s))
    np.testing.assert_allclose(np.sum(np.abs(V) ** 2, axis=0), 2.0 / 3.0,
                               rtol=1e-12)


def test_zf_init_overloaded_falls_back_to_matched():
    rng = np.random.default_rng(1)
    h = _random_h(rng, 5, 3)
    V = zf_init(h, 1.0)
    assert V.shape == (3, 5)
    # each column aligned with the corresponding channel row
    for k in range(5):
        corr = abs(np.vdot(h[k].conj(), V[:, k])) \
            / (np.linalg.norm(h[k]) * np.linalg.norm(V[:, k]))
        assert corr == pytest.approx(1.0, rel=1e-12)


def test_zf_init_rejects_zero_row():
    h = np.zeros((2, 4), dtype=complex)
    h[0, 0] = 1.0
    with pytest.raises(ValueError):
        zf_init(h, 1.0)


def test_receivers_match_direct_formula():
    rng = np.random.default_rng(2)
    h = _random_h(rng, 3, 5)
    V = _random_h(rng, 5, 3).T.conj().T  # any (5, 3) complex
    mu = update_receivers(h, V, 0.1, 2.0)
    sig = 0.1 * np.sum(np.abs(V) ** 2) / 2.0
    s = h @ V
    for k in range(3):
        want = s[k, k] / (np.sum(np.abs(s[k]) ** 2) + sig)
        assert mu[k] == pytest.approx(want, rel=1e-12)


def test_receivers_minimize_mse():
    rng = np.random.default_rng(3)
    h = _random_h(rng, 2, 4)
    V = _random_h(rng, 4, 2)
    noise, power = 0.3, 1.7
    mu = update_receivers(h, V, noise, power)
    sig = effective_noise(V, noise, power)
    base = mse_all(h, V, mu, sig)
    for delta in (1e-3, -1e-3j, 2e-3 + 1e-3j):
        assert np.all(mse_all(h, V, mu + delta, sig) >= base - 1e-15)


def test_receivers_reject_zero_precoder():
    with pytest.raises(ValueError):
        update_receivers(np.ones((1, 2), dtype=complex),
                         np.zeros((2, 1), dtype=complex), 0.1, 1.0)


def test_weights_are_reciprocal_mses():
    rng = np.random.default_rng(4)
    h = _random_h(rng, 3, 4)
    V = _random_h(rng, 4, 3)
    mu = update_receivers(h, V, 0.2, 1.0)
    zeta = update_weights(h, V, mu, 0.2, 1.0)
    e = mse_all(h, V, mu, effective_noise(V, 0.2, 1.0))
    np.testing.assert_allclose(zeta, 1.0 / e, rtol=1e-12)


def test_post_weight_surrogate_equals_rate_identity():
    """At full power and optimal receivers/weights, the lifted objective
    collapses to K - ln(2) * sum_rate."""
    rng = np.random.default_rng(5)
    h = _random_h(rng, 3, 6)
    power, noise = 2.5, 0.04
    V = zf_init(h, power)  # exactly full power
    mu = update_receivers(h, V, noise, power)
    zeta = update_weights(h, V, mu, noise, power)
    surr = surrogate_value(h, V, mu, zeta, noise, power)
    rate = sum_rate(h, V, noise).sum_rate
    assert surr == pytest.approx(3.0 - math.log(2.0) * rate, rel=1e-10)


def test_precoders_at_satisfies_stationarity():
    rng = np.random.default_rng(6)
    h = _random_h(rng, 3, 5)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    rho = 0.7
    V = precoders_at(h, mu, zeta, rho)
    w = zeta * np.abs(mu) ** 2
    a0 = (h.conj().T * w) @ h
    lhs = (a0 + rho * w.sum() * np.eye(5)) @ V
    rhs = h.conj().T * (zeta * mu)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_precoder_power_decreases_with_multiplier():
    rng = np.random.default_rng(7)
    h = _random_h(rng, 3, 5)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    powers = [float(np.sum(np.abs(precoders_at(h, mu, zeta, rho)) ** 2))
              for rho in (0.1, 0.3, 1.0, 3.0, 10.0)]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_update_precoders_meets_power_budget_tightly():
    rng = np.random.default_rng(8)
    h = _random_h(rng, 3, 6)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    power = 0.05  # below the unconstrained optimum, so the budget binds
    V = update_precoders(h, mu, zeta, power)
    tr = float(np.sum(np.abs(V) ** 2))
    assert tr <= power
    assert power - tr <= 1e-9


def test_update_precoders_keeps_slack_when_budget_is_loose():
    rng = np.random.default_rng(8)
    h = _random_h(rng, 3, 6)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    V = update_precoders(h, mu, zeta, 1.3)
    tr = float(np.sum(np.abs(V) ** 2))
    assert tr < 1.3
    w = zeta * np.abs(mu) ** 2
    a0 = (h.conj().T * w) @ h
    want = np.linalg.lstsq(a0, h.conj().T * (zeta * mu), rcond=None)[0]
    np.testing.assert_allclose(V, want, rtol=1e-12)


def test_update_precoders_binding_budget_matches_reference():
    """The spectral step lands on precoders_at at the multiplier that
    meets the budget; the multiplier is read back from stationarity."""
    rng = np.random.default_rng(8)
    h = _random_h(rng, 3, 6)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    power = 0.05
    V = update_precoders(h, mu, zeta, power)
    tr = float(np.sum(np.abs(V) ** 2))
    assert tr == pytest.approx(power, rel=1e-12)
    w = zeta * np.abs(mu) ** 2
    a0 = (h.conj().T * w) @ h
    rhs = h.conj().T * (zeta * mu)
    rho = float(np.real(np.vdot(V, rhs - a0 @ V))) / (tr * w.sum())
    assert rho > 0.0
    np.testing.assert_allclose(V, precoders_at(h, mu, zeta, rho),
                               rtol=1e-10, atol=1e-12 * np.max(np.abs(V)))


def test_update_precoders_tiny_receiver_lands_on_budget():
    # a 1e-12 receiver puts the minimum-norm precoder 1e23 over budget
    V = update_precoders(np.ones((1, 3), dtype=complex),
                         np.array([1e-12 + 0j]), np.array([1.0]), 1.0)
    assert float(np.sum(np.abs(V) ** 2)) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(V[:, 0], V[0, 0], rtol=1e-12)


def test_update_precoders_zero_gram_returns_zeros():
    V = update_precoders(np.ones((2, 3), dtype=complex), np.zeros(2),
                         np.ones(2), 1.0)
    assert V.shape == (3, 2)
    assert np.all(V == 0.0)


def test_update_precoders_never_increases_surrogate():
    rng = np.random.default_rng(9)
    noise, power = 0.05, 1.3
    for _ in range(20):
        h = _random_h(rng, 3, 6)
        V_old = _random_h(rng, 6, 3)
        V_old *= math.sqrt(power) / np.linalg.norm(V_old)
        mu = update_receivers(h, V_old, noise, power)
        zeta = update_weights(h, V_old, mu, noise, power)
        V_new = update_precoders(h, mu, zeta, power)
        before = surrogate_value(h, V_old, mu, zeta, noise, power)
        after = surrogate_value(h, V_new, mu, zeta, noise, power)
        assert after <= before + 1e-10 * (1.0 + abs(before))


@settings(max_examples=40)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 16))
def test_solve_fixed_eta_holds_constraints_at_any_power(dbm, eta, seed):
    cfg = small_config(total_power=dbm_to_watt(dbm))
    geo = random_geometry(cfg, np.random.default_rng(seed))
    sol, _, report = solve_fixed_eta(geo, cfg, eta)
    assert sol.transmit_power <= cfg.total_power * (1.0 + 1e-12)
    assert np.max(np.abs(np.abs(sol.passive.phi) - 1.0)) <= 1e-12
    assert np.all(np.isfinite(report.rate))
    assert math.isfinite(report.sum_rate)


# --- reflection-phase quadratic -----------------------------------------

def _phase_instance(seed):
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=3)
    geo = random_geometry(cfg, rng)
    ch = los_channels(geo, cfg)
    mode = make_mode(16, 4, 3)
    V = _random_h(rng, 4 + 4, 3, scale=0.3)
    mu = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e5
    zeta = rng.uniform(0.5, 4.0, 3)
    return cfg, ch, mode, V, mu, zeta


def test_phase_quadratic_tracks_surrogate_differences():
    """Changing the reflection profile moves the surrogate exactly as the
    quadratic predicts (constant terms cancel in differences)."""
    cfg, ch, mode, V, mu, zeta = _phase_instance(10)
    quad = build_phase_quadratic(ch, mode, V[:4], V[4:], mu, zeta)
    rng = np.random.default_rng(11)
    beams = [PassiveBeam.from_phases(rng.uniform(0, 2 * math.pi, 16))
             for _ in range(4)]
    surr, qval = [], []
    for beam in beams:
        h = effective_matrix(ch, beam, mode)
        surr.append(surrogate_value(h, V, mu, zeta, cfg.noise_power,
                                    cfg.total_power))
        qval.append(phase_objective(quad, beam))
    for i in range(1, 4):
        want = surr[i] - surr[0]
        got = qval[i] - qval[0]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12 * abs(surr[0]))


def test_phase_quadratic_matrix_is_hermitian_psd():
    _, ch, mode, V, mu, zeta = _phase_instance(12)
    quad = build_phase_quadratic(ch, mode, V[:4], V[4:], mu, zeta)
    np.testing.assert_allclose(quad.matrix, quad.matrix.conj().T,
                               rtol=1e-10, atol=1e-30)
    eigs = np.linalg.eigvalsh(quad.matrix)
    assert eigs.min() >= -1e-12 * max(eigs.max(), 1e-300)
    # connected elements neither reflect nor couple
    assert np.all(quad.matrix[mode.index0, :] == 0.0)
    assert np.all(quad.linear[mode.index0] == 0.0)


def test_power_iteration_single_element_closed_form():
    c = np.array([[0.7]])
    start = np.exp(1j * np.array([0.4, -0.2]))
    for b in (1.0 + 0.0j, -2.0j, 0.3 - 0.4j):
        for p0 in (start, None):  # explicit warm start and default starts
            x, trace = power_iteration(c, np.array([b]), tol=1e-14,
                                       max_iters=20000, p0=p0)
            assert x[0] == pytest.approx(-b / abs(b), abs=1e-5)
            val = phase_objective(PhaseQuadratic(c, np.array([b])),
                                  PassiveBeam(x.conj()))
            assert val == pytest.approx(0.7 - 2.0 * abs(b), abs=1e-7)
            assert np.all(np.diff(trace)
                          >= -1e-8 * (1.0 + np.abs(trace[:-1])))


def test_power_iteration_beats_grid_at_two_elements():
    rng = np.random.default_rng(13)
    for _ in range(5):
        root = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = root @ root.conj().T
        beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x, _ = power_iteration(C, beta, tol=1e-13, max_iters=5000)
        found = phase_objective(PhaseQuadratic(C, beta), PassiveBeam(x.conj()))
        grid = np.exp(1j * np.deg2rad(np.arange(360.0)))
        vals = np.array([
            (np.conj(np.array([a, b])) @ C @ np.array([a, b])).real
            + 2.0 * np.real(beta.conj() @ np.array([a, b]))
            for a in grid[::8] for b in grid[::8]])
        assert found <= vals.min() + 1e-3


def test_power_iteration_keeps_phase_on_zero_column():
    p0 = np.exp(1j * np.array([0.3, 0.7, 0.0]))
    x, trace = power_iteration(np.zeros((2, 2)), np.zeros(2), p0=p0)
    np.testing.assert_allclose(x, p0[:2], rtol=1e-12)
    assert np.all(trace == 0.0)


def test_power_iteration_validates_start_point():
    C = np.eye(2)
    beta = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        power_iteration(C, beta, p0=np.ones(2))
    with pytest.raises(ValueError):
        power_iteration(C, beta, p0=np.array([1.0, 0.0, 1.0]))


# --- full alternating loop ----------------------------------------------

def test_ao_solve_monotone_and_feasible():
    cfg = small_config(n_ues=3)
    geo = random_geometry(cfg, np.random.default_rng(15))
    ch = los_channels(geo, cfg)
    res = ao_solve(ch, make_mode(16, 4, 2), cfg)
    assert res.report.converged
    assert res.report.iterations <= cfg.max_outer_iters
    flat = res.surrogate_trace.ravel()
    assert np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1])))
    assert np.all(np.diff(res.sum_rate_trace) >= -1e-8)
    assert res.solution.transmit_power <= cfg.total_power * (1.0 + 1e-6)
    assert np.max(np.abs(np.abs(res.solution.passive.phi) - 1.0)) <= 1e-12
    assert res.report.sum_rate == pytest.approx(res.sum_rate_trace[-1],
                                                rel=1e-12)
    assert res.report.wall_time > 0.0


def test_ao_solve_mse_identity_at_convergence():
    cfg = small_config(n_ues=3)
    geo = random_geometry(cfg, np.random.default_rng(16))
    ch = los_channels(geo, cfg)
    mode = make_mode(16, 4, 1)
    res = ao_solve(ch, mode, cfg)
    h = effective_matrix(ch, res.solution.passive, mode)
    V = res.solution.V
    mu = update_receivers(h, V, cfg.noise_power, cfg.total_power)
    e = mse_all(h, V, mu, effective_noise(V, cfg.noise_power,
                                          cfg.total_power))
    gamma = sinr_all(h, V, cfg.noise_power)
    np.testing.assert_allclose(e, 1.0 / (1.0 + gamma), atol=1e-9)


def test_ao_solve_flags_nonconvergence():
    cfg = small_config(n_ues=3, max_outer_iters=1, conv_threshold=1e-12)
    geo = random_geometry(cfg, np.random.default_rng(17))
    res = ao_solve(los_channels(geo, cfg), make_mode(16, 4, 2), cfg)
    assert not res.report.converged
    assert res.report.iterations == 1
    assert res.report.sum_rate > 0.0


def test_sparsity_search_breaks_ties_toward_compact():
    cfg = small_config(n_ues=2)

    def stub_solve(eta):
        report = RateReport(sinr=np.zeros(2), rate=np.zeros(2), sum_rate=5.0)
        sol = BeamformingSolution(W=np.zeros((4, 2), dtype=complex),
                                  F=np.zeros((4, 2), dtype=complex),
                                  passive=PassiveBeam.uniform(16))
        return AoResult(solution=sol, mode=make_mode(16, 4, eta),
                        report=report,
                        surrogate_trace=np.zeros((0, 4)),
                        sum_rate_trace=np.zeros(0))

    best, scanned = sparsity_search(stub_solve, cfg)
    assert best.mode.eta == 1              # all rates equal: keep smallest
    assert [eta for eta, _ in scanned] == [1, 2, 3, 4, 5]


def test_wa_solve_returns_best_of_scan():
    cfg = small_config(n_ues=2, conv_threshold=1e-3)
    geo = random_geometry(cfg, np.random.default_rng(18))
    sol, mode, report = wa_solve(geo, cfg)
    assert mode.eta in range(1, 6)
    per_eta = []
    for eta in range(1, 6):
        _, _, rep = solve_fixed_eta(geo, cfg, eta)
        per_eta.append(rep.sum_rate)
    assert report.sum_rate == pytest.approx(max(per_eta), rel=1e-9)
    assert sol.transmit_power <= cfg.total_power * (1.0 + 1e-6)
