import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rdars import wmmse
from rdars.arrays import (PassiveBeam, effective_matrix, feasible_sparsities,
                          los_channels, make_mode)
from rdars.harness import dbm_to_watt
from rdars.metrics import (BeamformingSolution, RateReport, mse_all, sinr_all,
                           sum_rate)
from rdars.scenario import default_scenario, scenario_geometry
from rdars.wmmse import (AoResult, PhaseQuadratic, ao_solve,
                         ao_solve_levels, build_phase_quadratic,
                         effective_noise, phase_objective, power_iteration,
                         precoders_at, solve_fixed_eta, sparsity_search,
                         surrogate_value, update_precoders, update_receivers,
                         update_weights, wa_solve, zf_init)

from helpers import (anderson_point, anderson_reference, lane_etas, lift,
                     mode_stack, random_geometry, small_config)


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


@pytest.mark.parametrize("n_ues", [3, 9])
def test_zf_init_lane_stack_equals_per_lane_calls(n_ues):
    """A stack of channels with one power per lane gives, lane by lane,
    exactly the two-dimensional calls: the pseudoinverse with 3 UEs on 8
    dimensions, the matched filter with 9 (K > N_t + a)."""
    rng = np.random.default_rng(n_ues)
    h = _random_h(rng, 6 * n_ues, 8).reshape(6, n_ues, 8)
    h *= 10.0 ** rng.uniform(-8.0, 2.0, (6, 1, 1))
    power = 10.0 ** rng.uniform(-4.0, 6.0, 6)
    got = zf_init(h, power)
    assert np.array_equal(got, np.stack([zf_init(h[i], power[i])
                                         for i in range(6)]))
    assert np.array_equal(zf_init(h, 2.0), np.stack([zf_init(one, 2.0)
                                                     for one in h]))
    h[4, 1] = 0.0
    with pytest.raises(ValueError, match="zero effective channel row"):
        zf_init(h, power)


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


def _precoder_inputs(seed):
    rng = np.random.default_rng(seed)
    h = _random_h(rng, 3, 6)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    return h, mu, zeta


def test_update_precoders_meets_power_budget_tightly():
    # budgets below (0.05) and above (1.3, 1e6) the 0.085 W power of the
    # minimum-norm precoder all end on the budget
    h, mu, zeta = _precoder_inputs(8)
    for power in (0.05, 1.3, 1e6):
        V, _ = update_precoders(h, mu, zeta, 0.05, power)
        tr = float(np.sum(np.abs(V) ** 2))
        assert tr == pytest.approx(power, rel=1e-12)


def test_update_precoders_binding_budget_matches_reference():
    """The step is precoders_at at rho = noise / power, scaled onto the
    budget, with the receivers divided by the same factor."""
    h, mu, zeta = _precoder_inputs(8)
    for noise, power in ((0.05, 0.05), (0.05, 1.3), (7e-13, 1e6)):
        V, mu_out = update_precoders(h, mu, zeta, noise, power)
        ref = precoders_at(h, mu, zeta, noise / power)
        c = math.sqrt(power / float((np.abs(ref) ** 2).sum()))
        assert np.array_equal(V, c * ref)
        assert np.array_equal(mu_out, mu / c)


def test_update_precoders_tiny_receiver_lands_on_budget():
    # a 1e-12 receiver puts the unscaled minimizer 1e23 over a 1 W budget
    for power in (1e-6, 1.0, 1e3):
        V, mu = update_precoders(np.ones((1, 3), dtype=complex),
                                 np.array([1e-12 + 0j]), np.array([1.0]),
                                 0.1, power)
        assert float(np.sum(np.abs(V) ** 2)) == pytest.approx(power, rel=1e-12)
        np.testing.assert_allclose(V[:, 0], V[0, 0], rtol=1e-12)
        assert np.all(np.isfinite(mu))


def test_precoders_stay_in_the_row_space_at_a_tiny_multiplier():
    """One UE on h = ones(1, 3) with a 1e-12 receiver at rho = 1e-7: the
    weighted Gram matrix is rank one and rho s0 I is 1e-31 I, so the
    precoder lies in the row space of h and its entries are equal. A
    general 3 x 3 LU solve loses that null space (entries 3.8e-9 apart);
    the 1 x 1 push-through solve keeps them equal to 1e-12. Both forms of
    the solve agree where both apply."""
    V, _ = update_precoders(np.ones((1, 3), dtype=complex),
                            np.array([1e-12 + 0j]), np.array([1.0]), 0.1, 1e6)
    np.testing.assert_allclose(V[:, 0], V[0, 0], rtol=1e-12)
    h, mu, zeta = _precoder_inputs(8)
    for rho in (1e-3, 0.7):
        w = zeta * np.abs(mu) ** 2
        full = np.linalg.solve((h.conj().T * w) @ h + rho * w.sum()
                               * np.eye(6), h.conj().T * (zeta * mu))
        np.testing.assert_allclose(precoders_at(h, mu, zeta, rho), full,
                                   rtol=1e-10)


def test_update_precoders_zero_gram_returns_zeros():
    mu = np.zeros(2, dtype=complex)
    V, mu_out = update_precoders(np.ones((2, 3), dtype=complex), mu,
                                 np.ones(2), 0.1, 1.0)
    assert V.shape == (3, 2)
    assert np.all(V == 0.0)
    assert mu_out is mu


def test_update_precoders_never_increases_surrogate():
    rng = np.random.default_rng(9)
    noise, power = 0.05, 1.3
    for _ in range(20):
        h = _random_h(rng, 3, 6)
        V_old = _random_h(rng, 6, 3)
        V_old *= math.sqrt(power) / np.linalg.norm(V_old)
        mu = update_receivers(h, V_old, noise, power)
        zeta = update_weights(h, V_old, mu, noise, power)
        V_new, mu_new = update_precoders(h, mu, zeta, noise, power)
        before = surrogate_value(h, V_old, mu, zeta, noise, power)
        after = surrogate_value(h, V_new, mu_new, zeta, noise, power)
        assert after <= before + 1e-10 * (1.0 + abs(before))


def test_surrogate_value_is_invariant_under_pair_scaling():
    """(V, mu) -> (c V, mu / c) leaves every scaled-noise MSE unchanged."""
    rng = np.random.default_rng(21)
    h = _random_h(rng, 3, 6)
    V = _random_h(rng, 6, 3)
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.uniform(0.5, 3.0, 3)
    noise, power = 0.05, 1.3
    base = surrogate_value(h, V, mu, zeta, noise, power)
    for c in (1e-6, 0.3, 2.0, 1e5):
        scaled = surrogate_value(h, c * V, mu / c, zeta, noise, power)
        assert scaled == pytest.approx(base, rel=1e-12)


@settings(max_examples=40)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=2 ** 16))
def test_solve_fixed_eta_holds_constraints_at_any_power(dbm, eta, n_ues, seed):
    # n_ues > n_tx + a = 8 starts from the matched filter
    cfg = small_config(n_ues=n_ues, total_power=dbm_to_watt(dbm))
    geo = random_geometry(cfg, np.random.default_rng(seed))
    sol, _, report = solve_fixed_eta(geo, cfg, eta)
    assert sol.transmit_power == pytest.approx(cfg.total_power, rel=1e-12)
    assert np.max(np.abs(np.abs(sol.passive.phi) - 1.0)) <= 1e-12
    assert np.all(np.isfinite(report.rate))
    assert math.isfinite(report.sum_rate)


def _high_power_solve(eta):
    cfg = small_config(n_ues=6, total_power=dbm_to_watt(90))
    geo = random_geometry(cfg, np.random.default_rng(0))
    return cfg, ao_solve(los_channels(geo, cfg), make_mode(16, 4, eta), cfg)


def test_ao_solve_surrogate_nonincreasing_at_high_power():
    _, res = _high_power_solve(1)
    flat = res.surrogate_trace.ravel()
    assert np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1])))
    assert np.all(np.diff(res.sum_rate_trace) >= -1e-8)


def test_ao_solve_spends_full_budget_at_high_power():
    cfg, res = _high_power_solve(3)
    assert res.solution.transmit_power == pytest.approx(cfg.total_power,
                                                        rel=1e-12)


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


def _homogenized(C, beta_vec):
    n = beta_vec.shape[0]
    D = np.zeros((n + 1, n + 1), dtype=complex)
    D[:n, :n] = -C
    D[:n, n] = -beta_vec
    D[n, :n] = -beta_vec.conj()
    return D


def _diagonal_shift(D):
    """Lambda_ii = sum_{j != i} |D_ij| - D_ii + 1e-9 max_i sum_j |D_ij|,
    written out entry by entry."""
    size = D.shape[0]
    rows = [sum(abs(D[i, j]) for j in range(size)) for i in range(size)]
    margin = 1e-9 * max(rows)
    return np.array([sum(abs(D[i, j]) for j in range(size) if j != i)
                     - D[i, i].real + margin for i in range(size)])


def _two_product_power_iteration(C, beta_vec, tol=1e-10, max_iters=1000,
                                 p0=None):
    """Reference copy of the step loop that recomputes p^H D p from scratch
    and guards zero entries on every step (two products per step). Returns
    x, the objective trace, and the steps whose product had a zero entry."""
    n = beta_vec.shape[0]
    D = _homogenized(C, beta_vec)
    if p0 is None:
        lead = np.linalg.eigh(D)[1][:, -1]
        mags = np.abs(lead)
        lead = np.where(mags > 0.0,
                        lead / np.where(mags > 0.0, mags, 1.0), 1.0)
        starts = [np.ones(n + 1, dtype=complex), lead]
    else:
        p = np.asarray(p0, dtype=complex)
        starts = [p / np.abs(p)]
    shifted = D + np.diag(_diagonal_shift(D))
    zero_steps = []

    def iterate(p):
        obj = float(np.real(p.conj() @ D @ p))
        history = [obj]
        for step in range(max_iters):
            z = shifted @ p
            mags = np.abs(z)
            if np.any(mags == 0.0):
                zero_steps.append(step)
            p_new = np.where(mags > 0.0,
                             z / np.where(mags > 0.0, mags, 1.0), p)
            obj_new = float(np.real(p_new.conj() @ D @ p_new))
            history.append(obj_new)
            done = abs(obj_new - obj) <= tol * (1.0 + abs(obj))
            p, obj = p_new, obj_new
            if done:
                break
        return p, np.asarray(history)

    p_best, hist_best = iterate(starts[0])
    for p_start in starts[1:]:
        p_alt, hist_alt = iterate(p_start)
        if hist_alt[-1] > hist_best[-1]:
            p_best, hist_best = p_alt, hist_alt
    x = np.exp(1j * np.angle(p_best[:n] * np.conj(p_best[n])))
    return x, hist_best, zero_steps


def _random_phase_problem(rng, n):
    root = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n + 1))
    return root @ root.conj().T, beta, p0


@pytest.mark.parametrize("start, max_iters", [
    ("warm", 1000),
    ("none", 1000),
    ("warm", 3),             # stops at the step cap
])
def test_power_iteration_matches_two_product_reference(start, max_iters):
    rng = np.random.default_rng(41)
    for n in (1, 4, 12, 32):
        C, beta, p0 = _random_phase_problem(rng, n)
        kwargs = dict(max_iters=max_iters, p0=p0 if start == "warm" else None)
        x, hist = power_iteration(C, beta, **kwargs)
        x_ref, hist_ref, _ = _two_product_power_iteration(C, beta, **kwargs)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)
        assert len(hist) == len(hist_ref)
        np.testing.assert_allclose(hist, hist_ref, rtol=1e-9,
                                   atol=1e-12 * np.abs(hist_ref).max())
        if max_iters == 3 and n > 1:      # n = 1 is exact after one step
            assert len(hist) == max_iters + 1


def test_power_iteration_products_vanish_only_when_matrix_is_zero():
    """Every row of D + Lambda has a diagonal entry larger than the moduli
    of its other entries by the margin, so a product entry has modulus at
    least the margin and can vanish only when D is zero, and then at the
    first product. C = [[c1, 2], [2, 20]], beta = (0, 8) from the start
    (1, -1, -1) gave an exact zero in the second product under the
    smallest scalar shift (at c1 near 22.6); under the diagonal shift no
    product has a zero entry for any c1."""
    p0 = np.array([1.0, -1.0, -1.0], dtype=complex)
    beta = np.array([0.0, 8.0 + 0.0j])
    for c1 in (0.0, 2.0, 20.0, 22.60147057035069, 1e3):
        C = np.array([[c1, 2.0], [2.0, 20.0]])
        x_ref, hist_ref, zero_steps = _two_product_power_iteration(C, beta,
                                                                   p0=p0)
        assert zero_steps == []
        x, hist = power_iteration(C, beta, p0=p0)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)
        assert len(hist) == len(hist_ref)
        assert np.all(np.diff(hist) >= -1e-8 * (1.0 + np.abs(hist[:-1])))
    _, _, zero_steps = _two_product_power_iteration(
        np.zeros((2, 2)), np.zeros(2, dtype=complex), p0=p0, max_iters=3)
    assert zero_steps == [0]           # the stop test ends a flat trace


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=40), st.booleans(), st.booleans(),
       st.floats(min_value=0.0, max_value=0.6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_power_iteration_diagonal_shift_majorizes(n, psd, warm, zero_frac,
                                                  seed):
    """D + Lambda is positive semidefinite for PSD and indefinite C with
    zeroed rows and columns, so the trace never decreases. Zeroed
    (connected) elements keep their start phase, so relative to the start
    they all turn with the homogenizing entry alone."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    C = root @ root.conj().T if psd else 0.5 * (root + root.conj().T)
    beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zeroed = rng.random(n) < zero_frac
    C[zeroed, :] = 0.0
    C[:, zeroed] = 0.0
    beta[zeroed] = 0.0
    D = _homogenized(C, beta)
    lam = _diagonal_shift(D)
    norm = float(np.linalg.norm(D))
    assert np.linalg.eigvalsh(D + np.diag(lam)).min() >= -1e-12 * norm

    p0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n + 1)) if warm else None
    x, hist = power_iteration(C, beta, p0=p0)
    assert np.all(np.diff(hist) >= -1e-12 * (1.0 + norm) * (n + 1))
    assert np.max(np.abs(np.abs(x) - 1.0)) <= 1e-12
    if warm:
        assert hist[0] == pytest.approx(float(np.real(p0.conj() @ D @ p0)),
                                        rel=1e-9, abs=1e-9 * norm)
        turn = x[zeroed] / (p0[:n] * np.conj(p0[n]))[zeroed]
        assert np.max(np.abs(turn - turn[:1]), initial=0.0) <= 1e-12


def test_power_iteration_validates_start_point():
    C = np.eye(2)
    beta = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        power_iteration(C, beta, p0=np.ones(2))
    with pytest.raises(ValueError):
        power_iteration(C, beta, p0=np.array([1.0, 0.0, 1.0]))


def _dense_shifted(quad):
    """The homogenized D and the shift Lambda that ``power_iteration``
    builds from a (lane-stacked) phase quadratic, formed densely."""
    C, beta = quad.matrix, quad.linear
    n = beta.shape[-1]
    D = np.zeros(beta.shape[:-1] + (n + 1, n + 1), dtype=complex)
    D[..., :n, :n] = -C
    D[..., :n, n] = -beta
    D[..., n, :n] = -beta.conj()
    row_sums = np.abs(D).sum(axis=-1)
    diagonal = np.diagonal(D, axis1=-2, axis2=-1)
    return D, (row_sums - np.abs(diagonal) - diagonal.real
               + 1e-9 * row_sums.max(axis=-1, keepdims=True))


@settings(max_examples=30)
@given(st.sampled_from([1, 2, 4, 16]),
       st.integers(min_value=1, max_value=8),
       st.booleans(),
       st.integers(min_value=0, max_value=2 ** 16))
@example(n_connected=16, n_ues=3, zero_w=False, seed=0)
@example(n_connected=4, n_ues=3, zero_w=True, seed=0)
@example(n_connected=1, n_ues=8, zero_w=False, seed=1)
def test_phase_operator_matches_the_dense_one(n_connected, n_ues, zero_w,
                                              seed):
    """The factored operator of the AO phase block equals the dense
    D + Lambda built from ``build_phase_quadratic``: the product with a
    random unit-modulus point, the shift and the objective p^H D p, to
    1e-12 relative, on random states of every level, a = 1 and a = N (a
    zero operator), and W = 0 (also zero). A zero operator keeps the
    phases, and no RuntimeWarning escapes the block."""
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=n_ues, n_connected=n_connected)
    channels = los_channels(random_geometry(cfg, rng), cfg)
    modes = [make_mode(16, n_connected, eta)
             for eta in feasible_sparsities(16, n_connected)]
    lanes, dim = len(modes), cfg.n_tx + n_connected
    V = _random_h(rng, lanes * dim, n_ues).reshape(lanes, dim, n_ues)
    if zero_w:
        V[:, :cfg.n_tx] = 0.0
    W, F = V[:, :cfg.n_tx], V[:, cfg.n_tx:]
    mu = _random_h(rng, lanes, n_ues) * 1e3
    zeta = rng.uniform(0.5, 2.0, (lanes, n_ues))
    p = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (lanes, 17)))

    D, shift = _dense_shifted(build_phase_quadratic(
        channels, mode_stack(modes), W, F, mu, zeta))
    lanes = wmmse._lane_operands(channels, modes)
    t = channels.b_aod.conj() @ W / math.sqrt(cfg.n_tx)
    apply, got_shift = wmmse._phase_operator(lanes, t, F, mu, zeta)
    z = (D @ p[..., None])[..., 0] + shift * p
    got_z = apply(p)
    objective = np.einsum("li,lij,lj->l", p.conj(), D, p).real
    got_objective = np.einsum("li,li->l", p.conj(), got_z).real \
        - got_shift.sum(axis=-1)
    scale = shift.sum(axis=-1)
    assert np.all(np.abs(got_shift - shift)
                  <= 1e-12 * shift.max(axis=-1, keepdims=True))
    assert np.all(np.abs(got_z - z)
                  <= 1e-12 * np.abs(z).max(axis=-1, keepdims=True))
    assert np.all(np.abs(got_objective - objective) <= 1e-12 * scale)

    zero = n_connected == 16 or zero_w
    assert (scale == 0.0).all() == zero
    if zero:
        phi = wmmse._phase_block(lanes, t, F, mu, zeta, p,
                                 max_iters=wmmse._PHASE_STEPS)
        np.testing.assert_allclose(phi, p[:, :-1].conj() * p[:, -1:],
                                   rtol=0.0, atol=1e-15)


def test_phase_block_lane_alone_equals_lane_in_a_stack(monkeypatch):
    """At N=64, one lane's phase block run alone is bit-equal to the same
    lane inside the 12-lane stack of a lockstep round (six levels at two
    powers, states recorded from ``ao_solve_levels``); so are its shift
    and its operator's product with the start point, where a last-bit
    change would not always survive to the phases."""
    cfg = small_config(n_elems=64, n_ues=3, max_outer_iters=4)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(8)),
                            cfg)
    lanes = [(make_mode(64, 4, eta), replace(cfg, total_power=dbm_to_watt(d)))
             for eta in (1, 2, 5, 9, 13, 21) for d in (10.0, 60.0)]
    rounds = []
    plain = wmmse._phase_block

    def recording(*args, **kwargs):
        rounds.append((args, kwargs))
        return plain(*args, **kwargs)

    monkeypatch.setattr(wmmse, "_phase_block", recording)
    ao_solve_levels(channels, cfg,
                    [(mode, c.total_power) for mode, c in lanes])
    assert len(rounds[0][0][0].abar) == 12
    for (stack, t, F, mu, zeta, p0), kwargs in rounds:
        x = plain(stack, t, F, mu, zeta, p0, **kwargs)
        apply, shift = wmmse._phase_operator(stack, t, F, mu, zeta)
        z = apply(p0)
        for i, eta in enumerate(lane_etas(stack)):
            one = slice(i, i + 1)
            args = (wmmse._lane_operands(channels, [make_mode(64, 4, eta)]),
                    t[one], F[one], mu[one], zeta[one])
            assert np.array_equal(plain(*args, p0[one], **kwargs)[0], x[i])
            apply_one, shift_one = wmmse._phase_operator(*args)
            assert np.array_equal(shift_one[0], shift[i])
            assert np.array_equal(apply_one(p0[one])[0], z[i])


# --- lane-stacked kernels -----------------------------------------------

@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 4, 16]),
       st.integers(1, 12))
def test_map_kernels_lane_stack_equals_per_lane_calls(seed, n_connected,
                                                      n_ues):
    """Every kernel of the map, called once on a stack of lanes (one per
    sparsity level), equals its two-dimensional calls lane by lane; the
    last lane has no receiver, so the precoder step zeroes it alone."""
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=n_ues, n_connected=n_connected)
    power, noise = cfg.total_power, cfg.noise_power
    channels = los_channels(random_geometry(cfg, rng), cfg)
    modes = [make_mode(16, n_connected, eta)
             for eta in feasible_sparsities(16, n_connected)]
    lanes, dim = len(modes), cfg.n_tx + n_connected
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (lanes, 16)))
    h = np.stack([effective_matrix(channels, PassiveBeam(p), mode)
                  for p, mode in zip(phi, modes)])
    V = _random_h(rng, lanes * dim, n_ues).reshape(lanes, dim, n_ues)
    mu = _random_h(rng, lanes, n_ues) * 1e3
    mu[-1] = 0.0
    zeta = rng.uniform(0.5, 2.0, (lanes, n_ues))

    def same(stacked, per_lane):
        assert np.array_equal(stacked, np.stack(per_lane))

    same(update_receivers(h, V, noise, power),
         [update_receivers(h[i], V[i], noise, power) for i in range(lanes)])
    same(effective_noise(V, noise, power),
         [effective_noise(V[i], noise, power) for i in range(lanes)])
    same(surrogate_value(h, V, mu, zeta, noise, power),
         [surrogate_value(h[i], V[i], mu[i], zeta[i], noise, power)
          for i in range(lanes)])
    same(precoders_at(h, mu + 1.0, zeta, 0.1),
         [precoders_at(h[i], mu[i] + 1.0, zeta[i], 0.1) for i in range(lanes)])
    V_new, mu_new = update_precoders(h, mu, zeta, noise, power)
    alone = [update_precoders(h[i], mu[i], zeta[i], noise, power)
             for i in range(lanes)]
    same(V_new, [v for v, _ in alone])
    same(mu_new, [m for _, m in alone])
    quad = build_phase_quadratic(channels, mode_stack(modes), V[:, :cfg.n_tx],
                                 V[:, cfg.n_tx:], mu, zeta)
    quads = [build_phase_quadratic(channels, modes[i], V[i, :cfg.n_tx],
                                   V[i, cfg.n_tx:], mu[i], zeta[i])
             for i in range(lanes)]
    same(quad.matrix, [q.matrix for q in quads])
    same(quad.linear, [q.linear for q in quads])


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 4, 16]),
       st.integers(1, 12))
@example(seed=0, n_connected=2, n_ues=1)     # 15 lanes, 1 to 8 steps
@example(seed=1, n_connected=4, n_ues=2)
def test_mm_steps_lane_stack_equals_per_lane_calls(seed, n_connected, n_ues):
    """The MM step loop that ``_phase_block`` runs, on a stack of lanes
    (one per sparsity level) with a stop test that ends them after
    different step counts, equals its one-lane calls: a stopped lane keeps
    its point and repeats its last objective. The last lane has no
    receiver, so its operator is zero and it stops after one step."""
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=n_ues, n_connected=n_connected)
    channels = los_channels(random_geometry(cfg, rng), cfg)
    modes = [make_mode(16, n_connected, eta)
             for eta in feasible_sparsities(16, n_connected)]
    lanes = len(modes)
    V = _random_h(rng, lanes * (1 + n_connected), n_ues).reshape(
        lanes, 1 + n_connected, n_ues)
    mu = _random_h(rng, lanes, n_ues) * 1e3
    mu[-1] = 0.0
    zeta = rng.uniform(0.5, 2.0, (lanes, n_ues))
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (lanes, 16)))
    p0 = np.concatenate([phi.conj(), np.ones((lanes, 1))], axis=1)

    def steps(stack, rows):
        apply, shift = wmmse._phase_operator(stack, V[rows, 0], V[rows, 1:],
                                             mu[rows], zeta[rows])
        return wmmse._mm_steps(apply, shift.sum(-1), p0[rows], 1e-9, 40)

    p, hist = steps(wmmse._lane_operands(channels, modes), slice(None))
    for i, mode in enumerate(modes):
        p_i, hist_i = steps(wmmse._lane_operands(channels, [mode]),
                            slice(i, i + 1))
        assert np.array_equal(p[i], p_i[0])
        assert np.array_equal(hist[:len(hist_i), i], hist_i[:, 0])
        assert np.all(hist[len(hist_i):, i] == hist_i[-1, 0])
    assert len(hist_i) == 2 and np.array_equal(p[-1], p0[-1])


def test_mm_steps_guard_skips_stopped_lanes():
    """The monotonicity guard of the MM step loop reads the running lanes
    only: a lane that met the stop test keeps its point and objective even
    when the step it no longer takes would lower the objective, which
    raises ArithmeticError while the lane runs."""
    twist = np.exp(1j * np.array([0.0, 0.5, 1.0]) * math.pi)
    calls = []

    def apply(p):
        # lane 0 climbs by 3 per step; lane 1 is flat for one step, then
        # its step would take the objective from 3 to 0
        calls.append(None)
        late = 0.5 * twist * p[1] if len(calls) > 2 else p[1]
        return np.stack([len(calls) * p[0], late])

    p0 = np.array([[1.0, 1j, -1.0]] * 2)        # exactly unit modulus
    p, hist = wmmse._mm_steps(apply, np.zeros(2), p0, 0.0, 6)
    assert len(calls) == 7
    assert np.array_equal(p, p0)
    assert np.array_equal(hist, [[3.0 * k, 3.0] for k in range(1, 8)])
    calls.clear()
    with pytest.raises(ArithmeticError):
        wmmse._mm_steps(apply, np.zeros(2), p0, -1.0, 6)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 4, 16]),
       st.integers(1, 12))
@example(seed=0, n_connected=4, n_ues=3)      # K < 1 + a
@example(seed=1, n_connected=4, n_ues=7)      # 1 + a < K <= N_t + a
@example(seed=2, n_connected=2, n_ues=9)      # K > N_t + a
def test_reduced_coordinates_match_the_full_rows(seed, n_connected, n_ues):
    """The lockstep map runs in the rank-one LoS coordinates V = [t; F],
    W = q t with q = b_aod / sqrt(N_t). Its reduced rows times a reduced
    precoder equal the full effective rows times the lifted one to 1e-12;
    its start, lifted, equals ``zf_init`` on the full rows (the
    pseudoinverse up to K = N_t + a, matched filters beyond) to 64 eps
    times the squared condition number of the rows (the full and reduced
    rows share their nonzero singular values; a pseudoinverse is accurate
    to about cond eps of its norm, and its smallest column, scaled to an
    equal power share, to cond^2 eps); and every returned W lies in
    span(b_aod)."""
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=n_ues, n_connected=n_connected,
                       max_outer_iters=3)
    channels = los_channels(random_geometry(cfg, rng), cfg)
    modes = [make_mode(16, n_connected, eta)
             for eta in feasible_sparsities(16, n_connected)]
    lanes = len(modes)
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (lanes, 16)))
    V = _random_h(rng, lanes * (1 + n_connected), n_ues).reshape(
        lanes, 1 + n_connected, n_ues)
    reduced = wmmse._reduced_rows(wmmse._lane_operands(channels, modes), phi)
    for i in range(lanes):
        full = effective_matrix(channels, PassiveBeam(phi[i]), modes[i])
        want = full @ lift(channels, V[i])
        got = reduced[i] @ V[i]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    starts = []
    plain = wmmse._zf_columns

    def recording(*args):
        starts.append(plain(*args))
        return starts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wmmse, "_zf_columns", recording)
        results = ao_solve_levels(
            channels, cfg, [(mode, cfg.total_power) for mode in modes])
    (start,) = starts
    uniform = wmmse._reduced_rows(wmmse._lane_operands(channels, modes),
                                  np.ones((lanes, 16), dtype=complex))
    for i, mode in enumerate(modes):
        want = zf_init(effective_matrix(channels, PassiveBeam.uniform(16),
                                        mode), cfg.total_power)
        tol = 64 * np.finfo(float).eps * np.linalg.cond(uniform[i]) ** 2
        assert np.abs(lift(channels, start[i]) - want).max() \
            <= tol * np.abs(want).max()
    q = channels.b_aod / math.sqrt(cfg.n_tx)
    for res in results:
        W = res.solution.W
        off = W - np.outer(q, q.conj() @ W)
        assert np.abs(off).max() <= 1e-12 * np.abs(W).max()


def _assert_same_solve(lockstep, alone):
    assert np.array_equal(lockstep.solution.W, alone.solution.W)
    assert np.array_equal(lockstep.solution.F, alone.solution.F)
    assert np.array_equal(lockstep.solution.passive.phi,
                          alone.solution.passive.phi)
    assert np.array_equal(lockstep.surrogate_trace, alone.surrogate_trace)
    assert np.array_equal(lockstep.sum_rate_trace, alone.sum_rate_trace)
    assert lockstep.report.iterations == alone.report.iterations
    assert lockstep.report.converged == alone.report.converged
    assert lockstep.report.sum_rate == alone.report.sum_rate
    assert (lockstep.accepted, lockstep.rejected) == (alone.accepted,
                                                      alone.rejected)


@settings(max_examples=25)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([1, 2, 4, 16]),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 16))
@example(dbm=90.0, n_ues=12, n_connected=4, cap=3, seed=0)
@example(dbm=50.0, n_ues=3, n_connected=4, cap=200, seed=1)
def test_ao_solve_levels_equals_one_level_solves(dbm, n_ues, n_connected,
                                                 cap, seed):
    """Lockstep levels, which stop in different rounds, give exactly the
    one-level ``ao_solve`` results: -40...90 dBm, K > N_t + a (the
    matched-filter start), a = 1 and a = N. No lanes give no outcomes."""
    cfg = small_config(n_ues=n_ues, n_connected=n_connected,
                       total_power=dbm_to_watt(dbm), max_outer_iters=cap)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(seed)),
                            cfg)
    modes = [make_mode(16, n_connected, eta)
             for eta in feasible_sparsities(16, n_connected)]
    results = ao_solve_levels(channels, cfg,
                              [(mode, cfg.total_power) for mode in modes])
    assert [r.mode for r in results] == modes
    assert ao_solve_levels(channels, cfg, []) == []
    for mode, lockstep in zip(modes, results):
        _assert_same_solve(lockstep, ao_solve(channels, mode, cfg))


def test_ao_solve_levels_isolates_a_failing_level(monkeypatch):
    """A round in which one level raises is redone lane by lane: that
    level ends with its exception and the others finish as if alone."""
    cfg = small_config(n_ues=3)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(3)),
                            cfg)
    modes = [make_mode(16, 4, eta) for eta in range(1, 6)]
    alone = [ao_solve(channels, mode, cfg) for mode in modes]
    plain = wmmse._phase_block

    def failing_at_three(lanes, *args, **kwargs):
        if 3 in lane_etas(lanes):
            raise ArithmeticError("forced failure at level 3")
        return plain(lanes, *args, **kwargs)

    monkeypatch.setattr(wmmse, "_phase_block", failing_at_three)
    results = ao_solve_levels(channels, cfg,
                              [(mode, cfg.total_power) for mode in modes])
    assert isinstance(results[2], ArithmeticError)
    for i in (0, 1, 3, 4):
        _assert_same_solve(results[i], alone[i])
    with pytest.raises(ArithmeticError, match="level 3"):
        ao_solve(channels, modes[2], cfg)


def test_map_kernels_take_one_power_per_lane():
    """With one transmit power per lane, every power-dependent kernel of
    the map equals its two-dimensional calls at that lane's power."""
    rng = np.random.default_rng(5)
    cfg = small_config(n_ues=5)
    noise, dim, lanes = cfg.noise_power, cfg.n_tx + cfg.n_connected, 4
    power = dbm_to_watt(np.array([-40.0, 10.0, 10.0, 90.0]))
    h = _random_h(rng, lanes * 5, dim).reshape(lanes, 5, dim)
    V = _random_h(rng, lanes * dim, 5).reshape(lanes, dim, 5)
    mu = _random_h(rng, lanes, 5)
    mu[1] = 0.0
    zeta = rng.uniform(0.5, 2.0, (lanes, 5))

    def same(stacked, per_lane):
        assert np.array_equal(stacked, np.stack(per_lane))

    same(effective_noise(V, noise, power),
         [effective_noise(V[i], noise, power[i]) for i in range(lanes)])
    same(update_receivers(h, V, noise, power),
         [update_receivers(h[i], V[i], noise, power[i])
          for i in range(lanes)])
    same(surrogate_value(h, V, mu, zeta, noise, power),
         [surrogate_value(h[i], V[i], mu[i], zeta[i], noise, power[i])
          for i in range(lanes)])
    same(precoders_at(h, mu + 1.0, zeta, noise / power),
         [precoders_at(h[i], mu[i] + 1.0, zeta[i], noise / power[i])
          for i in range(lanes)])
    V_new, mu_new = update_precoders(h, mu, zeta, noise, power)
    alone = [update_precoders(h[i], mu[i], zeta[i], noise, power[i])
             for i in range(lanes)]
    same(V_new, [v for v, _ in alone])
    same(mu_new, [m for _, m in alone])


def _same_outcome(lockstep, lane, channels):
    """A lockstep lane equals ``ao_solve`` on that lane, failure included."""
    mode, cfg = lane
    try:
        alone = ao_solve(channels, mode, cfg)
    except Exception as exc:
        assert type(lockstep) is type(exc)
        assert str(lockstep) == str(exc)
        return False
    _assert_same_solve(lockstep, alone)
    return True


@settings(max_examples=20)
@given(st.lists(st.floats(min_value=-40.0, max_value=90.0), min_size=1,
                max_size=4),
       st.integers(min_value=9, max_value=12),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=2 ** 16))
@example(dbms=[-40.0, 50.0, 90.0], n_ues=12, cap=3, fail_eta=2, seed=0)
def test_ao_solve_levels_mixed_powers_equal_one_lane_solves(dbms, n_ues, cap,
                                                           fail_eta, seed):
    """Lanes at several transmit powers (-40...90 dBm) and every level, with
    K > N_t + a (the matched-filter start) and caps 1-3 so lanes stop in
    different rounds, give exactly the one-lane ``ao_solve`` outcomes;
    a level forced to raise fails at every power and spares the rest."""
    base = small_config(n_ues=n_ues, max_outer_iters=cap)
    channels = los_channels(
        random_geometry(base, np.random.default_rng(seed)), base)
    lanes = [(make_mode(16, 4, eta), replace(base, total_power=dbm_to_watt(d)))
             for d in dbms for eta in feasible_sparsities(16, 4)]
    plain = wmmse._phase_block

    def failing(lanes, *args, **kwargs):
        if fail_eta in lane_etas(lanes):
            raise ArithmeticError(f"forced failure at level {fail_eta}")
        return plain(lanes, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wmmse, "_phase_block", failing)
        results = ao_solve_levels(channels, base, [
            (mode, cfg.total_power) for mode, cfg in lanes])
        solved = [_same_outcome(res, lane, channels)
                  for res, lane in zip(results, lanes)]
    failed = [lane[0].eta == fail_eta for lane in lanes]
    assert solved == [not f for f in failed]


def _hook_candidate_evaluations(monkeypatch, observe):
    """Call ``observe(etas)`` before every candidate evaluation of
    ``ao_solve_levels``: a ``_rated`` call after a map (the start's
    follows ``_zf_columns``), with the level of each lane found by its
    reduced rows among the last map's."""
    last = {}
    plain_start = wmmse._zf_columns
    plain_map, plain_rated = wmmse._ao_map, wmmse._rated

    def starting(*args):
        last.clear()
        return plain_start(*args)

    def mapping(lanes, *args):
        out = plain_map(lanes, *args)
        last.update(h=out[0], etas=lane_etas(lanes))
        return out

    def rating(h, V, noise):
        if "h" in last:
            etas = [eta for row in h
                    for eta, h_map in zip(last["etas"], last["h"])
                    if np.array_equal(row, h_map)]
            assert len(etas) == len(h)
            observe(etas)
        return plain_rated(h, V, noise)

    monkeypatch.setattr(wmmse, "_zf_columns", starting)
    monkeypatch.setattr(wmmse, "_ao_map", mapping)
    monkeypatch.setattr(wmmse, "_rated", rating)


def test_ao_solve_levels_stacks_the_candidate_evaluations(monkeypatch):
    """The candidates of one round are evaluated by one stacked
    ``sum_rate`` call: at most one evaluation per round, fewer than the
    candidates tried, and at least one carries several lanes."""
    evaluations = []
    _hook_candidate_evaluations(monkeypatch, evaluations.append)
    cfg = small_config(n_ues=3, total_power=dbm_to_watt(50.0),
                       max_outer_iters=30, conv_threshold=1e-12)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(23)),
                            cfg)
    lanes = [(make_mode(16, 4, eta), replace(cfg, total_power=p))
             for eta in range(1, 6) for p in (cfg.total_power, 1.0)]
    results = ao_solve_levels(channels, cfg, [
        (mode, lane_cfg.total_power) for mode, lane_cfg in lanes])
    rounds = max(r.report.iterations for r in results)
    tried = sum(r.accepted + r.rejected for r in results)
    assert 0 < len(evaluations) < rounds
    assert len(evaluations) < tried
    assert max(len(etas) for etas in evaluations) > 1
    for res, (mode, lane_cfg) in zip(results, lanes):
        _assert_same_solve(res, ao_solve(channels, mode, lane_cfg))


def test_lockstep_results_hold_no_round_stacks():
    """Each lane keeps copies of its slices of the stacked round outputs,
    so no returned array is a view into a stack with a lane axis."""
    cfg = small_config(n_ues=3, max_outer_iters=8)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(6)),
                            cfg)
    results = ao_solve_levels(channels, cfg,
                              [(make_mode(16, 4, eta), cfg.total_power)
                               for eta in range(1, 6)])
    for res in results:
        for arr in (res.solution.W, res.solution.F, res.solution.passive.phi,
                    res.report.sinr, res.report.rate):
            root = arr
            while root.base is not None:
                root = root.base
            assert root.ndim == arr.ndim


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(float), b.view(float), equal_nan=True)


def test_anderson_step_equals_one_lane_formula():
    """The stacked Anderson step gives, lane by lane and for a lane alone,
    the bits of the one-lane formula on that lane's points since its last
    restart: a full window and shorter ones, restarted lanes whose older
    slots hold stale differences, a one-point history (the map's output
    back, projected) and an exactly singular system (non-finite)."""
    rng = np.random.default_rng(11)
    depth, rounds, n = wmmse._DEPTH, 8, 24
    points = [8, 6, 3, 1, 2, 4]             # since each lane's last restart
    power = 10.0 ** rng.uniform(-4.0, 6.0, len(points))
    xs = rng.standard_normal((len(points), rounds, n))
    gs = xs + 0.3 * rng.standard_normal(xs.shape)
    # last lane: integer outputs on a line from x = 0, so every difference
    # is the same vector and the normal equations are singular exactly
    xs[-1] = 0.0
    gs[-1] = rng.integers(-3, 4, n) + np.arange(rounds)[:, None] * \
        rng.integers(-3, 4, n)
    fs = gs - xs
    dF = fs[:, -depth:] - fs[:, -depth - 1:-1]
    dG = gs[:, -depth:] - gs[:, -depth - 1:-1]
    used = np.minimum(np.array(points) - 1, depth)
    out = wmmse._anderson_step(dF, dG, fs[:, -1], gs[:, -1], used, power)
    for i, p in enumerate(points):
        point = anderson_point(list(xs[i, -p:]), list(gs[i, -p:]), power[i])
        assert _same_bits(out[i], point)
        one = slice(i, i + 1)
        alone = wmmse._anderson_step(dF[one], dG[one], fs[one, -1],
                                     gs[one, -1], used[one], power[one])
        assert _same_bits(alone[0], point)
    g = gs[3, -1]
    assert _same_bits(out[3], g * (math.sqrt(power[3]) / np.linalg.norm(g)))
    assert np.isfinite(out[:-1]).all() and not np.isfinite(out[-1]).all()


@pytest.mark.parametrize("points", [[1, 2, 3, 4, 5, 6], [2, 1, 3, 2],
                                    [1, 1], [3, 4, 1, 2, 4]])
def test_anderson_step_skips_only_slots_no_lane_uses(points):
    """Stacks of lanes whose histories use 0...5 differences, among them
    stacks that use fewer than the five slots the history holds: the
    elimination runs over the slots some lane uses, and every lane keeps
    the bits of the one-lane formula (``helpers.anderson_point``) on its
    points since its last restart."""
    rng = np.random.default_rng(len(points))
    depth, rounds, n = wmmse._DEPTH, 8, 40
    power = 10.0 ** rng.uniform(-4.0, 6.0, len(points))
    xs = rng.standard_normal((len(points), rounds, n))
    gs = xs + 0.3 * rng.standard_normal(xs.shape)
    fs = gs - xs
    dF = fs[:, -depth:] - fs[:, -depth - 1:-1]
    dG = gs[:, -depth:] - gs[:, -depth - 1:-1]
    used = np.minimum(np.array(points) - 1, depth)
    out = wmmse._anderson_step(dF, dG, fs[:, -1], gs[:, -1], used, power)
    for i, p in enumerate(points):
        point = anderson_point(list(xs[i, -p:]), list(gs[i, -p:]), power[i])
        assert _same_bits(out[i], point)


def test_ao_solve_levels_counts_untried_and_non_finite_steps():
    """A lane tries a candidate after every map but its first (a one-point
    history) and its last. A non-finite candidate counts as rejected with
    no evaluation, a finite one that lowers the rate as rejected after
    one; both restart the history and leave the plain loop, so the traces
    agree."""
    cfg = small_config(n_ues=3, total_power=dbm_to_watt(50.0),
                       max_outer_iters=20, conv_threshold=1e-12)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(23)),
                            cfg)
    lanes = [(make_mode(16, 4, eta), cfg.total_power) for eta in range(1, 6)]
    for res in ao_solve_levels(channels, cfg, lanes):
        assert res.accepted + res.rejected == max(res.report.iterations - 2, 0)
    plain = wmmse._anderson_step
    runs = {}
    for case, fill in (("zero", 0.0), ("non-finite", np.inf)):
        evaluations = []

        def forced(*args):
            return np.full_like(plain(*args), fill)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wmmse, "_anderson_step", forced)
            _hook_candidate_evaluations(patch, evaluations.append)
            runs[case] = (ao_solve_levels(channels, cfg, lanes), evaluations)
    (zero, evaluated), (non_finite, unevaluated) = runs["zero"], \
        runs["non-finite"]
    assert evaluated and not unevaluated
    for a, b in zip(zero, non_finite):
        assert a.accepted == b.accepted == 0
        assert a.rejected == b.rejected == max(a.report.iterations - 2, 0) > 0
        assert np.array_equal(a.sum_rate_trace, b.sum_rate_trace)
        assert np.array_equal(a.surrogate_trace, b.surrogate_trace)


@pytest.mark.parametrize("cap", [2, 3])
def test_ao_solve_levels_extrapolates_only_when_the_stabilizing_map_fits(
        monkeypatch, cap):
    """A candidate is tried only if one more map fits under the cap: never
    at cap 2 (the first map leaves a one-point history, the second the
    last map), once per lane at cap 3."""
    cfg = small_config(n_ues=3, total_power=dbm_to_watt(50.0),
                       max_outer_iters=cap, conv_threshold=1e-12)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(23)),
                            cfg)
    lanes = [(make_mode(16, 4, eta), cfg.total_power) for eta in range(1, 6)]
    steps = []
    plain = wmmse._anderson_step

    def counting(*args):
        steps.append(len(args[-1]))
        return plain(*args)

    monkeypatch.setattr(wmmse, "_anderson_step", counting)
    results = ao_solve_levels(channels, cfg, lanes)
    assert all(r.report.iterations == cap for r in results)
    assert sum(steps) == (0 if cap == 2 else len(lanes))
    assert all(r.accepted + r.rejected == cap - 2 for r in results)


@settings(max_examples=12)
@given(st.lists(st.floats(min_value=-40.0, max_value=90.0), min_size=1,
                max_size=2),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([1, 4, 16]),
       st.sampled_from([1, 2, 3, 7, 200]),
       st.sampled_from([1e-4, 1e-9]),
       st.integers(min_value=0, max_value=2 ** 16))
@example(dbms=[50.0, 90.0], n_ues=3, n_connected=4, cap=200,
         threshold=1e-9, seed=23)
@example(dbms=[30.0], n_ues=10, n_connected=4, cap=7, threshold=1e-4,
         seed=2)
def test_ao_solve_levels_follows_the_one_lane_anderson_loop(
        dbms, n_ues, n_connected, cap, threshold, seed):
    """Every lockstep lane equals, bit for bit, the plain one-lane Anderson
    loop of ``helpers.anderson_reference``: the history and its restarts,
    the candidate test, the cap rule and the stop test, at several powers
    and levels, with K > N_t + a (the matched-filter start), a = 1 and
    a = N."""
    base = small_config(n_ues=n_ues, n_connected=n_connected,
                        max_outer_iters=cap, conv_threshold=threshold)
    channels = los_channels(
        random_geometry(base, np.random.default_rng(seed)), base)
    lanes = [(make_mode(16, n_connected, eta),
              replace(base, total_power=dbm_to_watt(d)))
             for d in dbms for eta in feasible_sparsities(16, n_connected)]
    results = ao_solve_levels(channels, base, [
        (mode, cfg.total_power) for mode, cfg in lanes])
    for res, (mode, cfg) in zip(results, lanes):
        (V, phi, sinr, rate, total, rows, trace, converged, accepted,
         rejected) = anderson_reference(channels, mode, cfg)
        assert np.array_equal(res.solution.V, lift(channels, V))
        assert np.array_equal(res.solution.passive.phi, phi)
        assert np.array_equal(res.report.sinr, sinr)
        assert np.array_equal(res.report.rate, rate)
        assert res.report.sum_rate == total
        assert np.array_equal(res.surrogate_trace, rows)
        assert np.array_equal(res.sum_rate_trace, trace)
        assert res.report.iterations == len(trace)
        assert res.report.converged == converged
        assert (res.accepted, res.rejected) == (accepted, rejected)


def _isolated(results, alone, channels, mode, cfg, match):
    """Level 3 (index 2) ended with the forced exception, which its
    one-lane solve raises too; the other levels equal their solves."""
    assert isinstance(results[2], ArithmeticError)
    assert match in str(results[2])
    for i in (0, 1, 3, 4):
        _assert_same_solve(results[i], alone[i])
    with pytest.raises(ArithmeticError, match=match):
        ao_solve(channels, mode, cfg)


def test_ao_solve_levels_isolates_a_failing_start(monkeypatch):
    """The stacked start that raises for one level is redone lane by lane:
    that level ends with its exception, the others solve as if alone."""
    cfg = small_config(n_ues=3)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(3)),
                            cfg)
    modes = [make_mode(16, 4, eta) for eta in range(1, 6)]
    alone = [ao_solve(channels, mode, cfg) for mode in modes]
    h3 = wmmse._reduced_rows(
        wmmse._lane_operands(channels, [modes[2]]),
        np.ones((1, 16), dtype=complex))[0]
    calls = []
    plain = wmmse._zf_columns

    def failing(h, power, matched):
        calls.append(len(h))
        if any(np.array_equal(lane, h3) for lane in h):
            raise ArithmeticError("forced start failure at level 3")
        return plain(h, power, matched)

    monkeypatch.setattr(wmmse, "_zf_columns", failing)
    results = ao_solve_levels(channels, cfg,
                              [(mode, cfg.total_power) for mode in modes])
    assert calls == [5, 1, 1, 1, 1, 1]
    _isolated(results, alone, channels, modes[2], cfg, "start failure")


def test_ao_solve_levels_isolates_a_failing_guard(monkeypatch):
    """A stacked candidate evaluation that raises for one level is redone
    lane by lane: that level ends with its exception, the others solve as
    if alone."""
    cfg = small_config(n_ues=3, total_power=dbm_to_watt(50.0),
                       max_outer_iters=30, conv_threshold=1e-12)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(23)),
                            cfg)
    modes = [make_mode(16, 4, eta) for eta in range(1, 6)]
    alone = [ao_solve(channels, mode, cfg) for mode in modes]
    assert alone[2].accepted + alone[2].rejected > 0
    guards = []

    def failing(etas):
        guards.append(etas)
        if 3 in etas:
            raise ArithmeticError("forced guard failure at level 3")

    _hook_candidate_evaluations(monkeypatch, failing)
    results = ao_solve_levels(channels, cfg,
                              [(mode, cfg.total_power) for mode in modes])
    assert any(3 in etas and len(etas) > 1 for etas in guards)
    _isolated(results, alone, channels, modes[2], cfg, "guard failure")


@settings(max_examples=25)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2 ** 16))
@example(dbm=50.0, n_ues=3, cap=200, seed=23)
@example(dbm=90.0, n_ues=12, cap=200, seed=0)
def test_ao_solve_levels_keeps_criterion_05_under_accepted_candidates(
        dbm, n_ues, cap, seed):
    """Criterion 05's properties on every level, with Anderson candidates
    accepted along the way: -40...90 dBm, K up to 12 (K > N_t + a takes
    the matched-filter start), caps 1-200. The flattened surrogate trace
    never rises, the sum-rate trace never falls, and the returned state
    satisfies the MSE-SINR identity."""
    cfg = small_config(n_ues=n_ues, total_power=dbm_to_watt(dbm),
                       max_outer_iters=cap)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(seed)),
                            cfg)
    modes = [make_mode(16, 4, eta) for eta in feasible_sparsities(16, 4)]
    results = ao_solve_levels(channels, cfg,
                              [(mode, cfg.total_power) for mode in modes])
    noise, power = cfg.noise_power, cfg.total_power
    for mode, res in zip(modes, results):
        flat = res.surrogate_trace.ravel()
        assert np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1])))
        assert np.all(np.diff(res.sum_rate_trace) >= -1e-8)
        h = effective_matrix(channels, res.solution.passive, mode)
        V = res.solution.V
        mu = update_receivers(h, V, noise, power)
        e = mse_all(h, V, mu, effective_noise(V, noise, power))
        np.testing.assert_allclose(e, 1.0 / (1.0 + sinr_all(h, V, noise)),
                                   atol=1e-9)


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


@pytest.mark.parametrize("n_ues", [1, 2, 4])
def test_phase_update_raises_the_rate_where_the_reflection_matters(
        monkeypatch, n_ues):
    """At S20-5m (reference path loss 20 dB, the BS 5 m from the surface)
    on the campaign's 8 x 32 array at -10 dBm, the reflected path carries
    most of the signal, so ``ao_solve`` must end at least 5% above the
    same solve with its phases frozen at the uniform start (drop 0,
    eta = 2; the margin is about 10%, 37% and 79% at K = 1, 2 and 4)."""
    scenario = default_scenario()
    cfg = replace(scenario.config, n_tx=8, n_elems=32, n_connected=4,
                  n_ues=n_ues, ref_pathloss_db=20.0,
                  total_power=dbm_to_watt(-10.0))
    scenario = replace(scenario, config=cfg, bs_pos=(45.0, 30.0, 15.0))
    channels = los_channels(
        scenario_geometry(scenario, np.random.default_rng(0)), cfg)
    mode = make_mode(32, 4, 2)
    solved = ao_solve(channels, mode, cfg).report.sum_rate

    def frozen(lanes, t, F, mu, zeta, p0, max_iters):
        return p0[:, :-1].conj() * p0[:, -1:]

    monkeypatch.setattr(wmmse, "_phase_block", frozen)
    start = ao_solve(channels, mode, cfg)
    assert np.all(start.solution.passive.phi == 1.0)
    assert solved >= 1.05 * start.report.sum_rate


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


def test_ao_solve_surrogate_trace_is_surrogate_value(monkeypatch):
    """Every recorded row is surrogate_value at the states of its lane's
    map: before the map (with the previous and the new weights), after the
    precoder step, and after the phase step. A map that starts from an
    accepted extrapolation starts below the last recorded value. Checked
    on every lane of a lockstep solve of three levels."""
    maps = {}
    plain_map = wmmse._ao_map

    def recording(lanes, noise, power, h, V, S, S2, phi, zeta):
        out = plain_map(lanes, noise, power, h, V, S, S2, phi, zeta)
        h1, V1, _, _, mu1, _, zeta1, rows = out
        for i, eta in enumerate(lane_etas(lanes)):
            maps.setdefault(eta, []).append(
                ((h[i], V[i], zeta[i]), (h1[i], V1[i], mu1[i], zeta1[i],
                                         rows[i])))
        return out

    monkeypatch.setattr(wmmse, "_ao_map", recording)
    cfg = small_config(n_ues=3, max_outer_iters=7, conv_threshold=1e-12)
    channels = los_channels(random_geometry(cfg, np.random.default_rng(19)),
                            cfg)
    results = ao_solve_levels(channels, cfg,
                              [(make_mode(16, 4, eta), cfg.total_power)
                               for eta in (1, 2, 3)])
    power, noise = cfg.total_power, cfg.noise_power
    assert results[1].report.iterations == len(maps[2]) == 7
    assert results[1].accepted >= 1 and results[1].rejected >= 1

    for res in results:
        lane_maps = maps[res.mode.eta]
        assert res.report.iterations == len(lane_maps)
        rows = []
        extrapolated = 0
        for i, ((h0, V0, zeta0), (h1, V1, mu1, zeta1, row)) in \
                enumerate(lane_maps):
            mu0 = update_receivers(h0, V0, noise, power)
            rows.append((surrogate_value(h0, V0, mu0, zeta0, noise, power),
                         surrogate_value(h0, V0, mu0, zeta1, noise, power),
                         surrogate_value(h0, V1, mu1, zeta1, noise, power),
                         surrogate_value(h1, V1, mu1, zeta1, noise, power)))
            assert np.array_equal(row, rows[-1])
            if i and not np.array_equal(V0, lane_maps[i - 1][1][1]):
                extrapolated += 1
                assert rows[-1][0] <= rows[-2][3]
        assert extrapolated == res.accepted
        assert np.array_equal(res.surrogate_trace, np.asarray(rows))
        np.testing.assert_array_equal(res.solution.V,
                                      lift(channels, lane_maps[-1][1][1]))


# Plain-loop rates at a 5000-map cap (seed 1, 50 dBm, the campaign layout
# N_t=8, N=32, a=4, K=4), by sparsity level; the plain loop stopped all
# three at its 200 cap, up to 3.6% below these.
_CAMPAIGN_50DBM_REFERENCE = {1: 18.26162310957095, 7: 30.120315757337274,
                             10: 31.06366056923097}


def test_ao_solve_converges_at_high_power_on_campaign_drop():
    scenario = default_scenario()
    cfg = replace(scenario.config, n_tx=8, n_elems=32, n_connected=4,
                  n_ues=4, total_power=dbm_to_watt(50.0))
    geo = scenario_geometry(replace(scenario, config=cfg),
                            np.random.default_rng(1))
    channels = los_channels(geo, cfg)
    assert cfg.max_outer_iters == 200
    for eta, reference in _CAMPAIGN_50DBM_REFERENCE.items():
        res = ao_solve(channels, make_mode(32, 4, eta), cfg)
        assert res.report.converged
        assert res.report.sum_rate >= reference * (1.0 - 1e-3)
        assert res.accepted >= 1


@settings(max_examples=30)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=12),
       st.booleans(),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 16))
@example(dbm=90.0, n_ues=12, coincident=True, eta=1, seed=0)
@example(dbm=-40.0, n_ues=12, coincident=True, eta=5, seed=0)
@example(dbm=90.0, n_ues=9, coincident=False, eta=3, seed=1)
@example(dbm=-40.0, n_ues=4, coincident=True, eta=2, seed=2)
def test_ao_solve_edges_stay_feasible_and_monotone(dbm, n_ues, coincident,
                                                   eta, seed):
    """K > N_t + a = 8 (the matched-filter start), coincident UEs
    (``ue_radius`` 0) and -40...90 dBm through the accelerated driver:
    the solve ends with a typed status on the power budget, with
    unit-modulus phases and monotone traces (a RuntimeWarning fails the
    test)."""
    cfg = small_config(n_ues=n_ues, total_power=dbm_to_watt(dbm))
    geo = random_geometry(cfg, np.random.default_rng(seed),
                          radius=0.0 if coincident else 20.0)
    res = ao_solve(los_channels(geo, cfg), make_mode(16, 4, eta), cfg)
    assert isinstance(res.report.converged, bool)
    assert 1 <= res.report.iterations <= cfg.max_outer_iters
    assert res.solution.transmit_power == pytest.approx(cfg.total_power,
                                                        rel=1e-12)
    assert np.max(np.abs(np.abs(res.solution.passive.phi) - 1.0)) <= 1e-12
    flat = res.surrogate_trace.ravel()
    assert np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1])))
    assert np.all(np.diff(res.sum_rate_trace) >= -1e-8)
    assert np.all(np.isfinite(res.report.rate))


def test_ao_solve_phase_block_runs_no_eigendecomposition(monkeypatch):
    """The loop takes one warm-started phase block of at most
    ``_PHASE_STEPS`` steps per outer iteration, and nothing in it calls
    eigvalsh or eigh."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition inside ao_solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    calls = []
    plain = wmmse._phase_block

    def counting(*args, **kwargs):
        calls.append(kwargs.get("max_iters"))
        return plain(*args, **kwargs)

    monkeypatch.setattr("rdars.wmmse._phase_block", counting)
    cfg = small_config(n_ues=3)
    geo = random_geometry(cfg, np.random.default_rng(20))
    res = ao_solve(los_channels(geo, cfg), make_mode(16, 4, 2), cfg)
    assert res.report.iterations > 1
    assert calls == [wmmse._PHASE_STEPS] * res.report.iterations
    # in lockstep, one call per round: as many as the longest level's maps
    calls.clear()
    results = ao_solve_levels(los_channels(geo, cfg), cfg,
                              [(make_mode(16, 4, eta), cfg.total_power)
                               for eta in range(1, 6)])
    rounds = max(r.report.iterations for r in results)
    assert rounds < sum(r.report.iterations for r in results)
    assert calls == [wmmse._PHASE_STEPS] * rounds


@pytest.mark.parametrize("n_connected", [1, 16])
@settings(max_examples=25)
@given(st.floats(min_value=-40.0, max_value=90.0),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=2 ** 16))
def test_ao_solve_holds_constraints_at_extreme_connection_counts(
        n_connected, dbm, n_ues, seed):
    # a = N wires every element: the phase quadratic is zero and every
    # phase step keeps the phases; a = 1 leaves 5 transmit dimensions, so
    # n_ues > 5 starts from the matched filter
    cfg = small_config(n_connected=n_connected, n_ues=n_ues,
                       total_power=dbm_to_watt(dbm))
    geo = random_geometry(cfg, np.random.default_rng(seed))
    res = ao_solve(los_channels(geo, cfg), make_mode(16, n_connected, 1), cfg)
    assert res.solution.transmit_power == pytest.approx(cfg.total_power,
                                                        rel=1e-12)
    assert np.max(np.abs(np.abs(res.solution.passive.phi) - 1.0)) <= 1e-12
    flat = res.surrogate_trace.ravel()
    assert np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1])))


def _stub_result(eta, rate):
    report = RateReport(sinr=np.zeros(2), rate=np.zeros(2), sum_rate=rate)
    sol = BeamformingSolution(W=np.zeros((4, 2), dtype=complex),
                              F=np.zeros((4, 2), dtype=complex),
                              passive=PassiveBeam.uniform(16))
    return AoResult(solution=sol, mode=make_mode(16, 4, eta), report=report,
                    surrogate_trace=np.zeros((0, 4)),
                    sum_rate_trace=np.zeros(0), accepted=0, rejected=0)


def test_sparsity_search_breaks_ties_toward_compact():
    scan = [(eta, _stub_result(eta, 5.0)) for eta in range(1, 6)]
    best, scanned = sparsity_search(scan)
    assert best is scan[0][1]              # all rates equal: keep smallest
    assert scanned == [(eta, 5.0) for eta in range(1, 6)]


def test_sparsity_search_raises_the_first_failed_level():
    """A failed level raises its own exception, also when a better level
    came before it, and the scan stops there: no later level is read."""
    failure = ArithmeticError("level 3 failed")
    outcomes = [_stub_result(1, 2.0), _stub_result(2, 7.0), failure,
                ArithmeticError("level 4 failed"), _stub_result(5, 9.0)]
    read = []

    def scan():
        for eta, outcome in enumerate(outcomes, start=1):
            read.append(eta)
            yield eta, outcome

    with pytest.raises(ArithmeticError) as info:
        sparsity_search(scan())
    assert info.value is failure
    assert read == [1, 2, 3]


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
