import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdars import closed_form
from rdars.arrays import (PassiveBeam, effective_matrix, feasible_sparsities,
                          los_channels, make_mode, steering)
from rdars.closed_form import (CASE2, CASE3, SUBCASE1, SUBCASE2,
                               analyze_two_ue, case2_cscc, center_phase,
                               cscc_closed, dirichlet_kernel,
                               dirichlet_sparse, proposition1_select, r_set,
                               reference_passive, select_two_ue_eta,
                               single_ue_solution, steered_sums,
                               two_ue_analysis, two_ue_rate, two_ue_sinr)
from rdars.metrics import cscc, sinr_all
from rdars.scenario import SystemConfig, derive_geometry

from helpers import (aligned_pair_geometry, brute_sparse_sum, exact_u_geometry,
                     random_geometry, small_config, synthetic_geometry)


# Brute-force geometric sums, computed independently with d/lam = 1/2.
SPARSE_SUM_CASES = [
    (4, 2, 0.3, 0.6909830056250524 - 0.22451398828979274j),
    (20, 3, 0.05, 0.9999999999999996 + 4.165299770090419j),
    (5, 1, 0.0, 5.0 + 0.0j),
    (6, 4, -0.21, 0.9799672982156936 - 0.3184106768544255j),
]


@pytest.mark.parametrize("a,eta,du,expected", SPARSE_SUM_CASES)
def test_dirichlet_sparse_reference_values(a, eta, du, expected):
    got = dirichlet_sparse(a, eta, 0.5, 1.0, du)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(st.integers(1, 24), st.integers(1, 8), st.floats(-2.0, 2.0))
def test_dirichlet_sparse_equals_direct_sum(a, eta, du):
    got = dirichlet_sparse(a, eta, 0.5, 1.0, du)
    want = brute_sparse_sum(a, eta, 0.5, 1.0, du)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("a,eta,du", [
    (6, 2, 1.0),        # even-length array at a full-period offset
    (6, 2, 2.0),
    (5, 3, 2.0 / 3.0),  # odd-length array
    (7, 1, 2.0),
    (4, 2, 1.0 + 1e-9),
])
def test_dirichlet_sparse_near_singularities(a, eta, du):
    got = dirichlet_sparse(a, eta, 0.5, 1.0, du)
    want = brute_sparse_sum(a, eta, 0.5, 1.0, du)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_dirichlet_kernel_peak_and_bound():
    assert dirichlet_kernel(8, 3, 0.5, 1.0, 0.0) == pytest.approx(8.0)
    for du in np.linspace(-1.5, 1.5, 41):
        assert abs(dirichlet_kernel(8, 3, 0.5, 1.0, float(du))) <= 8.0 + 1e-9


def test_center_phase_is_sum_centroid():
    # the factored phase equals the mean phase of the summed exponentials
    a, eta, du = 5, 2, 0.17
    phases = [2.0 * math.pi * 0.5 * (m * eta) * du for m in range(a)]
    mean = sum(phases) / a
    assert center_phase(a, eta, 0.5, 1.0, du) == pytest.approx(
        cmath.exp(1j * mean), rel=1e-12)


def test_steered_sums_against_direct_sums():
    rng = np.random.default_rng(17)
    mode = make_mode(16, 4, 3)
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 16))
    beam = PassiveBeam(phi)
    du = 0.23
    b = steering(16, du, 0.5, 1.0)
    full, sparse = steered_sums(mode, 0.5, 1.0, beam, du)
    assert full == pytest.approx(complex(np.sum(phi * b)), rel=1e-12)
    assert sparse == pytest.approx(
        complex(np.sum(phi[mode.index0] * b[mode.index0])), rel=1e-12)


def test_steered_sums_uniform_beam_reduces_to_kernels():
    mode = make_mode(16, 4, 3)
    beam = PassiveBeam.uniform(16)
    du = -0.4
    full, sparse = steered_sums(mode, 0.5, 1.0, beam, du)
    assert full == pytest.approx(dirichlet_sparse(16, 1, 0.5, 1.0, du),
                                 rel=1e-12)
    assert sparse == pytest.approx(
        dirichlet_sparse(4, 3, 0.5, 1.0, du), rel=1e-12)


# --- single-UE closed form ---------------------------------------------

def _single_ue_setup():
    cfg = SystemConfig(n_tx=8, n_elems=32, n_connected=4, n_ues=1)
    geo = exact_u_geometry(cfg, [0.37], dist=51.87725898695882)
    return cfg, geo


def test_single_ue_frozen_reference():
    """Frozen oracle: hand-evaluated SNR for a pinned layout."""
    cfg = SystemConfig(n_tx=8, n_elems=32, n_connected=4, n_ues=1)
    geo = derive_geometry((0.0, 0.0, 15.0), (50.0, 30.0, 15.0),
                          np.array([[95.0, 8.0, 1.5]]), cfg)
    sol = single_ue_solution(geo, cfg, make_mode(32, 4, 1))
    assert sol.snr_max == pytest.approx(63.11382139026692, rel=1e-12)
    assert sol.p_bs == pytest.approx(3.3409270761660936e-07, rel=1e-12)
    assert sol.p_connected == pytest.approx(0.9999996659072924, rel=1e-12)
    assert math.log2(1.0 + sol.snr_max) == pytest.approx(6.002563495440353,
                                                         rel=1e-12)


def test_single_ue_assembled_snr_matches_formula():
    cfg, geo = _single_ue_setup()
    ch = los_channels(geo, cfg)
    for eta in feasible_sparsities(32, 4):
        mode = make_mode(32, 4, eta)
        sol = single_ue_solution(geo, cfg, mode)
        h = effective_matrix(ch, sol.passive, mode)
        v = np.concatenate([sol.w, sol.f])[:, None]
        gamma = float(sinr_all(h, v, cfg.noise_power)[0])
        assert gamma == pytest.approx(sol.snr_max, rel=1e-10)
        assert np.sum(np.abs(v) ** 2) == pytest.approx(cfg.total_power,
                                                       rel=1e-12)


def test_single_ue_snr_independent_of_sparsity():
    cfg, geo = _single_ue_setup()
    snrs = {eta: single_ue_solution(geo, cfg, make_mode(32, 4, eta)).snr_max
            for eta in feasible_sparsities(32, 4)}
    values = list(snrs.values())
    assert max(values) - min(values) <= 1e-9 * max(values)


def test_single_ue_power_split_amplitudes():
    cfg, geo = _single_ue_setup()
    mode = make_mode(32, 4, 2)
    sol = single_ue_solution(geo, cfg, mode)
    assert sol.p_bs + sol.p_connected == pytest.approx(cfg.total_power,
                                                       rel=1e-12)


def test_single_ue_rejects_multiuser_geometry():
    cfg = small_config(n_ues=2)
    geo = random_geometry(cfg, np.random.default_rng(4))
    with pytest.raises(ValueError):
        single_ue_solution(geo, cfg, make_mode(16, 4, 1))


# --- two-UE SINR laws ---------------------------------------------------

def test_two_ue_sinr_hand_cases():
    p = np.array([1.0, 1.0])
    beta = np.array([1.0, 2.0])
    np.testing.assert_allclose(two_ue_sinr("MRT", p, beta, 0.25, 1.0),
                               [0.8, 2.0], rtol=1e-14)
    np.testing.assert_allclose(two_ue_sinr("ZF", p, beta, 0.25, 1.0),
                               [0.75, 3.0], rtol=1e-14)
    np.testing.assert_allclose(two_ue_sinr("MMSE", p, beta, 0.25, 1.0),
                               [0.8, 3.5], rtol=1e-14)


def test_two_ue_sinr_degenerate_correlations():
    p = np.array([2.0, 0.5])
    beta = np.array([1.3, 0.2])
    free = p * beta ** 2
    np.testing.assert_allclose(two_ue_sinr("MRT", p, beta, 0.0, 1.0), free)
    np.testing.assert_allclose(two_ue_sinr("MMSE", p, beta, 0.0, 1.0), free)
    np.testing.assert_allclose(two_ue_sinr("ZF", p, beta, 1.0, 1.0), 0.0)


def test_two_ue_sinr_validation():
    p = np.array([1.0, 1.0])
    beta = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        two_ue_sinr("DIRTY", p, beta, 0.5, 1.0)
    with pytest.raises(ValueError):
        two_ue_sinr("ZF", np.ones(3), beta, 0.5, 1.0)
    with pytest.raises(ValueError):
        two_ue_sinr("ZF", -p, beta, 0.5, 1.0)
    with pytest.raises(ValueError):
        two_ue_sinr("ZF", p, beta, 1.5, 1.0)


@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0),
       st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.0, 1.0))
def test_two_ue_mmse_dominates_zf(p1, p2, b1, b2, eps):
    p = np.array([p1, p2])
    beta = np.array([b1, b2])
    zf = two_ue_sinr("ZF", p, beta, eps, 1.0)
    mmse = two_ue_sinr("MMSE", p, beta, eps, 1.0)
    assert np.all(mmse >= zf - 1e-12)


# --- correlation analyses -----------------------------------------------

def test_two_ue_analysis_matches_assembled_channels():
    cfg = small_config(n_ues=2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        geo = random_geometry(cfg, rng)
        mode = make_mode(16, 4, int(rng.integers(1, 6)))
        beam = PassiveBeam.from_phases(rng.uniform(0, 2 * math.pi, 16))
        analysis = two_ue_analysis(geo, cfg, mode, beam)
        h = effective_matrix(los_channels(geo, cfg), beam, mode)
        np.testing.assert_allclose(
            analysis.beta, np.linalg.norm(h, axis=1), rtol=1e-10)
        assert analysis.eps == pytest.approx(cscc(h[0], h[1]), rel=1e-9,
                                             abs=1e-12)


def test_two_ue_analysis_requires_two_ues():
    cfg = small_config(n_ues=3)
    geo = random_geometry(cfg, np.random.default_rng(2))
    with pytest.raises(ValueError):
        two_ue_analysis(geo, cfg, make_mode(16, 4, 1), PassiveBeam.uniform(16))


def test_case2_matches_exact_form_under_reference_beam():
    cfg = small_config(n_ues=2)
    rng = np.random.default_rng(29)
    for _ in range(10):
        geo = random_geometry(cfg, rng)
        u_ref = 0.5 * float(geo.u_ru_aod.sum())
        beam = reference_passive(16, cfg.spacing, cfg.wavelength, u_ref,
                                 geo.u_br_aoa)
        for eta in (1, 3, 5):
            exact = cscc_closed(geo, cfg, make_mode(16, 4, eta), beam)
            approx = case2_cscc(geo, cfg, eta)
            assert approx == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_reference_passive_at_arrival_direction_is_uniform():
    beam = reference_passive(8, 0.5, 1.0, 0.4, 0.4)
    np.testing.assert_allclose(beam.phi, 1.0, atol=1e-15)


def test_aligned_ues_are_fully_correlated():
    cfg = small_config(n_ues=2)
    geo = aligned_pair_geometry(cfg)
    beam = PassiveBeam.from_phases(
        np.random.default_rng(31).uniform(0, 2 * math.pi, 16))
    mode = make_mode(16, 4, 3)
    assert cscc_closed(geo, cfg, mode, beam) == pytest.approx(1.0, abs=1e-12)
    h = effective_matrix(los_channels(geo, cfg), beam, mode)
    assert cscc(h[0], h[1]) == pytest.approx(1.0, abs=1e-12)


# --- candidate sets and the regime selector -----------------------------

def test_r_set_reference_cases():
    # base spacing lam/2, a = 20: candidate = round(0.1 q / |du|)
    feasible = list(range(1, 7))
    assert r_set(20, 0.5, 1.0, 0.05, feasible) == [2, 4, 6]
    assert r_set(20, 0.5, 1.0, -0.05, feasible) == [2, 4, 6]
    assert r_set(20, 0.5, 1.0, 0.0305, feasible) == [3]
    with pytest.raises(ValueError):
        r_set(20, 0.5, 1.0, 0.0, feasible)


def test_r_set_rounds_half_up():
    # 0.1 q / 0.04 = 2.5 q: ties must round up, not to even
    got = r_set(20, 0.5, 1.0, 0.04, list(range(1, 7)))
    assert got == [3, 5]


def _two_ue_geometry(cfg, du, u_center=0.3):
    return exact_u_geometry(cfg, [u_center - du / 2.0, u_center + du / 2.0])


def test_selector_routes_aligned_to_case3():
    cfg = SystemConfig(n_ues=2)
    geo = synthetic_geometry([0.3, 0.3], [2e-6, 5e-6])
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == CASE3
    assert sel.eta_set == tuple(feasible_sparsities(128, 20))


def test_selector_routes_strong_reflection_to_subcase2():
    cfg = SystemConfig(n_ues=2, ref_pathloss_db=-20.0)
    geo = _two_ue_geometry(cfg, 0.07)
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == SUBCASE2
    assert sel.ratio >= 100.0
    assert sel.eta_set == tuple(feasible_sparsities(128, 20))


def test_selector_routes_weak_reflection_to_subcase1():
    cfg = SystemConfig(n_ues=2)   # baseline path loss: tiny ratio
    geo = _two_ue_geometry(cfg, 0.05)
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == SUBCASE1
    assert sel.ratio <= 1e-4
    assert not sel.used_fallback
    assert sel.eta_set == (2, 4, 6)


def test_selector_subcase1_fallback_when_no_rounding_fits():
    cfg = SystemConfig(n_ues=2)
    geo = _two_ue_geometry(cfg, 0.01)   # round(10 q) misses {1..6}
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == SUBCASE1
    assert sel.used_fallback
    kern = [abs(dirichlet_kernel(20, e, cfg.spacing, cfg.wavelength, 0.01)) ** 2
            / 400.0 for e in feasible_sparsities(128, 20)]
    assert sel.eta_set == (1 + int(np.argmin(kern)),)


def test_selector_case2_equals_exhaustive_scan():
    cfg = SystemConfig(n_ues=2, ref_pathloss_db=0.0)
    geo = _two_ue_geometry(cfg, 0.06)
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == CASE2
    vals = [case2_cscc(geo, cfg, eta)
            for eta in feasible_sparsities(128, 20)]
    assert sel.eta_set == (1 + int(np.argmin(vals)),)


@pytest.mark.parametrize("eta_star", [2, 3, 4, 5, 6])
def test_null_aligned_separations_put_the_argmin_in_the_set(eta_star):
    """Separations sitting exactly on a sparse-array null: the candidate
    set contains the exhaustive kernel argmin by construction."""
    cfg = SystemConfig(n_ues=2)
    du = 0.1 / eta_star
    geo = _two_ue_geometry(cfg, du)
    sel = proposition1_select(geo, cfg)
    assert sel.case_label == SUBCASE1
    fset = feasible_sparsities(128, 20)
    kern = [abs(dirichlet_kernel(20, e, cfg.spacing, cfg.wavelength, du)) ** 2
            / 400.0 for e in fset]
    argmin = fset[int(np.argmin(kern))]
    assert min(kern) <= 1e-18
    assert argmin in sel.eta_set


def test_select_two_ue_eta_picks_lowest_correlation_candidate():
    cfg = SystemConfig(n_ues=2)
    geo = _two_ue_geometry(cfg, 0.05)
    eta, sel = select_two_ue_eta(geo, cfg)
    assert eta in sel.eta_set
    u_ref = 0.5 * float(geo.u_ru_aod.sum())
    beam = reference_passive(128, cfg.spacing, cfg.wavelength, u_ref,
                             geo.u_br_aoa)
    best = min(sel.eta_set,
               key=lambda e: cscc_closed(geo, cfg, make_mode(128, 20, e), beam))
    assert eta == best


def test_two_ue_rate_consistent_with_analysis():
    cfg = SystemConfig(n_ues=2)
    geo = _two_ue_geometry(cfg, 0.05)
    mode = make_mode(128, 20, 4)
    u_ref = 0.5 * float(geo.u_ru_aod.sum())
    beam = reference_passive(128, cfg.spacing, cfg.wavelength, u_ref,
                             geo.u_br_aoa)
    analysis = two_ue_analysis(geo, cfg, mode, beam)
    p = np.full(2, cfg.total_power / 2.0)
    gammas = two_ue_sinr("MMSE", p, analysis.beta, analysis.eps,
                         cfg.noise_power)
    want = float(np.sum(np.log2(1.0 + gammas)))
    assert two_ue_rate(geo, cfg, 4) == pytest.approx(want, rel=1e-12)


def test_two_ue_rate_and_analysis_make_no_selector_call(monkeypatch):
    def selector(*args, **kwargs):
        raise AssertionError("regime selector called")

    monkeypatch.setattr(closed_form, "proposition1_select", selector)
    cfg = SystemConfig(n_ues=2)
    geo = _two_ue_geometry(cfg, 0.05)
    analysis = two_ue_analysis(geo, cfg, make_mode(128, 20, 4),
                               PassiveBeam.uniform(128))
    assert 0.0 <= analysis.eps <= 1.0
    assert two_ue_rate(geo, cfg, 4) > 0.0
    assert len(analyze_two_ue(geo, cfg)) == len(feasible_sparsities(128, 20))


def test_analyze_two_ue_rates_are_two_ue_rate():
    cfg = SystemConfig(n_ues=2)
    for du in (0.01, 0.05, 0.3):
        geo = _two_ue_geometry(cfg, du)
        for row in analyze_two_ue(geo, cfg):
            assert row["sum_rate_bits"] == two_ue_rate(geo, cfg, row["eta"])
