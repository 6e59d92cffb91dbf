import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdars.arrays import (PassiveBeam, effective_matrix, feasible_sparsities,
                          los_channels, make_mode, steering)

from helpers import brute_effective_rows, random_geometry, small_config


def test_steering_half_wavelength_quarter_turns():
    # d = lam/2 and u = 0.5 step the phase by 90 degrees per element
    b = steering(4, 0.5, 0.5, 1.0)
    np.testing.assert_allclose(b, [1.0, 1.0j, -1.0, -1.0j], atol=1e-15)


@given(st.integers(1, 64), st.floats(-1.0, 1.0))
def test_steering_unit_modulus_and_first_entry(n, u):
    b = steering(n, u, 0.005, 0.0107)
    assert b[0] == 1.0 + 0.0j
    np.testing.assert_allclose(np.abs(b), 1.0, atol=1e-12)


@pytest.mark.parametrize("n,a,expected", [
    (128, 20, list(range(1, 7))),
    (32, 4, list(range(1, 11))),
    (16, 1, [1]),
    (16, 16, [1]),
    (8, 2, list(range(1, 8))),
])
def test_feasible_sparsities_reference(n, a, expected):
    assert feasible_sparsities(n, a) == expected


def test_feasible_sparsities_rejects_oversize():
    with pytest.raises(ValueError):
        feasible_sparsities(4, 5)


def test_make_mode_index_sets():
    mode = make_mode(16, 4, 3)
    assert list(mode.index_set) == [1, 4, 7, 10]
    assert list(mode.index0) == [0, 3, 6, 9]
    assert mode.n_connected == 4


def test_make_mode_rejects_overhang():
    with pytest.raises(ValueError):
        make_mode(16, 4, 6)        # 1 + 3*6 = 19 > 16
    with pytest.raises(ValueError):
        make_mode(16, 4, 0)
    with pytest.raises(ValueError):
        make_mode(16, 0, 1)


def test_mode_selection_masks_agree():
    mode = make_mode(12, 3, 4)
    assert mode.a_vec.sum() == 3
    assert np.all(mode.a_vec[mode.index0] == 1.0)


def test_los_channels_rank_and_norms():
    cfg = small_config(n_ues=2)
    geo = random_geometry(cfg, np.random.default_rng(3))
    ch = los_channels(geo, cfg)
    assert ch.G.shape == (16, 4)
    assert ch.h_r.shape == (2, 16)
    assert np.linalg.matrix_rank(ch.G) == 1
    assert np.linalg.norm(ch.G) == pytest.approx(
        geo.kappa_br * math.sqrt(16 * 4), rel=1e-12)
    for k in range(2):
        assert np.linalg.norm(ch.h_r[k]) == pytest.approx(
            geo.kappa_ru[k] * math.sqrt(16), rel=1e-12)


def test_passive_beam_validation():
    with pytest.raises(ValueError):
        PassiveBeam(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        PassiveBeam(np.ones((2, 2), dtype=complex))
    # a NaN modulus is no unit modulus; exp(1j inf) is NaN
    with pytest.raises(ValueError, match="unit modulus"):
        PassiveBeam(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="unit modulus"):
        PassiveBeam(np.array([1.0, complex(np.nan, 0.0)]))
    with pytest.raises(ValueError, match="unit modulus"):
        PassiveBeam.from_phases([0.0, math.inf])
    beam = PassiveBeam.uniform(5)
    np.testing.assert_allclose(beam.phi, 1.0)
    angles = np.array([0.0, math.pi / 2.0])
    np.testing.assert_allclose(PassiveBeam.from_phases(angles).phi,
                               [1.0, 1.0j], atol=1e-15)


def test_effective_matrix_against_loop_assembly():
    cfg = small_config(n_ues=3)
    rng = np.random.default_rng(12)
    geo = random_geometry(cfg, rng)
    ch = los_channels(geo, cfg)
    mode = make_mode(16, 4, 4)
    beam = PassiveBeam.from_phases(rng.uniform(0.0, 2.0 * math.pi, 16))
    got = effective_matrix(ch, beam, mode)
    want = brute_effective_rows(ch.G, ch.h_r, beam.phi, mode.index0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-20)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_effective_matrix_matches_loops_property(seed, eta):
    rng = np.random.default_rng(seed)
    cfg = small_config(n_ues=2)
    geo = random_geometry(cfg, rng)
    ch = los_channels(geo, cfg)
    mode = make_mode(16, 4, eta)
    beam = PassiveBeam.from_phases(rng.uniform(0.0, 2.0 * math.pi, 16))
    got = effective_matrix(ch, beam, mode)
    want = brute_effective_rows(ch.G, ch.h_r, beam.phi, mode.index0)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-20)


def test_effective_matrix_size_mismatch():
    cfg = small_config(n_ues=2)
    geo = random_geometry(cfg, np.random.default_rng(6))
    ch = los_channels(geo, cfg)
    mode = make_mode(12, 4, 2)
    with pytest.raises(ValueError):
        effective_matrix(ch, PassiveBeam.uniform(16), mode)


def test_connected_element_phases_do_not_matter():
    """Reflection phases on connected elements are ignored: those elements
    transmit instead of reflecting."""
    cfg = small_config(n_ues=2)
    rng = np.random.default_rng(8)
    geo = random_geometry(cfg, rng)
    ch = los_channels(geo, cfg)
    mode = make_mode(16, 4, 5)
    phases = rng.uniform(0.0, 2.0 * math.pi, 16)
    h1 = effective_matrix(ch, PassiveBeam.from_phases(phases), mode)
    phases[mode.index0] += rng.uniform(0.1, 3.0, 4)
    h2 = effective_matrix(ch, PassiveBeam.from_phases(phases), mode)
    np.testing.assert_allclose(h1, h2, rtol=1e-12, atol=1e-20)
