import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rdars.arrays import PassiveBeam
from rdars.metrics import (BeamformingSolution, cscc, mse_all, sinr_all,
                           sum_rate)

from helpers import mse_k


def test_sinr_hand_case():
    # s = h V = [[1, 1], [2, -2]];  noise 1
    h = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    V = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    got = sinr_all(h, V, 1.0)
    np.testing.assert_allclose(got, [0.5, 0.8], rtol=1e-15)


def test_sum_rate_reference_value():
    # two UEs at SINR 2 each: sum rate = 2 log2(3) = 3.169925001442312
    h = np.eye(2, dtype=complex)
    V = np.diag([math.sqrt(2.0), math.sqrt(2.0)]).astype(complex)
    report = sum_rate(h, V, 1.0)
    assert report.sum_rate == pytest.approx(3.169925001442312, rel=1e-14)
    np.testing.assert_allclose(report.rate, math.log2(3.0))
    assert report.converged


@given(st.floats(min_value=-300.0, max_value=3.0))
@example(log_sinr=-300.0)
@example(log_sinr=-20.0)
def test_rate_keeps_its_relative_digits_at_low_sinr(log_sinr):
    """A rate keeps its relative digits down to SINR 1e-300, where 1 + SINR
    rounds to 1: it equals log2(1 + SINR), taken in 400-digit decimals,
    to 4 eps relative."""
    report = sum_rate(np.array([[1.0]]),
                      np.array([[10.0 ** (log_sinr / 2.0)]]), 1.0)
    sinr = decimal.Decimal(float(report.sinr[0]))
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        exact = float((1 + sinr).ln() / decimal.Decimal(2).ln())
    assert exact > 0.0
    assert report.rate[0] == pytest.approx(exact, rel=4 * np.finfo(float).eps,
                                           abs=0.0)
    assert report.sum_rate == report.rate[0]


def test_sinr_validation():
    h = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        sinr_all(h, np.ones((3, 2), dtype=complex), 1.0)
    for noise in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            sinr_all(h, np.eye(2, dtype=complex), noise)
    with pytest.raises(ValueError, match="positive and finite"):
        sum_rate(h, np.eye(2, dtype=complex), math.nan)


def test_mse_hand_case():
    h_k = np.array([1.0, 0.0], dtype=complex)
    V = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    # s = [1, 1], mu = 0.5: 1 - 2*0.5 + 0.25*(2 + 1) = 0.75
    assert mse_k(h_k, V, 0, 0.5, 1.0) == pytest.approx(0.75, rel=1e-15)


def test_mse_all_matches_scalar_version():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    V = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec = mse_all(h, V, mu, 0.3)
    for k in range(3):
        assert vec[k] == pytest.approx(mse_k(h[k], V, k, mu[k], 0.3),
                                       rel=1e-12)


def test_mse_identity_at_exact_receiver():
    """With mu set to the MMSE value, e_k = 1/(1 + sinr_k)."""
    rng = np.random.default_rng(21)
    h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    V = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    noise = 0.7
    s = h @ V
    mu = np.diag(s) / (np.sum(np.abs(s) ** 2, axis=1) + noise)
    e = mse_all(h, V, mu, noise)
    np.testing.assert_allclose(e, 1.0 / (1.0 + sinr_all(h, V, noise)),
                               rtol=1e-12)


@pytest.mark.parametrize("noise", [1e-6, 1e-12])
def test_mse_all_keeps_its_digits_at_high_sinr(noise):
    """A lone UE at its exact receiver has e = noise / (|s|^2 + noise);
    the expanded 1 - 2 Re(...) + ... form returns rounding noise there."""
    rng = np.random.default_rng(2)
    h = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    V = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    gain = float(np.abs(h @ V)[0, 0] ** 2)
    mu = np.diag(h @ V) / (gain + noise)
    e = mse_all(h, V, mu, noise)
    assert e[0] == pytest.approx(noise / (gain + noise), rel=1e-12, abs=0.0)


def test_mse_receiver_is_optimal():
    rng = np.random.default_rng(33)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    V = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    noise = 0.5
    s = h @ V
    mu_star = np.diag(s) / (np.sum(np.abs(s) ** 2, axis=1) + noise)
    base = mse_all(h, V, mu_star, noise)
    for delta in (0.01, 0.01j, -0.02, 0.05 - 0.03j):
        bumped = mse_all(h, V, mu_star + delta, noise)
        assert np.all(bumped >= base - 1e-15)


def test_cscc_reference_cases():
    assert cscc(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)) \
        == pytest.approx(0.5, rel=1e-14)
    assert cscc(np.array([1.0, 1.0j]), np.array([2.0, 2.0j])) \
        == pytest.approx(1.0, rel=1e-14)
    assert cscc(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        cscc(np.zeros(2), np.ones(2))


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_cscc_scale_invariant_and_bounded(seed, sa, sb):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = cscc(a, b)
    assert 0.0 <= base <= 1.0
    assert cscc(sa * a, sb * b) == pytest.approx(base, rel=1e-9)


def test_beamforming_solution_power():
    sol = BeamformingSolution(W=np.full((2, 2), 1.0 + 0.0j),
                              F=np.full((1, 2), 2.0j),
                              passive=PassiveBeam.uniform(4))
    assert sol.V.shape == (3, 2)
    assert sol.transmit_power == pytest.approx(4.0 + 8.0, rel=1e-15)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 5))
def test_metrics_lane_stack_equals_per_lane_calls(seed, lanes, n_ues):
    """A leading lane axis gives, lane by lane, exactly the two-dimensional
    results, with one noise value per lane for mse_all."""
    rng = np.random.default_rng(seed)
    dim = n_ues + 2
    h = (rng.standard_normal((lanes, n_ues, dim))
         + 1j * rng.standard_normal((lanes, n_ues, dim)))
    V = (rng.standard_normal((lanes, dim, n_ues))
         + 1j * rng.standard_normal((lanes, dim, n_ues)))
    mu = rng.standard_normal((lanes, n_ues)) + 1j * rng.standard_normal(
        (lanes, n_ues))
    noise = rng.uniform(0.1, 2.0, lanes)
    assert np.array_equal(mse_all(h, V, mu, noise), np.stack(
        [mse_all(h[i], V[i], mu[i], noise[i]) for i in range(lanes)]))
    assert np.array_equal(sinr_all(h, V, 0.3), np.stack(
        [sinr_all(h[i], V[i], 0.3) for i in range(lanes)]))
    report = sum_rate(h, V, 0.3)
    for i in range(lanes):
        alone = sum_rate(h[i], V[i], 0.3)
        assert report.sum_rate[i] == alone.sum_rate
        assert np.array_equal(report.rate[i], alone.rate)
