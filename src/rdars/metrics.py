"""SINR, rates, per-UE mean-square error, and channel correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import PassiveBeam


@dataclass(frozen=True)
class BeamformingSolution:
    """Active precoders plus the passive reflection beam.

    W is the BS precoder (N_t x K), F the connected-element precoder
    (a x K); the stacked transmit matrix V has one column per UE.
    """

    W: np.ndarray
    F: np.ndarray
    passive: PassiveBeam

    @property
    def V(self) -> np.ndarray:
        return np.vstack([self.W, self.F])

    @property
    def transmit_power(self) -> float:
        return float(np.linalg.norm(self.W) ** 2 + np.linalg.norm(self.F) ** 2)


@dataclass(frozen=True)
class RateReport:
    """Per-UE SINRs and rates plus solver metadata: the maps a solve ran
    and whether it converged. ``sum_rate`` evaluated on a stack of lanes
    holds one sum per lane."""

    sinr: np.ndarray
    rate: np.ndarray
    sum_rate: float
    iterations: int = 0
    converged: bool = True


def sinr_all(h: np.ndarray, V: np.ndarray, noise: float) -> np.ndarray:
    """SINR of every UE: own-column power over other-column powers plus
    noise, computed from the effective rows h (K x dim) and precoder
    columns V (dim x K). A leading lane axis on h and V gives one row of
    SINRs per lane."""
    h = np.atleast_2d(h)
    if noise <= 0.0:
        raise ValueError("noise power must be positive")
    if h.shape[-1] != V.shape[-2] or h.shape[-2] != V.shape[-1]:
        raise ValueError(f"shape mismatch: h {h.shape} vs V {V.shape}")
    return _sinr_of(np.abs(h @ V) ** 2, noise)


def _sinr_of(powers: np.ndarray, noise: float) -> np.ndarray:
    """``sinr_all`` from the powers |h_k v_i|^2 at [k, i] of S = h V."""
    signal = np.diagonal(powers, axis1=-2, axis2=-1)
    interference = powers.sum(axis=-1) - signal
    return signal / (interference + noise)


def sum_rate(h: np.ndarray, V: np.ndarray, noise: float) -> RateReport:
    """Rates log2(1 + sinr) per UE and their sum (per lane for a stack)."""
    return _rate_report(sinr_all(h, V, noise))


def rate_bits(g):
    """log2(1 + g) by log1p, which keeps its digits at any small SINR."""
    return np.log1p(g) / np.log(2.0)


def _rate_report(g: np.ndarray) -> RateReport:
    """``sum_rate``'s report at these SINRs."""
    rate = rate_bits(g)
    total = rate.sum(axis=-1)
    return RateReport(sinr=g, rate=rate,
                      sum_rate=float(total) if total.ndim == 0 else total)


def mse_all(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
            noise: float | np.ndarray) -> np.ndarray:
    """Vector of every UE's MSE for the given scalar receivers, as
    |1 - conj(mu_k) h_k v_k|^2 + |mu_k|^2 (sum_{m != k} |h_k v_m|^2 + noise).
    At high SINR the MSE is far below 1, and the expanded form
    1 - 2 Re(conj(mu_k) h_k v_k) + |mu_k|^2 (sum_m |h_k v_m|^2 + noise)
    would lose most of its digits to cancellation. A leading
    lane axis on h, V and mu, with one noise value per lane, gives one
    row of MSEs per lane."""
    S = h @ V
    return _mse_of(S, np.abs(S) ** 2, mu, noise)


def _mse_of(S: np.ndarray, powers: np.ndarray, mu: np.ndarray,
            noise: float | np.ndarray) -> np.ndarray:
    """``mse_all`` from S = h V and its powers |S|^2."""
    own = S.diagonal(0, -2, -1)
    leak = powers.copy()
    n = leak.shape[-1]
    leak.reshape(leak.shape[:-2] + (n * n,))[..., ::n + 1] = 0.0  # diagonal
    return (np.abs(1.0 - np.conj(mu) * own) ** 2
            + np.abs(mu) ** 2 * (leak.sum(axis=-1)
                                 + np.asarray(noise)[..., None]))


def cscc(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """Squared correlation coefficient of two channel rows,
    |<h_a, h_b>|^2 / (||h_a||^2 ||h_b||^2), clamped to [0, 1] against
    roundoff. 1 means parallel (indistinguishable UEs), 0 orthogonal."""
    na = float(np.sum(np.abs(h_a) ** 2))
    nb = float(np.sum(np.abs(h_b) ** 2))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cscc undefined for a zero channel row")
    inner = np.vdot(h_b, h_a)  # sum h_a[i] * conj(h_b[i])
    val = float(np.abs(inner) ** 2 / (na * nb))
    return min(max(val, 0.0), 1.0)
