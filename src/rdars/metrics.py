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
    """Per-UE SINRs and rates plus solver metadata."""

    sinr: np.ndarray
    rate: np.ndarray
    sum_rate: float
    iterations: int = 0
    wall_time: float = 0.0
    converged: bool = True


def sinr_all(h: np.ndarray, V: np.ndarray, noise: float) -> np.ndarray:
    """SINR of every UE: own-column power over other-column powers plus
    noise, computed from the effective rows h (K x dim) and precoder
    columns V (dim x K)."""
    h = np.atleast_2d(h)
    if noise <= 0.0:
        raise ValueError("noise power must be positive")
    if h.shape[1] != V.shape[0] or h.shape[0] != V.shape[1]:
        raise ValueError(f"shape mismatch: h {h.shape} vs V {V.shape}")
    powers = np.abs(h @ V) ** 2          # [k, i] = |h_k v_i|^2
    signal = np.diag(powers)
    interference = powers.sum(axis=1) - signal
    return signal / (interference + noise)


def sum_rate(h: np.ndarray, V: np.ndarray, noise: float) -> RateReport:
    """Rates log2(1 + sinr) per UE and their sum."""
    g = sinr_all(h, V, noise)
    rate = np.log2(1.0 + g)
    return RateReport(sinr=g, rate=rate, sum_rate=float(rate.sum()))


def mse_k(h_k: np.ndarray, V: np.ndarray, k: int, mu_k: complex,
          noise: float) -> float:
    """Mean-square error of UE k's scalar receiver mu_k:
    1 - 2 Re(conj(mu) h_k v_k) + |mu|^2 (sum_m |h_k v_m|^2 + noise)."""
    s = np.asarray(h_k) @ V
    return float(
        1.0
        - 2.0 * np.real(np.conj(mu_k) * s[k])
        + abs(mu_k) ** 2 * (float(np.sum(np.abs(s) ** 2)) + noise)
    )


def mse_all(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
            noise: float) -> np.ndarray:
    """Vector of every UE's MSE for the given scalar receivers."""
    S = h @ V
    own = np.diag(S)
    total = (np.abs(S) ** 2).sum(axis=1) + noise
    return 1.0 - 2.0 * np.real(np.conj(mu) * own) + np.abs(mu) ** 2 * total


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
