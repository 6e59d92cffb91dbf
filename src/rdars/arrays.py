"""Steering vectors, connected-element mode selection, LoS channels, and
per-UE effective channel rows."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import Geometry, SystemConfig


def steering(n: int, u: float, d: float, lam: float) -> np.ndarray:
    """Steering vector of an n-element uniform line array.

    Entry m (1-based) is exp(1j * 2*pi * u * (m-1) * d / lam); the first
    entry is exactly 1.
    """
    if n < 1:
        raise ValueError("array size must be at least 1")
    return np.exp(1j * (2.0 * np.pi * d / lam) * u * np.arange(n))


@dataclass(frozen=True)
class ModeSelection:
    """Uniform sparse placement of the connected elements.

    ``index_set`` holds the 1-based element indices 1 + m*eta for
    m = 0..a-1, a uniform sparse array from the first element; everything
    else reflects.
    """

    n_elems: int
    eta: int
    index_set: np.ndarray

    @property
    def n_connected(self) -> int:
        return self.index_set.size

    @property
    def index0(self) -> np.ndarray:
        """Zero-based positions of the connected elements."""
        return self.index_set - 1

    @cached_property
    def a_vec(self) -> np.ndarray:
        """Length-N binary vector, 1 at connected elements."""
        v = np.zeros(self.n_elems)
        v[self.index0] = 1.0
        v.flags.writeable = False
        return v


def make_mode(n: int, a: int, eta: int) -> ModeSelection:
    """Build the connected-element index set {1 + m*eta : m = 0..a-1}."""
    if n < 1 or not 1 <= a <= n:
        raise ValueError(f"need 1 <= a <= n, got a={a}, n={n}")
    if eta < 1:
        raise ValueError("eta must be a positive integer")
    last = 1 + (a - 1) * eta
    if last > n:
        raise ValueError(
            f"sparsity eta={eta} infeasible: last connected index {last} > n={n}"
        )
    idx = 1 + eta * np.arange(a)
    idx.flags.writeable = False
    return ModeSelection(n_elems=n, eta=eta, index_set=idx)


def feasible_sparsities(n: int, a: int) -> list[int]:
    """All sparsity levels that fit a connected elements in an n-element
    aperture: {1, ..., floor((n-1)/(a-1))}, and {1} when a == 1."""
    if a > n:
        raise ValueError(f"cannot connect a={a} of n={n} elements")
    if a < 1:
        raise ValueError("a must be at least 1")
    if a == 1:
        return [1]
    return list(range(1, (n - 1) // (a - 1) + 1))


@dataclass(frozen=True)
class ChannelSet:
    """Raw propagation channels: BS-to-surface matrix G (N x N_t) and the
    surface-to-UE vectors stacked as rows of h_r (K x N), with the LoS
    factors of G = kappa_br b_aoa b_aod^H that built it."""

    G: np.ndarray
    h_r: np.ndarray
    kappa_br: float
    b_aoa: np.ndarray
    b_aod: np.ndarray

    @property
    def n_ues(self) -> int:
        return self.h_r.shape[0]

    @property
    def n_elems(self) -> int:
        return self.G.shape[0]


def los_channels(geometry: Geometry, config: SystemConfig) -> ChannelSet:
    """Line-of-sight channels: G is the rank-one steering outer product,
    h_r[k] the scaled surface steering vector toward UE k. Both arrays lie
    along x, so the backhaul has one spatial frequency at both ends."""
    n, nt = config.n_elems, config.n_tx
    d, lam = config.spacing, config.wavelength
    b_aoa = steering(n, geometry.u_br_aoa, d, lam)
    b_aod = steering(nt, geometry.u_br_aoa, d, lam)
    G = geometry.kappa_br * np.outer(b_aoa, b_aod.conj())
    h_r = np.array([
        kr * steering(n, float(u), d, lam)
        for kr, u in zip(geometry.kappa_ru, geometry.u_ru_aod)
    ])
    return ChannelSet(G=G, h_r=h_r, kappa_br=float(geometry.kappa_br),
                      b_aoa=b_aoa, b_aod=b_aod)


@dataclass(frozen=True)
class PassiveBeam:
    """Unit-modulus reflection coefficients, one per surface element.

    ``phi[n]`` is the diagonal entry of the reflection matrix, i.e. the
    phase factor e^{j phi_n} applied to the n-th reflected path.
    """

    phi: np.ndarray

    def __post_init__(self):
        if self.phi.ndim != 1:
            raise ValueError("phi must be a vector")
        off = np.abs(np.abs(self.phi) - 1.0)
        if not (off <= 1e-12).all():            # NaN fails too
            raise ValueError("phi entries must be unit modulus "
                             f"(worst |.|-1 = {float(np.max(off)):g})")

    @classmethod
    def uniform(cls, n: int) -> "PassiveBeam":
        return cls(np.ones(n, dtype=complex))

    @classmethod
    def from_phases(cls, angles) -> "PassiveBeam":
        with np.errstate(invalid="ignore"):     # a non-finite angle fails
            return cls(np.exp(1j * np.asarray(angles, dtype=float)))


def effective_matrix(channels: ChannelSet, passive: PassiveBeam,
                     mode: ModeSelection) -> np.ndarray:
    """All K effective rows stacked: [conj(h_r) * phi * (1-a_vec)] @ G on
    the left, conj(h_r) at the connected indices on the right."""
    if channels.n_elems != mode.n_elems or passive.phi.size != mode.n_elems:
        raise ValueError("channel, passive-beam and mode sizes disagree")
    hc = channels.h_r.conj()
    reflect = (hc * passive.phi * (1.0 - mode.a_vec)) @ channels.G
    return np.concatenate([reflect, hc[:, mode.index0]], axis=-1)
