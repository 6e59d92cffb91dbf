"""Shared fixtures-in-spirit: layout constants, geometry builders, and
independent brute-force routes used as oracles against the library."""

from __future__ import annotations

import cmath
import math

import numpy as np

from rdars.scenario import Geometry, SystemConfig, derive_geometry, drop_ues

BS = (0.0, 0.0, 15.0)
SURFACE = (50.0, 30.0, 15.0)
CENTER = (100.0, 0.0, 1.5)


def small_config(**overrides) -> SystemConfig:
    base = dict(n_tx=4, n_elems=16, n_connected=4, n_ues=3)
    base.update(overrides)
    return SystemConfig(**base)


def random_geometry(config, rng, radius=20.0, center=CENTER):
    ue = drop_ues(center, radius, config.n_ues, rng)
    return derive_geometry(BS, SURFACE, ue, config)


def aligned_pair_geometry(config):
    """Two UEs on one ray from the surface: identical direction, distinct
    path gains."""
    sur = np.asarray(SURFACE)
    first = np.array([100.0, 5.0, 1.5])
    second = sur + 1.8 * (first - sur)
    return derive_geometry(BS, SURFACE, np.stack([first, second]), config)


def exact_u_geometry(config, u_values, dist=60.0):
    """UEs placed in the surface's horizontal plane at exact spatial
    frequencies relative to the surface axis."""
    sur = np.asarray(SURFACE)
    rows = []
    for u in u_values:
        direction = np.array([u, math.sqrt(1.0 - u * u), 0.0])
        rows.append(sur + dist * direction)
    return derive_geometry(BS, SURFACE, np.stack(rows), config)


def synthetic_geometry(u_values, kappa_values, u_aoa=0.8574929257125442,
                       kappa_br=1.4596896931267826e-05):
    """Geometry with spatial frequencies pinned bit-exactly, bypassing the
    coordinate projection (positions are placeholders)."""
    u = np.asarray(u_values, dtype=float)
    return Geometry(
        bs_pos=np.zeros(3),
        rdars_pos=np.asarray(SURFACE, dtype=float),
        ue_pos=np.zeros((u.size, 3)),
        u_br_aoa=u_aoa,
        u_br_aod=u_aoa,
        u_ru_aod=u,
        kappa_br=kappa_br,
        kappa_ru=np.asarray(kappa_values, dtype=float),
    )


def brute_sparse_sum(a, eta, d, lam, du, m0=1):
    """Direct geometric sum over the connected elements."""
    return sum(cmath.exp(1j * 2.0 * math.pi * d / lam * (m0 - 1 + m * eta) * du)
               for m in range(a))


def brute_effective_rows(G, h_r, phi, index0):
    """Loop-based effective channel assembly, kept naive on purpose."""
    n_ues, n = h_r.shape
    n_tx = G.shape[1]
    connected = set(int(i) for i in index0)
    rows = np.zeros((n_ues, n_tx + len(connected)), dtype=complex)
    for k in range(n_ues):
        left = np.zeros(n_tx, dtype=complex)
        for i in range(n):
            if i not in connected:
                left += np.conj(h_r[k, i]) * phi[i] * G[i]
        right = np.array([np.conj(h_r[k, i]) for i in index0])
        rows[k] = np.concatenate([left, right])
    return rows


def mse_k(h_k: np.ndarray, V: np.ndarray, k: int, mu_k: complex,
          noise: float) -> float:
    """Mean-square error of UE k's scalar receiver mu_k, in the expanded
    form 1 - 2 Re(conj(mu) h_k v_k) + |mu|^2 (sum_m |h_k v_m|^2 + noise)."""
    s = np.asarray(h_k) @ V
    return float(
        1.0
        - 2.0 * np.real(np.conj(mu_k) * s[k])
        + abs(mu_k) ** 2 * (float(np.sum(np.abs(s) ** 2)) + noise)
    )
