"""Shared fixtures-in-spirit: layout constants, geometry builders, and
independent brute-force routes used as oracles against the library."""

from __future__ import annotations

import cmath
import math

import numpy as np

from rdars import wmmse
from rdars.arrays import BeamStack, ModeStack, PassiveBeam
from rdars.metrics import sum_rate
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


def squarem_point(states, power: float):
    """One-lane SqS3 extrapolation (Varadhan and Roland, Scand. J. Statist.
    2008), the reference for ``wmmse._sqs3_step``: from three successive
    states (V, phi) of the plain map, on the stacked vectors
    x = (V / sqrt(P), phi), with r = x1 - x0, v = x2 - 2 x1 + x0 and
    alpha = -||r|| / ||v||, x0 - 2 alpha r + alpha^2 v projected onto the
    full-power sphere and unit modulus. None when alpha >= -1 (no longer
    than the plain double step)."""
    scale = 1.0 / math.sqrt(power)
    x0, x1, x2 = (np.concatenate([V.ravel() * scale, phi])
                  for V, phi in states)
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    norm_r, norm_v = float(np.linalg.norm(r)), float(np.linalg.norm(v))
    if not norm_r > norm_v:
        return None
    alpha = -norm_r / norm_v
    shape, size = states[0][0].shape, states[0][0].size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = x0 - 2.0 * alpha * r + alpha * alpha * v
        V = y[:size].reshape(shape)
        V = V * (math.sqrt(power) / np.linalg.norm(V))
        phi = y[size:] / np.abs(y[size:])
    return V, phi


def sqs3_reference(channels, mode, config):
    """One-lane SqS3 loop, written plainly as the reference for the
    lockstep driver ``wmmse.ao_solve_levels``. Each cycle makes two plain
    maps and extrapolates with ``squarem_point`` if the stabilizing map
    still fits under the cap. A finite point passes the guard if its
    lifted objective at fresh receivers and the current weights is at most
    the last recorded one and its sum rate at least the current one; one
    plain map from it ends the cycle. The run stops when the relative
    sum-rate gain of a cycle's first map, or of the whole cycle, is below
    the threshold. Returns the fields of an ``AoResult``: (V, phases,
    SINRs, rates, sum rate, surrogate rows, sum-rate trace, converged,
    accepted, rejected)."""
    power, noise = config.total_power, config.noise_power
    stack, powers = ModeStack((mode,)), np.array([power])
    phi = np.ones(mode.n_elems, dtype=complex)
    h = wmmse.effective_matrix(channels, PassiveBeam(phi), mode)
    V = wmmse.zf_init(h, power)
    zeta = np.ones(channels.n_ues)
    report = sum_rate(h, V, noise)
    sinr, rate, total = report.sinr, report.rate, report.sum_rate
    rows, trace = [], []
    accepted = rejected = 0

    def plain_map(h, V, phi, zeta):
        h, V, _, beam, zeta, row = wmmse._ao_map(
            channels, stack, noise, powers, h[None], V[None],
            BeamStack(phi[None]), zeta[None])
        report = sum_rate(h, V, noise)
        rows.append(row[0])
        trace.append(float(report.sum_rate[0]))
        return (h[0], V[0], beam.phi[0], zeta[0], report.sinr[0],
                report.rate[0], trace[-1])

    def stalled(start):
        return total - start < config.conv_threshold * max(
            start, np.finfo(float).tiny)

    converged = False
    while len(trace) < config.max_outer_iters and not converged:
        start, x0 = total, (V, phi)
        h, V, phi, zeta, sinr, rate, total = plain_map(h, V, phi, zeta)
        converged = stalled(start)
        if converged or len(trace) == config.max_outer_iters:
            break
        x1 = (V, phi)
        h, V, phi, zeta, sinr, rate, total = plain_map(h, V, phi, zeta)
        point = (squarem_point([x0, x1, (V, phi)], power)
                 if len(trace) < config.max_outer_iters else None)
        if point is not None:
            V_x, phi_x = point
            passed = np.isfinite(V_x).all() and np.isfinite(phi_x).all()
            if passed:
                h_x = wmmse.effective_matrix(channels, BeamStack(phi_x[None]),
                                             stack)
                mu = wmmse.update_receivers(h_x, V_x[None], noise, powers)
                objective = wmmse.surrogate_value(h_x, V_x[None], mu,
                                                  zeta[None], noise, powers)
                passed = (objective[0] <= rows[-1][3] and sum_rate(
                    h_x, V_x[None], noise).sum_rate[0] >= total)
            if passed:
                accepted += 1
                h, V, phi, zeta, sinr, rate, total = plain_map(
                    h_x[0], V_x, phi_x, zeta)
            else:
                rejected += 1
        converged = stalled(start)
    return (V, phi, sinr, rate, total, np.asarray(rows), np.asarray(trace),
            converged, accepted, rejected)
