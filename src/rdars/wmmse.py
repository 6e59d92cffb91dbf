"""Weighted-MMSE alternating optimization of the joint beamforming design.

The sum-rate problem is lifted to a weighted MSE minimization over
per-UE receive scalars, positive weights, the stacked BS plus
connected-element precoder, and the reflection phases. The receiver,
weight and precoder updates below minimize the lifted objective with the
others held fixed; the phase update is a few majorization-minimization
steps, each of which lowers it or leaves it unchanged. The objective is
therefore nonincreasing across sub-updates, which is what block
successive upper-bound minimization needs.

The noise term inside every MSE is scaled by the transmit-power ratio
||V||_F^2 / P. On the full-power sphere this reduces to the plain noise
power and makes the MSE of the exact receiver equal 1/(1 + SINR). The
precoder step ends on that sphere, so every iterate spends the whole
budget, the objective after the weight update is K - ln(2) times the
sum rate, and the recorded sum rate is nondecreasing by construction.

``ao_solve`` accelerates this map with guarded SQUAREM extrapolation that
keeps it monotone. ``ao_solve_levels`` solves several (sparsity level,
config) lanes of one drop in lockstep, each bit for bit as alone; for it,
the kernels of the map take an optional leading lane axis. The phase
block works on the LoS factors of the channels and forms no N x N matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .arrays import (BeamStack, ChannelSet, ModeSelection, ModeStack,
                     PassiveBeam, effective_matrix, feasible_sparsities,
                     los_channels, make_mode)
from .metrics import BeamformingSolution, RateReport, mse_all, sum_rate
from .scenario import Geometry, SystemConfig


def effective_noise(V: np.ndarray, noise_power: float,
                    total_power: float | np.ndarray) -> float | np.ndarray:
    """Noise power scaled by the fraction of the budget actually spent
    (one value per lane for a stack of precoders, whose ``total_power``
    may hold one budget per lane)."""
    return noise_power * _power(V) / total_power


def _power(V: np.ndarray) -> float | np.ndarray:
    """||V||_F^2, per lane for a stack."""
    return (np.abs(V) ** 2).sum(axis=(-2, -1))


def zf_init(h: np.ndarray, total_power: float) -> np.ndarray:
    """Zero-forcing start point: pseudoinverse columns scaled to equal
    power shares. Falls back to matched filtering when there are more UEs
    than transmit dimensions (the pseudoinverse cannot null there)."""
    h = np.atleast_2d(h)
    n_ues, dim = h.shape
    V = np.linalg.pinv(h) if n_ues <= dim else h.conj().T
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero effective channel row; cannot initialize")
    return V * (math.sqrt(total_power / n_ues) / norms)


def update_receivers(h: np.ndarray, V: np.ndarray, noise_power: float,
                     total_power: float | np.ndarray) -> np.ndarray:
    """Per-UE MMSE receive scalars under the scaled noise convention.
    Like every kernel of the map, it also takes a leading lane axis, and
    then one ``total_power`` per lane or one for all."""
    s = h @ V
    sig = effective_noise(V, noise_power, total_power)
    if (sig <= 0.0).any():
        raise ValueError("precoder carries no power; receivers undefined")
    denom = (np.abs(s) ** 2).sum(axis=-1) + np.asarray(sig)[..., None]
    return np.diagonal(s, axis1=-2, axis2=-1) / denom


def update_weights(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
                   noise_power: float, total_power: float) -> np.ndarray:
    """Optimal MSE weights, the reciprocals of the current MSEs."""
    e = mse_all(h, V, mu, effective_noise(V, noise_power, total_power))
    return 1.0 / e


def surrogate_value(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
                    zeta: np.ndarray, noise_power: float,
                    total_power: float | np.ndarray) -> float | np.ndarray:
    """Lifted objective sum_k (zeta_k e_k - ln zeta_k)."""
    e = mse_all(h, V, mu, effective_noise(V, noise_power, total_power))
    return _lifted_objective(zeta, e)


def _lifted_objective(zeta: np.ndarray, e: np.ndarray) -> float | np.ndarray:
    """sum_k (zeta_k e_k - ln zeta_k) at given weights and MSEs."""
    value = (zeta * e - np.log(zeta)).sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def precoders_at(h: np.ndarray, mu: np.ndarray, zeta: np.ndarray,
                 rho: float | np.ndarray) -> np.ndarray:
    """Stacked precoder at a given normalized multiplier: columns
    zeta_k mu_k (A0 + rho s0 I)^{-1} h_k^H with A0 the weighted channel
    Gram matrix and s0 the weight sum. At rho = sigma^2 / P this is the
    minimizer of the lifted objective over V, the solve that
    ``update_precoders`` makes. A lane stack takes one ``rho`` per lane
    or one for all."""
    w = zeta * np.abs(mu) ** 2
    dim = h.shape[-1]
    hH = h.conj().swapaxes(-2, -1)
    a0 = (hH * w[..., None, :]) @ h
    s0 = np.sum(w, axis=-1)[..., None, None]
    rhs = hH * (zeta * mu)[..., None, :]
    rho = np.asarray(rho)[..., None, None]
    return np.linalg.solve(a0 + rho * s0 * np.eye(dim), rhs)


def update_precoders(h: np.ndarray, mu: np.ndarray, zeta: np.ndarray,
                     noise_power: float, total_power: float | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Precoder block update, returned as a precoder and receiver pair.

    With the noise scaled by ||V||_F^2 / P, the lifted objective is an
    unconstrained quadratic in V whose minimizer is ``precoders_at`` at
    rho = noise_power / total_power (Christensen et al., IEEE TWC 2008).
    The objective does not change under (V, mu) -> (c V, mu / c), so
    c = sqrt(P / ||V||_F^2) puts the minimizer on the full-power sphere
    and the receivers are divided by c to match. A lane with no weight
    anywhere (zeta |mu|^2 sums to 0) gets zeros and keeps its ``mu``. A
    lane stack takes one ``total_power`` per lane or one for all.
    """
    rho = noise_power / total_power
    weighted = (zeta * np.abs(mu) ** 2).sum(axis=-1) > 0.0
    shape = h.shape[:-2] + h.shape[:-3:-1]
    if not weighted.any():
        return np.zeros(shape, dtype=complex), mu
    if weighted.all():
        V = precoders_at(h, mu, zeta, rho)
    else:
        V = np.zeros(shape, dtype=complex)
        V[weighted] = precoders_at(h[weighted], mu[weighted], zeta[weighted],
                                   np.broadcast_to(rho, weighted.shape)[weighted])
    c = np.sqrt(total_power / np.where(weighted, _power(V), total_power))
    return c[..., None, None] * V, mu / c[..., None]


@dataclass(frozen=True)
class PhaseQuadratic:
    """Reflection-phase part of the lifted objective, written as
    x^H C x + 2 Re(beta^H x) in the conjugated phase vector x."""

    matrix: np.ndarray
    linear: np.ndarray


def build_phase_quadratic(channels: ChannelSet,
                          mode: ModeSelection | ModeStack, W: np.ndarray,
                          F: np.ndarray, mu: np.ndarray,
                          zeta: np.ndarray) -> PhaseQuadratic:
    """Assemble the phase quadratic for the current precoders and weights
    (one per lane for a ``ModeStack`` and lane-stacked W, F, mu, zeta).

    Rows and columns at connected elements vanish (those elements do not
    reflect), so their phases are free and left untouched downstream.
    """
    abar = 1.0 - mode.a_vec
    cmat = abar[..., None, :] * channels.h_r.conj()   # rows c_k
    cmat_t = cmat.swapaxes(-2, -1)
    w = zeta * np.abs(mu) ** 2
    B = (cmat_t * w[..., None, :]) @ cmat.conj()
    GW = channels.G @ W
    # np.multiply, not `*`: numpy may swap the operands of a large
    # `x * temporary`, and complex products round by operand order
    C = np.multiply(B, GW @ GW.conj().swapaxes(-2, -1), out=B)

    sel = channels.h_r.T[mode.index0].swapaxes(-2, -1)   # rows h_sel_k
    cross = sel @ F.conj()                            # row k: F^H h_sel_k
    beta1 = _matvec(np.multiply(cmat_t, GW @ cross.swapaxes(-2, -1)), w)
    beta2 = _matvec(cmat_t * GW, zeta * mu.conj())
    return PhaseQuadratic(matrix=C, linear=beta1 - beta2)


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a matrix and a vector, or a stack of each."""
    return (A @ x[..., None])[..., 0]


def phase_objective(quad: PhaseQuadratic, passive: PassiveBeam) -> float:
    """Evaluate the phase quadratic at a reflection profile."""
    x = passive.phi.conj()
    val = x.conj() @ quad.matrix @ x + 2.0 * np.real(quad.linear.conj() @ x)
    return float(np.real(val))


def power_iteration(C: np.ndarray, beta_vec: np.ndarray, tol: float = 1e-10,
                    max_iters: int = 1000,
                    p0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise power iteration on the lifted phase problem.

    Minimizes x^H C x + 2 Re(beta^H x) over unit-modulus x by maximizing
    p^H D p over unit-modulus p, with D = [[-C, -beta], [-beta^H, 0]].
    The majorizer (Sun, Babu, Palomar, IEEE TSP 2017) adds the diagonal
    Lambda_ii = sum_{j != i} |D_ij| - D_ii + 1e-9 max_i sum_j |D_ij|, which
    makes D + Lambda diagonally dominant, hence positive semidefinite with
    no eigenvalue needed. On unit-modulus p, p^H Lambda p is the constant
    tr Lambda, so maximizing the convex p^H (D + Lambda) p by one linear
    minorant per step never lowers p^H D p. The margin makes every row
    strictly dominant, so no product entry vanishes unless D is zero.

    A step z = (D + Lambda) p gives the next phases z / |z| and the
    objective p^H D p = Re(p^H z) - tr Lambda. Entries whose product
    vanishes (all of them when D is zero, as on the all-zero rows of
    connected elements) keep their phase: such a step yields NaN phases,
    seen as a NaN objective, and is redone with that guard.

    Without ``p0``, the all-ones vector and the phases of the leading
    eigenvector of D (one ``eigh``) are both run and the better finisher
    kept; an explicit ``p0`` (a warm start) runs alone, with no
    eigendecomposition, so the result never falls below the start value.

    Returns x and the trace of p^H D p, nondecreasing by construction; a
    decrease beyond rounding noise raises ArithmeticError. A leading lane
    axis on C, beta_vec and p0 (which a stack needs) runs independent
    problems in lockstep, each exactly as alone; a lane's trace column
    repeats its last value once it stopped.
    """
    lanes = C.ndim == 3
    if lanes and p0 is None:
        raise ValueError("a stack of phase problems needs start points p0")
    C, beta_vec = (C, beta_vec) if lanes else (C[None], beta_vec[None])
    n_lanes, n = beta_vec.shape
    D = -np.block([[C, beta_vec[..., None]],
                   [beta_vec.conj()[:, None], np.zeros((n_lanes, 1, 1))]])
    if p0 is None:
        lead = np.linalg.eigh(D[0])[1][:, -1]
        mags = np.abs(lead)
        lead = np.where(mags > 0.0,
                        lead / np.where(mags > 0.0, mags, 1.0), 1.0)
        starts = [np.ones((1, n + 1), dtype=complex), lead[None]]
    else:
        p = np.asarray(p0, dtype=complex)
        expected = (n_lanes, n + 1) if lanes else (n + 1,)
        if p.shape != expected:
            raise ValueError(f"p0 must have shape {expected}, got {p.shape}")
        p = p.reshape(n_lanes, n + 1)
        mags = np.abs(p)
        if (mags == 0.0).any():
            raise ValueError("p0 entries must be nonzero")
        starts = [p / mags]
    row_sums = np.abs(D).sum(axis=-1)
    diagonal = np.diagonal(D, axis1=-2, axis2=-1)
    shift = (row_sums - np.abs(diagonal) - diagonal.real
             + 1e-9 * row_sums.max(axis=-1, keepdims=True))
    apply = partial(_matvec, D + shift[..., None] * np.eye(n + 1))
    offset = shift.sum(axis=-1)
    p_best, hist_best = _mm_steps(apply, offset, starts[0], tol, max_iters)
    for p_start in starts[1:]:
        p_alt, hist_alt = _mm_steps(apply, offset, p_start, tol, max_iters)
        if hist_alt[-1, 0] > hist_best[-1, 0]:
            p_best, hist_best = p_alt, hist_alt
    x = np.exp(1j * np.angle(p_best[:, :n] * np.conj(p_best[:, n:])))
    return (x, hist_best) if lanes else (x[0], hist_best[:, 0])


def _mm_steps(apply, offset: np.ndarray, p: np.ndarray, tol: float,
              max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The step loop of ``power_iteration`` for any form of the operator:
    ``apply(p)`` is (D + Lambda) p, one row per lane, ``offset`` is
    tr Lambda. Returns the last p and the objective history by lane."""
    def objective(p, z):
        return (p.conj()[:, None, :] @ z[:, :, None])[:, 0, 0].real - offset

    with np.errstate(divide="ignore", invalid="ignore"):
        z = apply(p)
        obj = objective(p, z)
        history = [obj]
        active = np.ones(len(p), dtype=bool)
        for _ in range(max_iters):
            p_new = z / np.abs(z)
            z_new = apply(p_new)
            obj_new = objective(p_new, z_new)
            if np.isnan(obj_new).any():
                # redoing a finite lane repeats its step exactly
                p_new = np.where(np.abs(z) > 0.0, p_new, p)
                z_new = apply(p_new)
                obj_new = objective(p_new, z_new)
            scale = 1.0 + np.abs(obj)
            if (active & (obj_new < obj - 1e-8 * scale)).any():
                raise ArithmeticError("homogenized objective decreased "
                                      "during the phase power iteration")
            if not active.all():        # stopped lanes keep their state
                p_new = np.where(active[:, None], p_new, p)
                z_new = np.where(active[:, None], z_new, z)
                obj_new = np.where(active, obj_new, obj)
            done = np.abs(obj_new - obj) <= tol * scale
            p, z, obj = p_new, z_new, obj_new
            history.append(obj)
            active &= ~done
            if not active.any():
                break
    return p, np.asarray(history)


def _phase_operator(channels: ChannelSet, mode: ModeStack, W: np.ndarray,
                    F: np.ndarray, mu: np.ndarray, zeta: np.ndarray):
    """D + Lambda of ``power_iteration`` on each lane's phase quadratic
    (``build_phase_quadratic``'s), as (apply: p -> (D + Lambda) p, Lambda),
    from the LoS factors; no N x N matrix is formed. G W = kappa b_aoa t
    with t = b_aod^H W, so C = s P diag(w) P^H and beta = kappa P v, where
    s = kappa^2 ||t||^2, w = zeta |mu|^2, P = diag(b_aoa) cmat^T and
    v = (cross t) w - t zeta conj(mu): D = B A with B = -[[P, 0], [0, 1]]
    and A = [[s diag(w) P^H, kappa v], [beta^H, 0]]. D_ii <= 0, so Lambda
    is the row sums of |D| plus the margin. With h_r[k, m] =
    kappa_k e^{j theta_k m}, |C_ij| = s abar_i abar_j g(|i - j|) for
    g(d) = |sum_k w_k h_r[k, 0] h_r[k, d]|; its row sums take two prefix
    sums of g, less g at the distances to the connected elements."""
    abar = 1.0 - mode.a_vec
    n = abar.shape[-1]
    Pt = (abar * channels.b_aoa)[..., None, :] * channels.h_r.conj()   # P^T
    w = zeta * np.abs(mu) ** 2
    t = channels.b_aod.conj() @ W
    s = channels.kappa_br ** 2 * (np.abs(t) ** 2).sum(axis=-1)
    sel = channels.h_r.T[mode.index0].swapaxes(-2, -1)   # rows h_sel_k
    u = _matvec(sel, _matvec(F.conj(), t))            # cross t
    kv = channels.kappa_br * (u * w - t * zeta * mu.conj())
    beta = _matvec(Pt.swapaxes(-2, -1), kv)

    n_lanes, n_ues = w.shape
    A = np.zeros((n_lanes, n_ues + 1, n + 1), dtype=complex)
    np.multiply((s[:, None] * w)[..., None], Pt.conj(), out=A[:, :n_ues, :n])
    A[:, :n_ues, n], A[:, n_ues, :n] = kv, beta.conj()
    B = np.zeros((n_lanes, n_ues + 1, n + 1), dtype=complex)   # B^T
    B[:, :n_ues, :n], B[:, n_ues, n] = -Pt, -1.0
    B = B.swapaxes(-2, -1)

    g = np.abs(_matvec(channels.h_r.T, w * channels.h_r[:, 0].real))
    cum = np.cumsum(g, axis=-1)
    dist = np.abs(np.arange(n)[:, None] - mode.index0[..., None, :])
    connected = np.take(g, dist + n * np.arange(n_lanes)[:, None, None])
    spread = cum + cum[..., ::-1] - g[..., :1] - connected.sum(axis=-1)
    beta_abs = np.abs(beta)
    row_sums = np.concatenate([s[:, None] * abar * spread + beta_abs,
                               beta_abs.sum(axis=-1, keepdims=True)], axis=-1)
    shift = row_sums + 1e-9 * row_sums.max(axis=-1, keepdims=True)

    def apply(p):
        return (B @ (A @ p[..., None]))[..., 0] + shift * p

    return apply, shift


def _phase_block(channels: ChannelSet, mode: ModeStack, W: np.ndarray,
                 F: np.ndarray, mu: np.ndarray, zeta: np.ndarray,
                 p0: np.ndarray, max_iters: int) -> np.ndarray:
    """The phase update of ``_ao_map``: at most ``max_iters`` steps of the
    ``power_iteration`` loop, with its default stop test, on
    ``_phase_operator`` from the start points ``p0`` (one row per lane);
    returns the new phase vectors x."""
    apply, shift = _phase_operator(channels, mode, W, F, mu, zeta)
    p, _ = _mm_steps(apply, shift.sum(-1), p0 / np.abs(p0), 1e-10, max_iters)
    return np.exp(1j * np.angle(p[:, :-1] * np.conj(p[:, -1:])))


# Most MM steps per phase block (its stop test may end it sooner). Each
# step keeps the block monotone, all that block successive upper-bound
# minimization needs (Razaviyayn, Hong, Luo, SIAM J. Optim. 2013); on the
# `campaign_sweep` rows three steps stay within 1.4e-5 of the block run
# to its stop test, one step within 2e-4.
_PHASE_STEPS = 3


@dataclass(frozen=True)
class AoResult:
    """A full alternating-optimization run: the beamformers, the mode they
    were optimized for, the rate report, the per-map traces, and the
    accelerator's counts. The phase update of every plain map is at most
    ``_PHASE_STEPS`` MM steps of the ``power_iteration`` loop.

    ``accepted`` and ``rejected`` count the SQUAREM extrapolations that
    passed and failed the monotonicity guard; a cycle whose step length
    gives no extrapolation (alpha >= -1) counts in neither."""

    solution: BeamformingSolution
    mode: ModeSelection
    report: RateReport
    surrogate_trace: np.ndarray    # (iters, 4): post receiver/weight/precoder/phase
    sum_rate_trace: np.ndarray     # (iters,)
    accepted: int
    rejected: int


def _ao_map(channels: ChannelSet, mode: ModeStack, noise: float,
            power: np.ndarray, h: np.ndarray, V: np.ndarray,
            passive: BeamStack, zeta: np.ndarray) -> tuple:
    """One plain alternating-optimization map for every lane of a stack:
    ``mode`` and ``power`` hold one level and one transmit power per lane;
    ``h`` (the effective channels at the phases), ``V``, the phases and
    ``zeta`` (the last weights) have a leading lane axis. Updates the
    receivers, the weights and the precoder exactly, then the phases by
    ``_phase_block``, warm-started. Returns the new (h, V, mu, passive,
    zeta) and, per lane, the lifted objective after each block update.
    """
    n_tx = channels.G.shape[1]
    mu = update_receivers(h, V, noise, power)
    e = mse_all(h, V, mu, effective_noise(V, noise, power))
    s1 = _lifted_objective(zeta, e)
    zeta = 1.0 / e                         # update_weights at this state
    s2 = _lifted_objective(zeta, e)
    V, mu = update_precoders(h, mu, zeta, noise, power)
    s3 = surrogate_value(h, V, mu, zeta, noise, power)

    p0 = np.concatenate([passive.phi.conj(), np.ones((len(V), 1))], axis=1)
    x = _phase_block(channels, mode, V[:, :n_tx], V[:, n_tx:], mu, zeta, p0,
                     max_iters=_PHASE_STEPS)
    passive = BeamStack(x.conj())
    h = effective_matrix(channels, passive, mode)
    s4 = surrogate_value(h, V, mu, zeta, noise, power)
    return h, V, mu, passive, zeta, np.stack([s1, s2, s3, s4], axis=1)


def _squarem_point(states, power: float):
    """SqS3 extrapolation (Varadhan and Roland, Scand. J. Statist. 2008)
    from three successive states (V, phi) of the plain map: on the stacked
    vectors x = (V / sqrt(P), phi), with r = x1 - x0, v = x2 - 2 x1 + x0
    and alpha = -||r|| / ||v||, x0 - 2 alpha r + alpha^2 v projected onto
    the full-power sphere and unit modulus. None when alpha >= -1 (no
    longer than the plain double step). An overflowing step or a
    vanishing entry gives a non-finite pair, which the guard rejects."""
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


def ao_solve(channels: ChannelSet, mode: ModeSelection,
             config: SystemConfig) -> AoResult:
    """Run the alternating optimization from the standard start point
    (uniform reflection, zero-forcing precoder, unit weights), accelerated
    by SQUAREM on the plain map ``_ao_map``.

    Each cycle takes two plain maps from its start x0, to x1 and x2, and
    extrapolates from the three (``_squarem_point``). The extrapolated
    point is accepted only if its lifted objective at fresh receivers and
    the current weights is no larger than the last recorded one, and its
    sum rate no lower than at x2; one plain map from it then ends the
    cycle. Otherwise the next cycle starts at x2. Only plain-map outputs
    are recorded and returned, so both traces stay monotone; with every
    extrapolation rejected, this is the plain loop.

    Every plain map counts against ``max_outer_iters``, and an
    extrapolation is tried only when the stabilizing map still fits. The
    run stops when the relative sum-rate gain of a cycle's first map, or
    of the whole cycle, drops below the threshold; a run that uses up its
    maps first ends unconverged.

    This is the one-lane call of ``ao_solve_levels``.
    """
    (result,) = ao_solve_levels(channels, [(mode, config)])
    if isinstance(result, Exception):
        raise result
    return result


def _sqs3_lane(channels: ChannelSet, mode: ModeSelection,
               config: SystemConfig):
    """The SQUAREM driver of ``ao_solve`` for one lane, as a generator. It
    yields ``("map", (h, V, phases, zeta))`` for a plain map, answered with
    (h, V, phases, zeta, surrogate row, rate report), and ``("guard",
    (V, phases, zeta))`` at a finite extrapolated point, answered with
    (h, lifted objective, sum rate) there; it returns the lane's
    ``AoResult``, whose ``wall_time`` the caller sets."""
    power, noise = config.total_power, config.noise_power
    cap = config.max_outer_iters

    passive = PassiveBeam.uniform(mode.n_elems)
    phi = passive.phi
    h = effective_matrix(channels, passive, mode)
    V = zf_init(h, power)
    zeta = np.ones(channels.n_ues)
    report = sum_rate(h, V, noise)

    surrogate_rows = []
    rate_trace = []
    accepted = rejected = 0

    def record(out):
        nonlocal h, V, phi, zeta, report
        h, V, phi, zeta, row, report = out
        surrogate_rows.append(row)
        rate_trace.append(report.sum_rate)

    def stalled(rate_start):
        # multiplied-out fractional-gain test; the quotient would overflow
        # on the first pass where the reference rate is still zero
        return report.sum_rate - rate_start < config.conv_threshold \
            * max(rate_start, np.finfo(float).tiny)

    converged = False
    while len(rate_trace) < cap and not converged:
        rate_start = report.sum_rate
        states = [(V, phi)]
        record((yield "map", (h, V, phi, zeta)))
        if stalled(rate_start):
            converged = True
            break
        if len(rate_trace) == cap:
            break
        states.append((V, phi))
        record((yield "map", (h, V, phi, zeta)))
        states.append((V, phi))
        point = (_squarem_point(states, power)
                 if len(rate_trace) < cap else None)
        if point is not None:
            passed = False
            if np.isfinite(point[0]).all() and np.isfinite(point[1]).all():
                h_x, objective, rate_x = yield "guard", (*point, zeta)
                passed = (objective <= surrogate_rows[-1][3]
                          and rate_x >= report.sum_rate)
            if passed:
                accepted += 1
                (V, phi), h = point, h_x
                record((yield "map", (h, V, phi, zeta)))
            else:
                rejected += 1
        converged = stalled(rate_start)

    report = replace(report, iterations=len(rate_trace), converged=converged)
    n_tx = channels.G.shape[1]
    solution = BeamformingSolution(W=V[:n_tx], F=V[n_tx:],
                                   passive=PassiveBeam(phi))
    return AoResult(solution=solution, mode=mode, report=report,
                    surrogate_trace=np.asarray(surrogate_rows),
                    sum_rate_trace=np.asarray(rate_trace),
                    accepted=accepted, rejected=rejected)


def ao_solve_levels(channels: ChannelSet, lanes) -> list[AoResult | Exception]:
    """``ao_solve`` on one drop's channels for several lanes, each a
    (sparsity level, config) pair, solved in lockstep. The levels share
    one connection count; configs that differ in more than ``total_power``
    raise ValueError.

    Every lane runs its own SQUAREM driver (``_sqs3_lane``). Each round
    runs the guards of all lanes that wait for one as one stacked
    evaluation, then one ``_ao_map`` and ``sum_rate`` call for all lanes
    that wait for a plain map; a lane leaves when it stops. A lane runs
    exactly the operations of its solve alone, so every result equals
    ``ao_solve`` bit for bit, apart from ``report.wall_time``, which
    covers the whole call. Lanes keep copies of their slices of the
    stacked outputs, so no lane keeps a round stack alive.

    A stacked evaluation that raises is redone lane by lane. A lane whose
    own map, start point or guard raises ends there, and its entry in the
    returned list (one per lane, in order) is that exception; the other
    lanes go on.
    """
    t0 = time.perf_counter()
    lanes = list(lanes)
    if not lanes:
        return []
    configs = [config for _, config in lanes]
    for config in set(configs):
        if replace(config, total_power=configs[0].total_power) != configs[0]:
            raise ValueError("lockstep lanes may differ only in total_power")
    noise = configs[0].noise_power
    powers = np.array([config.total_power for config in configs])
    drivers = [_sqs3_lane(channels, mode, config) for mode, config in lanes]
    results: list = [None] * len(drivers)
    pending = {"map": {}, "guard": {}}
    stacks = {}                         # kind -> (lanes, stack) last used

    def advance(i, out):
        try:
            kind, state = drivers[i].send(out)
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:        # this lane fails; the rest go on
            results[i] = exc
        else:
            pending[kind][i] = state

    def stack_of(kind, ids):
        """The modes and powers of these lanes, reused while the rounds of
        one kind keep the same lanes."""
        last, stack = stacks.get(kind, ((), None))
        if last != ids:
            stack = (ModeStack(tuple(lanes[i][0] for i in ids)),
                     powers[list(ids)])
            stacks[kind] = (ids, stack)
        return stack

    def run_maps(ids, states):
        """One plain map for each of these lanes' states, all through one
        ``_ao_map`` and one ``sum_rate`` call; the per-lane outputs."""
        mode, power = stack_of("map", ids)
        h, V, phi, zeta = (np.stack(part) for part in zip(*states))
        h, V, _, passive, zeta, rows = _ao_map(channels, mode, noise, power,
                                               h, V, BeamStack(phi), zeta)
        report = sum_rate(h, V, noise)
        return [(h[i].copy(), V[i].copy(), passive.phi[i].copy(),
                 zeta[i].copy(), row,
                 RateReport(sinr=report.sinr[i].copy(),
                            rate=report.rate[i].copy(), sum_rate=rate))
                for i, (row, rate) in enumerate(zip(
                    rows.tolist(), report.sum_rate.tolist()))]

    def run_guards(ids, states):
        """The guard quantities (h, lifted objective at fresh receivers
        and the lane's weights, sum rate) at these lanes' extrapolated
        points, all through one stacked evaluation."""
        mode, power = stack_of("guard", ids)
        V, phi, zeta = (np.stack(part) for part in zip(*states))
        h = effective_matrix(channels, BeamStack(phi), mode)
        mu = update_receivers(h, V, noise, power)
        e = mse_all(h, V, mu, effective_noise(V, noise, power))
        objective = _lifted_objective(zeta, e).tolist()
        rate = sum_rate(h, V, noise).sum_rate.tolist()
        return [(h[i].copy(), objective[i], rate[i]) for i in range(len(ids))]

    def dispatch(kind, evaluate):
        ids = tuple(sorted(pending[kind]))
        states = [pending[kind].pop(i) for i in ids]
        try:
            outs = evaluate(ids, states)
        except Exception:
            outs = None
        if outs is None:                # find the lane(s) that raised,
            outs = []                   # outside the handler: no context
            for i, state in zip(ids, states):
                try:
                    outs.extend(evaluate((i,), [state]))
                except Exception as exc:
                    outs.append(exc)
        for i, out in zip(ids, outs):
            if isinstance(out, Exception):
                drivers[i].close()
                results[i] = out
            else:
                advance(i, out)

    for i in range(len(drivers)):
        advance(i, None)
    while pending["map"] or pending["guard"]:
        if pending["guard"]:
            dispatch("guard", run_guards)
        if pending["map"]:
            dispatch("map", run_maps)

    wall = time.perf_counter() - t0
    return [result if isinstance(result, Exception) else
            replace(result, report=replace(result.report, wall_time=wall))
            for result in results]


def sparsity_search(solve, config: SystemConfig
                    ) -> tuple[AoResult, list[tuple[int, float]]]:
    """Exhaustive search over the feasible sparsity levels.

    ``solve`` maps a sparsity level to the alternating-optimization result
    at that level; the levels are scanned in increasing order and ties are
    broken toward the smaller level by the strict comparison. Returns the
    best result and the scanned (level, sum rate) pairs.
    """
    best = None
    scanned = []
    for eta in feasible_sparsities(config.n_elems, config.n_connected):
        result = solve(eta)
        scanned.append((eta, result.report.sum_rate))
        if best is None or result.report.sum_rate > best.report.sum_rate:
            best = result
    return best, scanned


def wa_solve(geometry: Geometry, config: SystemConfig
             ) -> tuple[BeamformingSolution, ModeSelection, RateReport]:
    """Whole procedure for one geometry: run the alternating optimization
    at every feasible sparsity level, in lockstep and each from a fresh
    start on the same channels, and keep the best."""
    channels = los_channels(geometry, config)
    levels = feasible_sparsities(config.n_elems, config.n_connected)
    modes = [make_mode(config.n_elems, config.n_connected, eta)
             for eta in levels]
    solved = dict(zip(levels, ao_solve_levels(
        channels, [(mode, config) for mode in modes])))

    def solve(eta: int) -> AoResult:
        if isinstance(solved[eta], Exception):
            raise solved[eta]
        return solved[eta]

    best, _ = sparsity_search(solve, config)
    return best.solution, best.mode, best.report


def solve_fixed_eta(geometry: Geometry, config: SystemConfig, eta: int
                    ) -> tuple[BeamformingSolution, ModeSelection, RateReport]:
    """Alternating optimization at one pinned sparsity level."""
    mode = make_mode(config.n_elems, config.n_connected, eta)
    result = ao_solve(los_channels(geometry, config), mode, config)
    return result.solution, result.mode, result.report
