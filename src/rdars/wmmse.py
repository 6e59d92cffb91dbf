"""Weighted-MMSE alternating optimization of the joint beamforming design.

The sum-rate problem is lifted to a weighted MSE minimization over
per-UE receive scalars, positive weights, the stacked BS plus
connected-element precoder, and the reflection phases. Each block update
below minimizes the lifted objective with the others held fixed, so the
objective is nonincreasing across sub-updates and the recorded sum rate
is nondecreasing across outer iterations.

The noise term inside every MSE is scaled by the transmit-power ratio
||V||_F^2 / P. On the full-power sphere this reduces to the plain noise
power and makes the MSE of the exact receiver equal 1/(1 + SINR).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .arrays import (ChannelSet, ModeSelection, PassiveBeam, effective_matrix,
                     feasible_sparsities, los_channels, make_mode)
from .metrics import BeamformingSolution, RateReport, mse_all, sum_rate
from .scenario import Geometry, SystemConfig


def effective_noise(V: np.ndarray, noise_power: float,
                    total_power: float) -> float:
    """Noise power scaled by the fraction of the budget actually spent."""
    return noise_power * float((np.abs(V) ** 2).sum()) / total_power


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
                     total_power: float) -> np.ndarray:
    """Per-UE MMSE receive scalars under the scaled noise convention."""
    s = h @ V
    sig = effective_noise(V, noise_power, total_power)
    if sig <= 0.0:
        raise ValueError("precoder carries no power; receivers undefined")
    denom = (np.abs(s) ** 2).sum(axis=1) + sig
    return np.diag(s) / denom


def update_weights(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
                   noise_power: float, total_power: float) -> np.ndarray:
    """Optimal MSE weights, the reciprocals of the current MSEs."""
    e = mse_all(h, V, mu, effective_noise(V, noise_power, total_power))
    return 1.0 / e


def surrogate_value(h: np.ndarray, V: np.ndarray, mu: np.ndarray,
                    zeta: np.ndarray, noise_power: float,
                    total_power: float) -> float:
    """Lifted objective sum_k (zeta_k e_k - ln zeta_k)."""
    e = mse_all(h, V, mu, effective_noise(V, noise_power, total_power))
    return _lifted_objective(zeta, e)


def _lifted_objective(zeta: np.ndarray, e: np.ndarray) -> float:
    """sum_k (zeta_k e_k - ln zeta_k) at given weights and MSEs."""
    return float((zeta * e - np.log(zeta)).sum())


def precoders_at(h: np.ndarray, mu: np.ndarray, zeta: np.ndarray,
                 rho: float) -> np.ndarray:
    """Stacked precoder at a given normalized multiplier: columns
    zeta_k mu_k (A0 + rho s0 I)^{-1} h_k^H with A0 the weighted channel
    Gram matrix and s0 the weight sum."""
    w = zeta * np.abs(mu) ** 2
    dim = h.shape[1]
    a0 = (h.conj().T * w) @ h
    s0 = float(np.sum(w))
    rhs = h.conj().T * (zeta * mu)
    return np.linalg.solve(a0 + rho * s0 * np.eye(dim), rhs)


def update_precoders(h: np.ndarray, mu: np.ndarray, zeta: np.ndarray,
                     total_power: float) -> np.ndarray:
    """Constrained precoder update, the WMMSE multiplier step.

    One eigendecomposition A0 = U diag(lam) U^H of the weighted channel
    Gram matrix turns the power of ``precoders_at`` into the scalar
    function sum_i c_i / (lam_i + t)^2 of the shift t = rho s0, with c_i
    the squared row norms of U^H times the right-hand side. Eigenvalues
    at or below dim * eps * lam_max are dropped: the right-hand side lies
    in the range of A0, so the t = 0 solution is the minimum-norm one. If
    that solution is over budget, the shift that meets it is found by
    safeguarded Newton and taken from the feasible side, so the returned
    power is at most the budget and within about 1e-13 relative of it.
    A zero Gram matrix (no weight anywhere) returns zeros.
    """
    w = zeta * np.abs(mu) ** 2
    n_ues, dim = h.shape
    lam, U = np.linalg.eigh((h.conj().T * w) @ h)
    if not lam[-1] > 0.0:
        return np.zeros((dim, n_ues), dtype=complex)
    keep = lam > dim * np.finfo(float).eps * lam[-1]
    lam, U = lam[keep], U[:, keep]
    b = U.conj().T @ (h.conj().T * (zeta * mu))
    c = (np.abs(b) ** 2).sum(axis=1)
    t = _budget_shift(lam, c, total_power)
    return U @ (b / (lam + t)[:, None])


def _budget_shift(lam: np.ndarray, c: np.ndarray, total_power: float) -> float:
    """Smallest t >= 0 with p(t) = sum c / (lam + t)^2 <= total_power, to
    1e-13 relative.

    Keeps a bracket [lo, hi] whose upper end is an evaluated point within
    budget, and returns that end. Newton runs on p(t)^(-1/2), which is
    concave and nearly linear, so every Newton point is a lower bound on
    the root and raises lo; the next evaluation sits just above it, where
    it lands within budget once lo is within rtol/2 of the root. When
    Newton does not move lo, the bracket is bisected. Newton needs a
    handful of steps; the step cap only bounds a pathological case, and
    the returned end is within budget either way.
    """
    rtol = 1e-13
    if float((c / lam ** 2).sum()) <= total_power:
        return 0.0
    lo, hi = 0.0, math.sqrt(float(c.sum()) / total_power)
    t = 0.0
    for _ in range(200):
        q = c / (lam + t) ** 2
        p = float(q.sum())
        if p > total_power:
            lo = t
        else:
            hi = t
        dp = -2.0 * float((q / (lam + t)).sum())
        t_newton = t + 2.0 * p * (1.0 - math.sqrt(p / total_power)) / dp
        moved = t_newton > lo
        if moved:
            lo = min(t_newton, hi)
        if hi - lo <= rtol * hi:
            break
        t = lo + 0.5 * rtol * hi if moved else 0.5 * (lo + hi)
    return hi


@dataclass(frozen=True)
class PhaseQuadratic:
    """Reflection-phase part of the lifted objective, written as
    x^H C x + 2 Re(beta^H x) in the conjugated phase vector x."""

    matrix: np.ndarray
    linear: np.ndarray


def build_phase_quadratic(channels: ChannelSet, mode: ModeSelection,
                          W: np.ndarray, F: np.ndarray, mu: np.ndarray,
                          zeta: np.ndarray) -> PhaseQuadratic:
    """Assemble the phase quadratic for the current precoders and weights.

    Rows and columns at connected elements vanish (those elements do not
    reflect), so their phases are free and left untouched downstream.
    """
    abar = 1.0 - mode.a_vec
    cmat = abar[None, :] * channels.h_r.conj()        # rows c_k
    w = zeta * np.abs(mu) ** 2
    B = (cmat.T * w) @ cmat.conj()
    GW = channels.G @ W
    C = B * (GW @ GW.conj().T)

    sel = channels.h_r[:, mode.index0]                # rows h_sel_k
    cross = sel @ F.conj()                            # row k: F^H h_sel_k
    beta1 = (cmat.T * (GW @ cross.T)) @ w
    beta2 = (cmat.T * GW) @ (zeta * mu.conj())
    return PhaseQuadratic(matrix=C, linear=beta1 - beta2)


def phase_objective(quad: PhaseQuadratic, passive: PassiveBeam) -> float:
    """Evaluate the phase quadratic at a reflection profile."""
    x = passive.phi.conj()
    val = x.conj() @ quad.matrix @ x + 2.0 * np.real(quad.linear.conj() @ x)
    return float(np.real(val))


def power_iteration(C: np.ndarray, beta_vec: np.ndarray, tol: float = 1e-10,
                    max_iters: int = 1000,
                    p0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise power iteration on the lifted phase problem.

    Minimizes x^H C x + 2 Re(beta^H x) over unit-modulus x via the
    homogenized matrix D = [[-C, -beta], [-beta^H, 0]] shifted by nu I to
    make it positive semidefinite. The shift is the smallest such one,
    max(0, -lambda_min(D)), plus a 1e-9 ||D||_F margin: the lambda_max
    majorizer of the MM literature, the tightest shift that keeps the
    ascent guarantee, so each step goes as far as it allows.

    Each step costs one matrix-vector product z = (D + nu I) p. It gives
    the next phases z / |z| and, since |p_i| = 1, the objective of the
    current point, p^H D p = Re(p^H z) - nu (n + 1). Entries whose product
    vanishes keep their previous phase: such a step first yields NaN
    phases, which show up as a NaN objective, and is then redone with
    that guard.

    With no start point given, both the all-ones vector and the phases of
    the leading eigenvector of D (the same eigendecomposition that gives
    lambda_min) are tried and the better finisher is kept; an explicit
    ``p0`` (e.g. a warm start from an outer loop) runs alone, so the
    result never falls below the start value.

    Returns the optimized x and the trace of the homogenized objective
    p^H D p, which is nondecreasing by construction; a decrease beyond
    rounding noise raises ArithmeticError.
    """
    n = beta_vec.shape[0]
    D = np.zeros((n + 1, n + 1), dtype=complex)
    D[:n, :n] = -C
    D[:n, n] = -beta_vec
    D[n, :n] = -beta_vec.conj()
    if p0 is None:
        evals, evecs = np.linalg.eigh(D)
        lead = evecs[:, -1]
        mags = np.abs(lead)
        lead = np.where(mags > 0.0,
                        lead / np.where(mags > 0.0, mags, 1.0), 1.0)
        starts = [np.ones(n + 1, dtype=complex), lead]
    else:
        evals = np.linalg.eigvalsh(D)
        p = np.asarray(p0, dtype=complex)
        if p.shape != (n + 1,):
            raise ValueError(f"p0 must have length {n + 1}, got {p.shape}")
        mags = np.abs(p)
        if np.any(mags == 0.0):
            raise ValueError("p0 entries must be nonzero")
        starts = [p / mags]
    nu = max(0.0, -float(evals[0])) + 1e-9 * float(np.linalg.norm(D))
    shifted = D + nu * np.eye(n + 1)
    offset = nu * (n + 1)

    def iterate(p):
        z = shifted @ p
        obj = float(np.vdot(p, z).real) - offset
        history = [obj]
        for _ in range(max_iters):
            p_new = z / np.abs(z)
            z_new = shifted @ p_new
            obj_new = float(np.vdot(p_new, z_new).real) - offset
            if math.isnan(obj_new):
                p_new = np.where(np.abs(z) > 0.0, p_new, p)
                z_new = shifted @ p_new
                obj_new = float(np.vdot(p_new, z_new).real) - offset
            if obj_new < obj - 1e-8 * (1.0 + abs(obj)):
                raise ArithmeticError("homogenized objective decreased "
                                      "during the phase power iteration")
            history.append(obj_new)
            done = abs(obj_new - obj) <= tol * (1.0 + abs(obj))
            p, z, obj = p_new, z_new, obj_new
            if done:
                break
        return p, np.asarray(history)

    with np.errstate(divide="ignore", invalid="ignore"):
        p_best, hist_best = iterate(starts[0])
        for p_start in starts[1:]:
            p_alt, hist_alt = iterate(p_start)
            if hist_alt[-1] > hist_best[-1]:
                p_best, hist_best = p_alt, hist_alt
    x = np.exp(1j * np.angle(p_best[:n] * np.conj(p_best[n])))
    return x, hist_best


@dataclass(frozen=True)
class AoResult:
    """A full alternating-optimization run: the beamformers, the mode they
    were optimized for, the rate report, the per-update traces, and how
    many phase updates stopped at the ``max_inner_iters`` step cap."""

    solution: BeamformingSolution
    mode: ModeSelection
    report: RateReport
    surrogate_trace: np.ndarray    # (iters, 4): post receiver/weight/precoder/phase
    sum_rate_trace: np.ndarray     # (iters,)
    phase_cap_hits: int = 0


def ao_solve(channels: ChannelSet, mode: ModeSelection,
             config: SystemConfig) -> AoResult:
    """Run the alternating optimization from the standard start point
    (uniform reflection, zero-forcing precoder, unit weights).

    Stops when the relative sum-rate gain of an outer iteration drops
    below the configured threshold; if the iteration budget runs out
    first, the best recorded iterate is returned flagged unconverged.
    """
    t0 = time.perf_counter()
    power, noise = config.total_power, config.noise_power
    n_tx = channels.G.shape[1]

    passive = PassiveBeam.uniform(mode.n_elems)
    h = effective_matrix(channels, passive, mode)
    V = zf_init(h, power)
    zeta = np.ones(channels.n_ues)
    rate_prev = sum_rate(h, V, noise).sum_rate
    best = (rate_prev, V, passive)

    surrogate_rows = []
    rate_trace = []
    converged = False
    iterations = cap_hits = 0
    for iterations in range(1, config.max_outer_iters + 1):
        mu = update_receivers(h, V, noise, power)
        e = mse_all(h, V, mu, effective_noise(V, noise, power))
        s1 = _lifted_objective(zeta, e)
        zeta = 1.0 / e                     # update_weights at this state
        s2 = _lifted_objective(zeta, e)
        V = update_precoders(h, mu, zeta, power)
        s3 = surrogate_value(h, V, mu, zeta, noise, power)

        quad = build_phase_quadratic(channels, mode, V[:n_tx], V[n_tx:],
                                     mu, zeta)
        p0 = np.concatenate([passive.phi.conj(), [1.0 + 0.0j]])
        x, history = power_iteration(quad.matrix, quad.linear,
                                     max_iters=config.max_inner_iters, p0=p0)
        cap_hits += len(history) - 1 >= config.max_inner_iters
        passive = PassiveBeam(x.conj())
        h = effective_matrix(channels, passive, mode)
        s4 = surrogate_value(h, V, mu, zeta, noise, power)
        surrogate_rows.append((s1, s2, s3, s4))

        rate = sum_rate(h, V, noise).sum_rate
        rate_trace.append(rate)
        if rate > best[0]:
            best = (rate, V, passive)
        # multiplied-out fractional-gain test; the quotient would overflow
        # on the first pass where the reference rate is still zero
        if rate - rate_prev < config.conv_threshold \
                * max(rate_prev, np.finfo(float).tiny):
            converged = True
            break
        rate_prev = rate

    if converged:
        V_out, passive_out = V, passive
    else:
        _, V_out, passive_out = best
        h = effective_matrix(channels, passive_out, mode)
    report = replace(sum_rate(h, V_out, noise), iterations=iterations,
                     wall_time=time.perf_counter() - t0, converged=converged)
    solution = BeamformingSolution(W=V_out[:n_tx], F=V_out[n_tx:],
                                   passive=passive_out)
    return AoResult(solution=solution, mode=mode, report=report,
                    surrogate_trace=np.asarray(surrogate_rows),
                    sum_rate_trace=np.asarray(rate_trace),
                    phase_cap_hits=cap_hits)


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
    """Whole procedure for one geometry: scan sparsity levels, run the
    alternating optimization on each from a fresh start on the same
    channels, keep the best."""
    channels = los_channels(geometry, config)

    def solve(eta: int) -> AoResult:
        mode = make_mode(config.n_elems, config.n_connected, eta)
        return ao_solve(channels, mode, config)

    best, _ = sparsity_search(solve, config)
    return best.solution, best.mode, best.report


def solve_fixed_eta(geometry: Geometry, config: SystemConfig, eta: int
                    ) -> tuple[BeamformingSolution, ModeSelection, RateReport]:
    """Alternating optimization at one pinned sparsity level."""
    mode = make_mode(config.n_elems, config.n_connected, eta)
    result = ao_solve(los_channels(geometry, config), mode, config)
    return result.solution, result.mode, result.report
