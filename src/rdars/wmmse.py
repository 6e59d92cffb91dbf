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

``ao_solve`` accelerates this map with Anderson acceleration on the
precoders, guarded by the sum rate so that it stays monotone.
``ao_solve_levels`` solves several (sparsity level, transmit power) lanes
of one drop and one config in lockstep, each bit for bit as alone: the
start, the kernels of the map, the Anderson step and the rate of its
candidates take a leading lane axis and run once per round for all lanes
at that step.

The lockstep map runs in (1 + a)-dimensional LoS coordinates. The
BS-surface channel is G = kappa b_aoa b_aod^H, so every precoder iterate
lies in span(b_aod) + C^a: W = q t with q = b_aod / sqrt(N_t), and a lane
holds V = [t; F] against the reduced rows [sqrt(N_t) g_k(phi), d_k]
(``_Lanes``). q has unit norm, so powers, rates and the Anderson vectors
are those of the full precoder; W is lifted back once per returned
result. Each lane also carries S = h V and |S|^2 from the map or the
candidate evaluation that made its state. The phase block works on the
LoS factors and forms no N x N matrix.
"""

from __future__ import annotations

from types import SimpleNamespace
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import (ChannelSet, ModeSelection, PassiveBeam,
                     feasible_sparsities, los_channels, make_mode)
from .metrics import (BeamformingSolution, RateReport, _mse_of, _rate_report,
                      _sinr_of, mse_all)
from .scenario import Geometry, SystemConfig


def effective_noise(V: np.ndarray, noise_power: float,
                    total_power: float | np.ndarray) -> float | np.ndarray:
    """Noise power scaled by the fraction of the budget actually spent
    (one value per lane for a stack of precoders, whose ``total_power``
    may hold one budget per lane)."""
    return noise_power * _power(V) / total_power


def _power(V: np.ndarray) -> float | np.ndarray:
    """||V||_F^2, per lane for a stack."""
    flat = V.reshape(V.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def zf_init(h: np.ndarray, total_power: float) -> np.ndarray:
    """Zero-forcing start point: pseudoinverse columns scaled to equal
    power shares. Falls back to matched filtering when there are more UEs
    than transmit dimensions (the pseudoinverse cannot null there). A
    leading lane axis on ``h`` takes one ``total_power`` per lane or one
    for all."""
    h = np.atleast_2d(h)
    return _zf_columns(h, total_power, h.shape[-2] > h.shape[-1])


def _zf_columns(h: np.ndarray, total_power: float | np.ndarray,
                matched: bool) -> np.ndarray:
    """``zf_init``'s columns, matched filters if ``matched`` and else the
    pseudoinverse's: the rule stays the one of the full rows when h holds
    the reduced rows of ``_Lanes``."""
    V = h.conj().swapaxes(-2, -1) if matched else np.linalg.pinv(h)
    norms = np.linalg.norm(V, axis=-2)
    if np.any(norms == 0.0):
        raise ValueError("zero effective channel row; cannot initialize")
    share = np.sqrt(np.asarray(total_power) / h.shape[-2])[..., None]
    return V * (share / norms)[..., None, :]


def update_receivers(h: np.ndarray, V: np.ndarray, noise_power: float,
                     total_power: float | np.ndarray) -> np.ndarray:
    """Per-UE MMSE receive scalars under the scaled noise convention.
    Like every kernel of the map, it also takes a leading lane axis, and
    then one ``total_power`` per lane or one for all."""
    S = h @ V
    return _receivers_of(S, np.abs(S) ** 2,
                         effective_noise(V, noise_power, total_power))


def _receivers_of(S: np.ndarray, powers: np.ndarray,
                  sig: float | np.ndarray) -> np.ndarray:
    """``update_receivers`` from S = h V, its powers |S|^2 and the scaled
    noise."""
    if (np.asarray(sig) <= 0.0).any():
        raise ValueError("precoder carries no power; receivers undefined")
    denom = powers.sum(axis=-1) + np.asarray(sig)[..., None]
    return np.diagonal(S, axis1=-2, axis2=-1) / denom


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
    or one for all. A lane with no weight (s0 = 0) solves rho I V = 0
    and gets zeros.

    With fewer UEs than dimensions it solves the K x K system of the
    push-through identity instead, V = h^H (diag(w) h h^H + rho s0 I)^{-1}
    diag(zeta mu) with w = zeta |mu|^2 (Zhao, Lu, Shi, Luo, IEEE TSP
    2023): smaller, and every column stays in the row space of h."""
    w = zeta * np.abs(mu) ** 2
    n_ues, dim = h.shape[-2:]
    hH = h.conj().swapaxes(-2, -1)
    s0 = w.sum(axis=-1)[..., None, None]
    s0 = np.where(s0 > 0.0, s0, 1.0)
    rho = np.asarray(rho)[..., None, None]
    if n_ues < dim:
        eye = np.eye(n_ues)
        gram = w[..., None] * (h @ hH)
        rhs = eye * (zeta * mu)[..., None, :]
        return hH @ np.linalg.solve(gram + rho * s0 * eye, rhs)
    a0 = (hH * w[..., None, :]) @ h
    rhs = hH * (zeta * mu)[..., None, :]
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
    weighted = (zeta * np.abs(mu) ** 2).sum(axis=-1) > 0.0
    if not weighted.any():
        return np.zeros(h.shape[:-2] + h.shape[:-3:-1], dtype=complex), mu
    V = precoders_at(h, mu, zeta, noise_power / total_power)
    c = np.sqrt(total_power / np.where(weighted, _power(V), total_power))
    return c[..., None, None] * V, mu / c[..., None]


@dataclass(frozen=True)
class PhaseQuadratic:
    """Reflection-phase part of the lifted objective, written as
    x^H C x + 2 Re(beta^H x) in the conjugated phase vector x."""

    matrix: np.ndarray
    linear: np.ndarray


def build_phase_quadratic(channels: ChannelSet, mode: ModeSelection,
                          W: np.ndarray, F: np.ndarray, mu: np.ndarray,
                          zeta: np.ndarray) -> PhaseQuadratic:
    """Assemble the phase quadratic for the current precoders and weights
    (one per lane for a lane stack: any mode whose ``a_vec`` and
    ``index0`` have a leading lane axis, with lane-stacked W, F, mu, zeta).

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
    connected elements) keep their phase.

    Without ``p0``, the all-ones vector and the phases of the leading
    eigenvector of D (one ``eigh``) are both run and the better finisher
    kept; an explicit ``p0`` (a warm start) runs alone, with no
    eigendecomposition, so the result never falls below the start value.

    Returns x and the trace of p^H D p, nondecreasing by construction; a
    decrease beyond rounding noise raises ArithmeticError, and a step that
    overflows (an |z| below the smallest normal double) FloatingPointError.
    """
    n = beta_vec.size
    D = -np.block([[C[None], beta_vec[None, :, None]],
                   [beta_vec.conj()[None, None], np.zeros((1, 1, 1))]])
    if p0 is None:
        lead = np.linalg.eigh(D[0])[1][:, -1]
        mags = np.abs(lead)
        lead = np.where(mags > 0.0,
                        lead / np.where(mags > 0.0, mags, 1.0), 1.0)
        starts = [np.ones((1, n + 1), dtype=complex), lead[None]]
    else:
        p = np.asarray(p0, dtype=complex)
        if p.shape != (n + 1,):
            raise ValueError(f"p0 must have shape {(n + 1,)}, got {p.shape}")
        mags = np.abs(p)
        if (mags == 0.0).any():
            raise ValueError("p0 entries must be nonzero")
        starts = [(p / mags)[None]]
    row_sums = np.abs(D).sum(axis=-1)
    diagonal = np.diagonal(D, axis1=-2, axis2=-1)
    shift = (row_sums - np.abs(diagonal) - diagonal.real
             + 1e-9 * row_sums.max(axis=-1, keepdims=True))
    apply = partial(_matvec, D + shift[..., None] * np.eye(n + 1))
    offset = shift.sum(axis=-1)
    p_best, hist_best = max((_mm_steps(apply, offset, p, tol, max_iters)
                             for p in starts), key=lambda run: run[1][-1, 0])
    x = np.exp(1j * np.angle(p_best[0, :n] * np.conj(p_best[0, n:])))
    return x, hist_best[:, 0]


def _mm_steps(apply, offset: np.ndarray, p: np.ndarray, tol: float,
              max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The step loop of ``power_iteration`` for any form of the operator:
    ``apply(p)`` is (D + Lambda) p, one row per lane, ``offset`` is
    tr Lambda. Every lane takes the same steps, at most ``max_iters``: the
    loop ends once every lane's objective changes by at most ``tol``
    (1 + |obj|) in one step, and an overflow raises FloatingPointError.
    Returns the last p and the objective history by lane."""
    def objective(p, z):
        return np.vecdot(p, z).real - offset

    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        z = apply(p)
        obj = objective(p, z)
        history = [obj]
        for _ in range(max_iters):
            mags = np.abs(z)
            p = p.copy()
            try:
                np.divide(z, mags, out=p, where=mags > 0.0)
            except FloatingPointError:
                raise FloatingPointError(
                    "overflow in the phase step z / |z|: |z| is below the "
                    "smallest normal double") from None
            z = apply(p)
            obj_new = objective(p, z)
            change = (obj_new - obj) / (1.0 + np.abs(obj))
            if change.min() < -1e-8:
                raise ArithmeticError("homogenized objective decreased "
                                      "during the phase power iteration")
            obj = obj_new
            history.append(obj)
            if (np.abs(change) <= tol).all():
                break
    return p, np.asarray(history)


_SHARED = ("kappa", "h_r", "B")     # the drop's operands in _Lanes


class _Lanes(SimpleNamespace):
    """The lanes (one sparsity level and power each) of one lockstep call
    on one drop's LoS channels: every array but those named in ``_SHARED``
    holds one row per lane. Only S and S2 follow from other fields; they
    come with the h and V that the step making them evaluated.

    The map runs in the rank-one coordinates of G = kappa_br b_aoa b_aod^H:
    W = q t with q = b_aod / sqrt(N_t), so a state is V = [t; F] and the
    reduced row of UE k is [sqrt(N_t) g_k(phi), d_k], with g_k(phi) =
    kappa_br (B (abar phi))_k on the drop's LoS base B = b_aoa conj(h_r)
    (K x N) under the lane's 0/1 mask ``abar`` (1 - a), and d_k =
    conj(h_r[k]) at the connected elements. ``kappa`` is kappa_br sqrt(N_t).
    ``_lane_operands`` builds the operands that stay fixed per lane:
    ``abar``, ``direct`` (the d_k) and ``dist`` (|i - connected index|).
    ``ao_solve_levels`` adds the running state: ``lane`` (its index in the
    call), ``power``, the phases ``phi``, reduced rows ``h``, precoders
    ``V``, S = h V and ``S2`` = |S|^2, the weights ``zeta``, the sum
    ``rate``, ``trace``, ``accepted``, and the Anderson history: ``points``
    since the last restart and the windows ``X`` and ``G`` of the newest
    points and their map outputs. The operands and every lane array of a
    selection are C-contiguous, so a selection of lanes keeps the layout,
    and with it the bits of every product."""

    def select(self, rows: np.ndarray) -> "_Lanes":
        """The lanes at these rows (indices or a mask), sharing ``_SHARED``."""
        rows = rows.nonzero()[0] if rows.dtype == bool else rows
        return _Lanes(**{key: value if key in _SHARED
                         else value.take(rows, 0)
                         for key, value in vars(self).items()})


def _lane_operands(channels: ChannelSet,
                   modes: list[ModeSelection]) -> _Lanes:
    """``_Lanes`` of these levels (one lane each, of one connection count)
    on these channels, with only the lane-fixed operands."""
    abar = 1.0 - np.stack([mode.a_vec for mode in modes])
    index0 = np.stack([mode.index0 for mode in modes])
    kappa = channels.kappa_br * np.sqrt(channels.b_aod.size)
    dist = np.abs(np.arange(abar.shape[-1]) - index0[..., None])
    sel = np.ascontiguousarray(channels.h_r.T[index0].swapaxes(-2, -1))
    return _Lanes(kappa=kappa, h_r=channels.h_r,
                  B=channels.b_aoa * channels.h_r.conj(), abar=abar,
                  direct=sel.conj(), dist=dist)


def _reduced_rows(lanes: _Lanes, phi: np.ndarray) -> np.ndarray:
    """Every lane's K reduced rows [sqrt(N_t) g_k(phi), d_k] at its phases,
    g = kappa_br B (abar phi) on the shared base: ``effective_matrix`` is
    these rows with the first column times b_aod^H / sqrt(N_t)."""
    g = lanes.kappa * ((lanes.abar * phi)[:, None] @ lanes.B.T)[:, 0]
    return np.concatenate([g[..., None], lanes.direct], axis=-1)


def _phase_operator(lanes: _Lanes, t: np.ndarray, F: np.ndarray,
                    mu: np.ndarray, zeta: np.ndarray):
    """D + Lambda of ``power_iteration`` on each lane's phase quadratic
    (``build_phase_quadratic``'s at W = q t), as (apply: p -> (D + Lambda)
    p, Lambda), from the shared base B and the lane's mask, forming no N x N
    matrix and no M = B diag(abar). G W = kappa b_aoa t (``lanes.kappa``),
    so C = s M^T diag(w) conj(M) and beta = M^T v, where s = kappa^2
    ||t||^2, w = zeta |mu|^2 and v = kappa ((cross t) w - t zeta conj(mu)):
    D p = -[M^T y; beta^H p_N] for y = s w conj(M) p_N + v p_(N+1). As
    D_ii <= 0, Lambda is the row sums of |D| plus the margin. With h_r[k, m]
    = kappa_k e^{j theta_k m}, |C_ij| = s abar_i abar_j g(|i - j|) for g(d)
    = |sum_k w_k h_r[k, 0] h_r[k, d]|; its row sums take two prefix sums of
    g, less g at the distances to the connected elements."""
    w = zeta * np.abs(mu) ** 2
    s = lanes.kappa ** 2 * np.vecdot(t, t).real
    u = _matvec(lanes.direct.conj(), _matvec(F.conj(), t))  # cross t
    kv = lanes.kappa * (u * w - t * zeta * mu.conj())
    abar, B = lanes.abar, lanes.B
    beta = abar * (kv[:, None] @ B)[:, 0]

    n_lanes, n = abar.shape
    g = np.abs(_matvec(lanes.h_r.T, w * lanes.h_r[:, 0].real))
    cum = g.cumsum(axis=-1)
    connected = g.take(lanes.dist + n * np.arange(n_lanes)[:, None, None]
                       ).sum(axis=1)
    spread = cum + cum[..., ::-1] - g[..., :1] - connected
    beta_abs = np.abs(beta)
    row_sums = np.concatenate([s[:, None] * abar * spread + beta_abs,
                               beta_abs.sum(axis=-1, keepdims=True)], axis=-1)
    shift = row_sums + 1e-9 * row_sums.max(axis=-1, keepdims=True)
    sw, Bh = s[:, None] * w, B.conj().T

    def apply(p):
        y = sw * ((abar * p[:, :n])[:, None] @ Bh)[:, 0] + kv * p[:, n:]
        return shift * p - np.concatenate([abar * (y[:, None] @ B)[:, 0],
                                           np.vecdot(beta, p[:, :n])[:, None]],
                                          axis=1)

    return apply, shift


# MM steps per phase block. Each step keeps the block monotone, all that
# block successive upper-bound minimization needs (Razaviyayn, Hong, Luo,
# SIAM J. Optim. 2013), so any fixed count will do; the count is the
# same for every lane and every unit scale.
_PHASE_STEPS = 3


def _phase_block(lanes: _Lanes, t: np.ndarray, F: np.ndarray, mu: np.ndarray,
                 zeta: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """The phase update of ``_ao_map``: exactly ``_PHASE_STEPS`` steps of
    the ``power_iteration`` loop for every lane (``tol`` -1 passes no stop
    test, which would read the whole stack), on ``_phase_operator`` from
    the start points ``p0`` (one row per lane; a zero operator keeps each
    point); returns the new reflection phases (the conjugate of x)."""
    apply, shift = _phase_operator(lanes, t, F, mu, zeta)
    p, _ = _mm_steps(apply, shift.sum(-1), p0 / np.abs(p0), -1.0, _PHASE_STEPS)
    phi = p[:, :-1].conj() * p[:, -1:]
    return phi / np.abs(phi)


@dataclass(frozen=True)
class AoResult:
    """A full alternating-optimization run: the beamformers, the mode they
    were optimized for, the rate report, the per-map traces, and the
    accelerator's counts. The phase update of every plain map is
    ``_PHASE_STEPS`` MM steps of the ``power_iteration`` loop.

    ``accepted`` and ``rejected`` count the Anderson candidates whose sum
    rate reached the map output's and those that fell short (a non-finite
    one falls short). Every map but a run's first and last is followed by
    one, so they add up to iterations - 2 (or 0). Every array it holds is
    its own copy."""

    solution: BeamformingSolution
    mode: ModeSelection
    report: RateReport
    surrogate_trace: np.ndarray    # (iters, 4): post receiver/weight/precoder/phase
    sum_rate_trace: np.ndarray     # (iters,)
    accepted: int
    rejected: int


def _ao_map(lanes: _Lanes, noise: float) -> tuple:
    """One plain alternating-optimization map for every lane of a stack,
    in the reduced coordinates of ``_Lanes``, from the state fields
    ``power``, ``h`` (the reduced rows at the phases ``phi``), ``V`` =
    [t; F], ``S`` = h V, ``S2`` = |S|^2 and ``zeta`` (the last weights),
    which it leaves as they are. Updates the receivers, the weights and
    the precoder exactly, then the phases by ``_phase_block``,
    warm-started. Returns the new (h, V, S, S2, mu, phi, zeta) and, per
    lane, the lifted objective after each block update."""
    power, h = lanes.power, lanes.h
    sig = effective_noise(lanes.V, noise, power)
    mu = _receivers_of(lanes.S, lanes.S2, sig)
    e = _mse_of(lanes.S, lanes.S2, mu, sig)
    zeta = 1.0 / e                         # update_weights at this state
    V, mu = update_precoders(h, mu, zeta, noise, power)
    S_pre = h @ V                          # before the phase update

    p0 = np.concatenate([lanes.phi.conj(), np.ones((len(V), 1))], axis=1)
    phi = _phase_block(lanes, V[:, 0], V[:, 1:], mu, zeta, p0)
    h = _reduced_rows(lanes, phi)
    S = h @ V
    both = np.stack([S_pre, S])
    both2 = np.abs(both) ** 2
    S2 = both2[1]
    e_after = _mse_of(both, both2, mu, effective_noise(V, noise, power))
    # after the receiver, weight, precoder and phase updates
    rows = _lifted_objective(np.stack([lanes.zeta, zeta, zeta, zeta]),
                             np.concatenate([np.stack([e, e]), e_after]))
    return h, V, S, S2, mu, phi, zeta, rows.T


def _rated(h: np.ndarray, V: np.ndarray, noise: float) -> tuple:
    """S = h V, its powers |S|^2 and their ``sum_rate`` report."""
    S = h @ V
    S2 = np.abs(S) ** 2
    return S, S2, _rate_report(_sinr_of(S2, noise))


def _unit(V: np.ndarray, power: np.ndarray) -> np.ndarray:
    """The real vector of V / sqrt(P), one row per lane."""
    return V.reshape(len(V), -1).view(float) / np.sqrt(power)[:, None]


# Differences of successive residuals an Anderson step uses at most
_DEPTH = 5


def _anderson_step(X: np.ndarray, G: np.ndarray, used: np.ndarray,
                   power: np.ndarray) -> np.ndarray:
    """Type-II Anderson acceleration (Walker and Ni, SIAM J. Numer. Anal.
    2011) for a stack of lanes, on the real vectors x of V / sqrt(P): from
    each lane's window of points ``X`` (the state field, oldest first)
    and their map outputs ``G``, of which the newest ``used`` + 1 count,
    with residuals f = g - x and the differences of successive residuals
    (dF) and outputs (dG), g - dG gamma for the newest g and f and gamma
    minimizing ||f - dF gamma||, solved from its normal equations by
    elimination without pivoting (a Gram matrix needs none), projected
    onto the full-power sphere: the real vector of the candidate V. Unused
    slots come first and are padded with the identity, so they change no
    bit; the slots no lane uses are left out, and a lane using none gets
    g back. A singular system or an overflowing step gives a non-finite
    candidate, not an exception."""
    depth = int(used.max(initial=0))
    X, G = X[:, X.shape[1] - depth - 1:], G[:, G.shape[1] - depth - 1:]
    F = G - X                              # the residuals
    dF, dG = F[:, 1:] - F[:, :-1], G[:, 1:] - G[:, :-1]
    valid = np.arange(depth + 1) >= depth - used[:, None]
    cols = np.concatenate([dF, F[:, -1:]], axis=1)
    M = np.where(valid[:, :-1, None] & valid[:, None, :],
                 np.vecdot(dF[:, :, None], cols[:, None]),
                 np.eye(depth, depth + 1))      # [normal matrix | dF^T f]
    gamma = M[:, :, depth]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(depth):
            M[:, j + 1:] -= M[:, j + 1:, j, None] / M[:, j, j, None, None] \
                * M[:, j, None]
        for j in reversed(range(depth)):
            gamma[:, j] /= M[:, j, j]
            gamma[:, :j] -= M[:, :j, j] * gamma[:, j, None]
        x = G[:, -1] - (gamma[:, :, None] * dG).sum(axis=1)
        return x * (np.sqrt(power) / np.sqrt(np.vecdot(x, x)))[:, None]


def ao_solve(channels: ChannelSet, mode: ModeSelection,
             config: SystemConfig) -> AoResult:
    """Run the alternating optimization from the standard start point
    (uniform reflection, zero-forcing precoder, unit weights), accelerated
    by Anderson acceleration on the precoders of the plain map ``_ao_map``.

    After every plain map but the first, unless the run stops there (a
    candidate needs one more map under ``max_outer_iters``),
    ``_anderson_step`` proposes precoders from the lane's maps since its
    last restart; the phases stay the map's. The candidate is accepted iff
    its sum rate R at the map's channels is at least the map output's; the
    next map then starts from it with fresh weights 1/e = 1 + SINR, so its
    lifted objective starts at K - ln(2) R, no higher than where the last
    map ended.
    A rejected (or non-finite) candidate restarts the history at the last
    map, which the next one continues as the plain loop does (Henderson
    and Varadhan, J. Comput. Graph. Statist. 2019). Only plain-map outputs
    are recorded and returned, so both traces stay monotone.

    The run stops when the relative sum-rate gain of one plain map over
    the state it started from drops below the threshold; a run that uses
    up its maps first ends unconverged.

    This is the one-lane call of ``ao_solve_levels``.
    """
    (result,) = ao_solve_levels(channels, config,
                                [(mode, config.total_power)])
    if isinstance(result, Exception):
        raise result
    return result


def ao_solve_levels(channels: ChannelSet, config: SystemConfig,
                    lanes) -> list[AoResult | Exception]:
    """``ao_solve`` on one drop's channels for several lanes, each a
    (sparsity level, total power) pair, solved in lockstep under one
    config, whose own ``total_power`` is not read. The levels share one
    connection count.

    The running state (the fields that ``_Lanes`` lists) has one row per
    lane, added to the ``_Lanes`` of the lane-fixed operands, so one
    ``select`` keeps the rows of the lanes that go on. One stacked start
    from ``phi`` and ``power`` writes ``h``, ``V``, ``S``, ``S2`` and
    ``rate``. Each round runs one ``_ao_map`` for all lanes, whose outputs
    replace ``h``, ``V``, ``S``, ``S2``, ``phi``, ``zeta`` and ``rate``
    and extend ``trace``, and whose points V / sqrt(P) before and after
    extend ``X`` and ``G`` and ``points``; then one ``_anderson_step`` on
    the windows of the lanes that try one, and one stacked ``_rated`` of
    the finite candidates as the part ``_Lanes(lane, h, V)``. A taken
    candidate replaces ``V``, ``S``, ``S2``, ``zeta`` and ``rate`` and
    counts in ``accepted``; another resets ``points``. The lanes that stop
    get their rates from ``S2`` in one stacked report and their results
    (their own copies, with W lifted to N_t x K), and are dropped. A lane
    runs exactly the operations of its solve alone, so every result equals
    ``ao_solve`` bit for bit.

    A stacked evaluation that raises is redone lane by lane through
    ``select``. A lane whose own start point, map or candidate evaluation
    raises ends there, and its entry in the returned list (one per lane,
    in order) is that exception.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    noise, cap = config.noise_power, config.max_outer_iters
    threshold, tiny = config.conv_threshold, np.finfo(float).tiny
    outcomes = {}               # lane -> its AoResult or exception
    q = channels.b_aod / np.sqrt(channels.b_aod.size)
    # zf_init's rule at the full rows' N_t + a dimensions
    matched = channels.n_ues > channels.b_aod.size + lanes[0][0].n_connected

    def stacked(evaluate, part):
        """``evaluate(part)`` for this ``_Lanes`` part, or else lane by lane
        through ``part.select``: a mask of its lanes that passed (None for
        all) and their outputs."""
        try:
            return None, evaluate(part)
        except Exception:
            pass                    # redone outside the handler: no context
        passed, outs = np.zeros(len(part.lane), dtype=bool), []
        for j in range(len(part.lane)):
            try:
                outs.append(evaluate(part.select(np.arange(j, j + 1))))
                passed[j] = True
            except Exception as exc:    # this lane ends; the others go on
                outcomes[int(part.lane[j])] = exc
        return passed, tuple(map(np.concatenate, zip(*outs))) if outs else None

    def start(part):
        h = _reduced_rows(part, part.phi)
        V = _zf_columns(h, part.power, matched)
        S, S2, report = _rated(h, V, noise)
        return h, V, S, S2, report.sum_rate

    def plain_map(part):
        h, V, S, S2, _, phi, zeta, surrogate = _ao_map(part, noise)
        return (h, V, S, S2, phi, zeta, surrogate,
                _rate_report(_sinr_of(S2, noise)).sum_rate)

    def evaluate_candidates(part):
        S, S2, report = _rated(part.h, part.V, noise)
        return part.V, S, S2, report.sinr, report.sum_rate

    def result(j, sinr, rate, converged):
        """The ``AoResult`` of running row j, which stops after ``maps``."""
        solution = BeamformingSolution(
            W=q[:, None] * s.V[j, 0], F=s.V[j, 1:].copy(),
            passive=PassiveBeam(s.phi[j].copy()))
        report = RateReport(
            sinr=sinr.copy(), rate=rate.copy(), sum_rate=float(s.rate[j]),
            iterations=maps, converged=bool(converged))
        return AoResult(solution=solution, mode=lanes[s.lane[j]][0],
                        report=report,
                        surrogate_trace=s.trace[j, :maps, :4].copy(),
                        sum_rate_trace=s.trace[j, :maps, 4].copy(),
                        accepted=int(s.accepted[j]),
                        rejected=max(maps - 2, 0) - int(s.accepted[j]))

    s = _lane_operands(channels, [mode for mode, _ in lanes])
    s.lane = np.arange(len(lanes))      # the running lanes, a row each
    s.power = np.array([power for _, power in lanes])
    s.phi = np.ones((len(lanes), lanes[0][0].n_elems), dtype=complex)
    passed, out = stacked(start, s)
    s = s if passed is None else s.select(passed)
    if out is not None:
        s.h, s.V, s.S, s.S2, s.rate = out
        s.zeta = np.ones(s.S2.shape[:-1])
        s.trace = np.empty((len(s.lane), min(cap, 16), 5))   # surrogate, rate
        s.accepted, s.points = np.zeros((2, len(s.lane)), int)
        s.X = s.G = np.empty((len(s.lane), 0, 2 * s.V[0].size))
    maps = 0                            # every running lane has made these
    while len(s.lane):
        rate_start, x = s.rate, _unit(s.V, s.power)
        passed, out = stacked(plain_map, s)
        if out is None:
            break
        if passed is not None:
            s, rate_start, x = s.select(passed), rate_start[passed], x[passed]
        s.h, s.V, s.S, s.S2, s.phi, s.zeta, surrogate, s.rate = out
        if maps == s.trace.shape[1]:
            s.trace = np.concatenate([s.trace, np.empty(
                (len(s.lane), min(maps, cap - maps), 5))], axis=1)
        s.trace[:, maps, :4], s.trace[:, maps, 4] = surrogate, s.rate
        maps += 1

        # multiplied out: the quotient overflows while the start rate is 0
        converged = s.rate - rate_start < threshold * np.maximum(
            rate_start, tiny)
        stop = converged | (maps >= cap)
        s.X, s.G = (np.concatenate([w, new[:, None]], axis=1)[:, -_DEPTH - 1:]
                    for w, new in ((s.X, x), (s.G, _unit(s.V, s.power))))
        s.points += 1
        trying = ~stop & (s.points > 1)
        tried = trying.nonzero()[0]
        if len(tried):
            V = _anderson_step(s.X[tried], s.G[tried], np.minimum(
                s.points[tried] - 1, _DEPTH), s.power[tried]).view(complex)
            V = V.reshape((len(tried),) + s.V.shape[1:])
            finite = np.isfinite(V).all(axis=(1, 2))
            rows = tried[finite]
            passed, out = (stacked(evaluate_candidates, _Lanes(
                lane=s.lane[rows], h=s.h[rows], V=V[finite]))
                if len(rows) else (None, None))
            if passed is not None:      # a lane whose evaluation raised ends
                stop[rows[~passed]] = True
                rows = rows[passed]
            if out is not None:
                V, S, S2, sinr, rate = out
                better = rate >= s.rate.take(rows)
                taken = rows[better]
                trying[taken] = False   # a taken candidate keeps the history
                if len(taken):
                    # the map's outputs stay as they were returned
                    s.V, s.S, s.S2, s.zeta, s.rate = (
                        s.V.copy(), s.S.copy(), s.S2.copy(), s.zeta.copy(),
                        s.rate.copy())
                    s.V[taken], s.S[taken], s.S2[taken] = (
                        V[better], S[better], S2[better])
                    s.zeta[taken] = 1.0 + sinr[better]
                    s.rate[taken] = rate[better]
                    s.accepted[taken] += 1
            s.points[trying] = 1        # the others restart at the last map
        ended = [j for j in stop.nonzero()[0].tolist()
                 if int(s.lane[j]) not in outcomes]  # not ended by exception
        if ended:
            report = _rate_report(_sinr_of(s.S2[ended], noise))
            for j, sinr, rate in zip(ended, report.sinr, report.rate):
                outcomes[int(s.lane[j])] = result(j, sinr, rate, converged[j])
        if stop.all():
            break
        if stop.any():
            s = s.select(~stop)
    return [outcomes[i] for i in range(len(lanes))]


def sparsity_search(scan) -> tuple[AoResult, list[tuple[int, float]]]:
    """Exhaustive search over solved sparsity levels.

    ``scan`` yields (level, outcome) pairs in increasing level, each
    outcome the alternating-optimization result at that level or the
    exception that ended its solve, as ``ao_solve_levels`` returns them.
    The first failed level raises its exception, and no later pair is
    read. Ties are broken toward the smaller level by the strict
    comparison. Returns the best result and the scanned (level, sum rate)
    pairs.
    """
    best = None
    scanned = []
    for eta, result in scan:
        if isinstance(result, Exception):
            raise result
        scanned.append((eta, result.report.sum_rate))
        if best is None or result.report.sum_rate > best.report.sum_rate:
            best = result
    return best, scanned


def wa_solve(geometry: Geometry, config: SystemConfig
             ) -> tuple[BeamformingSolution, ModeSelection, RateReport]:
    """Whole procedure for one geometry: run the alternating optimization
    at every feasible sparsity level, in lockstep and each from a fresh
    start on the same channels, and keep the best level's result by
    ``sparsity_search`` (a failed level raises its exception)."""
    levels = feasible_sparsities(config.n_elems, config.n_connected)
    outcomes = ao_solve_levels(los_channels(geometry, config), config, [
        (make_mode(config.n_elems, config.n_connected, eta),
         config.total_power) for eta in levels])
    best, _ = sparsity_search(zip(levels, outcomes))
    return best.solution, best.mode, best.report


def solve_fixed_eta(geometry: Geometry, config: SystemConfig, eta: int
                    ) -> tuple[BeamformingSolution, ModeSelection, RateReport]:
    """Alternating optimization at one pinned sparsity level."""
    mode = make_mode(config.n_elems, config.n_connected, eta)
    result = ao_solve(los_channels(geometry, config), mode, config)
    return result.solution, result.mode, result.report
