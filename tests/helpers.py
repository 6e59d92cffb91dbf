"""Shared fixtures-in-spirit: layout constants, geometry builders, and
independent brute-force routes used as oracles against the library."""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np

from rdars import wmmse
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
        u_ru_aod=u,
        kappa_br=kappa_br,
        kappa_ru=np.asarray(kappa_values, dtype=float),
    )


def brute_sparse_sum(a, eta, d, lam, du):
    """Direct geometric sum over the connected elements."""
    return sum(cmath.exp(1j * 2.0 * math.pi * d / lam * (m * eta) * du)
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


def anderson_point(xs, gs, power: float, depth: int = 5) -> np.ndarray:
    """One-lane Anderson step (Walker and Ni, SIAM J. Numer. Anal. 2011),
    the reference for ``wmmse._anderson_step``: from the real vectors x_i
    of V / sqrt(P) that a lane's maps started from since its last restart
    and their outputs g_i, with residuals f_i = g_i - x_i over the newest
    depth + 1 points, g - dG gamma for gamma solving the normal equations
    of min ||f - dF gamma|| by Gaussian elimination without pivoting,
    projected onto the full-power sphere. One point gives back g; a
    singular system gives a non-finite point."""
    xs, gs = xs[-depth - 1:], gs[-depth - 1:]
    fs = [g - x for x, g in zip(xs, gs)]
    dF = [b - a for a, b in zip(fs, fs[1:])]
    dG = [b - a for a, b in zip(gs, gs[1:])]
    m = len(dF)
    A = [[np.dot(a, b) for b in dF] for a in dF]
    gamma = [np.dot(a, fs[-1]) for a in dF]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(m):
            for i in range(j + 1, m):
                mult = A[i][j] / A[j][j]
                A[i] = [a - mult * b for a, b in zip(A[i], A[j])]
                gamma[i] = gamma[i] - mult * gamma[j]
        for j in reversed(range(m)):
            gamma[j] = gamma[j] / A[j][j]
            for i in range(j):
                gamma[i] = gamma[i] - A[i][j] * gamma[j]
        x = gs[-1] - sum(c * d for c, d in zip(gamma, dG))
        return x * (math.sqrt(power) / np.linalg.norm(x))


def lift(channels, V):
    """The full precoder [q t; F] of a reduced one [t; F], with q =
    b_aod / sqrt(N_t): what ``wmmse.ao_solve_levels`` returns."""
    q = channels.b_aod / math.sqrt(channels.b_aod.size)
    return np.vstack([q[:, None] * V[0], V[1:]])


def mode_stack(modes):
    """A lane stack of modes for ``wmmse.build_phase_quadratic``: their
    ``a_vec`` and ``index0`` stacked along a leading lane axis."""
    return SimpleNamespace(a_vec=np.stack([m.a_vec for m in modes]),
                           index0=np.stack([m.index0 for m in modes]))


# --- the seam to the lockstep's private kernels -------------------------
# Tests reach the private names of ``rdars.wmmse`` only through this file
# (this block, ``lane_etas`` and ``anderson_reference``), so renaming a
# kernel or changing its signature edits no test file. Precoders
# are the reduced V = [t; F] of ``wmmse._Lanes``, taken whole. A kernel is
# aliased while its signature suits the tests, and adapted after that.

SHARED = wmmse._SHARED              # the drop's operands, shared by the lanes
DEPTH = wmmse._DEPTH                # differences an Anderson step uses at most
PHASE_STEPS = wmmse._PHASE_STEPS    # MM steps in each phase block
# (channels, modes) -> the lanes of a lockstep call, lane-fixed operands only
lane_operands = wmmse._lane_operands
reduced_rows = wmmse._reduced_rows  # (lanes, phi) -> each lane's K rows
# (apply, offset, p0, tol, steps) -> the MM step loop's (points, history)
mm_steps = wmmse._mm_steps
# (X, G, used, power) -> the stacked Anderson candidates, real vectors of V
anderson_step = wmmse._anderson_step


def phase_operator(lanes, V, mu, zeta):
    """Each lane's phase-block operator, as (apply: p -> (D + Lambda) p,
    Lambda)."""
    return wmmse._phase_operator(lanes, V[:, 0], V[:, 1:], mu, zeta)


def phase_block(lanes, V, mu, zeta, p0):
    """Each lane's reflection phases after one phase block from ``p0``."""
    return wmmse._phase_block(lanes, V[:, 0], V[:, 1:], mu, zeta, p0)


def _named(*names):
    return lambda *values: SimpleNamespace(**dict(zip(names, values)))


# what ``wrap`` wraps: the kernel, a view of a call's arguments by name (of
# the map: a snapshot, as the solver replaces the state fields after it),
# and the names of its outputs (None: one output, as it is)
_KERNELS = {
    "start": ("_zf_columns", _named("h", "power", "matched"), None),
    "map": ("_ao_map", lambda lanes, noise: SimpleNamespace(
        lanes=SimpleNamespace(**vars(lanes)), noise=noise),
        ("h", "V", "S", "S2", "mu", "phi", "zeta", "rows")),
    "phase_block": ("_phase_block", lambda lanes, t, F, mu, zeta, p0:
                    SimpleNamespace(lanes=lanes, mu=mu, zeta=zeta, p0=p0,
                                    V=np.concatenate([t[:, None], F], 1)),
                    None),
    "mm_steps": ("_mm_steps", _named("apply", "offset", "p0", "tol", "steps"),
                 ("p", "history")),
    "anderson": ("_anderson_step", _named("X", "G", "used", "power"), None),
    "rates": ("_rated", _named("h", "V", "noise"), None),
    "lanes": ("_Lanes", lambda **fields: SimpleNamespace(fields=fields), None),
}


def wrap(patch, kernel, around=None):
    """While ``patch`` (a pytest MonkeyPatch) holds, record every call of
    the lockstep's ``kernel`` (a key of ``_KERNELS``), and run
    ``around(call)`` in its place if given. Returns the list of calls, in
    order; each holds the call's arguments by name, ``plain()``, which
    runs the kernel itself on them, and, once it returns, ``out``: its
    output, by name if it has several."""
    name, view, outputs = _KERNELS[kernel]
    plain = getattr(wmmse, name)
    calls = []

    def wrapped(*args, **kwargs):
        call = view(*args, **kwargs)
        call.plain = lambda: plain(*args, **kwargs)
        calls.append(call)
        out = around(call) if around else call.plain()
        call.out = _named(*outputs)(*out) if outputs else out
        return out

    patch.setattr(wmmse, name, wrapped)
    return calls


def fail_levels(patch, *etas):
    """While ``patch`` holds, every phase block of lanes among which one
    has one of these sparsity levels raises ArithmeticError("forced
    failure at level <eta>")."""
    def failing(call):
        hit = [eta for eta in lane_etas(call.lanes) if eta in etas]
        if hit:
            raise ArithmeticError(f"forced failure at level {hit[0]}")
        return call.plain()

    wrap(patch, "phase_block", failing)


def lane_etas(lanes):
    """The sparsity level of each lane of a ``wmmse._Lanes``, read from its
    ``abar``: the connected elements sit at 0, eta, 2 eta, ..., and a
    lone connected element has level 1."""
    etas = []
    for abar in lanes.abar:
        connected = np.flatnonzero(abar == 0.0)
        etas.append(int(connected[1]) if len(connected) > 1 else 1)
    return etas


def anderson_reference(channels, mode, config, step=anderson_point):
    """One-lane Anderson loop, written plainly as the reference for the
    lockstep driver ``wmmse.ao_solve_levels``. After each plain map that
    did not stop the run and leaves another map under the cap, a lane with
    at least two points since its last restart tries ``step`` on them. A
    finite candidate whose sum rate at the map's channels is at least the
    map output's is taken with fresh weights 1 + SINR; any other restarts
    the history at the last point. The run stops when the relative
    sum-rate gain of one map over the state it started from is below the
    threshold. The maps run in the reduced coordinates of ``wmmse._Lanes``
    from ``zf_init``'s start on the reduced rows, with its matched-filter
    rule at the full N_t + a dimensions. Returns the fields of an
    ``AoResult``: (V, phases, SINRs, rates, sum rate, surrogate rows,
    sum-rate trace, converged, accepted, rejected), with V reduced (see
    ``lift``)."""
    power, noise = config.total_power, config.noise_power
    lanes, powers = wmmse._lane_operands(channels, [mode]), np.array([power])
    phi = np.ones((1, mode.n_elems), dtype=complex)
    h = wmmse._reduced_rows(lanes, phi)
    matched = channels.n_ues > channels.b_aod.size + mode.n_connected
    V = wmmse._zf_columns(h, powers, matched)
    zeta = np.ones((1, channels.n_ues))
    report = sum_rate(h, V, noise)
    sinr, rate, total = report.sinr[0], report.rate[0], report.sum_rate[0]
    rows, trace, xs, gs = [], [], [], []
    accepted = rejected = 0

    def unit(V):
        return V.reshape(-1).view(float) / math.sqrt(power)

    while True:
        start = total
        xs.append(unit(V))
        S = h @ V
        h, V, _, _, _, phi, zeta, row = wmmse._ao_map(wmmse._Lanes(
            **vars(lanes), power=powers, h=h, V=V, S=S, S2=np.abs(S) ** 2,
            phi=phi, zeta=zeta), noise)
        report = sum_rate(h, V, noise)
        sinr, rate, total = report.sinr[0], report.rate[0], report.sum_rate[0]
        rows.append(row[0])
        trace.append(float(total))
        gs.append(unit(V))
        converged = bool(total - start < config.conv_threshold * max(
            start, np.finfo(float).tiny))
        if converged or len(trace) == config.max_outer_iters:
            break
        if len(xs) < 2:
            continue
        V_x = step(xs, gs, power).view(complex).reshape(V.shape)
        taken = False
        if np.isfinite(V_x).all():
            cand = sum_rate(h, V_x, noise)
            taken = cand.sum_rate[0] >= total
        if taken:
            accepted += 1
            V, zeta, total = V_x, 1.0 + cand.sinr, cand.sum_rate[0]
        else:
            rejected += 1
            xs, gs = xs[-1:], gs[-1:]
    return (V[0], phi[0], sinr, rate, total, np.asarray(rows),
            np.asarray(trace), converged, accepted, rejected)
