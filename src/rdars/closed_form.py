"""Closed-form analysis of the one- and two-UE cases.

Covers the exact single-UE optimum (aligned phases, matched filters, and
the BS/surface power split), the two-UE SINR laws for MRT/ZF/MMSE
precoding as functions of the channel correlation, the sparse-array
Dirichlet machinery behind the correlation coefficient, and the regime
selector that picks sparsity levels without running the iterative solver.

Conventions: ``du`` always denotes a difference of spatial frequencies,
``d`` the element spacing, ``lam`` the wavelength. Sums over the connected
elements run over the index set {1 + m*eta}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arrays import (ModeSelection, PassiveBeam, feasible_sparsities, make_mode,
                     steering)
from .metrics import rate_bits
from .scenario import Geometry, SystemConfig

CASE2 = "CASE2"
CASE3 = "CASE3"
SUBCASE1 = "SUBCASE1"
SUBCASE2 = "SUBCASE2"

# Below this, |sin| of the kernel denominator counts as a removable
# singularity and the ratio is evaluated by its limit.
_SING_TOL = 1e-12

# Regime ratio at or above which the reflected path dominates (SUBCASE2),
# and whose reciprocal bounds the negligible-reflection regime (SUBCASE1).
_REGIME_FACTOR = 100.0


def dirichlet_kernel(a: int, eta: int, d: float, lam: float, du: float) -> float:
    """Ratio-of-sines magnitude pattern of the sparse connected array:
    sin(a*pi*d*eta*du/lam) / sin(pi*d*eta*du/lam).

    At denominator zeros the removable singularity evaluates to +/- a
    (+a whenever the argument is a multiple of 2*pi).
    """
    x = math.pi * d * eta * du / lam
    den = math.sin(x)
    if abs(den) < _SING_TOL:
        # L'Hopital at x = p*pi, where |cos| = 1 on both levels.
        return a * math.cos(a * x) / math.cos(x)
    return math.sin(a * x) / den


def center_phase(a: int, eta: int, d: float, lam: float, du: float) -> complex:
    """Unit phase factor of the sparse-array geometric sum's centroid:
    exp(j * (2*pi*d/lam) * (eta*(a-1)/2) * du)."""
    return cmath.exp(1j * (2.0 * math.pi * d / lam)
                     * (0.5 * (a - 1) * eta) * du)


def dirichlet_sparse(a: int, eta: int, d: float, lam: float,
                     du: float) -> complex:
    """Coherent sum over the connected elements for a frequency offset du:
    sum_m exp(j*(2*pi*d/lam)*(m*eta)*du), evaluated in closed form as
    kernel times centroid phase."""
    return dirichlet_kernel(a, eta, d, lam, du) * center_phase(a, eta, d, lam, du)


def steered_sums(mode: ModeSelection, d: float, lam: float,
                 passive: PassiveBeam, du: float) -> tuple[complex, complex]:
    """Phased sums under an arbitrary reflection profile.

    Returns the full-array sum sum_n phi[n] e^{j(2 pi d/lam)(n-1) du} and
    the same sum restricted to the connected elements.
    """
    b = steering(mode.n_elems, du, d, lam)
    full = complex(np.dot(passive.phi, b))
    sparse = complex(np.dot(passive.phi[mode.index0], b[mode.index0]))
    return full, sparse


def reference_passive(n: int, d: float, lam: float, u_ref: float,
                      u_br_aoa: float) -> PassiveBeam:
    """Reflection profile steering the surface from the arrival direction
    toward a reference frequency: phi_n = (2 pi d/lam)(n-1)(u_ref - u_aoa)."""
    ang = (2.0 * math.pi * d / lam) * np.arange(n) * (u_ref - u_br_aoa)
    return PassiveBeam.from_phases(ang)


@dataclass(frozen=True)
class SingleUeSolution:
    """Exact one-UE optimum: aligned reflection phases, matched-filter
    precoders, and the power split between BS and connected elements."""

    passive: PassiveBeam
    w: np.ndarray             # BS precoder, ||w||^2 = p_bs
    f: np.ndarray             # connected-element precoder, ||f||^2 = p_connected
    p_bs: float
    p_connected: float
    snr_max: float


def single_ue_solution(geometry: Geometry, config: SystemConfig,
                       mode: ModeSelection) -> SingleUeSolution:
    """Closed-form optimum for a single UE.

    Reflection phases rotate each reflected path onto the UE direction;
    the BS and connected-element beams are matched filters carrying powers
    p_bs and p_connected with p_bs + p_connected = total_power. The
    resulting SNR is kappa_ru^2 P (kappa_br^2 (N-a)^2 N_t + a) / noise,
    independent of the sparsity level.
    """
    if geometry.n_ues != 1:
        raise ValueError(f"single-UE solution needs K=1, got K={geometry.n_ues}")
    n, nt, a = config.n_elems, config.n_tx, mode.n_connected
    d, lam = config.spacing, config.wavelength
    k_br = geometry.kappa_br
    k_ru = float(geometry.kappa_ru[0])
    u_ru = float(geometry.u_ru_aod[0])

    b_ru = steering(n, u_ru, d, lam)
    b_aoa = steering(n, geometry.u_br_aoa, d, lam)
    passive = PassiveBeam(b_ru * b_aoa.conj())

    denom = k_br ** 2 * (n - a) ** 2 * nt + a
    p_bs = k_br ** 2 * (n - a) ** 2 * nt * config.total_power / denom
    p_conn = a * config.total_power / denom

    w = math.sqrt(p_bs / nt) * steering(nt, geometry.u_br_aoa, d, lam)
    f = math.sqrt(p_conn / a) * b_ru[mode.index0]
    snr = k_ru ** 2 * config.total_power * denom / config.noise_power
    return SingleUeSolution(passive=passive, w=w, f=f, p_bs=p_bs,
                            p_connected=p_conn, snr_max=snr)


_SCHEMES = ("MRT", "ZF", "MMSE")


def two_ue_sinr(scheme: str, p, beta, eps: float, noise: float) -> np.ndarray:
    """Two-UE SINRs under the named linear precoder, as a function of the
    per-UE powers p, channel norms beta, and squared correlation eps.

    MRT keeps full beamforming gain but eats interference; ZF nulls it at
    a (1 - eps) gain loss; MMSE interpolates and dominates ZF.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    p = np.asarray(p, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if p.shape != (2,) or beta.shape != (2,):
        raise ValueError("p and beta must both have two entries")
    if np.any(p < 0.0):
        raise ValueError("powers must be nonnegative")
    if not -1e-12 <= eps <= 1.0 + 1e-12:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    eps = min(max(eps, 0.0), 1.0)
    snr0 = p * beta ** 2 / noise
    other = snr0[::-1]
    if scheme == "MRT":
        x = p[::-1] * beta ** 2 * eps / noise
        return snr0 * (1.0 - x / (1.0 + x))
    if scheme == "ZF":
        return snr0 * (1.0 - eps)
    return snr0 * (1.0 - eps * other / (1.0 + other))


@dataclass(frozen=True)
class TwoUeAnalysis:
    """Two-UE closed-form channel quantities: ``beta`` the effective
    channel norms, ``eps`` the squared correlation."""

    beta: np.ndarray
    eps: float


def two_ue_analysis(geometry: Geometry, config: SystemConfig,
                    mode: ModeSelection, passive: PassiveBeam) -> TwoUeAnalysis:
    """Exact two-UE correlation analysis under an arbitrary reflection
    profile, via the phased-sum decomposition of each effective row."""
    if geometry.n_ues != 2:
        raise ValueError(f"two-UE analysis needs K=2, got K={geometry.n_ues}")
    d, lam = config.spacing, config.wavelength
    nt, a = config.n_tx, mode.n_connected
    k_br = geometry.kappa_br
    k_ru = geometry.kappa_ru
    u1, u2 = (float(u) for u in geometry.u_ru_aod)
    du = u2 - u1
    du_k = geometry.u_br_aoa - geometry.u_ru_aod

    d_full = np.empty(2, dtype=complex)
    s_sparse = np.empty(2, dtype=complex)
    for k in range(2):
        d_full[k], s_sparse[k] = steered_sums(mode, d, lam, passive, float(du_k[k]))
    xi = k_br * k_ru * (d_full - s_sparse)
    d_k = math.sqrt(nt) * xi
    s_cross = k_ru[0] * k_ru[1] * dirichlet_sparse(a, mode.eta, d, lam, du)

    num = abs(d_k[0] * np.conj(d_k[1]) + s_cross) ** 2
    den = ((abs(d_k[0]) ** 2 + k_ru[0] ** 2 * a)
           * (abs(d_k[1]) ** 2 + k_ru[1] ** 2 * a))
    eps = min(max(float(num / den), 0.0), 1.0)
    beta = np.sqrt(np.abs(xi) ** 2 * nt + k_ru ** 2 * a)
    return TwoUeAnalysis(beta=beta, eps=eps)


def cscc_closed(geometry: Geometry, config: SystemConfig, mode: ModeSelection,
                passive: PassiveBeam) -> float:
    """Two-UE squared correlation from the closed form (no channel
    assembly); must agree with metrics.cscc on the assembled rows."""
    return two_ue_analysis(geometry, config, mode, passive).eps


def r_set(a: int, d: float, lam: float, du: float, feasible) -> list[int]:
    """Candidate sparsity levels whose kernel nulls fall nearest the UE
    separation: roundings of q*lam/(a*d*|du|) for q = 1..a-1, intersected
    with the feasible set. May be empty."""
    if du == 0.0:
        raise ValueError("r_set undefined for du = 0 (fully aligned UEs)")
    cands = set()
    for q in range(1, a):
        val = q * lam / (a * d * abs(du))
        cands.add(int(math.floor(val + 0.5)))
    return sorted(cands & set(feasible))


def case2_cscc(geometry: Geometry, config: SystemConfig, eta: int) -> float:
    """Two-UE squared correlation when the surface is steered at the
    midpoint of the two UE directions, in closed form as a function of the
    sparsity level only."""
    if geometry.n_ues != 2:
        raise ValueError(f"needs K=2, got K={geometry.n_ues}")
    n, nt, a = config.n_elems, config.n_tx, config.n_connected
    d, lam = config.spacing, config.wavelength
    k_br = geometry.kappa_br
    k_ru = geometry.kappa_ru
    u1, u2 = (float(u) for u in geometry.u_ru_aod)
    du = u2 - u1
    half = 0.5 * du

    # Full aperture minus connected subarray, both steered at the midpoint.
    x = dirichlet_sparse(n, 1, d, lam, half) - dirichlet_sparse(a, eta, d, lam, half)
    x_tilde = nt * k_br ** 2 * x * x
    s_bar = dirichlet_sparse(a, eta, d, lam, du)
    num = (k_ru[0] * k_ru[1]) ** 2 * abs(x_tilde + s_bar) ** 2
    xbar = k_ru ** 2 * a + k_br ** 2 * k_ru ** 2 * abs(x) ** 2 * nt
    return min(max(float(num / (xbar[0] * xbar[1])), 0.0), 1.0)


@dataclass(frozen=True)
class SparsitySelection:
    """Outcome of the regime selector: candidate sparsity levels, the case
    it routed through, the regime ratio, and whether the null-rounding
    set came back empty and a kernel-minimizing fallback was used."""

    eta_set: tuple[int, ...]
    case_label: str
    ratio: float
    used_fallback: bool = False


def proposition1_select(geometry: Geometry,
                        config: SystemConfig) -> SparsitySelection:
    """Pick candidate sparsity levels for two UEs without iterating.

    Routing: fully aligned UEs make every level equivalent (CASE3); a
    dominant reflected path makes the correlation insensitive to the
    placement (SUBCASE2, all levels); a negligible reflected path reduces
    the problem to nulling the connected-array kernel (SUBCASE1, the
    null-rounding set, or the kernel argmin if that set is empty); in
    between, scan the midpoint-steered closed form exhaustively (CASE2).
    """
    if geometry.n_ues != 2:
        raise ValueError(f"needs K=2, got K={geometry.n_ues}")
    n, nt, a = config.n_elems, config.n_tx, config.n_connected
    d, lam = config.spacing, config.wavelength
    fset = feasible_sparsities(n, a)
    u1, u2 = (float(u) for u in geometry.u_ru_aod)
    du = u2 - u1
    ratio = (n + a) ** 2 * nt / a * geometry.kappa_br ** 2

    if du == 0.0:
        return SparsitySelection(tuple(fset), CASE3, ratio)
    if ratio >= _REGIME_FACTOR:
        return SparsitySelection(tuple(fset), SUBCASE2, ratio)
    if ratio <= 1.0 / _REGIME_FACTOR:
        rset = r_set(a, d, lam, du, fset)
        if rset:
            return SparsitySelection(tuple(rset), SUBCASE1, ratio)
        kernel = [abs(dirichlet_kernel(a, eta, d, lam, du)) ** 2 / a ** 2
                  for eta in fset]
        best = fset[int(np.argmin(kernel))]
        return SparsitySelection((best,), SUBCASE1, ratio, used_fallback=True)
    vals = [case2_cscc(geometry, config, eta) for eta in fset]
    best = fset[int(np.argmin(vals))]
    return SparsitySelection((best,), CASE2, ratio)


def _midpoint_rates(geometry: Geometry, config: SystemConfig,
                    etas) -> list[tuple[float, np.ndarray]]:
    """Squared correlation and per-UE rates (bits) at each given sparsity
    level, with the surface steered once at the UE midpoint and MMSE
    precoding at equal per-UE power."""
    u_ref = 0.5 * float(geometry.u_ru_aod.sum())
    passive = reference_passive(config.n_elems, config.spacing,
                                config.wavelength, u_ref, geometry.u_br_aoa)
    p = np.full(2, config.total_power / 2.0)
    out = []
    for eta in etas:
        mode = make_mode(config.n_elems, config.n_connected, eta)
        analysis = two_ue_analysis(geometry, config, mode, passive)
        gammas = two_ue_sinr("MMSE", p, analysis.beta, analysis.eps,
                             config.noise_power)
        out.append((analysis.eps, rate_bits(gammas)))
    return out


def two_ue_rate(geometry: Geometry, config: SystemConfig, eta: int) -> float:
    """Closed-form two-UE sum rate (bits) at a given sparsity level, with
    the surface steered at the UE midpoint and equal per-UE power."""
    (_, rates), = _midpoint_rates(geometry, config, (eta,))
    return float(rates.sum())


def analyze_two_ue(geometry: Geometry, config: SystemConfig) -> list[dict]:
    """Per-sparsity-level two-UE table: exact and midpoint-form squared
    correlations (equal by construction when the surface is steered at
    the UE midpoint) and the resulting closed-form sum rate."""
    fset = feasible_sparsities(config.n_elems, config.n_connected)
    out = []
    for eta, (eps, rates) in zip(fset, _midpoint_rates(geometry, config, fset)):
        out.append({
            "eta": eta,
            "eps": eps,
            "eps_bar": case2_cscc(geometry, config, eta),
            "sum_rate_bits": float(rates.sum()),
        })
    return out


def select_two_ue_eta(geometry: Geometry, config: SystemConfig
                      ) -> tuple[int, SparsitySelection]:
    """Resolve the selector's candidate set to a single level: the one
    with the smallest midpoint-steered correlation, ties to the smallest
    level."""
    selection = proposition1_select(geometry, config)
    if len(selection.eta_set) == 1:
        return selection.eta_set[0], selection
    best_eta, best_eps = None, None
    for eta, (eps, _) in zip(selection.eta_set,
                             _midpoint_rates(geometry, config, selection.eta_set)):
        if best_eps is None or eps < best_eps - 1e-15:
            best_eta, best_eps = eta, eps
    return int(best_eta), selection
