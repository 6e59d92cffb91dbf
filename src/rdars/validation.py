"""Seeded self-checks for the command line.

Each check exercises one structural identity of the design on small
instances and reports pass/fail with a numeric detail. They are meant as
a fast field diagnostic, not a replacement for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import (PassiveBeam, effective_matrix, feasible_sparsities,
                     los_channels, make_mode)
from .closed_form import cscc_closed, single_ue_solution
from .metrics import cscc, mse_all, sinr_all
from .scenario import Scenario, SystemConfig, scenario_geometry
from .wmmse import (ao_solve, effective_noise, phase_objective,
                    power_iteration, update_receivers, PhaseQuadratic)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _small_config(**overrides) -> SystemConfig:
    base = dict(n_tx=4, n_elems=16, n_connected=4, n_ues=3,
                total_power=1.0, noise_power=7.244359600749892e-13)
    base.update(overrides)
    return SystemConfig(**base)


def check_single_ue(seed: int) -> CheckResult:
    """Closed-form single-UE SNR must match a direct evaluation of the
    effective channel and be identical across sparsity levels."""
    rng = np.random.default_rng(seed)
    config = _small_config(n_ues=1)
    scenario = Scenario(config=config)
    worst = 0.0
    for _ in range(5):
        geometry = scenario_geometry(scenario, rng)
        channels = los_channels(geometry, config)
        snrs = []
        for eta in feasible_sparsities(config.n_elems, config.n_connected):
            mode = make_mode(config.n_elems, config.n_connected, eta)
            sol = single_ue_solution(geometry, config, mode)
            h = effective_matrix(channels, sol.passive, mode)
            v = np.concatenate([sol.w, sol.f])[:, None]
            gamma = float(sinr_all(h, v, config.noise_power)[0])
            worst = max(worst, abs(gamma - sol.snr_max) / sol.snr_max)
            snrs.append(sol.snr_max)
        spread = (max(snrs) - min(snrs)) / max(snrs)
        worst = max(worst, spread)
    return CheckResult("single_ue_closed_form", worst <= 1e-9,
                       f"max relative error {worst:.3e}")


def check_correlation(seed: int) -> CheckResult:
    """Closed-form two-UE correlation must match the assembled channels
    under random reflection profiles."""
    rng = np.random.default_rng(seed)
    config = _small_config(n_ues=2)
    scenario = Scenario(config=config)
    worst = 0.0
    for _ in range(20):
        geometry = scenario_geometry(scenario, rng)
        mode = make_mode(config.n_elems, config.n_connected,
                         int(rng.integers(1, 6)))
        passive = PassiveBeam.from_phases(
            rng.uniform(0.0, 2.0 * math.pi, config.n_elems))
        channels = los_channels(geometry, config)
        h = effective_matrix(channels, passive, mode)
        direct = cscc(h[0], h[1])
        closed = cscc_closed(geometry, config, mode, passive)
        worst = max(worst, abs(direct - closed) / max(direct, 1e-12))
    return CheckResult("two_ue_correlation", worst <= 1e-9,
                       f"max relative error {worst:.3e}")


def check_alternating_solver(seed: int) -> CheckResult:
    """One small solver run: objective monotone, rate monotone, power
    budget met, unit-modulus phases, MSE identity at the final point."""
    rng = np.random.default_rng(seed)
    config = _small_config(conv_threshold=1e-5)
    geometry = scenario_geometry(Scenario(config=config), rng)
    mode = make_mode(config.n_elems, config.n_connected, 2)
    channels = los_channels(geometry, config)
    result = ao_solve(channels, mode, config)

    flat = result.surrogate_trace.ravel()
    surr_ok = bool(np.all(np.diff(flat) <= 1e-9 * (1.0 + np.abs(flat[:-1]))))
    rate_ok = bool(np.all(np.diff(result.sum_rate_trace) >= -1e-8))
    power = result.solution.transmit_power
    power_ok = power <= config.total_power * (1.0 + 1e-6)
    unit_ok = bool(np.max(np.abs(np.abs(result.solution.passive.phi) - 1.0))
                   <= 1e-12)

    V = result.solution.V
    h = effective_matrix(channels, result.solution.passive, mode)
    mu = update_receivers(h, V, config.noise_power, config.total_power)
    e = mse_all(h, V, mu, effective_noise(V, config.noise_power,
                                          config.total_power))
    gamma = sinr_all(h, V, config.noise_power)
    mse_gap = float(np.max(np.abs(e - 1.0 / (1.0 + gamma))))
    mse_ok = mse_gap <= 1e-9

    passed = surr_ok and rate_ok and power_ok and unit_ok and mse_ok
    detail = (f"surrogate={'ok' if surr_ok else 'BAD'} "
              f"rate={'ok' if rate_ok else 'BAD'} "
              f"power_gap={power - config.total_power:.3e} "
              f"mse_gap={mse_gap:.3e}")
    return CheckResult("alternating_solver", passed, detail)


def check_phase_search(seed: int) -> CheckResult:
    """Two-element power iteration must land within 1e-3 of the best
    one-degree grid point of the phase quadratic."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        n = 2
        root = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = root @ root.conj().T
        beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        quad = PhaseQuadratic(matrix=C, linear=beta)
        x, _ = power_iteration(C, beta, tol=1e-13, max_iters=5000)
        found = phase_objective(quad, PassiveBeam(x.conj()))
        grid = np.deg2rad(np.arange(360.0))
        best = math.inf
        for a1 in grid:
            xs = np.exp(1j * np.column_stack(
                [np.full(grid.size, a1), grid]))
            vals = (np.einsum('ki,ij,kj->k', xs.conj(), C, xs).real
                    + 2.0 * (xs @ beta.conj()).real)
            best = min(best, float(vals.min()))
        worst = max(worst, found - best)
    return CheckResult("phase_power_iteration", worst <= 1e-3,
                       f"max excess over grid {worst:.3e}")


def run_checks(seed: int = 0) -> list[CheckResult]:
    return [
        check_single_ue(seed),
        check_correlation(seed + 1),
        check_alternating_solver(seed + 2),
        check_phase_search(seed + 3),
    ]
