"""Joint sparsity and beamforming design for reconfigurable surfaces with
a few wired, actively transmitting elements.

The package covers the LoS channel model and effective-channel assembly,
closed-form one- and two-UE analyses built on sparse-array Dirichlet
kernels, a regime selector for the element placement, a weighted-MMSE
alternating solver for the general multi-UE case, and a deterministic
Monte-Carlo harness with a small CLI.
"""

from .arrays import (ChannelSet, ModeSelection, PassiveBeam, effective_matrix,
                     feasible_sparsities, los_channels, make_mode, steering)
from .closed_form import (CASE2, CASE3, SUBCASE1, SUBCASE2, SingleUeSolution,
                          SparsitySelection, TwoUeAnalysis, analyze_two_ue,
                          case2_cscc, center_phase, cscc_closed,
                          dirichlet_kernel, dirichlet_sparse,
                          proposition1_select, r_set, reference_passive,
                          select_two_ue_eta, single_ue_solution, steered_sums,
                          two_ue_analysis, two_ue_rate, two_ue_sinr)
from .harness import (ALGORITHMS, CSV_FIELDS, Campaign, TrialRow, dbm_to_watt,
                      emit_csv, run_campaign, run_trial, watt_to_dbm)
from .metrics import (BeamformingSolution, RateReport, cscc, mse_all, mse_k,
                      sinr_all, sum_rate)
from .scenario import (Geometry, Scenario, ScenarioError, SystemConfig,
                       default_scenario, derive_geometry, drop_ues,
                       load_scenario, parse_scenario_text, path_gain,
                       scenario_geometry)
from .wmmse import (AoResult, PhaseQuadratic, ao_solve, build_phase_quadratic,
                    effective_noise, phase_objective, power_iteration,
                    precoders_at, solve_fixed_eta,
                    sparsity_search, surrogate_value, update_precoders,
                    update_receivers, update_weights, wa_solve, zf_init)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "AoResult", "BeamformingSolution", "CASE2", "CASE3",
    "CSV_FIELDS",
    "Campaign", "ChannelSet", "Geometry", "ModeSelection",
    "PassiveBeam", "PhaseQuadratic", "RateReport", "SUBCASE1", "SUBCASE2",
    "Scenario", "ScenarioError", "SingleUeSolution", "SparsitySelection",
    "SystemConfig", "TrialRow", "TwoUeAnalysis", "analyze_two_ue", "ao_solve",
    "build_phase_quadratic", "case2_cscc", "center_phase", "cscc",
    "cscc_closed", "dbm_to_watt", "default_scenario", "derive_geometry",
    "dirichlet_kernel", "dirichlet_sparse", "drop_ues",
    "effective_matrix", "effective_noise", "emit_csv", "feasible_sparsities",
    "load_scenario", "los_channels", "make_mode", "mse_all", "mse_k",
    "parse_scenario_text", "path_gain", "phase_objective",
    "power_iteration", "precoders_at",
    "proposition1_select", "r_set", "reference_passive", "run_campaign",
    "run_trial", "scenario_geometry", "select_two_ue_eta",
    "single_ue_solution", "sinr_all", "solve_fixed_eta",
    "sparsity_search", "steered_sums", "steering", "sum_rate",
    "surrogate_value", "two_ue_analysis", "two_ue_rate", "two_ue_sinr",
    "update_precoders", "update_receivers", "update_weights", "wa_solve",
    "watt_to_dbm", "zf_init", "__version__",
]
