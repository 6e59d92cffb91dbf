"""Joint sparsity and beamforming design for reconfigurable surfaces with
a few wired, actively transmitting elements.

The package covers the LoS channel model and effective-channel assembly,
closed-form one- and two-UE analyses built on sparse-array Dirichlet
kernels, a regime selector for the element placement, a weighted-MMSE
alternating solver for the general multi-UE case, and a deterministic
Monte-Carlo harness with a small CLI.
"""

from .arrays import (PassiveBeam, effective_matrix, feasible_sparsities,
                     los_channels, make_mode)
from .closed_form import (analyze_two_ue, case2_cscc, cscc_closed,
                          dirichlet_kernel, proposition1_select,
                          reference_passive, select_two_ue_eta,
                          single_ue_solution, two_ue_analysis, two_ue_rate)
from .harness import Campaign, emit_csv, run_campaign
from .metrics import cscc, mse_all, sinr_all
from .scenario import (Scenario, SystemConfig, default_scenario,
                       derive_geometry, drop_ues, scenario_geometry)
from .wmmse import (PhaseQuadratic, ao_solve, effective_noise,
                    phase_objective, power_iteration, solve_fixed_eta,
                    update_receivers, wa_solve)

__version__ = "0.1.0"

__all__ = [
    "Campaign", "PassiveBeam", "PhaseQuadratic", "Scenario", "SystemConfig",
    "analyze_two_ue", "ao_solve", "case2_cscc", "cscc", "cscc_closed",
    "default_scenario", "derive_geometry", "dirichlet_kernel", "drop_ues",
    "effective_matrix", "effective_noise", "emit_csv", "feasible_sparsities",
    "los_channels", "make_mode", "mse_all", "phase_objective",
    "power_iteration", "proposition1_select", "reference_passive",
    "run_campaign", "scenario_geometry", "select_two_ue_eta",
    "single_ue_solution", "sinr_all", "solve_fixed_eta", "two_ue_analysis",
    "two_ue_rate", "update_receivers", "wa_solve", "__version__",
]
