"""Dyadic norms, Orlicz-Sobolev norms and trace/extension operators on
truncated regular K-ary trees and their Cantor-type boundaries."""

from .boundary_norms import (
    BoundaryFunction,
    EnergyParams,
    MonteCarloEstimate,
    cell_average,
    double_integral_energy,
    double_integral_energy_mc,
    double_integral_is_exact,
    dyadic_energy,
    dyadic_orlicz_modular,
    lp_norm,
    orlicz_besov_norm,
    orlicz_norm,
)
from .hajlasz import (
    BlockReport,
    ConvergenceError,
    HajlaszInstance,
    HajlaszSolution,
    SolverConfig,
    hajlasz_energy,
    hajlasz_feasible,
    hajlasz_minimize,
    hajlasz_minimize_all,
    hajlasz_oracle,
    scale_for_distance,
)
from .harness import (
    BOUNDARY_FAMILIES,
    TREE_FAMILIES,
    CheckReport,
    ExperimentConfig,
    RatioReport,
    generate,
    indicator_function,
    load_config,
    verify_ahlfors,
    verify_doubling,
    verify_equivalences,
    verify_extension_bound,
    verify_roundtrip,
    verify_trace_bound,
)
from .operators import extend, star_majorant, trace
from .tree import (
    EdgePoint,
    TreeParams,
    ahlfors_ratio,
    arclength,
    ball_measure,
    doubling_ratios,
    edge_length,
    edge_mass,
    edge_measure,
    make_tree_params,
    min_shift_constant,
    residual_measure,
    sample_ball_centers,
    split_distances,
    tree_measure,
    vertex_distance,
)
from .tree_norms import (
    TreeFunction,
    gradient_lphi_modular,
    newtonian_norm,
    tree_lphi_modular,
    upper_gradient_edges,
)
from .young import (
    GaugeBracketError,
    NonMonotoneModularError,
    PhiDiagnostics,
    YoungModular,
    YoungPhi,
    luxemburg_gauge,
    phi_diagnostics,
    phi_eval,
)

__version__ = "0.1.0"
