"""Dyadic norms, Orlicz-Sobolev norms and trace/extension operators on
truncated regular K-ary trees and their Cantor-type boundaries."""

from .boundary_norms import (
    BoundaryFunction,
    EnergyParams,
    MonteCarloEstimate,
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
from .operators import extend, trace
from .tree import (
    EdgePoint,
    TreeParams,
    ahlfors_ratio,
    arclength,
    ball_measure,
    doubling_ratios,
    edge_length,
    edge_measure,
    min_shift_constant,
    sample_ball_centers,
    split_distances,
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
    YoungModular,
    YoungPhi,
    luxemburg_gauge,
)

__version__ = "0.1.0"
