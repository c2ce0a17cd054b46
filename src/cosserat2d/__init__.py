"""Energy-minimizing planar Cosserat microrotations.

Closed-form optimal rotations and reduced energies for the weighted
shear-stretch energy over SO(2), for any deformation gradient in GL+(2)
and any admissible weight pair, certified against an independent
brute-force minimizer over the rotation angle.
"""

from .bruteforce import (
    GridResult,
    angle_set_distance,
    grid_minimize,
    sign_change_scan,
)
from .energy import (
    Branch,
    EnergyLevels,
    ReducedEnergy,
    cofactor_shear_profile,
    critical_energy_levels,
    log_strain_energy,
    log_strain_profile,
    matrix_log_2x2,
    reduced_energy,
    reduced_energy_sv,
    shear_stretch_energy,
    shear_stretch_profile,
)
from .errors import (
    LogUndefined,
    NonFiniteEnergy,
    NonPositiveDeterminant,
    NonPositiveSingularValue,
    NotARotation,
    PlanarCosseratError,
    RequiresNonClassical,
)
from .minimizers import (
    CriticalSet,
    MinimizerSet,
    critical_set,
    optimal_set,
    relative_rotation_magnitude,
    signed_defect_profile,
    stationarity_residual,
)
from .planar import (
    Mat2,
    PolarDecomposition,
    QUARTER_TURN,
    SingularPair,
    TraceInvariants,
    circular_distance,
    cofactor_transform,
    normalize_angle,
    polar_angle,
    polar_decompose,
    require_gl_plus,
    require_rotation,
    rotation,
    singular_values,
    trace_invariants,
)
from .shear import (
    ShearSolution,
    shear_solution,
    simple_shear,
)
from .weights import (
    Regime,
    ReductionData,
    Weights,
    reduction_data,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CriticalSet",
    "EnergyLevels",
    "GridResult",
    "LogUndefined",
    "Mat2",
    "MinimizerSet",
    "NonFiniteEnergy",
    "NonPositiveDeterminant",
    "NonPositiveSingularValue",
    "NotARotation",
    "PlanarCosseratError",
    "PolarDecomposition",
    "QUARTER_TURN",
    "ReducedEnergy",
    "ReductionData",
    "Regime",
    "RequiresNonClassical",
    "ShearSolution",
    "SingularPair",
    "TraceInvariants",
    "Weights",
    "angle_set_distance",
    "circular_distance",
    "cofactor_shear_profile",
    "cofactor_transform",
    "critical_energy_levels",
    "critical_set",
    "grid_minimize",
    "log_strain_energy",
    "log_strain_profile",
    "matrix_log_2x2",
    "normalize_angle",
    "optimal_set",
    "polar_angle",
    "polar_decompose",
    "reduced_energy",
    "reduced_energy_sv",
    "reduction_data",
    "relative_rotation_magnitude",
    "require_gl_plus",
    "require_rotation",
    "rotation",
    "shear_solution",
    "shear_stretch_energy",
    "shear_stretch_profile",
    "sign_change_scan",
    "signed_defect_profile",
    "simple_shear",
    "singular_values",
    "stationarity_residual",
    "trace_invariants",
]
