"""Divergence-free tensors from densities of closed differential forms.

The library assembles, for a Lagrangian density over the coefficients of a
closed p-form, the rank-2 tensor whose rows are divergence free at critical
points; tests the equivalence between tensor symmetry and orthogonal-group
invariance of the density; and verifies the classical specializations (gas
dynamics, relativistic flow, electromagnetism) on sampled grids.
"""

from .exterior import (
    PFormValue,
    canonicalize,
    enumerate_subsets,
    form_basis,
    infinitesimal_pullback_coeffs,
    minor,
    pfaffian_2form,
    pullback,
    pullback_coeffs,
    pullback_matrix,
)
from .dualnum import Dual, derivative, value
from .conventions import (
    coeffs_to_em,
    coeffs_to_momentum,
    em_to_coeffs,
    euclidean_metric,
    minkowski_metric,
    momentum_to_coeffs,
)
from .models import (
    EMState,
    EvaluationDomainError,
    GasModel,
    GasState,
    LagrangianModel,
    LuminalStateError,
    MaxwellModel,
    RelativisticModel,
    RelativisticState,
    SingularGradientError,
    ad_gradient,
    build_model,
    finite_difference_gradient,
    list_models,
    model_from_expression,
    model_isotropic_p1,
    model_quadratic,
    model_relativistic_limit,
    model_relativistic_powerlaw,
    polytropic_energy,
    state_to_form,
    typed_state,
)
from .tensors import (
    TensorValue,
    assemble,
    assemble_gas,
    assemble_general,
    assemble_maxwell,
    assemble_nform,
    assemble_relativistic,
    symmetry_defect,
)
from .invariance import (
    LieAlgebraBasis,
    invariance_defect,
    invariant_quadratic_model,
    lie_basis,
    skew_basis,
    symmetry_defect_max,
    invariance_symmetry_check,
    trace_identity_residual,
)
from .fields import (
    FlowLeftGridError,
    GridField,
    JumpInterface,
    VariationField,
    bernoulli_check,
    closedness_residual,
    div_T_residual,
    divergence_pairing,
    entropy_transport_residual,
    first_variation,
    lightlike_normal_search,
    limit_jump_states,
    load_grid,
    load_grid_csv,
    mass_conservation_residual,
    observed_order,
    poynting_residual,
    rankine_hugoniot,
    save_grid,
    tensor_grid,
)
from .manufactured import (
    bump_variation,
    case_refinement,
    closed_trig_form,
    list_cases,
    run_case,
    variation_study,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
