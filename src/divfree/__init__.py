"""Divergence-free tensors from densities of closed differential forms.

The library assembles, for a Lagrangian density over the coefficients of a
closed p-form, the rank-2 tensor whose rows are divergence free at critical
points; tests the equivalence between tensor symmetry and orthogonal-group
invariance of the density; and verifies the classical specializations (gas
dynamics, relativistic flow, electromagnetism) on sampled grids.
"""

from .conventions import (
    coeffs_to_em,
    coeffs_to_momentum,
    em_to_coeffs,
    euclidean_metric,
    minkowski_metric,
    momentum_to_coeffs,
)
from .models import GasState, ad_gradient, build_model, finite_difference_gradient
from .tensors import (
    assemble,
    assemble_gas,
    assemble_general,
    assemble_maxwell,
    assemble_nform,
    assemble_relativistic,
)
from .invariance import invariance_symmetry_check
from .fields import GridField, lightlike_normal_search, save_grid
from .manufactured import case_refinement, variation_study

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
