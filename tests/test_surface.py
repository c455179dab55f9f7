"""The package's top-level names: what the README and the benchmark use."""
import types

import divfree

PUBLIC = {
    "GasState", "GridField", "ad_gradient", "assemble", "assemble_gas",
    "assemble_general", "assemble_maxwell", "assemble_nform",
    "assemble_relativistic", "build_model", "case_refinement", "coeffs_to_em",
    "coeffs_to_momentum", "em_to_coeffs", "euclidean_metric",
    "finite_difference_gradient", "invariance_symmetry_check",
    "lightlike_normal_search", "minkowski_metric", "momentum_to_coeffs",
    "save_grid", "variation_study",
}


def test_public_surface_is_the_documented_names():
    # everything else is reached through its submodule
    names = {name for name in divfree.__all__
             if not isinstance(getattr(divfree, name), types.ModuleType)}
    assert names == PUBLIC
