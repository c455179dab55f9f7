"""Grid verification layer: residuals, variations, jump interfaces."""
import json
import math

import numpy as np
import pytest

from divfree import (
    FlowLeftGridError,
    GridField,
    JumpInterface,
    VariationField,
    bernoulli_check,
    build_model,
    bump_variation,
    case_refinement,
    closed_trig_form,
    closedness_residual,
    coeffs_to_momentum,
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
    run_case,
    save_grid,
    tensor_grid,
    variation_study,
)
from divfree.exterior import pullback_coeffs
from divfree.fields import _cd, _family_residual, _interior
from divfree.manufactured import CASES, study_model
from divfree.models import GasState, RelativisticState


def _gas_momentum_grid(n):
    def fn(Y):
        rho = 1.2 + 0.3 * np.sin(2 * np.pi * Y[..., 0]) * np.cos(2 * np.pi * Y[..., 1])
        q = 0.4 + 0.2 * np.cos(2 * np.pi * Y[..., 0])
        return np.stack([-q, rho], axis=-1)  # coefficient slots of (rho, q)

    return GridField.from_function(fn, d=2, p=1, dims=(n, n),
                                   spacing=(1.0 / n, 1.0 / n))


def test_observed_order_is_a_log_ratio():
    assert observed_order(4.0, 1.0) == 2.0
    assert observed_order(1.0, 1.0) == 0.0


def test_grid_construction_and_coordinates():
    g = _gas_momentum_grid(6)
    assert g.values.shape == (6, 6, 2)
    assert g.n_coeffs == 2
    assert abs(g.cell_volume - (1.0 / 36.0)) < 1e-15
    Y = g.coordinates()
    assert Y.shape == (6, 6, 2)
    assert Y[2, 3, 0] == 2.0 / 6.0 and Y[2, 3, 1] == 3.0 / 6.0


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridField(2, 1, (4, 4), (0.1, 0.1), (0.0, 0.0), np.zeros((4, 4, 3)))
    with pytest.raises(ValueError):
        GridField(2, 1, (4, 4), (0.1, 0.1), (0.0, 0.0), np.zeros((4, 4, 2)),
                  entropy=np.zeros((4, 3)))


DEGENERATE_SPACINGS = ((0.1, 0.0), (-0.1, 0.1), (0.1, np.nan), (np.inf, 0.1))


@pytest.mark.parametrize("spacing", DEGENERATE_SPACINGS)
def test_grid_rejects_a_degenerate_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        GridField(2, 1, (4, 4), spacing, (0.0, 0.0), np.zeros((4, 4, 2)))


@pytest.mark.parametrize("spacing", DEGENERATE_SPACINGS)
def test_variation_rejects_a_degenerate_spacing(spacing):
    values = np.zeros((8, 8, 2))
    values[3:5, 3:5] = 1.0
    with pytest.raises(ValueError, match="spacing"):
        VariationField((8, 8), spacing, (0.0, 0.0), values)


def test_save_load_round_trip(tmp_path):
    def entropy(Y):
        return 0.1 + Y[..., 0]

    g = GridField.from_function(
        lambda Y: np.stack([np.sin(Y[..., 0]), Y[..., 1] ** 2], axis=-1),
        d=2, p=1, dims=(5, 7), spacing=(0.25, 0.125), origin=(0.5, -1.0),
        entropy_fn=entropy)
    path = tmp_path / "field.json"
    save_grid(g, path)
    manifest = json.loads(path.read_text())
    assert manifest["component_order"] == ["0", "1"]
    assert manifest["has_entropy"] is True
    back = load_grid(path)
    assert back.d == g.d and back.p == g.p and back.dims == g.dims
    assert back.spacing == g.spacing and back.origin == g.origin
    assert np.abs(back.values - g.values).max() == 0.0
    assert np.abs(back.entropy - g.entropy).max() == 0.0


def test_load_rejects_truncated_payload(tmp_path):
    g = _gas_momentum_grid(4)
    path = tmp_path / "field.json"
    save_grid(g, path)
    blob = (tmp_path / "field.bin").read_bytes()
    (tmp_path / "field.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_grid(path)


def test_csv_import_places_rows_by_index(tmp_path):
    g = _gas_momentum_grid(3)
    lines = ["i0,i1,A_0,A_1,s"]
    order = [(i, j) for i in range(3) for j in range(3)]
    order.reverse()  # placement must follow the indices, not the file order
    for i, j in order:
        lines.append(f"{i},{j},{float(g.values[i, j, 0])!r},"
                     f"{float(g.values[i, j, 1])!r},0.2")
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    back = load_grid_csv(path, d=2, p=1, spacing=(1.0 / 3.0, 1.0 / 3.0))
    assert back.dims == (3, 3)
    assert np.abs(back.values - g.values).max() == 0.0
    assert np.abs(back.entropy - 0.2).max() == 0.0


def test_load_rejects_a_foreign_component_order(tmp_path):
    path = save_grid(_gas_momentum_grid(4), tmp_path / "field.json")
    manifest = json.loads(path.read_text())
    manifest["component_order"] = ["1", "0"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="component_order"):
        load_grid(path)


def test_load_keeps_the_data_file_next_to_the_manifest(tmp_path):
    inner = tmp_path / "grids"
    inner.mkdir()
    path = save_grid(_gas_momentum_grid(4), inner / "field.json")
    (inner / "field.bin").rename(tmp_path / "field.bin")
    manifest = json.loads(path.read_text())
    for data in ("../field.bin", str(tmp_path / "field.bin")):
        manifest["data"] = data
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="outside"):
            load_grid(path)


def _csv_4x4(tmp_path, drop=None, extra=()):
    lines = ["i0,i1,A_0,A_1"]
    lines += [f"{i},{j},{i}.5,{j}.5" for i in range(4) for j in range(4)
              if (i, j) != drop]
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines + list(extra)) + "\n")
    return path


def test_csv_import_rejects_a_missing_cell(tmp_path):
    assert load_grid_csv(_csv_4x4(tmp_path), 2, 1, (0.25, 0.25)).dims == (4, 4)
    with pytest.raises(ValueError, match=r"missing cell \(2, 2\)"):
        load_grid_csv(_csv_4x4(tmp_path, drop=(2, 2)), 2, 1, (0.25, 0.25))


def test_csv_import_rejects_a_duplicate_cell(tmp_path):
    with pytest.raises(ValueError, match=r"duplicate cell \(1, 1\)"):
        load_grid_csv(_csv_4x4(tmp_path, extra=["1,1,99,99"]), 2, 1, (0.25, 0.25))


def test_cubic_gradient_field_closes_at_exactly_h_squared():
    # the only central-difference error is on the cubed variable: D x^3 = 3 x^2 + h^2
    for n in (8, 16):
        rep = run_case("closed-cubic", n)
        assert rep["residual"] == (1.0 / n) ** 2


def test_low_mode_trig_forms_are_discretely_closed():
    # with wavenumbers in {-1, 0, 1} and equal spacing the discrete curl of an
    # exact form cancels identically, so only roundoff remains
    for d, p, seed in ((3, 1, 5), (4, 2, 5), (2, 1, 0)):
        fn = closed_trig_form(d, p, seed=seed)
        g = GridField.from_function(fn, d, p, (8,) * d, (0.125,) * d)
        assert closedness_residual(g) < 1e-12


def test_a_nan_cell_makes_the_residuals_nan():
    g = _gas_momentum_grid(8)
    assert g.nonfinite_cells() == 0
    g.values[4, 4, 0] = np.nan
    g.entropy = np.zeros((8, 8))
    g.entropy[2, 2] = np.inf
    assert g.nonfinite_cells() == 2
    assert math.isnan(closedness_residual(g))
    assert np.isnan(div_T_residual(build_model("gas"), g)).all()


def test_top_degree_forms_close_vacuously():
    g = GridField.from_function(lambda Y: np.ones(Y.shape[:-1] + (1,)),
                                d=2, p=2, dims=(4, 4), spacing=(0.25, 0.25))
    assert closedness_residual(g) == 0.0


def test_uniform_states_have_zero_divergence():
    assert run_case("uniform-gas", 5)["residual"] == 0.0
    assert run_case("uniform-relativistic", 5)["residual"] == 0.0


def test_plane_wave_divergence_refines_row_by_row():
    rep = case_refinement("maxwell-plane-wave", (8, 16))
    rows = [np.asarray(r["rows"]) for r in rep["reports"]]
    orders = np.log2(rows[0] / rows[1])
    assert orders.shape == (4,)
    assert orders.min() > 1.9


def test_poynting_row_matches_the_time_row():
    model, grid = CASES["maxwell-plane-wave"].build(8)
    div = div_T_residual(model, grid)
    poy = np.abs(np.asarray(poynting_residual(model, grid))).max()
    assert poy == div[0]  # same stencils, opposite sign


def test_prime_variant_carries_the_momentum_row():
    gas = build_model("gas")
    g = _gas_momentum_grid(7)
    Tp = tensor_grid(gas, g, variant="prime")
    m = coeffs_to_momentum(g.values)
    assert np.abs(Tp[..., 0, :] - m).max() == 0.0
    mx = build_model("maxwell-linear")
    wave = CASES["maxwell-plane-wave"].build(4)[1]
    with pytest.raises(ValueError):
        tensor_grid(mx, wave, variant="prime")


def test_mass_row_equals_the_closedness_residual():
    g = _gas_momentum_grid(9)
    assert mass_conservation_residual(g) == closedness_residual(g)


def test_discrete_summation_by_parts_is_exact():
    iso = build_model("iso-p1")
    g = GridField.from_function(
        lambda Y: np.stack([np.sin(2 * np.pi * Y[..., 0]),
                            np.cos(2 * np.pi * Y[..., 1])], axis=-1),
        d=2, p=1, dims=(14, 14), spacing=(1.0 / 14, 1.0 / 14))
    var = bump_variation(2, (14, 14), (1.0 / 14, 1.0 / 14), seed=0)
    _, pairing = first_variation(iso, g, var, eps=0.01)
    total = divergence_pairing(iso, g, var)
    assert abs(pairing - total) < 1e-13 * max(1.0, abs(total))


def _full_grid_first_variation(model, grid, var, eps, substeps=8):
    """Reference numeric derivative: the classical RK4 flow of every grid
    node, with the functional summed over all of them."""
    d = grid.d
    Y = grid.coordinates().reshape(-1, d)
    A = grid.values.reshape(-1, grid.n_coeffs)
    s = grid.entropy.reshape(-1) if grid.entropy is not None else 0.0

    def rhs(w, G):
        v, J = var.value_and_jacobian(w)
        return -v, -np.einsum("...ij,...jk->...ik", J, G)

    def functional(tau):
        w = Y.copy()
        G = np.broadcast_to(np.eye(d), Y.shape + (d,)).copy()
        h = tau / substeps
        for _ in range(substeps):
            k1 = rhs(w, G)
            k2 = rhs(w + 0.5 * h * k1[0], G + 0.5 * h * k1[1])
            k3 = rhs(w + 0.5 * h * k2[0], G + 0.5 * h * k2[1])
            k4 = rhs(w + h * k3[0], G + h * k3[1])
            w = w + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            G = G + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        B = pullback_coeffs(np.linalg.inv(G), A, d, grid.p)
        L = np.asarray(model.evaluate(B, s), dtype=float)
        return float(np.sum(L * np.linalg.det(G)) * grid.cell_volume)

    return (functional(eps) - functional(-eps)) / (2.0 * eps)


def _sampled_block_variation(d, n, seed):
    """Grid samples only, nonzero on a centred block: the difference
    Jacobian is also nonzero on the ring of nodes just outside it."""
    values = np.zeros((n,) * d + (d,))
    block = (slice(4, n - 4),) * d
    values[block] = np.random.default_rng(seed).uniform(-0.3, 0.3, (n - 8,) * d + (d,))
    return VariationField((n,) * d, (1.0 / n,) * d, (0.0,) * d, values)


@pytest.mark.parametrize("d, p, n, sampled", ((2, 1, 16, False), (3, 2, 12, False),
                                              (2, 1, 16, True)))
def test_first_variation_matches_the_full_grid_flow(d, p, n, sampled):
    h = 1.0 / n
    grid = GridField.from_function(
        closed_trig_form(d, p, seed=101), d, p, (n,) * d, (h,) * d,
        entropy_fn=lambda Y: 0.5 * np.sin(2 * np.pi * Y[..., 0]))
    if sampled:
        var = _sampled_block_variation(d, n, seed=3)
        v, J = var.value_and_jacobian(grid.coordinates())
        still = ~np.any(v != 0.0, axis=-1)
        assert np.any(still & np.any(J != 0.0, axis=(-2, -1)))
    else:
        var = bump_variation(d, (n,) * d, (h,) * d, seed=202,
                             support=(2 * h + 1e-12, 1.0 - 2 * h - 1e-12))
    model = study_model(d, p, seed=0)
    numeric, _ = first_variation(model, grid, var, eps=0.01)
    reference = _full_grid_first_variation(model, grid, var, eps=0.01)
    # the scale of the pairing's terms, sum |T_ij d_j xi_i| vol, bounds what
    # rounding can move in either sum
    T = _interior(tensor_grid(model, grid), d)
    scale = grid.cell_volume * sum(
        float(np.sum(np.abs(T[..., i, j] * _cd(var.values[..., i], j, h, d))))
        for i in range(d) for j in range(d))
    assert abs(numeric - reference) <= 1e-12 * scale


def test_a_still_variation_has_no_first_variation():
    var = VariationField((8, 8), (0.125, 0.125), (0.0, 0.0), np.zeros((8, 8, 2)))
    numeric, pairing = first_variation(build_model("iso-p1"), _gas_momentum_grid(8),
                                       var, eps=0.01)
    assert numeric == 0.0 and pairing == 0.0


def test_variation_derivative_refines_at_second_order():
    study = variation_study(2, 1, seed=0, levels=2, n0=16)
    errs = [lv["error"] for lv in study["levels"]]
    assert errs[1] < errs[0]
    assert study["orders"][0] > 1.9


def test_variation_validation():
    iso = build_model("iso-p1")
    g = _gas_momentum_grid(8)
    var = bump_variation(2, (8, 8), (1.0 / 8, 1.0 / 8), seed=0)
    with pytest.raises(ValueError):
        first_variation(iso, g, var, eps=0.01, substeps=4)
    small = bump_variation(2, (6, 6), (1.0 / 6, 1.0 / 6), seed=0,
                           support=(0.34, 0.66))
    with pytest.raises(ValueError):
        first_variation(iso, g, small, eps=0.01)
    with pytest.raises(ValueError):
        VariationField(dims=(8, 8), spacing=(1.0 / 8, 1.0 / 8),
                       origin=(0.0, 0.0), values=np.ones((8, 8, 2)))


def test_unconfined_variation_flows_off_the_grid():
    iso = build_model("iso-p1")
    g = _gas_momentum_grid(8)
    drift = VariationField(dims=(8, 8), spacing=(1.0 / 8, 1.0 / 8),
                           origin=(0.0, 0.0),
                           values=0.5 * np.ones((8, 8, 2)), margin=0)
    with pytest.raises(FlowLeftGridError):
        first_variation(iso, g, drift, eps=0.05)


def test_pressure_imbalance_stays_above_its_floor():
    # the catalog's one divergence counterexample: closed, but not a solution
    for n in (8, 16, 32):
        assert run_case("gas-pressure-imbalance", n)["residual"] >= 0.5


def test_entropy_advection_residual_refines():
    rep = case_refinement("advected-entropy", (8, 16))
    assert rep["orders"][0] > 1.9


def test_entropy_shear_residual_does_not_refine():
    for n in (8, 16):
        rep = run_case("entropy-shear", n)
        assert rep["residual"] == 1.0
        # nondegeneracy factor dp/ds = exp(s) / 2 across the interior band
        lo, hi = 1.0 / n, (n - 2.0) / n
        assert abs(rep["factor_min"] - np.exp(lo) / 2.0) < 1e-9
        assert abs(rep["factor_max"] - np.exp(hi) / 2.0) < 1e-9


def test_bernoulli_linear_flow_is_exact():
    rep = run_case("bernoulli-linear", 8)
    assert rep["curl_residual"] == 0.0
    assert rep["residual"] == 0.0


def test_bernoulli_trig_flow_refines():
    rep = case_refinement("bernoulli-trig", (8, 16))
    assert rep["orders"][0] > 1.9


def test_bernoulli_needs_a_wide_enough_grid():
    gas = build_model("gas")
    with pytest.raises(ValueError):
        bernoulli_check(gas, np.zeros((4, 4)), np.ones((4, 4)), (0.25, 0.25))


def test_static_pressure_jump_report():
    gas = build_model("gas")
    iface = JumpInterface(nu=[0.0, 2.0], left=GasState(rho=1.0, q=[0.0]),
                          right=GasState(rho=2.0, q=[0.0]))
    assert np.abs(iface.nu - np.array([0.0, 1.0])).max() == 0.0
    rep = rankine_hugoniot(gas, iface)
    # only the pressure row jumps: [p] = 2^2/2 - 1^2/2
    assert np.abs(rep["row_residuals"] - np.array([0.0, 1.5])).max() < 1e-14
    assert rep["m_nu_jump"] == 0.0
    assert "metric_quadratic" not in rep  # gas carries no metric hint


def test_zero_normal_is_rejected():
    with pytest.raises(ValueError):
        JumpInterface(nu=[0.0, 0.0], left=None, right=None)


def test_limit_family_satisfies_the_jump_conditions_on_the_cone():
    lim = build_model("relativistic-limit")
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    nu = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    for lam in (0.3, -0.5, 1.0):
        m_right = limit_jump_states(lim, m_left, nu, lam)
        rep = rankine_hugoniot(lim, JumpInterface(
            nu=nu, left=RelativisticState(m=m_left),
            right=RelativisticState(m=m_right)))
        assert np.abs(rep["row_residuals"]).max() < 1e-12
        assert abs(rep["m_nu_jump"]) < 1e-12
        assert abs(rep["metric_quadratic"]) < 1e-12
        assert abs(rep["rho_jump"]) > 0.05


def test_normal_search_lands_on_the_light_cone():
    lim = build_model("relativistic-limit")
    found = lightlike_normal_search(lim, np.array([2.0, 0.3, -0.1, 0.2]))
    assert abs(found["theta"] - np.pi / 4.0) < 1e-8
    assert found["residual"] < 1e-10
    assert abs(found["metric_quadratic"]) < 1e-8


def test_timelike_normals_keep_a_residual_floor():
    lim = build_model("relativistic-limit")
    lam_grid = np.concatenate([-np.geomspace(1e-2, 1.0, 24)[::-1],
                               np.geomspace(1e-2, 1.0, 24)])
    best = _family_residual(lim, np.array([1.0, 0.2, 0.0, 0.0]),
                            np.array([2.0, 0.3, -0.1, 0.2]), 0.05, lam_grid)
    assert best > 1e-3
