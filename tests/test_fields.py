"""Grid verification layer: residuals, variations, jump interfaces."""
import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest

from divfree import (
    GridField,
    build_model,
    case_refinement,
    coeffs_to_em,
    coeffs_to_momentum,
    lightlike_normal_search,
    momentum_to_coeffs,
    save_grid,
    variation_study,
)
from divfree import fields
from divfree.fields import (
    FlowLeftGridError,
    VariationField,
    _family_residual,
    _interior,
    _left_state,
    _slabs,
    closedness_residual,
    div_T_residual,
    div_rows,
    divergence_pairing,
    euler_lagrange_rows,
    first_variation,
    load_grid,
    load_grid_csv,
    observed_order,
    poynting_residual,
    rankine_hugoniot,
    tensor_grid,
)
from divfree.manufactured import CASES, bump_variation, closed_trig_form, run_case, study_model
from divfree.models import GasState, RelativisticState
from divfree.tensors import general_tensor_array

from helpers import (IDENTITY_LADDERS, cd, div_rows_reference, euler_lagrange_identity,
                     euler_lagrange_rows_gather, family_residual_loop, limit_jump_states,
                     normal_search_reference, pullback_coeffs, random_slab_grids, same_bits,
                     slab_budget, slab_results)
from test_acceptance import VARIATION_COMBOS, VARIATION_LADDER, VARIATION_SEEDS

# the largest share of criterion 05's error, |numeric - pairing|, that
# doubling the flow's RK4 substeps may move its numeric side by
SUBSTEP_SHARE = 1e-3


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


def _three_level_ladder(kind):
    """(orders, the values they are read from) of a 3-level ladder."""
    if kind == "variation":
        study = variation_study(2, 1, seed=0, levels=3, n0=8)
        return study["orders"], [level["error"] for level in study["levels"]]
    study = case_refinement("closed-cubic", [8, 16, 32])
    return study["orders"], study["residuals"]


@pytest.mark.parametrize("kind", ("variation", "catalog"))
def test_three_level_orders_follow_from_the_reported_values(kind):
    # the second order reads the second and third levels, which a two-level
    # ladder never reaches
    orders, values = _three_level_ladder(kind)
    assert all(v > 0 for v in values)
    assert orders == [math.log2(values[k] / values[k + 1]) for k in range(2)]


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


def _constant_variation(dims, value):
    """xi = value at every node, with the analytic pair (value, 0)."""
    d = len(dims)

    def func_jac(Y):
        return np.full(Y.shape, value), np.zeros(Y.shape + (d,))

    return VariationField(dims, (1.0 / dims[0],) * d, (0.0,) * d, func_jac)


@pytest.mark.parametrize("spacing", DEGENERATE_SPACINGS)
def test_variation_rejects_a_degenerate_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        VariationField((8, 8), spacing, (0.0, 0.0), _constant_variation((8, 8), 0.0).func_jac)
    with pytest.raises(ValueError, match="spacing"):
        bump_variation(2, (8, 8), spacing, seed=0)


@pytest.mark.parametrize("frame", ({"spacing": (0.125,)}, {"origin": (0.0, 0.0, 5.0)}))
def test_grids_and_variations_need_d_entries_per_axis(frame):
    frame = {"dims": (8, 8), "spacing": (0.125, 0.125), "origin": (0.0, 0.0), **frame}
    with pytest.raises(ValueError, match="must each have d entries"):
        GridField(2, 1, values=np.zeros((8, 8, 2)), **frame)
    with pytest.raises(ValueError, match="must each have d entries"):
        VariationField(func_jac=_constant_variation((8, 8), 0.0).func_jac, **frame)


@pytest.mark.parametrize("spacing", DEGENERATE_SPACINGS)
def test_grid_from_function_checks_the_spacing_before_sampling(spacing):
    def fn(Y):
        raise AssertionError("sampled on a degenerate grid")

    with pytest.raises(ValueError, match="spacing"):
        GridField.from_function(fn, 2, 1, (4, 4), spacing)


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


@pytest.mark.parametrize("d, p, dims", ((2, 1, (9, 13)), (3, 2, (6, 7, 8)),
                                        (4, 2, (4, 5, 6, 7))))
def test_div_rows_are_the_per_term_sums_bit_for_bit(d, p, dims):
    model = study_model(d, p, seed=0)
    grid = GridField.from_function(closed_trig_form(d, p, seed=101), d, p, dims,
                                   (0.125,) * d, entropy_fn=lambda Y: np.sin(Y[..., 0]))
    spacing = (0.1, 0.2, 0.3, 0.4)[:d]
    T = tensor_grid(model, grid)
    # row 0 is +0.0 below index 3 of each axis and -0.0 from it on, so at
    # node (2, .., 2) every difference is -0.0 - 0.0 and the row sums to +0.0
    T[..., 0, :] = 0.0
    for j in range(d):
        T[(slice(None),) * j + (slice(3, None), Ellipsis, 0, j)] = -0.0
    T[(1,) * d + (1, 1)] = np.nan
    # the component-major view tensor_grid returns, and cell-major memory
    for field in (T, np.ascontiguousarray(T)):
        rows = div_rows(field, spacing, d)
        assert same_bits(rows, div_rows_reference(field, spacing, d))
    assert rows[(1,) * d + (0,)] == 0.0 and not np.signbit(rows[(1,) * d + (0,)])
    assert np.isnan(rows[..., 1]).any() and not np.isnan(rows[..., 0]).any()
    grid.values[(1,) * d + (0,)] = np.nan
    assert np.isnan(div_T_residual(model, grid)).all()


# wave dims, gas dims, slab width in planes (None: the fixed budget) and the
# plane of a NaN cell as a function of (n0, width), or None
SLAB_CASES = {
    # interiors of 7 and 10 planes: slabs of 3, 3, 1 and 3, 3, 3, 1
    "ragged": ((9, 4, 3, 5), (12, 7), 3, None),
    "smallest": ((3, 3, 3, 3), (3, 3), 1, None),
    "single": ((10, 4, 5, 3), (40, 33), None, None),
    # plane 0 is read only as the first slab's lower halo
    "nan-edge-halo": ((9, 4, 3, 5), (12, 7), 3, lambda n0, w: 0),
    # plane w + 1 is the first slab's upper halo and the second slab's first plane
    "nan-shared-halo": ((9, 4, 3, 5), (12, 7), 3, lambda n0, w: w + 1),
    "nan-last-slab": ((9, 4, 3, 5), (12, 7), 3, lambda n0, w: n0 - 2),
}


@pytest.mark.parametrize("case", SLAB_CASES)
def test_slabbed_residuals_are_the_whole_grid_bits(monkeypatch, case):
    wave_dims, gas_dims, width, nan_plane = SLAB_CASES[case]
    for model, grid in random_slab_grids(wave_dims, gas_dims):
        n0 = grid.dims[0]
        if width is None:
            assert len(list(_slabs(grid))) == 1
        else:
            monkeypatch.setattr("divfree.fields._SLAB_BYTES", slab_budget(grid, width))
            assert len(list(_slabs(grid))) == -(-(n0 - 2) // width)
        if nan_plane is not None:
            # a cell interior to every other axis, so an axis-0 stencil reads it
            cell = (nan_plane(n0, width),) + (1,) * (grid.d - 1)
            grid.values[cell] = np.nan
            if grid.entropy is not None:
                grid.entropy[cell] = np.nan
        results = slab_results(model, grid)
        assert set(results) == ({"div_T", "closedness", "poynting"} if grid.d == 4
                                else {"div_T", "closedness", "transport"})
        for name, (slabbed, whole) in results.items():
            assert same_bits(slabbed, whole), name
            assert np.isnan(slabbed).any() == (nan_plane is not None), name


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


def test_mass_row_equals_the_closedness_residual():
    # d/dt rho + div q on the interior, from the momentum components
    g = _gas_momentum_grid(9)
    m = coeffs_to_momentum(g.values)
    mass = sum(cd(m[..., a], a, g.spacing[a], g.d) for a in range(g.d))
    assert float(np.abs(mass).max()) == closedness_residual(g)


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


@pytest.mark.parametrize("d", (2, 3, 4))
def test_bump_jacobian_matches_differences_of_its_values(d):
    a, b = 0.2, 0.75
    var = bump_variation(d, (10,) * d, (0.1,) * d, seed=202 + d, support=(a, b))
    rng = np.random.default_rng(d)
    inside = rng.uniform(a, b, (40, d))
    outside = rng.uniform(a, b, (40, d))
    outside[:20, 0] = rng.uniform(0.0, a, 20)
    outside[20:, d - 1] = rng.uniform(b, 1.0, 20)
    # one coordinate within 1e-3 of the seam, on either side of it
    seam = rng.uniform(a, b, (40, d))
    seam[:, 0] = np.where(np.arange(40) % 2, a, b) + rng.uniform(-1e-3, 1e-3, 40)
    Y = np.concatenate([inside, outside, seam])
    v, J = var.func_jac(Y)
    assert not np.any(v[40:80]) and not np.any(J[40:80])
    delta = 1e-5
    for j in range(d):
        step = np.zeros(d)
        step[j] = delta
        diff = (var.func_jac(Y + step)[0] - var.func_jac(Y - step)[0]) / (2 * delta)
        assert np.abs(J[..., j] - diff).max() <= 1e-6 * max(1.0, np.abs(J).max())


@pytest.mark.parametrize("d, n", ((2, 14), (3, 9), (4, 7)))
def test_bump_value_half_is_the_sampled_field(d, n):
    h = 1.0 / n
    var = bump_variation(d, (n,) * d, (h,) * d, seed=202)
    axes = [h * np.arange(n) for _ in range(d)]
    Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    v, _ = var.func_jac(Y)
    assert var.values.any()
    assert v.tobytes() == var.values.tobytes()


def _full_grid_first_variation(model, grid, var, eps):
    """Reference numeric derivative: the classical RK4 flow of every grid
    node in the flow's own substep count, with the functional summed over
    all of them."""
    substeps = fields._FLOW_SUBSTEPS
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


def _crossing_variation(bump):
    """(x0 - 1/2) times a bump: xi is 0 on the nodes of the plane x0 = 1/2,
    but its Jacobian there is the bump, not 0."""

    def func_jac(Y):
        v, J = bump.func_jac(Y)
        t = (Y[..., 0] - 0.5)[..., None]
        J = t[..., None] * J
        J[..., 0] += v
        return t * v, J

    return VariationField(bump.dims, bump.spacing, bump.origin, func_jac)


@pytest.mark.parametrize("d, p, n, crossing", ((2, 1, 16, False), (3, 2, 12, False),
                                               (4, 3, 8, False), (2, 1, 16, True)))
def test_first_variation_matches_the_full_grid_flow(d, p, n, crossing):
    h = 1.0 / n
    grid = GridField.from_function(
        closed_trig_form(d, p, seed=101), d, p, (n,) * d, (h,) * d,
        entropy_fn=lambda Y: 0.5 * np.sin(2 * np.pi * Y[..., 0]))
    var = bump_variation(d, (n,) * d, (h,) * d, seed=202,
                         support=(2 * h + 1e-12, 1.0 - 2 * h - 1e-12))
    if crossing:
        # nodes that only the Jacobian marks as moving must still be flowed
        var = _crossing_variation(var)
        v, J = var.value_and_jacobian(grid.coordinates())
        still = ~np.any(v != 0.0, axis=-1)
        assert np.any(still & np.any(J != 0.0, axis=(-2, -1)))
    model = study_model(d, p, seed=0)
    numeric, _ = first_variation(model, grid, var, eps=0.01)
    reference = _full_grid_first_variation(model, grid, var, eps=0.01)
    # the scale of the pairing's terms, sum |T_ij d_j xi_i| vol, bounds what
    # rounding can move in either sum
    T = _interior(tensor_grid(model, grid), d)
    scale = grid.cell_volume * sum(
        float(np.sum(np.abs(T[..., i, j] * cd(var.values[..., i], j, h, d))))
        for i in range(d) for j in range(d))
    assert abs(numeric - reference) <= 1e-12 * scale


def substep_share(d, p, seed):
    """The worst over the levels of criterion 05's (d, p, seed) study of
    |numeric(k) - numeric(2k)| / |numeric(2k) - pairing|, k the flow's RK4
    substep count: what halving the step moves against the error it sees."""
    k = fields._FLOW_SUBSTEPS
    n0, levels = VARIATION_LADDER[d]
    studies = []
    for substeps in (k, 2 * k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_FLOW_SUBSTEPS", substeps)
            studies.append(variation_study(d, p, seed=seed, levels=levels, n0=n0)["levels"])
    return max(abs(a["numeric"] - b["numeric"]) / b["error"] for a, b in zip(*studies))


@pytest.mark.parametrize("d, p", VARIATION_COMBOS)
def test_flow_substeps_move_the_first_variation_little(d, p):
    # the RK4 error over a flow of length eps in k steps is O(eps (eps/k)^4),
    # far below the O(eps^2 + h^2) the study measures; this bounds it
    assert max(substep_share(d, p, seed) for seed in VARIATION_SEEDS) <= SUBSTEP_SHARE


def test_a_still_variation_has_no_first_variation():
    var = _constant_variation((8, 8), 0.0)
    numeric, pairing = first_variation(build_model("iso-p1"), _gas_momentum_grid(8),
                                       var, eps=0.01)
    assert numeric == 0.0 and pairing == 0.0


def test_variation_derivative_refines_at_second_order():
    study = variation_study(2, 1, seed=0, levels=2, n0=16)
    errs = [lv["error"] for lv in study["levels"]]
    assert errs[1] < errs[0]
    assert study["orders"][0] > 1.9


@pytest.mark.parametrize("kwargs, name", (
    ({"eps0": 0.0}, "eps0"), ({"eps0": float("nan")}, "eps0"),
    ({"eps0": float("inf")}, "eps0"), ({"n0": 0}, "n0"), ({"n0": 5}, "n0"),
    ({"d": 0, "p": 0}, "d"), ({"p": 0}, "p"), ({"p": 3}, "p"),
))
def test_variation_study_rejects_vacuous_input(kwargs, name):
    args = {"d": 2, "p": 1, "levels": 2, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} must"):
        variation_study(**args)


def test_variation_validation():
    iso = build_model("iso-p1")
    g = _gas_momentum_grid(8)
    small = bump_variation(2, (6, 6), (1.0 / 6, 1.0 / 6), seed=0,
                           support=(0.34, 0.66))
    with pytest.raises(ValueError):
        first_variation(iso, g, small, eps=0.01)
    with pytest.raises(ValueError, match="margin"):
        _constant_variation((8, 8), 1.0).values


@pytest.mark.parametrize("check", (partial(first_variation, eps=0.01), divergence_pairing))
def test_a_variation_off_its_margin_fails_before_any_flow(monkeypatch, check):
    def no_flow(*args):
        raise AssertionError("flowed a variation that breaks its margin")

    monkeypatch.setattr(fields, "_flow_with_jacobian", no_flow)
    monkeypatch.setattr(fields, "tensor_grid", no_flow)
    with pytest.raises(ValueError, match="margin"):
        check(build_model("iso-p1"), _gas_momentum_grid(8), _constant_variation((8, 8), 1.0))


def test_a_variation_samples_its_grid_once():
    # values, moving, the flows and both pairings share one pass over the
    # nodes; every other call of the analytic pair is a flow stage on the
    # moving nodes
    n = 16
    grid = GridField.from_function(closed_trig_form(2, 1, seed=101), 2, 1, (n, n), (1 / n, 1 / n))
    bump = bump_variation(2, (n, n), grid.spacing, seed=202)
    points = []

    def func_jac(Y):
        points.append(math.prod(Y.shape[:-1]))
        return bump.func_jac(Y)

    var = VariationField(bump.dims, bump.spacing, bump.origin, func_jac)
    model = study_model(2, 1, seed=0)
    moving = int(np.count_nonzero(var.moving))
    assert var.values.shape == (n, n, 2) and points == [n * n]
    first_variation(model, grid, var, eps=0.01)
    divergence_pairing(model, grid, var)
    assert 0 < moving < n * n
    assert points[0] == n * n and set(points[1:]) == {moving}
    assert len(points) == 1 + 2 * 4 * fields._FLOW_SUBSTEPS
    # on a grid of more than one block of nodes, the blocks sample every
    # node once and give the bytes of one whole-grid call
    n = 32
    bump = bump_variation(3, (n,) * 3, (1 / n,) * 3, seed=202)
    sampled = []

    def func_jac(Y):
        sampled.append(Y.copy())
        return bump.func_jac(Y)

    var = VariationField(bump.dims, bump.spacing, bump.origin, func_jac)
    nodes = fields._node_coordinates(bump.dims, bump.spacing, bump.origin)
    whole, J = bump.func_jac(nodes)
    assert var.values.tobytes() == whole.tobytes()
    assert np.array_equal(var.moving, np.any(whole != 0.0, axis=-1)
                          | np.any(J != 0.0, axis=(-2, -1)))
    assert len(sampled) > 1 and max(len(Y) for Y in sampled) <= fields._BLOCK_NODES
    assert np.concatenate(sampled).tobytes() == nodes.reshape(-1, 3).tobytes()


@pytest.mark.parametrize("det", (0.0, -1.0, np.nan))
def test_first_variation_refuses_a_flow_map_that_does_not_keep_orientation(monkeypatch, det):
    # det G scales its first row; a flow map's det G is positive
    grid = GridField.from_function(closed_trig_form(2, 1, seed=101), 2, 1, (16, 16),
                                   (1 / 16, 1 / 16))
    var = bump_variation(2, (16, 16), grid.spacing, seed=202)

    def flow(var, Y, tau):
        G = np.broadcast_to(np.eye(2), Y.shape[:-1] + (2, 2)).copy()
        G[..., 0, :] *= det
        return Y, G

    monkeypatch.setattr(fields, "_flow_with_jacobian", flow)
    with pytest.raises(ValueError, match="det G"):
        first_variation(study_model(2, 1, seed=0), grid, var, eps=0.01)


@pytest.mark.parametrize("moved", ({"spacing": (0.1, 0.1)}, {"origin": (0.0, 0.125)}))
def test_first_variation_needs_the_fields_own_grid(moved):
    # equal dims are not enough: the pairing reads xi on the field's nodes
    iso = build_model("iso-p1")
    g = _gas_momentum_grid(8)
    var = dataclasses.replace(bump_variation(2, (8, 8), g.spacing, seed=0), **moved)
    with pytest.raises(ValueError, match="spacing and origin"):
        first_variation(iso, g, var, eps=0.01)


def test_divergence_pairing_needs_the_fields_own_grid():
    # a bump at twice the field's spacing would pair xi at the wrong nodes
    iso = build_model("iso-p1")
    g = GridField.from_function(closed_trig_form(2, 1, 101), 2, 1, (16, 16), (1 / 16, 1 / 16))
    var = bump_variation(2, (16, 16), (2 / 16, 2 / 16), seed=0)
    with pytest.raises(ValueError, match="spacing and origin"):
        divergence_pairing(iso, g, var)


def test_unconfined_variation_flows_off_the_grid():
    iso = build_model("iso-p1")
    g = _gas_momentum_grid(8)
    var = bump_variation(2, (8, 8), g.spacing, seed=0)
    with pytest.raises(FlowLeftGridError):
        first_variation(iso, g, var, eps=10.0)


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


def test_uniform_flow_has_no_euler_lagrange_residual():
    rep = run_case("potential-flow-uniform", 8)
    assert rep["rows"] == [0.0] and rep["residual"] == 0.0


def test_potential_flow_euler_lagrange_residual_refines():
    rep = case_refinement("potential-flow-unsteady", (8, 16, 32))
    assert min(rep["orders"]) >= 1.9


def test_euler_lagrange_rows_need_interior_nodes():
    model, grid = CASES["potential-flow-uniform"].build(8)
    small = dataclasses.replace(grid, dims=(2, 8), values=grid.values[:2])
    with pytest.raises(ValueError, match="at least 3 nodes"):
        euler_lagrange_rows(model, small)


@pytest.mark.parametrize("case", ("potential-flow-unsteady", "gas-pressure-imbalance"))
def test_momentum_euler_lagrange_rows_are_the_curl_of_dL_dm(case):
    # p = d - 1 in d = 2: div G is the (t, x) curl of dL/dm, Bernoulli's
    # law in differential form, on a solution or not
    model, grid = CASES[case].build(16)
    w = model.m_gradient(coeffs_to_momentum(grid.values), 0.0)
    curl = cd(w[..., 0], 1, grid.spacing[1], 2) - cd(w[..., 1], 0, grid.spacing[0], 2)
    rows = euler_lagrange_rows(model, grid)
    assert rows.shape == curl.shape + (1,)
    assert np.array_equal(rows[..., 0], curl)


def test_maxwell_euler_lagrange_rows_are_gauss_and_ampere():
    # p = 2 in d = 4: div G is (div D, curl H - d_t D), the electric half of
    # Maxwell's equations; unlike p = 1 rows, these read negative table signs
    model, grid = random_slab_grids((6, 5, 4, 5), (3, 3))[0]
    D, H = model.material(*coeffs_to_em(grid.values), 0.0)

    def dk(f, k, axis):
        return cd(f[..., k], axis, grid.spacing[axis], 4)

    want = [dk(D, 0, 1) + dk(D, 1, 2) + dk(D, 2, 3),
            -dk(D, 0, 0) + dk(H, 2, 2) - dk(H, 1, 3),
            -dk(D, 1, 0) - dk(H, 2, 1) + dk(H, 0, 3),
            -dk(D, 2, 0) + dk(H, 1, 1) - dk(H, 0, 2)]
    assert np.array_equal(euler_lagrange_rows(model, grid), np.stack(want, axis=-1))


@pytest.mark.parametrize("d,p", [(d, p) for d in (2, 3, 4) for p in range(1, d + 1)])
def test_euler_lagrange_rows_are_the_gather_bits(d, p):
    # random coefficients and entropy on the study model, which reads s, and
    # one NaN coefficient: only the gather's zero terms are left out
    rng = np.random.default_rng(10 * d + p)
    dims = (7, 6, 5, 4)[:d]
    grid = GridField(d, p, dims, rng.uniform(0.1, 0.5, d), (0.0,) * d,
                     rng.standard_normal(dims + (math.comb(d, p),)), rng.standard_normal(dims))
    grid.values[(2,) * d + (0,)] = np.nan
    model = study_model(d, p, 0)
    rows = euler_lagrange_rows(model, grid)
    assert np.isnan(rows).any() and not np.isnan(rows).all()
    assert same_bits(rows, euler_lagrange_rows_gather(model, grid))


@pytest.mark.parametrize("d,p", sorted(IDENTITY_LADDERS))
def test_div_T_is_minus_A_dot_div_G_off_shell(d, p):
    # on a closed field that solves nothing, at constant s, Div T and
    # -A . div G differ by O(h^2) while Div T stays O(1)
    orders, div_T = euler_lagrange_identity(d, p)
    assert min(orders) >= 1.9
    assert min(div_T) >= 0.1


def test_static_pressure_jump_report():
    gas = build_model("gas")
    rep = rankine_hugoniot(gas, GasState(rho=1.0, q=[0.0]), GasState(rho=2.0, q=[0.0]),
                           [0.0, 2.0])
    assert np.abs(rep["nu"] - np.array([0.0, 1.0])).max() == 0.0
    # only the pressure row jumps: [p] = 2^2/2 - 1^2/2
    assert np.abs(rep["row_residuals"] - np.array([0.0, 1.5])).max() < 1e-14
    assert rep["m_nu_jump"] == 0.0
    assert "metric_quadratic" not in rep  # gas carries no metric hint


def test_zero_normal_is_rejected():
    state = GasState(rho=1.0, q=[0.0])
    with pytest.raises(ValueError, match="nonzero"):
        rankine_hugoniot(build_model("gas"), state, state, [0.0, 0.0])


@pytest.mark.parametrize("nu", ([np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0, 0.0], [[0.0, 1.0]],
                                [[0.0], [1.0, 2.0]], {"x": 1.0}, "01", None))
def test_a_normal_must_be_d_finite_numbers(nu):
    state = GasState(rho=1.0, q=[0.0])
    with pytest.raises(ValueError, match="normal must be 2 finite numbers"):
        rankine_hugoniot(build_model("gas"), state, state, nu)


def test_limit_family_satisfies_the_jump_conditions_on_the_cone():
    lim = build_model("relativistic-limit")
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    nu = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    for lam in (0.3, -0.5, 1.0):
        m_right = limit_jump_states(lim, m_left, nu, lam)
        rep = rankine_hugoniot(lim, RelativisticState(m=m_left),
                               RelativisticState(m=m_right), nu)
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
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    best = _family_residual(lim, np.array([[1.0, 0.2, 0.0, 0.0]]), m_left, 0.05,
                            _left_state(lim, m_left))
    assert best[0] > 1e-3


@pytest.mark.parametrize("name", ("relativistic-limit", "relativistic"))
def test_batched_objective_is_the_per_direction_loop_bit_for_bit(name):
    model = build_model(name)
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    rng = np.random.default_rng(3)
    # light-like, timelike and spacelike normals, some not of unit length
    nus = np.vstack([[1.0, 1.0, 0.0, 0.0], [1.0, 0.2, 0.0, 0.0],
                     [0.2, 1.0, 0.0, 0.0], [3.0, 3.0, 0.0, 0.0],
                     rng.normal(size=(6, 4))])
    left = _left_state(model, m_left)
    batch = _family_residual(model, nus, m_left, 0.05, left)
    assert batch.shape == (len(nus),)
    one_by_one = [_family_residual(model, nu[None], m_left, 0.05, left)[0] for nu in nus]
    assert batch.tobytes() == np.array(one_by_one).tobytes()
    reference = [family_residual_loop(model, nu, m_left, 0.05) for nu in nus]
    assert batch.tobytes() == np.array(reference).tobytes()
    if name == "relativistic-limit":
        assert batch[0] < 1e-10 and batch[1] > 1e-3


def test_batched_objective_scores_a_normal_without_candidates_inf():
    lim = build_model("relativistic-limit")
    nus = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.2, 0.0, 0.0]])
    # no step of length <= 1 changes the density by 100
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    best = _family_residual(lim, nus, m_left, 100.0, _left_state(lim, m_left))
    assert best.shape == (2,) and np.isinf(best).all()


def test_normal_search_scans_in_batches_with_the_same_result(monkeypatch):
    lim = build_model("relativistic-limit")
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    whole = lightlike_normal_search(lim, m_left, coarse=41)
    monkeypatch.setattr("divfree.fields._SCAN_BATCH", 7)
    split = lightlike_normal_search(lim, m_left, coarse=41)
    assert whole["theta"] == split["theta"] and whole["residual"] == split["residual"]


def test_a_one_angle_scan_is_not_refined(monkeypatch):
    lim = build_model("relativistic-limit")
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    objective = _family_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr("divfree.fields._family_residual", counted)
    found = lightlike_normal_search(lim, m_left, coarse=1)
    # the coarse batch alone, scored against the search's own left state
    assert len(calls) == 1
    rho_L, T_L = calls[0][4]
    assert rho_L == lim.rho_of(m_left)
    assert T_L.tobytes() == general_tensor_array(lim, momentum_to_coeffs(m_left[None, :])).tobytes()
    # what the golden section of the empty bracket a = b = 1e-3 returned,
    # against a left state built again for the check
    nu = np.array([math.cos(1e-3), math.sin(1e-3), 0.0, 0.0])
    assert found["theta"] == 1e-3 and found["nu"].tobytes() == nu.tobytes()
    assert found["residual"] == objective(lim, nu[None], m_left, 0.05,
                                          _left_state(lim, m_left))[0]


SEARCH_LEFT_STATES = ([2.0, 0.3, -0.1, 0.2], [1.7, -0.2, 0.35, 0.1],
                      [2.6, 0.4, 0.0, -0.3], [3.0, -0.4, -0.4, 0.4])


@pytest.mark.parametrize("name", ("relativistic-limit", "relativistic"))
def test_normal_search_is_the_unmemoised_loop_bit_for_bit(name):
    model = build_model(name)
    for m_left in map(np.array, SEARCH_LEFT_STATES):
        found = lightlike_normal_search(model, m_left)
        theta, residual, nu, _ = normal_search_reference(model, m_left)
        assert found["theta"] == theta and found["residual"] == residual
        assert found["nu"].tobytes() == nu.tobytes()


def test_normal_search_scores_each_angle_once_on_one_left_state(monkeypatch):
    lim = build_model("relativistic-limit")
    references = [normal_search_reference(lim, np.array(m))[3] for m in SEARCH_LEFT_STATES]
    objective, tensor, cos = _family_residual, general_tensor_array, math.cos
    angles, calls, tensor_calls = [], [], []

    # angles one ulp apart can give the same normal, so the angles of a call
    # are read off the cosines taken since the last call: one per normal
    def recorded_cos(theta):
        angles.append(theta)
        return cos(theta)

    def counted(model, nu, *rest):
        calls.append(angles[len(angles) - len(np.atleast_2d(nu)):])
        angles.clear()
        return objective(model, nu, *rest)

    def counted_tensor(*args):
        tensor_calls.append(None)
        return tensor(*args)

    monkeypatch.setattr(math, "cos", recorded_cos)
    monkeypatch.setattr("divfree.fields._family_residual", counted)
    monkeypatch.setattr("divfree.fields.general_tensor_array", counted_tensor)
    repeats = 0
    for m_left, refined in zip(map(np.array, SEARCH_LEFT_STATES), references):
        calls.clear()
        tensor_calls.clear()
        lightlike_normal_search(lim, m_left)
        # every refine angle of the reference and no angle twice, counting
        # the coarse batch; after it, at most three angles per call and
        # about two golden-section steps per call
        scored = [theta for call in calls for theta in call]
        assert set(refined) <= set(scored)
        assert len(scored) == len(set(scored))
        assert all(1 <= len(call) <= 3 for call in calls[1:])
        assert len(calls) - 1 <= len(set(refined)) / 2 + 2
        # one tensor call per objective call for the candidates, one for the
        # left state
        assert len(tensor_calls) == len(calls) + 1
        repeats += len(refined) - len(set(refined))
    # the golden section does revisit angles, so the memo is exercised
    assert repeats > 0


@pytest.mark.parametrize("m_left, kwargs", (
    ([np.nan, 0.3, -0.1, 0.2], {}),
    ([2.0, np.inf, -0.1, 0.2], {}),
    ([2.0, 0.3, -0.1], {}),
    ([[2.0, 0.3, -0.1, 0.2]], {}),
    ([2.0, 0.3, -0.1, 0.2], {"coarse": 0}),
    ([2.0, 0.3, -0.1, 0.2], {"rho_jump_min": np.nan}),
    ([2.0, 0.3, -0.1, 0.2], {"rho_jump_min": -0.05}),
))
def test_normal_search_rejects_bad_input(m_left, kwargs):
    with pytest.raises(ValueError):
        lightlike_normal_search(build_model("relativistic-limit"), m_left, **kwargs)
