"""Tensor assembly: hand-checked blocks and agreement of the independent routes."""
import math

import numpy as np
import pytest

from divfree import (
    GridField,
    assemble,
    assemble_gas,
    assemble_general,
    assemble_maxwell,
    assemble_nform,
    assemble_relativistic,
    build_model,
    minkowski_metric,
)
from divfree.conventions import coeffs_to_momentum, momentum_to_coeffs
from divfree import tensors
from divfree.exterior import PFormValue, form_basis, hodge
from divfree.fields import tensor_grid
from divfree.manufactured import closed_trig_form, study_model
from divfree.models import EMState, GasState, LagrangianModel, RelativisticState, list_models
from divfree.tensors import (TensorValue, _assembly_table, _cross, general_tensor_array,
                             symmetry_defect)

from helpers import energy_density, rel_gap, same_bits, sampled_states, star, typed_state
from test_invariance import model_quadratic

GAS_WITNESS = GasState(rho=1.0, q=[1.0])
EM_WITNESS = EMState(E=[1.0, 0.0, 0.0], B=[0.0, 1.0, 0.0])


def test_gas_block_hand_values():
    gas = build_model("gas")
    T, Tp = assemble_gas(gas, GAS_WITNESS)
    assert np.abs(T.entries - np.array([[-1.0, -1.5], [1.0, 1.5]])).max() < 1e-14
    assert np.abs(Tp.entries - np.array([[1.0, 1.0], [1.0, 1.5]])).max() < 1e-14
    assert symmetry_defect(Tp.entries, np.eye(2)) == 0.0
    assert symmetry_defect(T.entries, np.eye(2)) == 2.5


def test_isotropic_tensor_hand_values():
    iso = build_model("iso-p1")
    tv = assemble_general(iso, np.array([3.0, 4.0]))
    want = 12.5 * np.eye(2) - np.outer([3.0, 4.0], [3.0, 4.0])
    assert np.abs(tv.entries - want).max() < 1e-13
    assert symmetry_defect(tv.entries, iso.metric_hint) < 1e-13  # euclidean


def test_maxwell_block_hand_values():
    mx = build_model("maxwell-linear")
    T, Tt = assemble_maxwell(mx, EM_WITNESS)
    want = np.zeros((4, 4))
    want[0, 0] = -1.0
    want[0, 3] = -1.0
    want[3, 0] = 1.0
    want[3, 3] = 1.0
    assert np.abs(T.entries - want).max() < 1e-14
    # diag(-1, 1, 1, 1) T is exactly symmetric for an invariant density
    assert np.abs(Tt.entries - Tt.entries.T).max() == 0.0


def test_anisotropic_corrected_tensor_defect():
    anis = build_model("maxwell-anisotropic")
    _, Tt = assemble_maxwell(anis, EM_WITNESS)
    assert symmetry_defect(Tt.entries, np.eye(4)) == 2.0


@pytest.mark.parametrize("name", ("gas", "gas-polytropic"))
def test_gas_routes_agree(name):
    model = build_model(name)
    A, s = sampled_states(model, 40, seed=11)
    T_gen = general_tensor_array(model, A, s)
    for k, st in enumerate(typed_state(model, a, sk) for a, sk in zip(A, s)):
        T_blk = assemble_gas(model, st)[0].entries
        T_nf = assemble_nform(model, st.m, st.s).entries
        assert rel_gap(T_blk, T_gen[k]) < 1e-12
        assert rel_gap(T_nf, T_gen[k]) < 1e-12


@pytest.mark.parametrize("name", ("relativistic", "relativistic-powerlaw",
                                  "relativistic-limit"))
def test_relativistic_routes_agree(name):
    model = build_model(name)
    A, s = sampled_states(model, 40, seed=12)
    T_gen = general_tensor_array(model, A, s)
    for k, st in enumerate(typed_state(model, a, sk) for a, sk in zip(A, s)):
        T_blk = assemble_relativistic(model, st)[0].entries
        T_nf = assemble_nform(model, st.m, st.s).entries
        assert rel_gap(T_blk, T_gen[k]) < 1e-12
        assert rel_gap(T_nf, T_gen[k]) < 1e-12


@pytest.mark.parametrize("name", ("maxwell-linear", "maxwell-lorentz",
                                  "maxwell-anisotropic"))
def test_maxwell_routes_agree(name):
    model = build_model(name)
    A, s = sampled_states(model, 40, seed=13)
    T_gen = general_tensor_array(model, A, s)
    for k, st in enumerate(typed_state(model, a, sk) for a, sk in zip(A, s)):
        T_blk = assemble_maxwell(model, st)[0].entries
        assert rel_gap(T_blk, T_gen[k]) < 1e-12


def test_relativistic_corrected_tensor_is_symmetric():
    rel = build_model("relativistic")
    A, s = sampled_states(rel, 25, seed=14)
    for st in (typed_state(rel, a, sk) for a, sk in zip(A, s)):
        _, Tp = assemble_relativistic(rel, st)
        assert np.abs(Tp.entries - Tp.entries.T).max() < 1e-12 * max(
            1.0, np.abs(Tp.entries).max())


@pytest.mark.parametrize("kappa", (1.1, 4.0 / 3.0, 1.9))
def test_corrected_trace_tracks_the_exponent(kappa):
    # Tr(T' Lam) = (3 kappa - 4) e c^2; zero exactly in the ultra case
    mdl = build_model("relativistic-powerlaw", {"kappa": kappa})
    st = RelativisticState(m=[2.0, 0.3, -0.1, 0.2])
    _, Tp = assemble_relativistic(mdl, st)
    rho = mdl.rho_of(st.m)
    e = energy_density(mdl, rho, 0.0)
    tr = np.trace(Tp.entries @ mdl.Lam)
    assert abs(tr - (3.0 * kappa - 4.0) * e * mdl.c ** 2) < 1e-12 * max(1.0, abs(tr))


def test_dispatch_selects_the_block_route():
    gas = build_model("gas")
    assert np.abs(assemble(gas, GAS_WITNESS)["tensor"]
                  - assemble_gas(gas, GAS_WITNESS)[0].entries).max() == 0.0
    mx = build_model("maxwell-linear")
    assert np.abs(assemble(mx, EM_WITNESS)["tensor"]
                  - assemble_maxwell(mx, EM_WITNESS)[0].entries).max() == 0.0
    rel = build_model("relativistic")
    st = RelativisticState(m=[2.0, 0.3, -0.1, 0.2])
    assert np.abs(assemble(rel, st)["tensor"]
                  - assemble_relativistic(rel, st)[0].entries).max() == 0.0


def test_assemble_returns_the_report_fields():
    assert set(assemble(build_model("gas"), GAS_WITNESS)) == {"tensor", "tensor_prime", "pressure"}
    rel = build_model("relativistic")
    assert set(assemble(rel, RelativisticState(m=[2.0, 0.3, -0.1, 0.2]))) == {
        "tensor", "tensor_prime", "pressure"}
    assert set(assemble(build_model("maxwell-linear"), EM_WITNESS)) == {"tensor", "tensor_tilde"}
    assert set(assemble(build_model("iso-p1"), PFormValue(2, 1, [3.0, 4.0]))) == {"tensor"}


def test_block_forms_refuse_a_model_of_another_family():
    gas = build_model("gas")
    rel = build_model("relativistic")
    with pytest.raises(TypeError):
        assemble_maxwell(gas, EM_WITNESS)
    with pytest.raises(TypeError):
        assemble(gas, EM_WITNESS)
    with pytest.raises(TypeError):
        assemble_gas(rel, GAS_WITNESS)
    with pytest.raises(TypeError):
        assemble_relativistic(build_model("maxwell-linear"),
                              RelativisticState(m=[2.0, 0.3, -0.1, 0.2]))
    with pytest.raises(TypeError):
        assemble_gas(gas, EM_WITNESS)


def test_gas_block_form_refuses_a_q_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 1"):
        assemble(build_model("gas"), GasState(rho=1.0, q=[1.0, 2.0]))
    with pytest.raises(ValueError, match="length 3"):
        assemble_gas(build_model("gas-polytropic"), GasState(rho=1.0, q=[1.0]))


def test_nform_route_requires_codimension_one():
    mx = build_model("maxwell-linear")  # p = 2 in d = 4
    with pytest.raises(ValueError):
        assemble_nform(mx, np.zeros(4))


def test_batched_assembly_matches_the_loop():
    gas = build_model("gas-polytropic")
    A, s = sampled_states(gas, 17, seed=15)
    batch = general_tensor_array(gas, A, s)
    assert batch.shape == (17, 4, 4)
    for k in range(17):
        single = general_tensor_array(gas, A[k], float(s[k]))
        assert np.abs(batch[k] - single).max() < 1e-14


def _cell_major_tensor_array(model, A, s=0.0):
    """Reference assembly: the cell-major loop over (i, j) that
    general_tensor_array restates component-major, kept to pin it bitwise."""
    A = np.asarray(A, dtype=float)
    L = np.asarray(model.evaluate(A, s), dtype=float)
    G = model.gradient(A, s)
    d = model.d
    T = np.zeros(L.shape + (d, d))
    table = _assembly_table(d, model.p)
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for slot_i, slot_j, sign in table[(i, j)]:
                acc = acc + sign * A[..., slot_i] * G[..., slot_j]
            T[..., i, j] = (L if i == j else 0.0) - acc
    return T


USER_EXPR = {"expr": "A0^2/2 + s*A1 + exp(-A1^2)", "d": 2, "p": 1}


@pytest.mark.parametrize("name", [m["name"] for m in list_models()])
def test_assembly_is_the_cell_major_loop_bit_for_bit(name, monkeypatch):
    model = build_model(name, USER_EXPR if name == "user-expr" else None)
    A, s = sampled_states(model, 23, seed=16)
    A[9, 0] = np.nan  # a NaN cell stays a NaN tensor, in whichever block
    grid, s_grid = A[:21].reshape(3, 7, -1), s[:21].reshape(3, 7)
    for block in (tensors._BLOCK_NODES, 4):
        monkeypatch.setattr(tensors, "_BLOCK_NODES", block)
        # with blocks of 4: empty, below one block, exactly one, one plus
        # one node, and several with a ragged tail; per-node and scalar s
        for n in (0, 3, 4, 5, 23):
            for s_n in (s[:n], 0.25):
                assert same_bits(general_tensor_array(model, A[:n], s_n),
                                 _cell_major_tensor_array(model, A[:n], s_n))
        # a multi-axis grid batch, whose blocks cross its rows
        assert same_bits(general_tensor_array(model, grid, s_grid),
                         _cell_major_tensor_array(model, grid, s_grid))
        # one state: L is 0-d and every row of the component-major buffer a scalar
        one = general_tensor_array(model, A[0], float(s[0]))
        assert one.shape == (model.d, model.d)
        assert same_bits(one, _cell_major_tensor_array(model, A[0], float(s[0])))
        # an empty batch still reaches the model, which checks its width
        with pytest.raises(ValueError, match="coefficients"):
            general_tensor_array(model, np.zeros((0, model.n_coeffs + 1)))


def test_assembly_keeps_the_signs_of_zero_products():
    mx = build_model("maxwell-linear")
    A = np.array([[0.0, -0.0, 0.5, 0.0, -1.0, 0.0], [0.0] * 6])
    assert same_bits(general_tensor_array(mx, A), _cell_major_tensor_array(mx, A))
    # L = -0.0 and dL/dA = -0.0 at A = 0: the loop's 0.0 + A G turns the first
    # -0.0 product into +0.0, and L - 0.0 then keeps the diagonal at -0.0
    neg = LagrangianModel("neg-iso", 2, 1, lambda c, s: -0.5 * (c[0] * c[0] + c[1] * c[1]))
    zero = np.zeros((3, 2))
    assert same_bits(general_tensor_array(neg, zero), _cell_major_tensor_array(neg, zero))


def test_grid_assembly_is_the_cell_major_loop_and_shares_no_memory():
    model = study_model(3, 2, seed=0)
    grid = GridField.from_function(closed_trig_form(3, 2, seed=101), 3, 2, (6, 7, 8),
                                   (0.125,) * 3, entropy_fn=lambda Y: np.sin(Y[..., 0]))
    general = tensor_grid(model, grid)
    assert same_bits(general, _cell_major_tensor_array(model, grid.values, grid.entropy))
    again = tensor_grid(model, grid)
    assert same_bits(again, general)
    assert not np.shares_memory(again, general)
    assert not np.shares_memory(general, grid.values)


def test_momentum_slots_are_one_shared_tuple():
    # the momentum identification is star of degree 1: m_i sits in slot
    # d - 1 - i, the tuple omitting axis i, with the cached sign (-1)^i
    assert hodge(4, 1) is hodge(4, 1)
    assert isinstance(hodge(4, 1), tuple)
    m = np.arange(1.0, 9.0).reshape(2, 4)
    A = momentum_to_coeffs(m)
    for i, slot in enumerate((3, 2, 1, 0)):
        assert form_basis(4, 3).tuples[slot] == tuple(k for k in range(4) if k != i)
        assert np.array_equal(A[:, slot], (-1) ** i * m[:, i])
    assert np.array_equal(coeffs_to_momentum(A), m)


# the duality gaps read at most 2.8 eps of max |T|
DUALITY_TOL = 32 * np.finfo(float).eps


def legendre_hodge_dual(Q, d, p):
    """For L = A^T Q A / 2 of p-forms, the density L*(B) = A . G - L of
    (d-p)-forms at B = star G, G = Q A: B^T S Q^-1 S^T B / 2, S = star."""
    S = star(np.eye(math.comb(d, p)), d, p).T
    Q_dual = S @ np.linalg.inv(Q) @ S.T
    return model_quadratic(0.5 * (Q_dual + Q_dual.T), d, d - p)


@pytest.mark.parametrize("d,p", [(d, p) for d in range(2, 6) for p in range(1, d)])
def test_the_legendre_hodge_dual_has_minus_the_tensor(d, p):
    # the two variational principles give one tensor: T*(star G(A)) = -T(A),
    # where +T and -T^T miss by O(max |T|)
    rng = np.random.default_rng(10 * d + p)
    C = math.comb(d, p)
    R = rng.standard_normal((C, C))
    Q = R @ R.T + C * np.eye(C)
    model = model_quadratic(Q, d, p)
    A = rng.standard_normal((64, C))
    T = general_tensor_array(model, A)
    dual = general_tensor_array(legendre_hodge_dual(Q, d, p), star(model.gradient(A), d, p))
    assert np.abs(dual + T).max() <= DUALITY_TOL * np.abs(T).max()
    assert min(np.abs(dual - T).max(), np.abs(dual + np.swapaxes(T, -1, -2)).max()) > 1.0


def test_linear_maxwell_is_its_own_legendre_hodge_dual():
    # L(star G) = -L(A) and T(star G) = T(A): the duality invariance of the
    # electromagnetic stress tensor
    model = build_model("maxwell-linear")
    A, s = sampled_states(model, 64, seed=4)
    B = star(model.gradient(A, s), 4, 2)
    L = model.evaluate(A, s)
    T = general_tensor_array(model, A, s)
    assert np.abs(model.evaluate(B, s) + L).max() <= DUALITY_TOL * np.abs(L).max()
    assert np.abs(general_tensor_array(model, B, s) - T).max() <= DUALITY_TOL * np.abs(T).max()


def test_tensor_value_validation():
    with pytest.raises(ValueError):
        TensorValue(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        TensorValue(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    tv = TensorValue(np.eye(3))
    assert tv.d == 3


def test_cross_is_np_cross_bit_for_bit():
    # one pair, a batch of pairs, and signed zeros
    a, b = np.random.default_rng(5).standard_normal((2, 6, 3))
    a[0], b[0] = [0.0, -0.0, 1.0], [-0.0, 2.0, 0.0]
    for x, y in ((a, b), (a[2], b[2]), (a[0], b[0])):
        out = np.empty(x.shape)
        _cross(x, y, out)
        assert same_bits(out, np.cross(x, y))


# the two printed forms of the corrected relativistic tensor, at c = 1 and
# at a c != 1, where Lam^{-1} differs from Lam
RELATIVISTIC_FORMS = (("relativistic", {}), ("relativistic-powerlaw", {"mu": 0.5, "c": 1.5}),
                      ("relativistic-limit", {}))


@pytest.mark.parametrize("name, params", RELATIVISTIC_FORMS)
def test_relativistic_tprime_forms_agree(name, params):
    # assemble_relativistic's T' = rho L_rho u (x) u + (rho L_rho - L) Lam^{-1}
    # against (e c^2 + p) u (x) u + p Lam^{-1}, e = L / c^2, p = rho L_rho - L
    model = build_model(name, params)
    A, s = sampled_states(model, 40, seed=15)
    for st in (typed_state(model, a, sk) for a, sk in zip(A, s)):
        rho = float(model.rho_of(st.m))
        u = st.m / rho
        L = float(model.profile(rho, st.s))
        e, p = L / model.c ** 2, rho * float(model.profile_rho(rho, st.s)) - L
        second = (e * model.c ** 2 + p) * np.outer(u, u) + p * model.Lam_inv
        assert np.allclose(assemble_relativistic(model, st)[1].entries, second,
                           rtol=1e-10, atol=1e-10)


def test_symmetry_defect_applies_the_metric():
    S = minkowski_metric()
    T = np.diag([-1.0, 1.0, 1.0, 1.0]) @ np.arange(16.0).reshape(4, 4)
    # S^{-1} undoes the sign flip, so the defect is the plain asymmetry of the core
    core = np.arange(16.0).reshape(4, 4)
    want = np.abs(core - core.T).max()
    assert abs(symmetry_defect(T, S) - want) < 1e-12
