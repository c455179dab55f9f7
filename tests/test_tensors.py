"""Tensor assembly: hand-checked blocks and agreement of the independent routes."""
import numpy as np
import pytest

from divfree import (
    PFormValue,
    TensorValue,
    assemble,
    assemble_gas,
    assemble_general,
    assemble_maxwell,
    assemble_nform,
    assemble_relativistic,
    build_model,
    coeffs_to_momentum,
    em_to_coeffs,
    minkowski_metric,
    momentum_to_coeffs,
    state_to_form,
    symmetry_defect,
    typed_state,
)
from divfree.models import EMState, GasState, RelativisticState
from divfree.tensors import general_tensor_array

from helpers import rel_gap, sampled_states

GAS_WITNESS = GasState(rho=1.0, q=[1.0])
EM_WITNESS = EMState(E=[1.0, 0.0, 0.0], B=[0.0, 1.0, 0.0])


def test_gas_block_hand_values():
    gas = build_model("gas")
    T, Tp = assemble_gas(gas, GAS_WITNESS)
    assert np.abs(T.entries - np.array([[-1.0, -1.5], [1.0, 1.5]])).max() < 1e-14
    assert np.abs(Tp.entries - np.array([[1.0, 1.0], [1.0, 1.5]])).max() < 1e-14
    assert symmetry_defect(Tp.entries) == 0.0
    assert symmetry_defect(T.entries) == 2.5


def test_isotropic_tensor_hand_values():
    iso = build_model("iso-p1")
    tv = assemble_general(iso, np.array([3.0, 4.0]))
    want = 12.5 * np.eye(2) - np.outer([3.0, 4.0], [3.0, 4.0])
    assert np.abs(tv.entries - want).max() < 1e-13
    assert symmetry_defect(tv) < 1e-13  # metric hint is euclidean


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
    assert symmetry_defect(Tt.entries) == 2.0


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
    e = mdl.energy_density(rho, 0.0)
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


def test_reindexed_presentation_assembles_identically():
    # feeding the same 2-form through unordered index pairs changes nothing
    mx = build_model("maxwell-lorentz")
    E = np.array([0.7, -0.3, 0.2])
    B = np.array([0.1, 0.9, -0.4])
    canonical = PFormValue(4, 2, em_to_coeffs(E, B))
    flipped = PFormValue.from_dict(
        4, 2, {(j, i): -v for (i, j), v in canonical.as_dict().items()})
    assert np.abs(flipped.coeffs - canonical.coeffs).max() == 0.0
    Ta = assemble_general(mx, canonical).entries
    Tb = assemble_general(mx, flipped).entries
    assert np.abs(Ta - Tb).max() == 0.0


def test_batched_assembly_matches_the_loop():
    gas = build_model("gas-polytropic")
    A, s = sampled_states(gas, 17, seed=15)
    batch = general_tensor_array(gas, A, s)
    assert batch.shape == (17, 4, 4)
    for k in range(17):
        single = general_tensor_array(gas, A[k], float(s[k]))
        assert np.abs(batch[k] - single).max() < 1e-14


def test_tensor_value_validation():
    with pytest.raises(ValueError):
        TensorValue(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        TensorValue(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    tv = TensorValue(np.eye(3))
    assert tv.d == 3


def test_symmetry_defect_applies_the_metric():
    S = minkowski_metric()
    T = np.diag([-1.0, 1.0, 1.0, 1.0]) @ np.arange(16.0).reshape(4, 4)
    # S^{-1} undoes the sign flip, so the defect is the plain asymmetry of the core
    core = np.arange(16.0).reshape(4, 4)
    want = np.abs(core - core.T).max()
    assert abs(symmetry_defect(T, S) - want) < 1e-12
