"""Planted faults that the suite must catch.

Each test plants one fault with monkeypatch and asserts that the gate aimed
at it passes on the real code and fails on the faulty one, so a gate that
stopped looking would show here.
"""
import numpy as np

import divfree.conventions
import divfree.fields
import divfree.invariance
import divfree.models
import divfree.tensors
from divfree import (ad_gradient, assemble, build_model, case_refinement, euclidean_metric,
                     finite_difference_gradient, lightlike_normal_search)
from divfree import dualnum
from divfree.fields import rankine_hugoniot
from divfree.manufactured import run_case
from divfree.models import RelativisticState, typed_state
from divfree.tensors import general_tensor_array

from helpers import (IDENTITY_LADDERS, euler_lagrange_identity, limit_jump_states, rel_gap,
                     sampled_states, trace_identity_gap)

# criterion 01 gates the block forms, criterion 04 the wave rows' orders,
# criterion 06 the difference gradient, criterion 08 the search residual and
# the density jump, criterion 09 the advected-entropy order and the shear
# floor; the Euler-Lagrange identity gates its gap's order and |Div T|
BLOCK_TOL = 1e-12
WAVE_ORDER = 1.9
DIFFERENCE_TOL = 1e-6
SEARCH_TOL = 1e-10
RHO_JUMP_MIN = 0.05
ENTROPY_ORDER = 1.9
SHEAR_FLOOR = 0.9
IDENTITY_ORDER = 1.9
IDENTITY_DIV_T = 0.1

# criterion 08's left state
M_LEFT = np.array([2.0, 0.3, -0.1, 0.2])


def block_gap(model, A, s, states):
    """Worst relative gap between the general tensor at (A, s) and the
    family's block form at the same states, typed beforehand."""
    T = general_tensor_array(model, A, s)
    return max(rel_gap(assemble(model, st)["tensor"], T[k]) for k, st in enumerate(states))


def seeded(name):
    model = build_model(name)
    A, s = sampled_states(model, 16, seed=0)
    return model, A, s, [typed_state(model, a, sk) for a, sk in zip(A, s)]


def test_transposed_tensor_breaks_the_trace_identity(monkeypatch):
    # the gas tensor is not symmetric, so T in place of T^T moves the trace
    gas = build_model("gas")
    S = euclidean_metric(2)
    states = sampled_states(gas, 64, seed=0)
    assert trace_identity_gap(gas, S, states) <= 1e-12
    real = divfree.invariance.general_tensor_array
    monkeypatch.setattr(divfree.invariance, "general_tensor_array",
                        lambda *args: np.swapaxes(real(*args), -1, -2))
    assert trace_identity_gap(gas, S, states) > 1e-12


def test_flipped_assembly_sign_breaks_the_block_forms(monkeypatch):
    table = divfree.tensors._assembly_table
    table.cache_clear()
    try:
        for name in ("gas", "relativistic", "maxwell-lorentz"):
            case = seeded(name)
            assert block_gap(*case) <= BLOCK_TOL
            cached = table(case[0].d, case[0].p)
            monkeypatch.setitem(cached, (0, 1), tuple(
                (slot_i, slot_j, -sign) for slot_i, slot_j, sign in cached[(0, 1)]))
            assert block_gap(*case) > BLOCK_TOL
    finally:
        table.cache_clear()


def test_negated_magnetic_slot_breaks_the_maxwell_block_form(monkeypatch):
    # E . B enters maxwell-lorentz, so reading B_1 with the wrong sign shows
    case = seeded("maxwell-lorentz")
    assert block_gap(*case) <= BLOCK_TOL
    real = divfree.conventions.em_components

    def faulty(coeffs):
        E, B = real(coeffs)
        return E, [-B[0], *B[1:]]

    for module in (divfree.conventions, divfree.models):
        monkeypatch.setattr(module, "em_components", faulty)
    assert block_gap(*case) > BLOCK_TOL


def test_flipped_cos_chain_rule_breaks_the_difference_check(monkeypatch):
    A = np.random.default_rng(9).uniform(-1.0, 1.0, (20, 2))

    def gap():
        model = build_model("user-expr", {"expr": "cos(A0)*A1", "d": 2, "p": 1})
        return rel_gap(ad_gradient(model)(A, 0.0), finite_difference_gradient(model, A, 0.0))

    assert gap() <= DIFFERENCE_TOL
    # expressions look their functions up when they are compiled
    monkeypatch.setitem(dualnum.FUNCTIONS, "cos",
                        dualnum._lift(np.cos, lambda v, y, e: np.sin(v) * e))
    assert gap() > DIFFERENCE_TOL


def test_stale_left_state_breaks_the_lightlike_search(monkeypatch):
    # the search hoists the left state out of its objective; one built from
    # another m_left leaves a jump in [T] nu that no normal closes
    model = build_model("relativistic-limit")
    assert lightlike_normal_search(model, M_LEFT)["residual"] <= SEARCH_TOL
    real = divfree.fields._family_residual
    rho_L, _ = divfree.fields._left_state(model, M_LEFT)
    _, stale_T_L = divfree.fields._left_state(model, M_LEFT + [1e-6, 0.0, 0.0, 0.0])

    def faulty(model, nu, m_left, rho_jump_min, left=None):
        return real(model, nu, m_left, rho_jump_min, (rho_L, stale_T_L))

    monkeypatch.setattr(divfree.fields, "_family_residual", faulty)
    assert lightlike_normal_search(model, M_LEFT)["residual"] > SEARCH_TOL


def test_right_density_read_twice_hides_the_density_jump(monkeypatch):
    model = build_model("relativistic-limit")
    nu = lightlike_normal_search(model, M_LEFT)["nu"]
    left = RelativisticState(m=M_LEFT)
    right = RelativisticState(m=limit_jump_states(model, M_LEFT, nu, 0.3))

    def rho_jump():
        return abs(rankine_hugoniot(model, left, right, nu)["rho_jump"])

    assert rho_jump() >= RHO_JUMP_MIN
    # [rho] reads the right state first: every later read sees it again
    real, reads = model.rho_of, []

    def right_twice(m):
        reads.append(m)
        return real(reads[0])

    monkeypatch.setattr(model, "rho_of", right_twice)
    assert rho_jump() < RHO_JUMP_MIN


def test_dropped_time_term_breaks_entropy_transport(monkeypatch):
    ladder = (8, 16, 32)

    def gate():
        orders = case_refinement("advected-entropy", ladder)["orders"]
        floor = min(run_case("entropy-shear", n)["residual"] for n in ladder)
        return min(orders) >= ENTROPY_ORDER and floor >= SHEAR_FLOOR

    assert gate()
    # the entropy cases difference only s, so a zero axis-0 difference is
    # the transport residual without its m_0 d_t s term
    real = divfree.fields._cd
    monkeypatch.setattr(divfree.fields, "_cd", lambda arr, axis, h, nd: (
        np.zeros_like(real(arr, axis, h, nd)) if axis == 0 else real(arr, axis, h, nd)))
    assert not gate()


def test_dropped_axis_term_breaks_the_wave_divergence(monkeypatch):
    def row_orders():
        reports = case_refinement("maxwell-plane-wave", (8, 16, 32))["reports"]
        rows = np.array([r["rows"] for r in reports])
        return np.log2(rows[:-1] / rows[1:]).min()

    assert row_orders() >= WAVE_ORDER
    # upper and lower neighbours coincide along the last axis, so div_rows
    # sums every row without its d_{d-1} T_{i,d-1} term
    real = divfree.fields._cd_neighbours
    monkeypatch.setattr(divfree.fields, "_cd_neighbours", lambda axis, nd: (
        (real(axis, nd)[0],) * 2 if axis == nd - 1 else real(axis, nd)))
    assert row_orders() < WAVE_ORDER


def test_flipped_gather_sign_breaks_the_euler_lagrange_identity(monkeypatch):
    def holds(d, p):
        orders, div_T = euler_lagrange_identity(d, p)
        return min(orders) >= IDENTITY_ORDER and min(div_T) >= IDENTITY_DIV_T

    assert all(holds(d, p) for d, p in IDENTITY_LADDERS)
    # the gather reads the sign of jK off the exterior derivative table;
    # flip the first term of its first row.  A single-mode field is constant
    # along some axes, so the flip shows on most (d, p), not on every one
    real = divfree.fields.exterior_derivative_table

    def flipped(d, p):
        (J, ((axis, slot, sign), *rest)), *rows = real(d, p)
        return ((J, ((axis, slot, -sign), *rest)), *rows)

    monkeypatch.setattr(divfree.fields, "exterior_derivative_table", flipped)
    assert not all(holds(d, p) for d, p in IDENTITY_LADDERS)
