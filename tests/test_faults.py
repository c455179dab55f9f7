"""Planted faults that the suite must catch.

Each test plants one fault with monkeypatch and asserts that the gate aimed
at it passes on the real code and fails on the faulty one, so a gate that
stopped looking would show here.
"""
import numpy as np

import divfree.conventions
import divfree.invariance
import divfree.models
import divfree.tensors
from divfree import (ad_gradient, assemble, build_model, euclidean_metric,
                     finite_difference_gradient)
from divfree import dualnum
from divfree.models import typed_state
from divfree.tensors import general_tensor_array

from helpers import rel_gap, sampled_states, trace_identity_gap

# criterion 01 gates the block forms, criterion 06 the difference gradient
BLOCK_TOL = 1e-12
DIFFERENCE_TOL = 1e-6


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
