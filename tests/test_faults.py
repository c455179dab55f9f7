"""Planted faults that the suite must catch.

Each test plants one fault with monkeypatch and asserts that the gate aimed
at it passes on the real code and fails on the faulty one, so a gate that
stopped looking would show here.
"""
import numpy as np

import divfree.invariance
from divfree import build_model, euclidean_metric

from helpers import sampled_states, trace_identity_gap


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
