"""Shared sampling and comparison helpers for the test suite."""
import numpy as np


def sampled_states(model, n, seed):
    """Admissible (A, s) batch drawn through the model's own sampler."""
    return model.sample_states(np.random.default_rng(seed), n)


def rel_gap(a, b):
    """Max entrywise difference over max(1, scale of the operands)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)

