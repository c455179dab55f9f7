"""Orthogonal-group invariance and the corrected-tensor symmetry test.

For a symmetric nondegenerate S, the group O(S) = {M : M^T S M = S} has Lie
algebra {N : N^T S + S N = 0} = S^{-1} . Skew.  A density is invariant under
the neutral component of O(S) exactly when S^{-1} T is symmetric; both sides
are measured numerically here, each on its own terms:

* invariance_defect contracts the coefficient gradient with the infinitesimal
  pullback along every algebra generator,
* symmetry_defect (from the assembly module) measures the asymmetry of the
  corrected tensor,
* the trace identity Tr(S^{-1} A (L I - T^T)) = 0 over skew A ties the two
  together without reference to either convention.

Quantified over all of the algebra the equivalence is convention-free even
though individual generators transform differently under transposition.
"""
from __future__ import annotations

import numpy as np

from .exterior import infinitesimal_pullback_coeffs
from .tensors import general_tensor_array, symmetry_defect


def check_metric(S):
    """Validate a candidate metric: square, symmetric, nondegenerate."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("metric must be a square matrix")
    if not np.allclose(S, S.T, atol=1e-13 * (1.0 + np.abs(S).max())):
        raise ValueError("metric must be symmetric")
    if abs(np.linalg.det(S)) < 1e-12:
        raise ValueError("metric must be nondegenerate")
    return S


def skew_basis(d):
    """Unit-Frobenius basis E_ab - E_ba, a < b, of the skew matrices."""
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            A = np.zeros((d, d))
            A[a, b] = 1.0
            A[b, a] = -1.0
            out.append(A / np.sqrt(2.0))
    return out


def lie_basis(S):
    """List of the normalized generators S^{-1}(E_ab - E_ba) of the algebra
    of O(S).

    Postconditions checked on construction: each generator satisfies
    N^T S + S N = 0 to near roundoff and the set is linearly independent
    (d(d-1)/2 members).
    """
    S = check_metric(S)
    d = S.shape[0]
    S_inv = np.linalg.inv(S)
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            N = np.zeros((d, d))
            N[:, b] = S_inv[:, a]
            N[:, a] = -S_inv[:, b]
            N /= np.linalg.norm(N)
            resid = np.abs(N.T @ S + S @ N).max()
            if resid > 1e-12 * (1.0 + np.abs(S).max()):
                raise AssertionError("generator fails the algebra relation")
            gens.append(N)
    stacked = np.stack([N.ravel() for N in gens])
    if np.linalg.matrix_rank(stacked, tol=1e-10) != len(gens):
        raise AssertionError("generators are linearly dependent")
    return gens


def invariance_defect(model, S, states):
    """Max over generators and the states (A, s) of the normalized pairing
    |<dL/dA, infinitesimal pullback>| / (|dL/dA| |A|); a NaN pairing wins."""
    basis = lie_basis(S)
    A, s = states
    G = model.gradient(A, s)
    norm = (np.linalg.norm(G, axis=-1) * np.linalg.norm(A, axis=-1)) + 1e-300
    worst = 0.0
    for N in basis:
        B = infinitesimal_pullback_coeffs(N, A, model.d, model.p)
        pairing = np.abs(np.einsum("...k,...k->...", G, B)) / norm
        worst = np.maximum(worst, pairing.max())
    return float(worst)


def symmetry_defect_max(model, S, states):
    """Max asymmetry of S^{-1} T over the states (A, s)."""
    check_metric(S)
    A, s = states
    T = general_tensor_array(model, A, s)
    return float(np.max(symmetry_defect(T, S)))


def trace_identity_residual(model, S, states):
    """Max over the skew basis and the states (A, s) of |Tr(S^{-1} A (L I - T^T))|.

    Vanishes exactly when the corrected tensor is symmetric; this is the
    bridge identity between the two sides of the equivalence.  A NaN term
    wins the max.
    """
    S = check_metric(S)
    d = S.shape[0]
    A_states, s = states
    L = np.asarray(model.evaluate(A_states, s), dtype=float)
    T = general_tensor_array(model, A_states, s)
    X = L[..., None, None] * np.eye(d) - np.swapaxes(T, -1, -2)
    S_inv = np.linalg.inv(S)
    worst = 0.0
    for A in skew_basis(d):
        M = S_inv @ A
        vals = np.abs(np.einsum("ab,...ba->...", M, X))
        worst = np.maximum(worst, vals.max())
    return float(worst)


def invariance_symmetry_check(model, S, n_states=128, seed=0,
                   tol_invariant=1e-10, tol_broken=1e-2):
    """Measure both sides of the invariance / symmetry equivalence.

    The verdict is three-valued: defects at or below ``tol_invariant`` on
    both sides certify the invariant case, defects at or above ``tol_broken``
    on both certify the broken case, anything else is inconclusive.
    ``agreement`` records whether the two sides landed on the same side;
    it is false when either defect is NaN or infinite.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    S = check_metric(S)
    states = model.sample_states(np.random.default_rng(seed), n_states)
    inv = invariance_defect(model, S, states=states)
    sym = symmetry_defect_max(model, S, states=states)
    trace = trace_identity_residual(model, S, states=states)
    if inv <= tol_invariant and sym <= tol_invariant:
        verdict = "invariant-symmetric"
    elif inv >= tol_broken and sym >= tol_broken:
        verdict = "broken-asymmetric"
    else:
        verdict = "inconclusive"
    agreement = np.isfinite([inv, sym]).all() and \
        (inv <= tol_invariant) == (sym <= tol_invariant) and \
        (inv >= tol_broken) == (sym >= tol_broken)
    return {
        "model": model.name,
        "d": model.d,
        "p": model.p,
        "invariance_defect": inv,
        "symmetry_defect": sym,
        "trace_identity_residual": trace,
        "verdict": verdict,
        "agreement": bool(agreement),
        "seed": seed,
        "n_states": int(np.shape(states[0])[0]),
    }
