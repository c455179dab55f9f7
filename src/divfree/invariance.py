"""Orthogonal-group invariance and the corrected-tensor symmetry test.

For a symmetric nondegenerate S, the group O(S) = {M : M^T S M = S} has Lie
algebra {N : N^T S + S N = 0}, spanned by the generators S^{-1}(E_ab - E_ba),
a < b.  A density is invariant under the neutral component of O(S) exactly
when S^{-1} T is symmetric.  One pass over the generators measures, at each
sampled state (A, s) and for each generator N:

* the pairing G . (N . A) of the coefficient gradient G = dL/dA with the
  infinitesimal pullback along N, which vanishes for every N exactly when
  the density is invariant;
* the trace Tr(N (L I - T^T)) = -sum_ij N_ij T_ij (Tr N = 0), which vanishes
  for every N exactly when S^{-1} T is symmetric.

The two are equal state by state and generator by generator; that identity
is the bridge between the sides, and their gap is reported so a test can
hold the code to it.  Generator by generator the pass also shows a partial
invariance, such as a density invariant under rotations but not boosts.
"""
from __future__ import annotations

import numpy as np

from .exterior import infinitesimal_pullback_coeffs, require_points
from .tensors import general_tensor_array, symmetry_defect


def check_metric(S):
    """Validate a candidate metric: square, symmetric, nondegenerate."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("metric must be a square matrix")
    if not np.allclose(S, S.T, atol=1e-13 * (1.0 + np.abs(S).max(initial=0.0))):
        raise ValueError("metric must be symmetric")
    if abs(np.linalg.det(S)) < 1e-12:
        raise ValueError("metric must be nondegenerate")
    return S


def lie_basis(S):
    """The normalized generators S^{-1}(E_ab - E_ba) of the algebra of O(S),
    as a dict keyed by the index pair "ab" (a < b).  Below dimension 2
    there are none: a ValueError.
    """
    S = check_metric(S)
    d = S.shape[0]
    if d < 2:
        raise ValueError(f"a metric of dimension {d} has no generators; need 2 or more")
    S_inv = np.linalg.inv(S)
    gens = {}
    for a in range(d):
        for b in range(a + 1, d):
            N = np.zeros((d, d))
            N[:, b] = S_inv[:, a]
            N[:, a] = -S_inv[:, b]
            N /= np.linalg.norm(N)
            gens[f"{a}{b}"] = N
    return gens


def generator_defects(model, S, states):
    """One pass over the generators of O(S) at the states (A, s).

    Returns the tensor T at the states and, for each generator N of
    ``lie_basis(S)`` by name, a dict of arrays over the states: the signed
    ``pairing`` G . (N . A), the ``trace`` Tr(N (L I - T^T)), their ``gap``
    |pairing - trace| and the normalized ``defect`` |pairing| / (|G| |A|).
    """
    A, s = states
    T = general_tensor_array(model, A, s)
    G = model.gradient(A, s)
    norm = (np.linalg.norm(G, axis=-1) * np.linalg.norm(A, axis=-1)) + 1e-300
    out = {}
    for name, N in lie_basis(S).items():
        B = infinitesimal_pullback_coeffs(N, A, model.d, model.p)
        pairing = np.einsum("...k,...k->...", G, B)
        trace = -np.einsum("ij,...ij->...", N, T)
        out[name] = {"pairing": pairing, "trace": trace,
                     "gap": np.abs(pairing - trace), "defect": np.abs(pairing) / norm}
    return T, out


def invariance_symmetry_check(model, S, n_states=128, seed=0,
                   tol_invariant=1e-10, tol_broken=1e-2):
    """Measure both sides of the invariance / symmetry equivalence.

    The verdict is three-valued: defects at or below ``tol_invariant`` on
    both sides certify the invariant case, defects at or above ``tol_broken``
    on both certify the broken case, anything else is inconclusive.
    ``agreement`` records whether the two sides landed on the same side;
    it is false when either defect is NaN or infinite.  Each maximum over
    the states and generators lets a NaN term win.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    require_points(n_states, "states")
    if not (np.isfinite([tol_invariant, tol_broken]).all()
            and 0 <= tol_invariant < tol_broken):
        raise ValueError("tolerances must be finite with 0 <= tol_invariant < tol_broken, "
                         f"not {tol_invariant} and {tol_broken}")
    S = check_metric(S)
    states = model.sample_states(np.random.default_rng(seed), n_states)
    T, gens = generator_defects(model, S, states)
    defects = {name: float(np.max(g["defect"])) for name, g in gens.items()}
    inv = float(np.max(list(defects.values())))
    sym = float(np.max(symmetry_defect(T, S)))
    trace = float(np.max([np.abs(g["trace"]).max() for g in gens.values()]))
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
        "generator_defects": defects,
        "invariant_generators": [n for n, v in defects.items() if v <= tol_invariant],
        "verdict": verdict,
        "agreement": bool(agreement),
        "seed": seed,
        "n_states": int(np.shape(states[0])[0]),
    }
