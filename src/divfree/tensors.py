"""Assembly of the divergence-free tensor and its physical block forms.

The defining formula, frozen in :mod:`divfree.conventions`, is

    T_ij = L delta_ij - sum_K A_{iK} dL/dA_{jK}

with K over canonical (p-1)-tuples; concatenated tuples are read through
their permutation signs, and tuples with a repeated index drop out.  Only L
and the coefficient gradient enter; the entropy derivative of the density
never does.

Specialized assemblers restate the same tensor in closed physical form for
momentum (d-1)-forms (gas and relativistic) and electromagnetic 2-forms.
They are independent derivations, which makes the pairwise equality tests in
the suite meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conventions import coeffs_to_momentum, em_to_coeffs, momentum_to_coeffs
from .exterior import PFormValue, form_basis
from .models import (EMState, GasModel, GasState, MaxwellModel, RelativisticModel,
                     RelativisticState, state_to_form)


@dataclass
class TensorValue:
    """A d x d tensor sample, with the metric the producing model suggests
    for the symmetry test (may be None)."""

    entries: np.ndarray
    metric: np.ndarray | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        d = self.entries.shape[-1]
        if self.entries.shape[-2:] != (d, d):
            raise ValueError("tensor entries must be square")
        if not np.isfinite(self.entries).all():
            raise ValueError("tensor entries must be finite")

    @property
    def d(self):
        return self.entries.shape[-1]


@lru_cache(maxsize=None)
def _assembly_table(d, p):
    # (i, j) -> ((slot_iK, slot_jK, sign), ...) over canonical K
    basis = form_basis(d, p)
    lower = form_basis(d, p - 1)
    table = {}
    for i in range(d):
        for j in range(d):
            terms = []
            for K in lower.tuples:
                slot_i, sign_i = basis.slot((i,) + K)
                if sign_i == 0:
                    continue
                slot_j, sign_j = basis.slot((j,) + K)
                if sign_j == 0:
                    continue
                terms.append((slot_i, slot_j, sign_i * sign_j))
            table[(i, j)] = tuple(terms)
    return table


def general_tensor_array(model, A, s=0.0):
    """Batched tensor assembly; A has trailing axis C(d, p), result gains
    trailing axes (d, d)."""
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


def assemble_general(model, form, s=0.0):
    """The divergence-free tensor of a density at one coefficient value."""
    if isinstance(form, PFormValue):
        if form.entropy is not None:
            s = form.entropy
        A = form.coeffs
    else:
        A = np.asarray(form, dtype=float)
    return TensorValue(general_tensor_array(model, A, s), metric=model.metric_hint)


def nform_tensor_array(model, m, s=0.0):
    """Closed form for momentum (d-1)-forms:
    T = dL/dm (x) m + (L - m . dL/dm) I."""
    m = np.asarray(m, dtype=float)
    A = momentum_to_coeffs(m)
    L = np.asarray(model.evaluate(A, s), dtype=float)
    dLdm = coeffs_to_momentum(model.gradient(A, s))
    scalar = L - np.einsum("...k,...k->...", m, dLdm)
    d = m.shape[-1]
    T = np.einsum("...i,...j->...ij", dLdm, m)
    T[..., range(d), range(d)] += scalar[..., None]
    return T


def assemble_nform(model, m, s=0.0):
    if model.p != model.d - 1:
        raise ValueError("closed n-form assembly needs p = d - 1")
    return TensorValue(nform_tensor_array(model, m, s), metric=model.metric_hint)


def _require_family(model, state, family):
    """A block form needs a model of its family and a state of that family's type."""
    if not (isinstance(model, family) and isinstance(state, family.state_type)):
        raise TypeError(f"this block form takes a {family.__name__} with a "
                        f"{family.state_type.__name__}, got {type(model).__name__} "
                        f"with {type(state).__name__}")


def assemble_gas(model, state):
    """Gas block form and the modified tensor T' whose first row is m.

    T = [[-|q|^2/(2 rho) - g,  (dL/d rho) q^T],
         [q,                   q (x) q / rho + p I_n]]
    with p = rho g_rho - g; T' replaces row 0 by (rho, q) and is symmetric.
    """
    _require_family(model, state, GasModel)
    rho, q, s = state.rho, state.q, state.s
    n = model.d - 1
    if q.shape != (n,):
        raise ValueError(f"{model.name} takes a q of length {n}, not {q.shape[0]}")
    g = float(model.internal_energy(rho, s))
    q2 = float(q @ q)
    p = float(model.pressure(rho, s))
    dLdrho = float(model.m_gradient(state.m, s)[0])
    T = np.zeros((n + 1, n + 1))
    T[0, 0] = -q2 / (2.0 * rho) - g
    T[0, 1:] = dLdrho * q
    T[1:, 0] = q
    T[1:, 1:] = np.outer(q, q) / rho + p * np.eye(n)
    Tp = T.copy()
    Tp[0, 0] = rho
    Tp[0, 1:] = q
    return TensorValue(T, metric=model.metric_hint), TensorValue(Tp, metric=model.metric_hint)


def assemble_relativistic(model, state):
    """Relativistic tensor and the corrected T' = -Lam^{-1} T.

    Both printed forms of T' are computed and must agree:
        rho L_rho u (x) u + (rho L_rho - L) Lam^{-1}
        (e c^2 + p) u (x) u + p Lam^{-1},   e = L / c^2, p = rho L_rho - L.
    """
    _require_family(model, state, RelativisticModel)
    m, s = state.m, state.s
    Lam = model.Lam
    Lam_inv = np.linalg.inv(Lam)
    rho = float(model.rho_of(m))
    u = m / rho
    L = float(model.profile(rho, s))
    Lrho = float(model.profile_rho(rho, s))
    T = -rho * Lrho * (Lam @ np.outer(u, u)) + (L - rho * Lrho) * np.eye(4)
    Tp_a = rho * Lrho * np.outer(u, u) + (rho * Lrho - L) * Lam_inv
    e = L / model.c ** 2
    p = rho * Lrho - L
    Tp_b = (e * model.c ** 2 + p) * np.outer(u, u) + p * Lam_inv
    if not np.allclose(Tp_a, Tp_b, rtol=1e-10, atol=1e-10):
        raise AssertionError("the two closed forms of T' disagree")
    return TensorValue(T, metric=model.metric_hint), TensorValue(Tp_a, metric=model.metric_hint)


def assemble_maxwell(model, state):
    """Electromagnetic block form and the corrected tensor
    T~ = diag(-1, 1, 1, 1) T.

    T = [[L - E . D,  (H x E)^T],
         [D x B,      (L + B . H) I_3 - E (x) D - H (x) B]]
    """
    _require_family(model, state, MaxwellModel)
    E, B, s = state.E, state.B, state.s
    D, H, _ = model.fields(E, B, s)
    L = float(model.evaluate(em_to_coeffs(E, B), s))
    T = np.zeros((4, 4))
    T[0, 0] = L - E @ D
    T[0, 1:] = np.cross(H, E)
    T[1:, 0] = np.cross(D, B)
    T[1:, 1:] = (L + B @ H) * np.eye(3) - np.outer(E, D) - np.outer(H, B)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return TensorValue(T, metric=model.metric_hint), TensorValue(eta @ T, metric=model.metric_hint)


def symmetry_defect(tensor, S=None):
    """Max-norm asymmetry of S^{-1} T (plain T when S is None)."""
    if isinstance(tensor, TensorValue):
        if S is None:
            S = tensor.metric
        T = tensor.entries
    else:
        T = np.asarray(tensor, dtype=float)
    if S is None:
        C = T
    else:
        S_inv = np.linalg.inv(np.asarray(S, dtype=float))  # raises if singular
        C = np.einsum("ab,...bc->...ac", S_inv, T)
    defect = np.abs(C - np.swapaxes(C, -1, -2)).max(axis=(-1, -2))
    return float(defect) if defect.ndim == 0 else defect


def assemble(model, state):
    """The tensor at one state, as the fields of a report.

    A state of a family's type goes through that family's block form:
    ``tensor``, ``tensor_prime`` and ``pressure`` for gas and relativistic
    states, ``tensor`` and ``tensor_tilde`` for an EMState.  Any other state
    goes through the general formula and gives ``tensor`` alone.
    """
    if isinstance(state, EMState):
        T, Tt = assemble_maxwell(model, state)
        return {"tensor": T.entries, "tensor_tilde": Tt.entries}
    if isinstance(state, GasState):
        T, Tp = assemble_gas(model, state)
        rho = state.rho
    elif isinstance(state, RelativisticState):
        T, Tp = assemble_relativistic(model, state)
        rho = model.rho_of(state.m)
    else:
        return {"tensor": assemble_general(model, state_to_form(model, state)).entries}
    return {"tensor": T.entries, "tensor_prime": Tp.entries,
            "pressure": float(model.pressure(rho, state.s))}
