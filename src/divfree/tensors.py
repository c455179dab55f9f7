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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conventions import coeffs_to_momentum, em_to_coeffs, momentum_to_coeffs
from .exterior import PFormValue, form_basis
from .models import (EMState, GasModel, GasState, MaxwellModel, RelativisticModel,
                     RelativisticState)


@dataclass
class TensorValue:
    """A d x d tensor sample with finite entries."""

    entries: np.ndarray

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


# nodes per assembly block, from a measured sweep (CHANGES.md): a block's
# rows of A, G, L and T (a few MB) stay in cache between the ufunc passes;
# 8192-16384 were fastest, 2048 and 131072 and one whole batch slower
_BLOCK_NODES = 16384


def general_tensor_array(model, A, s=0.0):
    """Batched tensor assembly; A has trailing axis C(d, p), result gains
    trailing axes (d, d).

    The result is a (..., d, d) view of a component-major (d, d, ...)
    buffer, so each T[..., i, j] is contiguous but T is not C-contiguous.
    The buffer is new on every call and nothing else refers to it.  A
    caller that needs cell-major memory takes ``.copy(order="C")``; a plain
    ``.copy()`` keeps the layout.

    The batch is assembled in blocks of ``_BLOCK_NODES`` nodes, each
    evaluated and written in place into its slice of the buffer.  Every
    model is elementwise over nodes and each entry keeps its arithmetic and
    term order, so the result has bit for bit the bits of one whole-batch
    pass, signs of zero included.
    """
    A = np.asarray(A, dtype=float)
    batch = A.shape[:-1]
    d = model.d
    T = np.zeros((d, d) + batch)
    flat, blocks = T, [...]  # a single state is one block
    if batch:
        n = math.prod(batch)
        A = A.reshape(n, A.shape[-1])
        if np.ndim(s):  # a per-node s, flattened with A
            s = np.asarray(s)
            s = (s if s.shape == batch else np.broadcast_to(s, batch)).reshape(n)
        flat = T.reshape(d, d, n)
        # an empty batch still runs one (empty) block, so it is validated
        blocks = [slice(a, a + _BLOCK_NODES) for a in range(0, max(n, 1), _BLOCK_NODES)]
    table = _assembly_table(d, model.p).items()
    for block in blocks:
        A_b = A[block]
        s_b = s[block] if np.ndim(s) else s
        out = flat[:, :, block]
        L = np.asarray(model.evaluate(A_b, s_b), dtype=float)
        G = model.gradient(A_b, s_b)
        # component-major copies, as lists so that picking a row costs no
        # numpy indexing; transpose is np.moveaxis without its per-call overhead
        A_b = list(A_b.transpose(-1, *range(A_b.ndim - 1)).copy())
        G = list(G.transpose(-1, *range(G.ndim - 1)).copy())
        scratch = np.empty(out.shape[2:])
        # each entry sums its terms onto 0.0 in table order, then takes the
        # diagonal's L or 0.0 minus that sum: the cell-major loop's arithmetic
        for (i, j), terms in table:
            acc = out[i, j, ...]
            for slot_i, slot_j, sign in terms:
                np.multiply(A_b[slot_i], G[slot_j], out=scratch)
                (np.add if sign > 0 else np.subtract)(acc, scratch, out=acc)
            np.subtract(L if i == j else 0.0, acc, out=acc)
    return T.transpose(tuple(range(2, T.ndim)) + (0, 1))


def assemble_general(model, form, s=0.0):
    """The divergence-free tensor of a density at one coefficient value: a
    coefficient array at entropy s, or a PFormValue with its own s."""
    if isinstance(form, PFormValue):
        form, s = form.coeffs, form.s
    return TensorValue(general_tensor_array(model, form, s))


def assemble_nform(model, m, s=0.0):
    """Closed form for momentum (d-1)-forms:
    T = dL/dm (x) m + (L - m . dL/dm) I."""
    if model.p != model.d - 1:
        raise ValueError("closed n-form assembly needs p = d - 1")
    m = np.asarray(m, dtype=float)
    A = momentum_to_coeffs(m)
    L = np.asarray(model.evaluate(A, s), dtype=float)
    dLdm = coeffs_to_momentum(model.gradient(A, s))
    scalar = L - np.einsum("...k,...k->...", m, dLdm)
    d = m.shape[-1]
    T = np.einsum("...i,...j->...ij", dLdm, m)
    T[..., range(d), range(d)] += scalar[..., None]
    return TensorValue(T)


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
    return TensorValue(T), TensorValue(Tp)


def assemble_relativistic(model, state):
    """Relativistic tensor and the corrected T' = -Lam^{-1} T.

    Both printed forms of T' are computed and must agree:
        rho L_rho u (x) u + (rho L_rho - L) Lam^{-1}
        (e c^2 + p) u (x) u + p Lam^{-1},   e = L / c^2, p = rho L_rho - L.
    """
    _require_family(model, state, RelativisticModel)
    m, s = state.m, state.s
    Lam_inv = model.Lam_inv
    rho = float(model.rho_of(m))
    u = m / rho
    L = float(model.profile(rho, s))
    Lrho = float(model.profile_rho(rho, s))
    T = -rho * Lrho * (model.Lam @ np.outer(u, u)) + (L - rho * Lrho) * np.eye(4)
    Tp_a = rho * Lrho * np.outer(u, u) + (rho * Lrho - L) * Lam_inv
    e = L / model.c ** 2
    p = rho * Lrho - L
    Tp_b = (e * model.c ** 2 + p) * np.outer(u, u) + p * Lam_inv
    if not np.allclose(Tp_a, Tp_b, rtol=1e-10, atol=1e-10):
        raise AssertionError("the two closed forms of T' disagree")
    return TensorValue(T), TensorValue(Tp_a)


def assemble_maxwell(model, state):
    """Electromagnetic block form and the corrected tensor
    T~ = diag(-1, 1, 1, 1) T.

    T = [[L - E . D,  (H x E)^T],
         [D x B,      (L + B . H) I_3 - E (x) D - H (x) B]]
    """
    _require_family(model, state, MaxwellModel)
    E, B, s = state.E, state.B, state.s
    D, H = model.material(E, B, s)
    L = float(model.evaluate(em_to_coeffs(E, B), s))
    T = np.zeros((4, 4))
    T[0, 0] = L - E @ D
    T[0, 1:] = np.cross(H, E)
    T[1:, 0] = np.cross(D, B)
    T[1:, 1:] = (L + B @ H) * np.eye(3) - np.outer(E, D) - np.outer(H, B)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return TensorValue(T), TensorValue(eta @ T)


def symmetry_defect(T, S=None):
    """Max-norm asymmetry of S^{-1} T (plain T when S is None) over the
    trailing (d, d) axes of an array T."""
    C = np.asarray(T, dtype=float)
    if S is not None:
        S_inv = np.linalg.inv(np.asarray(S, dtype=float))  # raises if singular
        C = np.einsum("ab,...bc->...ac", S_inv, C)
    defect = np.abs(C - np.swapaxes(C, -1, -2)).max(axis=(-1, -2))
    return float(defect) if defect.ndim == 0 else defect


def assemble(model, state):
    """The tensor at one state, as the fields of a report.

    A state of a family's type goes through that family's block form:
    ``tensor``, ``tensor_prime`` and ``pressure`` for gas and relativistic
    states, ``tensor`` and ``tensor_tilde`` for an EMState.  Any other state
    (a PFormValue or a coefficient array) goes through the general formula
    and gives ``tensor`` alone.
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
        return {"tensor": assemble_general(model, state).entries}
    return {"tensor": T.entries, "tensor_prime": Tp.entries,
            "pressure": float(model.pressure(rho, state.s))}
