"""Index combinatorics for antisymmetric coefficient arrays.

A degree-p coefficient array over dimension d stores one real number per
strictly increasing p-tuple of axis indices (0-based, axis 0 is time in the
physical models).  Everything else in the package is built on three small
pieces of bookkeeping:

* canonical ordering of index tuples with the permutation sign,
* lexicographic enumeration of the canonical tuples (the storage order),
* minors of a matrix indexed by pairs of tuples, which give the action of a
  linear change of variables on the coefficients.

Conventions are frozen here once and reused everywhere: coefficients read
through a permuted tuple pick up the permutation sign, a tuple with a repeated
index reads as zero, and the substitution action is
``B_J = sum_I A_I * minor(M, I, J)`` so that composition satisfies
``(M1 @ M2)^* = M2^* o M1^*``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

def canonicalize(raw, d=None):
    """Sort an index tuple and report the sign of the sorting permutation.

    Returns ``(sorted_tuple, parity)`` with parity +1 or -1; a repeated index
    gives parity 0 because the corresponding coefficient annihilates.
    """
    raw = tuple(int(i) for i in raw)
    if d is not None:
        for i in raw:
            if not 0 <= i < d:
                raise ValueError(f"index {i} out of range for dimension {d}")
    ordered = tuple(sorted(raw))
    for a in range(len(ordered) - 1):
        if ordered[a] == ordered[a + 1]:
            return ordered, 0
    inversions = 0
    for a in range(len(raw)):
        for b in range(a + 1, len(raw)):
            if raw[a] > raw[b]:
                inversions += 1
    return ordered, (-1 if inversions % 2 else 1)


class FormBasis:
    """Canonical storage layout for degree-p coefficients in dimension d.

    ``tuples`` is the lexicographic list of increasing p-tuples and
    ``names`` their digit strings ("012" for (0, 1, 2)); ``index`` maps each
    tuple to its storage slot; ``slot`` extends the lookup to arbitrarily
    ordered tuples by folding in the permutation sign.
    """

    def __init__(self, d, p):
        if not 0 <= p <= d:
            raise ValueError(f"degree {p} out of range for dimension {d}")
        self.d = d
        self.p = p
        self.tuples = tuple(itertools.combinations(range(d), p))
        self.names = tuple("".join(str(i) for i in J) for J in self.tuples)
        self.index = {J: k for k, J in enumerate(self.tuples)}
        self.size = len(self.tuples)

    def slot(self, raw):
        """(storage slot, sign) for a raw tuple; (None, 0) if annihilated."""
        J, sign = canonicalize(raw, self.d)
        if sign == 0:
            return None, 0
        return self.index[J], sign

    def __repr__(self):
        return f"FormBasis(d={self.d}, p={self.p}, size={self.size})"


@lru_cache(maxsize=None)
def form_basis(d, p):
    return FormBasis(d, p)


@dataclass(frozen=True)
class PFormValue:
    """Pointwise value of a degree-p coefficient array, plus the entropy s
    that rides along untouched by the algebra."""

    d: int
    p: int
    coeffs: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        expected = math.comb(self.d, self.p)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"need {expected} coefficients for (d={self.d}, p={self.p}), "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)


def _det_batch(sub):
    # direct expansion up to 4x4, LU (numpy) above; batched over leading axes
    k = sub.shape[-1]
    if k == 0:
        return np.ones(sub.shape[:-2])
    if k == 1:
        return sub[..., 0, 0]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if k == 3:
        return (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
    if k == 4:
        cols = list(range(4))
        acc = 0.0
        for j in range(4):
            rest = [c for c in cols if c != j]
            m3 = sub[..., 1:, :][..., :, rest]
            term = sub[..., 0, j] * _det_batch(m3)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc
    return np.linalg.det(sub)


def minor(M, I, J):
    """Determinant of the submatrix of M with rows I and columns J.

    M may carry leading batch axes; the result is batched accordingly.
    """
    if len(I) != len(J):
        raise ValueError("row and column tuples must have equal length")
    M = np.asarray(M, dtype=float)
    sub = M[..., list(I), :][..., :, list(J)]
    return _det_batch(sub)


def pullback_matrix(M, d, p):
    """Matrix of p-minors P with P[..., a, b] = minor(M, tuples[a], tuples[b]).

    Coefficients transform as B = A @ P (sum over the row tuple).
    """
    basis = form_basis(d, p)
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (d, d):
        raise ValueError(f"matrix must be {d}x{d}, got {M.shape[-2:]}")
    out = np.empty(M.shape[:-2] + (basis.size, basis.size))
    for a, I in enumerate(basis.tuples):
        for b, J in enumerate(basis.tuples):
            out[..., a, b] = minor(M, I, J)
    return out


def pullback_coeffs(M, A, d, p):
    """Substitution action on a coefficient array; A has trailing axis of
    length C(d, p) and M may be batched alongside it."""
    P = pullback_matrix(M, d, p)
    A = np.asarray(A, dtype=float)
    return np.einsum("...i,...ij->...j", A, P)


@lru_cache(maxsize=None)
def _infinitesimal_table(d, p):
    # terms (slot_J, slot_I, i, j, sign): B[slot_J] += sign * N[i, j] * A[slot_I]
    if p == 0:
        return ()
    basis = form_basis(d, p)
    lower = form_basis(d, p - 1)
    terms = []
    for K in lower.tuples:
        ks = set(K)
        for j in range(d):
            if j in ks:
                continue
            slot_j, sign_j = basis.slot((j,) + K)
            for i in range(d):
                if i in ks:
                    continue
                slot_i, sign_i = basis.slot((i,) + K)
                terms.append((slot_j, slot_i, i, j, sign_j * sign_i))
    return tuple(terms)


def infinitesimal_pullback_coeffs(N, A, d, p):
    """First-order coefficients of the pullback along exp(t N) at t = 0.

    Exactly the t-derivative of ``pullback_coeffs(expm(t N), A, d, p)``; in
    relaxed index notation the target coefficient B_{jK} collects n_ij A_{iK}
    over all i outside K.
    """
    N = np.asarray(N, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.zeros_like(A)
    for slot_j, slot_i, i, j, sign in _infinitesimal_table(d, p):
        B[..., slot_j] += sign * N[..., i, j] * A[..., slot_i]
    return B


@lru_cache(maxsize=None)
def exterior_derivative_table(d, p):
    """Rows (J_up, ((axis, lower_slot, sign), ...)) for the alternating-sum
    formula (dA)_{J} = sum_a (-1)^a  d/dy_{J[a]}  A_{J minus a}."""
    if p >= d:
        return ()
    upper = form_basis(d, p + 1)
    lower = form_basis(d, p)
    rows = []
    for J in upper.tuples:
        terms = []
        for a, axis in enumerate(J):
            sub = J[:a] + J[a + 1:]
            terms.append((axis, lower.index[sub], -1 if a % 2 else 1))
        rows.append((J, tuple(terms)))
    return tuple(rows)
