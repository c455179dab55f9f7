"""Index combinatorics for antisymmetric coefficient arrays.

A degree-p coefficient array over dimension d stores one real number per
strictly increasing p-tuple of axis indices (0-based, axis 0 is time in the
physical models).  Everything else in the package is built on three small
pieces of bookkeeping:

* canonical ordering of index tuples with the permutation sign,
* lexicographic enumeration of the canonical tuples (the storage order),
  which lists their complements in reverse (``hodge``),
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

_MAX_BASIS = 4096  # axes or tuples FormBasis may enumerate; the largest in use is 20
_MAX_POINTS = 1 << 22  # nodes, states or angles one call may generate; the largest in use is 2^20


def require_points(count, what):
    """Refuse to generate more than _MAX_POINTS ``what``, before any is allocated."""
    if count > _MAX_POINTS:
        raise ValueError(f"{count} {what} exceed the {_MAX_POINTS} one call may generate")


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
        if max(d, math.comb(d, p)) > _MAX_BASIS:
            raise ValueError(f"a form basis takes at most {_MAX_BASIS} axes and coefficients")
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


@lru_cache(maxsize=None)
def hodge(d, p):
    """Signs of the Hodge map: the complement I^c of the a-th p-tuple I is the
    (C(d, p) - 1 - a)-th (d-p)-tuple, and ``(star A)[C(d, p) - 1 - a] =
    hodge(d, p)[a] A[a]`` with the sign of (I, I^c), (-1)^(sum I - p(p-1)/2).
    Applying star twice multiplies by (-1)^(p (d-p))."""
    return tuple((-1.0) ** (sum(I) - p * (p - 1) // 2) for I in form_basis(d, p).tuples)


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


def pullback_matrix(M, d, p):
    """Matrix of p-minors P with P[..., a, b] = minor(M, tuples[a], tuples[b]).

    Coefficients transform as B = A @ P (sum over the row tuple).
    """
    basis = form_basis(d, p)
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (d, d):
        raise ValueError(f"matrix must be {d}x{d}, got {M.shape[-2:]}")
    out = np.empty(M.shape[:-2] + (basis.size, basis.size))
    tuples = np.array(basis.tuples, dtype=np.intp).reshape(basis.size, 1, p)
    for a, I in enumerate(tuples[:, 0]):
        # row a's minors at once: the (..., C, p, p) stack of M[I, J] over J
        out[..., a, :] = _det_batch(M[..., I[:, None], tuples])
    return out


def inverse_pullback_coeffs(G, A, d, p):
    """``(A @ pullback_matrix(inv(G), d, p), det G)`` read off the minors of G.

    Jacobi's complementary-minor theorem gives every p-minor of G^-1 as
    minor(G^-1, I, J) = h_I h_J minor(G, J^c, I^c) / det G with h =
    ``hodge(d, p)``, so the (d-p)-minors of G read with both axes reversed
    line up with the p-minors of G^-1.  G^-1 is never formed.
    """
    Q = pullback_matrix(G, d, d - p)
    det = _det_batch(np.asarray(G, dtype=float))
    sign = np.array(hodge(d, p))
    B = np.einsum("...a,...ba->...b", np.asarray(A, dtype=float) * sign, Q[..., ::-1, ::-1])
    return B * (sign / det[..., None]), det


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

    Exactly the t-derivative of ``A @ pullback_matrix(expm(t N), d, p)``; in
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
