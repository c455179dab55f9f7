"""Frozen sign conventions and physical identifications.

Every sign choice that could be made two ways is fixed in this module and
nowhere else.

Tensor sign.  The divergence-free tensor is defined as

    T_ij = L delta_ij - sum_K A_{iK} dL/dA_{jK}

with K running over canonical (p-1)-tuples and the concatenated tuples iK, jK
read through their permutation signs.  Some classical displays of the p = 1
case appear in the literature with the opposite overall sign
(grad u (x) dL/d(grad u) - L I); under the definition above that display is
-T.  The n-form, gas, relativistic and electromagnetic block forms below all
follow from the definition with no extra sign.

Momentum identification (p = d - 1).  A d-1 form is a momentum d-vector
m = (rho, q) through

    A_{hat i} = (-1)^i m_i,      hat i = increasing tuple omitting axis i,

so that closedness of the form is exactly the conservation law
d/dt rho + div q = 0 on axes (t, x).  The same (-1)^i scatter converts
between dL/dm and the coefficient-space gradient.

Electromagnetic identification (d = 4, p = 2).  With axis 0 = time,

    A_{j0} = E_j  (canonical slot (0, j) stores -E_j),
    A_{12} = B_3,  A_{13} = -B_2,  A_{23} = B_1,

i.e. the spatial slots carry B through the 3-index permutation signature.
Closedness of the form is the magnetic half of the field equations
(d/dt B + curl E = 0, div B = 0).  With D = dL/dE and H = -dL/dB the
coefficient-space gradient is the same identification applied to (D, -H),
em_to_coeffs(D, -H):

    g_{(0,j)} = -D_j,   g_{(1,2)} = -H_3,   g_{(1,3)} = +H_2,   g_{(2,3)} = -H_1.

Energy flux sign.  With W = E . D - L the time row of the tensor reads
T_00 = -W and T_{0j} = (H x E)_j, so row 0 of Div T equals the negative of
the Poynting residual d/dt W + div(E x H) up to rounding: the assembly sums
the products in another order than the cross product does.  The two agree
bitwise on waves with E_z = 0, such as the catalog plane wave.

Euler-Lagrange residual.  With g = dL/dA, (div G)_K = sum_j d/dy_j G_{jK}
for G_{jK} = g read through the permutation sign of jK as the tensor reads
it: row K is the degree p - 1 exterior derivative table read transposed.  For
a closed form at constant s, (Div T)_i = - sum_K A_{iK} (div G)_K; div G is
the curl of dL/dm for p = d - 1 and (div D, curl H - d/dt D) for Maxwell 2-forms.

Pullback direction.  Coefficients transform by B_J = sum_I A_I minor(M, I, J),
giving (M1 @ M2)^* = M2^* o M1^*; the infinitesimal action is its exact
t-derivative along expm(t N) (for p = 1 this is B = N^T A).  The pullback by
G^-1 is read off the complementary (d-p)-minors of G, minor(G^-1, I, J) =
(-1)^(sum I + sum J) minor(G, J^c, I^c) / det G, with no inverse formed.

Metrics.  euclidean(d) = identity; minkowski(c) = diag(-c^2, 1, 1, 1).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exterior import form_basis


def euclidean_metric(d):
    return np.eye(d)


def minkowski_metric(c=1.0):
    S = np.eye(4)
    S[0, 0] = -c * c
    return S


def _slots_first(A):
    # np.moveaxis(A, -1, 0) without its per-call overhead
    return A.transpose(-1, *range(A.ndim - 1))


@lru_cache(maxsize=None)
def momentum_slots(d):
    """Storage slot of the tuple omitting axis i, for i = 0..d-1."""
    basis = form_basis(d, d - 1)
    return tuple(basis.index[tuple(k for k in range(d) if k != i)] for i in range(d))


def momentum_to_coeffs(m):
    """Scatter a momentum d-vector into d-1 form coefficients.

    Also converts dL/dm into the coefficient-space gradient (the transform
    is its own inverse up to slot order, both directions use (-1)^i).
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[-1]
    out = np.zeros_like(m)
    for i, slot in enumerate(momentum_slots(d)):
        out[..., slot] = (-1) ** i * m[..., i]
    return out


def momentum_components(coeffs, d):
    """Momentum components from a coefficient sequence, on any arithmetic
    payload (floats, arrays, duals); the one reader of the identification."""
    slots = momentum_slots(d)
    return [coeffs[slots[i]] if i % 2 == 0 else -coeffs[slots[i]]
            for i in range(d)]


def coeffs_to_momentum(A):
    A = np.asarray(A, dtype=float)
    out = np.empty_like(A)
    # column by column: np.stack would double the cost on a few states
    for i, m_i in enumerate(momentum_components(_slots_first(A), A.shape[-1])):
        out[..., i] = m_i
    return out


# 2-form slot order for d = 4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
_EM_E_SLOTS = (0, 1, 2)
_EM_B_SLOTS = (5, 4, 3)      # B_1, B_2, B_3 live in slots (2,3),(1,3),(1,2)
_EM_B_SIGNS = (1.0, -1.0, 1.0)


def em_to_coeffs(E, B):
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.empty(np.broadcast(E, B).shape[:-1] + (6,))
    for j in range(3):
        np.negative(E[..., j], out=out[..., _EM_E_SLOTS[j]])
        np.multiply(_EM_B_SIGNS[j], B[..., j], out=out[..., _EM_B_SLOTS[j]])
    return out


def em_components(coeffs):
    """E and B as component lists from a length-6 coefficient sequence.

    Works on any arithmetic payload (floats, arrays, duals), so analytic
    model evaluation, forward-mode differentiation and ``coeffs_to_em``
    share one reader of the identification.
    """
    E = [-coeffs[k] for k in _EM_E_SLOTS]
    B = [coeffs[k] if sign > 0 else -coeffs[k]
         for k, sign in zip(_EM_B_SLOTS, _EM_B_SIGNS)]
    return E, B


def coeffs_to_em(A):
    E, B = em_components(_slots_first(np.asarray(A, dtype=float)))
    return np.stack(E, axis=-1), np.stack(B, axis=-1)
