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

Hodge map.  star sends the coefficient of the a-th p-tuple I to slot
C(d, p) - 1 - a, its complement I^c, times the sign of the permutation
(I, I^c); exterior.hodge holds those signs and nothing else pairs tuples.

Momentum identification (p = d - 1).  A d-1 form is star of a momentum
d-vector m = (rho, q): A_{hat i} = (-1)^i m_i for hat i the tuple omitting
axis i, so closedness is exactly d/dt rho + div q = 0 on axes (t, x).  The
same star converts dL/dm into the coefficient-space gradient.

Electromagnetic identification (d = 4, p = 2).  With axis 0 = time,

    A_{j0} = E_j  (canonical slot (0, j) stores -E_j),
    A_{12} = B_3,  A_{13} = -B_2,  A_{23} = B_1,

i.e. the spatial slots carry star B, the degree-1 star in space: B_j (axis j + 1)
goes to the complement of j among the spatial axes with the sign hodge(3, 1)[j].
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
for G_{jK} = g read through the permutation sign of jK, which is
(-1)^(p+1) star^-1 d star g: Euler-Lagrange for L is closedness of star g.
For a closed form at constant s, (Div T)_i = - sum_K A_{iK} (div G)_K; div G
is the curl of dL/dm for p = d - 1 and (div D, curl H - d/dt D) for Maxwell.

Pullback direction.  Coefficients transform by B_J = sum_I A_I minor(M, I, J),
giving (M1 @ M2)^* = M2^* o M1^*; the infinitesimal action is its exact
t-derivative along expm(t N) (for p = 1 this is B = N^T A).  The pullback by
G^-1 is read off the complementary minors of G with no inverse formed:
minor(G^-1, I, J) = h_I h_J minor(G, J^c, I^c) / det G, Jacobi's sign
(-1)^(sum I + sum J) being the product of two signs h = hodge(d, p).

Metrics.  euclidean(d) = identity; minkowski(c) = diag(-c^2, 1, 1, 1).
"""
from __future__ import annotations

import numpy as np

from .exterior import hodge


def euclidean_metric(d):
    return np.eye(d)


def minkowski_metric(c=1.0):
    S = np.eye(4)
    S[0, 0] = -c * c
    return S


def _slots_first(A):
    # np.moveaxis(A, -1, 0) without its per-call overhead
    return A.transpose(-1, *range(A.ndim - 1))


def momentum_to_coeffs(m):
    """Scatter a momentum d-vector (or dL/dm) into d-1 form coefficients (or
    the coefficient gradient): star of degree 1, m_i to slot d - 1 - i."""
    m = np.asarray(m, dtype=float)
    d = m.shape[-1]
    out = np.zeros_like(m)
    # column by column: m[..., ::-1] * signs costs 2-3x more on a block
    for i, sign in enumerate(hodge(d, 1)):
        out[..., d - 1 - i] = sign * m[..., i]
    return out


def momentum_components(coeffs, d):
    """Momentum components from a coefficient sequence, on any arithmetic
    payload (floats, arrays, duals); the one reader of the identification."""
    return [coeffs[d - 1 - i] if sign > 0 else -coeffs[d - 1 - i]
            for i, sign in enumerate(hodge(d, 1))]


def coeffs_to_momentum(A):
    A = np.asarray(A, dtype=float)
    out = np.empty_like(A)
    # column by column: np.stack would double the cost on a few states
    for i, m_i in enumerate(momentum_components(_slots_first(A), A.shape[-1])):
        out[..., i] = m_i
    return out


# 2-form slot order for d = 4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3).  Slot j < 3 is
# (0, j + 1); slots 3-5 are the spatial 2-tuples and hold star B, the degree-1
# star in space (the momentum identification of d = 3): B_j to slot 5 - j


def em_to_coeffs(E, B):
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.empty(np.broadcast(E, B).shape[:-1] + (6,))
    for j, sign in enumerate(hodge(3, 1)):
        np.negative(E[..., j], out=out[..., j])
        np.multiply(sign, B[..., j], out=out[..., 5 - j])
    return out


def em_components(coeffs):
    """E and B as component lists from a length-6 coefficient sequence.

    Works on any arithmetic payload (floats, arrays, duals), so analytic
    model evaluation, forward-mode differentiation and ``coeffs_to_em``
    share one reader of the identification.
    """
    return [-coeffs[j] for j in range(3)], momentum_components(coeffs[3:], 3)


def coeffs_to_em(A):
    E, B = em_components(_slots_first(np.asarray(A, dtype=float)))
    return np.stack(E, axis=-1), np.stack(B, axis=-1)
