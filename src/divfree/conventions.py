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

Pullback direction.  Coefficients transform by B_J = sum_I A_I minor(M, I, J),
giving (M1 @ M2)^* = M2^* o M1^*; the infinitesimal action is its exact
t-derivative along expm(t N) (for p = 1 this is B = N^T A).

Metrics.  euclidean(d) = identity; minkowski(c, d) = diag(-c^2, 1, ..., 1).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exterior import form_basis


def euclidean_metric(d):
    return np.eye(d)


def minkowski_metric(c=1.0, d=4):
    S = np.eye(d)
    S[0, 0] = -c * c
    return S


def _omit(i, d):
    return tuple(k for k in range(d) if k != i)


@lru_cache(maxsize=None)
def momentum_slots(d):
    """Storage slot of the tuple omitting axis i, for i = 0..d-1."""
    basis = form_basis(d, d - 1)
    return tuple(basis.index[_omit(i, d)] for i in range(d))


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


def coeffs_to_momentum(A):
    A = np.asarray(A, dtype=float)
    d = A.shape[-1]
    out = np.zeros_like(A)
    for i, slot in enumerate(momentum_slots(d)):
        out[..., i] = (-1) ** i * A[..., slot]
    return out


def momentum_components(coeffs, d):
    """Momentum components from a coefficient sequence, on any arithmetic
    payload (floats, arrays, duals); the array pair above is the fast path."""
    slots = momentum_slots(d)
    return [coeffs[slots[i]] if i % 2 == 0 else -coeffs[slots[i]]
            for i in range(d)]


# 2-form slot order for d = 4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
_EM_E_SLOTS = (0, 1, 2)
_EM_B_SLOTS = (5, 4, 3)      # B_1, B_2, B_3 live in slots (2,3),(1,3),(1,2)
_EM_B_SIGNS = (1.0, -1.0, 1.0)


def em_to_coeffs(E, B):
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.zeros(np.broadcast(E, B).shape[:-1] + (6,))
    for j in range(3):
        out[..., _EM_E_SLOTS[j]] = -E[..., j]
        out[..., _EM_B_SLOTS[j]] = _EM_B_SIGNS[j] * B[..., j]
    return out


def coeffs_to_em(A):
    A = np.asarray(A, dtype=float)
    E = np.stack([-A[..., _EM_E_SLOTS[j]] for j in range(3)], axis=-1)
    B = np.stack([_EM_B_SIGNS[j] * A[..., _EM_B_SLOTS[j]] for j in range(3)], axis=-1)
    return E, B


def em_components(coeffs):
    """E and B as component lists from a length-6 coefficient sequence.

    Works on any arithmetic payload (floats, arrays, duals), so analytic
    model evaluation and forward-mode differentiation share one code path.
    """
    E = [-coeffs[0], -coeffs[1], -coeffs[2]]
    B = [coeffs[5], -coeffs[4], coeffs[3]]
    return E, B
