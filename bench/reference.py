"""Reference values computed apart from divfree, in plain numpy.

The benchmark samples its grid inputs from analytic fields it defines here,
so each check can be made against the analytic E, B, rho, u and s rather
than against the program's own decoding of its coefficient arrays.
"""
from __future__ import annotations

import math

import numpy as np


def _cd(arr, axis, h):
    """Central difference on interior nodes of every axis of ``arr``."""
    nd = arr.ndim
    hi = [slice(1, -1)] * nd
    lo = [slice(1, -1)] * nd
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    return (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)


def _interior(arr, nd):
    return arr[tuple([slice(1, -1)] * nd)]


def grid_coordinates(n, d):
    """Node coordinates of the unit-spaced grid (origin 0, spacing 1/n)."""
    axes = [(1.0 / n) * np.arange(n) for _ in range(d)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# vacuum plane wave in d = 4 (axis 0 is time, light speed 1)


class PlaneWave:
    """E = E0 a cos(phase), B = k x E, phase = w (k . x - t) + phi.

    Direction, polarisation, amplitude, frequency and phase come from the
    seed; every such wave solves the vacuum equations exactly.
    """

    def __init__(self, rng):
        k = rng.standard_normal(3)
        self.k = k / np.linalg.norm(k)
        e = np.cross(self.k, rng.standard_normal(3))
        self.E0 = rng.uniform(0.5, 1.5) * e / np.linalg.norm(e)
        self.B0 = np.cross(self.k, self.E0)
        self.w = rng.uniform(1.0, 3.0)
        self.phi = rng.uniform(0.0, 2 * math.pi)

    def fields(self, Y):
        amp = np.cos(self.w * (Y[..., 1:] @ self.k - Y[..., 0]) + self.phi)[..., None]
        return self.E0 * amp, self.B0 * amp


def maxwell_linear_tensor(E, B):
    """Block form of T for L = (|E|^2 - |B|^2) / 2, where D = E and H = B:

        T = [[L - E . D,  (H x E)^T],
             [D x B,      (L + B . H) I - E (x) D - H (x) B]]
    """
    D, H = E, B
    L = 0.5 * (np.einsum("...k,...k->...", E, E) - np.einsum("...k,...k->...", B, B))
    T = np.empty(E.shape[:-1] + (4, 4))
    T[..., 0, 0] = L - np.einsum("...k,...k->...", E, D)
    T[..., 0, 1:] = np.cross(H, E)
    T[..., 1:, 0] = np.cross(D, B)
    T[..., 1:, 1:] = ((L + np.einsum("...k,...k->...", B, H))[..., None, None] * np.eye(3)
                      - E[..., :, None] * D[..., None, :]
                      - H[..., :, None] * B[..., None, :])
    return T


def faraday_residual(E, B, h):
    """Max-norm of the magnetic field equations d/dt B + curl E = 0 and
    div B = 0 by central differences; axis 0 is time, axes 1..3 are space.
    Each component of d(alpha) for the field 2-form is one of these four
    scalars up to sign, so the max-norms agree."""
    def d(arr, axis):
        return _cd(arr, axis, h)

    curl = [d(E[..., 2], 2) - d(E[..., 1], 3),
            d(E[..., 0], 3) - d(E[..., 2], 1),
            d(E[..., 1], 1) - d(E[..., 0], 2)]
    worst = 0.0
    for i in range(3):
        worst = max(worst, float(np.abs(d(B[..., i], 0) + curl[i]).max()))
    div = d(B[..., 0], 1) + d(B[..., 1], 2) + d(B[..., 2], 3)
    return max(worst, float(np.abs(div).max()))


# ---------------------------------------------------------------------------
# gas contact wave in d = 2 on axes (t, x)


class ContactWave:
    """Uniform velocity u and pressure P (1 - 1/gamma) carrying a density
    wave: rho = 1 + a sin(2 pi (x - u t) + phi), q = rho u, and the entropy
    that keeps exp(mu s) rho^gamma = P.  It solves the gas equations of the
    density L = q^2 / (2 rho) - exp(mu s) rho^gamma / gamma exactly.
    """

    def __init__(self, rng, gamma=2.0, mu=1.0):
        self.gamma = gamma
        self.mu = mu
        self.a = rng.uniform(0.1, 0.3)
        self.u = rng.uniform(0.3, 0.9)
        self.phi = rng.uniform(0.0, 2 * math.pi)
        self.P = rng.uniform(0.5, 2.0)

    def rho(self, Y):
        return 1.0 + self.a * np.sin(2 * math.pi * (Y[..., 1] - self.u * Y[..., 0]) + self.phi)

    def momentum(self, Y):
        r = self.rho(Y)
        return np.stack([r, r * self.u], axis=-1)

    def entropy(self, Y):
        return (math.log(self.P) - self.gamma * np.log(self.rho(Y))) / self.mu

    def residuals(self, Y, h):
        """Max-norms of d/dt rho + d/dx q, of both rows of Div T and of
        m . grad s, all by central differences on interior nodes, with T in
        the block form

            T = [[-q^2 / (2 rho) - g,   L_rho q        ],
                 [q,                    q^2 / rho + p  ]]

        g = exp(mu s) rho^gamma / gamma, L_rho = -q^2 / (2 rho^2) - g_rho,
        p = rho g_rho - g.
        """
        rho = self.rho(Y)
        q = rho * self.u
        s = self.entropy(Y)
        scale = np.exp(self.mu * s)
        g = scale * rho ** self.gamma / self.gamma
        g_rho = scale * rho ** (self.gamma - 1.0)
        p = rho * g_rho - g
        T00 = -q * q / (2.0 * rho) - g
        T01 = (-q * q / (2.0 * rho * rho) - g_rho) * q
        T10 = q
        T11 = q * q / rho + p
        rows = [float(np.abs(_cd(T00, 0, h) + _cd(T01, 1, h)).max()),
                float(np.abs(_cd(T10, 0, h) + _cd(T11, 1, h)).max())]
        closed = float(np.abs(_cd(rho, 0, h) + _cd(q, 1, h)).max())
        transport = float(np.abs(_interior(rho, 2) * _cd(s, 0, h)
                                 + _interior(q, 2) * _cd(s, 1, h)).max())
        return {"div_rows": rows, "closedness": closed, "transport": transport}


# ---------------------------------------------------------------------------
# relativistic metric


def lam_inverse(c):
    """Inverse of Lam = diag(-c^2, 1, 1, 1)."""
    return np.diag([-1.0 / (c * c), 1.0, 1.0, 1.0])


def close(a, b, rel, floor=0.0):
    """|a - b| <= rel * max(|a|, |b|) + floor, elementwise over arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor))


def rel_gap(a, b):
    """Max entrywise difference over max(1, scale of the operands)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)
