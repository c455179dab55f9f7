"""Catalog of sampled fields with known verification outcomes.

Every case builds grids at a requested resolution n (spacing 1/n on each
axis), so halving the spacing means doubling n and refinement orders are
clean log2 ratios.  Expected outcomes are part of the catalog: residuals
that vanish identically, residuals that shrink at second order, and
counterexamples whose residuals stay above a floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualnum
from .conventions import em_to_coeffs, momentum_to_coeffs
from .exterior import exterior_derivative_table, form_basis, require_points
from .fields import (
    GridField,
    VariationField,
    closedness_residual,
    div_T_residual,
    entropy_transport_residual,
    euler_lagrange_rows,
    first_variation,
    observed_orders,
)
from .models import LagrangianModel, build_model


@dataclass(frozen=True)
class ManufacturedCase:
    """A catalog case on the n^d grid of spacing 1/n: ``fn`` gives its degree-p
    coefficients at the nodes, ``entropy_fn`` its entropy, if any, and
    ``model`` the registry (name, params) the kind's residual reads, None for
    closedness.  ``bound`` is the floor of a floor case, the tol of a zero
    case and None for an order-2 case."""

    name: str
    kind: str          # divergence | closedness | entropy | euler-lagrange
    expected: str      # zero | order2 | floor
    bound: float | None
    description: str
    d: int
    p: int
    fn: object
    model: tuple | None = None
    entropy_fn: object = None

    def build(self, n):
        """(model, grid) at n nodes an axis; the model is None for closedness."""
        grid = GridField.from_function(self.fn, self.d, self.p, (n,) * self.d,
                                       (1.0 / n,) * self.d, entropy_fn=self.entropy_fn)
        return None if self.model is None else build_model(*self.model), grid


# oblique propagation direction: an axis-aligned light-speed wave makes the
# central-difference stencils cancel exactly, leaving nothing to refine
_WAVE_K = np.array([1.0, 2.0, 2.0]) / 3.0
_WAVE_E = np.array([2.0, -1.0, 0.0]) / math.sqrt(5.0)
_WAVE_B = np.cross(_WAVE_K, _WAVE_E)


def _plane_wave(Y):
    phase = Y[..., 1:] @ _WAVE_K - Y[..., 0]
    amp = np.cos(phase)[..., None]
    return em_to_coeffs(_WAVE_E * amp, _WAVE_B * amp)


def _uniform_momentum(m):
    """The constant momentum form m at every node."""
    A = momentum_to_coeffs(np.asarray(m, dtype=float))
    return lambda Y: np.broadcast_to(A, Y.shape[:-1] + A.shape).copy()


def _gas_imbalance(Y):
    # time-independent density with zero flux: closed, but the pressure
    # gradient in the spatial row of Div T never decays
    rho = 1.0 + Y[..., 1] ** 2
    return momentum_to_coeffs(np.stack([rho, np.zeros_like(rho)], axis=-1))


def _closed_cubic(Y):
    # gradient of a quartic potential: cubic components, so the central
    # difference is off by exactly h^2 in the third-derivative terms
    x0, x1, x2 = Y[..., 0], Y[..., 1], Y[..., 2]
    return np.stack([3 * x0 ** 2 * x1 + x2 ** 3,
                     x0 ** 3 + 3 * x1 ** 2 * x2,
                     x1 ** 3 + 3 * x2 ** 2 * x0], axis=-1)


def _potential_flow(Y):
    # v = psi_x for psi = -2 t + 0.3 sin(2 x1 + t / 2), and Bernoulli's law
    # fixes rho = -psi_t - v^2 / 2 (g_rho = rho at gamma = 2), so that
    # dL/dm = (-v^2 / 2 - g_rho, v) is the spacetime gradient of psi
    phase = 2.0 * Y[..., 1] + 0.5 * Y[..., 0]
    v = 0.6 * np.cos(phase)
    rho = 2.0 - 0.15 * np.cos(phase) - 0.5 * v * v
    return momentum_to_coeffs(np.stack([rho, rho * v], axis=-1))


CASES = {case.name: case for case in (
    ManufacturedCase(
        "maxwell-plane-wave", "divergence", "order2", None,
        "vacuum wave along (1, 2, 2) / 3 with E, B transverse; every row decays at order 2",
        4, 2, _plane_wave, ("maxwell-linear", {})),
    ManufacturedCase(
        "uniform-gas", "divergence", "zero", 1e-12,
        "constant (rho, q): all differences vanish identically",
        2, 1, _uniform_momentum([1.3, 0.4]), ("gas", {}), lambda Y: np.full(Y.shape[:-1], 0.2)),
    ManufacturedCase(
        "uniform-relativistic", "divergence", "zero", 1e-13,
        "constant timelike momentum: all differences vanish identically",
        4, 3, _uniform_momentum([2.0, 0.3, -0.1, 0.2]), ("relativistic", {})),
    ManufacturedCase(
        "gas-pressure-imbalance", "divergence", "floor", 0.5,
        "rho = 1 + x1^2 at rest: closed but not a solution; spatial row holds the pressure gradient",
        2, 1, _gas_imbalance, ("gas", {})),
    ManufacturedCase(
        "closed-cubic", "closedness", "order2", None,
        "gradient of a quartic potential; closedness residual is exactly h^2",
        3, 1, _closed_cubic),
    # entropy-coupled g so the nondegeneracy factor d p / d s is nonzero
    ManufacturedCase(
        "advected-entropy", "entropy", "order2", None,
        "s = sin(x - 0.7 t) riding on m = (1, 0.7): transport holds at order 2",
        2, 1, _uniform_momentum([1.0, 0.7]), ("gas", {"mu": 1.0}),
        lambda Y: np.sin(Y[..., 1] - 0.7 * Y[..., 0])),
    ManufacturedCase(
        "entropy-shear", "entropy", "floor", 0.9,
        "s = x1 against m = (1, 1): transport residual is exactly 1",
        2, 1, _uniform_momentum([1.0, 1.0]), ("gas", {"mu": 1.0}), lambda Y: Y[..., 1]),
    ManufacturedCase(
        "potential-flow-uniform", "euler-lagrange", "zero", 1e-12,
        "constant m = (1, 1): dL/dm is constant, so div G vanishes identically",
        2, 1, _uniform_momentum([1.0, 1.0]), ("gas", {})),
    ManufacturedCase(
        "potential-flow-unsteady", "euler-lagrange", "order2", None,
        "psi = -2 t + 0.3 sin(2 x1 + t / 2), rho from Bernoulli's law: dL/dm = grad psi, "
        "div G decays at order 2",
        2, 1, _potential_flow, ("gas", {})),
)}


def list_cases():
    return sorted(CASES)


def _case(name):
    """The catalog case of this name; a KeyError names the choices."""
    if name not in CASES:
        raise KeyError(f"unknown case {name!r}; choices: {', '.join(list_cases())}")
    return CASES[name]


def run_case(name, n):
    """Evaluate one catalog case at resolution n and report its residuals."""
    case = _case(name)
    if n < 3:
        raise ValueError("need at least 3 nodes per axis for interior differences")
    model, grid = case.build(n)
    report = {"case": name, "kind": case.kind, "n": n,
              "expected": case.expected, "description": case.description}
    if case.bound is not None:
        report["floor" if case.expected == "floor" else "tol"] = case.bound
    if case.kind == "closedness":
        report["residual"] = float(closedness_residual(grid))
    elif case.kind == "entropy":
        report.update(entropy_transport_residual(model, grid))
    else:
        rows = (div_T_residual(model, grid) if case.kind == "divergence" else
                np.abs(euler_lagrange_rows(model, grid)).max(axis=tuple(range(grid.d))))
        report["rows"] = [float(r) for r in rows]
        report["residual"] = float(rows.max())
    return report


def _ladder(d, resolutions):
    """The levels as a list, each level's n^d nodes bounded as it is read:
    the first too large ends the ladder before a later level is formed."""
    levels = []
    for n in resolutions:
        require_points(n ** d, "grid nodes")
        levels.append(n)
    return levels


def case_refinement(name, resolutions):
    """Residuals across resolutions plus observed orders between neighbours."""
    ns = _ladder(_case(name).d, resolutions)
    reports = [run_case(name, n) for n in ns]
    residuals = [r["residual"] for r in reports]
    return {"case": name, "resolutions": ns,
            "residuals": residuals, "orders": observed_orders(residuals), "reports": reports}


# ---------------------------------------------------------------------------
# randomized closed fields and variations for the first-variation study


def closed_trig_form(d, p, seed, modes=2):
    """Analytic closed degree-p field: the exterior derivative of a random
    trigonometric degree-(p-1) potential plus constants.  Mode vectors have
    entries in {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    C = form_basis(d, p).size
    consts = rng.uniform(-0.5, 0.5, C)
    if p == d:
        k = rng.integers(-1, 2, d)
        if not k.any():
            k[0] = 1
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2 * math.pi)

        def fn(Y):
            out = np.empty(Y.shape[:-1] + (1,))
            out[..., 0] = consts[0] + amp * np.sin(2 * math.pi * (Y @ k) + phase)
            return out

        return fn

    lower = form_basis(d, p - 1)
    ks = np.empty((lower.size, modes, d), dtype=int)
    amps = rng.uniform(0.3, 1.0, (lower.size, modes))
    phases = rng.uniform(0.0, 2 * math.pi, (lower.size, modes))
    for a in range(lower.size):
        for m in range(modes):
            k = rng.integers(-1, 2, d)
            if not k.any():
                k[0] = 1
            ks[a, m] = k
    table = exterior_derivative_table(d, p - 1)
    basis = form_basis(d, p)

    def fn(Y):
        # each (slot, mode) cosine feeds every derivative of its slot
        cos = [[np.cos(2 * math.pi * (Y @ ks[slot, m]) + phases[slot, m])
                for m in range(modes)] for slot in range(lower.size)]

        def grad_lower(slot, axis):
            # d/dy_axis of the potential component in this slot
            out = 0.0
            for m in range(modes):
                out = out + amps[slot, m] * 2 * math.pi * ks[slot, m, axis] * cos[slot][m]
            return out

        out = np.zeros(Y.shape[:-1] + (basis.size,))
        for J, terms in table:
            col = basis.index[J]
            acc = 0.0
            for axis, slot, sign in terms:
                acc = acc + sign * grad_lower(slot, axis)
            out[..., col] = acc + consts[col]
        return out

    return fn


def bump_variation(d, dims, spacing, seed, support=(0.15, 0.7)):
    """Smooth compactly supported velocity field for flow variations:
    a product of per-axis bumps times per-component trig modulation.

    Each axis bump is the C^3 profile ((x-a)(b-x))^4, normalized to peak 1.
    The quartic seam keeps the third derivative continuous, so the seam
    contributes only at fourth order to central-difference sums and the
    interior h^2 term always dominates refinement studies.

    The default support keeps a two-node margin free down to 7 nodes per
    axis while staying as wide (hence as gently curved) as possible.
    """
    rng = np.random.default_rng(seed)
    a, b = support
    cs = rng.uniform(0.5, 1.0, d) * rng.choice([-1.0, 1.0], d)
    ks = rng.integers(-1, 2, (d, d))
    phases = rng.uniform(0.0, 2 * math.pi, d)
    mid = ((b - a) / 2.0) ** 8

    def func_jac(Y):
        # the clamp zeroes each profile and its derivative off the support
        ys = [np.maximum((Y[..., ax] - a) * (b - Y[..., ax]), 0.0) for ax in range(d)]
        bumps = []
        for y in ys:
            y2 = y * y
            bumps.append(y2 * y2 / mid)
        prod = bumps[0]
        for bump in bumps[1:]:
            prod = prod * bump
        args = [2 * math.pi * (Y @ ks[i]) + phases[i] for i in range(d)]
        mods = [cs[i] + 0.5 * np.sin(arg) for i, arg in enumerate(args)]
        value = np.stack([prod * mod for mod in mods], axis=-1)
        prod_d = []
        for j, y in enumerate(ys):
            dp = 4.0 * (y * y * y) * ((a + b) - 2.0 * Y[..., j]) / mid
            for ax in range(d):
                if ax != j:
                    dp = dp * bumps[ax]
            prod_d.append(dp)
        # filled component-major, so each entry is one contiguous row
        jac = np.empty((d, d) + Y.shape[:-1])
        for i in range(d):
            # d/darg of 0.5 sin is 0.5 cos; the chain factor 2 pi k_ij is
            # an add, a subtract or nothing since k_ij is -1, 0 or 1
            prod_dmod = prod * (math.pi * np.cos(args[i]))
            for j in range(d):
                col = np.multiply(prod_d[j], mods[i], out=jac[i, j, ...])
                if ks[i, j] > 0:
                    col += prod_dmod
                elif ks[i, j] < 0:
                    col -= prod_dmod
        return value, np.moveaxis(jac, (0, 1), (-2, -1))

    return VariationField(tuple(dims), spacing, (0.0,) * d, func_jac)


def study_model(d, p, seed):
    """Generic smooth nonquadratic density for the variation study:
    L = A^T Q A / 2 + sqrt(1 + |A|^2) + 0.2 s (w . A)."""
    rng = np.random.default_rng(seed)
    C = form_basis(d, p).size
    Q = rng.standard_normal((C, C))
    Q = 0.5 * (Q + Q.T) / C
    w = rng.standard_normal(C)

    def fn(comps, s):
        quad = 0.0
        norm2 = 0.0
        lin = 0.0
        for aa in range(C):
            norm2 = norm2 + comps[aa] * comps[aa]
            lin = lin + w[aa] * comps[aa]
            for bb in range(C):
                quad = quad + Q[aa, bb] * comps[aa] * comps[bb]
        return 0.5 * quad + dualnum.sqrt(1.0 + norm2) + 0.2 * s * lin

    def grad_fn(A, s):
        A = np.asarray(A, dtype=float)
        root = np.sqrt(1.0 + np.einsum("...a,...a->...", A, A))
        return A @ Q + A / root[..., None] + 0.2 * np.asarray(s, dtype=float)[..., None] * w

    return LagrangianModel(f"study-d{d}p{p}", d, p, fn, grad_fn=grad_fn)


def variation_study(d, p, seed=0, levels=3, n0=8, eps0=0.01):
    """Joint (h, eps) -> (h/2, eps/2) refinement of the discrete first
    variation against the tensor pairing; the gap should shrink at order 2.

    The variation support snaps to nodes of the coarsest grid, so every
    refinement sees the same seam geometry and the error expansion in h
    stays clean.  That support holds a node from n0 = 6 on; a smaller n0,
    a zero or non-finite eps0, d < 1 and p outside 1..d are ValueErrors.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, not {d}")
    if not 1 <= p <= d:
        raise ValueError(f"p must be in 1..{d}, not {p}")
    if n0 < 6:
        raise ValueError(f"n0 must be at least 6, not {n0}: the support holds no node")
    if eps0 == 0 or not math.isfinite(eps0):
        raise ValueError(f"eps0 must be a nonzero finite number, not {eps0}")
    model = study_model(d, p, seed)
    ns = _ladder(d, (n0 * (1 << level) for level in range(levels)))
    field_fn = closed_trig_form(d, p, seed + 101)
    # nudge inward so margin nodes stay strictly outside despite rounding
    support = (2.0 / n0 + 1e-12, (n0 - 2.0) / n0 - 1e-12)
    rows = []
    for level, n in enumerate(ns):
        eps = eps0 / (1 << level)
        dims = (n,) * d
        spacing = (1.0 / n,) * d
        grid = GridField.from_function(
            field_fn, d, p, dims, spacing,
            entropy_fn=lambda Y: np.sin(2 * math.pi * Y[..., 0]) * 0.5)
        var = bump_variation(d, dims, spacing, seed + 202, support=support)
        numeric, pairing = first_variation(model, grid, var, eps)
        rows.append({"n": n, "eps": eps, "numeric": numeric,
                     "pairing": pairing, "error": abs(numeric - pairing)})
    orders = observed_orders([r["error"] for r in rows])
    return {"d": d, "p": p, "seed": seed, "levels": rows, "orders": orders}
