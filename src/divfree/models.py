"""Lagrangian density models over closed-form coefficients.

A model packages the scalar density L together with its exact coefficient
gradient.  Built-in families: isotropic 1-form densities, classical gas
dynamics on momentum (d-1)-forms, the relativistic gas, and electromagnetic
2-form densities.  Densities evaluate on plain floats, numpy batches, or dual
numbers through a single code path, so closed-form gradients can always be
cross-checked against forward-mode differentiation and finite differences.

The entropy argument s is carried through evaluation but is never consumed by
tensor assembly; models that ignore it simply do so.
"""
from __future__ import annotations

import ast
import inspect
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import dualnum
from .conventions import (
    coeffs_to_em,
    coeffs_to_momentum,
    em_components,
    em_to_coeffs,
    euclidean_metric,
    minkowski_metric,
    momentum_components,
    momentum_to_coeffs,
)
from .dualnum import Dual, derivative, value
from .exterior import form_basis


class EvaluationDomainError(ValueError):
    """A density was queried outside the density's domain, or produced NaN
    from finite inputs."""


class LuminalStateError(ValueError):
    """Relativistic momentum on or outside the light cone."""


class LagrangianModel:
    """A density L(A, s) with exact gradient in coefficient space.

    ``fn(comps, s)`` receives the coefficients as a list (floats, arrays or
    duals) and must return a matching scalar payload.  When no closed-form
    gradient is supplied, forward-mode duals provide one.

    The class is the model's family: ``GasModel``, ``RelativisticModel`` and
    ``MaxwellModel`` carry their physical helpers and name the state class
    of their block forms in ``state_type``; ``IsotropicModel`` and a plain
    ``LagrangianModel`` take coefficient states.  Each family that draws its
    own states overrides ``sample_states``.
    """

    state_type = None

    def __init__(self, name, d, p, fn, grad_fn=None, metric_hint=None, params=None):
        self.name = name
        self.d = d
        self.p = p
        self.basis = form_basis(d, p)
        self.n_coeffs = self.basis.size
        self._fn = fn
        self._grad_fn = grad_fn
        self.metric_hint = None if metric_hint is None else np.asarray(metric_hint, float)
        self.params = dict(params or {})

    def _coerce(self, A):
        A = np.asarray(A, dtype=float)
        if A.shape[-1] != self.n_coeffs:
            raise ValueError(
                f"model {self.name} expects {self.n_coeffs} coefficients, "
                f"got trailing axis {A.shape[-1]}")
        return A

    def evaluate(self, A, s=0.0):
        A = self._coerce(A)
        comps = [A[..., k] for k in range(self.n_coeffs)]
        return self._fn(comps, s)

    def gradient(self, A, s=0.0):
        A = self._coerce(A)
        if self._grad_fn is not None:
            return self._grad_fn(A, s)
        return _ad_gradient_core(self._fn, self.n_coeffs, A, s)

    def sample_states(self, rng, n):
        """Batch of admissible states (A, s) with shapes (n, C) and (n,)."""
        A = rng.standard_normal((n, self.n_coeffs))
        s = 0.3 * rng.standard_normal(n)
        return A, s

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} d={self.d} p={self.p}>"


def _ad_gradient_core(fn, n_coeffs, A, s):
    comps = [A[..., k] for k in range(n_coeffs)]
    cols = []
    for k in range(n_coeffs):
        seeded = [Dual(c, 1.0) if i == k else c for i, c in enumerate(comps)]
        r = fn(seeded, s)
        cols.append(derivative(r, like=value(r)))
    out = np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)
    # a NaN gradient is a domain error only at a cell whose own coefficients
    # and entropy are finite; a NaN input cell keeps its NaN gradient
    nan = np.isnan(out).any(axis=-1)
    if nan.any() and (nan & np.isfinite(A).all(axis=-1) & np.isfinite(s)).any():
        raise EvaluationDomainError(
            "gradient produced NaN from finite coefficients and entropy")
    return out


def ad_gradient(model):
    """Exact gradient of a model's density by forward-mode dual numbers,
    independent of any closed form the model carries."""
    def grad(A, s=0.0):
        A = model._coerce(A)
        return _ad_gradient_core(model._fn, model.n_coeffs, A, s)
    return grad


def finite_difference_gradient(model, A, s=0.0):
    """Second-order central differences with per-coefficient step
    h_k = 1e-6 (1 + |A_k|); a cross-check, not a primary path."""
    A = model._coerce(A)
    out = np.zeros_like(A)
    for k in range(model.n_coeffs):
        h = 1e-6 * (1.0 + np.abs(A[..., k]))
        up = A.copy()
        up[..., k] += h
        dn = A.copy()
        dn[..., k] -= h
        out[..., k] = (model.evaluate(up, s) - model.evaluate(dn, s)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# physical states


@dataclass
class GasState:
    rho: float
    q: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        self.rho = float(self.rho)
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if self.rho <= 0:
            raise ValueError("mass density must be positive")

    @property
    def m(self):
        return np.concatenate([[self.rho], self.q])

    @property
    def coeffs(self):
        return momentum_to_coeffs(self.m)


@dataclass
class RelativisticState:
    m: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.shape != (4,):
            raise ValueError("relativistic momentum must be a 4-vector")

    @property
    def coeffs(self):
        return momentum_to_coeffs(self.m)


@dataclass
class EMState:
    E: np.ndarray
    B: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.E.shape != (3,) or self.B.shape != (3,):
            raise ValueError("E and B must be 3-vectors")

    @property
    def coeffs(self):
        return em_to_coeffs(self.E, self.B)


# ---------------------------------------------------------------------------
# isotropic 1-form densities


class IsotropicModel(LagrangianModel):
    """L = profile(|A|) on 1-forms; invariant under every rotation of the
    coefficient vector.  ``slope_over_r(r)`` is the exact factor
    (d profile/dr)/r of the gradient."""

    def __init__(self, d, profile, slope_over_r, name):
        self.profile = profile
        self.slope_over_r = slope_over_r
        super().__init__(name, d, 1, self._density, grad_fn=self._radial_gradient,
                         metric_hint=euclidean_metric(d), params={"d": d})

    def _density(self, comps, s):
        r2 = comps[0] * comps[0]
        for c in comps[1:]:
            r2 = r2 + c * c
        return self.profile(dualnum.sqrt(r2))

    def _radial_gradient(self, A, s):
        r = np.sqrt(np.einsum("...k,...k->...", A, A))
        return self.slope_over_r(r)[..., None] * A

    def sample_states(self, rng, n):
        A = rng.standard_normal((n, self.d))
        norms = np.linalg.norm(A, axis=-1)
        while (norms < 0.2).any():
            bad = norms < 0.2
            A[bad] = rng.standard_normal((int(bad.sum()), self.d))
            norms = np.linalg.norm(A, axis=-1)
        return A, 0.3 * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# classical gas dynamics (momentum (d-1)-forms, axes t, x_1..x_n)


def polytropic_energy(gamma=2.0, mu=0.0):
    """Internal energy density g(rho, s) = exp(mu s) rho^gamma / gamma."""
    if gamma <= 1.0:
        raise ValueError("polytropic exponent must exceed 1")

    def g(rho, s):
        scale = dualnum.exp(mu * s) if mu != 0.0 else 1.0
        return scale * rho ** gamma / gamma

    return g


def _rho_derivative(f, rho, s):
    """d f(rho, s) / d rho by one dual pass, shaped like rho."""
    return derivative(f(Dual(np.asarray(rho, dtype=float) + 0.0, 1.0), s), like=rho)


def _require_positive_density(rho):
    # NaN passes: it is not <= 0, and it stays visible in the residuals
    if np.any(np.asarray(rho) <= 0.0):
        raise EvaluationDomainError("mass density must be positive")


class GasModel(LagrangianModel):
    """L = |q|^2 / (2 rho) - g(rho, s) on momentum forms m = (rho, q), d = n + 1.

    The kinetic part is homogeneous of degree one in m, so the scalar in the
    closed n-form tensor collapses to the pressure rho g_rho - g.
    """

    state_type = GasState

    def __init__(self, n, internal_energy, name, params):
        self.internal_energy = internal_energy
        super().__init__(name, n + 1, n, self._density, grad_fn=self._coeff_gradient,
                         params=dict(params, n=n))

    def _density(self, comps, s):
        m = momentum_components(comps, self.d)
        rho = m[0]
        _require_positive_density(value(rho))
        q2 = 0.0
        for qi in m[1:]:
            q2 = q2 + qi * qi
        return q2 / (2.0 * rho) - self.internal_energy(rho, s)

    def _coeff_gradient(self, A, s):
        return momentum_to_coeffs(self.m_gradient(coeffs_to_momentum(A), s))

    def g_rho(self, rho, s):
        return _rho_derivative(self.internal_energy, rho, s)

    def m_gradient(self, m, s):
        m = np.asarray(m, dtype=float)
        rho = m[..., 0]
        _require_positive_density(rho)
        q = m[..., 1:]
        q2 = np.einsum("...k,...k->...", q, q)
        out = np.empty_like(m)
        out[..., 0] = -q2 / (2.0 * rho * rho) - self.g_rho(rho, s)
        out[..., 1:] = q / rho[..., None]
        return out

    def pressure(self, rho, s=0.0):
        rho = np.asarray(rho, dtype=float)
        return rho * self.g_rho(rho, s) - self.internal_energy(rho, s)

    def pressure_entropy_derivative(self, rho, s=0.0):
        # nested duals would conflate channels; one central difference in s
        h = 1e-6 * (1.0 + np.abs(s))
        return (self.pressure(rho, s + h) - self.pressure(rho, s - h)) / (2.0 * h)

    def sample_states(self, rng, n):
        rho = rng.uniform(0.3, 2.0, n)
        q = rng.standard_normal((n, self.d - 1))
        m = np.concatenate([rho[:, None], q], axis=1)
        return momentum_to_coeffs(m), 0.3 * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# relativistic gas (momentum 3-forms in d = 4)


class RelativisticModel(LagrangianModel):
    """L = profile(rho, s) with rho = sqrt(-m^T Lam m), Lam = diag(-c^2, 1, 1, 1).

    States must be strictly inside the light cone; the 4-velocity u = m / rho
    satisfies u^T Lam u = -1 (at rest u_0 = 1/c).  ``Lam_inv`` is Lam^{-1},
    inverted once per model.  A power-law exponent
    ``kappa``, when the profile has one, is recorded in ``params``.
    """

    state_type = RelativisticState

    def __init__(self, profile, c=1.0, name="relativistic", params=None):
        if not c > 0.0:
            raise ValueError(f"light speed c must be positive, not {c!r}")
        self.profile = profile
        self.c = c
        self.Lam = minkowski_metric(c)
        self.Lam_inv = np.linalg.inv(self.Lam)
        super().__init__(name, 4, 3, self._density, grad_fn=self._coeff_gradient,
                         metric_hint=self.Lam, params=dict(params or {}, c=c))

    def _density(self, comps, s):
        m = momentum_components(comps, self.d)
        c = self.c
        r2 = (c * c) * m[0] * m[0]
        for mi in m[1:]:
            r2 = r2 - mi * mi
        if np.any(value(r2) <= 0.0):
            raise LuminalStateError("momentum is not strictly sub-luminal")
        return self.profile(dualnum.sqrt(r2), s)

    def _coeff_gradient(self, A, s):
        return momentum_to_coeffs(self.m_gradient(coeffs_to_momentum(A), s))

    def rho_sq(self, m):
        """rho^2 = c^2 m_0^2 - |m_1..3|^2, positive inside the light cone."""
        m = np.asarray(m, dtype=float)
        q2 = np.einsum("...k,...k->...", m[..., 1:], m[..., 1:])
        return (self.c * self.c) * m[..., 0] ** 2 - q2

    def rho_of(self, m):
        r2 = self.rho_sq(m)
        if np.any(r2 <= 0.0):
            raise LuminalStateError("momentum is not strictly sub-luminal")
        return np.sqrt(r2)

    def profile_rho(self, rho, s):
        return _rho_derivative(self.profile, rho, s)

    def m_gradient(self, m, s):
        m = np.asarray(m, dtype=float)
        rho = self.rho_of(m)
        lam_m = np.einsum("ij,...j->...i", self.Lam, m)
        return -(self.profile_rho(rho, s) / rho)[..., None] * lam_m

    def pressure(self, rho, s=0.0):
        rho = np.asarray(rho, dtype=float)
        return rho * self.profile_rho(rho, s) - self.profile(rho, s)

    def sample_states(self, rng, n):
        ms = rng.standard_normal((n, 3))
        rho = rng.uniform(0.3, 2.0, n)
        m0 = np.sqrt(rho ** 2 + np.einsum("ij,ij->i", ms, ms)) / self.c
        m = np.concatenate([m0[:, None], ms], axis=1)
        return momentum_to_coeffs(m), 0.3 * rng.standard_normal(n)


def model_relativistic_powerlaw(kappa=4.0 / 3.0, c=1.0, mu=0.0,
                                name="relativistic-powerlaw"):
    """Power-law profile L = exp(mu s) rho^kappa; pressure = (kappa - 1) e c^2.

    kappa = 4/3 is the ultra-relativistic equation of state.
    """
    if mu == 0.0:
        profile = lambda rho, s: rho ** kappa
    else:
        profile = lambda rho, s: dualnum.exp(mu * s) * rho ** kappa
    return RelativisticModel(profile, c=c, name=name,
                             params={"kappa": kappa, "mu": mu})


def model_relativistic_limit(c=1.0):
    """L = rho^2, the boundary case kappa = 2 where genuine jumps are forced
    onto light-like interfaces."""
    return RelativisticModel(lambda rho, s: rho * rho, c=c, name="relativistic-limit",
                             params={"kappa": 2.0})


# ---------------------------------------------------------------------------
# electromagnetic 2-form densities (d = 4)


class MaxwellModel(LagrangianModel):
    """Density over the electromagnetic decomposition of a 2-form.

    ``lag_eb(E, B, s)`` receives E and B as component lists; ``material``
    returns the closed-form fields (D, H) for batched arrays.
    """

    state_type = EMState

    def __init__(self, lag_eb, material, name="maxwell", params=None):
        self.lag_eb = lag_eb
        self.material = material
        super().__init__(name, 4, 2, lambda comps, s: lag_eb(*em_components(comps), s),
                         grad_fn=self._material_gradient,
                         metric_hint=minkowski_metric(1.0), params=dict(params or {}))

    def _material_gradient(self, A, s):
        E, B = coeffs_to_em(A)
        D, H = self.material(E, B, s)
        return em_to_coeffs(D, -H)

    def fields(self, E, B, s=0.0):
        """Material response (D, H) and W = E . D - L, with L from lag_eb on E and B."""
        E = np.asarray(E, dtype=float)
        B = np.asarray(B, dtype=float)
        D, H = self.material(E, B, s)
        L = self.lag_eb([E[..., j] for j in range(3)], [B[..., j] for j in range(3)], s)
        W = np.einsum("...k,...k->...", E, D) - L
        return np.asarray(D, float), np.asarray(H, float), W

    def sample_states(self, rng, n):
        E = rng.standard_normal((n, 3))
        B = rng.standard_normal((n, 3))
        return em_to_coeffs(E, B), 0.3 * rng.standard_normal(n)


def _em_x(E, B):
    """The invariant X = (|E|^2 - |B|^2) / 2 of component lists."""
    X = 0.0
    for e in E:
        X = X + e * e
    for b in B:
        X = X - b * b
    return 0.5 * X


def model_maxwell_linear():
    """Vacuum density L = X = (|E|^2 - |B|^2) / 2, so D = E and H = B."""
    def material(E, B, s):
        return E, B

    return MaxwellModel(lambda E, B, s: _em_x(E, B), material=material,
                        name="maxwell-linear")


def _em_invariants(E, B):
    Y = 0.0
    for e, b in zip(E, B):
        Y = Y + e * b
    return _em_x(E, B), Y


def model_maxwell_lorentz():
    """L = F(X, Y) = X + a X^2 + b Y^2 + cxy X Y in the two frame invariants
    X = (|E|^2 - |B|^2)/2 and Y = E . B; a density of the invariants alone
    has a symmetric corrected tensor."""
    a, b, cxy = 0.05, 0.07, 0.03
    F = lambda X, Y, s: X + a * X * X + b * Y * Y + cxy * X * Y

    def lag(E, B, s):
        X, Y = _em_invariants(E, B)
        return F(X, Y, s)

    def material(E, B, s):
        X, Y = _em_invariants([E[..., j] for j in range(3)],
                              [B[..., j] for j in range(3)])
        FX = derivative(F(Dual(X + 0.0, 1.0), Y, s), like=X)
        FY = derivative(F(X, Dual(Y + 0.0, 1.0), s), like=Y)
        D = FX[..., None] * E + FY[..., None] * B
        H = FX[..., None] * B - FY[..., None] * E
        return D, H

    return MaxwellModel(lag, material=material, name="maxwell-lorentz",
                        params={"a": a, "b": b, "cxy": cxy})


def model_maxwell_anisotropic():
    """L = |E|^2: a frame-anisotropic density used as the broken-symmetry
    counterexample (D = 2E, H = 0)."""
    def lag(E, B, s):
        acc = 0.0
        for e in E:
            acc = acc + e * e
        return acc

    def material(E, B, s):
        return 2.0 * E, np.zeros_like(B)

    return MaxwellModel(lag, material=material, name="maxwell-anisotropic")


# ---------------------------------------------------------------------------
# expression-defined densities


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


def _compile_expression(expr, names):
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {expr!r}: {exc.msg}") from None

    def build(node):
        # check one node and return its closure env -> value
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ValueError(f"operator {type(node.op).__name__} not allowed")
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub)):
                raise ValueError("only unary +/- allowed")
            operand = build(node.operand)
            if isinstance(node.op, ast.UAdd):
                return operand
            return lambda env: -operand(env)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in dualnum.FUNCTIONS:
                raise ValueError("only whitelisted functions allowed")
            if node.keywords or len(node.args) != 1:
                raise ValueError("functions take one positional argument")
            fn, arg = dualnum.FUNCTIONS[node.func.id], build(node.args[0])
            return lambda env: fn(arg(env))
        if isinstance(node, ast.Name):
            key = node.id
            if key in names:
                return lambda env: env[key]
            if key not in _CONSTANTS:
                raise ValueError(f"unknown name {key!r}")
            constant = _CONSTANTS[key]
            return lambda env: constant
        if isinstance(node, ast.Constant):
            # IEEE doubles, so 1/0 and 2.0^2000 give inf, not a Python error
            if type(node.value) not in (int, float):
                raise ValueError("only numeric constants allowed")
            try:
                constant = np.float64(node.value)
            except OverflowError:  # an integer literal past the largest double
                constant = np.float64(np.inf)
            return lambda env: constant
        raise ValueError(f"syntax {type(node).__name__} not allowed")

    return build(tree.body)


def model_from_expression(expr, d, p):
    """Density from an expression string over the canonical coefficient names
    (A0, A01, ...) and s; operators + - * / ^ and whitelisted functions."""
    names = ["A" + name for name in form_basis(d, p).names]
    compiled = _compile_expression(expr, set(names) | {"s"})

    def fn(comps, s):
        env = dict(zip(names, comps))
        env["s"] = s
        out = compiled(env)
        if not isinstance(out, (Dual, np.ndarray)):
            out = out + 0.0 * comps[0]  # broadcast constants over the batch
        return out

    return LagrangianModel("user-expr", d, p, fn,
                           params={"expr": expr, "d": d, "p": p})


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ModelEntry:
    factory: object
    summary: str

    @property
    def defaults(self):
        """The factory's parameters with their default values."""
        return {k: v.default for k, v in inspect.signature(self.factory).parameters.items()}


def _integer(key, value):
    """An integer-valued parameter as an int; int() alone would truncate
    n = 1.5 to 1 and build a model nobody asked for."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"parameter {key} must be an integer, not {value!r}")


def _typed(key, value, default):
    """A parameter cast to its default's type: an int default takes an
    integer, a float default a finite real number (not a bool), and a None
    default is left to the factory."""
    if isinstance(default, int):
        return _integer(key, value)
    if isinstance(default, float):
        # abs(value) <= the largest double is False for NaN, inf and an
        # integer too large for a double
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
        raise ValueError(f"parameter {key} must be a finite number, not {value!r}")
    return value


def _polytropic_gas(name, n, gamma, mu):
    return GasModel(n=n, internal_energy=polytropic_energy(gamma, mu),
                    name=name, params={"gamma": gamma, "mu": mu})


def _user_expr_factory(expr=None, d=None, p=None):
    if expr is None or d is None or p is None:
        raise ValueError("user-expr requires expr, d and p parameters")
    return model_from_expression(str(expr), _integer("d", d), _integer("p", p))


REGISTRY = {
    "iso-p1": ModelEntry(lambda d=2: IsotropicModel(
                             d, lambda r: 0.5 * r * r,
                             lambda r: np.ones_like(np.asarray(r, dtype=float)), "iso-p1"),
                         "isotropic 1-form density L = |A|^2 / 2"),
    # slope/r = 1/sqrt(1 + r^2) is smooth through the origin
    "minimal-surface": ModelEntry(lambda d=3: IsotropicModel(
                                      d, lambda r: dualnum.sqrt(1.0 + r * r),
                                      lambda r: 1.0 / np.sqrt(1.0 + r * r), "minimal-surface"),
                                  "area integrand L = sqrt(1 + |A|^2)"),
    "gas": ModelEntry(lambda n=1, gamma=2.0, mu=0.0: _polytropic_gas("gas", n, gamma, mu),
                      "gas dynamics, L = |q|^2/(2 rho) - g(rho, s)"),
    "gas-polytropic": ModelEntry(lambda n=3, gamma=1.4, mu=1.0:
                                 _polytropic_gas("gas-polytropic", n, gamma, mu),
                                 "gas dynamics with entropy-coupled polytropic g"),
    "relativistic": ModelEntry(lambda kappa=1.5, c=1.0: model_relativistic_powerlaw(
                                   kappa=kappa, c=c, name="relativistic"),
                               "relativistic gas, L = rho^kappa"),
    "relativistic-powerlaw": ModelEntry(lambda kappa=4.0 / 3.0, c=1.0, mu=0.0:
                                        model_relativistic_powerlaw(kappa, c, mu),
                                        "power-law relativistic gas, p = (kappa-1) e c^2"),
    "relativistic-limit": ModelEntry(lambda c=1.0: model_relativistic_limit(c),
                                     "limit case L = rho^2 (light-like jumps)"),
    "maxwell-linear": ModelEntry(lambda: model_maxwell_linear(),
                                 "vacuum electromagnetism, L = (|E|^2 - |B|^2)/2"),
    "maxwell-lorentz": ModelEntry(lambda: model_maxwell_lorentz(),
                                  "nonlinear density in the frame invariants"),
    "maxwell-anisotropic": ModelEntry(lambda: model_maxwell_anisotropic(),
                                      "L = |E|^2, breaks the corrected symmetry"),
    "user-expr": ModelEntry(_user_expr_factory, "density from an expression string"),
}


def build_model(name, params=None):
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(REGISTRY)}")
    entry = REGISTRY[name]
    defaults = entry.defaults
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"model {name} has no parameter {', '.join(unknown)}; "
                         f"it takes {', '.join(defaults) or 'none'}")
    return entry.factory(**{k: _typed(k, v, defaults[k]) for k, v in params.items()})


def list_models():
    out = []
    for name, entry in REGISTRY.items():
        out.append({"name": name, "summary": entry.summary,
                    "defaults": dict(entry.defaults)})
    return out
