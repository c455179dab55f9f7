"""Forward-mode dual numbers for exact first derivatives.

A Dual carries a value and one derivative channel; arithmetic propagates the
chain rule.  Payloads may be floats or numpy arrays, so a single derivative
pass vectorizes over a batch of states.  The coefficient counts in this
package are tiny (at most C(8, p)), which keeps one-pass-per-coefficient
forward mode cheap and avoids tape machinery.
"""
from __future__ import annotations

import numpy as np


class Dual:
    __slots__ = ("val", "eps")
    # keep numpy from elementwise-broadcasting over us; defer to our r-ops
    __array_ufunc__ = None

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.eps - self.val * other.eps * inv) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * self.eps * inv * inv)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pow__(self, n):
        if isinstance(n, Dual):
            return exp(n * log(self))
        # an array exponent, as an expression model makes, is the general case
        if getattr(n, "ndim", 0) == 0:
            if n == 0:
                is_array = isinstance(self.val, np.ndarray)
                return Dual(np.ones_like(self.val, dtype=float) if is_array else 1.0, 0.0)
            if isinstance(n, int) or float(n).is_integer():
                base = self.val ** (int(n) - 1)
                return Dual(base * self.val, n * base * self.eps)
        base = self.val ** (n - 1.0)  # requires positive value
        return Dual(base * self.val, n * base * self.eps)

    def __rpow__(self, other):
        return exp(self * np.log(other))


def value(x):
    """Value channel of a Dual, or x itself."""
    return x.val if isinstance(x, Dual) else x


def derivative(x, like):
    """Derivative channel of a Dual (zero for a constant), broadcast to the
    shape of ``like``."""
    eps = x.eps if isinstance(x, Dual) else 0.0
    return np.broadcast_to(np.asarray(eps, dtype=float), np.shape(like)).copy()


def _lift(f, chain):
    """The elementwise function f on plain payloads and on duals: at a Dual
    with value v and channel e the derivative channel is chain(v, f(v), e)."""
    def lifted(x):
        if not isinstance(x, Dual):
            return f(x)
        y = f(x.val)
        return Dual(y, chain(x.val, y, x.eps))
    return lifted


sqrt = _lift(np.sqrt, lambda v, r, e: 0.5 * e / r)
exp = _lift(np.exp, lambda v, y, e: y * e)
log = _lift(np.log, lambda v, y, e: e / v)
sin = _lift(np.sin, lambda v, y, e: np.cos(v) * e)
cos = _lift(np.cos, lambda v, y, e: -np.sin(v) * e)
tan = _lift(np.tan, lambda v, y, e: e / np.square(np.cos(v)))
sinh = _lift(np.sinh, lambda v, y, e: np.cosh(v) * e)
cosh = _lift(np.cosh, lambda v, y, e: np.sinh(v) * e)
tanh = _lift(np.tanh, lambda v, t, e: (1.0 - t * t) * e)
arctan = _lift(np.arctan, lambda v, y, e: e / (1.0 + v * v))


FUNCTIONS = {
    "sqrt": sqrt,
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "atan": arctan,
    "arctan": arctan,
}
