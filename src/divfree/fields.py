"""Sampled-field verification: closedness, divergence, variations, jumps.

Fields live on uniform node grids with axis 0 playing time.  All derivatives
are second-order central differences evaluated on interior nodes only, so
every residual here converges at order 2 for smooth fields; refinement
helpers measure that order.  Nothing in this module solves a PDE; it checks
algebraic and differential identities on sampled data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .conventions import coeffs_to_em, coeffs_to_momentum, momentum_to_coeffs
from .exterior import (
    exterior_derivative_table,
    form_basis,
    pullback_coeffs,
)
from .models import RelativisticModel
from .tensors import _cross, general_tensor_array


class FlowLeftGridError(ValueError):
    """A variation flow stepped outside the sampled domain."""


def observed_order(coarse, fine):
    """log2 convergence rate between residuals at h and h/2."""
    return math.log2(coarse / fine)


def observed_orders(values):
    """Orders between the neighbours of a refinement ladder, skipping each
    pair where either value is not finite and positive, NaN and inf included."""
    return [observed_order(values[k], values[k + 1]) for k in range(len(values) - 1)
            if 0 < values[k] < math.inf and 0 < values[k + 1] < math.inf]


# ---------------------------------------------------------------------------
# grid containers


def _positive_spacing(spacing):
    """The spacing as floats; every step must be positive and finite."""
    spacing = tuple(float(h) for h in spacing)
    if not all(math.isfinite(h) and h > 0.0 for h in spacing):
        raise ValueError(f"spacing {spacing} must be positive and finite")
    return spacing


def _grid_frame(d, dims, spacing, origin):
    """(dims, spacing, origin) as d ints, d positive floats and d floats."""
    frame = (tuple(int(n) for n in dims), _positive_spacing(spacing),
             tuple(float(o) for o in origin))
    if any(len(axes) != d for axes in frame):
        raise ValueError("dims, spacing and origin must each have d entries")
    return frame


def _node_coordinates(dims, spacing, origin):
    """Node coordinates of a uniform grid, shape dims + (d,)."""
    axes = [o + h * np.arange(n) for n, h, o in zip(dims, spacing, origin)]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)


@dataclass
class GridField:
    """Degree-p coefficients sampled on a uniform node grid.

    ``values`` has shape dims + (C(d, p),); ``entropy`` is an optional extra
    channel of shape dims.
    """

    d: int
    p: int
    dims: tuple
    spacing: tuple
    origin: tuple
    values: np.ndarray
    entropy: np.ndarray | None = None

    def __post_init__(self):
        self.dims, self.spacing, self.origin = _grid_frame(
            self.d, self.dims, self.spacing, self.origin)
        C = form_basis(self.d, self.p).size
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.dims + (C,):
            raise ValueError(f"values must have shape {self.dims + (C,)}")
        if self.entropy is not None:
            self.entropy = np.asarray(self.entropy, dtype=float)
            if self.entropy.shape != self.dims:
                raise ValueError("entropy must match the grid shape")

    @property
    def n_coeffs(self):
        return form_basis(self.d, self.p).size

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def nonfinite_cells(self):
        """Number of nodes with a NaN or infinite coefficient or entropy."""
        finite = np.isfinite(self.values)
        entropy = np.isfinite(self.entropy) if self.entropy is not None else True
        # the per-node reduction over the short coefficient axis costs ten
        # times the isfinite pass, so skip it when every channel is finite
        if finite.all() and np.all(entropy):
            return 0
        return int(np.count_nonzero(~(finite.all(axis=-1) & entropy)))

    def coordinates(self):
        return _node_coordinates(self.dims, self.spacing, self.origin)

    @classmethod
    def from_function(cls, fn, d, p, dims, spacing, origin=None, entropy_fn=None):
        spacing = _positive_spacing(spacing)
        origin = tuple(origin) if origin is not None else (0.0,) * d
        Y = _node_coordinates(dims, spacing, origin)
        values = np.asarray(fn(Y), dtype=float)
        entropy = None if entropy_fn is None else np.asarray(entropy_fn(Y), dtype=float)
        return cls(d, p, tuple(dims), spacing, origin, values, entropy)


def save_grid(grid, path):
    """Write manifest JSON plus a flat little-endian float64 companion file.

    Cell data is row-major over the grid, components last (coefficients in
    canonical order, entropy appended when present).
    """
    path = Path(path)
    data_name = path.stem + ".bin"
    blocks = [grid.values.reshape(-1, grid.n_coeffs)]
    if grid.entropy is not None:
        blocks.append(grid.entropy.reshape(-1, 1))
    flat = np.ascontiguousarray(np.concatenate(blocks, axis=1), dtype="<f8")
    manifest = {
        "d": grid.d,
        "p": grid.p,
        "dims": list(grid.dims),
        "spacing": list(grid.spacing),
        "origin": list(grid.origin),
        "component_order": list(form_basis(grid.d, grid.p).names),
        "has_entropy": grid.entropy is not None,
        "data": data_name,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (path.parent / data_name).write_bytes(flat.tobytes())
    return path


def load_grid(path):
    path = Path(path)
    manifest = json.loads(path.read_text())
    m = manifest if isinstance(manifest, dict) else {}
    d, p, dims = m.get("d"), m.get("p"), m.get("dims")
    if not (isinstance(dims, list) and len(dims) == d and isinstance(m.get("data"), str) and all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in [d, p, *dims])):
        raise ValueError(f"{path.name} is not a JSON object with int d and p, dims a list of "
                         f"d ints >= 0 and data a file name")
    dims = tuple(dims)
    origin, spacing = (tuple(_finite_vector(k, m.get(k), d)) for k in ("origin", "spacing"))
    order, given = list(form_basis(d, p).names), manifest.get("component_order")
    if given != order:
        raise ValueError(f"component_order {given} is not the canonical order "
                         f"{order} for (d={d}, p={p})")
    data = (path.parent / manifest["data"]).resolve()
    if not data.is_relative_to(path.parent.resolve()):
        raise ValueError(f"data file {manifest['data']!r} lies outside the "
                         f"manifest's directory")
    if not isinstance(has_entropy := m.get("has_entropy"), bool):
        raise ValueError(f"has_entropy in {path.name} must be true or false")
    C = len(order)
    n_comp = C + (1 if has_entropy else 0)
    raw = np.frombuffer(data.read_bytes(), dtype="<f8")
    expected = math.prod(dims) * n_comp
    if raw.size != expected:
        raise ValueError(f"data file holds {raw.size} floats, expected {expected}")
    table = raw.reshape(math.prod(dims), n_comp)
    values = table[:, :C].reshape(dims + (C,))
    entropy = table[:, C].reshape(dims) if has_entropy else None
    return GridField(d, p, dims, spacing, origin, values, entropy)


def load_grid_csv(path, d, p, spacing):
    """Small-field CSV import: columns i0..i{d-1}, A_<tuple digits>..., s;
    every row holds the header's columns, the indices are integers >= 0 and
    the grid's origin is 0."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path.name} needs a header and at least one row")
    header = [h.strip() for h in lines[0].split(",")]
    coord_cols = [header.index(f"i{a}") for a in range(d)]
    comp_cols = [header.index("A_" + name) for name in form_basis(d, p).names]
    s_col = header.index("s") if "s" in header else None
    rows = [ln.split(",") for ln in lines[1:]]
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"row {k} of {path.name} holds {len(row)} columns, "
                             f"not the header's {len(header)}")
    table = np.array(rows, dtype=float)
    idx = table[:, coord_cols]
    if not (np.isfinite(idx).all() and (idx >= 0).all() and (idx == np.floor(idx)).all()):
        raise ValueError(f"the cell indices in {path.name} must be integers >= 0")
    idx = idx.astype(np.int64)
    dims = tuple(int(n) for n in idx.max(axis=0) + 1)
    flat = np.ravel_multi_index(idx.T, dims)
    counts = np.bincount(flat, minlength=math.prod(dims))
    for what, bad in (("duplicate", counts > 1), ("missing", counts == 0)):
        if bad.any():
            cell = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), dims))
            raise ValueError(f"{what} cell {cell} in {path.name}")
    cells = np.empty_like(table)
    cells[flat] = table
    values = cells[:, comp_cols].reshape(dims + (len(comp_cols),))
    entropy = cells[:, s_col].reshape(dims) if s_col is not None else None
    return GridField(d, p, dims, tuple(spacing), (0.0,) * d, values, entropy)


# ---------------------------------------------------------------------------
# central differences


def _interior(arr, ndim_grid):
    return arr[tuple(slice(1, -1) for _ in range(ndim_grid))]


def _cd_neighbours(axis, ndim_grid):
    """Indices of the upper and lower neighbours along one grid axis of every
    interior node."""
    hi = [slice(1, -1)] * ndim_grid
    lo = [slice(1, -1)] * ndim_grid
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    return tuple(hi), tuple(lo)


def _cd(arr, axis, h, ndim_grid):
    """Central difference along one grid axis, restricted to the interior of
    every grid axis so that all terms share a shape."""
    hi, lo = _cd_neighbours(axis, ndim_grid)
    return (arr[hi] - arr[lo]) / (2.0 * h)


def _divergence(fields, table, spacing, d):
    """Interior-node rows sum sign d/dy_axis fields[c] over each row of ``table``'s (axis,
    c, sign) terms, for grid-shaped fields[c], as a component-major (rows, ...) array.
    A row sums its central differences onto 0.0 in table order, the arithmetic of
    ``0.0 + sign * _cd(..) + ..``, with every difference taken into one scratch array."""
    inner = tuple(max(n - 2, 0) for n in fields[0].shape[:d])
    out = np.zeros((len(table),) + inner)
    term = np.empty(inner)
    for row, terms in zip(out, table):
        for axis, c, sign in terms:
            hi, lo = _cd_neighbours(axis, d)
            np.subtract(fields[c][hi], fields[c][lo], out=term)
            np.divide(term, 2.0 * spacing[axis], out=term)
            (np.add if sign > 0 else np.subtract)(row, term, out=row)
    return out


def _require_interior(grid):
    if any(n < 3 for n in grid.dims):
        raise ValueError("need at least 3 nodes per axis for interior differences")


_SLAB_BYTES = 32 << 20


def _slabs(grid):
    """(a, sub-grid) pairs: nodes a .. a + w + 1 of axis 0, w >= 1 interior planes with a
    one-node halo, as many as fit _SLAB_BYTES of T (one slab for a 1024^2 gas grid, 8 planes
    for a 32^4 wave).  Interiors tile the grid's; slabs combine by np.maximum / np.minimum."""
    _require_interior(grid)
    n0, width = grid.dims[0], max(1, _SLAB_BYTES // (8 * grid.d ** 2 * math.prod(grid.dims[1:])))
    for a in range(0, n0 - 2, width):
        rows = slice(a, min(a + width, n0 - 2) + 2)
        yield a, replace(grid, dims=(rows.stop - a,) + grid.dims[1:], values=grid.values[rows],
                         origin=(grid.origin[0] + a * grid.spacing[0],) + grid.origin[1:],
                         entropy=None if grid.entropy is None else grid.entropy[rows])


# ---------------------------------------------------------------------------
# residuals


def closedness_residual(grid):
    """Max-norm residual of d(alpha) = 0 on interior nodes; NaN when any
    interior difference is NaN.

    Each degree-(p+1) component is the alternating sum of axis derivatives of
    degree-p components; for momentum forms this is mass conservation, for
    electromagnetic 2-forms the magnetic half of the field equations; taken over ``_slabs``.
    """
    if grid.p >= grid.d:
        return 0.0
    worst = 0.0
    for _, sub in _slabs(grid):
        rows = _divergence(np.moveaxis(sub.values, -1, 0), [terms for _, terms in
                           exterior_derivative_table(sub.d, sub.p)], sub.spacing, sub.d)
        worst = np.maximum(worst, np.abs(rows, out=rows).max())
    return float(worst)


def tensor_grid(model, grid):
    """Tensor samples at every node."""
    s = grid.entropy if grid.entropy is not None else 0.0
    return general_tensor_array(model, grid.values, s)


def div_rows(T_field, spacing, d):
    """Row-wise divergence sum_j d/dy_j T_ij on interior nodes of a
    (..., rows, d) field, as a (..., rows) view of ``_divergence``'s buffer."""
    rows = range(T_field.shape[-2])
    fields = [T_field[..., i, j] for i in rows for j in range(d)]
    table = [[(j, i * d + j, 1) for j in range(d)] for i in rows]
    return np.moveaxis(_divergence(fields, table, spacing, d), 0, -1)


def div_T_residual(model, grid):
    """Per-row max-norm of Div T on interior nodes, with T built per ``_slabs`` slab."""
    worst = np.zeros(grid.d)
    for _, sub in _slabs(grid):
        rows = div_rows(tensor_grid(model, sub), sub.spacing, sub.d)
        worst = np.maximum(worst, np.abs(rows).max(axis=tuple(range(sub.d))))
    return worst


def euler_lagrange_rows(model, grid):
    """(div G)_K = sum_j d/dy_j G_{jK} on interior nodes, as a
    (..., C(d, p-1)) field, for G = dL/dA with jK read through its
    permutation sign.

    Its vanishing is the Euler-Lagrange equation for variations
    alpha + d beta.  Row K takes (axis j, slot of jK, sign) from the
    exterior derivative table of degree p - 1 read transposed, since the
    divergence is the adjoint of d, with its terms in axis order.
    """
    _require_interior(grid)
    d, p = grid.d, grid.p
    g = model.gradient(grid.values, grid.entropy if grid.entropy is not None else 0.0)
    index, table = form_basis(d, p).index, [[] for _ in range(form_basis(d, p - 1).size)]
    for J, terms in exterior_derivative_table(d, p - 1):
        for axis, K, sign in terms:
            table[K].append((axis, index[J], sign))
    rows = _divergence(np.moveaxis(g, -1, 0), [sorted(t) for t in table], grid.spacing, d)
    return np.moveaxis(rows, 0, -1)


def poynting_residual(model, grid):
    """Interior-node field of d/dt W + div(E x H) for an electromagnetic
    grid.  Row 0 of Div T is its negation up to rounding: the same stencils
    act on the same products summed in another order.  The two agree bitwise
    on waves with E_z = 0, such as the catalog plane wave.  Each of
    ``_slabs`` writes its planes of the result, E x H in np.cross's arithmetic."""
    out = np.empty(tuple(max(n - 2, 0) for n in grid.dims))
    for start, sub in _slabs(grid):
        E, B = coeffs_to_em(sub.values)
        D, H, W = model.fields(E, B, sub.entropy if sub.entropy is not None else 0.0)
        ExH = np.empty_like(E)
        _cross(E, H, ExH)
        out[start:start + sub.dims[0] - 2] = _divergence(
            [W, *(ExH[..., k] for k in range(3))], [[(a, a, 1) for a in range(4)]],
            sub.spacing, sub.d)[0]
    return out


# ---------------------------------------------------------------------------
# variations and the discrete first variation


@dataclass
class VariationField:
    """A compactly supported velocity field for flow variations.

    ``func_jac(Y)`` returns the field and its Jacobian (..., d, d) at points
    Y (..., d).  One pass over the grid's nodes at first use gives ``values``,
    which must vanish on the two nodes nearest every boundary, and
    ``moving``, the nodes where the field or its Jacobian is nonzero.
    """

    dims: tuple
    spacing: tuple
    origin: tuple
    func_jac: object

    def __post_init__(self):
        self.dims, self.spacing, self.origin = _grid_frame(
            len(self.dims), self.dims, self.spacing, self.origin)

    def value_and_jacobian(self, Y):
        v, J = self.func_jac(Y)
        return np.asarray(v, dtype=float), np.asarray(J, dtype=float)

    @cached_property
    def _samples(self):
        d = len(self.dims)
        v, J = self.value_and_jacobian(_node_coordinates(self.dims, self.spacing, self.origin))
        if v.shape != self.dims + (d,):
            raise ValueError(f"values must have shape {self.dims + (d,)}")
        for a in range(d):
            rows = np.moveaxis(v, a, 0)
            if rows[:2].any() or rows[self.dims[a] - 2:].any():
                raise ValueError("variation must vanish on a 2-node margin")
        return v, np.any(v != 0.0, axis=-1) | np.any(J != 0.0, axis=(-2, -1))

    @property
    def values(self):
        return self._samples[0]

    @property
    def moving(self):
        return self._samples[1]


_FLOW_SUBSTEPS = 2


def _flow_with_jacobian(var, Y, tau):
    """Backward flow w' = -xi(w) over time tau with the Jacobian of the map,
    classical RK4 in _FLOW_SUBSTEPS steps on the augmented system.  The
    stages hold (xi, J G), the right-hand side without its sign, and the
    step -tau / _FLOW_SUBSTEPS carries the sign instead.  Doubling the
    count moves criterion 05's numeric side by under 1e-3 of its error
    against the pairing (test_flow_substeps_move_the_first_variation_little
    in tests/test_fields.py).

    G is an (N, d, d) view of component-major (d, d, N) memory, which its
    stages keep, so each G[..., i, k] is one contiguous row.
    """
    d = Y.shape[-1]
    w = np.array(Y, dtype=float)
    G = np.moveaxis(np.zeros((d, d) + Y.shape[:-1]), (0, 1), (-2, -1))
    G[..., range(d), range(d)] = 1.0
    h = -tau / _FLOW_SUBSTEPS

    def rhs(wc, Gc):
        v, J = var.value_and_jacobian(wc)
        return v, np.einsum("...ij,...jk->...ik", J, Gc)

    for _ in range(_FLOW_SUBSTEPS):
        k1 = rhs(w, G)
        k2 = rhs(w + 0.5 * h * k1[0], G + 0.5 * h * k1[1])
        k3 = rhs(w + 0.5 * h * k2[0], G + 0.5 * h * k2[1])
        k4 = rhs(w + h * k3[0], G + h * k3[1])
        w = w + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        G = G + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return w, G


def _require_same_grid(grid, var):
    if (var.dims, var.spacing, var.origin) != (grid.dims, grid.spacing, grid.origin):
        raise ValueError("the variation must be sampled on the field's grid: "
                         "equal dims, spacing and origin")


def first_variation(model, grid, var, eps):
    """Numeric flow derivative of the discretized functional next to the
    tensor pairing it should equal.

    Returns ``(numeric_derivative, tensor_pairing)`` where the numeric side
    is the centered eps-difference of sum L((flow_eps^* alpha) o flow_-eps)
    / J appearing after the change of variables (all quantities evaluated on
    grid nodes, no off-grid field reads), and the pairing is
    - sum_cells T_ij d_j xi_i vol with central-difference derivatives.
    The two agree to O(eps^2) + O(h^2); the entropy channel passes through
    the substitution untouched, so densities with strong entropy dependence
    satisfy the same identity.

    Only nodes where xi or its Jacobian is nonzero are flowed and summed.
    At any other node every RK4 stage reads (0, 0) at the node itself, so
    the flow fixes it with G = I and it adds the same L(A) vol to both
    signs of eps, which cancels in the centred difference.
    """
    _require_same_grid(grid, var)
    d = grid.d
    moving = var.moving.reshape(-1)
    Y = grid.coordinates().reshape(-1, d)[moving]
    A = grid.values.reshape(-1, grid.n_coeffs)[moving]
    s = grid.entropy.reshape(-1)[moving] if grid.entropy is not None else 0.0
    vol = grid.cell_volume

    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.spacing) * (np.asarray(grid.dims) - 1)

    def functional(tau):
        w, G = _flow_with_jacobian(var, Y, tau)
        if np.any(w < lo - 1e-9) or np.any(w > hi + 1e-9):
            raise FlowLeftGridError("variation flow left the sampled domain")
        M = np.linalg.inv(G)
        B = pullback_coeffs(M, A, d, grid.p)
        L = np.asarray(model.evaluate(B, s), dtype=float)
        return float(np.sum(L * np.linalg.det(G)) * vol)

    numeric = (functional(eps) - functional(-eps)) / (2.0 * eps)

    T_int = _interior(tensor_grid(model, grid), d)
    pairing = 0.0
    for i in range(d):
        for j in range(d):
            dxi = _cd(var.values[..., i], j, grid.spacing[j], d)
            pairing -= float(np.sum(T_int[..., i, j] * dxi))
    return numeric, pairing * vol


def divergence_pairing(model, grid, var):
    """+ sum_cells xi_i (Div T)_i vol, the summation-by-parts partner of the
    tensor pairing; equal to it exactly for margin-supported variations."""
    _require_same_grid(grid, var)
    xi_int = _interior(var.values, grid.d)
    rows = div_rows(tensor_grid(model, grid), grid.spacing, grid.d)
    return float(np.sum(xi_int * rows) * grid.cell_volume)


# ---------------------------------------------------------------------------
# entropy transport


def entropy_transport_residual(model, grid):
    """Max-norm of m . grad s on interior nodes, with the nondegeneracy
    factor d/ds (L - m . dL/dm) reported alongside (no classification is
    attached to the factor; the caller sees its range), taken over ``_slabs``."""
    if grid.entropy is None:
        raise ValueError("entropy transport needs an entropy channel")
    worst, lo, hi = 0.0, np.inf, -np.inf
    for _, sub in _slabs(grid):
        d, m = sub.d, coeffs_to_momentum(sub.values)
        acc = 0.0
        for a in range(d):
            acc = acc + _interior(m[..., a], d) * _cd(sub.entropy, a, sub.spacing[a], d)
        factor = model.pressure_entropy_derivative(_interior(m[..., 0], d),
                                                   _interior(sub.entropy, d))
        worst = np.maximum(worst, np.abs(acc).max())
        lo, hi = np.minimum(lo, np.min(factor)), np.maximum(hi, np.max(factor))
    return {"residual": float(worst), "factor_min": float(lo), "factor_max": float(hi)}


# ---------------------------------------------------------------------------
# jump interfaces


def _finite_vector(name, x, d):
    """x as a float array of d finite numbers, or a ValueError naming it."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        x = None
    if x is None or x.shape != (d,) or not np.isfinite(x).all():
        raise ValueError(f"{name} must be {d} finite numbers")
    return x


def rankine_hugoniot(model, left, right, nu):
    """Jump report between the states ``left`` and ``right`` (read through
    their ``.coeffs`` and ``.s``) across a plane interface with normal nu,
    which must be d finite numbers, not all zero, and is scaled to unit
    length.

    ``row_residuals`` holds |[T] nu| componentwise; for momentum-form models
    the report also carries [m . nu], for relativistic models [rho], and for
    metric-carrying models the quadratic nu^T metric^{-1} nu that classifies
    the interface.
    """
    nu = _finite_vector("normal", nu, model.d)
    if not nu.any():
        raise ValueError("normal must be nonzero")
    nu = nu / np.linalg.norm(nu)
    T = [general_tensor_array(model, st.coeffs, st.s) for st in (left, right)]
    jump = (T[1] - T[0]) @ nu
    report = {"nu": nu, "row_residuals": np.abs(jump), "jump": jump}
    if model.p == model.d - 1:
        m = [coeffs_to_momentum(st.coeffs) for st in (left, right)]
        report["m_nu_jump"] = float((m[1] - m[0]) @ nu)
        report["m_left"] = m[0]
        report["m_right"] = m[1]
        if isinstance(model, RelativisticModel):
            report["rho_jump"] = float(model.rho_of(m[1]) - model.rho_of(m[0]))
    if model.metric_hint is not None:
        Sinv = np.linalg.inv(model.metric_hint)
        report["metric_quadratic"] = float(nu @ Sinv @ nu)
    return report


# signed step lengths along each candidate direction, and the number of
# golden-section steps that refine the best angle of the coarse scan
_LAM_GRID = np.concatenate([-np.geomspace(1e-2, 1.0, 24)[::-1],
                            np.geomspace(1e-2, 1.0, 24)])
_REFINE_ITERS = 80
# normals per batched objective call of the coarse scan: the default scan of
# 121 fits in one call, and a larger one holds about 3 MB of candidates at
# a time
_SCAN_BATCH = 128


def _unit_rows(V):
    # each row over sqrt(row . row), which rounds as a 1-D np.linalg.norm
    # does; norm(axis=-1) would move the last bits
    return V / np.sqrt(np.matmul(V[..., None, :], V[..., :, None])[..., 0])


def _left_state(model, m_left):
    """(rho_L, T_L) of the left state that every candidate jumps from."""
    return (float(model.rho_of(m_left)),
            general_tensor_array(model, momentum_to_coeffs(m_left[None, :]), 0.0))


def _family_residual(model, nu, m_left, rho_jump_min, left):
    """Smallest jump residual over candidate right states with a genuine
    density jump, for each of a batch (K, d) of normals; the residual
    couples |[T] nu| with |[m . nu]|.

    The candidates of every normal step from m_left along Lam^{-1} nu and a
    basis of the plane nu . w = 0, and are assembled in one tensor call.
    ``left`` is ``_left_state(model, m_left)``, which a search builds once
    and passes to every call.  Returns a (K,) array; a normal with no
    admissible candidate scores inf.
    """
    nu = _unit_rows(np.asarray(nu, dtype=float))
    K, d = nu.shape
    # per normal: Lam^{-1} nu, then a Euclidean-orthogonal basis of the
    # plane nu . w = 0
    dirs = np.empty((K, d, d))
    dirs[:, 0] = np.matmul(model.Lam_inv, nu[:, :, None])[..., 0]
    dirs[:, 1:] = np.linalg.svd(nu[:, None, :])[2][:, 1:]
    dirs = _unit_rows(dirs)
    # every candidate, normal-major: (K, d directions, steps) flattened
    m_R = (m_left + _LAM_GRID[:, None] * dirs[:, :, None, :]).reshape(-1, d)
    owner = np.repeat(np.arange(K), d * _LAM_GRID.size)
    rho_L, T_L = left
    r2 = model.rho_sq(m_R)
    keep = r2 > 1e-10
    keep[keep] = np.abs(np.sqrt(r2[keep]) - rho_L) >= rho_jump_min
    resid = np.full(keep.shape, np.inf)
    if keep.any():
        m_R, nu_R = m_R[keep], nu[owner[keep]]
        # T_R is a fresh buffer, so [T] is formed in place
        T_R = general_tensor_array(model, momentum_to_coeffs(m_R), 0.0)
        jump_T = np.subtract(T_R, T_L, out=T_R)
        jump = np.abs(np.matmul(jump_T, nu_R[:, :, None])[..., 0]).max(axis=-1)
        # einsum rounds as the 1-D matrix-vector product; a stacked matmul
        # does not
        m_nu = np.abs(np.einsum("ni,ni->n", m_R - m_left, nu_R))
        resid[keep] = np.maximum(jump, m_nu)
    return resid.reshape(K, -1).min(axis=1)


def lightlike_normal_search(model, m_left, rho_jump_min=0.05, coarse=121):
    """Brute-force one-parameter search over interface normals
    nu(theta) = (cos theta, sin theta, 0, 0) for the angle admitting a
    genuine jump of the limit density.

    Assembles the left state once, scores the coarse theta grid in batched
    objective calls of up to 128 angles, then golden sections the bracket
    around its smallest residual, two steps per call, each angle once.
    Returns the winning angle, normal, residual and the light-cone
    quadratic nu^T Lam^{-1} nu at the winner.
    """
    if not isinstance(model, RelativisticModel):
        raise ValueError(f"the light-like normal search needs a relativistic "
                         f"model, not {model.name}")
    m_left = _finite_vector("m_left", m_left, model.d)
    if coarse < 1:
        raise ValueError(f"coarse must be at least 1, not {coarse}")
    if not (math.isfinite(rho_jump_min) and rho_jump_min >= 0.0):
        raise ValueError(f"rho_jump_min must be finite and >= 0, "
                         f"not {rho_jump_min}")

    def nu_of(theta):
        return np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])

    left = _left_state(model, m_left)
    # theta -> residual; a batch scores as one-angle calls do, and the last
    # steps, at machine precision, revisit angles already scored
    scored = {}

    def score(angles):
        new = [t for t in dict.fromkeys(angles) if t not in scored]
        for i in range(0, len(new), _SCAN_BATCH):
            nus = np.array([nu_of(t) for t in new[i:i + _SCAN_BATCH]])
            vals = _family_residual(model, nus, m_left, rho_jump_min, left)
            scored.update(zip(new[i:i + _SCAN_BATCH], vals.tolist()))

    def steps(a, b, x1, x2):
        # the bracket after one golden-section step, if f(x1) <= f(x2) and if not
        return (a, x2, x2 - phi * (x2 - a), x1), (x1, b, x2, x1 + phi * (b - x1))

    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, coarse)
    score(thetas)
    vals = [scored[t] for t in thetas]
    k = int(np.argmin(vals))
    a, b = thetas[max(k - 1, 0)], thetas[min(k + 1, coarse - 1)]
    theta, residual = thetas[k], vals[k]
    # a one-angle scan leaves an empty bracket, a = b, with nothing to refine
    if a < b:
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        x1, x2 = b - phi * (b - a), a + phi * (b - a)
        score([x1, x2])
        # two steps per call (_REFINE_ITERS is even): one call scores the
        # first step's new angle and both angles the second step could need
        for _ in range(_REFINE_ITERS // 2):
            a, b, x1, x2 = steps(a, b, x1, x2)[not scored[x1] <= scored[x2]]
            lower, upper = steps(a, b, x1, x2)
            score([x1, x2, lower[2], upper[3]])
            a, b, x1, x2 = lower if scored[x1] <= scored[x2] else upper
        theta = x1 if scored[x1] <= scored[x2] else x2
        residual = min(scored[x1], scored[x2])
    nu = nu_of(theta)
    return {
        "theta": float(theta),
        "nu": nu,
        "residual": float(residual),
        "metric_quadratic": float(nu @ model.Lam_inv @ nu),
    }
