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
from .exterior import (exterior_derivative_table, form_basis, hodge, inverse_pullback_coeffs,
                       require_points)
from .models import RelativisticModel
from .tensors import _BLOCK_NODES, _cross, general_tensor_array


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


def _indexed_coordinates(spacing, origin, index):
    """Coordinates (N, d) of the nodes at a tuple of d index arrays, the bits
    of ``_node_coordinates`` at those nodes."""
    return np.stack([o + h * i for o, h, i in zip(origin, spacing, index)], -1)


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
        require_points(math.prod(dims), "grid nodes")
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
    # the checks sort the rows' cells row-major, with no flat index into the
    # grid, so they cost O(rows) however far the largest index lies: rows
    # without repeats fill the grid unless they are fewer than its cells, and
    # the k-th sorted cell is the grid's k-th up to the first cell they skip
    order = np.lexsort(idx.T[::-1])
    ranked = idx[order]
    repeats = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    if len(repeats) or len(ranked) < math.prod(dims):
        k, kth = np.arange(len(ranked) + 1), np.empty((len(ranked) + 1, d), dtype=np.int64)
        for a in reversed(range(d)):
            k, kth[:, a] = np.divmod(k, dims[a])
        skips = np.flatnonzero((ranked != kth[:-1]).any(axis=1))
        what, at = (("duplicate", ranked[repeats[0]]) if len(repeats) else
                    ("missing", kth[skips[0] if len(skips) else len(ranked)]))
        raise ValueError(f"{what} cell {tuple(int(i) for i in at)} in {path.name}")
    cells = table[order]
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


def _divergence(fields, table, spacing, d):
    """Interior-node rows sum sign d/dy_axis fields[c] over each row of ``table``'s (axis,
    c, sign) terms, for grid-shaped fields[c], as a component-major (rows, ...) array: the
    one central difference.  A row adds or subtracts each (upper - lower neighbour) / 2h
    onto 0.0 in table order, with every difference taken into one scratch array."""
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


def _sub_grid(grid, box):
    """The nodes of a box, one slice start:stop per leading axis, as a grid of its own."""
    box = box + tuple(slice(0, n) for n in grid.dims[len(box):])
    return replace(grid, dims=tuple(b.stop - b.start for b in box), values=grid.values[box],
                   origin=tuple(o + b.start * h for o, b, h in
                                zip(grid.origin, box, grid.spacing)),
                   entropy=None if grid.entropy is None else grid.entropy[box])


_SLAB_BYTES = 32 << 20


def _slabs(grid):
    """(a, sub-grid) pairs: nodes a .. a + w + 1 of axis 0, w >= 1 interior planes with a
    one-node halo, as many as fit _SLAB_BYTES of T (one slab for a 1024^2 gas grid, 8 planes
    for a 32^4 wave).  Interiors tile the grid's; slabs combine by np.maximum / np.minimum."""
    _require_interior(grid)
    n0, width = grid.dims[0], max(1, _SLAB_BYTES // (8 * grid.d ** 2 * math.prod(grid.dims[1:])))
    for a in range(0, n0 - 2, width):
        yield a, _sub_grid(grid, (slice(a, min(a + width, n0 - 2) + 2),))


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
    alpha + d beta.  It is (-1)^(p+1) star^-1 d star g, run as the closedness
    table of degree d - p with both stars folded into its row order and term
    signs: slot c of star g is slot -1 - c of g, and star^-1 reads row K off
    that table's row for K^c with the sign hodge(d, p - 1)[K].
    """
    _require_interior(grid)
    d, p = grid.d, grid.p
    g = model.gradient(grid.values, grid.entropy if grid.entropy is not None else 0.0)
    h, dual_rows = hodge(d, p), exterior_derivative_table(d, d - p)[::-1]
    table = [[(axis, -1 - c, (-1) ** (p + 1) * k * sign * h[-1 - c]) for axis, c, sign in terms]
             for (_, terms), k in zip(dual_rows, hodge(d, p - 1))]
    rows = _divergence(np.moveaxis(g, -1, 0), table, grid.spacing, d)
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
    Y (..., d).  One pass over the grid's nodes at first use, in blocks of
    ``_BLOCK_NODES`` nodes so that no whole-grid Jacobian is held, gives
    ``values``, which must vanish on the two nodes nearest every boundary,
    and ``moving``, the nodes where the field or its Jacobian is nonzero.

    ``support``, when given, is an open interval (lo, hi) of coordinates, the
    same on every axis, outside whose box ``func_jac`` is exactly zero in
    value and in Jacobian.  The pass then samples only the nodes inside that
    box and one more on each side of it, and every other node is zero; a
    sampled node outside the box that is not zero raises ValueError.  Without
    a support every node is sampled.
    """

    dims: tuple
    spacing: tuple
    origin: tuple
    func_jac: object
    support: tuple | None = None

    def __post_init__(self):
        self.dims, self.spacing, self.origin = _grid_frame(
            len(self.dims), self.dims, self.spacing, self.origin)

    def value_and_jacobian(self, Y):
        v, J = self.func_jac(Y)
        return np.asarray(v, dtype=float), np.asarray(J, dtype=float)

    def _sampled_box(self):
        """Per axis, the slice of the nodes that the pass samples."""
        if self.support is None:
            return tuple(slice(0, n) for n in self.dims)
        lo, hi = self.support
        box = []
        for n, h, o in zip(self.dims, self.spacing, self.origin):
            x = o + h * np.arange(n)
            inside = np.flatnonzero((x > lo) & (x < hi))
            box.append(slice(max(inside[0] - 1, 0), min(inside[-1] + 2, n)) if len(inside)
                       else slice(0, 0))
        return tuple(box)

    @cached_property
    def _samples(self):
        d = len(self.dims)
        values, moving = np.zeros(self.dims + (d,)), np.zeros(self.dims, dtype=bool)
        box = self._sampled_box()
        shape = tuple(b.stop - b.start for b in box)
        n = math.prod(shape)
        for a in range(0, n, _BLOCK_NODES):
            index = np.unravel_index(np.arange(a, min(a + _BLOCK_NODES, n)), shape)
            index = tuple(b.start + i for b, i in zip(box, index))
            Y = _indexed_coordinates(self.spacing, self.origin, index)
            v, J = self.value_and_jacobian(Y)
            if v.shape != Y.shape:
                raise ValueError(f"values must have shape {self.dims + (d,)}")
            values[index] = v
            moving[index] = moves = np.any(v != 0.0, axis=-1) | np.any(J != 0.0, axis=(-2, -1))
            if self.support is not None and np.any(
                    moves & ~np.all((Y > self.support[0]) & (Y < self.support[1]), axis=-1)):
                raise ValueError(f"the variation is not zero outside its support {self.support}")
        for a in range(d):
            rows = np.moveaxis(values, a, 0)
            if rows[:2].any() or rows[self.dims[a] - 2:].any():
                raise ValueError("variation must vanish on a 2-node margin")
        return values, moving

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


def _pairing_box(var):
    """The node box where a pairing of T with ``var`` can be nonzero, one slice
    per axis: the bounding box of the nodes where xi is nonzero, grown by one
    node, or None if xi is zero at every node.  The 2-node margin of
    ``var.values`` keeps the box inside the interior nodes."""
    index = np.nonzero(np.any(var.values != 0.0, axis=-1))
    if not len(index[0]):
        return None
    return tuple(slice(int(i.min()) - 1, int(i.max()) + 2) for i in index)


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

    The pullback by G^-1 and the factor det G are read off the minors of
    the flowed Jacobian G (``inverse_pullback_coeffs``), with no inverse
    formed.  A flow map preserves orientation, so a det G that is not
    positive, or not a number, raises ValueError.

    T is assembled only on ``_pairing_box(var)``, the one box where d_j xi_i
    can be nonzero, so a state that the model refuses outside it is never
    evaluated.  A grid with a non-finite coefficient or entropy anywhere
    (``GridField.nonfinite_cells``) has a NaN pairing.
    """
    _require_same_grid(grid, var)
    d = grid.d
    index = np.nonzero(var.moving)
    Y = _indexed_coordinates(grid.spacing, grid.origin, index)
    A = grid.values[index]
    s = grid.entropy[index] if grid.entropy is not None else 0.0
    vol = grid.cell_volume

    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.spacing) * (np.asarray(grid.dims) - 1)

    def functional(tau):
        w, G = _flow_with_jacobian(var, Y, tau)
        if np.any(w < lo - 1e-9) or np.any(w > hi + 1e-9):
            raise FlowLeftGridError("variation flow left the sampled domain")
        # a singular G divides by 0 here and is refused just below
        with np.errstate(divide="ignore", invalid="ignore"):
            B, det = inverse_pullback_coeffs(G, A, d, grid.p)
        if not np.all(det > 0):
            raise ValueError("the flow map's Jacobian det G must be positive at every node")
        L = np.asarray(model.evaluate(B, s), dtype=float)
        return float(np.sum(L * det) * vol)

    numeric = (functional(eps) - functional(-eps)) / (2.0 * eps)

    # the products off the box are 0.0, so summing a whole-interior array
    # that holds the box's products in place adds the same nonzero terms in
    # the same order as the whole-grid products
    box, pairing = _pairing_box(var), 0.0
    products = np.zeros(tuple(n - 2 for n in grid.dims))
    if box is not None:
        T = tensor_grid(model, _sub_grid(grid, box))
        # the box with a one-node halo, and the box counted from the first
        # interior node
        halo = tuple(slice(b.start - 1, b.stop + 1) for b in box)
        at = tuple(slice(b.start - 1, b.stop - 1) for b in box)
        for i in range(d):
            # one component's d rows d_j xi_i at a time
            dxi = _divergence([var.values[halo + (i,)]], [[(j, 0, 1)] for j in range(d)],
                              grid.spacing, d)
            for j in range(d):
                np.multiply(T[..., i, j], dxi[j], out=products[at])
                pairing -= float(np.sum(products))
    return numeric, math.nan if grid.nonfinite_cells() else pairing * vol


def divergence_pairing(model, grid, var):
    """+ sum_cells xi_i (Div T)_i vol, the summation-by-parts partner of the
    tensor pairing; equal to it exactly for margin-supported variations.

    Div T is formed only inside ``_pairing_box(var)``, from T assembled on
    that box, so a state that the model refuses outside it is never
    evaluated.  A grid with a non-finite coefficient or entropy anywhere has
    a NaN pairing."""
    _require_same_grid(grid, var)
    box = _pairing_box(var)
    # component-major and zero off the box, the whole-grid rows' layout, so
    # the product below sums in the whole-grid order
    rows = np.zeros((grid.d,) + tuple(n - 2 for n in grid.dims))
    if box is not None:
        # the box's own interior, counted from the grid's first interior node
        inner = tuple(slice(b.start, b.stop - 2) for b in box)
        rows[(slice(None),) + inner] = np.moveaxis(
            div_rows(tensor_grid(model, _sub_grid(grid, box)), grid.spacing, grid.d), -1, 0)
    if grid.nonfinite_cells():
        return math.nan
    return float(np.sum(_interior(var.values, grid.d) * np.moveaxis(rows, 0, -1))
                 * grid.cell_volume)


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
        grad_s = _divergence([sub.entropy], [[(a, 0, 1)] for a in range(d)], sub.spacing, d)
        acc = 0.0
        for a in range(d):
            acc = acc + _interior(m[..., a], d) * grad_s[a]
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
    require_points(coarse, "coarse angles")
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
