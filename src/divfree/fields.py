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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conventions import coeffs_to_em, coeffs_to_momentum, momentum_to_coeffs
from .exterior import (
    exterior_derivative_table,
    form_basis,
    pullback_coeffs,
)
from .models import RelativisticModel, state_to_form
from .tensors import general_tensor_array


class FlowLeftGridError(ValueError):
    """A variation flow stepped outside the sampled domain."""


def observed_order(coarse, fine):
    """log2 convergence rate between residuals at h and h/2."""
    return math.log2(coarse / fine)


# ---------------------------------------------------------------------------
# grid containers


def _positive_spacing(spacing):
    """The spacing as floats; every step must be positive and finite."""
    spacing = tuple(float(h) for h in spacing)
    if not all(math.isfinite(h) and h > 0.0 for h in spacing):
        raise ValueError(f"spacing {spacing} must be positive and finite")
    return spacing


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
        self.dims = tuple(int(n) for n in self.dims)
        self.spacing = _positive_spacing(self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if len(self.dims) != self.d or len(self.spacing) != self.d or len(self.origin) != self.d:
            raise ValueError("dims, spacing and origin must each have d entries")
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
        axes = [self.origin[a] + self.spacing[a] * np.arange(self.dims[a])
                for a in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @classmethod
    def from_function(cls, fn, d, p, dims, spacing, origin=None, entropy_fn=None):
        origin = tuple(origin) if origin is not None else (0.0,) * d
        probe = cls(d, p, tuple(dims), tuple(spacing), origin,
                    np.zeros(tuple(dims) + (form_basis(d, p).size,)))
        Y = probe.coordinates()
        values = np.asarray(fn(Y), dtype=float)
        entropy = None if entropy_fn is None else np.asarray(entropy_fn(Y), dtype=float)
        return cls(d, p, tuple(dims), tuple(spacing), origin, values, entropy)


def _component_names(d, p):
    """Digit strings of the canonical index tuples, in storage order."""
    return ["".join(str(i) for i in J) for J in form_basis(d, p).tuples]


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
        "component_order": _component_names(grid.d, grid.p),
        "has_entropy": grid.entropy is not None,
        "data": data_name,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (path.parent / data_name).write_bytes(flat.tobytes())
    return path


def load_grid(path):
    path = Path(path)
    manifest = json.loads(path.read_text())
    d, p = manifest["d"], manifest["p"]
    dims = tuple(manifest["dims"])
    order, given = _component_names(d, p), manifest.get("component_order")
    if given != order:
        raise ValueError(f"component_order {given} is not the canonical order "
                         f"{order} for (d={d}, p={p})")
    data = (path.parent / manifest["data"]).resolve()
    if not data.is_relative_to(path.parent.resolve()):
        raise ValueError(f"data file {manifest['data']!r} lies outside the "
                         f"manifest's directory")
    C = len(order)
    n_comp = C + (1 if manifest["has_entropy"] else 0)
    raw = np.frombuffer(data.read_bytes(), dtype="<f8")
    expected = int(np.prod(dims)) * n_comp
    if raw.size != expected:
        raise ValueError(f"data file holds {raw.size} floats, expected {expected}")
    table = raw.reshape(int(np.prod(dims)), n_comp)
    values = table[:, :C].reshape(dims + (C,))
    entropy = table[:, C].reshape(dims) if manifest["has_entropy"] else None
    return GridField(d, p, dims, tuple(manifest["spacing"]),
                     tuple(manifest["origin"]), values, entropy)


def load_grid_csv(path, d, p, spacing, origin=None):
    """Small-field CSV import: columns i0..i{d-1}, A_<tuple digits>..., s."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    coord_cols = [header.index(f"i{a}") for a in range(d)]
    comp_cols = [header.index("A_" + name) for name in _component_names(d, p)]
    s_col = header.index("s") if "s" in header else None
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    idx = np.array([[int(r[c]) for c in coord_cols] for r in rows])
    dims = tuple(int(n) for n in idx.max(axis=0) + 1)
    counts = np.bincount(np.ravel_multi_index(idx.T, dims), minlength=math.prod(dims))
    for what, bad in (("duplicate", counts > 1), ("missing", counts == 0)):
        if bad.any():
            cell = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), dims))
            raise ValueError(f"{what} cell {cell} in {path.name}")
    values = np.zeros(dims + (len(comp_cols),))
    entropy = np.zeros(dims) if s_col is not None else None
    for r, ij in zip(rows, idx):
        values[tuple(ij)] = [r[c] for c in comp_cols]
        if s_col is not None:
            entropy[tuple(ij)] = r[s_col]
    origin = tuple(origin) if origin is not None else (0.0,) * d
    return GridField(d, p, dims, tuple(spacing), origin, values, entropy)


# ---------------------------------------------------------------------------
# central differences


def _interior(arr, ndim_grid):
    return arr[tuple(slice(1, -1) for _ in range(ndim_grid))]


def _cd(arr, axis, h, ndim_grid):
    """Central difference along one grid axis, restricted to the interior of
    every grid axis so that all terms share a shape."""
    hi = [slice(1, -1)] * ndim_grid
    lo = [slice(1, -1)] * ndim_grid
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    return (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)


def _require_interior(grid):
    if any(n < 3 for n in grid.dims):
        raise ValueError("need at least 3 nodes per axis for interior differences")


# ---------------------------------------------------------------------------
# residuals


def closedness_residual(grid):
    """Max-norm residual of d(alpha) = 0 on interior nodes; NaN when any
    interior difference is NaN.

    Each degree-(p+1) component is the alternating sum of axis derivatives of
    degree-p components; for momentum forms this is mass conservation, for
    electromagnetic 2-forms the magnetic half of the field equations.
    """
    if grid.p >= grid.d:
        return 0.0
    _require_interior(grid)
    worst = 0.0
    for _, terms in exterior_derivative_table(grid.d, grid.p):
        acc = 0.0
        for axis, slot, sign in terms:
            acc = acc + sign * _cd(grid.values[..., slot], axis, grid.spacing[axis], grid.d)
        worst = np.maximum(worst, np.abs(acc).max())
    return float(worst)


def tensor_grid(model, grid, variant="general"):
    """Tensor samples at every node; variant 'prime' replaces row 0 by the
    momentum vector (only meaningful for p = d - 1 models)."""
    s = grid.entropy if grid.entropy is not None else 0.0
    T = general_tensor_array(model, grid.values, s)
    if variant == "prime":
        if model.p != model.d - 1:
            raise ValueError("the modified tensor needs p = d - 1")
        T = T.copy()
        T[..., 0, :] = coeffs_to_momentum(grid.values)
    elif variant != "general":
        raise ValueError("variant must be 'general' or 'prime'")
    return T


def div_rows(T_field, spacing, d):
    """Row-wise divergence sum_j d/dy_j T_ij on interior nodes."""
    dim = T_field.shape[-1]
    rows = []
    for i in range(dim):
        acc = 0.0
        for j in range(d):
            acc = acc + _cd(T_field[..., i, j], j, spacing[j], d)
        rows.append(acc)
    return np.stack(rows, axis=-1)


def div_T_residual(model, grid, variant="general"):
    """Per-row max-norm of Div T on interior nodes."""
    _require_interior(grid)
    T = tensor_grid(model, grid, variant)
    rows = div_rows(T, grid.spacing, grid.d)
    return np.abs(rows).max(axis=tuple(range(grid.d)))


def mass_conservation_residual(grid):
    """Max-norm of d/dt rho + div q for a momentum-form grid; identical by
    construction to row 0 of Div T'."""
    _require_interior(grid)
    m = coeffs_to_momentum(grid.values)
    acc = 0.0
    for a in range(grid.d):
        acc = acc + _cd(m[..., a], a, grid.spacing[a], grid.d)
    return float(np.abs(acc).max())


def poynting_residual(model, grid):
    """Interior-node field of d/dt W + div(E x H) for an electromagnetic
    grid.  Row 0 of Div T is its negation up to rounding: the same stencils
    act on the same products summed in another order.  The two agree bitwise
    on waves with E_z = 0, such as the catalog plane wave."""
    _require_interior(grid)
    E, B = coeffs_to_em(grid.values)
    s = grid.entropy if grid.entropy is not None else 0.0
    D, H, W = model.fields(E, B, s)
    ExH = np.cross(E, H)
    acc = _cd(W, 0, grid.spacing[0], grid.d)
    for k in range(3):
        acc = acc + _cd(ExH[..., k], 1 + k, grid.spacing[1 + k], grid.d)
    return acc


# ---------------------------------------------------------------------------
# variations and the discrete first variation


def _multilinear_interp(values, origin, spacing, dims, Y):
    """d-linear interpolation of a gridded array with trailing component
    axes at arbitrary points Y (..., d)."""
    d = len(dims)
    t = [(Y[..., a] - origin[a]) / spacing[a] for a in range(d)]
    base = [np.clip(np.floor(ta).astype(int), 0, dims[a] - 2) for a, ta in enumerate(t)]
    frac = [ta - ba for ta, ba in zip(t, base)]
    comp_ndim = values.ndim - d
    out = 0.0
    for corner in range(1 << d):
        w = 1.0
        idx = []
        for a in range(d):
            if corner >> a & 1:
                w = w * frac[a]
                idx.append(base[a] + 1)
            else:
                w = w * (1.0 - frac[a])
                idx.append(base[a])
        out = out + w.reshape(w.shape + (1,) * comp_ndim) * values[tuple(idx)]
    return out


@dataclass
class VariationField:
    """A compactly supported velocity field for flow variations.

    Values must vanish on a margin of at least two nodes at every boundary.
    The flow integrator reads the field and its Jacobian from ``func_jac``
    when present; otherwise it interpolates the samples and their
    difference Jacobian multilinearly.
    """

    dims: tuple
    spacing: tuple
    origin: tuple
    values: np.ndarray
    func_jac: object = None
    margin: int = 2

    def __post_init__(self):
        self.dims = tuple(int(n) for n in self.dims)
        self.spacing = _positive_spacing(self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        self.values = np.asarray(self.values, dtype=float)
        d = len(self.dims)
        if self.values.shape != self.dims + (d,):
            raise ValueError(f"values must have shape {self.dims + (d,)}")
        for a in range(d):
            for edge in (slice(0, self.margin), slice(self.dims[a] - self.margin, None)):
                sl = [slice(None)] * d
                sl[a] = edge
                if np.any(self.values[tuple(sl)] != 0.0):
                    raise ValueError(
                        f"variation must vanish on a {self.margin}-node margin")
        if self.func_jac is None:
            self._grid_jac = np.zeros(self.dims + (d, d))
            for i in range(d):
                for j in range(d):
                    self._grid_jac[..., i, j] = np.gradient(
                        self.values[..., i], self.spacing[j], axis=j)

    def value_and_jacobian(self, Y):
        if self.func_jac is not None:
            v, J = self.func_jac(Y)
            return np.asarray(v, dtype=float), np.asarray(J, dtype=float)
        return tuple(_multilinear_interp(arr, self.origin, self.spacing, self.dims, Y)
                     for arr in (self.values, self._grid_jac))

    @classmethod
    def from_function(cls, func, dims, spacing, origin=None, func_jac=None):
        """Samples of ``func`` on the grid; ``func_jac(Y) -> (value, Jacobian)``
        is the analytic pair the flow integrator uses."""
        origin = tuple(origin) if origin is not None else (0.0,) * len(dims)
        axes = [origin[a] + spacing[a] * np.arange(dims[a]) for a in range(len(dims))]
        Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return cls(tuple(dims), tuple(spacing), origin,
                   np.asarray(func(Y), dtype=float), func_jac=func_jac)


def _flow_with_jacobian(var, Y, tau, substeps):
    """Backward flow w' = -xi(w) over time tau with the Jacobian of the map,
    classical RK4 on the augmented system."""
    w = np.array(Y, dtype=float)
    G = np.broadcast_to(np.eye(Y.shape[-1]), Y.shape + (Y.shape[-1],)).copy()
    h = tau / substeps

    def rhs(state):
        wc, Gc = state
        v, J = var.value_and_jacobian(wc)
        return -v, -(J @ Gc)

    for _ in range(substeps):
        k1 = rhs((w, G))
        k2 = rhs((w + 0.5 * h * k1[0], G + 0.5 * h * k1[1]))
        k3 = rhs((w + 0.5 * h * k2[0], G + 0.5 * h * k2[1]))
        k4 = rhs((w + h * k3[0], G + h * k3[1]))
        w = w + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        G = G + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return w, G


def first_variation(model, grid, var, eps, substeps=8):
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
    if substeps < 8:
        raise ValueError("use at least 8 flow substeps")
    if var.dims != grid.dims:
        raise ValueError("variation and field grids must match")
    d = grid.d
    Y = grid.coordinates().reshape(-1, d)
    v, J = var.value_and_jacobian(Y)
    moving = np.any(v != 0.0, axis=-1) | np.any(J != 0.0, axis=(-2, -1))
    Y = Y[moving]
    A = grid.values.reshape(-1, grid.n_coeffs)[moving]
    s = grid.entropy.reshape(-1)[moving] if grid.entropy is not None else 0.0
    vol = grid.cell_volume

    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.spacing) * (np.asarray(grid.dims) - 1)

    def functional(tau):
        w, G = _flow_with_jacobian(var, Y, tau, substeps)
        if np.any(w < lo - 1e-9) or np.any(w > hi + 1e-9):
            raise FlowLeftGridError("variation flow left the sampled domain")
        M = np.linalg.inv(G)
        B = pullback_coeffs(M, A, d, grid.p)
        L = np.asarray(model.evaluate(B, s), dtype=float)
        return float(np.sum(L * np.linalg.det(G)) * vol)

    numeric = (functional(eps) - functional(-eps)) / (2.0 * eps)

    T = general_tensor_array(model, grid.values,
                             grid.entropy if grid.entropy is not None else 0.0)
    T_int = _interior(T, d)
    pairing = 0.0
    for i in range(d):
        for j in range(d):
            dxi = _cd(var.values[..., i], j, grid.spacing[j], d)
            pairing -= float(np.sum(T_int[..., i, j] * dxi))
    return numeric, pairing * vol


def divergence_pairing(model, grid, var):
    """+ sum_cells xi_i (Div T)_i vol, the summation-by-parts partner of the
    tensor pairing; equal to it exactly for margin-supported variations."""
    T = tensor_grid(model, grid)
    rows = div_rows(T, grid.spacing, grid.d)
    xi_int = _interior(var.values, grid.d)
    return float(np.sum(xi_int * rows) * grid.cell_volume)


# ---------------------------------------------------------------------------
# entropy transport and potential flow


def entropy_transport_residual(model, grid):
    """Max-norm of m . grad s on interior nodes, with the nondegeneracy
    factor d/ds (L - m . dL/dm) reported alongside (no classification is
    attached to the factor; the caller sees its range)."""
    if grid.entropy is None:
        raise ValueError("entropy transport needs an entropy channel")
    _require_interior(grid)
    m = coeffs_to_momentum(grid.values)
    acc = 0.0
    for a in range(grid.d):
        acc = acc + _interior(m[..., a], grid.d) * _cd(grid.entropy, a, grid.spacing[a], grid.d)
    rho = _interior(m[..., 0], grid.d)
    s = _interior(grid.entropy, grid.d)
    factor = model.pressure_entropy_derivative(rho, s)
    return {
        "residual": float(np.abs(acc).max()),
        "factor_min": float(np.min(factor)),
        "factor_max": float(np.max(factor)),
    }


def bernoulli_check(model, psi, rho, spacing, s=0.0):
    """Potential-flow residuals for v = grad psi on a (t, x) grid.

    Returns the max-norm discrete curl of v (zero to roundoff, since central
    differences commute) and the Bernoulli residual
    d/dt psi + |grad psi|^2 / 2 + g_rho(rho, s).
    """
    psi = np.asarray(psi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d = psi.ndim
    if any(n < 5 for n in psi.shape):
        raise ValueError("need at least 5 nodes per axis for the curl check")
    v = [_cd(psi, a, spacing[a], d) for a in range(1, d)]
    curl = 0.0
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            term = _cd(v[b], 1 + a, spacing[1 + a], d) - _cd(v[a], 1 + b, spacing[1 + b], d)
            curl = max(curl, float(np.abs(term).max()))
    dt_psi = _cd(psi, 0, spacing[0], d)
    speed2 = sum(_interior(vi, d) ** 2 for vi in v)
    g_rho = model.g_rho(_interior(_interior(rho, d), d), s)
    bern = _interior(dt_psi, d) + 0.5 * speed2 + g_rho
    return {
        "curl_residual": float(curl),
        "bernoulli_residual": float(np.abs(bern).max()),
    }


# ---------------------------------------------------------------------------
# jump interfaces


@dataclass
class JumpInterface:
    nu: np.ndarray
    left: object
    right: object

    def __post_init__(self):
        self.nu = np.asarray(self.nu, dtype=float)
        n = np.linalg.norm(self.nu)
        if n == 0:
            raise ValueError("normal must be nonzero")
        self.nu = self.nu / n


def rankine_hugoniot(model, interface):
    """Jump report across a plane interface with unit normal nu.

    ``row_residuals`` holds |[T] nu| componentwise; for momentum-form models
    the report also carries [m . nu], for relativistic models [rho], and for
    metric-carrying models the quadratic nu^T metric^{-1} nu that classifies
    the interface.
    """
    nu = interface.nu
    forms = [state_to_form(model, st) for st in (interface.left, interface.right)]
    T = [general_tensor_array(model, f.coeffs,
                              f.entropy if f.entropy is not None else 0.0)
         for f in forms]
    jump = (T[1] - T[0]) @ nu
    report = {"nu": nu, "row_residuals": np.abs(jump), "jump": jump}
    if model.p == model.d - 1:
        m = [coeffs_to_momentum(f.coeffs) for f in forms]
        report["m_nu_jump"] = float((m[1] - m[0]) @ nu)
        report["m_left"] = m[0]
        report["m_right"] = m[1]
        if isinstance(model, RelativisticModel):
            report["rho_jump"] = float(model.rho_of(m[1]) - model.rho_of(m[0]))
    if model.metric_hint is not None:
        Sinv = np.linalg.inv(model.metric_hint)
        report["metric_quadratic"] = float(nu @ Sinv @ nu)
    return report


def limit_jump_states(model, m_left, nu, lam):
    """One-parameter jump family for the limit density L = rho^2:
    m_right = m_left + lam Lam^{-1} nu.  On a light-like interface every lam
    satisfies the jump conditions exactly."""
    Lam_inv = np.linalg.inv(model.Lam)
    return np.asarray(m_left, dtype=float) + lam * (Lam_inv @ np.asarray(nu, dtype=float))


def _family_residual(model, nu, m_left, rho_jump_min, lam_grid):
    """Smallest jump residual over candidate right states with a genuine
    density jump; the residual couples |[T] nu| with |[m . nu]|."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    Lam = model.Lam
    Lam_inv = np.linalg.inv(Lam)
    dirs = [Lam_inv @ nu]
    # complete with a Euclidean-orthogonal basis of the plane nu . w = 0
    base = np.linalg.svd(nu[None, :])[2][1:]
    dirs.extend(base)
    rho_L = float(model.rho_of(m_left))
    best = np.inf
    for w in dirs:
        wn = w / np.linalg.norm(w)
        m_R = m_left[None, :] + lam_grid[:, None] * wn[None, :]
        r2 = model.rho_sq(m_R)
        ok = r2 > 1e-10
        if not ok.any():
            continue
        m_R = m_R[ok]
        rho_R = np.sqrt(r2[ok])
        ok2 = np.abs(rho_R - rho_L) >= rho_jump_min
        if not ok2.any():
            continue
        m_R = m_R[ok2]
        A_R = momentum_to_coeffs(m_R)
        A_L = momentum_to_coeffs(m_left[None, :])
        T_R = general_tensor_array(model, A_R, 0.0)
        T_L = general_tensor_array(model, A_L, 0.0)
        jump = np.abs((T_R - T_L) @ nu).max(axis=-1)
        m_nu = np.abs((m_R - m_left[None, :]) @ nu)
        resid = np.maximum(jump, m_nu)
        best = min(best, float(resid.min()))
    return best


def lightlike_normal_search(model, m_left, rho_jump_min=0.05,
                            lam_grid=None, coarse=121, refine_iters=80):
    """Brute-force one-parameter search over interface normals
    nu(theta) = (cos theta, sin theta, 0, 0) for the angle admitting a
    genuine jump of the limit density.

    Scans a coarse theta grid for the smallest family residual, then golden
    sections the bracket.  Returns the winning angle, normal, residual and
    the light-cone quadratic nu^T Lam^{-1} nu at the winner.
    """
    if not isinstance(model, RelativisticModel):
        raise ValueError(f"the light-like normal search needs a relativistic "
                         f"model, not {model.name}")
    if lam_grid is None:
        lam_grid = np.concatenate([-np.geomspace(1e-2, 1.0, 24)[::-1],
                                   np.geomspace(1e-2, 1.0, 24)])
    m_left = np.asarray(m_left, dtype=float)

    def nu_of(theta):
        return np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])

    def objective(theta):
        return _family_residual(model, nu_of(theta), m_left, rho_jump_min, lam_grid)

    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, coarse)
    vals = [objective(t) for t in thetas]
    k = int(np.argmin(vals))
    a = thetas[max(k - 1, 0)]
    b = thetas[min(k + 1, coarse - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(refine_iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(x2)
    theta = x1 if f1 <= f2 else x2
    nu = nu_of(theta)
    Lam_inv = np.linalg.inv(model.Lam)
    return {
        "theta": float(theta),
        "nu": nu,
        "residual": float(min(f1, f2)),
        "metric_quadratic": float(nu @ Lam_inv @ nu),
    }
