"""Shared sampling, comparison and process helpers for the test suite."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import divfree
from divfree.conventions import coeffs_to_em, coeffs_to_momentum, em_to_coeffs, momentum_to_coeffs
from divfree.exterior import (PFormValue, _det_batch, exterior_derivative_table, form_basis,
                              hodge, pullback_matrix)
from divfree.fields import (_LAM_GRID, _REFINE_ITERS, _divergence, _interior, _require_interior,
                            closedness_residual, div_rows, div_T_residual,
                            entropy_transport_residual, euler_lagrange_rows,
                            poynting_residual, tensor_grid)
from divfree.invariance import generator_defects
from divfree.manufactured import bump_variation, closed_trig_form, study_model
from divfree.models import EMState, GasState, MaxwellModel, RelativisticState
from divfree.tensors import general_tensor_array, symmetry_defect


def minor(M, I, J):
    """Determinant of the submatrix of M with rows I and columns J, batched
    over M's leading axes: the reference for pullback_matrix's entries."""
    if len(I) != len(J):
        raise ValueError("row and column tuples must have equal length")
    M = np.asarray(M, dtype=float)
    return _det_batch(M[..., list(I), :][..., :, list(J)])


def pullback_coeffs(M, A, d, p):
    """Substitution action B = A @ P on a coefficient array; A has trailing
    axis of length C(d, p) and M may be batched alongside it."""
    return np.einsum("...i,...ij->...j", np.asarray(A, dtype=float), pullback_matrix(M, d, p))


def star(A, d, p):
    """The Hodge map on degree-p coefficients: (star A)[C-1-a] = hodge(d, p)[a] A[a]."""
    return (np.asarray(A, dtype=float) * np.array(hodge(d, p)))[..., ::-1]


def energy_density(model, rho, s=0.0):
    """e = L / c^2 of a relativistic model at density rho."""
    return model.profile(np.asarray(rho, dtype=float), s) / (model.c * model.c)


def ultrarelativistic(model):
    """Whether a relativistic model's power-law exponent is the
    ultra-relativistic 4/3."""
    return abs(model.params.get("kappa", 0.0) - 4.0 / 3.0) < 1e-12


def sampled_states(model, n, seed):
    """Admissible (A, s) batch drawn through the model's own sampler."""
    return model.sample_states(np.random.default_rng(seed), n)


def typed_state(model, a, s=0.0):
    """One coefficient row as a state of the model's family, or as a
    PFormValue for a model without a state class; the inverse of reading a
    state's ``.coeffs`` and ``.s``."""
    a, s = np.asarray(a, dtype=float), float(s)
    if model.state_type is None:
        return PFormValue(model.d, model.p, a, s)
    if model.state_type is EMState:
        return EMState(*coeffs_to_em(a), s)
    m = coeffs_to_momentum(a)
    if model.state_type is GasState:
        return GasState(m[0], m[1:], s)
    return RelativisticState(m, s)


def pass_maxima(model, S, states):
    """The invariance check's three maxima at the given states, from one
    generator_defects pass: the normalized invariance defect, the asymmetry
    of S^{-1} T and the trace residual; a NaN term wins each."""
    T, gens = generator_defects(model, S, states)
    inv = np.max([g["defect"].max() for g in gens.values()])
    trace = np.max([np.abs(g["trace"]).max() for g in gens.values()])
    return float(inv), float(np.max(symmetry_defect(T, S))), float(trace)


def trace_identity_gap(model, S, states):
    """Worst over the generators of |pairing - trace| / max(1, max |pairing|);
    the identity G . (N . A) = Tr(N (L I - T^T)) holds when it is at
    roundoff.  A NaN gap wins."""
    _, gens = generator_defects(model, S, states)
    return float(np.max([g["gap"].max() / max(1.0, np.abs(g["pairing"]).max())
                         for g in gens.values()]))


def euler_lagrange_gap(model, grid):
    """(max |Div T + A . div G|, max |Div T|) on interior nodes, with
    A_{iK} read through the sign of basis.slot((i,) + K) as the assembly
    reads it.  For a closed field at constant s the gap falls at order 2
    while Div T stays put."""
    d, p = grid.d, grid.p
    div_T = div_rows(tensor_grid(model, grid), grid.spacing, d)
    div_G = euler_lagrange_rows(model, grid)
    A = _interior(grid.values, d)
    gap = np.array(div_T)
    for i in range(d):
        for k, K in enumerate(form_basis(d, p - 1).tuples):
            slot, sign = form_basis(d, p).slot((i,) + K)
            if sign:
                gap[..., i] += sign * A[..., slot] * div_G[..., k]
    return float(np.abs(gap).max()), float(np.abs(div_T).max())


# (d, p) -> (scale, resolutions): the seed-0 study model on
# closed_trig_form(d, p, 101, modes=1) sampled at scale * Y, at s = 0, whose
# identity gap is in its asymptotic range on these resolutions
IDENTITY_LADDERS = {
    (2, 1): (1 / 16, (8, 16, 32)), (2, 2): (1 / 4, (8, 16, 32, 64)),
    (3, 1): (1 / 4, (32, 64)), (3, 2): (1 / 16, (8, 16, 32)), (3, 3): (1 / 4, (8, 16, 32)),
    (4, 1): (1 / 16, (8, 16)), (4, 2): (1 / 16, (8, 16)), (4, 3): (1 / 16, (8, 16)),
    (4, 4): (1 / 4, (8, 16)),
}


def euler_lagrange_identity(d, p):
    """Observed orders of the identity gap along IDENTITY_LADDERS[(d, p)],
    and max |Div T| per level."""
    scale, ladder = IDENTITY_LADDERS[(d, p)]
    model = study_model(d, p, 0)
    form = closed_trig_form(d, p, 101, modes=1)
    gaps, div_T = [], []
    for n in ladder:
        grid = divfree.GridField.from_function(lambda Y: form(scale * Y), d, p,
                                               (n,) * d, (1.0 / n,) * d)
        gap, top = euler_lagrange_gap(model, grid)
        gaps.append(gap)
        div_T.append(top)
    return [math.log2(gaps[k] / gaps[k + 1]) for k in range(len(gaps) - 1)], div_T


def limit_jump_states(model, m_left, nu, lam):
    """One-parameter jump family for the limit density L = rho^2:
    m_right = m_left + lam Lam^{-1} nu.  On a light-like interface every lam
    satisfies the jump conditions exactly."""
    Lam_inv = np.linalg.inv(model.Lam)
    return np.asarray(m_left, dtype=float) + lam * (Lam_inv @ np.asarray(nu, dtype=float))


def family_residual_loop(model, nu, m_left, rho_jump_min):
    """Reference for fields._family_residual on one normal: each candidate
    direction on its own, with 1-D norms and matrix-vector products."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    dirs = [np.linalg.inv(model.Lam) @ nu, *np.linalg.svd(nu[None, :])[2][1:]]
    rho_L = float(model.rho_of(m_left))
    T_L = general_tensor_array(model, momentum_to_coeffs(m_left[None, :]), 0.0)
    best = np.inf
    for w in dirs:
        m_R = m_left[None, :] + _LAM_GRID[:, None] * (w / np.linalg.norm(w))[None, :]
        r2 = model.rho_sq(m_R)
        m_R, r2 = m_R[r2 > 1e-10], r2[r2 > 1e-10]
        m_R = m_R[np.abs(np.sqrt(r2) - rho_L) >= rho_jump_min]
        if len(m_R):
            T_R = general_tensor_array(model, momentum_to_coeffs(m_R), 0.0)
            jump = np.abs((T_R - T_L) @ nu).max(axis=-1)
            m_nu = np.abs((m_R - m_left[None, :]) @ nu)
            best = min(best, float(np.maximum(jump, m_nu).min()))
    return best


def normal_search_reference(model, m_left, rho_jump_min=0.05, coarse=121):
    """Reference for fields.lightlike_normal_search: the same coarse scan and
    golden section, with no memo, every angle scored on its own by
    family_residual_loop, which builds its own left state.  Returns the
    winning (theta, residual, nu) and the refine angles in the order they
    were scored, repeats included."""
    def nu_of(theta):
        return np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])

    def objective(theta):
        refined.append(theta)
        return family_residual_loop(model, nu_of(theta), m_left, rho_jump_min)

    refined = []
    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, coarse)
    vals = [family_residual_loop(model, nu_of(t), m_left, rho_jump_min) for t in thetas]
    k = int(np.argmin(vals))
    a, b = thetas[max(k - 1, 0)], thetas[min(k + 1, coarse - 1)]
    theta, residual = thetas[k], vals[k]
    if a < b:
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        x1, x2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = objective(x1), objective(x2)
        for _ in range(_REFINE_ITERS):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = objective(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = objective(x2)
        theta = x1 if f1 <= f2 else x2
        residual = min(f1, f2)
    return float(theta), float(residual), nu_of(theta), refined


# references for the grid residuals of divfree.fields: the whole-grid ones
# compute every interior node in one pass through their own slicing stencil,
# cd, with the arithmetic the slabs repeat per slab, and the gather sums
# every axis of every Euler-Lagrange row, zero terms included, through div_rows


def cd(arr, axis, h, ndim_grid):
    """Central difference along one grid axis on the nodes interior to every
    grid axis, sliced here and not by divfree.fields: the reference stencil."""
    hi = [slice(1, -1)] * ndim_grid
    lo = list(hi)
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)


def div_rows_reference(T_field, spacing, d):
    """div_rows term by term: each central difference a new array, summed
    onto 0.0 and stacked."""
    rows = []
    for i in range(T_field.shape[-2]):
        acc = 0.0
        for j in range(d):
            acc = acc + cd(T_field[..., i, j], j, spacing[j], d)
        rows.append(acc)
    return np.stack(rows, axis=-1)


def closedness_residual_whole(grid):
    if grid.p >= grid.d:
        return 0.0
    _require_interior(grid)
    worst = 0.0
    for _, terms in exterior_derivative_table(grid.d, grid.p):
        acc = 0.0
        for axis, slot, sign in terms:
            acc = acc + sign * cd(grid.values[..., slot], axis, grid.spacing[axis], grid.d)
        worst = np.maximum(worst, np.abs(acc).max())
    return float(worst)


def euler_lagrange_rows_gather(model, grid):
    """The Euler-Lagrange rows through a zero-filled (C(d, p-1), d) gather
    G_{jK} = sign(jK) g_J handed to div_rows, every axis of every row."""
    _require_interior(grid)
    d, p = grid.d, grid.p
    s = grid.entropy if grid.entropy is not None else 0.0
    g = model.gradient(grid.values, s)
    G = np.zeros((form_basis(d, p - 1).size, d) + grid.dims)
    for J, terms in exterior_derivative_table(d, p - 1):
        g_J = g[..., form_basis(d, p).index[J]]
        for axis, K, sign in terms:
            G[K, axis] = sign * g_J
    return div_rows(G.transpose(tuple(range(2, G.ndim)) + (0, 1)), grid.spacing, d)


def random_nodal_grid(d, p, seed=0):
    """A 7 x 6 x 5 x 4 (first d axes) grid of random coefficients and
    entropy with random spacings: every central difference is nonzero."""
    rng = np.random.default_rng(seed)
    dims = (7, 6, 5, 4)[:d]
    return divfree.GridField(d, p, dims, rng.uniform(0.1, 0.5, d), (0.0,) * d,
                             rng.standard_normal(dims + (math.comb(d, p),)),
                             rng.standard_normal(dims))


def div_T_residual_whole(model, grid):
    _require_interior(grid)
    rows = div_rows_reference(tensor_grid(model, grid), grid.spacing, grid.d)
    return np.abs(rows).max(axis=tuple(range(grid.d)))


def entropy_transport_residual_whole(model, grid):
    _require_interior(grid)
    m = coeffs_to_momentum(grid.values)
    acc = 0.0
    for a in range(grid.d):
        acc = acc + _interior(m[..., a], grid.d) * cd(grid.entropy, a, grid.spacing[a], grid.d)
    rho = _interior(m[..., 0], grid.d)
    s = _interior(grid.entropy, grid.d)
    factor = model.pressure_entropy_derivative(rho, s)
    return {
        "residual": float(np.abs(acc).max()),
        "factor_min": float(np.min(factor)),
        "factor_max": float(np.max(factor)),
    }


def poynting_residual_whole(model, grid):
    """Also the Maxwell round trip that MaxwellModel.fields skips: L from
    ``evaluate`` on the coefficients, and E x H from np.cross."""
    _require_interior(grid)
    E, B = coeffs_to_em(grid.values)
    s = grid.entropy if grid.entropy is not None else 0.0
    D, H = model.material(E, B, s)
    W = np.einsum("...k,...k->...", E, D) - model.evaluate(em_to_coeffs(E, B), s)
    ExH = np.cross(E, H)
    acc = cd(W, 0, grid.spacing[0], grid.d)
    for k in range(3):
        acc = acc + cd(ExH[..., k], 1 + k, grid.spacing[1 + k], grid.d)
    return acc


def study_level(d, p, seed, n0, level):
    """(model, grid, variation) of one level of variation_study(d, p, seed,
    n0=n0): its density, closed field with entropy, and bump variation on the
    support snapped to the coarsest grid's nodes."""
    n = n0 << level
    dims, spacing = (n,) * d, (1.0 / n,) * d
    grid = divfree.GridField.from_function(
        closed_trig_form(d, p, seed + 101), d, p, dims, spacing,
        entropy_fn=lambda Y: np.sin(2 * math.pi * Y[..., 0]) * 0.5)
    var = bump_variation(d, dims, spacing, seed + 202,
                         support=(2.0 / n0 + 1e-12, (n0 - 2.0) / n0 - 1e-12))
    return study_model(d, p, seed), grid, var


# references for the two pairings of divfree.fields: T assembled on every
# node and every product summed over the whole interior


def tensor_pairing_whole(model, grid, var):
    """first_variation's pairing, - sum T_ij d_j xi_i vol."""
    d = grid.d
    T_int = _interior(tensor_grid(model, grid), d)
    pairing = 0.0
    for i in range(d):
        dxi = _divergence([var.values[..., i]], [[(j, 0, 1)] for j in range(d)], grid.spacing, d)
        for j in range(d):
            pairing -= float(np.sum(T_int[..., i, j] * dxi[j]))
    return pairing * grid.cell_volume


def divergence_pairing_whole(model, grid, var):
    """divergence_pairing, + sum xi_i (Div T)_i vol."""
    rows = div_rows(tensor_grid(model, grid), grid.spacing, grid.d)
    return float(np.sum(_interior(var.values, grid.d) * rows) * grid.cell_volume)


def slab_budget(grid, width):
    """The fields._SLAB_BYTES at which the grid's slabs are ``width`` planes."""
    return width * 8 * grid.d ** 2 * math.prod(grid.dims[1:])


def random_slab_grids(wave_dims, gas_dims, seed=3):
    """(model, grid) pairs of unit-free random samples for the slab checks:
    a maxwell-lorentz wave grid and a gas grid with entropy."""
    rng = np.random.default_rng(seed)
    wave = divfree.GridField(4, 2, wave_dims, (0.25, 0.5, 0.2, 0.4), (0.0,) * 4,
                             rng.standard_normal(wave_dims + (6,)))
    rho, q = rng.uniform(0.5, 1.5, gas_dims), rng.standard_normal(gas_dims)
    gas = divfree.GridField(2, 1, gas_dims, (0.1, 0.3), (0.0, 0.0), np.stack([-q, rho], axis=-1),
                            0.3 * rng.standard_normal(gas_dims))
    return [(divfree.build_model("maxwell-lorentz"), wave), (divfree.build_model("gas"), gas)]


def slab_results(model, grid):
    """name -> (slabbed result, whole-grid reference) as float arrays: Div T
    rows and closedness always, the entropy transport dict on a grid with
    entropy, the Poynting field under an electromagnetic model."""
    pairs = {"div_T": (div_T_residual(model, grid), div_T_residual_whole(model, grid)),
             "closedness": (closedness_residual(grid), closedness_residual_whole(grid))}
    if grid.entropy is not None:
        pairs["transport"] = tuple(list(f(model, grid).values()) for f in (
            entropy_transport_residual, entropy_transport_residual_whole))
    if isinstance(model, MaxwellModel):
        pairs["poynting"] = (poynting_residual(model, grid), poynting_residual_whole(model, grid))
    return {k: tuple(np.asarray(r, dtype=float) for r in v) for k, v in pairs.items()}


def same_bits(a, b):
    """Equal shapes, values and signs of zero, with NaN where the other has NaN."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def rel_gap(a, b):
    """Max entrywise difference over max(1, scale of the operands)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)


def pretty_reference(report):
    """The ``--output pretty`` text of a report read back from its JSON:
    the strings "nan", "inf" and "-inf" become floats again; a dict, or a
    list holding anything but numbers, opens a block indented two spaces
    under its ``key:`` or ``[index]`` line; anything else is ``key: text``
    or ``- text``, floats to 10 significant digits."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, list):
            return [plain(x) for x in v]
        return float(v) if v in ("nan", "inf", "-inf") else v

    def block(v):
        return isinstance(v, dict) or (isinstance(v, list) and not all(
            isinstance(x, (int, float)) for x in v))

    def text(v):
        if isinstance(v, list):
            return "[" + ", ".join(map(text, v)) + "]"
        if isinstance(v, bool):
            return "true" if v else "false"
        return "%.10g" % v if isinstance(v, float) else str(v)

    def lines(v, pad):
        items = sorted(v.items()) if isinstance(v, dict) else enumerate(v)
        for k, x in items:
            head = f"{k}:" if isinstance(v, dict) else f"[{k}]"
            if block(x):
                yield pad + head
                yield from lines(x, pad + "  ")
            else:
                yield pad + (f"{k}: " if isinstance(v, dict) else "- ") + text(x)

    return "".join(line + "\n" for line in lines(plain(report), ""))


def run_cli_process(argv):
    """``python -m divfree.cli argv`` in a child process that imports the
    same divfree as the tests, wherever pytest found it."""
    paths = [str(Path(divfree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "divfree.cli", *argv],
                          capture_output=True, text=True, env=env)

