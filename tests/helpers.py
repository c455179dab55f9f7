"""Shared sampling, comparison and process helpers for the test suite."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import divfree
from divfree.conventions import momentum_to_coeffs
from divfree.exterior import form_basis
from divfree.fields import (_LAM_GRID, _REFINE_ITERS, _interior, div_rows, euler_lagrange_rows,
                            tensor_grid)
from divfree.invariance import generator_defects
from divfree.manufactured import closed_trig_form, study_model
from divfree.tensors import general_tensor_array, symmetry_defect


def sampled_states(model, n, seed):
    """Admissible (A, s) batch drawn through the model's own sampler."""
    return model.sample_states(np.random.default_rng(seed), n)


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


def run_cli_process(argv):
    """``python -m divfree.cli argv`` in a child process that imports the
    same divfree as the tests, wherever pytest found it."""
    paths = [str(Path(divfree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "divfree.cli", *argv],
                          capture_output=True, text=True, env=env)

