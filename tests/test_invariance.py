"""Orthogonal invariance vs corrected-tensor symmetry, both directions."""
import numpy as np
import pytest
import scipy.linalg

from divfree import (
    build_model,
    em_to_coeffs,
    euclidean_metric,
    invariance_defect,
    invariant_quadratic_model,
    lie_basis,
    minkowski_metric,
    model_quadratic,
    momentum_to_coeffs,
    pullback_coeffs,
    skew_basis,
    symmetry_defect_max,
    invariance_symmetry_check,
    trace_identity_residual,
)
from divfree.invariance import commutator_closure_residual

INVARIANT = (
    ("iso-p1", lambda: euclidean_metric(2)),
    ("maxwell-lorentz", minkowski_metric),
    ("relativistic", minkowski_metric),
)

# one broken state each, defects measured once and frozen
GAS_WITNESS_A = momentum_to_coeffs(np.array([1.0, 1.0]))[None, :]
ANIS_WITNESS_A = em_to_coeffs(np.array([1.0, 0.0, 0.0]),
                              np.array([0.0, 1.0, 0.0]))[None, :]


def test_skew_basis_spans_the_antisymmetric_matrices():
    for d in (2, 3, 4):
        basis = skew_basis(d)
        assert len(basis) == d * (d - 1) // 2
        flat = np.stack([N.ravel() for N in basis])
        assert np.linalg.matrix_rank(flat) == len(basis)
        for N in basis:
            assert np.abs(N + N.T).max() == 0.0


@pytest.mark.parametrize("S", (euclidean_metric(2), euclidean_metric(3),
                               minkowski_metric(), minkowski_metric(c=2.0)))
def test_lie_basis_solves_the_metric_equation(S):
    basis = lie_basis(S)
    d = S.shape[0]
    assert len(basis.generators) == d * (d - 1) // 2
    for N in basis.generators:
        assert np.abs(N.T @ S + S @ N).max() < 1e-12
    assert commutator_closure_residual(basis.generators) < 1e-12


def test_minkowski_basis_contains_boosts():
    gens = lie_basis(minkowski_metric()).generators
    # at least one generator is not antisymmetric as a plain matrix
    assert max(np.abs(N + N.T).max() for N in gens) > 0.5


@pytest.mark.parametrize("name,metric", INVARIANT)
def test_invariant_models_pass_both_directions(name, metric):
    report = invariance_symmetry_check(build_model(name), metric(), n_states=64, seed=0)
    assert report["invariance_defect"] <= 1e-10
    assert report["symmetry_defect"] <= 1e-10
    assert report["trace_identity_residual"] <= 1e-10
    assert report["verdict"] == "invariant-symmetric"
    assert report["agreement"]


def test_gas_breaks_both_directions_at_the_witness():
    gas = build_model("gas")
    S = euclidean_metric(2)
    states = (GAS_WITNESS_A, np.zeros(1))
    inv = invariance_defect(gas, S, states=states)
    sym = symmetry_defect_max(gas, S, states=states)
    assert abs(inv - 0.6933752452815363) < 1e-12
    assert sym == 2.5
    report = invariance_symmetry_check(gas, S, n_states=64, seed=0)
    assert report["verdict"] == "broken-asymmetric"
    assert report["agreement"]
    assert report["invariance_defect"] >= 1e-2
    assert report["symmetry_defect"] >= 1e-2


def test_anisotropic_breaks_both_directions_at_the_witness():
    anis = build_model("maxwell-anisotropic")
    S = minkowski_metric()
    states = (ANIS_WITNESS_A, np.zeros(1))
    inv = invariance_defect(anis, S, states=states)
    sym = symmetry_defect_max(anis, S, states=states)
    assert abs(inv - 0.5) < 1e-12
    assert sym == 2.0
    report = invariance_symmetry_check(anis, S, n_states=64, seed=0)
    assert report["verdict"] == "broken-asymmetric"
    assert report["agreement"]


def test_trace_identity_separates_the_families():
    gas = build_model("gas")
    assert trace_identity_residual(gas, euclidean_metric(2),
                                   gas.sample_states(np.random.default_rng(0), 64)) > 1e-2
    anis = build_model("maxwell-anisotropic")
    assert trace_identity_residual(anis, minkowski_metric(),
                                   anis.sample_states(np.random.default_rng(0), 64)) > 1e-2


@pytest.mark.parametrize("name,metric", INVARIANT)
def test_finite_group_elements_preserve_the_density(name, metric):
    # exponentiate each generator and check L o R^* = L to roundoff
    model = build_model(name)
    S = metric()
    A, s = model.sample_states(np.random.default_rng(21), 8)
    for N in lie_basis(S).generators:
        for t in (0.3, -0.7):
            R = scipy.linalg.expm(t * N)
            assert np.abs(R.T @ S @ R - S).max() < 1e-10
            moved = pullback_coeffs(R, A, model.d, model.p)
            gap = np.abs(model.evaluate(moved, s) - model.evaluate(A, s)).max()
            assert gap < 1e-10


def test_quadratic_families_agree_on_both_sides():
    # metric-built quadratics land invariant-symmetric, generic ones broken;
    # the equivalence verdict must agree either way
    S = minkowski_metric()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        Q = rng.standard_normal((6, 6))
        Q = 0.5 * (Q + Q.T)
        generic = model_quadratic(Q, 4, 2, metric_hint=S)
        rep = invariance_symmetry_check(generic, S, n_states=32, seed=seed)
        assert rep["agreement"]
        assert rep["verdict"] == "broken-asymmetric"
    for seed, (S_inv, p, w) in enumerate((
            (minkowski_metric(), 2, 0.7),
            (minkowski_metric(), 1, 1.0),
            (euclidean_metric(3), 1, 1.3),
            (euclidean_metric(4), 2, -0.4),
            (minkowski_metric(c=1.5), 3, 2.0),
            (euclidean_metric(2), 1, 0.25),
            (minkowski_metric(), 2, -1.0),
            (euclidean_metric(3), 2, 3.0),
            (euclidean_metric(4), 3, 0.6),
            (minkowski_metric(c=0.5), 1, 1.7),
    )):
        model = invariant_quadratic_model(S_inv, p, weight=w)
        rep = invariance_symmetry_check(model, S_inv, n_states=32, seed=seed)
        assert rep["agreement"]
        assert rep["verdict"] == "invariant-symmetric"


def test_defect_reports_are_deterministic():
    gas = build_model("gas")
    S = euclidean_metric(2)
    a = invariance_symmetry_check(gas, S, n_states=50, seed=9)
    b = invariance_symmetry_check(gas, S, n_states=50, seed=9)
    assert a == b
    c = invariance_symmetry_check(gas, S, n_states=50, seed=10)
    assert c["invariance_defect"] != a["invariance_defect"]
