"""Orthogonal invariance vs corrected-tensor symmetry, both directions."""
import numpy as np
import pytest
import scipy.linalg

from divfree import (
    build_model,
    em_to_coeffs,
    euclidean_metric,
    invariance_symmetry_check,
    minkowski_metric,
    momentum_to_coeffs,
)
from divfree.exterior import form_basis, pullback_coeffs, pullback_matrix
from divfree.invariance import check_metric, lie_basis
from divfree.models import LagrangianModel, list_models

from helpers import pass_maxima, sampled_states, trace_identity_gap

INVARIANT = (
    ("iso-p1", lambda: euclidean_metric(2)),
    ("maxwell-lorentz", minkowski_metric),
    ("relativistic", minkowski_metric),
)

def model_quadratic(Q, d, p, name="quadratic", metric_hint=None):
    """L = A^T Q A / 2 for symmetric Q; gradient Q A."""
    Q = np.asarray(Q, dtype=float)
    C = form_basis(d, p).size
    if Q.shape != (C, C):
        raise ValueError(f"Q must be {C}x{C}")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")

    def fn(comps, s):
        acc = 0.0
        for a in range(C):
            row = 0.0
            for b in range(C):
                if Q[a, b] != 0.0:
                    row = row + Q[a, b] * comps[b]
            acc = acc + comps[a] * row
        return 0.5 * acc

    def grad_fn(A, s):
        return np.einsum("ab,...b->...a", Q, A)

    return LagrangianModel(name, d, p, fn, grad_fn=grad_fn,
                           metric_hint=metric_hint, params={})


def invariant_quadratic_model(S, p, weight=1.0, name="quadratic-invariant"):
    """Quadratic density built from the induced pairing of S on degree-p
    coefficients: L = weight * A^T G A / 2 with G the p-minor matrix of
    S^{-1}.  Exactly invariant under the pullback action of O(S)."""
    S = check_metric(S)
    d = S.shape[0]
    G = pullback_matrix(np.linalg.inv(S), d, p)
    G = 0.5 * (G + G.T)  # symmetric up to roundoff already
    return model_quadratic(weight * G, d, p, name=name, metric_hint=S)


def commutator_closure_residual(gens):
    """Least-squares residual of expressing every commutator of generators
    inside their span; zero for a true Lie algebra basis."""
    stacked = np.stack([N.ravel() for N in gens], axis=1)
    worst = 0.0
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            C = gens[a] @ gens[b] - gens[b] @ gens[a]
            coef, res, *_ = np.linalg.lstsq(stacked, C.ravel(), rcond=None)
            recon = stacked @ coef
            worst = max(worst, float(np.abs(recon - C.ravel()).max()))
    return worst


USER_EXPR = {"expr": "A0^2/2 + s*A1 + exp(-A1^2)", "d": 2, "p": 1}

# one broken state each, defects measured once and frozen
GAS_WITNESS_A = momentum_to_coeffs(np.array([1.0, 1.0]))[None, :]
ANIS_WITNESS_A = em_to_coeffs(np.array([1.0, 0.0, 0.0]),
                              np.array([0.0, 1.0, 0.0]))[None, :]


@pytest.mark.parametrize("S", (euclidean_metric(2), euclidean_metric(3),
                               minkowski_metric(), minkowski_metric(c=2.0)))
def test_lie_basis_solves_the_metric_equation(S):
    basis = lie_basis(S)
    d = S.shape[0]
    assert list(basis) == [f"{a}{b}" for a in range(d) for b in range(a + 1, d)]
    for N in basis.values():
        assert np.abs(N.T @ S + S @ N).max() < 1e-12
    assert commutator_closure_residual(list(basis.values())) < 1e-12


@pytest.mark.parametrize("d", (0, 1))
def test_a_metric_below_dimension_two_is_rejected_by_name(d):
    # O(S) of a 1x1 metric has no generators, so a defect could never show
    with pytest.raises(ValueError, match=f"dimension {d} has no generators"):
        lie_basis(np.eye(d))
    if d == 1:
        with pytest.raises(ValueError, match="dimension 1 has no generators"):
            invariance_symmetry_check(build_model("iso-p1", {"d": 1}), euclidean_metric(1))


def test_minkowski_basis_contains_boosts():
    gens = lie_basis(minkowski_metric())
    # at least one generator is not antisymmetric as a plain matrix
    assert max(np.abs(N + N.T).max() for N in gens.values()) > 0.5


@pytest.mark.parametrize("name,metric", INVARIANT)
def test_invariant_models_pass_both_directions(name, metric):
    report = invariance_symmetry_check(build_model(name), metric(), n_states=64, seed=0)
    assert report["invariance_defect"] <= 1e-10
    assert report["symmetry_defect"] <= 1e-10
    assert report["trace_identity_residual"] <= 1e-10
    assert report["invariant_generators"] == list(lie_basis(metric()))
    assert report["verdict"] == "invariant-symmetric"
    assert report["agreement"]


def test_gas_breaks_both_directions_at_the_witness():
    gas = build_model("gas")
    S = euclidean_metric(2)
    inv, sym, _ = pass_maxima(gas, S, (GAS_WITNESS_A, np.zeros(1)))
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
    inv, sym, _ = pass_maxima(anis, S, (ANIS_WITNESS_A, np.zeros(1)))
    assert abs(inv - 0.5) < 1e-12
    assert sym == 2.0
    report = invariance_symmetry_check(anis, S, n_states=64, seed=0)
    assert report["verdict"] == "broken-asymmetric"
    assert report["agreement"]


def test_trace_identity_separates_the_families():
    gas = build_model("gas")
    assert pass_maxima(gas, euclidean_metric(2), sampled_states(gas, 64, 0))[2] > 1e-2
    anis = build_model("maxwell-anisotropic")
    assert pass_maxima(anis, minkowski_metric(), sampled_states(anis, 64, 0))[2] > 1e-2


def _identity_cases():
    models = [(e["name"], e["name"], USER_EXPR if e["name"] == "user-expr" else None)
              for e in list_models()] + [("relativistic-c2", "relativistic", {"c": 2.0})]
    for label, name, params in models:
        d = build_model(name, params).d
        yield pytest.param(name, params, euclidean_metric(d), id=f"{label}-euclidean")
        if d == 4:
            for c in (1, 2):
                yield pytest.param(name, params, minkowski_metric(float(c)),
                                   id=f"{label}-minkowski{c}")


@pytest.mark.parametrize("name,params,S", _identity_cases())
def test_pairing_equals_the_trace_per_generator(name, params, S):
    # G . (N . A) = Tr(N (L I - T^T)) holds state by state for every
    # generator, invariant or not
    model = build_model(name, params)
    assert trace_identity_gap(model, S, sampled_states(model, 64, seed=0)) <= 1e-12


@pytest.mark.parametrize("name,params,metric", (
    ("maxwell-anisotropic", None, lambda: minkowski_metric(1.0)),
    ("relativistic", {"c": 2.0}, lambda: minkowski_metric(1.0)),
    ("gas-polytropic", None, lambda: euclidean_metric(4)),
))
def test_rotations_keep_the_density_invariant_where_boosts_break_it(name, params, metric):
    report = invariance_symmetry_check(build_model(name, params), metric(),
                                       n_states=64, seed=0)
    defects = report["generator_defects"]
    assert report["invariant_generators"] == ["12", "13", "23"]
    assert max(defects[n] for n in ("12", "13", "23")) < 1e-15
    assert min(defects[n] for n in ("01", "02", "03")) > 0.3


@pytest.mark.parametrize("name,metric", INVARIANT)
def test_finite_group_elements_preserve_the_density(name, metric):
    # exponentiate each generator and check L o R^* = L to roundoff
    model = build_model(name)
    S = metric()
    A, s = model.sample_states(np.random.default_rng(21), 8)
    for N in lie_basis(S).values():
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
