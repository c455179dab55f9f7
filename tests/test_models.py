"""Density models: hand values, gradients, admissibility, error paths."""
import numpy as np
import pytest

from divfree import (
    ad_gradient,
    build_model,
    coeffs_to_momentum,
    em_to_coeffs,
    finite_difference_gradient,
    momentum_to_coeffs,
)
from divfree import dualnum
from divfree.exterior import PFormValue
from divfree.models import (
    EMState,
    EvaluationDomainError,
    GasModel,
    GasState,
    IsotropicModel,
    LuminalStateError,
    MaxwellModel,
    RelativisticModel,
    RelativisticState,
    list_models,
    model_from_expression,
    typed_state,
)

from helpers import rel_gap, sampled_states

BUILTIN = ("iso-p1", "minimal-surface", "gas", "gas-polytropic",
           "relativistic", "relativistic-powerlaw", "relativistic-limit",
           "maxwell-linear", "maxwell-lorentz", "maxwell-anisotropic")


def test_registry_lists_the_builtins():
    listed = {entry["name"]: entry for entry in list_models()}
    for name in BUILTIN + ("user-expr",):
        assert name in listed
        assert listed[name]["summary"]
    with pytest.raises(KeyError):
        build_model("no-such-model")


def test_registry_defaults_are_the_factory_signatures():
    listed = {entry["name"]: entry["defaults"] for entry in list_models()}
    assert listed["gas"] == {"n": 1, "gamma": 2.0, "mu": 0.0}
    assert listed["relativistic-powerlaw"] == {"kappa": 4.0 / 3.0, "c": 1.0, "mu": 0.0}
    assert listed["maxwell-linear"] == {}
    assert listed["user-expr"] == {"expr": None, "d": None, "p": None}


@pytest.mark.parametrize("params", ({"foo": 1}, {"g": "polytropic"}, {"n": 2, "kappa": 1.5}))
def test_unknown_model_parameter_names_the_accepted_keys(params):
    with pytest.raises(ValueError, match="n, gamma, mu"):
        build_model("gas", params)


@pytest.mark.parametrize("name, key", (("gas", "n"), ("gas-polytropic", "n"),
                                       ("iso-p1", "d"), ("minimal-surface", "d")))
def test_dimension_parameters_are_integers(name, key):
    for bad in (1.5, 2.9, True, "2", float("nan")):
        with pytest.raises(ValueError, match=f"parameter {key} must be an integer"):
            build_model(name, {key: bad})
    # an integral float names the same model as the int
    assert build_model(name, {key: 3.0}).d == build_model(name, {key: 3}).d


def test_isotropic_hand_values():
    m = build_model("iso-p1")
    A = np.array([3.0, 4.0])
    assert m.d == 2 and m.p == 1
    assert m.evaluate(A) == 12.5
    assert np.abs(m.gradient(A) - A).max() < 1e-14
    # entropy slot is inert for this density
    assert m.evaluate(A, 0.9) == m.evaluate(A, -0.3)


def test_minimal_surface_hand_values():
    m = build_model("minimal-surface")
    A = np.array([3.0, 4.0, 12.0])
    assert m.d == 3 and m.p == 1
    assert abs(m.evaluate(A) - np.sqrt(170.0)) < 1e-13
    assert np.abs(m.gradient(A) - A / np.sqrt(170.0)).max() < 1e-13


def test_gas_hand_values():
    gas = build_model("gas")  # polytropic exponent 2, no entropy coupling
    st = GasState(rho=1.0, q=[1.0])
    A = momentum_to_coeffs(st.m)
    assert gas.evaluate(A) == 0.0  # |q|^2 / (2 rho) - rho^2 / 2 at (1, 1)
    assert np.abs(gas.m_gradient(st.m, 0.0) - np.array([-1.5, 1.0])).max() < 1e-14
    assert gas.pressure(1.0, 0.0) == 0.5
    assert gas.pressure(2.0, 0.0) == 2.0
    assert gas.internal_energy(2.0, 0.0) == 2.0
    assert gas.pressure_entropy_derivative(1.0, 0.0) == 0.0


def test_gas_polytropic_entropy_coupling():
    gas = build_model("gas-polytropic")  # n = 3, gamma = 1.4, mu = 1
    gamma, mu = 1.4, 1.0
    for rho, s in ((1.0, 0.0), (1.7, 0.4), (0.6, -0.8)):
        p = (1.0 - 1.0 / gamma) * np.exp(mu * s) * rho ** gamma
        assert abs(gas.pressure(rho, s) - p) < 1e-12
        assert abs(gas.pressure_entropy_derivative(rho, s) - mu * p) < 1e-10
    with pytest.raises(ValueError):
        GasState(rho=-1.0, q=[0.0, 0.0, 0.0])


def test_relativistic_normalization_and_pressure():
    rel = build_model("relativistic")  # power-law exponent 1.5, c = 1
    m = np.array([2.0, 0.3, -0.1, 0.2])
    rho = rel.rho_of(m)
    assert abs(rho - np.sqrt(3.86)) < 1e-14
    u = m / rho
    assert abs(u @ rel.Lam @ u + 1.0) < 1e-14
    e = rel.energy_density(rho, 0.0)
    p = rel.pressure(rho, 0.0)
    assert abs(p - 0.5 * e) < 1e-13  # (kappa - 1) e c^2 with kappa = 3/2
    with pytest.raises(LuminalStateError):
        rel.rho_of(np.array([1.0, 2.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RelativisticState(m=[1.0, 0.0])


def test_relativistic_density_refuses_a_luminal_state():
    rel = build_model("relativistic")
    outside = momentum_to_coeffs(np.array([1.0, 2.0, 0.0, 0.0]))
    for call in (rel.evaluate, rel.gradient, ad_gradient(rel)):
        with pytest.raises(LuminalStateError):
            call(outside)


def test_powerlaw_pressure_identity_and_flag():
    for kappa in (1.1, 4.0 / 3.0, 1.9):
        mdl = build_model("relativistic-powerlaw", {"kappa": kappa})
        rho = mdl.rho_of(np.array([2.0, 0.3, -0.1, 0.2]))
        e = mdl.energy_density(rho, 0.0)
        p = mdl.pressure(rho, 0.0)
        assert abs(p - (kappa - 1.0) * e * mdl.c ** 2) < 1e-12 * max(1.0, abs(p))
        assert mdl.ultrarelativistic == (kappa == 4.0 / 3.0)


def test_maxwell_linear_fields_and_density():
    mx = build_model("maxwell-linear")
    E = np.array([0.4, -0.2, 0.9])
    B = np.array([0.1, 0.8, -0.3])
    D, H, W = mx.fields(E, B, 0.0)
    assert np.abs(D - E).max() == 0.0
    assert np.abs(H - B).max() == 0.0
    assert abs(W - 0.5 * (E @ E + B @ B)) < 1e-14
    assert abs(mx.evaluate(em_to_coeffs(E, B)) - 0.5 * (E @ E - B @ B)) < 1e-14
    with pytest.raises(ValueError):
        EMState(E=[1.0, 0.0], B=[0.0, 0.0, 0.0])


def test_maxwell_lorentz_depends_only_on_the_invariants():
    lor = build_model("maxwell-lorentz")
    a, b, cxy = lor.params["a"], lor.params["b"], lor.params["cxy"]
    rng = np.random.default_rng(2)
    for _ in range(5):
        E = rng.standard_normal(3)
        B = rng.standard_normal(3)
        i1 = 0.5 * (E @ E - B @ B)
        i2 = E @ B
        want = i1 + a * i1 ** 2 + b * i2 ** 2 + cxy * i1 * i2
        assert abs(lor.evaluate(em_to_coeffs(E, B)) - want) < 1e-12


def test_maxwell_anisotropic_fields():
    anis = build_model("maxwell-anisotropic")
    E = np.array([0.4, -0.2, 0.9])
    B = np.array([0.1, 0.8, -0.3])
    D, H, W = anis.fields(E, B, 0.0)
    assert np.abs(D - 2.0 * E).max() < 1e-14
    assert np.abs(H).max() == 0.0
    assert abs(W - E @ E) < 1e-14


@pytest.mark.parametrize("name", BUILTIN)
def test_gradient_routes_agree(name):
    # closed-form / dual-number / finite-difference gradients line up
    model = build_model(name)
    A, s = sampled_states(model, 25, seed=101)
    closed = model.gradient(A, s)
    dual = ad_gradient(model)(A, s)
    fd = finite_difference_gradient(model, A, s)
    assert rel_gap(closed, dual) < 1e-12
    assert rel_gap(closed, fd) < 1e-6


@pytest.mark.parametrize("name", BUILTIN)
def test_sampled_states_are_admissible(name):
    model = build_model(name)
    A, s = sampled_states(model, 200, seed=3)
    assert A.shape == (200, model.n_coeffs)
    assert s.shape == (200,)
    assert np.isfinite(model.evaluate(A, s)).all()
    if isinstance(model, GasModel):
        assert coeffs_to_momentum(A)[:, 0].min() > 0.0
    if isinstance(model, RelativisticModel):
        m = coeffs_to_momentum(A)
        r2 = model.c ** 2 * m[:, 0] ** 2 - np.einsum("ij,ij->i", m[:, 1:], m[:, 1:])
        assert r2.min() > 0.0


def test_state_to_form_round_trips():
    gas = build_model("gas")
    st = GasState(rho=1.3, q=[0.4], s=0.2)
    assert gas.d == 2 and gas.p == 1 and st.coeffs.shape == (gas.n_coeffs,)
    assert np.abs(st.coeffs - momentum_to_coeffs(st.m)).max() == 0.0
    assert st.s == 0.2
    E = np.array([1.0, 0.0, 0.0])
    B = np.array([0.0, 1.0, 0.0])
    assert np.abs(EMState(E=E, B=B).coeffs - em_to_coeffs(E, B)).max() == 0.0


@pytest.mark.parametrize("name, cls, state", (
    ("iso-p1", IsotropicModel, PFormValue),
    ("minimal-surface", IsotropicModel, PFormValue),
    ("gas", GasModel, GasState),
    ("gas-polytropic", GasModel, GasState),
    ("relativistic", RelativisticModel, RelativisticState),
    ("relativistic-powerlaw", RelativisticModel, RelativisticState),
    ("relativistic-limit", RelativisticModel, RelativisticState),
    ("maxwell-linear", MaxwellModel, EMState),
    ("maxwell-lorentz", MaxwellModel, EMState),
    ("maxwell-anisotropic", MaxwellModel, EMState),
))
def test_typed_state_inverts_state_to_form(name, cls, state):
    # the class is the family, and it alone picks the state type
    model = build_model(name)
    assert type(model) is cls
    A, s = sampled_states(model, 5, seed=8)
    for a, sk in zip(A, s):
        st = typed_state(model, a, sk)
        assert type(st) is state
        assert st.s == sk
        assert np.abs(st.coeffs - a).max() == 0.0


def test_expression_model_matches_closed_isotropic():
    expr = model_from_expression("0.5*(A0^2 + A1^2)", 2, 1)
    iso = build_model("iso-p1")
    rng = np.random.default_rng(6)
    A = rng.standard_normal((30, 2))
    assert rel_gap(expr.evaluate(A, 0.0), iso.evaluate(A, 0.0)) < 1e-14
    assert rel_gap(expr.gradient(A, 0.0), iso.gradient(A, 0.0)) < 1e-12


@pytest.mark.parametrize("expr", (
    "log(2 + A0*A1) * A1", "sin(A0*A1)", "cos(A0 + 2*A1)", "tan(0.5*A0) * A1",
    "sinh(A0) * A1", "cosh(A0*A1)", "tanh(A0 - A1)", "atan(A0*A1)", "arctan(A0) + A1",
    # Dual over Dual when A0 is seeded, a number over a Dual when A1 is
    "(A0 + 3) / (A0*A1 + 3)",
    # a number to a Dual power, and a Dual to an array power
    "2 ^ A0 * A1", "(1.5 + A0*A0) ^ (0.5 + 0.1*A1*A1)"))
def test_expression_dual_numbers_match_differences(expr):
    model = build_model("user-expr", {"expr": expr, "d": 2, "p": 1})
    A = np.random.default_rng(8).uniform(-1.0, 1.0, (20, 2))
    dual = ad_gradient(model)(A, 0.0)
    fd = finite_difference_gradient(model, A, 0.0)
    assert np.abs(dual - fd).max() <= 1e-8


# each lift's arithmetic written out: (value, derivative channel) at (v, e)
DUAL_RULES = {
    "sqrt": lambda v, e: (np.sqrt(v), 0.5 * e / np.sqrt(v)),
    "exp": lambda v, e: (np.exp(v), np.exp(v) * e),
    "log": lambda v, e: (np.log(v), e / v),
    "sin": lambda v, e: (np.sin(v), np.cos(v) * e),
    "cos": lambda v, e: (np.cos(v), -np.sin(v) * e),
    "tan": lambda v, e: (np.tan(v), e / (np.cos(v) * np.cos(v))),
    "sinh": lambda v, e: (np.sinh(v), np.cosh(v) * e),
    "cosh": lambda v, e: (np.cosh(v), np.sinh(v) * e),
    "tanh": lambda v, e: (np.tanh(v), (1.0 - np.tanh(v) * np.tanh(v)) * e),
    "atan": lambda v, e: (np.arctan(v), e / (1.0 + v * v)),
    "arctan": lambda v, e: (np.arctan(v), e / (1.0 + v * v)),
}


@pytest.mark.parametrize("name", sorted(dualnum.FUNCTIONS))
def test_dual_lifts_keep_their_arithmetic_bitwise(name):
    # the difference test above allows 1e-8; this pins every bit, on an
    # array and on a Python float
    rng = np.random.default_rng(4)
    for v, e in ((rng.uniform(0.1, 1.4, 64), rng.standard_normal(64)), (0.7, -1.3)):
        got = dualnum.FUNCTIONS[name](dualnum.Dual(v, e))
        want = DUAL_RULES[name](v, e)
        assert np.asarray(got.val).tobytes() == np.asarray(want[0]).tobytes()
        assert np.asarray(got.eps).tobytes() == np.asarray(want[1]).tobytes()


def test_expression_model_uses_entropy():
    m = model_from_expression("s*A0 + A1^2", 2, 1)
    A = np.array([2.0, 3.0])
    assert m.evaluate(A, 0.5) == 10.0
    assert np.abs(m.gradient(A, 0.5) - np.array([0.5, 6.0])).max() < 1e-13


def test_expression_grammar_matches_numpy_bitwise():
    # every accepted node: unary -/+, pi, e, + - * / ^, a whitelisted call, s
    model = model_from_expression("-A0^2/2 + +A1*pi - 2^A0 + atan(A1)/e - s*A1", 2, 1)
    rng = np.random.default_rng(12)
    A = rng.uniform(-2.0, 2.0, (40, 2))
    s = rng.standard_normal(40)
    A0, A1 = A[..., 0], A[..., 1]
    want = -A0 ** 2 / 2 + +A1 * np.pi - 2 ** A0 + np.arctan(A1) / np.e - s * A1
    assert model.evaluate(A, s).tobytes() == want.tobytes()


def test_expression_model_rejects_unknown_names():
    with pytest.raises(ValueError):
        model_from_expression("A7 + 1", 2, 1)
    with pytest.raises(ValueError):
        model_from_expression("__import__('os')", 2, 1)


@pytest.mark.parametrize("expr", (
    '__import__("os")', "A0.__class__", "A0 if s else A1", '"x"', "A0 < A1",
    "A0[0]", "exp(x=A0)", "exp(A0, A1)", "not A0", "A0 // 2", "B0 + 1", "A0 +"))
def test_expression_whitelist_rejects(expr):
    with pytest.raises(ValueError):
        model_from_expression(expr, 2, 1)


@pytest.mark.parametrize("rho", (-1.0, 0.0))
def test_gas_outside_positive_density_is_a_domain_error(rho):
    gas = build_model("gas")
    A = momentum_to_coeffs(np.array([rho, 1.0]))
    for call in (gas.evaluate, gas.gradient, ad_gradient(gas)):
        with pytest.raises(EvaluationDomainError):
            call(A)
    with pytest.raises(EvaluationDomainError):
        gas.m_gradient(np.array([rho, 1.0]), 0.0)


def test_gas_nan_density_flows_through():
    gas = build_model("gas")
    A = momentum_to_coeffs(np.array([np.nan, 1.0]))
    assert np.isnan(gas.evaluate(A))
    assert np.isnan(gas.gradient(A)).all()


def test_nan_gradient_raises_domain_error():
    m = model_from_expression("sqrt(A0)", 2, 1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationDomainError):
            m.gradient(np.array([-1.0, 0.5]), 0.0)


def test_a_nan_entropy_cell_keeps_its_nan_gradient():
    # finite coefficients everywhere: only the cell whose s is NaN may carry NaN
    m = model_from_expression("A0^2/2 + s*A1 + exp(-A1^2)", 2, 1)
    A = np.random.default_rng(3).standard_normal((6, 2))
    s = np.zeros(6)
    s[2] = np.nan
    G = m.gradient(A, s)
    assert np.isnan(G[2, 1]) and G[2, 0] == A[2, 0]
    assert np.isfinite(np.delete(G, 2, axis=0)).all()


def test_a_nan_cell_does_not_hide_a_domain_error_elsewhere():
    m = model_from_expression("sqrt(A0)", 2, 1)
    A = np.array([[1.0, 0.5], [np.nan, 0.5], [-1.0, 0.5]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationDomainError):
            m.gradient(A, 0.0)
        G = m.gradient(A[:2], 0.0)  # the NaN cell alone is no domain error
    assert np.isnan(G[1, 0]) and np.isfinite(G[0]).all()
