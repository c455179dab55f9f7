"""Planted faults that the suite must catch.

Each test plants one fault with monkeypatch and asserts that the gate aimed
at it passes on the real code and fails on the faulty one, so a gate that
stopped looking would show here.
"""
import inspect
import textwrap

import numpy as np

import divfree.cli
import divfree.conventions
import divfree.exterior
import divfree.fields
import divfree.invariance
import divfree.manufactured
import divfree.models
import divfree.tensors
import test_cli
import test_exterior
import test_fields
import test_invariance
import test_tensors
from divfree import (ad_gradient, assemble, build_model, case_refinement, euclidean_metric,
                     finite_difference_gradient, invariance_symmetry_check,
                     lightlike_normal_search, minkowski_metric, variation_study)
from divfree import dualnum
from divfree.fields import rankine_hugoniot
from divfree.manufactured import run_case, study_model
from divfree.models import RelativisticState
from divfree.tensors import general_tensor_array

from helpers import (IDENTITY_LADDERS, energy_density, euler_lagrange_identity,
                     euler_lagrange_rows_gather, limit_jump_states, normal_search_reference,
                     pass_maxima, random_nodal_grid, random_slab_grids, rel_gap, same_bits,
                     sampled_states, slab_budget, slab_results, trace_identity_gap, typed_state)
from test_acceptance import BROKEN_PAIRS, INVARIANT_PAIRS

# criterion 01 gates the block forms, criterion 02 the invariant defects and
# the witness floor, criterion 04 the wave rows' orders,
# criterion 05 the variation orders, criterion 06 the difference gradient,
# criterion 07 the power-law pressure, criterion 08 the search residual and
# the density jump, criterion 09 the advected-entropy order and the shear
# floor; the Euler-Lagrange identity gates its gap's order and |Div T|
BLOCK_TOL = 1e-12
INVARIANT_TOL = 1e-10
WITNESS_FLOOR = 1e-2
VARIATION_ORDER = 1.9
WAVE_ORDER = 1.9
DIFFERENCE_TOL = 1e-6
SEARCH_TOL = 1e-10
RHO_JUMP_MIN = 0.05
ENTROPY_ORDER = 1.9
SHEAR_FLOOR = 0.9
PRESSURE_TOL = 1e-12
IDENTITY_ORDER = 1.9
IDENTITY_DIV_T = 0.1

# criterion 08's left state
M_LEFT = np.array([2.0, 0.3, -0.1, 0.2])


def rewritten(fn, old, new):
    """The code of fn with its one occurrence of ``old`` replaced by
    ``new``, compiled against fn's globals at fn's own line numbers; planted
    as ``fn.__code__`` so that every reference to fn runs the fault.  fn may
    be the ``__wrapped__`` function of a cached one."""
    lines, first = inspect.getsourcelines(fn)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"{old!r} does not occur once in {fn.__name__}"
    scope = {}
    exec(compile("\n" * (first - 1) + source.replace(old, new),
                 inspect.getsourcefile(fn), "exec"), fn.__globals__, scope)
    return inspect.unwrap(scope[fn.__name__]).__code__


def fails(test, *args):
    """Whether a test function of the suite fails its assertions."""
    try:
        test(*args)
    except AssertionError:
        return True
    return False


def block_gap(model, A, s, states):
    """Worst relative gap between the general tensor at (A, s) and the
    family's block form at the same states, typed beforehand."""
    T = general_tensor_array(model, A, s)
    return max(rel_gap(assemble(model, st)["tensor"], T[k]) for k, st in enumerate(states))


def seeded(name):
    model = build_model(name)
    A, s = sampled_states(model, 16, seed=0)
    return model, A, s, [typed_state(model, a, sk) for a, sk in zip(A, s)]


def test_transposed_tensor_breaks_the_trace_identity(monkeypatch):
    # the gas tensor is not symmetric, so T in place of T^T moves the trace
    gas = build_model("gas")
    S = euclidean_metric(2)
    states = sampled_states(gas, 64, seed=0)
    assert trace_identity_gap(gas, S, states) <= 1e-12
    real = divfree.invariance.general_tensor_array
    monkeypatch.setattr(divfree.invariance, "general_tensor_array",
                        lambda *args: np.swapaxes(real(*args), -1, -2))
    assert trace_identity_gap(gas, S, states) > 1e-12


def test_flipped_assembly_sign_breaks_the_block_forms(monkeypatch):
    table = divfree.tensors._assembly_table
    table.cache_clear()
    try:
        for name in ("gas", "relativistic", "maxwell-lorentz"):
            case = seeded(name)
            assert block_gap(*case) <= BLOCK_TOL
            cached = table(case[0].d, case[0].p)
            monkeypatch.setitem(cached, (0, 1), tuple(
                (slot_i, slot_j, -sign) for slot_i, slot_j, sign in cached[(0, 1)]))
            assert block_gap(*case) > BLOCK_TOL
    finally:
        table.cache_clear()


def test_every_flipped_assembly_term_breaks_the_legendre_hodge_duality(monkeypatch):
    # T reads _assembly_table at degree p and the dual's tensor at d - p; at
    # (2, 1) both are one table, so an off-diagonal flip negates T(0, 1) and
    # T(1, 0) on both sides and the duality still holds (the block forms
    # catch the flip on gas).  Every other single flip must break it
    real = divfree.tensors._assembly_table
    duality = test_tensors.test_the_legendre_hodge_dual_has_minus_the_tensor
    missed, flips = [], 0
    for d in (2, 3, 4):
        for p in range(1, d):
            assert not fails(duality, d, p)
            table = real(d, p)
            for key, terms in table.items():
                for t, (slot_i, slot_j, sign) in enumerate(terms):
                    flipped = {**table, key: terms[:t] + ((slot_i, slot_j, -sign),) + terms[t + 1:]}
                    with monkeypatch.context() as patch:
                        patch.setattr(divfree.tensors, "_assembly_table",
                                      lambda *dp, at=(d, p), flipped=flipped:
                                      flipped if dp == at else real(*dp))
                        if not fails(duality, d, p):
                            missed.append((d, p, key))
                    flips += 1
    assert flips == 101
    assert missed == [(2, 1, (0, 1)), (2, 1, (1, 0))]


def test_negated_magnetic_slot_breaks_the_maxwell_block_form(monkeypatch):
    # E . B enters maxwell-lorentz, so reading B_1 with the wrong sign shows
    case = seeded("maxwell-lorentz")
    assert block_gap(*case) <= BLOCK_TOL
    real = divfree.conventions.em_components

    def faulty(coeffs):
        E, B = real(coeffs)
        return E, [-B[0], *B[1:]]

    for module in (divfree.conventions, divfree.models):
        monkeypatch.setattr(module, "em_components", faulty)
    assert block_gap(*case) > BLOCK_TOL


def test_swapped_cross_product_breaks_the_maxwell_block_form(monkeypatch):
    # B x D in place of D x B flips the sign of the tensor's first column
    case = seeded("maxwell-lorentz")
    assert block_gap(*case) <= BLOCK_TOL
    fn = divfree.tensors.assemble_maxwell
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "_cross(D, B, T[..., 1:, 0])", "_cross(B, D, T[..., 1:, 0])"))
    assert block_gap(*case) > BLOCK_TOL


def variation_orders_hold(d, p):
    """Criterion 05's gate on one (d, p) and seed at three levels: errors
    that fall, at orders of at least 1.9."""
    n0 = {2: 16, 3: 12}[d]
    errors = [lv["error"] for lv in variation_study(d, p, seed=0, levels=3, n0=n0)["levels"]]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    return all(np.diff(errors) < 0) and orders.min() >= VARIATION_ORDER


def test_scaled_bump_jacobian_breaks_the_variation_orders(monkeypatch):
    # the flow reads the Jacobian and the pairing the sampled values, so a
    # 0.1 % Jacobian error is a gap that does not refine
    assert variation_orders_hold(2, 1)
    real = divfree.manufactured.bump_variation

    def scaled(*args, **kwargs):
        var = real(*args, **kwargs)

        def func_jac(Y, exact=var.func_jac):
            v, J = exact(Y)
            return v, 1.001 * J

        var.func_jac = func_jac
        return var

    monkeypatch.setattr(divfree.manufactured, "bump_variation", scaled)
    assert not variation_orders_hold(2, 1)


def test_dropped_jacobian_term_breaks_the_variation_orders(monkeypatch):
    # J @ G without its last j term: the flowed Jacobian G drifts from the
    # map's, and its error does not refine
    assert variation_orders_hold(2, 1)
    fn = divfree.fields._flow_with_jacobian
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "J, Gc)", "J[..., :, :-1], Gc[..., :-1, :])"))
    assert not variation_orders_hold(2, 1)


def test_unreversed_complementary_minors_break_the_variation_orders(monkeypatch):
    # the (d-p)-minors of G in their own order pair each p-tuple with the
    # wrong complement: at G = I both orders agree, so only the flow's
    # derivative sees it, and the full-grid LAPACK reference does too
    exact = test_fields.test_first_variation_matches_the_full_grid_flow
    assert variation_orders_hold(2, 1) and not fails(exact, 3, 2, 12, False)
    fn = divfree.exterior.inverse_pullback_coeffs
    monkeypatch.setattr(fn, "__code__", rewritten(fn, "Q[..., ::-1, ::-1]", "Q"))
    assert not variation_orders_hold(2, 1) and fails(exact, 3, 2, 12, False)


def test_forward_euler_flow_breaks_the_substep_share(monkeypatch):
    # every stage reads the first, so each step is forward Euler.  Its map
    # error is even in eps and cancels in the centred difference: criterion
    # 05's orders still hold.  Halving the step moves that error, by 4 % of
    # the study's error at seed 2
    bound = test_fields.test_flow_substeps_move_the_first_variation_little
    assert not fails(bound, 2, 1)
    fn = divfree.fields._flow_with_jacobian
    stages = ("k2 = rhs(w + 0.5 * h * k1[0], G + 0.5 * h * k1[1])\n"
              "        k3 = rhs(w + 0.5 * h * k2[0], G + 0.5 * h * k2[1])\n"
              "        k4 = rhs(w + h * k3[0], G + h * k3[1])")
    monkeypatch.setattr(fn, "__code__", rewritten(fn, stages, "k2 = k3 = k4 = k1"))
    assert fails(bound, 2, 1)


def criterion_02_gate():
    """Criterion 02's two sides: (invariant defects <= INVARIANT_TOL, witness
    defects >= WITNESS_FLOOR)."""
    worst = 0.0
    for name, metric in INVARIANT_PAIRS:
        rep = invariance_symmetry_check(build_model(name), metric(), n_states=128, seed=0)
        worst = max(worst, rep["invariance_defect"], rep["symmetry_defect"])
    floor = min(min(pass_maxima(build_model(name), metric(), (A_w[None, :], np.zeros(1)))[:2])
                for name, metric, A_w in BROKEN_PAIRS)
    return worst <= INVARIANT_TOL, floor >= WITNESS_FLOOR


def test_unweighted_symmetry_defect_breaks_the_invariant_side(monkeypatch):
    # the Lorentz-invariant tensors are S-symmetric, not symmetric, so the
    # asymmetry of T itself lifts their defect off zero
    assert criterion_02_gate() == (True, True)
    fn = divfree.tensors.symmetry_defect
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, 'np.einsum("ab,...bc->...ac", S_inv, np.asarray(T, dtype=float))',
        "np.asarray(T, dtype=float)"))
    assert not criterion_02_gate()[0]


def test_lam_for_its_inverse_breaks_the_relativistic_tprime_forms(monkeypatch):
    # Lam is its own inverse at c = 1, so only relativistic-powerlaw at
    # c = 1.5 tells T' built on Lam from T' built on Lam^{-1}
    forms = test_tensors.test_relativistic_tprime_forms_agree
    cases = test_tensors.RELATIVISTIC_FORMS
    assert not any(fails(forms, *case) for case in cases)
    fn = divfree.tensors.assemble_relativistic
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "(rho * Lrho - L) * model.Lam_inv", "(rho * Lrho - L) * model.Lam"))
    assert [fails(forms, *case) for case in cases] == [False, True, False]


def test_gap_for_pairing_breaks_the_witness_side(monkeypatch):
    # the pairing minus the trace is the identity's gap, near zero at every
    # state, so a broken density reads as invariant
    assert criterion_02_gate() == (True, True)
    fn = divfree.invariance.generator_defects
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, '"defect": np.abs(pairing) / norm', '"defect": np.abs(pairing - trace) / norm'))
    assert not criterion_02_gate()[1]


def test_metric_for_its_inverse_breaks_the_quadratic_families(monkeypatch):
    # minkowski_metric() at c = 1 is its own inverse, so only a metric with
    # c != 1 can tell S from S^-1: the quadratic families have c = 1.5, 0.5
    families = test_invariance.test_quadratic_families_agree_on_both_sides
    assert not fails(families)
    fn = divfree.tensors.symmetry_defect
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "np.linalg.inv(np.asarray(S, dtype=float))", "np.asarray(S, dtype=float)"))
    assert fails(families)


def test_min_for_max_breaks_the_invariance_verdict(monkeypatch):
    # |E|^2 keeps the three rotations and breaks the three boosts: the
    # least generator defect is 0, so min reads the model as invariant
    def verdict():
        report = invariance_symmetry_check(build_model("maxwell-anisotropic"), minkowski_metric())
        return report["verdict"], report["agreement"]

    assert verdict() == ("broken-asymmetric", True)
    fn = divfree.invariance.invariance_symmetry_check
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "inv = float(np.max(", "inv = float(np.min("))
    assert verdict() != ("broken-asymmetric", True)


def test_flipped_cos_chain_rule_breaks_the_difference_check(monkeypatch):
    A = np.random.default_rng(9).uniform(-1.0, 1.0, (20, 2))

    def gap():
        model = build_model("user-expr", {"expr": "cos(A0)*A1", "d": 2, "p": 1})
        return rel_gap(ad_gradient(model)(A, 0.0), finite_difference_gradient(model, A, 0.0))

    assert gap() <= DIFFERENCE_TOL
    # expressions look their functions up when they are compiled
    monkeypatch.setitem(dualnum.FUNCTIONS, "cos",
                        dualnum._lift(np.cos, lambda v, y, e: np.sin(v) * e))
    assert gap() > DIFFERENCE_TOL


def test_stale_left_state_breaks_the_lightlike_search(monkeypatch):
    # the search hoists the left state out of its objective; one built from
    # another m_left leaves a jump in [T] nu that no normal closes
    model = build_model("relativistic-limit")
    assert lightlike_normal_search(model, M_LEFT)["residual"] <= SEARCH_TOL
    real = divfree.fields._family_residual
    rho_L, _ = divfree.fields._left_state(model, M_LEFT)
    _, stale_T_L = divfree.fields._left_state(model, M_LEFT + [1e-6, 0.0, 0.0, 0.0])

    def faulty(model, nu, m_left, rho_jump_min, left):
        return real(model, nu, m_left, rho_jump_min, (rho_L, stale_T_L))

    monkeypatch.setattr(divfree.fields, "_family_residual", faulty)
    assert lightlike_normal_search(model, M_LEFT)["residual"] > SEARCH_TOL


def test_second_step_on_the_wrong_outcome_breaks_the_search_bits(monkeypatch):
    # a call scores both angles the second step could need; advancing on
    # the other outcome walks another path, away from the reference's bits
    model = build_model("relativistic-limit")

    def same_bits():
        found = lightlike_normal_search(model, M_LEFT)
        theta, residual, nu, _ = normal_search_reference(model, M_LEFT)
        return (found["theta"] == theta and found["residual"] == residual
                and found["nu"].tobytes() == nu.tobytes())

    assert same_bits()
    fn = divfree.fields.lightlike_normal_search
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "lower if scored[x1] <= scored[x2] else upper",
        "upper if scored[x1] <= scored[x2] else lower"))
    assert not same_bits()


def test_right_density_read_twice_hides_the_density_jump(monkeypatch):
    model = build_model("relativistic-limit")
    nu = lightlike_normal_search(model, M_LEFT)["nu"]
    left = RelativisticState(m=M_LEFT)
    right = RelativisticState(m=limit_jump_states(model, M_LEFT, nu, 0.3))

    def rho_jump():
        return abs(rankine_hugoniot(model, left, right, nu)["rho_jump"])

    assert rho_jump() >= RHO_JUMP_MIN
    # [rho] reads the right state first: every later read sees it again
    real, reads = model.rho_of, []

    def right_twice(m):
        reads.append(m)
        return real(reads[0])

    monkeypatch.setattr(model, "rho_of", right_twice)
    assert rho_jump() < RHO_JUMP_MIN


def test_dropped_time_term_breaks_entropy_transport(monkeypatch):
    ladder = (8, 16, 32)

    def gate():
        orders = case_refinement("advected-entropy", ladder)["orders"]
        floor = min(run_case("entropy-shear", n)["residual"] for n in ladder)
        return min(orders) >= ENTROPY_ORDER and floor >= SHEAR_FLOOR

    assert gate()
    # the entropy cases difference only s, so upper and lower neighbours that
    # coincide along axis 0 leave the transport residual without its m_0 d_t s
    # term
    real = divfree.fields._cd_neighbours
    monkeypatch.setattr(divfree.fields, "_cd_neighbours", lambda axis, nd: (
        (real(axis, nd)[0],) * 2 if axis == 0 else real(axis, nd)))
    assert not gate()


def wave_row_orders():
    """Criterion 04's least row order on the plane-wave ladder; -inf when a
    coarser level reads 0."""
    reports = case_refinement("maxwell-plane-wave", (8, 16, 32))["reports"]
    rows = np.array([r["rows"] for r in reports])
    with np.errstate(divide="ignore"):
        return np.log2(rows[:-1] / rows[1:]).min()


def test_dropped_axis_term_breaks_the_wave_divergence(monkeypatch):
    assert wave_row_orders() >= WAVE_ORDER
    # upper and lower neighbours coincide along the last axis, so div_rows
    # sums every row without its d_{d-1} T_{i,d-1} term
    real = divfree.fields._cd_neighbours
    monkeypatch.setattr(divfree.fields, "_cd_neighbours", lambda axis, nd: (
        (real(axis, nd)[0],) * 2 if axis == nd - 1 else real(axis, nd)))
    assert wave_row_orders() < WAVE_ORDER


def test_dropped_axis_term_parts_the_slabs_from_their_whole_grid_references(monkeypatch):
    # the whole-grid references slice their own stencil, so a fault in the
    # one production stencil shows against them.  Closedness is one maximum
    # over all its rows, which on the wave grid falls on a row without a
    # last-axis term
    grids = random_slab_grids((6, 5, 4, 5), (7, 6))
    assert all(same_bits(*pair) for model, grid in grids
               for pair in slab_results(model, grid).values())
    real = divfree.fields._cd_neighbours
    monkeypatch.setattr(divfree.fields, "_cd_neighbours", lambda axis, nd: (
        (real(axis, nd)[0],) * 2 if axis == nd - 1 else real(axis, nd)))
    for (model, grid), field in zip(grids, ("poynting", "transport")):
        results = slab_results(model, grid)
        assert not same_bits(*results["div_T"]) and not same_bits(*results[field])


def identity_holds(d, p):
    """The off-shell identity's gate on one (d, p)."""
    orders, div_T = euler_lagrange_identity(d, p)
    return min(orders) >= IDENTITY_ORDER and min(div_T) >= IDENTITY_DIV_T


def test_flipped_gather_sign_breaks_the_euler_lagrange_identity(monkeypatch):
    assert all(identity_holds(d, p) for d, p in IDENTITY_LADDERS)
    # the gather reads the sign of jK off the exterior derivative table;
    # flip the first term of its first row.  A single-mode field is constant
    # along some axes, so the flip shows on most (d, p), not on every one
    real = divfree.fields.exterior_derivative_table

    def flipped(d, p):
        (J, ((axis, slot, sign), *rest)), *rows = real(d, p)
        return ((J, ((axis, slot, -sign), *rest)), *rows)

    monkeypatch.setattr(divfree.fields, "exterior_derivative_table", flipped)
    assert not all(identity_holds(d, p) for d, p in IDENTITY_LADDERS)


def test_unsigned_hodge_breaks_the_duality_the_pullback_and_the_euler_lagrange_bits(monkeypatch):
    # star without its signs keeps every slot: the complement order alone
    # does not make the Legendre dual, Jacobi's inverse or div G
    tests = ((test_tensors.test_the_legendre_hodge_dual_has_minus_the_tensor, 4, 2),
             (test_exterior.test_inverse_pullback_reads_the_complementary_minors,),
             (test_fields.test_euler_lagrange_rows_are_the_gather_bits, 4, 2))
    assert not any(fails(*test) for test in tests)
    hodge = divfree.exterior.hodge
    with monkeypatch.context() as patch:
        fn = hodge.__wrapped__
        patch.setattr(fn, "__code__", rewritten(fn, "(-1.0) **", "1.0 **"))
        hodge.cache_clear()
        caught = [fails(*test) for test in tests]
    hodge.cache_clear()
    assert all(caught)


def test_every_flipped_derivative_term_changes_the_euler_lagrange_rows(monkeypatch):
    # euler_lagrange_rows runs the closedness table of degree d - p; the
    # gather reference reads divfree.exterior's table of degree p - 1, which
    # the patch leaves alone.  On random nodal data no difference is zero,
    # so each single flipped term of each table with d <= 4 must show
    caught = []
    for d in (2, 3, 4):
        for p in range(1, d + 1):
            model, grid = study_model(d, p, 0), random_nodal_grid(d, p)
            want = euler_lagrange_rows_gather(model, grid)
            assert same_bits(divfree.fields.euler_lagrange_rows(model, grid), want)
            rows = divfree.exterior.exterior_derivative_table(d, d - p)
            for r, (J, terms) in enumerate(rows):
                for t, (axis, slot, sign) in enumerate(terms):
                    flipped = terms[:t] + ((axis, slot, -sign),) + terms[t + 1:]
                    table = rows[:r] + ((J, flipped),) + rows[r + 1:]
                    with monkeypatch.context() as patch:
                        patch.setattr(divfree.fields, "exterior_derivative_table",
                                      lambda *_, table=table: table)
                        rows_now = divfree.fields.euler_lagrange_rows(model, grid)
                    caught.append(not same_bits(rows_now, want))
    assert len(caught) == 48 and all(caught)


def test_unsigned_divergence_terms_break_closedness_and_the_identity(monkeypatch):
    # every residual sums its differences in fields._divergence; adding the
    # negative terms too leaves the cubic gradient's d alpha uncancelled and
    # div G no longer the adjoint of d.  The p = 1 rows of div G, such as the
    # curl of dL/dm, read only positive signs, so the p = 2 Maxwell rows and
    # the identity at p >= 2 must show it
    tests = (test_fields.test_cubic_gradient_field_closes_at_exactly_h_squared,
             test_fields.test_maxwell_euler_lagrange_rows_are_gauss_and_ampere)
    assert not any(fails(test) for test in tests)
    assert all(identity_holds(d, p) for d, p in IDENTITY_LADDERS)
    fn = divfree.fields._divergence
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "(np.add if sign > 0 else np.subtract)", "np.add"))
    assert all(fails(test) for test in tests)
    assert not all(identity_holds(d, p) for d, p in IDENTITY_LADDERS)


def test_dropped_last_slab_breaks_the_slab_bits_and_the_wave_rows(monkeypatch):
    def holds():
        # three-plane slabs on a ragged grid (3, 3, 1), then the budget of
        # the 8^4 level's six interior planes: one slab at 8^4, one plane
        # per slab at 16^4 and 32^4
        model, grid = random_slab_grids((9, 4, 3, 5), (3, 3))[0]
        monkeypatch.setattr(divfree.fields, "_SLAB_BYTES", slab_budget(grid, 3))
        bits = all(same_bits(*pair) for pair in slab_results(model, grid).values())
        monkeypatch.setattr(divfree.fields, "_SLAB_BYTES", 6 * 8 * 4 ** 2 * 8 ** 3)
        return bits, wave_row_orders() >= WAVE_ORDER

    assert holds() == (True, True)
    fn = divfree.fields._slabs
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "range(0, n0 - 2, width)", "range(0, n0 - 2 - width, width)"))
    assert holds() == (False, False)


def powerlaw_pressure_gap():
    """Criterion 07's worst relative gap between the power-law pressure and
    (kappa - 1) e c^2, over its three exponents and seeded states."""
    worst = 0.0
    for kappa in (1.1, 4.0 / 3.0, 1.9):
        model = build_model("relativistic-powerlaw", {"kappa": kappa})
        A, s = sampled_states(model, 40, seed=5)
        for st in (typed_state(model, a, sk) for a, sk in zip(A, s)):
            rho = model.rho_of(st.m)
            want = (kappa - 1.0) * energy_density(model, rho, st.s) * model.c ** 2
            worst = max(worst, abs(model.pressure(rho, st.s) - want) / max(1.0, abs(want)))
    return worst


def test_wrong_exponent_breaks_the_powerlaw_pressure(monkeypatch):
    # the profile's exponent drifts from the kappa in params, so the
    # pressure it derives is no longer (kappa - 1) e c^2
    assert powerlaw_pressure_gap() <= PRESSURE_TOL
    fn = divfree.models.model_relativistic_powerlaw
    monkeypatch.setattr(fn, "__code__", rewritten(
        fn, "profile = lambda rho, s: rho ** kappa",
        "profile = lambda rho, s: rho ** (kappa * 1.001)"))
    assert powerlaw_pressure_gap() > PRESSURE_TOL


def test_dropped_finiteness_clause_passes_an_infinite_residual(monkeypatch, tmp_path, capsys):
    # NaN fails every comparison, so only an infinite residual inside the
    # upper bound inf of a verify --field run without --tol shows the clause
    test = test_cli.test_verify_field_fails_a_nonfinite_residual_of_finite_cells
    args = (tmp_path, capsys, "infinite", [], "closedness_residual", "inf")
    assert not fails(test, *args)
    fn = divfree.cli._fails
    monkeypatch.setattr(fn, "__code__", rewritten(fn, "np.isfinite(values).all()", "True"))
    assert fails(test, *args)
