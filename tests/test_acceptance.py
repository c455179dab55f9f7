"""Acceptance checks for the full toolkit, one criterion per test.

Each test prints a single PASS/FAIL line (past the capture) so the criterion
outcomes stay visible in a plain pytest run.  Tolerances, state counts and
time budgets are asserted, not just reported.
"""
import time

import numpy as np
import pytest

from divfree import (
    ad_gradient,
    assemble_gas,
    assemble_maxwell,
    assemble_nform,
    assemble_relativistic,
    build_model,
    case_refinement,
    em_to_coeffs,
    euclidean_metric,
    finite_difference_gradient,
    invariance_symmetry_check,
    lightlike_normal_search,
    minkowski_metric,
    momentum_to_coeffs,
    variation_study,
)
from divfree.fields import _family_residual, rankine_hugoniot
from divfree.manufactured import run_case
from divfree.models import RelativisticState, typed_state
from divfree.tensors import general_tensor_array

from helpers import limit_jump_states, pass_maxima, rel_gap, run_cli_process, sampled_states

N_STATES = 100

INVARIANT_PAIRS = (
    ("iso-p1", lambda: euclidean_metric(2)),
    ("maxwell-lorentz", minkowski_metric),
    ("relativistic", minkowski_metric),
)

# broken models with one recorded witness state each; the maxwell witness
# needs B != 0 because a pure-E state sits in a flat direction of |E|^2
BROKEN_PAIRS = (
    ("gas", lambda: euclidean_metric(2),
     momentum_to_coeffs(np.array([1.0, 1.0]))),
    ("maxwell-anisotropic", minkowski_metric,
     em_to_coeffs(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))),
)

GRADIENT_MODELS = (
    ("iso-p1", None), ("minimal-surface", None), ("gas", None),
    ("gas-polytropic", None), ("relativistic", None),
    ("relativistic-powerlaw", None), ("relativistic-limit", None),
    ("maxwell-linear", None), ("maxwell-lorentz", None),
    ("maxwell-anisotropic", None),
    ("user-expr", {"expr": "A0^2/2 + s*A1 + exp(-A1^2)", "d": 2, "p": 1}),
)

VARIATION_COMBOS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
VARIATION_LADDER = {2: (16, 3), 3: (12, 3), 4: (8, 2)}
VARIATION_SEEDS = (0, 1, 2)


@pytest.fixture
def conclude(capsys):
    def _conclude(num, name, ok, detail):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} ({detail})"
        with capsys.disabled():
            print("\n" + line, flush=True)
        assert ok, line
    return _conclude


def test_criterion_01_block_assembly_equivalence(conclude):
    t0 = time.perf_counter()
    worst = 0.0
    families = (
        (("gas", "gas-polytropic"),
         lambda model, st: (assemble_gas(model, st)[0].entries,
                            assemble_nform(model, st.m, st.s).entries)),
        (("relativistic", "relativistic-powerlaw", "relativistic-limit"),
         lambda model, st: (assemble_relativistic(model, st)[0].entries,
                            assemble_nform(model, st.m, st.s).entries)),
        (("maxwell-linear", "maxwell-lorentz", "maxwell-anisotropic"),
         lambda model, st: (assemble_maxwell(model, st)[0].entries,)),
    )
    count = 0
    for names, routes in families:
        for name in names:
            model = build_model(name)
            A, s = sampled_states(model, N_STATES, seed=20)
            T_gen = general_tensor_array(model, A, s)
            for k, st in enumerate(typed_state(model, a, sk) for a, sk in zip(A, s)):
                for T_other in routes(model, st):
                    worst = max(worst, rel_gap(T_other, T_gen[k]))
            count += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    conclude(1, "specialized assembly matches the general tensor",
             ok, f"rel gap {worst:.2e} over {count} models x {N_STATES} states, {dt:.2f}s")


def test_criterion_02_invariance_symmetry_equivalence(conclude):
    t0 = time.perf_counter()
    inv_worst = sym_worst = 0.0
    for name, metric in INVARIANT_PAIRS:
        rep = invariance_symmetry_check(build_model(name), metric(),
                             n_states=128, seed=0)
        inv_worst = max(inv_worst, rep["invariance_defect"])
        sym_worst = max(sym_worst, rep["symmetry_defect"])
    broken_floor = np.inf
    for name, metric, A_w in BROKEN_PAIRS:
        inv, sym, _ = pass_maxima(build_model(name), metric(), (A_w[None, :], np.zeros(1)))
        broken_floor = min(broken_floor, inv, sym)
    dt = time.perf_counter() - t0
    ok = inv_worst <= 1e-10 and sym_worst <= 1e-10 and broken_floor >= 1e-2 and dt < 5.0
    conclude(2, "invariance and corrected symmetry hold or fail together",
             ok, f"invariant defects <= {max(inv_worst, sym_worst):.2e}, "
                 f"witness defects >= {broken_floor:.3f}, {dt:.2f}s")


def test_criterion_03_trace_identity(conclude):
    t0 = time.perf_counter()
    worst = 0.0
    for name, metric in INVARIANT_PAIRS:
        model = build_model(name)
        worst = max(worst, pass_maxima(
            model, metric(), model.sample_states(np.random.default_rng(7), N_STATES))[2])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10
    conclude(3, "generator trace identity vanishes for invariant densities",
             ok, f"max residual {worst:.2e} over {N_STATES} states per model, {dt:.2f}s")


def test_criterion_04_grid_divergence(conclude):
    t0 = time.perf_counter()
    ladder = (8, 16, 32)
    rep = case_refinement("maxwell-plane-wave", ladder)
    rows = np.array([r["rows"] for r in rep["reports"]])  # (levels, 4)
    row_orders = np.log2(rows[:-1] / rows[1:])
    uniform = max(run_case("uniform-gas", 6)["residual"],
                  run_case("uniform-relativistic", 6)["residual"])
    dt = time.perf_counter() - t0
    ok = row_orders.min() >= 1.9 and uniform <= 1e-12 and dt < 60.0
    conclude(4, "tensor divergence vanishes at second order on the wave grid",
             ok, f"row orders >= {row_orders.min():.3f} on {ladder}, "
                 f"uniform residual {uniform:.1e}, {dt:.1f}s")


def test_criterion_05_variation_pairing(conclude):
    t0 = time.perf_counter()
    min_order = np.inf
    monotone = True
    for d, p in VARIATION_COMBOS:
        n0, levels = VARIATION_LADDER[d]
        errs = []
        for seed in VARIATION_SEEDS:
            study = variation_study(d, p, seed=seed, levels=levels, n0=n0)
            e = [lv["error"] for lv in study["levels"]]
            monotone = monotone and all(e[k + 1] < e[k] for k in range(len(e) - 1))
            errs.append(e)
        # a seed can land on an accidentally small leading constant, so the
        # order is read off the worst error per level, which stays generic
        worst = np.max(np.array(errs), axis=0)
        orders = np.log2(worst[:-1] / worst[1:])
        min_order = min(min_order, orders.min())
    dt = time.perf_counter() - t0
    ok = monotone and min_order >= 1.9 and dt < 120.0
    conclude(5, "flow derivative matches the tensor pairing at second order",
             ok, f"order >= {min_order:.3f} over {len(VARIATION_COMBOS)} (d, p) "
                 f"combos x {len(VARIATION_SEEDS)} fields, {dt:.1f}s")


def test_criterion_06_gradient_routes(conclude):
    t0 = time.perf_counter()
    ad_worst = fd_worst = 0.0
    for name, params in GRADIENT_MODELS:
        model = build_model(name, params)
        A, s = sampled_states(model, N_STATES, seed=31)
        closed = model.gradient(A, s)
        ad_worst = max(ad_worst, rel_gap(closed, ad_gradient(model)(A, s)))
        fd_worst = max(fd_worst, rel_gap(closed, finite_difference_gradient(model, A, s)))
    dt = time.perf_counter() - t0
    ok = ad_worst <= 1e-12 and fd_worst <= 1e-6
    conclude(6, "closed, dual-number and difference gradients agree",
             ok, f"dual gap {ad_worst:.2e}, difference gap {fd_worst:.2e}, "
                 f"{len(GRADIENT_MODELS)} models x {N_STATES} states, {dt:.2f}s")


def test_criterion_07_powerlaw_pressure(conclude):
    t0 = time.perf_counter()
    worst = 0.0
    flags = []
    for kappa in (1.1, 4.0 / 3.0, 1.9):
        model = build_model("relativistic-powerlaw", {"kappa": kappa})
        A, s = sampled_states(model, 40, seed=5)
        for st in (typed_state(model, a, sk) for a, sk in zip(A, s)):
            rho = model.rho_of(st.m)
            p = model.pressure(rho, st.s)
            e = model.energy_density(rho, st.s)
            want = (kappa - 1.0) * e * model.c ** 2
            worst = max(worst, abs(p - want) / max(1.0, abs(want)))
        flags.append(model.ultrarelativistic)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and flags == [False, True, False]
    conclude(7, "power-law pressure follows p = (kappa - 1) e c^2",
             ok, f"rel error {worst:.2e}, ultra flag only at kappa = 4/3, {dt:.2f}s")


def test_criterion_08_lightcone_jumps(conclude):
    t0 = time.perf_counter()
    model = build_model("relativistic-limit")
    m_left = np.array([2.0, 0.3, -0.1, 0.2])
    found = lightlike_normal_search(model, m_left)
    nu = np.asarray(found["nu"])
    m_right = limit_jump_states(model, m_left, nu, 0.3)
    rep = rankine_hugoniot(model, RelativisticState(m=m_left),
                           RelativisticState(m=m_right), nu)
    jump_ok = (np.abs(rep["row_residuals"]).max() <= 1e-10
               and abs(rep["m_nu_jump"]) <= 1e-10
               and abs(rep["rho_jump"]) >= 0.05)
    cone_ok = abs(rep["metric_quadratic"]) <= 1e-8
    timelike = _family_residual(model, np.array([1.0, 0.2, 0.0, 0.0]),
                                m_left, 0.05)
    dt = time.perf_counter() - t0
    ok = found["residual"] <= 1e-10 and jump_ok and cone_ok and timelike >= 1e-3
    conclude(8, "genuine jumps of the limit density select light-like normals",
             ok, f"search residual {found['residual']:.1e}, cone quadratic "
                 f"{abs(rep['metric_quadratic']):.1e}, timelike floor {timelike:.3f}, {dt:.1f}s")


def test_criterion_09_entropy_transport(conclude):
    t0 = time.perf_counter()
    ladder = (8, 16, 32)
    adv = case_refinement("advected-entropy", ladder)
    orders = np.asarray(adv["orders"])
    shear_floor = min(run_case("entropy-shear", n)["residual"] for n in ladder)
    dt = time.perf_counter() - t0
    ok = orders.min() >= 1.9 and shear_floor >= 0.9 and dt < 60.0
    conclude(9, "entropy rides the flow exactly when transport holds",
             ok, f"advected order >= {orders.min():.3f}, shear residual stays "
                 f">= {shear_floor:.3f}, {dt:.1f}s")


def test_criterion_10_deterministic_reports(conclude, tmp_path):
    t0 = time.perf_counter()
    commands = (
        ["invariance", "--model", "maxwell-lorentz", "--metric", "minkowski",
         "--seed", "12"],
        ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]"],
        ["verify", "--manufactured", "closed-cubic", "--refine", "-n", "8",
         "--levels", "2"],
        ["tensor", "--model", "gas", "--state", '{"rho": 1.0, "q": [1.0]}'],
    )
    identical = True
    for k, argv in enumerate(commands):
        blobs = []
        for run in range(2):
            target = tmp_path / f"cmd{k}_run{run}.json"
            done = run_cli_process(argv + ["--out", str(target)])
            assert done.returncode == 0, done.stderr
            blobs.append(target.read_bytes())
        identical = identical and blobs[0] == blobs[1] and len(blobs[0]) > 0
    dt = time.perf_counter() - t0
    conclude(10, "repeated seeded runs emit byte-identical reports",
             identical, f"{len(commands)} commands x 2 runs, {dt:.1f}s")
