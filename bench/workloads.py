"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``build`` (timed as set-up),
computes the values its checks compare against in ``reference`` (untimed),
and hands out a fixed list of operations.  An operation's ``run`` holds only
calls into divfree and is what ``op_p50_s`` times; its ``check`` runs after
the clock stops.  A check raises ``Incorrect`` when an output contradicts
the property or reference it is checked against, and returns ``False`` for
an operation that failed in the way a known fault predicts (counted in
``failed``; ``correct`` stays true).

Functions are looked up through the ``divfree`` modules at call time, so a
traced pass sees the wrappers that ``spans.Tracer`` installs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass

import numpy as np

import reference as ref


class Incorrect(Exception):
    """An output contradicts its check."""


def expect(condition, message):
    if not condition:
        raise Incorrect(message)


@dataclass
class Op:
    name: str
    run: object      # () -> result; calls into divfree only
    check: object    # result -> (ok, info); raises Incorrect


def run_cli(dv, argv):
    """``divfree`` command in this process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dv.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def observed_orders(values):
    return [math.log2(values[k] / values[k + 1]) for k in range(len(values) - 1)]


class Workload:
    name = ""
    # layers a traced pass must see called; a zero count means a wrapper
    # missed a binding
    uses = ()
    # operations that fail on every pass because of a fault named in the
    # README; they stay in the workload and are counted in ``failed``
    known_failures = ()

    def __init__(self, scale, seed, work_dir):
        self.scale = scale
        self.seed = seed
        self.work_dir = work_dir

    def plan(self):
        """Operation names of one pass; they depend on the scale only."""
        raise NotImplementedError

    def build(self, dv):
        raise NotImplementedError

    def reference(self, state):
        pass

    def operations(self, state):
        raise NotImplementedError

    def pass_check(self, state, infos):
        pass


# ---------------------------------------------------------------------------


class VariationFlow(Workload):
    """Discrete first variation against the tensor pairing (criterion 05)."""

    name = "variation-flow"
    combos = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    ladders = {"full": {2: (16, 3), 3: (12, 3), 4: (8, 2)},
               "tiny": {2: (8, 2), 3: (8, 2), 4: (8, 1)}}
    cli_combo = (2, 1)
    eps0 = 0.01          # variation_study's default
    min_order = 1.9      # the CLI's default gate
    uses = ("fields.flow", "fields.flow.xi", "fields.first_variation",
            "exterior.pullback_matrix", "models.evaluate", "models.gradient",
            "tensors.general_tensor_array", "fields.grid_build",
            "manufactured.variation_study", "cli.main", "cli.dumps_report")
    # summation by parts is exact; this only absorbs rounding
    sbp_rel = 1e-9
    # |numeric - pairing| <= K (h^2 + eps^2) sum|T_ij d_j xi_i| vol at the
    # finest level; over seeds 0-299 (d = 2) and 0-15 (d = 3, 4) the
    # constant peaked at 12.3
    consistency_k = 40.0

    def plan(self):
        return [self._op_name(d, p) for d, p in self.combos]

    def _op_name(self, d, p):
        via = "cli" if (d, p) == self.cli_combo else "lib"
        return f"variation-d{d}p{p}-{via}"

    def build(self, dv):
        mf = dv.manufactured
        ladder = self.ladders[self.scale]
        cases = []
        for d, p in self.combos:
            n0, levels = ladder[d]
            n = n0 << (levels - 1)
            dims, spacing = (n,) * d, (1.0 / n,) * d
            # the finest level of variation_study's own inputs: same field,
            # variation, density and support snapping
            support = (2.0 / n0 + 1e-12, (n0 - 2.0) / n0 - 1e-12)
            grid = dv.GridField.from_function(
                mf.closed_trig_form(d, p, self.seed + 101), d, p, dims, spacing,
                entropy_fn=lambda Y: np.sin(2 * math.pi * Y[..., 0]) * 0.5)
            var = mf.bump_variation(d, dims, spacing, self.seed + 202, support=support)
            model = mf.study_model(d, p, self.seed)
            cases.append({"d": d, "p": p, "n0": n0, "levels": levels, "n": n,
                          "grid": grid, "var": var, "model": model})
        return {"dv": dv, "cases": cases}

    def reference(self, state):
        dv = state["dv"]
        for case in state["cases"]:
            grid, var, d = case["grid"], case["var"], case["d"]
            T = dv.tensors.general_tensor_array(case["model"], grid.values, grid.entropy)
            T = T[tuple([slice(1, -1)] * d)]
            terms = [T[..., i, j] * ref._cd(var.values[..., i], j, grid.spacing[j])
                     for i in range(d) for j in range(d)]
            vol = grid.cell_volume
            case["pairing"] = -float(sum(np.sum(t) for t in terms)) * vol
            case["scale"] = float(sum(np.sum(np.abs(t)) for t in terms)) * vol

    def operations(self, state):
        dv = state["dv"]
        ops = []
        for case in state["cases"]:
            d, p = case["d"], case["p"]
            if (d, p) == self.cli_combo:
                argv = ["variation", "--d", str(d), "--p", str(p), "-n", str(case["n0"]),
                        "--levels", str(case["levels"]), "--seed", str(self.seed),
                        "--eps", repr(self.eps0)]

                def run(case=case, argv=argv):
                    return (run_cli(dv, argv),
                            dv.fields.divergence_pairing(case["model"], case["grid"], case["var"]))
            else:
                def run(case=case):
                    study = dv.manufactured.variation_study(
                        case["d"], case["p"], seed=self.seed, levels=case["levels"],
                        n0=case["n0"], eps0=self.eps0)
                    return (study, dv.fields.divergence_pairing(
                        case["model"], case["grid"], case["var"]))
            ops.append(Op(self._op_name(d, p), run,
                          lambda result, case=case: self._check(case, *result)))
        return ops

    def _check(self, case, study, div_pairing):
        label = f"d={case['d']} p={case['p']}"
        if isinstance(study, tuple):
            code, out, err = study
            expect(code in (0, 2), f"{label}: variation command exited {code}: {err.strip()}")
            study = json.loads(out)
            expect(study.get("command") == "variation", f"{label}: not a variation report")
            orders = study["orders"]
            gate_failed = (not orders) or min(orders) < self.min_order
            expect((code == 2) == gate_failed,
                   f"{label}: exit {code} disagrees with reported orders {orders}")
        levels = study["levels"]
        expect(len(levels) == case["levels"], f"{label}: {len(levels)} levels reported")
        errors = [lv["error"] for lv in levels]
        expect(all(math.isfinite(e) for e in errors), f"{label}: non-finite error")
        for lv in levels:
            expect(lv["error"] == abs(lv["numeric"] - lv["pairing"]),
                   f"{label}: error is not |numeric - pairing|")
        positive = all(e > 0 for e in errors)
        expect(not positive or ref.close(study["orders"], observed_orders(errors), 1e-12),
               f"{label}: orders {study['orders']} do not follow from errors {errors}")
        finest = levels[-1]
        expect(finest["n"] == case["n"], f"{label}: finest level n={finest['n']}")
        scale = case["scale"]
        expect(abs(div_pairing - case["pairing"]) <= self.sbp_rel * scale,
               f"{label}: divergence pairing {div_pairing!r} != tensor pairing "
               f"{case['pairing']!r} (summation by parts)")
        expect(abs(finest["pairing"] - case["pairing"]) <= self.sbp_rel * scale,
               f"{label}: study pairing {finest['pairing']!r} != tensor pairing "
               f"{case['pairing']!r} on the same inputs")
        h, eps = 1.0 / finest["n"], finest["eps"]
        bound = self.consistency_k * (h * h + eps * eps) * scale
        expect(finest["error"] <= bound,
               f"{label}: flow derivative misses the pairing by {finest['error']:.3e} "
               f"> {bound:.3e}")
        return True, None


# ---------------------------------------------------------------------------


class GridVerify(Workload):
    """Residuals of large sampled grids read back from disk."""

    name = "grid-verify"
    wave_n = {"full": 32, "tiny": 8}
    gas_n = {"full": 1024, "tiny": 64}
    ladder = {"full": (8, 16, 32), "tiny": (8, 16)}
    nan_n = 64
    nan_cell = (32, 32)
    n_samples = 64
    min_order = 1.9
    uses = ("fields.load_grid", "fields.closedness_residual", "fields.div_T_residual",
            "tensors.general_tensor_array", "models.evaluate", "models.gradient",
            "fields.grid_build", "manufactured.case_refinement", "cli.main",
            "cli.dumps_report")
    known_failures = ("verify-nan",)

    def plan(self):
        return ["verify-wave", "verify-gas", "verify-nan", "wave-tensor",
                "gas-transport", "wave-ladder", "entropy-ladder"]

    def build(self, dv):
        rng = np.random.default_rng(self.seed)
        wave = ref.PlaneWave(rng)
        gas = ref.ContactWave(rng)
        n, N = self.wave_n[self.scale], self.gas_n[self.scale]
        # new files, never rewritten ones: ext4 flushes a file replaced in
        # place when it is closed, and set-up would then time the disk
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

        wave_grid = dv.GridField.from_function(
            lambda Y: dv.em_to_coeffs(*wave.fields(Y)), 4, 2, (n,) * 4, (1.0 / n,) * 4)
        gas_grid = dv.GridField.from_function(
            lambda Y: dv.momentum_to_coeffs(gas.momentum(Y)), 2, 1, (N, N),
            (1.0 / N,) * 2, entropy_fn=gas.entropy)
        # fixed input: uniform gas with every channel of one cell set to NaN
        A = dv.momentum_to_coeffs(np.array([1.3, 0.4]))
        nan_grid = dv.GridField.from_function(
            lambda Y: np.broadcast_to(A, Y.shape[:-1] + (2,)).copy(), 2, 1,
            (self.nan_n,) * 2, (1.0 / self.nan_n,) * 2,
            entropy_fn=lambda Y: np.full(Y.shape[:-1], 0.2))
        nan_grid.values[self.nan_cell] = np.nan
        nan_grid.entropy[self.nan_cell] = np.nan
        paths = {}
        for key, grid in (("wave", wave_grid), ("gas", gas_grid), ("nan", nan_grid)):
            paths[key] = str(dv.save_grid(grid, self.work_dir / f"{key}.json"))
        return {"dv": dv, "wave": wave, "gas": gas, "paths": paths,
                "wave_grid": wave_grid, "gas_grid": gas_grid,
                "wave_model": dv.build_model("maxwell-linear"),
                "gas_model": dv.build_model("gas", {"mu": gas.mu, "gamma": gas.gamma}),
                "samples": rng.integers(0, n, (self.n_samples, 4))}

    def reference(self, state):
        n, N = self.wave_n[self.scale], self.gas_n[self.scale]
        idx = state["samples"]
        E, B = state["wave"].fields(idx * (1.0 / n))
        state["ref_T_samples"] = ref.maxwell_linear_tensor(E, B)
        E, B = state["wave"].fields(ref.grid_coordinates(n, 4))
        state["ref_wave_closedness"] = ref.faraday_residual(E, B, 1.0 / n)
        del E, B
        state["ref_gas"] = state["gas"].residuals(ref.grid_coordinates(N, 2), 1.0 / N)

    def operations(self, state):
        dv = state["dv"]
        paths = state["paths"]
        gas_params = f"mu={state['gas'].mu!r},gamma={state['gas'].gamma!r}"

        def wave_tensor():
            model, grid = state["wave_model"], state["wave_grid"]
            T = dv.fields.tensor_grid(model, grid)
            rows = dv.fields.div_rows(T, grid.spacing, grid.d)
            return T, rows, dv.fields.poynting_residual(model, grid)

        return [
            Op("verify-wave",
               lambda: run_cli(dv, ["verify", "--field", paths["wave"],
                                    "--model", "maxwell-linear"]),
               lambda r: self._check_wave_verify(state, r)),
            Op("verify-gas",
               lambda: run_cli(dv, ["verify", "--field", paths["gas"], "--model", "gas",
                                    "--params", gas_params]),
               lambda r: self._check_gas_verify(state, r)),
            Op("verify-nan",
               lambda: run_cli(dv, ["verify", "--field", paths["nan"], "--model", "gas",
                                    "--tol", "1e-10"]),
               self._check_nan_verify),
            Op("wave-tensor", wave_tensor, lambda r: self._check_wave_tensor(state, r)),
            Op("gas-transport",
               lambda: dv.fields.entropy_transport_residual(state["gas_model"],
                                                            state["gas_grid"]),
               lambda r: self._check_transport(state, r)),
            Op("wave-ladder",
               lambda: dv.manufactured.case_refinement("maxwell-plane-wave",
                                                       self.ladder[self.scale]),
               self._check_wave_ladder),
            Op("entropy-ladder",
               lambda: dv.manufactured.case_refinement("advected-entropy",
                                                       self.ladder[self.scale]),
               self._check_entropy_ladder),
        ]

    @staticmethod
    def _report(result, label):
        code, out, err = result
        expect(code == 0, f"{label}: verify exited {code}: {err.strip()}")
        return json.loads(out)

    def _check_wave_verify(self, state, result):
        rep = self._report(result, "wave grid")
        n = self.wave_n[self.scale]
        expect((rep["d"], rep["p"], rep["dims"]) == (4, 2, [n] * 4), "wave grid: wrong shape")
        expect(ref.close(rep["closedness_residual"], state["ref_wave_closedness"], 1e-9, 1e-13),
               f"wave grid: closedness {rep['closedness_residual']!r} != Faraday residual "
               f"{state['ref_wave_closedness']!r}")
        return True, {"div_rows": rep["div_rows"]}

    def _check_gas_verify(self, state, result):
        rep = self._report(result, "gas grid")
        want = state["ref_gas"]
        expect(ref.close(rep["closedness_residual"], want["closedness"], 1e-6, 1e-10),
               f"gas grid: closedness {rep['closedness_residual']!r} != {want['closedness']!r}")
        expect(ref.close(rep["div_rows"], want["div_rows"], 1e-6, 1e-10),
               f"gas grid: Div T rows {rep['div_rows']} != block-form rows {want['div_rows']}")
        return True, None

    @staticmethod
    def _check_nan_verify(result):
        # one NaN cell must fail the check (exit 2); the known fault drops
        # the NaN (closedness reduces with Python max, the tolerance test is
        # worst > tol) and exits 0 while printing "div_residual": "nan"
        code, out, err = result
        if code == 2:
            return True, None
        expect(code == 0, f"NaN grid: verify exited {code}: {err.strip()}")
        rep = json.loads(out)
        expect(rep.get("div_residual") == "nan",
               f"NaN grid: exit 0 without the known NaN report: {out.strip()}")
        return False, None

    def _check_wave_tensor(self, state, result):
        T, rows, poynting = result
        # the same stencils on the same products, summed in another order:
        # equal up to rounding in one stencil term |T_0j| / h
        term = float(np.abs(T[..., 0, :]).max()) / min(state["wave_grid"].spacing)
        gap = float(np.abs(rows[..., 0] + poynting).max())
        expect(gap <= 1e-12 * term,
               f"wave grid: row 0 of Div T misses -(Poynting residual) by {gap:.2e}")
        got = T[tuple(state["samples"].T)]
        gap = ref.rel_gap(got, state["ref_T_samples"])
        expect(gap <= 1e-12, f"wave grid: general tensor misses the block form by {gap:.2e}")
        row_max = [float(v) for v in np.abs(rows).max(axis=tuple(range(rows.ndim - 1)))]
        return True, {"row_max": row_max}

    def _check_transport(self, state, result):
        want = state["ref_gas"]["transport"]
        expect(ref.close(result["residual"], want, 1e-6, 1e-10),
               f"gas grid: transport residual {result['residual']!r} != {want!r}")
        return True, None

    def _check_wave_ladder(self, rep):
        rows = np.array([r["rows"] for r in rep["reports"]])
        orders = np.log2(rows[:-1] / rows[1:])
        expect(orders.min() >= self.min_order,
               f"wave ladder: row orders {orders.tolist()} below {self.min_order}")
        return True, None

    def _check_entropy_ladder(self, rep):
        orders = rep["orders"]
        expect(len(orders) == len(self.ladder[self.scale]) - 1 and min(orders) >= self.min_order,
               f"entropy ladder: orders {orders} below {self.min_order}")
        return True, None

    def pass_check(self, state, infos):
        # the same grid through the file path and through memory
        expect(infos["verify-wave"]["div_rows"] == infos["wave-tensor"]["row_max"],
               f"wave grid: verify rows {infos['verify-wave']['div_rows']} != "
               f"in-memory rows {infos['wave-tensor']['row_max']}")


# ---------------------------------------------------------------------------


INVARIANT_PAIRS = (("iso-p1", "euclidean"), ("maxwell-lorentz", "minkowski"),
                   ("relativistic", "minkowski"))
BROKEN_PAIRS = (("gas", "euclidean"), ("maxwell-anisotropic", "minkowski"))
GRADIENT_MODELS = (
    ("iso-p1", None), ("minimal-surface", None), ("gas", None),
    ("gas-polytropic", None), ("relativistic", None),
    ("relativistic-powerlaw", None), ("relativistic-limit", None),
    ("maxwell-linear", None), ("maxwell-lorentz", None),
    ("maxwell-anisotropic", None),
    ("user-expr", {"expr": "A0^2/2 + s*A1 + exp(-A1^2)", "d": 2, "p": 1}),
)
GAS_MODELS = ("gas", "gas-polytropic")
RELATIVISTIC_MODELS = ("relativistic", "relativistic-powerlaw", "relativistic-limit")
MAXWELL_MODELS = ("maxwell-linear", "maxwell-lorentz", "maxwell-anisotropic")


class StateChecks(Workload):
    """Many small-batch checks on single states and sampled batches."""

    name = "state-checks"
    sizes = {"full": {"inv_seeds": 3, "inv_states": 128, "grad_states": 100,
                      "block_states": 100, "searches": 3},
             "tiny": {"inv_seeds": 1, "inv_states": 16, "grad_states": 8,
                      "block_states": 8, "searches": 1}}
    cli_names = ("invariance", "jump", "verify", "tensor")
    uses = ("invariance.check", "models.evaluate", "models.gradient",
            "dualnum.ad_gradient", "tensors.general_tensor_array",
            "tensors.block_assembly", "fields.jump_search",
            "fields.jump_search.objective", "fields.closedness_residual",
            "fields.grid_build", "manufactured.case_refinement", "cli.main",
            "cli.dumps_report")

    def plan(self):
        size = self.sizes[self.scale]
        names = [f"invariance-{m}-{k}" for k in range(size["inv_seeds"])
                 for m, _ in INVARIANT_PAIRS + BROKEN_PAIRS]
        names += [f"gradients-{m}" for m, _ in GRADIENT_MODELS]
        names += [f"blocks-{m}" for m in GAS_MODELS + RELATIVISTIC_MODELS + MAXWELL_MODELS]
        names += [f"normal-search-{k}" for k in range(size["searches"])]
        names += [f"cli-{c}-{r}" for c in self.cli_names for r in (0, 1)]
        return names

    def _sub_seed(self, k):
        return self.seed * 1000 + k

    def build(self, dv):
        size = self.sizes[self.scale]
        rng = np.random.default_rng(self.seed)
        metrics = {"euclidean": dv.euclidean_metric(2), "minkowski": dv.minkowski_metric()}
        invariance = [(name, dv.build_model(name), metrics[metric])
                      for name, metric in INVARIANT_PAIRS + BROKEN_PAIRS]
        gradients = []
        for k, (name, params) in enumerate(GRADIENT_MODELS):
            model = dv.build_model(name, params)
            A, s = model.sample_states(np.random.default_rng(self._sub_seed(100 + k)),
                                       size["grad_states"])
            gradients.append((name, model, A, s))
        blocks = []
        for k, name in enumerate(GAS_MODELS + RELATIVISTIC_MODELS + MAXWELL_MODELS):
            model = dv.build_model(name)
            A, s = model.sample_states(np.random.default_rng(self._sub_seed(200 + k)),
                                       size["block_states"])
            blocks.append((name, model, A, s, self._typed_states(dv, name, A, s)))
        limit = dv.build_model("relativistic-limit")
        m_lefts = [self._timelike(rng) for _ in range(size["searches"] + 1)]
        rho, q = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        cli = {
            "invariance": ["invariance", "--model", "maxwell-lorentz", "--metric",
                           "minkowski", "--seed", str(self.seed)],
            "jump": ["jump", "--m-left", json.dumps([float(x) for x in m_lefts[-1]])],
            "verify": ["verify", "--manufactured", "closed-cubic", "--refine", "-n", "8",
                       "--levels", "2"],
            "tensor": ["tensor", "--model", "gas", "--state",
                       json.dumps({"rho": float(rho), "q": [float(q)]})],
        }
        return {"dv": dv, "invariance": invariance, "gradients": gradients,
                "blocks": blocks, "limit": limit, "m_lefts": m_lefts[:-1], "cli": cli}

    @staticmethod
    def _timelike(rng):
        # well inside the light cone, so a density jump of 0.05 is reachable
        return np.concatenate([[rng.uniform(1.5, 3.0)], rng.uniform(-0.4, 0.4, 3)])

    @staticmethod
    def _typed_states(dv, name, A, s):
        models = dv.models
        if name in MAXWELL_MODELS:
            return [models.EMState(*dv.coeffs_to_em(a), s=float(si)) for a, si in zip(A, s)]
        m = dv.coeffs_to_momentum(A)
        if name in RELATIVISTIC_MODELS:
            return [models.RelativisticState(mi, float(si)) for mi, si in zip(m, s)]
        return [models.GasState(float(mi[0]), mi[1:], float(si)) for mi, si in zip(m, s)]

    def operations(self, state):
        dv = state["dv"]
        size = self.sizes[self.scale]
        ops = []
        for k in range(size["inv_seeds"]):
            for name, model, S in state["invariance"]:
                want = ("invariant-symmetric" if name in dict(INVARIANT_PAIRS)
                        else "broken-asymmetric")
                ops.append(Op(
                    f"invariance-{name}-{k}",
                    lambda model=model, S=S, k=k: dv.invariance_symmetry_check(
                        model, S, n_states=size["inv_states"], seed=self._sub_seed(k)),
                    lambda rep, want=want: self._check_verdict(rep, want)))
        for name, model, A, s in state["gradients"]:
            ops.append(Op(
                f"gradients-{name}",
                lambda model=model, A=A, s=s: (model.gradient(A, s),
                                               dv.ad_gradient(model)(A, s),
                                               dv.finite_difference_gradient(model, A, s)),
                lambda r, name=name: self._check_gradients(name, *r)))
        for name, model, A, s, typed in state["blocks"]:
            ops.append(Op(f"blocks-{name}",
                          lambda name=name, model=model, A=A, s=s, typed=typed:
                          self._assemble(dv, name, model, A, s, typed),
                          lambda r, name=name: self._check_blocks(name, *r)))
        for k, m_left in enumerate(state["m_lefts"]):
            ops.append(Op(f"normal-search-{k}",
                          lambda m_left=m_left: dv.lightlike_normal_search(state["limit"], m_left),
                          lambda r, m_left=m_left: self._check_search(state, m_left, r)))
        for cmd in self.cli_names:
            for r in (0, 1):
                ops.append(Op(f"cli-{cmd}-{r}",
                              lambda argv=state["cli"][cmd]: run_cli(dv, argv),
                              lambda res, cmd=cmd: self._check_cli(cmd, res)))
        return ops

    @staticmethod
    def _assemble(dv, name, model, A, s, typed):
        general = dv.tensors.general_tensor_array(model, A, s)
        blocks = []
        for st in typed:
            if name in GAS_MODELS:
                blocks.append((dv.assemble_gas(model, st)[0].entries,
                               dv.assemble_nform(model, st.m, st.s).entries))
            elif name in RELATIVISTIC_MODELS:
                blocks.append((dv.assemble_relativistic(model, st)[0].entries,
                               dv.assemble_nform(model, st.m, st.s).entries))
            else:
                blocks.append((dv.assemble_maxwell(model, st)[0].entries,))
        return general, blocks

    @staticmethod
    def _check_verdict(rep, want):
        expect(rep["verdict"] == want and rep["agreement"],
               f"{rep['model']}: verdict {rep['verdict']} (agreement {rep['agreement']}), "
               f"paper says {want}")
        return True, None

    @staticmethod
    def _check_gradients(name, closed, dual, diff):
        gap_ad, gap_fd = ref.rel_gap(closed, dual), ref.rel_gap(closed, diff)
        expect(gap_ad <= 1e-12, f"{name}: closed vs dual-number gradient gap {gap_ad:.2e}")
        expect(gap_fd <= 1e-6, f"{name}: closed vs difference gradient gap {gap_fd:.2e}")
        return True, None

    @staticmethod
    def _check_blocks(name, general, blocks):
        worst = max(ref.rel_gap(T, general[k]) for k, routes in enumerate(blocks)
                    for T in routes)
        expect(worst <= 1e-12, f"{name}: block form misses the general tensor by {worst:.2e}")
        return True, None

    @staticmethod
    def _check_search(state, m_left, rep):
        nu = np.asarray(rep["nu"], dtype=float)
        quad = float(nu @ ref.lam_inverse(state["limit"].params["c"]) @ nu)
        expect(rep["residual"] <= 1e-10,
               f"normal search from {m_left.tolist()}: residual {rep['residual']:.2e}")
        expect(abs(quad) <= 1e-8,
               f"normal search from {m_left.tolist()}: nu^T Lam^-1 nu = {quad:.2e}")
        return True, None

    @staticmethod
    def _check_cli(cmd, result):
        code, out, err = result
        expect(code == 0 and out, f"cli {cmd}: exited {code}: {err.strip()}")
        return True, {"bytes": out.encode()}

    def pass_check(self, state, infos):
        for cmd in self.cli_names:
            expect(infos[f"cli-{cmd}-0"]["bytes"] == infos[f"cli-{cmd}-1"]["bytes"],
                   f"cli {cmd}: two runs differ")


WORKLOADS = {w.name: w for w in (VariationFlow, GridVerify, StateChecks)}
