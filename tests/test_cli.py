"""Command line front end: thin wrapping, serialization, exit codes."""
import json
import tracemalloc

import numpy as np
import pytest

import divfree.manufactured
from divfree import (
    assemble_gas,
    build_model,
    euclidean_metric,
    invariance_symmetry_check,
)
from divfree.manufactured import run_case
from divfree.cli import dumps_report, main, parse_params, _parse_state
from divfree.models import EMState, GasState, RelativisticState
from divfree.exterior import PFormValue
from helpers import pretty_reference, run_cli_process


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_models_command_lists_the_registry(capsys):
    code, out = run_cli(capsys, ["models"])
    assert code == 0
    report = json.loads(out)
    names = {entry["name"] for entry in report["models"]}
    assert {"gas", "relativistic", "maxwell-linear", "iso-p1"} <= names


def test_tensor_command_matches_the_library(capsys):
    code, out = run_cli(capsys, ["tensor", "--model", "gas",
                                 "--state", '{"rho": 1.0, "q": [1.0]}'])
    assert code == 0
    report = json.loads(out)
    gas = build_model("gas")
    T, Tp = assemble_gas(gas, GasState(rho=1.0, q=[1.0]))
    assert np.abs(np.array(report["tensor"]) - T.entries).max() == 0.0
    assert np.abs(np.array(report["tensor_prime"]) - Tp.entries).max() == 0.0
    assert report["pressure"] == 0.5
    assert report["density"] == 0.0


def test_tensor_command_reports_metric_symmetry(capsys):
    code, out = run_cli(capsys, ["tensor", "--model", "iso-p1",
                                 "--state", '{"coeffs": [3, 4]}',
                                 "--metric", "euclidean"])
    assert code == 0
    report = json.loads(out)
    assert report["symmetry_defect"] == 0.0
    assert np.abs(np.array(report["tensor"])
                  - np.array([[3.5, -12.0], [-12.0, -3.5]])).max() == 0.0


def test_invariance_command_matches_the_library(capsys):
    code, out = run_cli(capsys, ["invariance", "--model", "iso-p1",
                                 "--metric", "euclidean", "--seed", "4",
                                 "--n-states", "32"])
    assert code == 0
    report = json.loads(out)
    direct = invariance_symmetry_check(build_model("iso-p1"), euclidean_metric(2),
                            n_states=32, seed=4)
    assert report["agreement"] is True
    assert report["verdict"] == direct["verdict"]
    assert report["invariance_defect"] == direct["invariance_defect"]
    assert report["symmetry_defect"] == direct["symmetry_defect"]
    assert report["generator_defects"] == direct["generator_defects"]
    assert report["invariant_generators"] == ["01"]


def test_invariance_broken_model_still_agrees(capsys):
    code, out = run_cli(capsys, ["invariance", "--model", "gas",
                                 "--metric", "euclidean"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "broken-asymmetric"
    assert report["invariant_generators"] == []


def test_verify_manufactured_case(capsys):
    code, out = run_cli(capsys, ["verify", "--manufactured", "uniform-gas",
                                 "-n", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["residual"] == 0.0
    direct = run_case("uniform-gas", 5)
    assert report["rows"] == list(direct["rows"])


def test_verify_list_mode(capsys):
    code, out = run_cli(capsys, ["verify", "--manufactured", "list"])
    assert code == 0
    names = set(json.loads(out)["cases"])
    assert "maxwell-plane-wave" in names and "entropy-shear" in names
    assert {"potential-flow-uniform", "potential-flow-unsteady"} <= names
    assert not any(name.startswith("bernoulli") for name in names)


def test_verify_refinement_reports_orders(capsys):
    code, out = run_cli(capsys, ["verify", "--manufactured", "closed-cubic",
                                 "--refine", "-n", "8", "--levels", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["orders"] == [2.0]  # residual is exactly h^2


def test_verify_field_file(tmp_path, capsys):
    from divfree import GridField, save_grid

    g = GridField.from_function(
        lambda Y: np.stack([np.full(Y.shape[:-1], -0.4),
                            np.full(Y.shape[:-1], 1.3)], axis=-1),
        d=2, p=1, dims=(5, 5), spacing=(0.2, 0.2))
    path = tmp_path / "uniform.json"
    save_grid(g, path)
    code, out = run_cli(capsys, ["verify", "--field", str(path),
                                 "--model", "gas", "--tol", "1e-12"])
    assert code == 0
    report = json.loads(out)
    assert report["closedness_residual"] == 0.0
    assert report["div_residual"] == 0.0
    assert report["nonfinite_cells"] == 0


def test_verify_field_tol_failure_exits_2(tmp_path, capsys):
    from divfree import GridField, save_grid

    def fn(Y):
        rho = 1.0 + Y[..., 1] ** 2
        return np.stack([np.zeros(Y.shape[:-1]), rho], axis=-1)

    g = GridField.from_function(fn, d=2, p=1, dims=(9, 9),
                                spacing=(1.0 / 9, 1.0 / 9))
    path = tmp_path / "imbalanced.json"
    save_grid(g, path)
    code, out = run_cli(capsys, ["verify", "--field", str(path),
                                 "--model", "gas", "--tol", "1e-12"])
    assert code == 2
    assert json.loads(out)["div_residual"] > 0.1


def test_verify_field_with_a_nan_cell_fails(tmp_path, capsys):
    from divfree import GridField, save_grid

    g = GridField.from_function(
        lambda Y: np.stack([np.full(Y.shape[:-1], -0.4),
                            np.full(Y.shape[:-1], 1.3)], axis=-1),
        d=2, p=1, dims=(9, 9), spacing=(0.125, 0.125))
    g.values[4, 4] = np.nan
    path = save_grid(g, tmp_path / "nan.json")
    for model in ([], ["--model", "gas"]):
        code, out = run_cli(capsys, ["verify", "--field", str(path), "--tol", "1e-10"]
                            + model)
        assert code == 2
        report = json.loads(out)
        assert report["nonfinite_cells"] == 1
        assert report["closedness_residual"] == "nan"
    assert report["div_residual"] == "nan"


def test_verify_field_with_a_nan_entropy_cell_fails(tmp_path, capsys):
    # the dual-number gradient leaves the NaN at its own cell: a NaN residual
    # and exit 2, not a domain error from the finite coefficients
    from divfree import GridField, save_grid

    g = GridField.from_function(
        lambda Y: np.stack([np.sin(Y[..., 0]), np.cos(Y[..., 1])], axis=-1),
        d=2, p=1, dims=(9, 9), spacing=(0.125, 0.125),
        entropy_fn=lambda Y: 0.1 * Y[..., 0])
    g.entropy[4, 4] = np.nan
    path = save_grid(g, tmp_path / "nan_entropy.json")
    code, out = run_cli(capsys, ["verify", "--field", str(path), "--model", "user-expr",
                                 "--params", "expr=A0^2/2 + s*A1 + exp(-A1^2),d=2,p=1",
                                 "--tol", "1e-10"])
    assert code == 2
    report = json.loads(out)
    assert report["nonfinite_cells"] == 1
    assert report["div_rows"] == ["nan", "nan"]


def _uniform_gas_grid(tmp_path, entropy_cell):
    """A uniform 160^2 gas grid (more than one assembly block) at rho 1.3,
    q 0.4, s 0.2, where every residual is 0; ``entropy_cell`` holds the
    entropy written at [80, 80]."""
    from divfree import GridField, save_grid

    g = GridField.from_function(lambda Y: np.full(Y.shape[:-1] + (2,), [-0.4, 1.3]),
                                2, 1, (160, 160), (1 / 160, 1 / 160),
                                entropy_fn=lambda Y: np.full(Y.shape[:-1], 0.2))
    g.entropy[80, 80] = entropy_cell
    return str(save_grid(g, tmp_path / "gas.json"))


VERIFY_FIELD_FLAGS = (["--model", "gas", "--tol", "1e-10"], ["--tol", "1e-10"],
                      ["--model", "gas"], [])


@pytest.mark.parametrize("flags", VERIFY_FIELD_FLAGS)
def test_verify_field_fails_a_nonfinite_cell_no_residual_reads(tmp_path, capsys, flags):
    # the gas density never reads s, so every residual stays 0: only the
    # cell count can fail the check, with or without --tol
    path = _uniform_gas_grid(tmp_path, np.nan)
    code, out = run_cli(capsys, ["verify", "--field", path] + flags)
    assert code == 2
    report = json.loads(out)
    assert report["nonfinite_cells"] == 1
    assert report["closedness_residual"] == 0.0
    assert report.get("div_residual", 0.0) == 0.0


@pytest.mark.parametrize("flags", VERIFY_FIELD_FLAGS)
def test_verify_field_passes_a_finite_grid(tmp_path, capsys, flags):
    path = _uniform_gas_grid(tmp_path, 0.2)
    code, out = run_cli(capsys, ["verify", "--field", path] + flags)
    assert code == 0
    report = json.loads(out)
    assert report["nonfinite_cells"] == 0
    assert report.get("div_residual", 0.0) == 0.0


# each edit of a valid manifest that load_grid must reject before reading on
MALFORMED_MANIFESTS = {
    "string-d": lambda m: {**m, "d": "2"},
    "float-dims": lambda m: {**m, "dims": [5.0, 5.0]},
    "negative-dims": lambda m: {**m, "dims": [-5, -5]},
    "numeric-data": lambda m: {**m, "data": 5},
    "nan-origin": lambda m: {**m, "origin": [float("nan"), 0.0]},
    "scalar-spacing": lambda m: {**m, "spacing": 0.2},
    "top-level-list": lambda m: [m],
    # has_entropy is a JSON boolean: true or false, nothing read by truthiness
    "string-entropy": lambda m: {**m, "has_entropy": "no"},
    "int-entropy": lambda m: {**m, "has_entropy": 1},
    "null-entropy": lambda m: {**m, "has_entropy": None},
    "missing-entropy": lambda m: {k: v for k, v in m.items() if k != "has_entropy"},
}


def _csv_3x3(last):
    rows = [f"{i},{j},{i}.5,{j}.5" for i in range(3) for j in range(3)][:-1]
    return "\n".join(["i0,i1,A_0,A_1"] + rows + [last]) + "\n"


MALFORMED_CSVS = {
    # int() would truncate 2.7 to 2 and place the row at cell (2, 2)
    "fractional-index": _csv_3x3("2.7,2,2.5,2.5"),
    "short-row": _csv_3x3("2,2,2.5"),
    "inf-index": _csv_3x3("inf,2,2.5,2.5"),
    "zero-bytes": "",
    "header-only": "i0,i1,A_0,A_1\n",
}


@pytest.mark.parametrize("case", MALFORMED_CSVS)
def test_malformed_csv_field_is_an_input_error(tmp_path, capsys, case):
    path = tmp_path / "field.csv"
    path.write_text(MALFORMED_CSVS[case])
    line = assert_one_error_line(capsys, ["verify", "--field", str(path), "--d", "2", "--p", "1",
                                          "--spacing", "0.5"])
    assert "field.csv" in line


def test_a_far_csv_index_costs_the_files_memory_not_the_grids(tmp_path, capsys):
    # two rows imply a 100001^2 grid: its count array alone would take 80 GB
    path = tmp_path / "field.csv"
    path.write_text("i0,i1,A_0,A_1\n0,0,1,1\n100000,100000,1,1\n")
    tracemalloc.start()
    try:
        line = assert_one_error_line(capsys, ["verify", "--field", str(path), "--d", "2",
                                              "--p", "1", "--spacing", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line.startswith("error: missing cell (0, 1) in field.csv")
    assert peak < 1 << 20


def test_a_far_4d_csv_index_names_its_first_missing_cell(tmp_path, capsys):
    # the implied 100001^4 grid has more cells than a flat numpy index holds
    path = tmp_path / "field.csv"
    path.write_text("i0,i1,i2,i3,A_0,A_1,A_2,A_3\n0,0,0,0,1,1,1,1\n"
                    "100000,100000,100000,100000,1,1,1,1\n")
    tracemalloc.start()
    try:
        line = assert_one_error_line(capsys, ["verify", "--field", str(path), "--d", "4",
                                              "--p", "1", "--spacing", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line == "error: missing cell (0, 0, 0, 1) in field.csv"
    assert peak < 1 << 20


OVERSIZED = {
    "variation-d12": ["variation", "--d", "12", "--p", "1", "-n", "8"],
    "variation-ladder": ["variation", "--d", "2", "--p", "1", "-n", "8", "--levels", "40"],
    "plane-wave-n1000": ["verify", "--manufactured", "maxwell-plane-wave", "-n", "1000"],
    "invariance-states": ["invariance", "--model", "iso-p1", "--n-states", "10000000000"],
    "jump-coarse": ["jump", "--m-left", "[2.0,0.3,-0.1,0.2]", "--coarse", "10000000000"],
    # 20000 levels: a list of every level's n would take 27 MB before the bound
    "refine-levels": ["verify", "--manufactured", "closed-cubic", "--refine", "--levels", "20000"],
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_an_oversized_generated_size_is_refused_before_it_is_allocated(capsys, case):
    # each would ask numpy for 128 MiB (the ladder's 4096^2 level) to 29 TiB
    tracemalloc.start()
    try:
        line = assert_one_error_line(capsys, OVERSIZED[case])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line.endswith(" exceed the 4194304 one call may generate")
    assert peak < 4 << 20


def test_a_ladder_bounds_its_finest_level_before_its_first_runs(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(divfree.manufactured, "run_case", lambda *args: runs.append(args))
    monkeypatch.setattr(divfree.manufactured, "first_variation", lambda *args: runs.append(args))
    for argv in (OVERSIZED["variation-ladder"],
                 ["verify", "--manufactured", "closed-cubic", "--refine", "--levels", "40"]):
        assert_one_error_line(capsys, argv)
    assert runs == []


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_grid_manifest_is_an_input_error(tmp_path, capsys, case):
    from divfree import GridField, save_grid

    g = GridField(2, 1, (5, 5), (0.2, 0.2), (0.0, 0.0), np.full((5, 5, 2), [-0.4, 1.3]))
    path = save_grid(g, tmp_path / "grid.json")
    path.write_text(json.dumps(MALFORMED_MANIFESTS[case](json.loads(path.read_text()))))
    line = assert_one_error_line(capsys, ["verify", "--field", str(path), "--model", "gas"])
    # the line names the manifest or its bad key, not a numpy internal
    assert any(name in line for name in ("grid.json", "origin", "spacing"))
    assert ("has_entropy" in line) == case.endswith("-entropy")


def test_jump_search_mode(capsys):
    code, out = run_cli(capsys, ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]"])
    assert code == 0
    report = json.loads(out)
    assert abs(report["theta"] - np.pi / 4.0) < 1e-8
    assert report["residual"] < 1e-10
    assert report["model"] == "relativistic-limit"


def test_jump_pair_mode_flags_an_unbalanced_interface(capsys):
    code, out = run_cli(capsys, ["jump", "--model", "gas",
                                 "--left", '{"rho": 1.0, "q": [0.0]}',
                                 "--right", '{"rho": 2.0, "q": [0.0]}',
                                 "--normal", "[0, 1]", "--tol", "1e-8"])
    assert code == 2
    assert json.loads(out)["row_residuals"] == [0.0, 1.5]


def test_variation_command(capsys):
    code, out = run_cli(capsys, ["variation", "--d", "2", "--p", "1",
                                 "-n", "16", "--levels", "2"])
    assert code == 0
    report = json.loads(out)
    assert min(report["orders"]) > 1.9
    assert len(report["levels"]) == 2


@pytest.mark.parametrize("flags", (
    ["--eps", "0"], ["--eps", "nan"], ["--eps", "inf"], ["-n", "0"], ["-n", "5"],
    ["--d", "0", "--p", "0"], ["--levels", "0"], ["--levels", "1"], ["--p", "0"],
    ["--p", "3"],
))
def test_vacuous_variation_is_an_input_error(capsys, flags):
    # -n 5 leaves the bump support without a node: xi = 0 everywhere; one
    # level measures no order
    argv = ["variation", "--d", "2", "--p", "1", "--levels", "2", *flags]
    assert_one_error_line(capsys, argv)


@pytest.mark.parametrize("levels", ("0", "1"))
def test_refinement_with_one_level_is_an_input_error(capsys, levels):
    line = assert_one_error_line(capsys, ["verify", "--manufactured", "closed-cubic",
                                          "--refine", "--levels", levels])
    assert "--levels" in line


@pytest.mark.parametrize("flags", (["-n", "0"], ["-n", "2"], ["--refine", "-n", "0"]))
def test_verify_with_too_few_nodes_is_an_input_error(capsys, flags):
    line = assert_one_error_line(capsys, ["verify", "--manufactured", "closed-cubic", *flags])
    assert line == "error: need at least 3 nodes per axis for interior differences"


@pytest.mark.parametrize("tols", (
    ["--tol-invariant", "nan"], ["--tol-invariant", "-1"], ["--tol-broken", "inf"],
    ["--tol-invariant", "1", "--tol-broken", "0.5"],
    ["--tol-invariant", "0.5", "--tol-broken", "0.5"],
))
def test_invariance_tolerances_are_validated(capsys, tols):
    assert_one_error_line(capsys, ["invariance", "--model", "gas", *tols])


def test_nan_invariance_defects_reach_the_report():
    # exp(1000 A0) overflows: the defects are NaN, not the 0 a Python max
    # would leave, the verdict disagrees and stderr stays free of warnings
    done = run_cli_process(["invariance", "--model", "user-expr", "--params",
                            "expr=exp(A0*1000),d=2,p=1", "--metric", "euclidean"])
    assert done.returncode == 2 and done.stderr == ""
    report = json.loads(done.stdout)
    for key in ("invariance_defect", "symmetry_defect", "trace_identity_residual"):
        assert report[key] == "nan"
    assert report["agreement"] is False and report["verdict"] == "inconclusive"


def test_overflow_prints_no_numpy_warnings():
    jump = run_cli_process(["jump", "--model", "gas", "--left", '{"rho": 1e-300, "q": [1e200]}',
                            "--right", '{"rho": 1, "q": [0]}', "--normal", "[1, 0]"])
    assert jump.returncode == 2 and jump.stderr == ""
    assert json.loads(jump.stdout)["row_residuals"] == ["nan", "nan"]
    tensor = run_cli_process(["tensor", "--model", "gas", "--state",
                              '{"rho": 1e-300, "q": [1e200]}'])
    assert tensor.returncode == 1 and tensor.stdout == ""
    lines = tensor.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_usage_errors_exit_1(capsys):
    assert main(["tensor", "--model", "nope", "--state", "{}"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["verify", "--manufactured", "no-such-case"]) == 1
    capsys.readouterr()
    assert main(["tensor", "--model", "gas", "--state", "not json"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", (
    ["tensor", "--model", "relativistic", "--state", '{"rho":1.0,"q":[0.1,0,0]}'],
    ["tensor", "--model", "iso-p1", "--state", '{"rho":1.0,"q":[1]}'],
    ["jump", "--model", "gas", "--m-left", "[2.0,0.3]"],
    ["tensor", "--model", "gas", "--state", '{"rho": null, "q": [1]}'],
    ["tensor", "--model", "gas", "--state", '{"rho": 1.0, "q": [1], "s": null}'],
    ["tensor", "--model", "gas", "--state", '{"rho": [1], "q": [1]}'],
    ["tensor", "--model", "gas", "--state", '{"rho": 1, "q": [1], "s": [1]}'],
))
def test_state_of_the_wrong_kind_is_an_input_error(capsys, argv):
    assert_one_error_line(capsys, argv)


@pytest.mark.parametrize("argv", (
    ["jump", "--m-left", "[NaN, 0.3, -0.1, 0.2]"],
    ["jump", "--m-left", '{"m": [2.0, 0.3, -0.1, 0.2]}'],
    ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]", "--coarse", "0"],
    ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]", "--rho-jump-min", "nan"],
    ["jump", "--m-left", "[true, 0.3, -0.1, 0.2]"],
))
def test_bad_search_input_is_an_input_error(capsys, argv):
    assert_one_error_line(capsys, argv)


PAIR = ["jump", "--model", "gas", "--left", '{"rho": 1, "q": [0]}',
        "--right", '{"rho": 2, "q": [0]}', "--tol", "1e-8"]


@pytest.mark.parametrize("normal", ("[NaN, 1]", "[Infinity, 1]", "[0, 1, 0]", "[[0, 1]]",
                                    "[false, true]", '"01"', "[0, 0]"))
def test_bad_normal_is_an_input_error(capsys, normal):
    assert "normal" in assert_one_error_line(capsys, PAIR + ["--normal", normal])


@pytest.mark.parametrize("argv", (
    # a NaN state propagates into NaN row residuals
    ["jump", "--model", "iso-p1", "--left", '{"coeffs": [NaN, 1]}',
     "--right", '{"coeffs": [1, 1]}', "--normal", "[1, 0]"],
    # a search residual is not <= a NaN tolerance
    ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]", "--tol", "nan"],
))
def test_jump_fails_a_nan_comparison(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 2 and json.loads(out)["command"] == "jump"


def assert_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("argv", (
    ["tensor", "--model", "gas", "--params", "foo=1", "--state", '{"rho": 1.0, "q": [1]}'],
    ["tensor", "--model", "gas", "--params", "g=polytropic", "--state", '{"rho": 1.0, "q": [1]}'],
    ["tensor", "--model", "gas", "--state", '{"coeffs": [1, -1]}'],
    ["tensor", "--model", "gas", "--state", '{"coeffs": [1, 0]}'],
    ["tensor", "--model", "user-expr", "--params", 'expr=__import__("os"),d=2,p=1',
     "--state", '{"coeffs": [1, 2]}'],
    ["tensor", "--model", "user-expr", "--params", "expr=A0 +,d=2,p=1",
     "--state", '{"coeffs": [1, 2]}'],
    # a fractional dimension or degree names no model
    ["tensor", "--model", "gas", "--params", "n=1.5", "--state", '{"coeffs": [0.4, 1.3]}'],
    ["tensor", "--model", "iso-p1", "--params", "d=1.9", "--state", '{"coeffs": [1]}'],
    ["tensor", "--model", "minimal-surface", "--params", "d=2.5",
     "--state", '{"coeffs": [1, 2]}'],
    ["tensor", "--model", "user-expr", "--params", "expr=A0 * A0,d=2,p=1.5",
     "--state", '{"coeffs": [1, 2]}'],
))
def test_bad_model_input_is_an_input_error(capsys, argv):
    assert_one_error_line(capsys, argv)


@pytest.mark.parametrize("argv", (
    ["tensor", "--model", "gas", "--params", "n=1e308"],
    ["tensor", "--model", "gas-polytropic", "--params", "n=1e308"],
    ["tensor", "--model", "user-expr", "--params", "expr=A0,d=1e308,p=1"],
    ["tensor", "--model", "gas", "--params", "n=100000"],
))
def test_an_oversized_form_basis_is_an_input_error(capsys, argv):
    # C(d, p) tuples are refused before itertools enumerates them: 1e308
    # overflowed it, and n = 100000 would take 10^5 tuples of 10^5 axes
    line = assert_one_error_line(capsys, argv + ["--state", '{"coeffs": [1, 2]}'])
    assert line == "error: a form basis takes at most 4096 axes and coefficients"


MOVING_STATE = '{"m": [2.0, 0.3, -0.1, 0.2]}'
STATES = {"gas": '{"rho": 1.0, "q": [1.0]}', "relativistic": MOVING_STATE}


@pytest.mark.parametrize("model, params", (
    ("gas", "gamma=abc"), ("gas", "gamma=null"), ("gas", "mu=[1]"),
    pytest.param("gas", "gamma=1" + "0" * 400, id="gas-gamma=10^400"),
    ("relativistic", "c=true"), ("relativistic", "c=0"), ("relativistic", "c=-1"),
))
def test_float_parameters_are_finite_numbers(capsys, model, params):
    # each float parameter is cast once, in build_model, and c must be positive
    line = assert_one_error_line(capsys, ["tensor", "--model", model, "--params", params,
                                          "--state", STATES[model]])
    assert f" {params.split('=')[0]} must be" in line


def test_minkowski_metric_takes_the_models_light_speed(capsys):
    code, out = run_cli(capsys, ["invariance", "--model", "relativistic", "--params", "c=2",
                                 "--metric", "minkowski"])
    assert code == 0 and json.loads(out)["verdict"] == "invariant-symmetric"
    code, out = run_cli(capsys, ["tensor", "--model", "relativistic", "--params", "c=2",
                                 "--state", MOVING_STATE, "--metric", "minkowski"])
    assert code == 0 and json.loads(out)["symmetry_defect"] < 1e-12
    assert main(["invariance", "--model", "relativistic", "--metric", "minkowski",
                 "--c", "2"]) == 1
    assert "unrecognized arguments: --c 2" in capsys.readouterr().err


@pytest.mark.parametrize("expr, message", (
    ("A0 + 1/0", "tensor entries must be finite"),
    ("A0 + 2.0^2000", "tensor entries must be finite"),
    ("A0 + 9^9^7", "tensor entries must be finite"),
    ("A0 + 1" + "0" * 400, "tensor entries must be finite"),
    ("True * A0", "only numeric constants allowed"),
), ids=("divide-by-zero", "overflow", "tower", "long-literal", "bool"))
def test_user_expr_constants_are_ieee_doubles(capsys, expr, message):
    # 1/0, 2.0^2000 and a 401-digit literal are inf, as in numpy, not a
    # Python error, and 9^9^7 overflows at once, not after an exact power of
    # 4.6 million digits
    line = assert_one_error_line(capsys, ["tensor", "--model", "user-expr", "--params",
                                          f"expr={expr},d=2,p=1", "--state", '{"coeffs": [1, 2]}'])
    assert line == f"error: {message}"


@pytest.mark.parametrize("model, params", (("iso-p1", "d=1"),
                                           ("user-expr", "expr=A0^2,d=1,p=1")))
def test_invariance_in_one_dimension_is_an_input_error(capsys, model, params):
    line = assert_one_error_line(capsys, ["invariance", "--model", model, "--params", params])
    assert "dimension 1" in line


@pytest.mark.parametrize("n_states", ("0", "-3"))
def test_invariance_needs_a_state(capsys, n_states):
    assert main(["invariance", "--model", "gas", "--n-states", n_states]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least one state\n")


def test_verify_a_counterexample_above_its_floor(capsys):
    code, out = run_cli(capsys, ["verify", "--manufactured", "gas-pressure-imbalance",
                                 "--refine", "-n", "8", "--levels", "2"])
    assert code == 0
    assert min(r["residual"] for r in json.loads(out)["reports"]) >= 0.5


@pytest.mark.parametrize("argv", (
    ["uniform-gas", "-n", "6"], ["uniform-gas", "--refine", "-n", "6", "--levels", "2"],
    ["gas-pressure-imbalance", "-n", "6"],
    ["gas-pressure-imbalance", "--refine", "-n", "6", "--levels", "2"],
))
def test_verify_fails_a_nan_divergence_residual(capsys, monkeypatch, argv):
    # NaN is neither above a zero case's tol nor below a floor case's floor
    monkeypatch.setattr("divfree.manufactured.div_T_residual",
                        lambda model, grid: np.full(grid.d, np.nan))
    code, out = run_cli(capsys, ["verify", "--manufactured", *argv])
    assert code == 2 and json.loads(out)["command"] == "verify"


def test_verify_fails_a_ladder_with_a_nan_level(capsys, monkeypatch):
    # the orders skip the NaN level, so the two finite levels alone would
    # read as order 2
    real = divfree.manufactured.closedness_residual
    monkeypatch.setattr("divfree.manufactured.closedness_residual",
                        lambda grid: np.nan if grid.dims[0] == 32 else real(grid))
    code, out = run_cli(capsys, ["verify", "--manufactured", "closed-cubic",
                                 "--refine", "-n", "8", "--levels", "3"])
    assert code == 2 and json.loads(out)["orders"] == [2.0]


@pytest.mark.parametrize("n", (8, 32))
def test_verify_fails_a_ladder_with_an_infinite_level(capsys, monkeypatch, n):
    # the orders skip the infinite level, which fails through its own
    # residual: its pair has no order, neither inf nor log2 of 0
    real = divfree.manufactured.closedness_residual
    monkeypatch.setattr("divfree.manufactured.closedness_residual",
                        lambda grid: np.inf if grid.dims[0] == n else real(grid))
    code, out = run_cli(capsys, ["verify", "--manufactured", "closed-cubic",
                                 "--refine", "-n", "8", "--levels", "3"])
    report = json.loads(out)
    assert code == 2 and report["orders"] == [2.0]
    assert [r["residual"] for r in report["reports"]].count("inf") == 1


def test_verify_fails_a_nan_residual_of_a_single_order2_run(capsys, monkeypatch):
    # one run of an order-2 case measures no order, but its residual must
    # still be finite
    monkeypatch.setattr("divfree.manufactured.closedness_residual", lambda grid: np.nan)
    code, out = run_cli(capsys, ["verify", "--manufactured", "closed-cubic", "-n", "6"])
    assert code == 2 and json.loads(out)["residual"] == "nan"


@pytest.mark.parametrize("n", (8, 16, 32))
def test_variation_fails_a_nan_level(capsys, monkeypatch, n):
    # the orders skip a pair with a NaN error, so the finite levels alone
    # could read as order 2
    real = divfree.manufactured.first_variation

    def first_variation(model, grid, var, eps):
        numeric, pairing = real(model, grid, var, eps)
        return (np.nan if grid.dims[0] == n else numeric), pairing

    monkeypatch.setattr("divfree.manufactured.first_variation", first_variation)
    code, out = run_cli(capsys, ["variation", "--d", "2", "--p", "1", "-n", "8",
                                 "--levels", "3"])
    assert code == 2
    assert [level["n"] for level in json.loads(out)["levels"] if level["error"] == "nan"] == [n]


@pytest.mark.parametrize("case, flags, key, residual", (
    ("overflow", ["--model", "iso-p1"], "div_residual", "nan"),
    ("infinite", [], "closedness_residual", "inf"),
), ids=("overflow", "infinite"))
def test_verify_field_fails_a_nonfinite_residual_of_finite_cells(tmp_path, capsys, case,
                                                                 flags, key, residual):
    # finite cells whose residual is not: every coefficient at 1e200
    # overflows iso-p1's tensor into NaN rows, and two opposite coefficients
    # at 1e308 overflow a closedness difference into inf
    from divfree import GridField, save_grid

    g = GridField(2, 1, (9, 9), (0.125, 0.125), (0.0, 0.0), np.zeros((9, 9, 2)))
    if case == "overflow":
        g.values[...] = 1e200
    else:
        g.values[4, 3, 0], g.values[4, 5, 0] = -1e308, 1e308
    path = str(save_grid(g, tmp_path / "grid.json"))
    for tol in ([], ["--tol", "1e-8"]):
        code, out = run_cli(capsys, ["verify", "--field", path, *flags, *tol])
        report = json.loads(out)
        assert code == 2
        assert report["nonfinite_cells"] == 0 and report[key] == residual


def test_pretty_output_renders_scalars(capsys):
    code, out = run_cli(capsys, ["tensor", "--model", "gas",
                                 "--state", '{"rho": 1.0, "q": [1.0]}',
                                 "--output", "pretty"])
    assert code == 0
    assert "pressure: 0.5" in out


PRETTY_ARGVS = {
    "models": ["models"],
    "invariance": ["invariance", "--model", "maxwell-lorentz", "--metric", "minkowski",
                   "--n-states", "16"],
    "refine": ["verify", "--manufactured", "maxwell-plane-wave", "--refine", "-n", "8",
               "--levels", "2"],
    "jump": ["jump", "--m-left", "[2.0, 0.3, -0.1, 0.2]"],
}


@pytest.mark.parametrize("case", [*PRETTY_ARGVS, "nan-field"])
def test_pretty_output_is_the_json_report_rendered(tmp_path, capsys, case):
    # nested dicts and lists, flat number lists, bools, None and NaN: the
    # pretty text is the JSON report's own tree, floats to 10 digits
    if case == "nan-field":
        from divfree import GridField, save_grid

        g = GridField.from_function(lambda Y: np.full(Y.shape[:-1] + (2,), [-0.4, 1.3]),
                                    2, 1, (9, 9), (0.125, 0.125))
        g.values[4, 4] = np.nan
        argv = ["verify", "--field", str(save_grid(g, tmp_path / "nan.json")), "--model", "gas"]
    else:
        argv = PRETTY_ARGVS[case]
    code, out = run_cli(capsys, argv)
    code_pretty, pretty = run_cli(capsys, argv + ["--output", "pretty"])
    assert code_pretty == code
    assert pretty == pretty_reference(json.loads(out))


def test_parse_params():
    assert parse_params("") == {}
    assert parse_params("gamma=1.4,mu=1.0,n=3,name=foo") == {
        "gamma": 1.4, "mu": 1.0, "n": 3, "name": "foo"}
    with pytest.raises(ValueError):
        parse_params("oops")


def test_parse_state_selects_the_right_type():
    gas = build_model("gas")
    st = _parse_state(gas, '{"rho": 1.5, "q": [0.2], "s": 0.3}')
    assert isinstance(st, GasState) and st.s == 0.3
    mx = build_model("maxwell-linear")
    st = _parse_state(mx, '{"E": [1, 0, 0], "B": [0, 1, 0]}')
    assert isinstance(st, EMState)
    rel = build_model("relativistic")
    st = _parse_state(rel, '{"m": [2.0, 0.3, -0.1, 0.2]}')
    assert isinstance(st, RelativisticState)
    iso = build_model("iso-p1")
    st = _parse_state(iso, '{"coeffs": [3, 4]}')
    assert isinstance(st, PFormValue)
    # coefficients are valid for every model; other keys follow its class
    st = _parse_state(rel, '{"coeffs": [0.3, 0.1, -0.2, 2.0], "s": 0.5}')
    assert isinstance(st, PFormValue) and st.s == 0.5
    with pytest.raises(ValueError):
        _parse_state(rel, '{"E": [1, 0, 0], "B": [0, 1, 0]}')
    with pytest.raises(ValueError):
        _parse_state(gas, '{"rho": 1.5}')


def test_report_serialization_is_canonical():
    report = {"b": float("nan"), "a": np.array([1.5, 0.1]),
              "c": float("inf"), "d": True, "e": None, "f": "txt", "g": 3}
    text = dumps_report(report)
    assert text == ('{"a":[1.5,0.10000000000000001],"b":"nan","c":"inf",'
                    '"d":true,"e":null,"f":"txt","g":3}')
    nested = dumps_report({"x": {"zz": 1.0, "aa": np.float64(2.0)}})
    assert nested == '{"x":{"aa":2,"zz":1}}'
    assert dumps_report(report) == text  # stable across calls


def test_two_processes_emit_identical_bytes(tmp_path):
    cmd = ["invariance", "--model", "maxwell-lorentz", "--metric", "minkowski",
           "--seed", "12"]
    outs = []
    for k in range(2):
        target = tmp_path / f"run{k}.json"
        done = run_cli_process(cmd + ["--out", str(target)])
        assert done.returncode == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
