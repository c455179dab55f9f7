"""Set-up, passes, metrics and the result line."""
from __future__ import annotations

import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from spans import Tracer
from workloads import Incorrect

SETUP_REPEATS = {"full": 9, "tiny": 2}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (layer, quantity, unit); quantities are summed over
# one set-up plus one pass, rates are work over inclusive time
PER_LAYER = (
    ("fields.flow.self_s", "fields.flow", "self_s", "s"),
    ("fields.flow.xi_points", "fields.flow.xi", "points", "count"),
    ("fields.flow.xi.self_s", "fields.flow.xi", "self_s", "s"),
    ("fields.first_variation.self_s", "fields.first_variation", "self_s", "s"),
    ("exterior.pullback_matrix.calls", "exterior.pullback_matrix", "calls", "count"),
    ("exterior.pullback_matrix.self_s", "exterior.pullback_matrix", "self_s", "s"),
    ("exterior.pullback_matrix.matrices_per_s", "exterior.pullback_matrix", "rate", "1/s"),
    ("models.evaluate.self_s", "models.evaluate", "self_s", "s"),
    ("models.evaluate.points_per_s", "models.evaluate", "rate", "1/s"),
    ("models.gradient.self_s", "models.gradient", "self_s", "s"),
    ("models.gradient.points_per_s", "models.gradient", "rate", "1/s"),
    ("dualnum.ad_gradient.self_s", "dualnum.ad_gradient", "self_s", "s"),
    ("tensors.general_tensor_array.calls", "tensors.general_tensor_array", "calls", "count"),
    ("tensors.general_tensor_array.self_s", "tensors.general_tensor_array", "self_s", "s"),
    ("tensors.general_tensor_array.points_per_s", "tensors.general_tensor_array", "rate", "1/s"),
    ("tensors.general_tensor_array.bytes_computed", "tensors.general_tensor_array", "bytes", "B"),
    ("tensors.block_assembly.self_s", "tensors.block_assembly", "self_s", "s"),
    ("fields.div_T_residual.self_s", "fields.div_T_residual", "self_s", "s"),
    ("fields.closedness_residual.self_s", "fields.closedness_residual", "self_s", "s"),
    ("fields.load_grid.self_s", "fields.load_grid", "self_s", "s"),
    ("fields.load_grid.MB_per_s", "fields.load_grid", "mb_rate", "MB/s"),
    ("fields.grid_build.self_s", "fields.grid_build", "self_s", "s"),
    ("fields.jump_search.self_s", "fields.jump_search", "self_s", "s"),
    ("fields.jump_search.objective_calls", "fields.jump_search.objective", "calls", "count"),
    ("invariance.check.self_s", "invariance.check", "self_s", "s"),
    ("manufactured.variation_study.self_s", "manufactured.variation_study", "self_s", "s"),
    ("manufactured.case_refinement.self_s", "manufactured.case_refinement", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.dumps_report.self_s", "cli.dumps_report", "self_s", "s"),
)


class SetupError(RuntimeError):
    """The program could not be imported or the workload not built."""


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def fresh_import():
    """Import divfree (and its CLI) from scratch, dropping earlier copies."""
    for key in [k for k in sys.modules if k == "divfree" or k.startswith("divfree.")]:
        del sys.modules[key]
    try:
        dv = importlib.import_module("divfree")
        importlib.import_module("divfree.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import divfree: {exc}") from exc
    return dv


def _median(values):
    return float(statistics.median(values))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Outcomes and times of the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_times = []
        self.walls = []


def run_pass(workload, state, ops, tally, tracer=None):
    infos = {}
    gc.collect()    # leave no garbage of the previous pass to this one's clock
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        raised = None
        try:
            result = tracer.operation(op.name, op.run) if tracer else op.run()
        except Exception:   # an operation that raises is an incorrect output
            raised = traceback.format_exc()
        tally.op_times.append(time.perf_counter() - start)
        tally.attempted += 1
        ok = False
        if raised:
            tally.problems.append(f"{op.name} raised:\n{raised}")
        else:
            try:
                ok, infos[op.name] = op.check(result)
            except Incorrect as exc:
                tally.problems.append(f"{op.name}: {exc}")
            del result
        tally.failed += not ok
    try:
        workload.pass_check(state, infos)
    except (Incorrect, KeyError) as exc:
        tally.problems.append(f"pass check: {exc}")
    tally.walls.append(time.perf_counter() - t0)


def _build(workload, dv):
    try:
        return workload.build(dv)
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot build {workload.name}: {exc}") from exc


def _header(workload, passes):
    return {
        "workload": workload.name, "seed": workload.seed, "scale": workload.scale,
        "passes": passes, "ops_per_pass": len(workload.plan()),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(),
    }


def timed_run(workload, seconds):
    """Set up several times, then time whole passes; tracing off."""
    setups = []
    for _ in range(SETUP_REPEATS[workload.scale]):
        state = None    # drop the previous set-up's arrays before building anew
        gc.collect()    # and the module cycles of the previous import
        t0 = time.perf_counter()
        dv = fresh_import()
        state = _build(workload, dv)
        setups.append(time.perf_counter() - t0)
    workload.reference(state)
    ops = workload.operations(state)
    tally = Tally()
    t0 = time.perf_counter()
    while not tally.walls or time.perf_counter() - t0 < seconds:
        run_pass(workload, state, ops, tally)
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median(tally.walls),
        "op_p50_s": _median(tally.op_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    header = _header(workload, len(tally.walls))
    header["setup_runs"] = len(setups)
    header["op_samples"] = len(tally.op_times)
    return {"header": header, "tally": tally,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def _layer_value(quantity, row_setup, row_pass, passes):
    def per_pass(key):
        return row_setup[key] + row_pass[key] / passes

    if quantity in ("rate", "mb_rate"):
        busy = per_pass("total_s")
        work = per_pass("points") if quantity == "rate" else per_pass("bytes") / 1e6
        return work / busy if busy > 0 else 0.0
    value = per_pass(quantity)
    if quantity != "self_s" and float(value).is_integer():
        return int(value)
    return value


def traced_run(workload, seconds, records):
    """One traced set-up, then untraced and traced passes in turn."""
    dv = fresh_import()
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        state = setup_tracer.operation("setup", lambda: _build(workload, dv))
    finally:
        setup_tracer.uninstall()
    workload.reference(state)
    ops = workload.operations(state)
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    t0 = time.perf_counter()
    while not traced.walls or time.perf_counter() - t0 < seconds:
        run_pass(workload, state, ops, plain)
        tracer.install()
        try:
            run_pass(workload, state, ops, traced, tracer)
        finally:
            tracer.uninstall()
    passes = len(traced.walls)
    setup_rows, pass_rows = setup_tracer.totals(), tracer.totals()
    metrics = {}
    for name, layer, quantity, unit in PER_LAYER:
        metrics[name] = (_layer_value(quantity, setup_rows[layer], pass_rows[layer], passes),
                         unit)
    metrics["trace.overhead_s"] = (_median(traced.walls) - _median(plain.walls), "s")
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.problems = plain.problems + traced.problems
    for target in sorted(set(setup_tracer.missing + tracer.missing)):
        tally.problems.append(f"cannot trace {target}: not found")
    for layer in workload.uses:
        if setup_rows[layer]["calls"] + pass_rows[layer]["calls"] == 0:
            tally.problems.append(f"layer {layer} was never called: a wrapper missed it")
    header = _header(workload, passes)
    header["untraced_wall_s"] = _median(plain.walls)
    header["traced_wall_s"] = _median(traced.walls)
    header["setup_layers"] = setup_rows
    header["pass_layers"] = pass_rows
    tracer.dump(records / f"{workload.name}-seed{workload.seed}-spans.json", header)
    return {"header": header, "tally": tally, "metrics": metrics}


def report(args, result, records):
    """Readable summary lines, a run record, then the JSON result line."""
    header, tally = result["header"], result["tally"]
    for problem in tally.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    lines = [f"workload {header['workload']}  seed {header['seed']}  scale {header['scale']}  "
             f"passes {header['passes']} x {header['ops_per_pass']} ops  "
             f"attempted {tally.attempted}  failed {tally.failed}  "
             f"threads {header.get('threads')}"]
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "op_p50_s":
            note = f"  (median of {header['op_samples']} operations)"
        elif name == "wall_s":
            note = f"  (median of {header['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {header['setup_runs']} set-ups)"
        lines.append(f"  {name:<48} {value:>16.6g} {unit}{note}")
    if "traced_wall_s" in header:
        lines.append(f"  traced pass {header['traced_wall_s']:.4f} s against untraced "
                     f"{header['untraced_wall_s']:.4f} s")
    print("\n".join(lines))
    line = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    records.mkdir(parents=True, exist_ok=True)
    record = dict(line, header={k: v for k, v in header.items()
                                if k not in ("setup_layers", "pass_layers")})
    (records / f"{header['workload']}-seed{header['seed']}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line), flush=True)
