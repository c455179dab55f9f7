"""Command line front end.

Subcommands wrap library calls one-to-one and print a single report, which
names its subcommand under "command".
Reports are JSON by default with sorted keys and floats rendered through
%.17g, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a requested
verification fails its expectation.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .conventions import euclidean_metric, minkowski_metric
from .exterior import PFormValue
from .fields import (
    closedness_residual,
    div_T_residual,
    lightlike_normal_search,
    load_grid,
    load_grid_csv,
    rankine_hugoniot,
)
from .invariance import invariance_symmetry_check
from .manufactured import case_refinement, list_cases, run_case, variation_study
from .models import RelativisticModel, build_model, list_models
from .tensors import assemble, symmetry_defect


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; keep 2 reserved for failed verification
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _format_float(x):
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return "%.17g" % x


def dumps_report(obj):
    """Deterministic JSON: sorted keys, compact separators, %.17g floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + dumps_report(v)
                              for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_report(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_report(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _pretty(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if isinstance(v, (dict, list, tuple)) and not _is_flat(v):
                lines.append(f"{pad}[{i}]")
                lines.extend(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(pad + _scalar_text(obj))
    return lines


def _is_flat(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    return (isinstance(v, (list, tuple))
            and all(isinstance(x, (int, float, np.integer, np.floating)) for x in v))


def _scalar_text(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_scalar_text(x) for x in v) + "]"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.10g" % float(v)
    return str(v)


def parse_params(text):
    """Comma separated key=value pairs; values parse as JSON when possible."""
    if not text:
        return {}
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(f"bad parameter {chunk!r}, expected key=value")
        key, raw = chunk.split("=", 1)
        try:
            out[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            out[key.strip()] = raw.strip()
    return out


def _metric_for(args, model):
    """The --metric matrix; minkowski takes the model's light speed, 1 for a
    model without one."""
    if args.metric is None:
        return None
    if args.metric == "euclidean":
        return euclidean_metric(model.d)
    if model.d != 4:
        raise ValueError("the minkowski metric applies to dimension 4")
    return minkowski_metric(c=model.c if isinstance(model, RelativisticModel) else 1.0)


def _is_numeric(value):
    if isinstance(value, list):
        return all(_is_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_numbers(flag, text):
    """The JSON of a vector flag, which must hold numbers, as a state does."""
    value = json.loads(text)
    if not _is_numeric(value):
        raise ValueError(f"{flag} must hold numbers, not {json.dumps(value)}")
    return value


def _parse_state(model, text):
    """A state from JSON: {"coeffs": [..]} for any model, or the fields of
    the model's own state class (rho/q, m or E/B); "s" is optional.  Every
    field holds a number or an array of numbers, and s and the fields the
    state class declares float hold a number."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("state must be a JSON object")
    kind = model.state_type
    hints = {} if kind is None else typing.get_type_hints(kind)
    for key, value in data.items():
        if not _is_numeric(value):
            raise ValueError(f"state field {key!r} must be a number or an "
                             f"array of numbers, not {json.dumps(value)}")
        if isinstance(value, list) and (key == "s" or hints.get(key) is float):
            raise ValueError(f"state field {key!r} must be a number, "
                             f"not {json.dumps(value)}")
    s = float(data.pop("s", 0.0))
    if "coeffs" in data:
        return PFormValue(model.d, model.p, data["coeffs"], s)
    keys = [] if kind is None else [f.name for f in dataclasses.fields(kind)
                                    if f.name != "s"]
    if not keys or set(data) != set(keys):
        options = ["/".join(keys), "coeffs"] if keys else ["coeffs"]
        raise ValueError(f"{model.name} takes a state with the keys "
                         f"{' or '.join(options)} (and optionally s)")
    return kind(**data, s=s)


def _emit(args, report):
    if args.output == "json":
        text = dumps_report(report) + "\n"
    else:
        text = "\n".join(_pretty(report)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_tensor(args):
    model = build_model(args.model, parse_params(args.params))
    state = _parse_state(model, args.state)
    report = {
        "model": model.name,
        "d": model.d,
        "p": model.p,
        **assemble(model, state),
        "coeffs": state.coeffs,
        "density": float(model.evaluate(state.coeffs, state.s)),
    }
    S = _metric_for(args, model)
    if S is not None:
        report["metric"] = S
        report["symmetry_defect"] = symmetry_defect(report["tensor"], S)
    return report, False


def cmd_invariance(args):
    model = build_model(args.model, parse_params(args.params))
    S = _metric_for(args, model)
    if S is None:
        S = euclidean_metric(model.d)
    report = invariance_symmetry_check(model, S, n_states=args.n_states, seed=args.seed,
                            tol_invariant=args.tol_invariant,
                            tol_broken=args.tol_broken)
    return report, not report["agreement"]


def _fails(values, low=-np.inf, high=np.inf):
    """The pass rule of every verdict but invariance's agreement: a check
    fails unless it has at least one value and every value is finite and
    inside [low, high].  A NaN bound holds no value."""
    values = np.asarray(values, dtype=float)
    return not (values.size and np.isfinite(values).all()
                and ((low <= values) & (values <= high)).all())


def cmd_verify(args):
    if args.manufactured:
        if args.manufactured == "list":
            return {"cases": list_cases()}, False
        if args.refine:
            if args.levels < 2:
                raise ValueError(f"--levels must be at least 2, not {args.levels}")
            ns = [args.n * (1 << k) for k in range(args.levels)]
            report = case_refinement(args.manufactured, ns)
            case, residuals = report["reports"][0], report["residuals"]
        else:
            report = run_case(args.manufactured, args.n)
            case, residuals = report, [report["residual"]]
        # run_case reports a floor only for a floor case, a tol only for a zero case
        failed = _fails(residuals, case.get("floor", -np.inf), case.get("tol", np.inf))
        if args.refine and case["expected"] == "order2":
            failed = failed or _fails(report["orders"], args.min_order)
        return report, failed
    if args.field:
        path = Path(args.field)
        if path.suffix == ".csv":
            if args.d is None or args.p is None or args.spacing is None:
                raise ValueError("CSV fields need --d, --p and --spacing")
            grid = load_grid_csv(path, args.d, args.p,
                                 (args.spacing,) * args.d)
        else:
            grid = load_grid(path)
        report = {"field": str(path),
                  "d": grid.d, "p": grid.p, "dims": list(grid.dims),
                  "nonfinite_cells": grid.nonfinite_cells(),
                  "closedness_residual": closedness_residual(grid)}
        residuals = [report["closedness_residual"]]
        if args.model:
            model = build_model(args.model, parse_params(args.params))
            rows = div_T_residual(model, grid)
            report["model"] = model.name
            report["div_rows"] = rows
            report["div_residual"] = float(rows.max())
            residuals.append(report["div_residual"])
        # a non-finite cell fails even where no residual reads it
        failed = (_fails([report["nonfinite_cells"]], 0, 0)
                  or _fails(residuals, high=np.inf if args.tol is None else args.tol))
        if args.tol is not None:
            report["tol"] = args.tol
        return report, failed
    raise ValueError("verify needs --manufactured or --field")


def cmd_variation(args):
    if args.levels < 2:
        raise ValueError(f"--levels must be at least 2, not {args.levels}")
    report = variation_study(args.d, args.p, seed=args.seed, levels=args.levels,
                             n0=args.n, eps0=args.eps)
    report["min_order"] = args.min_order
    # the orders skip a level whose error is not positive, so a NaN error
    # fails on its own
    failed = (_fails([level["error"] for level in report["levels"]])
              or _fails(report["orders"], args.min_order))
    return report, failed


def cmd_jump(args):
    model = build_model(args.model, parse_params(args.params))
    if args.m_left:
        m_left = _parse_numbers("--m-left", args.m_left)
        report = lightlike_normal_search(model, m_left,
                                         rho_jump_min=args.rho_jump_min,
                                         coarse=args.coarse)
        report["model"] = model.name
        report["m_left"] = np.asarray(m_left, dtype=float)
        return report, _fails([report["residual"]], high=args.tol)
    if not (args.left and args.right and args.normal):
        raise ValueError("jump needs --m-left (search) or --left/--right/--normal")
    left = _parse_state(model, args.left)
    right = _parse_state(model, args.right)
    nu = _parse_numbers("--normal", args.normal)
    report = rankine_hugoniot(model, left, right, nu)
    report["model"] = model.name
    return report, _fails(report["row_residuals"], high=args.tol)


def cmd_models(args):
    return {"models": list_models(),
            "cases": list_cases()}, False


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = _Parser(prog="divfree",
                     description="divergence-free tensors from closed-form "
                                 "variational densities: assembly, symmetry "
                                 "tests and sampled-field verification")
    sub = parser.add_subparsers(dest="command", required=True)
    out_parent = _Parser(add_help=False)
    out_parent.add_argument("--output", choices=("json", "pretty"), default="json")
    out_parent.add_argument("--out", help="write the report to this path")

    def add(name, **kw):
        return sub.add_parser(name, parents=[out_parent], **kw)

    def common(p, metric=False):
        p.add_argument("--model", default=None)
        p.add_argument("--params", default="",
                       help="comma separated key=value model parameters")
        if metric:
            p.add_argument("--metric", choices=("euclidean", "minkowski"),
                           default=None,
                           help="minkowski takes the model's light speed c")

    p = add("tensor", help="assemble the tensor at one state")
    common(p, metric=True)
    p.add_argument("--state", required=True,
                   help='JSON state: {"rho":..,"q":[..]}, {"m":[..]}, '
                        '{"E":[..],"B":[..]} or {"coeffs":[..]}')
    p.set_defaults(handler=cmd_tensor, need_model=True)

    p = add("invariance",
                       help="two-sided symmetry / invariance test")
    common(p, metric=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-states", type=int, default=128)
    p.add_argument("--tol-invariant", type=float, default=1e-10)
    p.add_argument("--tol-broken", type=float, default=1e-2)
    p.set_defaults(handler=cmd_invariance, need_model=True)

    p = add("verify", help="residuals of sampled fields")
    common(p)
    p.add_argument("--manufactured",
                   help="catalog case name, or 'list' to enumerate")
    p.add_argument("--field", help="grid manifest (.json) or table (.csv)")
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--spacing", type=float)
    p.add_argument("-n", "--n", type=int, default=8,
                   help="nodes per axis (spacing 1/n)")
    p.add_argument("--refine", action="store_true",
                   help="run a refinement ladder and report orders")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--min-order", type=float, default=1.9)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=cmd_verify, need_model=False)

    p = add("variation",
                       help="flow derivative against the tensor pairing")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("-n", "--n", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--min-order", type=float, default=1.9)
    p.set_defaults(handler=cmd_variation, need_model=False)

    p = add("jump", help="interface jump checks and the "
                                    "light-like normal search")
    common(p)
    p.add_argument("--m-left", help="JSON 4-vector for the search mode")
    p.add_argument("--left", help="JSON state left of the interface")
    p.add_argument("--right", help="JSON state right of the interface")
    p.add_argument("--normal", help="JSON interface normal")
    p.add_argument("--rho-jump-min", type=float, default=0.05)
    p.add_argument("--coarse", type=int, default=121)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=cmd_jump, need_model=True, model="relativistic-limit")

    p = add("models", help="list models and manufactured cases")
    p.set_defaults(handler=cmd_models, need_model=False)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.need_model and not args.model:
        sys.stderr.write("error: this command needs --model\n")
        return 1
    try:
        # NaN and inf reach the report and fail its checks, so numpy's
        # warnings about them would only be noise on stderr
        with np.errstate(all="ignore"):
            report, failed = args.handler(args)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report["command"] = args.command
    _emit(args, report)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
