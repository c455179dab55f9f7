"""In-memory span recording around the public entry points of divfree.

A traced pass installs wrappers on the functions listed in ``LAYERS``
wherever ``divfree``'s modules bind them (``from ... import`` copies a name
into several modules, so each binding is replaced), records one span per
outermost call (name, start, end, parent, operation) plus work counts, and
removes every wrapper again when the pass ends.  Untraced passes therefore
run the program exactly as shipped.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np


def _n_points(arr, trailing):
    """Number of points in a batch whose last ``trailing`` axes are one item."""
    shape = np.shape(getattr(arr, "coeffs", arr))
    return int(math.prod(shape[:len(shape) - trailing])) if len(shape) >= trailing else 1


def _tensor_bytes(args, kwargs):
    # nodes x (A: C, grad: C, L: 1, T: d*d) float64 words
    model, A = args[0], args[1]
    C = np.shape(A)[-1]
    return _n_points(A, 1) * (2 * C + 1 + model.d * model.d) * 8


def _grid_bytes(result):
    total = result.values.nbytes
    if result.entropy is not None:
        total += result.entropy.nbytes
    return total


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``targets`` are ``(module, attribute)`` pairs, where the attribute may be
    ``Class.method``.  ``points`` maps the call arguments to a work count;
    ``span=False`` only counts calls (for small, very frequent callees).
    """

    name: str
    targets: tuple
    points: object = None
    result_bytes: object = None
    arg_bytes: object = None
    span: bool = True


LAYERS = (
    Layer("fields.flow", (("divfree.fields", "_flow_with_jacobian"),),
          points=lambda a, k: _n_points(a[1], 1)),
    Layer("fields.flow.xi", (("divfree.fields", "VariationField.value_and_jacobian"),),
          points=lambda a, k: _n_points(a[1], 1)),
    Layer("fields.first_variation", (("divfree.fields", "first_variation"),)),
    Layer("exterior.pullback_matrix", (("divfree.exterior", "pullback_matrix"),),
          points=lambda a, k: _n_points(a[0], 2)),
    Layer("models.evaluate", (("divfree.models", "LagrangianModel.evaluate"),),
          points=lambda a, k: _n_points(a[1], 1)),
    Layer("models.gradient", (("divfree.models", "LagrangianModel.gradient"),),
          points=lambda a, k: _n_points(a[1], 1)),
    Layer("dualnum.ad_gradient", (("divfree.models", "_ad_gradient_core"),),
          points=lambda a, k: _n_points(a[2], 1)),
    Layer("tensors.general_tensor_array", (("divfree.tensors", "general_tensor_array"),),
          points=lambda a, k: _n_points(a[1], 1), arg_bytes=_tensor_bytes),
    Layer("tensors.block_assembly", (("divfree.tensors", "assemble_gas"),
                                     ("divfree.tensors", "assemble_relativistic"),
                                     ("divfree.tensors", "assemble_maxwell"))),
    Layer("fields.div_T_residual", (("divfree.fields", "div_T_residual"),)),
    Layer("fields.closedness_residual", (("divfree.fields", "closedness_residual"),)),
    Layer("fields.load_grid", (("divfree.fields", "load_grid"),),
          result_bytes=_grid_bytes),
    Layer("fields.grid_build", (("divfree.fields", "GridField.from_function"),)),
    Layer("fields.jump_search", (("divfree.fields", "lightlike_normal_search"),)),
    Layer("fields.jump_search.objective", (("divfree.fields", "_family_residual"),),
          span=False),
    Layer("invariance.check", (("divfree.invariance", "invariance_symmetry_check"),)),
    Layer("manufactured.variation_study", (("divfree.manufactured", "variation_study"),)),
    Layer("manufactured.case_refinement", (("divfree.manufactured", "case_refinement"),)),
    Layer("cli.main", (("divfree.cli", "main"),)),
    Layer("cli.dumps_report", (("divfree.cli", "dumps_report"),)),
)


class Tracer:
    """Spans and counts for one traced run.

    Spans are tuples ``(layer, start, end, parent, op)`` with ``parent`` the
    index of the enclosing span (-1 for none) and ``op`` the operation they
    serve; the operation itself is a span named ``op:<name>``.  A call made
    while a span of the same layer is open (recursion, as in
    ``dumps_report``) is folded into the outer span.
    """

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.points = {}
        self.bytes = {}
        self._stack = []
        self._open = {}
        self._op = -1
        self._restore = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def operation(self, name, fn):
        """Run ``fn`` as the root span of one operation."""
        self._op += 1
        self._begin("op:" + name)
        try:
            return fn()
        finally:
            self._end()

    def _count(self, name, key, amount):
        table = getattr(self, key)
        table[name] = table.get(name, 0) + amount

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer.name
            if tracer._open.get(name):
                return fn(*args, **kwargs)
            tracer._count(name, "calls", 1)
            if layer.points is not None:
                tracer._count(name, "points", layer.points(args, kwargs))
            if layer.arg_bytes is not None:
                tracer._count(name, "bytes", layer.arg_bytes(args, kwargs))
            if not layer.span:
                return fn(*args, **kwargs)
            tracer._open[name] = True
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end()
                tracer._open[name] = False
            if layer.result_bytes is not None:
                tracer._count(name, "bytes", layer.result_bytes(result))
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Replace every binding of every layer's functions in divfree;
        targets that no longer exist are listed in ``missing``."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "divfree" or key.startswith("divfree.")]
        missing = []
        for layer in LAYERS:
            for module_name, attr in layer.targets:
                home = sys.modules.get(module_name)
                if home is None:
                    missing.append(f"{module_name} (not imported)")
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(meth)
                    if raw is None:
                        missing.append(f"{module_name}.{attr}")
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        new = self._wrap(layer, raw)
                    setattr(cls, meth, new)
                    self._restore.append((cls, meth, raw))
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            self._restore.append((module, key, original))
        self.missing = missing

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per layer: calls, inclusive seconds, self seconds, points, bytes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                            "points": 0, "bytes": 0} for layer in LAYERS}
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            if name in out:
                out[name]["total_s"] += end - start
                out[name]["self_s"] += end - start - child[k]
        for name, row in out.items():
            row["calls"] = self.calls.get(name, 0)
            row["points"] = self.points.get(name, 0)
            row["bytes"] = self.bytes.get(name, 0)
        return out

    def dump(self, path, header):
        """Write the spans and the run's header as one JSON document."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        t0 = self.spans[0][1] if self.spans else 0.0
        doc["spans"] = [[n, round(s - t0, 9), round(e - t0, 9), p, o]
                        for n, s, e, p, o in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
