"""Per-layer spans and counters, installed from outside the program.

``install`` wraps the public functions and methods of every cartier_lab
module (plus the operator methods of its value types and a few private
hot spots named below) and replaces each original function object in
every cartier_lab namespace that holds it.  Each module is one layer.

A wrapped call is a span.  A layer's self time is the sum over its spans
of the span's duration minus the time covered by its child spans, so
time spent in ``fields`` arithmetic called from ``cartier`` counts for
``fields``.  Spans and counts are kept in memory and summarised by
``metrics`` when the run ends.  The timed (untraced) runs never import
this module.  A function reachable only through a container, such as the
operation functions in ``cli.OPERATIONS``, stays unwrapped; its time
counts for the layer that calls it, which for those is ``cli`` anyway.
"""

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("fields", "poly", "submodules", "kernels", "cartier", "gamma",
          "functors", "ie", "serialize", "cli")

# Constructors (CartierModule validation, the FrobeniusContext modulus
# search) and the operator methods of the value types (the calls a faster
# F_q or polynomial representation would change) are spans too.
SPECIAL_METHODS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__",
                   "__truediv__", "__pow__", "__eq__")
# Constructors of the two element types run for every arithmetic result;
# their cost stays with the operator that called them.
SKIP = {"fields.FieldElement.__init__", "poly.Polynomial.__init__"}
# Private methods that carry a named counter.
PRIVATE = {"cartier.CartierModule._apply_raw"}


class Tracer:
    def __init__(self):
        self.stack = []  # one [name, child seconds] frame per open span
        self.self_s = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.calls = defaultdict(int)  # by qualified name
        self.total_s = defaultdict(float)  # by qualified name
        self.counts = defaultdict(int)  # counters set by hooks
        self.hooks = {
            "submodules.hnf_rows": self._hnf_rows,
            "cartier.image_chain": self._image_chain,
            "gamma.unit_root_stabilize": self._unit_root,
            "ie.intermediate_extension": self._ie,
            "serialize.load_document": self._load_document,
            "serialize.canonical_json": self._canonical_json,
        }

    def wrap(self, fn, layer, name):
        stack = self.stack
        self_s, layer_calls = self.self_s, self.layer_calls
        calls, total_s = self.calls, self.total_s
        hook = self.hooks.get(name)
        if layer == "kernels":
            hook = self._kernel_cells
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                layer_calls[layer] += 1
                calls[name] += 1
                total_s[name] += dt
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters computed from arguments and results --------------------

    def _hnf_rows(self, args, result):
        self.counts["submodules.hnf_rows_in"] += len(args[0])

    def _image_chain(self, args, result):
        self.counts["cartier.chain_steps"] += len(result)

    def _unit_root(self, args, result):
        self.counts["gamma.e_star_sum"] += result.e_star

    def _ie(self, args, result):
        self.counts["ie.k_star_sum"] += result.indices["k_star"]
        self.counts["ie.e_star_sum"] += result.indices["e_star"]

    def _load_document(self, args, result):
        self.counts["serialize.bytes_in"] += os.path.getsize(args[0])

    def _canonical_json(self, args, result):
        self.counts["serialize.bytes_out"] += len(result.encode())

    def _kernel_cells(self, args, result):
        cells = sum(a.size for a in args if hasattr(a, "shape"))
        self.counts["kernels.cells"] += cells
        if self.stack and self.stack[-1][0] == "cartier.hom_cartier":
            self.counts["cartier.hom_system_cells"] += cells

    # -- summary -----------------------------------------------------------

    def metrics(self):
        c, t = self.calls, self.total_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.layer_calls[layer]
        out.update({
            "fields.mul_calls": c["fields.FieldElement.__mul__"],
            "fields.inv_calls": c["fields.FieldElement.inv"],
            "fields.frob_calls": c["fields.FrobeniusContext.frobenius"]
            + c["fields.FrobeniusContext.frobenius_inv"],
            "poly.mul_calls": c["poly.Polynomial.__mul__"],
            "poly.ring_eq_calls": c["poly.PolyRing.__eq__"],
            "poly.decompose_calls": c["poly.frobenius_decompose"],
            "poly.spoly_calls": c["poly.s_polynomial"],
            "poly.buchberger_s": t["poly.buchberger"],
            "submodules.hnf_calls": c["submodules.hnf_rows"],
            "cartier.kappa_applications": c["cartier.CartierModule._apply_raw"],
            "cli.parser_build_s": t["cli.build_parser"],
        })
        for name in ("submodules.hnf_rows_in", "kernels.cells",
                     "cartier.chain_steps", "cartier.hom_system_cells",
                     "gamma.e_star_sum", "ie.k_star_sum", "ie.e_star_sum",
                     "serialize.bytes_in", "serialize.bytes_out"):
            out[name] = self.counts[name]
        return out


def _wanted(qualname, attr):
    if qualname in SKIP:
        return False
    return (not attr.startswith("_") or attr in SPECIAL_METHODS
            or qualname in PRIVATE)


def install(tracer):
    """Wrap every layer of cartier_lab; returns the number of wrappers."""
    package = importlib.import_module("cartier_lab")
    modules = {
        layer: importlib.import_module(f"cartier_lab.{layer}")
        for layer in LAYERS
    }
    replaced = {}  # id(original function) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                replaced[id(obj)] = tracer.wrap(obj, layer, f"{layer}.{name}")
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    namespaces = [package, importlib.import_module("cartier_lab.errors")]
    namespaces += modules.values()
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(ns, name, wrapper)
    return len(replaced)


def _wrap_class(tracer, layer, cls):
    for attr, val in list(vars(cls).items()):
        qualname = f"{layer}.{cls.__name__}.{attr}"
        if not _wanted(qualname, attr):
            continue
        if isinstance(val, (staticmethod, classmethod)):
            kind = type(val)
            setattr(cls, attr, kind(tracer.wrap(val.__func__, layer, qualname)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(val, layer, qualname))
