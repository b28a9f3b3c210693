"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each library layer from the outside:
it rebinds every ``cartierlab`` module attribute (and class attribute) that
holds a wrapped function, and puts the originals back on ``uninstall``.  No
library file changes.

Each call opens a span; a span's self time is its duration minus the time
its child spans cover.  Spans are aggregated in memory per (function,
parent function), since one oracle-grid surface makes about 300k wrapped
calls.  Time spent in unwrapped code is charged to the nearest wrapped
caller.
"""

import functools
import sys
import time

# (layer, module, attribute, metric name); "Class.method" wraps a method.
WRAPPED = (
    ("fppoly", "fppoly", "Poly.__mul__", "mul"),
    ("fppoly", "fppoly", "pe_decompose", "pe_decompose"),
    ("fppoly", "fppoly", "cartier_trace", "cartier_trace"),
    ("groebner", "groebner", "buchberger", "buchberger"),
    ("groebner", "groebner", "normal_form", "normal_form"),
    ("groebner", "groebner", "interreduce", "interreduce"),
    ("groebner", "groebner", "syzygies", "syzygies"),
    ("idealkit", "idealkit", "Ideal.groebner", "groebner"),
    ("idealkit", "idealkit", "frobenius_root_of_power",
     "frobenius_root_of_power"),
    ("idealkit", "idealkit", "minimal_primes", "minimal_primes"),
    ("fpmod", "fpmod", "Submodule.contains_sub", "contains_sub"),
    ("fpmod", "fpmod", "Submodule.__eq__", "eq"),
    ("fpmod", "fpmod", "Submodule.intersect", "intersect"),
    ("fpmod", "fpmod", "torsion", "torsion"),
    ("cartiercore", "cartiercore", "validate_structure", "validate_structure"),
    ("cartiercore", "cartiercore", "graded_sum", "graded_sum"),
    ("cartiercore", "cartiercore", "graded_piece_gens", "graded_piece_gens"),
    ("cartiercore", "cartiercore", "underline", "underline"),
    ("cartiercore", "cartiercore", "ass_cartier", "ass_cartier"),
    ("testmod", "testmod", "tau", "tau"),
    ("testmod", "testmod", "tau_prime", "tau_prime"),
    ("testmod", "testmod", "is_f_regular", "is_f_regular"),
    ("testmod", "testmod", "find_test_elements", "find_test_elements"),
    ("testmod", "testmod", "tau_bms", "tau_bms"),
    ("filtration", "filtration", "jumping_numbers", "jumping_numbers"),
    ("functorops", "functorops", "shriek_finite", "shriek_finite"),
    ("functorops", "functorops", "pushforward_finite", "pushforward_finite"),
    ("functorops", "functorops", "commutation_suite", "commutation_suite"),
    ("functorops", "functorops", "coherent_model", "coherent_model"),
    ("scene", "scene", "parse_scene", "parse_scene"),
    ("scene", "scene", "run_task", "run_task"),
    ("cache", "cache", "ResultCache.lookup", "lookup"),
    ("cache", "cache", "ResultCache.store", "store"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in WRAPPED))
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, _m, _a, name in WRAPPED)

BUCHBERGER = "groebner.buchberger"
IDEAL_GROEBNER = "idealkit.groebner"

# every module whose namespace may bind a wrapped name
MODULES = ("cache", "cartiercore", "cli", "errors", "filtration", "fpmod",
           "fppoly", "functorops", "groebner", "idealkit", "scene",
           "testmod")


def import_library():
    """Import every library module, so that all bindings exist to patch."""
    import importlib

    importlib.import_module("cartierlab")
    for name in MODULES:
        importlib.import_module(f"cartierlab.{name}")


def _namespaces():
    """Module and class namespaces of the library, as (owner, dict) pairs."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "cartierlab" and not name.startswith("cartierlab."):
            continue
        out[id(mod)] = (mod, vars(mod))
        for value in list(vars(mod).values()):
            if (isinstance(value, type)
                    and value.__module__.startswith("cartierlab")):
                out[id(value)] = (value, value.__dict__)
    return list(out.values())


def bindings():
    """Snapshot of every library binding: {(owner, attribute): id(value)}."""
    return {(id(owner), attr): id(value)
            for owner, ns in _namespaces() for attr, value in ns.items()}


def _input_key(gens):
    """Hash of a Groebner input as a set of vectors (order and repeats
    ignored)."""
    vecs = frozenset(frozenset(g.terms.items()) for g in gens
                     if not g.is_zero())
    first = next((g for g in gens if not g.is_zero()), None)
    shape = (first.ring.p, first.ring.nvars, first.rank) if first else None
    return hash((shape, vecs))


class Tracer:
    def __init__(self):
        # (span, parent span or None) -> [calls, self seconds, errors]
        self.stats = {}
        self.stack = []
        self.patched = []
        self.buchberger_inputs = set()
        self.buchberger_repeats = 0
        self.buchberger_modules = 0
        self.groebner_hits = 0

    def install(self):
        import_library()
        originals = {}
        for layer, module, attr, name in WRAPPED:
            owner = sys.modules[f"cartierlab.{module}"]
            for part in attr.split("."):
                owner = vars(owner)[part]
            originals[id(owner)] = (owner, f"{layer}.{name}")
        for owner, ns in _namespaces():
            for attr, value in list(ns.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, self._wrap(hit[1], value))
                    self.patched.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)
        self.patched = []

    def _note_buchberger(self, gens):
        gens = list(gens)
        key = _input_key(gens)
        if key in self.buchberger_inputs:
            self.buchberger_repeats += 1
        else:
            self.buchberger_inputs.add(key)
        if any(g.rank > 1 for g in gens):
            self.buchberger_modules += 1

    def _wrap(self, name, fn):
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        watched = name == BUCHBERGER

        def traced(*args, **kwargs):
            if watched:
                self._note_buchberger(args[0])
            parent = stack[-1] if stack else None
            # [span name, time covered by children, saw a buchberger child]
            frame = [name, 0.0, False]
            stack.append(frame)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                duration = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += duration - frame[1]
                rec[2] += failed
                if parent is not None:
                    parent[1] += duration
                    if name == BUCHBERGER:
                        parent[2] = True
                if name == IDEAL_GROEBNER and not frame[2]:
                    self.groebner_hits += 1

        return functools.update_wrapper(traced, fn)

    def snapshot(self):
        return {"spans": [[name, parent, *rec]
                          for (name, parent), rec in sorted(
                              self.stats.items(),
                              key=lambda kv: (kv[0][0], kv[0][1] or ""))],
                "buchberger_repeats": self.buchberger_repeats,
                "buchberger_modules": self.buchberger_modules,
                "groebner_hits": self.groebner_hits}
