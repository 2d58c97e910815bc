"""The layer map and the span tracer of the benchmark.

A layer is one module of ``src/sublorentz``.  Its public functions are every
module-level function defined there whose name has no leading underscore,
plus the public methods, properties and arithmetic operators of the classes
defined there.  ``layer_table()`` lists them; run this file to print it.

``Tracer.install()`` replaces each of those functions by a span wrapper at
every binding site: the defining module or class, and every other
``sublorentz`` module that bound the same object with ``from .x import f``.
A span records its duration in CPU time, like the item latencies; it reads the
thread clock because, on Linux, reads of the process clock advance only once
per scheduler tick while the item's CPU-time limit (ITIMER_PROF) is armed.
The engine is single-threaded, so the two clocks agree.  A layer's self time
is the sum of its span durations minus the time covered by the spans they
called.  Named counters
(``COUNTERS``) are call counts of single functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import thread_time

PACKAGE = "sublorentz"

LAYERS = (
    "cli",
    "report",
    "parsing",
    "contact",
    "invariants",
    "symmetry",
    "lie_algebra",
    "ode_bridge",
    "calculus",
    "expr",
)

# Operators that do work on the engine's values; other dunders (construction,
# repr, immutability guards) are left alone.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__call__",
    "__eq__", "__hash__",
})

# Per-layer counters: metric name -> the functions whose calls it sums (per
# traced item for a name ending in _per_item).
COUNTERS = {
    "expr.zero_tests": ("expr.Expr.is_zero",),
    "expr.diffs": ("expr.Expr.diff",),
    "calculus.brackets": ("calculus.lie_bracket",),
    "calculus.solves": ("calculus.solve3", "calculus.invert3"),
    "contact.apparatus_builds": ("contact.build_apparatus",),
    "invariants.computes_per_item": ("invariants.compute_invariants",),
    "symmetry.poisson_brackets": ("symmetry.poisson_bracket",),
}

ZERO_TEST = "expr.Expr.is_zero"
RENDERERS = ("report.to_json", "report.to_text")


def _defined_here(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def public_functions(layer: str):
    """Yield (key, owner, attribute, function, is_property) for one layer."""
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and _defined_here(obj, module):
            yield f"{layer}.{name}", module, name, obj, False
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                key = f"{layer}.{name}.{attr}"
                if isinstance(member, property) and member.fget is not None:
                    yield key, obj, attr, member, True
                elif inspect.isfunction(member) and _defined_here(member, module):
                    yield key, obj, attr, member, False


def layer_table() -> dict[str, list[str]]:
    """Layer -> the keys of the public functions the tracer wraps."""
    return {layer: [key for key, *_ in public_functions(layer)] for layer in LAYERS}


class Tracer:
    """Span wrappers around every public function of every layer.

    Counts and times are aggregated in memory: calls per function, calls
    and self time per layer, zero-test verdicts and rendered report bytes.
    """

    def __init__(self):
        self.calls = Counter()
        self.layer_calls = Counter()
        self.layer_self_s = defaultdict(float)
        self.zero_verdicts = Counter()
        self.output_bytes = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, layer: str, key: str, fn):
        stack = self._stack
        calls = self.calls
        layer_calls = self.layer_calls
        layer_self_s = self.layer_self_s
        if key == ZERO_TEST:
            def observe(result):
                self.zero_verdicts[result.name] += 1
        elif key in RENDERERS:
            def observe(result):
                self.output_bytes += len(result.encode("utf-8"))
        else:
            observe = None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                stack.pop()
                layer_self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                layer_calls[layer] += 1
            if observe is not None:
                observe(result)
            return result

        return span

    def install(self):
        """Wrap every public function of every layer at every binding site."""
        replaced = {}
        for layer in LAYERS:
            for key, owner, attr, member, is_property in public_functions(layer):
                if is_property:
                    wrapped = property(self._span(layer, key, member.fget),
                                       member.fset, member.fdel, member.__doc__)
                else:
                    wrapped = self._span(layer, key, member)
                    replaced[id(member)] = (member, wrapped)
                self._set(owner, attr, wrapped)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "layer_calls": {layer: self.layer_calls[layer] for layer in LAYERS},
            "layer_self_s": {layer: self.layer_self_s[layer] for layer in LAYERS},
            "zero_verdicts": dict(self.zero_verdicts),
            "output_bytes": self.output_bytes,
        }


def merge(snapshots) -> dict:
    """Sum tracer snapshots (one per item)."""
    total = {"calls": Counter(), "layer_calls": Counter(),
             "layer_self_s": defaultdict(float), "zero_verdicts": Counter(),
             "output_bytes": 0}
    for snap in snapshots:
        total["calls"].update(snap["calls"])
        total["layer_calls"].update(snap["layer_calls"])
        for layer, seconds in snap["layer_self_s"].items():
            total["layer_self_s"][layer] += seconds
        total["zero_verdicts"].update(snap["zero_verdicts"])
        total["output_bytes"] += snap["output_bytes"]
    return total


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))
    for layer, keys in layer_table().items():
        print(f"{layer} ({len(keys)})")
        for key in keys:
            print(f"  {key}")
