"""In-process tracing of the fmlat layers, from outside the package.

An `Installation` wraps every public function of each layer module, and the
public methods and constructors of its public classes, and rebinds each
wrapper wherever fmlat holds the original (modules copy names with
`from . import`). `uninstall` puts the originals back, so untraced calls
pay nothing.

Spans are aggregated as they close: a span's self time is its duration less
the durations of the spans opened directly inside it. Nothing else about a
span is kept, so the memory cost does not grow with the number of calls.
"""

from __future__ import annotations

import importlib
import inspect
import re
import time
from collections import defaultdict
from enum import Enum

LAYERS = ("cli", "verify", "operators", "product", "chow", "linalg",
          "bridgeland", "sd")
# Called once per matrix entry: counted, but too small for a span.
COUNT_ONLY = {"linalg.q"}
# Public operators of the value classes, besides their constructors.
_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
            "__matmul__")
# Work counted from a span's result, at the same boundary.
RESULT_COUNTS = {"verify.run_verify": ("verify.cases", lambda r: len(r.cases)),
                 "sd.search_phi": ("sd.hits", len)}
# Span names the layer metrics use for two Mat methods.
ALIASES = {"linalg.Mat.__mul__": "linalg.mat_mul",
           "linalg.Mat.inverse": "linalg.inverse"}


class Tracer:
    """Aggregates nested spans into calls, total time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # [name, start, time in children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self.stack:
            self.stack[-1][2] += duration


def _span(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _counted_span(tracer: Tracer, name: str, fn):
    counter, measure = RESULT_COUNTS[name]

    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.counts[counter] += measure(result)
        return result
    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _targets(package: str):
    """(holder, attribute, span name) for everything to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isclass(obj):
                if issubclass(obj, (Enum, BaseException)):
                    continue
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            attr == "__init__" or attr in _DUNDERS
                            or not attr.startswith("_")):
                        span = f"{layer}.{name}" if attr == "__init__" \
                            else f"{layer}.{name}.{attr}"
                        yield obj, attr, ALIASES.get(span, span)
            elif callable(obj):
                yield module, name, f"{layer}.{name}"


class Installation:
    """Wrappers around every layer's public callables, feeding `tracer`."""

    def __init__(self, tracer: Tracer, package: str = "fmlat"):
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []
        modules = [importlib.import_module(name) for name in
                   (package, *(f"{package}.{n}" for n in LAYERS))]
        for holder, attr, span in list(_targets(package)):
            original = holder.__dict__[attr]
            if span in COUNT_ONLY:
                wrapped = _counter(tracer, span, original)
            elif span in RESULT_COUNTS:
                wrapped = _counted_span(tracer, span, original)
            else:
                wrapped = _span(tracer, span, original)
            if inspect.isclass(holder):
                self._set(holder, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, holder, attr: str, value) -> None:
        self.restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self.restore):
            setattr(holder, attr, value)
        self.restore.clear()


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S.*)$")


def parse_importtime(stderr: str, package: str = "fmlat") -> dict[str, int]:
    """Self time in microseconds of each package module, from the output of
    `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            module = m.group(2).strip()
            if module == package or module.startswith(package + "."):
                out[module] = int(m.group(1))
    return out
