"""Call spans around the public functions of the demongain layer modules.

A `Tracer` replaces every public function of each layer module with a
wrapper that records one span per call: (name, start, end, parent span,
invocation id). Aliases that other modules imported by value, such as
`protocol.kron` or `noisefit.outcome_table_exact`, point at the same
wrapper, so a call is traced whichever name it goes through. `restore`
puts every original attribute back. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from functools import wraps
from types import ModuleType
from typing import Callable

# function name -> (count name, amount to add per call, from the return value)
Counter = tuple[str, Callable[[object], int]]


class Tracer:
    """Wraps layer functions in place; use as a context manager."""

    def __init__(
        self,
        layers: dict[str, ModuleType],
        also_patch: tuple[ModuleType, ...] = (),
        counters: dict[str, Counter] | None = None,
    ):
        self.layers = layers
        self.targets = (*layers.values(), *also_patch)
        self.counters = counters or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, invocation id)
        self.spans: list[tuple[int, float, float, int, int]] = []
        # invocation id -> counter name -> total
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrapped_names(self) -> list[str]:
        """`<layer>.<function>` for every public function the layers define."""
        return [
            f"{short}.{name}"
            for short, mod in self.layers.items()
            for name, _ in _public_functions(mod)
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, Callable]] = {}
        for short, mod in self.layers.items():
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in self.targets:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def restore(self) -> None:
        while self._saved:
            mod, name, obj = self._saved.pop()
            setattr(mod, name, obj)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = self.counters.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.invocation)
            if counter is not None:
                self.counts[self.invocation][counter[0]] += counter[1](result)
            return result

        return traced


def _public_functions(mod: ModuleType):
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        ):
            yield name, obj


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, cursor = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(tracer: Tracer, invocations) -> dict[str, dict[str, float]]:
    """Calls and self time per function over the given invocation ids."""
    wanted = set(invocations)
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[4] not in wanted:
            continue
        entry = out.setdefault(tracer.names[span[0]], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out
