"""Span tracing from outside the library.

``Tracer.install`` wraps the public functions of each layer module and puts
the wrapper on every binding of the original in the loaded ``semibiplane``
modules: the defining module, the package re-exports, and the names that
``verify``, ``cli``, ``splitting`` and the rest take with ``from ... import``.
The kernel implementation modules keep their own bindings, so calls made
inside a kernel (the unpruned search calling ``semiplanar_witness`` per leaf)
are not spans, and span counts agree between the compiled and pure backends.

Spans are aggregated in memory per function name: calls, total time and self
time (span time minus the time of spans nested in it).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

LAYERS = ("gf2", "functions", "kernels", "incidence", "splitting", "search", "verify", "cli")
_KERNEL_IMPLS = ("semibiplane._kernels_py", "semibiplane._speedups")


def _public_functions(module) -> dict[str, object]:
    # The kernels dispatcher re-binds the implementation's functions, so its
    # public callables count as its own.
    own = module.__name__.endswith(".kernels")
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and (own or getattr(obj, "__module__", None) == module.__name__)
    }


class Tracer:
    def __init__(self):
        #: span name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        #: kernels.search_tables leaves and found tables
        self.counters = {"kernels.search_tables.leaves": 0, "kernels.search_tables.found": 0}
        self._stack: list[int] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        counters = self.counters if name == "kernels.search_tables" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if counters is not None:
                counters["kernels.search_tables.leaves"] += result[0]
                counters["kernels.search_tables.found"] += result[1]
            return result

        return span

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if (name == "semibiplane" or name.startswith("semibiplane."))
            and name not in _KERNEL_IMPLS and m is not None
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"semibiplane.{layer}"]
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def take(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Snapshot of the aggregates since the last take, then reset them."""
        spans = {name: list(s) for name, s in self.spans.items()}
        counters = dict(self.counters)
        for s in self.spans.values():
            s[:] = [0, 0, 0]
        for name in self.counters:
            self.counters[name] = 0
        return spans, counters
