"""Layer tracer that lives entirely on the benchmark's side.

``Tracer.install`` wraps every public module-level function of the traced
``rdars`` modules and rebinds the wrapper wherever the original is bound:
in each ``rdars.*`` module namespace (``wmmse`` imports ``effective_matrix``
and ``sum_rate`` by name, ``harness`` imports ``wa_solve``) and in function
defaults (``sparsity_search`` takes ``inner_solver=ao_solve``). Matching is
by object identity, so an alias under another name is traced under the
defining module's name. Nothing under ``src/`` changes.

Spans (name, start, end, parent) are kept in memory and written once by
``write_spans``. Per-name totals (calls, wall, self time, failures) are
folded in as each span closes; self time is a span's duration minus the
part its direct children cover. A few wrapped functions also feed counters
read from their arguments or return values (see ``OBSERVERS``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("scenario", "arrays", "metrics", "wmmse", "closed_form",
                 "harness")

# Synthetic root span the benchmark opens around each op; trace.coverage is
# the share of its time that layer spans cover.
OP_SPAN = "bench.op"


def _power_iteration(tracer, signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    steps = len(result[1]) - 1
    tracer.counters["wmmse.power_iteration.steps"] += steps
    tracer.counters["wmmse.power_iteration.cap_hits"] += \
        steps >= bound.arguments["max_iters"]


def _ao_solve(tracer, signature, args, kwargs, result):
    tracer.counters["wmmse.outer_iters"] += result.report.iterations
    tracer.counters["wmmse.unconverged"] += not result.report.converged


def _run_trial(tracer, signature, args, kwargs, result):
    # run_trial turns exceptions into failed:<Error> rows instead of raising
    if result.status.startswith("failed"):
        tracer.failed["harness.run_trial"] += 1


# Counters derived from a wrapped call, keyed by the function they observe.
# A counter whose observer cannot read what it expects is reported absent.
OBSERVERS = {
    "wmmse.power_iteration": (_power_iteration,
                              ("wmmse.power_iteration.steps",
                               "wmmse.power_iteration.cap_hits")),
    "wmmse.ao_solve": (_ao_solve, ("wmmse.outer_iters", "wmmse.unconverged")),
    "harness.run_trial": (_run_trial, ()),
}


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child: list[float] = []
        self.calls = defaultdict(int)
        self.wall = defaultdict(float)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counters = defaultdict(int)
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(sid)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        return sid

    def end(self, sid: int, ok: bool = True) -> None:
        t = perf_counter()
        self.span_end[sid] = t
        self._open.pop()
        child = self._child.pop()
        dur = t - self.span_start[sid]
        if self._child:
            self._child[-1] += dur
        name = self.names[self.span_name[sid]]
        self.calls[name] += 1
        self.wall[name] += dur
        self.self_s[name] += dur - child
        if not ok:
            self.failed[name] += 1

    def coverage(self) -> float:
        """Share of op wall time spent inside layer spans."""
        total = self.wall[OP_SPAN]
        return (total - self.self_s[OP_SPAN]) / total if total > 0.0 else 0.0

    # -- patching ------------------------------------------------------

    def _wrap(self, qualname: str, func):
        observer, counters = OBSERVERS.get(qualname, (None, ()))
        signature = inspect.signature(func) if observer else None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer.begin(qualname)
            ok = False
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                tracer.end(sid, ok)
            if observer is not None and qualname not in tracer.broken:
                try:
                    observer(tracer, signature, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    tracer.broken.add(qualname)
                    tracer.broken.update(counters)
            return result

        return traced

    def install(self, package: types.ModuleType) -> None:
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        wrappers = {}          # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"{prefix}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    qualname = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
                    self.wrapped.add(qualname)

        def swap(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, new)
                if isinstance(obj, types.FunctionType):
                    self._patch_defaults(obj, swap)

    def _patch_defaults(self, func, swap) -> None:
        if func.__defaults__:
            new = tuple(swap(v) for v in func.__defaults__)
            if any(a is not b for a, b in zip(new, func.__defaults__)):
                self._patches.append((func, "__defaults__", func.__defaults__))
                func.__defaults__ = new
        if func.__kwdefaults__:
            new = {k: swap(v) for k, v in func.__kwdefaults__.items()}
            if any(new[k] is not v for k, v in func.__kwdefaults__.items()):
                self._patches.append((func, "__kwdefaults__",
                                      func.__kwdefaults__))
                func.__kwdefaults__ = new

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line: id, parent id, name,
        start and end in seconds from the first span. Returns the count."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - origin:.9f}\t"
                         f"{self.span_end[sid] - origin:.9f}\n")
        return len(self.span_start)
