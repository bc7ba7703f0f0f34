"""Span tracer installed from outside the program.

Every public function (a module-level function whose name has no leading
underscore) defined in one of the traced modules is replaced, in every
traced module namespace that binds it, by a wrapper that records a span:
the function's qualified name, its parent span and its start and end.
Calls made through a module attribute (``io.write_json``) or through a
name imported into another module (``harness.solve``) both pass through
the wrapper, because both look the name up at call time.

Private helpers (leading underscore), lambdas, methods and classes are not
wrapped, so their time counts as self time of the public function that
called them.  A name that a later version of the program removes or renames
is simply not found: its metrics are reported as absent and the run goes on.

The wrappers bind to function names only, never to signatures: they pass
``*args, **kwargs`` through untouched.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from time import perf_counter

import numpy as np

PACKAGE = "metricert"
TRACED_MODULES = ("core", "solver", "cover", "bounds", "harness", "io", "cli")


# counters read from return values: (module, function) -> (metric, reader)
RETURN_COUNTERS = {
    ("core", "build_pairs"): ("core.pairs", lambda r: len(getattr(r, "pairs", r))),
    ("core", "build_triplets"): ("core.triplets", lambda r: len(getattr(r, "triplets", r))),
    ("cover", "greedy_cover"): ("cover.centres", len),
    ("cover", "build_partition"): ("cover.K", lambda r: r.K),
    ("harness", "gen_synthetic"): ("harness.gen_synthetic.points", len),
}
# counters where the largest single value of a pass is reported
MAX_COUNTERS = {"cover.centres", "cover.K"}


class Tracer:
    """Installs span-recording wrappers; uninstall() restores the originals."""

    def __init__(self):
        self.modules = {}
        self.originals = []     # (module, name, original function)
        self.found = set()      # "module.function" names that were wrapped
        self.spans = []         # [qualname, parent index, start, end]
        self.counts = {}
        self.max_matrix_bytes = 0
        self.io_bytes_read = 0
        self.io_bytes_written = 0
        self._stack = []
        self._pending_writes = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        namespaces = [pkg]
        for short in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:  # a module a later version dropped: its metrics are absent
                continue
            self.modules[short] = mod
            namespaces.append(mod)
        wrappers = {}
        for short, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(short, name, obj))
                    self.found.add(f"{short}.{name}")
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self.originals.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)][1])
        io_mod = self.modules.get("io")
        if io_mod is not None:
            self.originals.append((io_mod, "open", vars(io_mod).get("open")))
            io_mod.open = self._counting_open

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self.originals):
            if obj is None:
                delattr(ns, name)
            else:
                setattr(ns, name, obj)
        self.originals.clear()

    # -- recording ------------------------------------------------------------

    def _wrap(self, module: str, name: str, fn):
        qualname = f"{module}.{name}"
        spans, stack = self.spans, self._stack
        counter = RETURN_COUNTERS.get((module, name))
        is_core = module == "core"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                metric, reader = counter
                try:
                    self._count(metric, int(reader(ret)))
                except (AttributeError, TypeError, ValueError):
                    pass  # a return value of another shape is not counted
            if is_core and isinstance(ret, np.ndarray):
                self.max_matrix_bytes = max(self.max_matrix_bytes, ret.nbytes)
            if not stack and self._pending_writes:
                self._settle_writes()  # files are closed once the top-level call returns
            return ret

        return wrapper

    def _count(self, metric: str, value: int) -> None:
        if metric in MAX_COUNTERS:
            self.counts[metric] = max(self.counts.get(metric, 0), value)
        else:
            self.counts[metric] = self.counts.get(metric, 0) + value

    def _counting_open(self, file, mode="r", *args, **kwargs):
        if any(ch in mode for ch in "wax+"):
            self._pending_writes.append(file)
        else:
            self.io_bytes_read += os.path.getsize(file)
        return open(file, mode, *args, **kwargs)

    def _settle_writes(self) -> None:
        for path in self._pending_writes:
            if os.path.exists(path):
                self.io_bytes_written += os.path.getsize(path)
        self._pending_writes.clear()

    def reset(self) -> None:
        """Drop recorded spans and counters (start of a traced pass)."""
        self.spans.clear()
        self._stack.clear()
        self.counts = {}
        self.max_matrix_bytes = 0
        self.io_bytes_read = 0
        self.io_bytes_written = 0
        self._pending_writes.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per function and per module, call counts, top-level time."""
        self._settle_writes()
        child_time = [0.0] * len(self.spans)
        for qualname, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        fn_self, fn_calls, mod_self = {}, {}, {}
        top_level = 0.0
        for idx, (qualname, parent, start, end) in enumerate(self.spans):
            own = (end - start) - child_time[idx]
            fn_self[qualname] = fn_self.get(qualname, 0.0) + own
            fn_calls[qualname] = fn_calls.get(qualname, 0) + 1
            module = qualname.split(".", 1)[0]
            mod_self[module] = mod_self.get(module, 0.0) + own
            if parent < 0:
                top_level += end - start
        return {
            "fn_self": fn_self,
            "fn_calls": fn_calls,
            "mod_self": mod_self,
            "top_level_s": top_level,
            "counts": dict(self.counts),
            "core.max_matrix_bytes": self.max_matrix_bytes,
            "io.bytes_read": self.io_bytes_read,
            "io.bytes_written": self.io_bytes_written,
        }
