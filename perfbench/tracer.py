"""Runtime span tracer for the public functions of a package.

The tracer wraps every public module-level function of the package's modules
and patches the wrapper into every module namespace of the package that
bound the original name (``from .spinors import spin_lift`` binds it a
second time).  Nothing in the package changes on disk; ``uninstall``
restores the original bindings.

Each wrapped call appends one span ``(name, start_ns, end_ns, parent, op)``
to an in-memory list.  ``parent`` is the index of the enclosing span (or
-1) and ``op`` the operation id set by the caller, so self time (span minus
its direct children) and per-op rollups are computed after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import defaultdict


def _grid_points(shape):
    return int(math.prod(shape)) if shape else 0


def _size_of_call(sig, args, kwargs):
    """Grid points a grid-layer call works on, or None for pointwise calls."""
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    arguments = bound.arguments
    frames = arguments.get("frames")
    if frames is not None and hasattr(frames, "grid_shape"):
        return _grid_points(frames.grid_shape)
    for key in ("shape", "s_shape"):
        if key in sig.parameters:
            shape = arguments.get(key)
            if shape is None:
                chart = arguments.get("chart")
                shape = getattr(chart, "grid_shape", None)
            return _grid_points(shape)
    return None


class Tracer:
    """Spans of every public function of ``package`` while installed.

    result_hooks maps a span name (``module.function``) to a callable that
    turns the call's return value into a number kept with the span.
    """

    def __init__(self, package: str, result_hooks=None):
        self.names = []
        self.spans = []  # (name index, start ns, end ns, parent span, op id)
        self.sizes = {}  # span index -> grid points
        self.values = {}  # span index -> result_hooks value
        self.op = -1
        self._stack = []
        self._patches = []
        self._hooks = dict(result_hooks or {})
        self._collect(package)

    # -- patching --------------------------------------------------------

    def _collect(self, package):
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{info.name}")
                           for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                short = mod.__name__.rsplit(".", 1)[-1]
                wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, obj, wrapper))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, sizes, values = self.spans, self._stack, self.sizes, self.values
        clock = time.perf_counter_ns
        sig = inspect.signature(fn)
        sized = bool({"frames", "shape", "s_shape"} & set(sig.parameters))
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(i)
            if sized:
                size = _size_of_call(sig, args, kwargs)
                if size is not None:
                    sizes[i] = size
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, self.op)
            if hook is not None:
                values[i] = hook(out)
            return out

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def rollup(self):
        """name -> {calls, total_ns, self_ns} over all recorded spans."""
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for (idx, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out[self.names[idx]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += own
        return dict(out)

    def scaling(self, name):
        """log(t_fine / t_coarse) / log(points_fine / points_coarse) for one span name.

        Uses the mean inclusive time of the calls at the smallest and the
        largest grid size seen; 0.0 when the name never ran on two sizes.
        """
        by_size = defaultdict(list)
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            if self.names[idx] == name and i in self.sizes:
                by_size[self.sizes[i]].append(end - start)
        if len(by_size) < 2:
            return 0.0
        lo, hi = min(by_size), max(by_size)
        t_lo = sum(by_size[lo]) / len(by_size[lo])
        t_hi = sum(by_size[hi]) / len(by_size[hi])
        return math.log(t_hi / t_lo) / math.log(hi / lo)

    def hook_total(self, names):
        return sum(v for i, v in self.values.items() if self.names[self.spans[i][0]] in names)

    def dump(self, t_origin_ns):
        """Spans in a compact column form, times relative to t_origin_ns."""
        return {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "grid_points"],
            "spans": [[idx, start - t_origin_ns, end - t_origin_ns, parent, op,
                       self.sizes.get(i)]
                      for i, (idx, start, end, parent, op) in enumerate(self.spans)],
        }
