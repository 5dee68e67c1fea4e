"""Spans around the gsqg package's public functions, installed from outside.

The package binds its functions with ``from .x import name``, so a caller
such as ``pair.solve_multiplier`` holds its own reference; patching only the
defining module would miss it.  ``Tracer.install`` therefore rebinds every
public function in *every* ``gsqg.*`` namespace that binds it (one wrapper
per function), plus chosen methods at class level.  Wrapping names instead
of call sites keeps the trace valid when aliases are deleted.

Spans are held in memory as tuples and summarized at the end of a run.
"""

import inspect
import os
from contextlib import contextmanager
from time import perf_counter


def _write_field_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


# Work counts read from a traced call's arguments and result.
COUNTERS = {
    "limiting.solve_limiting": lambda args, kwargs, result: result.iterations,
    "pair.solve_pair": lambda args, kwargs, result: result.iterations,
    "evolution.evolve": lambda args, kwargs, result: result.steps,
    "fields.write_field": _write_field_bytes,
}


def span_name(fn):
    """``<module>.<function>`` with the ``gsqg.`` prefix dropped."""
    return fn.__module__.split(".", 1)[1] + "." + fn.__name__


class Tracer:
    """Records (name, parent index, start, end, count) for every wrapped call."""

    def __init__(self, modules, methods=()):
        self.modules = modules
        self.methods = methods
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording --

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            count = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, count)

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, parent, t0, t1, None)

    def install(self):
        wrappers = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("gsqg.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, span_name(obj))
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        for cls, attr in self.methods:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, span_name(fn)))

    def uninstall(self):
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)


def summarize(spans):
    """Per-name calls, inclusive time, self time and counter sums.

    Inclusive time counts only the outermost span of each name, so a
    function reached again below itself is not counted twice.  Self time is
    a span's duration minus the durations of its direct child spans.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, parent, t0, t1, count) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                   "count": 0})
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child[i]
        if count is not None:
            st["count"] += count
        if not _has_ancestor(spans, parent, {name}):
            st["time_s"] += t1 - t0
    return out


def _has_ancestor(spans, parent, names):
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def outermost_time(spans, names):
    """Summed duration of spans in ``names`` not nested in another of them."""
    return sum(t1 - t0 for name, parent, t0, t1, _ in spans
               if name in names and not _has_ancestor(spans, parent, names))


def child_calls(spans, name, parent_name):
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(1 for n, parent, *_ in spans
               if n == name and parent >= 0 and spans[parent][0] == parent_name)
