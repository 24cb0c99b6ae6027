"""In-memory span tracer that wraps trajcouple's public functions from outside.

Installing the tracer replaces every public module-level function of the
named modules, plus a few named methods, with a wrapper that records a span
``(name, start, end, parent)``.  Every ``from .x import y`` copy of a wrapped
function held by another trajcouple module is rebound too, so calls through
those copies are traced as well.  A name that the code under test no longer
has is simply never called: its metrics read 0 instead of failing, which
lets a later refactor run this same benchmark.

Spans live in a list until the run writes them out at exit.  Only one
thread calls into the program, so one span stack suffices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "trajcouple"
OP_SPAN = "bench.op"  # name of the span the benchmark opens around each operation


class Tracer:
    """Records spans of wrapped calls; only calls under an op span are counted."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []

    # ---------------------------------------------------------- recording --

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    def _in_op(self):
        return bool(self._stack) and self.spans[self._stack[0]][0] == OP_SPAN

    def _wrapper(self, name, fn, count=None):
        tracer = self
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and tracer._in_op():
                try:
                    counted = count(sig.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError):
                    counted = {}  # a bad call raises below; a changed signature counts 0
                for key, value in counted.items():
                    tracer.counters[f"{name}.{key}"] += value
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -------------------------------------------------------- installation --

    def install(self, modules, methods=(), counts=None):
        """Wrap public functions of ``modules`` and the dotted ``methods``.

        ``counts`` maps a span name to a function of the call's bound
        arguments that returns per-call counters to add up.
        """
        counts = counts or {}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in modules:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrapper(name, obj, counts.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for path in methods:
            short, cls_name, meth = path.split(".")
            owner = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name, None)
            fn = vars(owner).get(meth) if isinstance(owner, type) else None
            if not inspect.isfunction(fn):
                continue
            self._restore.append((owner, meth, fn))
            setattr(owner, meth, self._wrapper(path, fn, counts.get(path)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ analysis --

    def summary(self, exclude_under):
        """Per-name self time (s), inclusive time (s) and calls under op spans.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because a single thread records them.
        The fourth result counts calls that have no ``exclude_under`` ancestor.
        """
        n = len(self.spans)
        covered = [0.0] * n
        root_of = [0] * n
        excluded = [False] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                root_of[i] = root_of[parent]
                excluded[i] = excluded[parent] or self.spans[parent][0] == exclude_under
            else:
                root_of[i] = i
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        calls_kept = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            if self.spans[root_of[i]][0] != OP_SPAN:
                continue
            self_s[name] += (end - start) - covered[i]
            incl_s[name] += end - start
            calls[name] += 1
            calls_kept[name] += not excluded[i]
        return self_s, incl_s, calls, calls_kept

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
