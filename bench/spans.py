"""Span recorder for the traced benchmark run.

Each listed function of the program is wrapped, from the benchmark's own
files, so that every call records a span: name, start, end, parent span and
the request id (workload/stage/item) current when it was called. Nothing
under ``src/`` changes. Spans are kept in memory and written when the run
ends.

A function is patched *where it is looked up*: ``slmforge.cli`` binds names
such as ``run_pipeline``, ``log_mel`` and ``wer`` with ``from ... import``,
and ``slmforge.asr`` binds ``wer`` the same way, so every slmforge module
namespace that holds the original object gets the wrapper, not only the
defining module. Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


def patch_everywhere(module: str, qualname: str, make_wrapper):
    """Replace the object at ``slmforge.<module>.<qualname>`` everywhere it is bound.

    ``make_wrapper(current)`` builds the replacement. Returns a function
    that restores every binding it changed.
    """
    mod = importlib.import_module(f"slmforge.{module}")
    owner, attr = mod, qualname
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name)
    current = inspect.getattr_static(owner, attr)
    wrapper = make_wrapper(current)
    changed = []
    if owner is not mod:
        changed.append((owner, attr))
    else:
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "slmforge" or name.startswith("slmforge.")):
                continue
            for key, value in list(vars(other).items()):
                if value is current:
                    changed.append((other, key))
    for target, key in changed:
        setattr(target, key, wrapper)

    def undo():
        for target, key in changed:
            setattr(target, key, current)

    return undo


class Recorder:
    """In-memory spans plus named counts; ``request`` labels new spans."""

    def __init__(self):
        # (name, start, end, parent index or None, request id)
        self.spans = []
        self.counts = defaultdict(float)
        self.request = ""
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None, name_of=None):
        """Wrap ``fn`` so each call records a span.

        ``count(recorder, args, kwargs, result)`` adds counts after the call;
        ``name_of(args, kwargs)`` derives the span name per call.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            label = name_of(args, kwargs) if name_of else name
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.request)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        """Wrap each (module, qualname, count, name_of) target."""
        for module, qualname, count, name_of in targets:
            name = f"{module}.{qualname}"
            self._undo.append(patch_everywhere(
                module, qualname,
                lambda fn, name=name, count=count, name_of=name_of:
                    self.wrap(name, fn, count, name_of)))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def summarize(spans) -> dict:
    """{span name: (calls, self seconds)} over all spans."""
    out = defaultdict(lambda: [0, 0.0])
    for span, self_s in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry[0] += 1
        entry[1] += self_s
    return {name: (calls, self_s) for name, (calls, self_s) in out.items()}
