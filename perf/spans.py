"""Layer spans recorded from outside ``src/repro``.

A traced run wraps the public functions at each module boundary (the
list lives in :mod:`perf.targets`) and records one span per call:
``id, parent, item, layer, name, thread, start, end``.  Class methods
are patched on the class; module-level functions are patched on every
loaded ``repro.*`` module that holds the identical function object, so
``repro.api.plan_sql`` is wrapped along with
``repro.sql.translate.plan_sql``.  :meth:`SpanTracer.uninstall`
restores every original.

Stacks are thread-local: a span opened on a thread with an empty stack
(a server worker, a scale-out device thread) is a root tagged with that
thread's name.  A layer's busy time is summed over threads, so on
threaded workloads it may exceed wall time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Span fields, by list index (lists keep the per-call cost low).
ID, PARENT, ITEM, LAYER, NAME, THREAD, START, END = range(8)
FIELDS = ("id", "parent", "item", "layer", "name", "thread", "start_us", "end_us")


class SpanTracer:
    def __init__(self):
        self.spans: list[list] = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        #: Label of the item in flight; ``None`` while concurrent
        #: clients have several in flight.
        self.item: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, function, layer: str, name: str, count=None):
        """``function`` with a span around every call.  ``count``, when
        given, is called as ``count(counts, args, kwargs, result)``
        after a successful call."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = threading.current_thread().name
            span = [
                next(ids),
                stack[-1][ID] if stack else None,
                self.item,
                layer,
                name,
                local.thread,
                clock(),
                0,
            ]
            stack.append(span)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def patch_function(self, module, attr: str, layer: str, name: str, count=None):
        """Wrap a module-level function everywhere it was re-exported."""
        original = getattr(module, attr)
        traced = self.wrap(original, layer, name, count)
        for owner, alias in function_aliases(original):
            self._patches.append((owner, alias, original))
            setattr(owner, alias, traced)

    def patch_method(self, cls, attr: str, layer: str, name: str, count=None):
        """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
        for owner in _defining_classes(cls, attr):
            raw = vars(owner)[attr]
            self._patches.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(self.wrap(raw.__func__, layer, name, count))
            else:
                traced = self.wrap(raw, layer, name, count)
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every original back (function identity is restored)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def write(self, path, **meta) -> None:
        """One JSON object per line: a ``meta`` header, the spans in
        completion order, then the counts."""
        with open(path, "w") as out:
            out.write(json.dumps({"type": "meta", **meta}) + "\n")
            for span in self.spans:
                record = dict(zip(FIELDS, span))
                record["start_us"] = span[START] / 1e3
                record["end_us"] = span[END] / 1e3
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"type": "counts", **self.counts}) + "\n")


def function_aliases(function) -> list[tuple[object, str]]:
    """Every ``(module, attribute)`` among the loaded ``repro`` modules
    that is bound to this exact function object."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found


def _defining_classes(cls, attr: str) -> list[type]:
    owners, pending, seen = [], [cls], set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        if attr in vars(current):
            owners.append(current)
        pending.extend(current.__subclasses__())
    if not owners:
        raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
    return owners


def self_times(spans) -> dict[int, int]:
    """Self time per span id, in the spans' own clock unit: duration
    minus the part covered by child spans.  Children run on their
    parent's thread, nested and one after another, so the covered part
    is the sum of their durations."""
    own = {span[ID]: span[END] - span[START] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent in own:
            own[parent] -= span[END] - span[START]
    return own


def self_time_by(spans, key) -> dict:
    """Self time summed by ``key(span)``."""
    own = self_times(spans)
    totals: dict = defaultdict(int)
    for span in spans:
        totals[key(span)] += own[span[ID]]
    return totals
