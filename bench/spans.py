"""In-memory span recorder for the benchmark's traced run.

Spans are taken on the benchmark's side of each module boundary: for the
length of one traced unit of work the recorder replaces a public function on
a topobetti module (for example ``topobetti.homology.signed_complex``) with a
timing wrapper, and puts the original back afterwards.  Calls that one module
makes into another through such a name are therefore timed as well, while
the program itself is unchanged.  Untraced runs never install a wrapper.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


UNIT = "unit"


class Span:
    __slots__ = ("name", "unit", "parent", "start", "end", "counts")

    def __init__(self, name, unit, parent):
        self.name = name
        self.unit = unit  # (instance, unit id) the span belongs to
        self.parent = parent  # enclosing Span, or None
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and per-span counts; everything stays in memory."""

    def __init__(self):
        # targets: (module, attribute, span name, count function or None);
        # a count function maps the wrapped call's result to {counter: n}
        self.targets = ()
        self.spans = []
        self.kept = []  # objects a count function set aside for after the unit
        self._stack = []
        self._unit = None

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def keep(self, obj):
        self.kept.append(obj)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            span = Span(name, self._unit, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    @contextmanager
    def unit(self, key):
        """Trace one unit of work (a set-up step or an operation) under `key`.

        The unit itself is a root span named UNIT, parent of the spans of the
        calls the benchmark makes inside it.
        """
        saved = []
        for module, attr, name, count in self.targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        self._unit = key
        self.kept = []
        root = Span(UNIT, key, None)
        self.spans.append(root)
        self._stack.append(root)
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._unit = None
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def add_counts(self, key, name, counts):
        """Attach counts measured after a unit (outside its timing) to it."""
        span = Span(name, key, None)  # start = end = 0: it takes no time
        span.counts = counts
        self.spans.append(span)
