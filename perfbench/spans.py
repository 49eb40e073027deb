"""Spans recorded around calls into the program, from outside it.

A :class:`Tracer` wraps functions so that each call records a span
``[name, start, end, parent, item, attrs]``. Spans stay in memory until
the pass ends. :func:`rebind` installs a wrapper under every name that
refers to the original function in any module of a package, because
``from .symcore import normalize`` binds a separate reference in each
importing module.
"""

from __future__ import annotations

import functools
import sys
import time

NAME, START, END, PARENT, ITEM, ATTRS = range(6)

#: spans under this name cover the tracer's own bookkeeping (attribute
#: extraction); they keep that work out of the caller's self time and are
#: never reported as a layer
OVERHEAD = "trace.overhead"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``attrs(args, kwargs, result, exc)`` may return a dict stored on
        the span; it runs after the span is closed, under an overhead span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if attrs is not None:
                    extra = [OVERHEAD, span[END], 0.0, span[PARENT], self.item, None]
                    span[ATTRS] = attrs(args, kwargs, result, exc)
                    extra[END] = time.perf_counter()
                    spans.append(extra)

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def rebind(original, replacement, package: str) -> int:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count
