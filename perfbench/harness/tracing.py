"""Layer-boundary wrappers: span recording at wrapped callables.

Everything here wraps callables of the ``repro`` package from the outside
and puts the originals back afterwards; nothing under ``src/`` knows it is
being measured.

- :class:`Patcher` replaces a module-level function everywhere the
  ``repro`` package refers to it (``from x import f`` copies the
  reference into each importing module) or a method on its class, and
  restores every replaced reference on :meth:`Patcher.restore`.  A
  callable that no longer exists raises, so a refactor under ``src/``
  fails the run instead of silently zeroing a metric.
- :class:`SpanRecorder` records one span per wrapped call, with name,
  start, end, parent and the id of the injection or strike it belongs
  to.  Spans stay in memory until :meth:`SpanRecorder.write`.  The traced
  run wraps every layer boundary; an untraced run wraps only calls that
  happen once per program or lease (image preparation, beam warm-up),
  never a call made once per injection or strike.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _resolve(module_name: str):
    __import__(module_name)
    return sys.modules[module_name]


class Patcher:
    """Replace functions and methods; undo every replacement on restore."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, make_wrapper) -> None:
        """Wrap ``module_name.attr`` in every loaded ``repro`` module."""
        original = getattr(_resolve(module_name), attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def method(self, module_name: str, qualname: str, make_wrapper) -> None:
        """Wrap ``Class.method`` (``qualname`` = ``"Class.method"``).

        Raises ``AttributeError`` when the class no longer defines the
        method: the metrics read from it would otherwise read 0.
        """
        class_name, attr = qualname.split(".")
        cls = getattr(_resolve(module_name), class_name)
        original = cls.__dict__.get(attr)
        if original is None:
            raise AttributeError(
                f"{module_name}.{qualname} is gone: update perfbench/harness"
            )
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: Id of the injection or strike this span belongs to (``None`` for
    #: set-up and campaign-level work).
    unit: int | None = None
    thread: str = ""
    attrs: dict = field(default_factory=dict)
    #: Opened by the benchmark's own code (:meth:`SpanRecorder.span`), not
    #: by a wrapped callable of the package.
    own: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_line(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
            **({"own": True} if self.own else {}),
        }


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._units = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, unit: bool = False, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            parent=parent.span_id if parent is not None else None,
            unit=(
                next(self._units)
                if unit
                else (parent.unit if parent is not None else None)
            ),
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # an exception unwound past inner spans
            del stack[stack.index(span):]

    @contextmanager
    def span(self, name: str, **attrs):
        """One span around a block of the benchmark's own code."""
        span = self.open(name, **attrs)
        span.own = True
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, unit: bool = False, attrs=None):
        """``make_wrapper`` for :class:`Patcher`: one span per call.

        ``attrs``, when given, maps the call's arguments to span attrs.
        """
        recorder = self

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                span = recorder.open(name, unit=unit, **extra)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(span)

            wrapper.__wrapped__ = original
            return wrapper

        return make_wrapper

    def write(self, path: Path, header: dict | None = None) -> Path:
        """Write every span as one JSONL file (once, when the run ends).

        ``header``, when given, is the file's first line.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            if header is not None:
                handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.to_line()) + "\n")
        return path

    # -- analysis --------------------------------------------------------------

    def clipped(self, start: float, end: float) -> "SpanRecorder":
        """A recorder holding only the spans that lie inside ``[start, end]``."""
        view = SpanRecorder(self.clock)
        view.spans = [
            span for span in self.spans if span.start >= start and span.end <= end
        ]
        return view

    def named(self, *names: str) -> list[Span]:
        """Spans with one of ``names`` that have no ancestor among them.

        Summing these never counts nested time twice (for example a
        restore engine that delegates to another restore).
        """
        wanted = set(names)
        by_id = {span.span_id: span for span in self.spans}
        out = []
        for span in self.spans:
            if span.name not in wanted:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.name not in wanted:
                parent = by_id.get(parent.parent)
            if parent is None:
                out.append(span)
        return out

    def total(self, *names: str) -> float:
        return sum(span.duration for span in self.named(*names))

    def self_time(self, name: str, in_unit: bool = False) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        total = 0.0
        for span in self.spans:
            if span.name != name or (in_unit and span.unit is None):
                continue
            covered = _union(
                [(child.start, child.end) for child in children.get(span.span_id, ())]
            )
            total += span.duration - covered
        return total

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """``(start, end)`` of every ``name`` span, in call order."""
        return [(span.start, span.end) for span in self.spans if span.name == name]

    def unattributed(self, start: float, end: float) -> float:
        """Wall time in ``[start, end]`` outside every wrapped-callable span.

        Spans the benchmark opens around its own code are left out: they
        cover the whole window by construction.
        """
        covered = [
            (max(span.start, start), min(span.end, end))
            for span in self.spans
            if not span.own and span.end > start and span.start < end
        ]
        return (end - start) - _union(covered)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        covered += hi - max(lo, reach)
        reach = hi
    return covered

