"""In-memory span tracer that wraps public functions from outside.

A :class:`Tracer` records one span per call of every function it wraps:
name, start, end (``time.perf_counter`` seconds), the index of the
enclosing span, and optional tags. Spans stay in memory until the
caller writes them out. The current span lives in a context variable,
so concurrent asyncio tasks each get their own parent chain.

Wrapping replaces module or class attributes; leaving the ``with``
block restores every replaced attribute, in reverse order, to the exact
object it held before. A call nested inside a span of the same name
records no second span, so a name's total time never counts a
recursive call twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
import time


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent, tags]`` per span, in start order.
        self.spans: list[list] = []
        self._stack = contextvars.ContextVar(
            f"perfbench-spans-{id(self)}", default=()
        )
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str, tags: dict | None) -> int | None:
        stack = self._stack.get()
        for index in stack:
            if self.spans[index][0] == name:
                return None
        index = len(self.spans)
        parent = stack[-1] if stack else None
        self.spans.append([name, time.perf_counter(), None, parent, tags])
        self._stack.set(stack + (index,))
        return index

    def _close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        self._stack.set(self._stack.get()[:-1])

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span; yields its tag dict."""
        tags: dict = {}
        index = self._open(name, tags)
        try:
            yield tags
        finally:
            self._close(index)

    # ------------------------------------------------------------ wrapping
    def _wrapper(self, name: str, func, annotate=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer._open(name, None)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if index is not None and annotate is not None:
                tracer.spans[index][4] = annotate(args, kwargs, result)
            return result

        return traced

    def wrap_attribute(self, owner, attr: str, name: str,
                       annotate=None) -> None:
        """Replace ``owner.attr`` (module or class) with a traced wrapper.

        ``annotate(args, kwargs, result)`` returns the span's tags.
        """
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, annotate))

    def wrap_function(self, func, name: str, annotate=None) -> None:
        """Wrap every binding of ``func`` in the ``repro`` package.

        ``from module import func`` copies the function into each
        importing module, so each copy is replaced.
        """
        wrapper = self._wrapper(name, func, annotate)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()

    # ------------------------------------------------------------ summary
    def records(self) -> list[dict]:
        """The spans as JSON-able dicts; ``parent`` indexes this list."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "tags": tags or {}}
            for name, start, end, parent, tags in self.spans
        ]


def summarize(records: list[dict]) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap within a task). A
    span still open (``end`` is None) is skipped.
    """
    closed = [record["end"] is not None for record in records]
    child_time = [0.0] * len(records)
    for record, done in zip(records, closed):
        if done and record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    summary: dict[str, dict] = {}
    for record, done, children in zip(records, closed, child_time):
        if not done:
            continue
        entry = summary.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = record["end"] - record["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return summary
