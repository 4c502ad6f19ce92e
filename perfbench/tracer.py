"""In-memory span tracing installed from outside the program.

The benchmark never edits the library: it wraps public functions where their
callers look them up (a module global, or a class attribute resolved through
the MRO), records one span per call, and restores every original on exit.

A span is ``(span_id, name, start, end, parent_id, rid)``: ``parent_id`` is
the innermost open span on the same thread, ``rid`` the run or request id in
force when the span opened.  Self time is a span's duration minus the union
of the intervals its children cover (children on other threads are not
children).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.rid = None  # default id for spans opened outside any request
        self.counters: dict = {}
        self._count_lock = threading.Lock()

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans this thread opens from now on with ``rid``."""
        self._local.rid = rid

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        rid = getattr(self._local, "rid", None) or self.rid
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid))

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _id, open_name in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._count_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # --------------------------------------------------------------- patching
    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        previous = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``owner`` is a module (the namespace the caller resolves the name
        in) or a class (patched in its own ``__dict__``; an inherited method
        is shadowed there and the shadow removed on restore).
        ``on_result(span_id, args, result)`` runs after the span closes.
        """
        original = getattr(owner, attr)
        static = isinstance(owner, type) and isinstance(
            _lookup_raw(owner, attr), staticmethod
        )
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span_id:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(span_id, args, result)
            return result

        wrapper.__wrapped__ = original
        self.replace(owner, attr, staticmethod(wrapper) if static else wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Span only the time the caller is blocked in each ``next()``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ----------------------------------------------------------------- output
    def dump(self, path) -> None:
        """One JSON object per span, then one ``{"counters": ...}`` line."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def _lookup_raw(cls: type, attr: str):
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass.__dict__[attr]
    return None


def load_spans(path) -> tuple[list, dict]:
    """``(spans, counters)`` from a :meth:`Tracer.dump` file."""
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            if "counters" in s:
                counters = s["counters"]
            else:
                spans.append((s["id"], s["name"], s["start"], s["end"], s["parent"], s["rid"]))
    return spans, counters


def covered(intervals: list[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict:
    """``span_id -> duration minus the union of its children's intervals``.

    Children are clipped to the parent's interval, so a child that outlives
    its parent (it cannot on one thread, but spans may be hand-added) never
    drives self time negative.
    """
    children: dict = {}
    for span_id, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _name, start, end, _parent, _rid in spans:
        kids = [
            (max(s, start), min(e, end)) for s, e in children.get(span_id, []) if e > start and s < end
        ]
        out[span_id] = (end - start) - covered(kids)
    return out
