"""In-memory spans around the program's functions, for the traced run.

``Tracer.wrap`` replaces a function in the module namespace where the
program looks it up with a wrapper that records a span (name, start, end,
parent) around each call.  An optional hook sees the call's arguments
and result and adds counts; hooks run on a paused clock, so their cost
falls in no span.  ``uninstall`` puts the original functions back, which
lets a run alternate traced and untraced rounds.  A name that no longer
exists is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.memo: dict = {}  # for hooks: values derived once per input
        self._stack: list[int] = []
        self._paused = 0.0
        self._installed: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, hook=None, wrap_args=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``hook(tracer, args, kwargs, result)`` adds counts after each call;
        ``wrap_args(tracer, args, kwargs)`` may return replaced arguments.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(self, args, kwargs)
            with _Span(self, name):
                result = orig(*args, **kwargs)
            if hook is not None:
                t0 = time.perf_counter()
                hook(self, args, kwargs, result)
                self._paused += time.perf_counter() - t0
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Total time, self time and calls per span name, from span ``since``.

        Self time is a span's duration minus the durations of the spans
        it directly caused.
        """
        child = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans[since:], since):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.now(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = tr.now()
        tr._stack.pop()
        return False
