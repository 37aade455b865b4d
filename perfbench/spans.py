"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
patching class methods from here, so the program under test carries no
benchmark instrumentation.  Class methods, not module functions, are
patched because the fleet executor binds functions such as
``create_machine`` by ``from ... import`` at import time, where a module
attribute patch would never be seen.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span or -1.  The benchmark is single-threaded, so children of
one span never overlap and a span's self time is its duration minus the
sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """Collects spans while installed; :meth:`uninstall` restores the
    original methods."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        #: per-span-name extra counts, e.g. instructions retired
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def patch(self, cls: type, method: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``cls.method``.

        ``on_result(counts, result)`` may add counts read from the
        method's return value.
        """
        original = cls.__dict__[method]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = recorder.span(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(recorder.counts, result)
            return result

        self._patched.append((cls, method, original))
        setattr(cls, method, traced)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def self_times(self, first: int, last: int) -> tuple[dict[str, float], float]:
        """Per-name self time of spans ``first:last``, plus root-span time.

        The root total is the time covered by spans without a parent;
        the caller subtracts it from the wall time of the traced phase
        to get the untraced remainder.
        """
        children: dict[int, float] = defaultdict(float)
        for index in range(first, last):
            _, start, end, parent = self.spans[index]
            if parent >= first:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        roots = 0.0
        for index in range(first, last):
            name, start, end, parent = self.spans[index]
            own[name] += (end - start) - children[index]
            if parent < first:
                roots += end - start
        return dict(own), roots

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows}))
