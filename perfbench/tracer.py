"""Spans around wrapped callables, and the patching that installs them.

Every wrapped call is one span.  A span's self time is its duration minus
the durations of the wrapped calls made inside it, so the self times of all
spans add up to the time spent inside the outermost ones.  Spans are
aggregated per name as they close (calls, self seconds); nothing is kept
per call.

A wrapper costs time of its own.  The part that falls inside the child's
span is charged to the child; the part that falls outside it lands in the
caller's self time.  ``calibrate`` measures that outside part per call, and
``Tracer.self_seconds`` subtracts it once for every direct wrapped child.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple


class SpanStats:
    __slots__ = ("calls", "self_s", "child_calls")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.child_calls = 0  # direct wrapped children, for the overhead correction


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        # one [child seconds, child calls] accumulator per open span; the
        # bottom entry collects spans opened outside any other span
        self._open: List[list] = [[0.0, 0]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            acc = [0.0, 0]
            open_spans.append(acc)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                open_spans.pop()
                parent = open_spans[-1]
                parent[0] += span
                parent[1] += 1
                stats.calls += 1
                stats.self_s += span - acc[0]
                stats.child_calls += acc[1]

        return traced

    def reset(self):
        for s in self.stats.values():
            s.__init__()

    def self_seconds(self, name: str, per_call_overhead: float = 0.0) -> float:
        s = self.stats[name]
        return max(0.0, s.self_s - s.child_calls * per_call_overhead)


def _noop():
    return None


def calibrate(calls: int = 200_000, rounds: int = 5) -> float:
    """Seconds per wrapped call that a traced caller absorbs beyond the
    plain call: (caller self time with wrapped children - the same loop
    calling the bare function) / calls.  Median of ``rounds``."""
    results = []
    for _ in range(rounds):
        tracer = Tracer()
        child = tracer.wrap("child", _noop)

        def parent_traced():
            for _ in range(calls):
                child()

        def parent_bare():
            for _ in range(calls):
                _noop()

        tracer.wrap("parent", parent_traced)()
        t0 = time.perf_counter()
        parent_bare()
        bare = time.perf_counter() - t0
        results.append((tracer.stats["parent"].self_s - bare) / calls)
    results.sort()
    return max(0.0, results[len(results) // 2])


class Patches:
    """Replace attributes and restore them on exit.

    ``function`` replaces a module-level function in every given module
    namespace that refers to it, since ``from .x import f`` copies the
    reference into the importing module.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def attribute(self, owner, attr: str, make: Callable[[Callable], Callable]):
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def function(self, modules: Iterable, orig: Callable, replacement: Callable):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False
