"""Spans and carrier-operation counters for the traced run.

The counters live in a subclass of a shipped carrier, which is the
library's public plug-in point: pairs, solvers and suites built on an
instance of it call its ``mul``/``inv``/``cmp``/``contains`` and nothing
inside the library changes.  Counts are attributed to the span that
encloses them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

_clock = time.perf_counter
COUNTERS = ("mul", "inv", "cmp", "contains")


class Counting:
    """Mixin that counts carrier operations and the time spent in them.

    The four methods are written out rather than generated: they sit on
    the hot path, and a traced run makes millions of these calls.
    """

    def __init__(self):
        self.calls = dict.fromkeys(COUNTERS, 0)
        self.busy_s = 0.0

    def mul(self, g, h):
        self.calls["mul"] += 1
        t0 = _clock()
        out = super().mul(g, h)
        self.busy_s += _clock() - t0
        return out

    def inv(self, g):
        self.calls["inv"] += 1
        t0 = _clock()
        out = super().inv(g)
        self.busy_s += _clock() - t0
        return out

    def cmp(self, g, h):
        self.calls["cmp"] += 1
        t0 = _clock()
        out = super().cmp(g, h)
        self.busy_s += _clock() - t0
        return out

    def contains(self, x):
        self.calls["contains"] += 1
        t0 = _clock()
        out = super().contains(x)
        self.busy_s += _clock() - t0
        return out


_classes: Dict[type, type] = {}


def counting(carrier):
    """A counting carrier of the same class (and name) as ``carrier``.

    Instances of one wrapped class compare equal, as the shipped carriers
    do, so pairs built on different instances still multiply.
    """
    base = type(carrier)
    if base not in _classes:
        _classes[base] = type(f"Counting{base.__name__}", (Counting, base), {})
    return _classes[base]()


def _clock_floor(samples: int = 20001) -> float:
    """Median length of an interval with nothing inside, in seconds."""
    deltas = []
    for _ in range(samples):
        a = _clock()
        deltas.append(_clock() - a)
    deltas.sort()
    return deltas[samples // 2]


class Tracer:
    """In-memory spans; each snapshots the counting carriers it encloses."""

    def __init__(self, carriers):
        self.carriers = list(carriers)
        self.spans: List[dict] = []
        self.floor_s = _clock_floor()

    def _totals(self) -> dict:
        out = {f"{k}_calls": sum(c.calls[k] for c in self.carriers) for k in COUNTERS}
        out["busy_s"] = sum(c.busy_s for c in self.carriers)
        return out

    def span(self, name: str, parent: Optional[dict] = None, **attrs) -> "_Span":
        return _Span(self, name, parent, attrs)

    def add(self, name: str, start: float, end: float, parent: Optional[dict] = None, **attrs):
        """Record a span timed by the caller (no counter snapshot)."""
        self.spans.append(
            {"id": len(self.spans), "parent": parent and parent["id"], "name": name,
             "start": start, "end": end, **attrs}
        )


class _Span:
    def __init__(self, tracer: Tracer, name: str, parent, attrs):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "parent": parent and parent["id"],
                       "name": name, **attrs}
        tracer.spans.append(self.record)

    def __enter__(self) -> dict:
        self._before = self.tracer._totals()
        self.record["start"] = _clock()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = _clock()
        after = self.tracer._totals()
        ops = {k: after[k] - self._before[k] for k in after}
        ops["busy_s"] -= self.tracer.floor_s * sum(
            ops[f"{k}_calls"] for k in COUNTERS
        )
        self.record["ops"] = ops
        return False
