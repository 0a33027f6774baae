"""In-memory spans, self-time arithmetic and the tail-percentile rule.

A `Tracer` replaces public functions and methods with thin wrappers that
record one span per call: its name, start, end, parent span and the id of
the benchmark op it ran under. Spans stay in memory until the run ends.
Nothing under `src/` is modified; the wrappers are installed on the classes
and on the module namespaces the benchmark calls through, and removed again
by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter_ns
from typing import Callable

# Percentiles the tail is chosen from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10

NO_PARENT = -1


def tail_percentile(n: int) -> tuple[float, int] | None:
    """Highest ladder percentile that leaves at least ten of n samples beyond
    its nearest-rank value; returns (percentile, samples beyond) or None."""
    best = None
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100 * n)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, beyond)
    return best


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def self_times(spans: list[tuple]) -> list[int]:
    """Per-span duration minus the part of its interval its children cover.

    `spans` holds (name, start, end, parent, op) tuples; parent is an index
    into the same list or NO_PARENT.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans around wrapped callables while `active` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace owner.attr with a span-recording wrapper.

        `observe(args, result)` runs after the span closes, so its cost is
        not charged to the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {name}: {type(original).__name__}")
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()
