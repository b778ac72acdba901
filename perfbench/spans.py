"""Aggregation of the spans recorded by ``traced_main``.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span in the same list, or -1.  For each name this gives

- the inclusive time: the summed duration of its spans that have no
  ancestor of the same name, so recursive calls are not counted twice;
- the self time: each span's duration minus the part of its interval that
  its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def inclusive_and_self(spans) -> tuple[dict, dict]:
    """Per-name inclusive and self seconds of one command's span list."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    inclusive: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            inclusive[name] += end - start
        self_time[name] += (end - start) - _covered(start, end, children[i])
    return dict(inclusive), dict(self_time)
