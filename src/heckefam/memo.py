"""The one per-group cache scheme: a group datum is immutable once built, so
anything computed from it (and hashable arguments) is kept on the group."""

from __future__ import annotations

import functools


def _memo(fn):
    """Keep fn(W, *args) in W._caches, keyed by fn and args (pure memoization)."""

    @functools.wraps(fn)
    def wrapper(W, *args):
        key = (fn.__qualname__, *args)
        if key not in W._caches:
            W._caches[key] = fn(W, *args)
        return W._caches[key]

    return wrapper
