"""Deterministic reduction and the one order-preserving worker pool.

Results must never depend on the worker count: sums reduce over a fixed
pairwise tree whose shape is a function of the element count alone, and
``parallel_map`` over independent family members is the only place a pool
starts.  Running with ``threads=1`` and ``threads=N`` therefore produces
bit-identical results, floats included.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "PADIC_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Pick the worker count: explicit argument, else PADIC_THREADS, else 1."""
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip()
        if raw:
            try:
                threads = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
        else:
            threads = 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


def tree_sum(values, zero=0):
    """Sum ``values`` by folding neighbouring pairs, level by level, in list order.

    The association order depends only on len(values), so exact types stay
    exact and float results are reproducible.
    """
    vals = list(values)
    if not vals:
        return zero
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; threads only change wall time, not output."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
