"""Deterministic reduction and the one order-preserving parallel map.

Results must never depend on the worker count: sums reduce over a fixed
pairwise tree whose shape is a function of the element count alone, and
``parallel_map`` over independent family members is the only place
threads start.  Running with ``threads=1`` and ``threads=N`` therefore
produces bit-identical results, floats included.
"""
from __future__ import annotations

import os
import threading

ENV_THREADS = "PADIC_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Pick the worker count: explicit argument, else PADIC_THREADS, else 1."""
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip() or "1"
        if not (raw.isdecimal() and int(raw) >= 1):
            raise ValueError(f"{ENV_THREADS} must be an integer >= 1, got {raw!r}")
        threads = int(raw)
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
    """Map preserving input order; threads only change wall time, not output.

    The items split into `threads` contiguous shares: the caller runs the
    first while one plain thread per other share runs the rest, then joins
    them.  A share stops at its first exception; the first in input order
    is raised after the join.  No pool outlives the call, so a nested call
    never waits on a busy one.
    """
    items = list(items)
    threads = min(threads, len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    cuts = [len(items) * i // threads for i in range(threads + 1)]
    results = [None] * threads

    def run(i):
        try:
            results[i] = [fn(x) for x in items[cuts[i]:cuts[i + 1]]]
        except BaseException as exc:  # raised in the caller, after the join
            results[i] = exc

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, threads)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for share in results:
        if isinstance(share, BaseException):
            raise share
    return [y for share in results for y in share]
