import functools
import threading

import pytest

from padicah import parallel_map, tree_sum


class Shape:
    """A summation tree over anonymous leaves.

    ``+`` is interned, so two trees are structurally equal exactly when they
    are the same object.
    """

    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left, self.right = left, right

    @functools.cache
    def __add__(self, other):
        return Shape(self, other)


LEAF = Shape()


def _fold(vals):
    while len(vals) > 1:
        pairs = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        vals = pairs + ([vals[-1]] if len(vals) % 2 else [])
    return vals[0]


@functools.cache
def _chunk(size):
    return _fold([LEAF] * size)


def _chunked_reference(n, chunk=2048):
    """Fold fixed 2048-leaf chunks pairwise, then fold the partials."""
    return _fold([_chunk(min(chunk, n - i)) for i in range(0, n, chunk)])


def test_tree_sum_keeps_the_chunked_association_tree():
    sizes = list(range(1, 5001)) + [2048 * k + d for k in range(1, 11) for d in (-1, 1)]
    for n in sizes:
        assert tree_sum([LEAF] * n) is _chunked_reference(n), n


def test_parallel_map_keeps_input_order_when_later_shares_finish_first():
    """The caller's share waits until the last item has run on a worker."""
    last_done = threading.Event()

    def item(x):
        if x == 0:
            assert last_done.wait(timeout=10)
        if x == 7:
            last_done.set()
        return x * x

    assert parallel_map(item, range(8), threads=2) == [x * x for x in range(8)]
    assert parallel_map(item, range(8), threads=8) == [x * x for x in range(8)]


def test_parallel_map_runs_the_first_share_on_the_caller_and_leaves_no_threads():
    before = threading.active_count()
    caller = threading.get_ident()
    idents = parallel_map(lambda x: threading.get_ident(), range(6), threads=3)
    assert idents[:2] == [caller] * 2  # the first contiguous share
    assert caller not in idents[2:] and idents[2] == idents[3] and idents[4] == idents[5]
    assert threading.active_count() == before


def test_parallel_map_raises_the_first_exception_in_input_order():
    """Item 3 fails first in time; item 1 fails first in input order."""
    later_failed = threading.Event()

    def item(x):
        if x == 1:
            assert later_failed.wait(timeout=10)
            raise KeyError(x)
        if x == 3:
            later_failed.set()
            raise KeyError(x)
        return x

    for threads in (2, 4):
        later_failed.clear()
        with pytest.raises(KeyError) as caught:
            parallel_map(item, range(4), threads=threads)
        assert caught.value.args == (1,)


def test_nested_parallel_map_completes():
    results = []

    def nested():
        results.append(parallel_map(
            lambda x: parallel_map(lambda y: x * 10 + y, range(3), threads=2), range(4), threads=2))

    runner = threading.Thread(target=nested, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert results == [[[x * 10 + y for y in range(3)] for x in range(4)]]
