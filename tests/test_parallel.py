import functools

from padicah import tree_sum


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
