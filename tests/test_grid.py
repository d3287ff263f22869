import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    BranchSeq,
    Cell,
    ConfigMismatch,
    DepthExhausted,
    GridConfig,
    cell_of_point,
    decompose_box,
    full_cube,
    point_code,
    refine_cell,
    validate_partition,
)
from padicah.grid import box_weights
from strategies import grids


def test_branch_seq_moduli():
    seq = BranchSeq((2, 3, 2, 5))
    assert seq.depth == 4
    assert [seq.modulus(k) for k in range(5)] == [1, 2, 6, 12, 60]
    # factor is 1-based: factor(k) is the split applied between ranks k-1 and k
    assert seq.factor(1) == 2
    assert seq.factor(2) == 3
    assert seq.factor(4) == 5


def test_branch_seq_rejects_small_factors():
    with pytest.raises(ValueError, match="p\\[0\\]"):
        BranchSeq((1, 2))
    with pytest.raises(ValueError, match="p\\[1\\]"):
        BranchSeq((2, 0))


def test_branch_seq_depth_exhausted():
    seq = BranchSeq((2, 2))
    with pytest.raises(DepthExhausted):
        seq.factor(3)
    with pytest.raises(DepthExhausted):
        seq.factor(0)
    with pytest.raises(DepthExhausted):
        seq.modulus(3)


def test_grid_config_basic():
    cfg = GridConfig.from_lists([[2, 3, 2], [3, 3]])
    assert cfg.dim == 2
    assert cfg.min_depth == 2


def test_grid_json_round_trip():
    cfg = GridConfig.from_lists([[2, 3], [5, 2]])
    doc = cfg.to_json_dict()
    assert doc == {"dims": 2, "seqs": [[2, 3], [5, 2]], "depth": 2}
    back = GridConfig.from_json_dict(doc)
    assert back == cfg


def test_grid_json_rejects_bad_factor_with_field_name():
    with pytest.raises(ValueError, match="seqs\\[0\\]\\[1\\]"):
        GridConfig.from_json_dict({"dims": 1, "seqs": [[2, 1]], "depth": 2})


def test_grid_json_rejects_dims_mismatch():
    with pytest.raises(ValueError, match="dims"):
        GridConfig.from_json_dict({"dims": 2, "seqs": [[2, 2]], "depth": 2})


def test_cell_geometry_1d():
    cfg = GridConfig.from_lists([[3, 2]])
    c = Cell((2,), (5,))
    c.validate(cfg)
    assert c.start(cfg, 0) == Fraction(5, 6)
    assert c.end(cfg, 0) == 1
    assert c.measure(cfg) == Fraction(1, 6)


def test_cell_geometry_product():
    cfg = GridConfig.from_lists([[2, 2], [3, 3]])
    c = Cell((1, 2), (1, 4))
    assert c.measure(cfg) == Fraction(1, 2) * Fraction(1, 9)
    assert c.start(cfg, 1) == Fraction(4, 9)


def test_cell_validation_errors():
    cfg = GridConfig.from_lists([[3, 2]])
    with pytest.raises(ValueError, match="index 3"):
        Cell((1,), (3,)).validate(cfg)
    with pytest.raises(DepthExhausted):
        Cell((5,), (0,)).validate(cfg)
    with pytest.raises(ConfigMismatch):
        Cell((1, 1), (0, 0)).validate(cfg)


def test_full_cube_and_uniform_rank():
    box = full_cube(3)
    assert box.ranks == (0, 0, 0)
    assert box.indices == (0, 0, 0)


def test_refine_cell_partitions_parent():
    cfg = GridConfig.from_lists([[2, 3], [3, 2]])
    parent = Cell((1, 0), (1, 0))
    kids = refine_cell(cfg, parent, 0)
    assert len(kids) == 3
    assert sum(k.measure(cfg) for k in kids) == parent.measure(cfg)
    for k in kids:
        assert parent.contains(cfg, k)
    # siblings are pairwise disjoint
    for a in kids:
        for b in kids:
            if a is not b:
                assert a.intersect(cfg, b) is None


def test_refine_past_depth_raises():
    cfg = GridConfig.from_lists([[2, 2]])
    with pytest.raises(DepthExhausted):
        refine_cell(cfg, Cell((2,), (0,)), 0)


def test_decompose_box_mixed_rank():
    cfg = GridConfig.from_lists([[2, 2, 2], [3, 2, 2]])
    box = Cell((1, 0), (0, 0))
    parts = decompose_box(cfg, box)
    # uniform target rank is 1, so dim 1 splits into 3 pieces
    assert len(parts) == 3
    assert all(p.ranks == (1, 1) for p in parts)
    assert sum(p.measure(cfg) for p in parts) == box.measure(cfg)
    validate_partition(cfg, parts, region=box)


def test_decompose_box_identity_when_uniform():
    cfg = GridConfig.from_lists([[2, 2]])
    box = Cell((2,), (3,))
    assert decompose_box(cfg, box) == (box,)


def test_point_code_and_cell_of_point():
    cfg = GridConfig.from_lists([[3, 2]])
    pt = point_code(cfg, (2, 1))
    assert cell_of_point(cfg, pt, 2) == Cell((2,), (5,))
    assert cell_of_point(cfg, pt, 1) == Cell((1,), (2,))
    assert cell_of_point(cfg, pt, 0) == full_cube(1)


def test_point_code_rejects_digit_at_factor():
    cfg = GridConfig.from_lists([[3, 2]])
    with pytest.raises(ValueError, match="digit"):
        point_code(cfg, (3, 0))


def test_nested_or_disjoint_property():
    rng = random.Random(20240817)
    for trial in range(200):
        dim = rng.choice((1, 2))
        lists = [[rng.choice((2, 3)) for _ in range(4)] for _ in range(dim)]
        cfg = GridConfig.from_lists(lists)

        def rand_cell():
            ranks = tuple(rng.randint(0, 4) for _ in range(dim))
            idx = tuple(
                rng.randrange(cfg.seqs[j].modulus(ranks[j])) for j in range(dim)
            )
            return Cell(ranks, idx)

        a, b = rand_cell(), rand_cell()
        inter = a.intersect(cfg, b)
        if inter is None:
            assert not a.contains(cfg, b)
            assert not b.contains(cfg, a)
        else:
            # per dimension the deeper cell wins: nested or disjoint
            for j in range(dim):
                deeper = max(a.ranks[j], b.ranks[j])
                assert inter.ranks[j] == deeper
            assert a.contains(cfg, inter) and b.contains(cfg, inter)
            assert inter.measure(cfg) <= min(a.measure(cfg), b.measure(cfg))
            if dim == 1:
                assert inter in (a, b)


def test_contains_agrees_with_interval_arithmetic():
    rng = random.Random(77)
    cfg = GridConfig.from_lists([[2, 3, 2]])
    cells = []
    for rank in range(4):
        m = cfg.seqs[0].modulus(rank)
        cells.extend(Cell((rank,), (i,)) for i in range(m))
    for _ in range(300):
        a = rng.choice(cells)
        b = rng.choice(cells)
        by_interval = (
            a.start(cfg, 0) <= b.start(cfg, 0) and b.end(cfg, 0) <= a.end(cfg, 0)
        )
        assert a.contains(cfg, b) == by_interval


def test_validate_partition_catches_overlap():
    cfg = GridConfig.from_lists([[2, 2]])
    cells = [Cell((1,), (0,)), Cell((1,), (0,))]
    with pytest.raises(ValueError, match="overlap"):
        validate_partition(cfg, cells)


def test_validate_partition_catches_excess_measure():
    cfg = GridConfig.from_lists([[2, 2]])
    cells = [Cell((1,), (0,)), Cell((2,), (1,)), Cell((1,), (1,))]
    with pytest.raises(ValueError, match="measure"):
        validate_partition(cfg, cells)


def test_validate_partition_catches_shortfall():
    cfg = GridConfig.from_lists([[2, 2]])
    cells = [Cell((1,), (0,)), Cell((2,), (2,))]
    with pytest.raises(ValueError, match="measure"):
        validate_partition(cfg, cells)


def test_sort_key_orders_by_position():
    cfg = GridConfig.from_lists([[2, 2], [2, 2]])
    cells = [
        Cell((1, 1), (1, 1)),
        Cell((1, 1), (0, 0)),
        Cell((2, 1), (1, 0)),
        Cell((1, 1), (0, 1)),
    ]
    ordered = sorted(cells, key=lambda c: c.sort_key(cfg))
    starts = [(c.start(cfg, 0), c.start(cfg, 1)) for c in ordered]
    assert starts == sorted(starts)


@st.composite
def _cells_near(draw, cfg, count=4):
    """Cells of random ranks, about half of them holding a point of the
    first, so that nested, meeting and disjoint pairs all come up."""
    def at(point):  # the cell of random ranks holding a point given by Fractions
        ranks = [draw(st.integers(0, seq.depth)) for seq in cfg.seqs]
        return Cell(tuple(ranks), tuple(int(x * seq.modulus(k))
                                        for x, seq, k in zip(point, cfg.seqs, ranks)))

    def point_in(cell):
        return [cell.start(cfg, j) + (cell.end(cfg, j) - cell.start(cfg, j))
                * Fraction(draw(st.integers(0, 15)), 16) for j in range(cfg.dim)]

    first = at([Fraction(draw(st.integers(0, 63)), 64) for _ in cfg.seqs])
    return [first] + [at(point_in(first)) if draw(st.booleans())
                      else at([Fraction(draw(st.integers(0, 63)), 64) for _ in cfg.seqs])
                      for _ in range(count - 1)]


def _spans(cfg, cell):
    return [(cell.start(cfg, j), cell.end(cfg, j)) for j in range(cfg.dim)]


@settings(max_examples=100)
@given(st.data())
def test_interval_rule_matches_fraction_endpoints(data):
    """Containment, meets, ancestors, descendants and box weights against
    an oracle on the cells' Fraction endpoints alone."""
    cfg = data.draw(grids(max_cells=256))
    cells = data.draw(_cells_near(cfg))
    unit = prod(seq.modulus(seq.depth) for seq in cfg.seqs)
    for a in cells:
        for b in cells:
            pairs = list(zip(_spans(cfg, a), _spans(cfg, b)))
            nested = all(lo <= blo and bhi <= hi for (lo, hi), (blo, bhi) in pairs)
            assert a.contains(cfg, b) == nested
            overlap = [(max(lo, blo), min(hi, bhi)) for (lo, hi), (blo, bhi) in pairs]
            meet = a.intersect(cfg, b)
            if any(lo >= hi for lo, hi in overlap):
                assert meet is None
                continue
            assert _spans(cfg, meet) == overlap and _spans(cfg, a.meet(b)) == overlap
            if all(ka >= kb for ka, kb in zip(a.ranks, b.ranks)):
                assert a.meet(b) is a and a.intersect(cfg, b) is a
        for box in [None, *cells]:
            overlap = [min(hi, bhi) - max(lo, blo) for (lo, hi), (blo, bhi)
                       in zip(_spans(cfg, a), _spans(cfg, box or full_cube(cfg.dim)))]
            want = None if min(overlap) <= 0 else prod(overlap) * unit
            assert box_weights(cfg, [a], box) == [want]
        for j, (seq, k, n) in enumerate(zip(cfg.seqs, a.ranks, a.indices)):
            lo, hi = a.start(cfg, j), a.end(cfg, j)
            for q in range(seq.depth + 1):
                m = seq.modulus(q)
                inside = [i for i in range(m) if lo <= Fraction(i, m) and Fraction(i + 1, m) <= hi]
                if q <= k:
                    holder, = (i for i in range(m)
                               if Fraction(i, m) <= lo and hi <= Fraction(i + 1, m))
                    assert seq.ancestor(k, n, q) == holder
                if q >= k:
                    assert list(seq.descendants(k, n, q)) == inside
