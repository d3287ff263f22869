"""The sparse refinement sweep and the tiling validator, against brute force."""
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    Cell,
    GridConfig,
    StepFunction,
    common_refinement,
    refine_cell,
    validate_partition,
)
from strategies import grids, split


@st.composite
def step_functions(draw, cfg):
    cells = split(draw, cfg)
    values = draw(st.lists(st.integers(-3, 3), min_size=len(cells), max_size=len(cells)))
    return StepFunction.from_pieces(cfg, zip(cells, values))


@st.composite
def function_pairs(draw):
    cfg = draw(grids())
    return draw(step_functions(cfg)), draw(step_functions(cfg))


def _full_ranks(cfg):
    return tuple(seq.depth for seq in cfg.seqs)


@settings(max_examples=80)
@given(function_pairs())
def test_refinement_agrees_with_dense_expansion(pair):
    f, g = pair
    triples = common_refinement(f, g)
    cells = tuple(c for c, _, _ in triples)
    ranks = _full_ranks(f.cfg)
    for side, sf in ((1, f), (2, g)):
        on_sweep = StepFunction(f.cfg, cells, tuple(t[side] for t in triples))
        assert on_sweep.uniform_values(ranks) == sf.uniform_values(ranks)


@settings(max_examples=80)
@given(function_pairs())
def test_refinement_is_the_set_of_pairwise_intersections(pair):
    f, g = pair
    cfg = f.cfg
    cells = [c for c, _, _ in common_refinement(f, g)]
    validate_partition(cfg, cells)
    meets = {a.intersect(cfg, b) for a in f.cells for b in g.cells} - {None}
    assert len(cells) == len(meets) and set(cells) == meets
    assert cells == sorted(cells, key=lambda c: c.sort_key(cfg))


@pytest.mark.parametrize("lists", [[[2, 3, 2]], [[2, 3], [3, 2]]])
def test_refinement_against_a_constant_keeps_the_other_cells_in_order(lists):
    """A one-cell side, in either argument position, gives the other side's
    cells as they are: in canonical order, each paired with the constant."""
    cfg = GridConfig.from_lists(lists)
    first = refine_cell(cfg, Cell((0,) * cfg.dim, (0,) * cfg.dim), 0)
    cells = [*first[1:], *refine_cell(cfg, first[0], cfg.dim - 1)]
    cells = [*cells[:-1], *refine_cell(cfg, cells[-1], 0)]
    f = StepFunction.from_pieces(cfg, [(c, i) for i, c in enumerate(cells)])
    const = StepFunction.constant(cfg, 7)
    assert list(f.cells) == sorted(cells, key=lambda c: c.sort_key(cfg)) != cells
    assert common_refinement(f, const) == [(c, v, 7) for c, v in zip(f.cells, f.values)]
    assert common_refinement(const, f) == [(c, 7, v) for c, v in zip(f.cells, f.values)]


def _pinwheel():
    """Five cells tiling the 3-cube where every dimension has a cell
    spanning the whole cube, so no cut along any dimension misses them."""
    boxes = [
        ((0, 1, 1), (0, 0, 0)), ((1, 0, 1), (0, 0, 1)), ((1, 1, 0), (1, 1, 0)),
        ((1, 1, 1), (0, 1, 0)), ((1, 1, 1), (1, 0, 1)),
    ]
    return [Cell(ranks, indices) for ranks, indices in boxes]


@pytest.mark.parametrize("turn", [False, True])
def test_refinement_of_pinwheels_lists_each_intersection_once(turn):
    """Both sides pinwheels: the sweep has to cut through spanning cells,
    and pairs of them meet in several children."""
    cfg = GridConfig.from_lists([[2, 2]] * 3)
    a = _pinwheel()
    validate_partition(cfg, a)
    if turn:  # a quarter turn: swap dimensions 0 and 1
        b = [Cell((c.ranks[1], c.ranks[0], c.ranks[2]),
                  (c.indices[1], c.indices[0], c.indices[2])) for c in a]
    else:  # the same pinwheel with its last cell split
        b = a[:-1] + list(refine_cell(cfg, a[-1], 0))
    f = StepFunction.from_pieces(cfg, [(c, i) for i, c in enumerate(a)])
    g = StepFunction.from_pieces(cfg, [(c, i) for i, c in enumerate(b)])
    triples = common_refinement(f, g)
    meets = {x.intersect(cfg, y) for x in a for y in b} - {None}
    assert len(triples) == len(meets) and {c for c, _, _ in triples} == meets
    for cell, i, k in triples:
        assert a[i].contains(cfg, cell) and b[k].contains(cfg, cell)
    validate_partition(cfg, [c for c, _, _ in triples])


def _brute_force_tiles(cfg, cells):
    measure = sum(c.measure(cfg) for c in cells)
    disjoint = all(
        cells[i].intersect(cfg, cells[j]) is None
        for i in range(len(cells)) for j in range(i + 1, len(cells))
    )
    return measure == 1 and disjoint


@st.composite
def cell_lists(draw):
    """A random tiling, possibly damaged: a cell dropped, doubled, or
    swapped for its parent or a child."""
    cfg = draw(grids(max_cells=128))
    cells = split(draw, cfg)
    i = draw(st.integers(0, len(cells) - 1))
    damage = draw(st.sampled_from(("none", "drop", "double", "parent", "child")))
    c = cells[i]
    if damage == "drop":
        del cells[i]
    elif damage == "double":
        cells.append(c)
    elif damage == "parent" and any(c.ranks):
        j = next(j for j, k in enumerate(c.ranks) if k)
        p = cfg.seqs[j].factor(c.ranks[j])
        ranks, indices = list(c.ranks), list(c.indices)
        ranks[j] -= 1
        indices[j] //= p
        cells[i] = Cell(tuple(ranks), tuple(indices))
    elif damage == "child":
        open_dims = [j for j in range(cfg.dim) if c.ranks[j] < cfg.seqs[j].depth]
        if open_dims:
            cells[i] = refine_cell(cfg, c, open_dims[0])[0]
    return cfg, cells


@settings(max_examples=150)
@given(cell_lists())
def test_validator_agrees_with_brute_force(case):
    cfg, cells = case
    if _brute_force_tiles(cfg, cells):
        validate_partition(cfg, cells)
    else:
        with pytest.raises(ValueError):
            validate_partition(cfg, cells)


def test_validator_names_the_overlap_when_the_measure_adds_up():
    cfg = GridConfig.from_lists([[2, 2]])
    # [0,1/2) twice over [0,1/4) and [1/2,3/4): total measure 1, a gap at [3/4,1)
    cells = [Cell((1,), (0,)), Cell((2,), (0,)), Cell((2,), (2,))]
    with pytest.raises(ValueError, match="overlap"):
        validate_partition(cfg, cells)


def test_validator_is_not_quadratic_in_two_dimensions():
    cfg = GridConfig.from_lists([[2] * 7, [2] * 7])
    cells = [Cell((7, 7), idx) for idx in product(range(128), range(128))]
    validate_partition(cfg, cells)  # 16384 cells; a pairwise pass is 1.3e8 tests
    with pytest.raises(ValueError, match="overlap"):
        validate_partition(cfg, cells[:-1] + [cells[0]])
