"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from padicah import CoeffMap, GridConfig, full_cube, refine_cell


@st.composite
def grids(draw, max_cells=512, equal_depths=False):
    """d <= 3 dimensions, depth 1-3 each, p <= 5, at most `max_cells`
    cells at full depth."""
    dim = draw(st.integers(1, 3))
    if equal_depths:
        depths = [draw(st.integers(1, 3))] * dim
    else:
        depths = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    while 2 ** sum(depths) > max_cells:
        depths = [d - 1 if equal_depths or d == max(depths) else d for d in depths]
    lists, cells, slots = [], 1, sum(depths)
    for depth in depths:
        seq = []
        for _ in range(depth):
            slots -= 1
            p = draw(st.integers(2, min(5, max_cells // (cells * 2 ** slots))))
            seq.append(p)
            cells *= p
        lists.append(seq)
    return GridConfig.from_lists(lists)


def haar_indices(cfg):
    """Multi-indices of the Haar system on `cfg`, up to its full depth."""
    return st.tuples(*(st.integers(0, seq.modulus(seq.depth) - 1) for seq in cfg.seqs))


@st.composite
def haar_series(draw, max_cells=512):
    """One to four integer or complex Haar coefficients on a grid whose
    dimensions share one depth."""
    cfg = draw(grids(max_cells=max_cells, equal_depths=True))
    value = st.one_of(
        st.integers(-4, 4), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    )
    return CoeffMap(cfg, draw(st.dictionaries(haar_indices(cfg), value, min_size=1, max_size=4)))


def split(draw, cfg, cell=None):
    """A random tiling of `cell` (default: the cube) by repeated splits
    along random dimensions; call from inside a composite strategy."""
    cell = cell if cell is not None else full_cube(cfg.dim)
    open_dims = [j for j in range(cfg.dim) if cell.ranks[j] < cfg.seqs[j].depth]
    if not open_dims or draw(st.integers(0, 2)) == 0:
        return [cell]
    j = draw(st.sampled_from(open_dims))
    return [c for child in refine_cell(cfg, cell, j) for c in split(draw, cfg, child)]
