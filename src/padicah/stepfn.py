"""Step functions over grid partitions, with exact refinement algebra.

A StepFunction is constant on each cell of a partition of the unit cube,
listed in canonical cell order.  Values may be ints, Fractions, floats, or
complex numbers.  Cell geometry comes from `grid`: measures are its
integer counts of the deepest cells (``box_weights``), so integrals of
exact-valued functions are exact and float terms keep the bits of a value
times an exact Fraction measure.

Partitions are sparse in every dimension (cells are products of
intervals of mixed ranks); only ``uniform_values`` expands onto a uniform
grid, under a hard cell-count cap.  Two step functions combine on their
coarsest common refinement: the meets of their meeting cells, found by
a sweep that splits the cube one dimension at a time (in one dimension,
a linear merge).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod

from .errors import ConfigMismatch
from .grid import (
    MAX_UNIFORM_CELLS,
    Cell,
    GridConfig,
    PointCode,
    box_weights,
    full_cube,
    meeting_pairs,
    point_position,
    validate_partition,
    weight_unit,
)
from .parallel import tree_sum


def uniform_sizes(cfg: GridConfig, rank_vec) -> list[int]:
    """Per-dimension cell counts of the uniform grid `rank_vec`, checked
    against the cap before anything is built."""
    sizes = [cfg.seqs[j].modulus(k) for j, k in enumerate(rank_vec)]
    total = prod(sizes)
    if total > MAX_UNIFORM_CELLS:
        raise ValueError(f"uniform grid of {total} cells exceeds the {MAX_UNIFORM_CELLS} cap")
    return sizes

_EXACT_TYPES = (int, Fraction)
GUARD_BAND = 1e-12  # leq_with_guard's relative band, used only where a float entered


def value_abs(v):
    """|v|, exact for int/Fraction, float for float/complex."""
    if isinstance(v, complex):
        return abs(v)
    return -v if v < 0 else v


def value_abs_sq(v):
    """|v|^2, exact whenever v is exact."""
    if isinstance(v, complex):
        return v.real * v.real + v.imag * v.imag
    return v * v


def is_exact(v) -> bool:
    return isinstance(v, _EXACT_TYPES)  # inlined in the comparisons below, which run per cell


def leq_exact_or_float(a, b) -> bool:
    """a <= b: exact when both sides are exact, a double comparison otherwise.

    The package's one ordering rule; every other test is written through it
    (a > b as ``not leq_exact_or_float(a, b)``, a >= b with the sides swapped).
    """
    if isinstance(a, _EXACT_TYPES) and isinstance(b, _EXACT_TYPES):
        return a <= b
    return float(a) <= float(b)


def leq_with_guard(lhs, rhs) -> bool:
    """lhs <= rhs, exact when both sides are exact: truncation's test.

    Otherwise a double comparison with the relative ``GUARD_BAND`` on the
    right side, so that values within rounding noise of the threshold count
    as below it (ties keep the value in truncation).
    """
    if isinstance(lhs, _EXACT_TYPES) and isinstance(rhs, _EXACT_TYPES):
        return lhs <= rhs
    lf, rf = float(lhs), float(rhs)
    return lf <= rf + GUARD_BAND * max(abs(lf), abs(rf))


@dataclass(frozen=True)
class StepFunction:
    """A function constant on each cell of a partition of [0,1)^d."""

    cfg: GridConfig
    cells: tuple[Cell, ...]
    values: tuple

    @classmethod
    def constant(cls, cfg: GridConfig, value) -> "StepFunction":
        return cls(cfg, (full_cube(cfg.dim),), (value,))

    @classmethod
    def on_grid(cls, cfg: GridConfig, rank_vec, values) -> "StepFunction":
        """Build on the product grid with per-dimension uniform ranks.

        ``values`` is flat in lexicographic cell order (last dimension
        fastest), length ``prod_j m_j(rank_vec[j])``.
        """
        rank_vec = tuple(map(int, rank_vec))
        sizes = uniform_sizes(cfg, rank_vec)
        total = prod(sizes)
        values = tuple(values)
        if len(values) != total:
            raise ValueError(f"expected {total} values, got {len(values)}")
        cells = tuple(
            Cell.of_ints(rank_vec, combo) for combo in iter_product(*(range(s) for s in sizes))
        )
        return cls(cfg, cells, values)

    @classmethod
    def from_pieces(cls, cfg: GridConfig, pieces, validate: bool = False) -> "StepFunction":
        """Build from (cell, value) pairs; sorts into canonical order.

        With `validate`, first checks that the cells tile the cube.
        """
        pieces = list(pieces)
        if validate:
            validate_partition(cfg, [c for c, _ in pieces])
        pieces.sort(key=lambda cv: cv[0].sort_key(cfg))
        return cls(cfg, tuple(c for c, _ in pieces), tuple(v for _, v in pieces))

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def value_at(self, pt: PointCode):
        """Value of the unique cell containing the point's deepest cell."""
        cfg = self.cfg
        deepest = Cell(tuple(seq.depth for seq in cfg.seqs), tuple(
            int(point_position(cfg, pt, j) * seq.moduli[-1]) for j, seq in enumerate(cfg.seqs)))
        for cell, value in zip(self.cells, self.values):
            if cell.contains(cfg, deepest):
                return value
        raise ValueError("point is not covered by the partition")

    def map_values(self, fn) -> "StepFunction":
        return StepFunction(self.cfg, self.cells, tuple(fn(v) for v in self.values))

    def abs(self) -> "StepFunction":
        return self.map_values(value_abs)

    def integral(self, box: Cell | None = None):
        """Exact integral over `box` (default: the whole cube), which may be
        any mixed-rank cell; no refinement pass is needed."""
        return weighted_sum(self.cfg, self.values, box_weights(self.cfg, self.cells, box))

    def uniform_values(self, rank_vec) -> list:
        """Flat value list on the per-dimension uniform grid `rank_vec`,
        refused over the cell cap before any is listed."""
        cfg, rank_vec = self.cfg, tuple(rank_vec)
        sizes = uniform_sizes(cfg, rank_vec)
        strides = [prod(sizes[j + 1:]) for j in range(len(sizes))]
        out = [None] * prod(sizes)
        for cell, value in zip(self.cells, self.values):
            spans = []
            for j, (seq, k, n, q) in enumerate(zip(cfg.seqs, cell.ranks, cell.indices, rank_vec)):
                if k > q:
                    raise ValueError(f"cell rank {k} in dim {j} exceeds target rank {q}")
                spans.append(seq.descendants(k, n, q))
            for combo in iter_product(*spans):
                out[sum(i * s for i, s in zip(combo, strides))] = value
        return out


def weighted_sum(cfg: GridConfig, values, weights):
    """sum of v * w / unit over the cells with a weight (see box_weights).
    Exact values sum in integers into one Fraction; with any float or
    complex value, ``tree_sum`` adds v * (w / unit) for a float or complex
    v, Fraction(v * w, unit) for an exact one, and the int 0 (same bits) for 0."""
    unit = weight_unit(cfg)
    pairs = [(v, w) for v, w in zip(values, weights) if w is not None]
    if all(isinstance(v, _EXACT_TYPES) for v, _ in pairs):
        return Fraction(sum(v * w for v, w in pairs), unit)
    return tree_sum([v * (w / unit) if not isinstance(v, _EXACT_TYPES)
                     else Fraction(v * w, unit) if v else 0 for v, w in pairs], zero=Fraction(0))


def common_refinement(f: StepFunction, g: StepFunction):
    """(cell, f_value, g_value) triples on the coarsest common refinement.

    The cells are the nonempty intersections of a cell of f with a cell
    of g, in canonical order; both partitions must tile the cube.  A
    one-cell side (a constant) leaves the other side's cells as they are.
    """
    if f.cfg != g.cfg:
        raise ConfigMismatch("step functions live on different grids")
    if f.cells == g.cells:
        return list(zip(f.cells, f.values, g.values))
    if len(g.cells) == 1:
        return [(c, fv, g.values[0]) for c, fv in zip(f.cells, f.values)]
    if len(f.cells) == 1:
        return [(c, f.values[0], gv) for c, gv in zip(g.cells, g.values)]
    if f.dim == 1:
        return _merge_1d(f, g)
    pairs = []
    if meeting_pairs(f.cfg, [0] * f.dim, list(zip(f.cells, f.values)),
                     list(zip(g.cells, g.values)), pairs):
        pairs = list({(id(a), id(b)): (a, av, b, bv) for a, av, b, bv in pairs}.values())
    return sorted(((a.meet(b), av, bv) for a, av, b, bv in pairs),
                  key=lambda t: t[0].sort_key(f.cfg))


def _merge_1d(f: StepFunction, g: StepFunction):
    """The sweep's one-dimensional case: a linear merge of two sorted
    partitions, on integer end positions; output size is at most
    len(f) + len(g) - 1."""
    widths = f.cfg.seqs[0].widths
    fa, fb = f.cells, g.cells
    i = j = 0
    out = []
    while i < len(fa) and j < len(fb):
        a, b = fa[i], fb[j]
        (ka,), (kb,) = a.ranks, b.ranks
        out.append((a if ka >= kb else b, f.values[i], g.values[j]))
        end_a = (a.indices[0] + 1) * widths[ka]
        end_b = (b.indices[0] + 1) * widths[kb]
        if end_a <= end_b:
            i += 1
        if end_b <= end_a:
            j += 1
    if i < len(fa) or j < len(fb):
        raise ValueError("partitions do not cover the same region")
    return out


def zip_with(f: StepFunction, g: StepFunction, fn) -> StepFunction:
    """Pointwise combination on the common refinement."""
    triples = common_refinement(f, g)
    return StepFunction(
        f.cfg,
        tuple(c for c, _, _ in triples),
        tuple(fn(a, b) for _, a, b in triples),
    )


def pointwise_max(f: StepFunction, g: StepFunction) -> StepFunction:
    """max(f, g) for real-valued step functions."""
    return zip_with(f, g, lambda a, b: a if leq_exact_or_float(b, a) else b)


def running_max(best, value):
    """Fold |value| into a running maximum as ``pointwise_max`` does: on a
    tie the earlier value stays; None means nothing is folded yet."""
    new = value_abs(value)
    return best if best is not None and leq_exact_or_float(new, best) else new
