"""Exact multiresolution grids on the unit cube, and the one interval rule.

A branching sequence ``p_1, ..., p_K`` (every entry >= 2) splits [0,1)
into ``m_k = p_1 * ... * p_k`` equal intervals at rank k; a grid is one
branching sequence per dimension, and a cell is a product of per-dimension
half-open intervals whose ranks may differ.  Rank-k interval n spans the
integer positions ``[n * w_k, (n + 1) * w_k)``, w = ``BranchSeq.widths``,
in units of the deepest intervals.  So two intervals of one sequence are
nested or disjoint, and the meet of two cells is a cell; this module reads
ancestors, descendants, containment, meets, splits and integer box weights
off that rule.  Coordinates and measures at the edges are exact Fractions,
and a point of [0,1) is coded by digits ``x_i < p_i`` at ``sum_i x_i / m_i``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from math import prod

from .errors import ConfigMismatch, DepthExhausted

MAX_UNIFORM_CELLS = 1 << 22  # cap on the cells a uniform grid or a box split may list


@dataclass(frozen=True)
class BranchSeq:
    """A finite branching sequence with cached moduli.

    Attributes:
        p: branching factors ``p_1..p_K``, each at least 2.
        moduli: ``m_0..m_K`` with ``m_0 = 1`` and ``m_k = m_{k-1} * p_k``.
        widths: ``m_K / m_k``, so rank-k interval n starts at integer
            position ``n * widths[k]`` in units of rank-K intervals.
    """

    p: tuple[int, ...]
    moduli: tuple[int, ...] = field(init=False, repr=False, compare=False)
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = tuple(int(v) for v in self.p)
        for i, v in enumerate(p):
            if v < 2:
                raise ValueError(f"branching factor p[{i}] must be >= 2, got {v}")
        object.__setattr__(self, "p", p)
        mods = [1]
        for v in p:
            mods.append(mods[-1] * v)
        object.__setattr__(self, "moduli", tuple(mods))
        object.__setattr__(self, "widths", tuple(mods[-1] // m for m in mods))

    @property
    def depth(self) -> int:
        return len(self.p)

    def modulus(self, k: int) -> int:
        """Return m_k, the number of rank-k intervals."""
        if not 0 <= k <= self.depth:
            raise DepthExhausted(
                f"rank {k} outside [0, {self.depth}] for a depth-{self.depth} sequence"
            )
        return self.moduli[k]

    def factor(self, k: int) -> int:
        """Return p_k (1-based), the split count from rank k-1 to rank k."""
        if not 1 <= k <= self.depth:
            raise DepthExhausted(f"no branching factor p_{k} at depth {self.depth}")
        return self.p[k - 1]

    def ancestor(self, k: int, n: int, q: int) -> int:
        """Index of the rank-q interval (q <= k) that holds rank-k interval n."""
        return n * self.widths[k] // self.widths[q]

    def descendants(self, k: int, n: int, q: int) -> range:
        """Indices of the rank-q intervals (q >= k) inside rank-k interval n."""
        ratio = self.widths[k] // self.widths[q]
        return range(n * ratio, (n + 1) * ratio)


@dataclass(frozen=True)
class GridConfig:
    """One branching sequence per dimension."""

    seqs: tuple[BranchSeq, ...]

    def __post_init__(self):
        if not self.seqs:
            raise ValueError("a grid needs at least one dimension")
        object.__setattr__(self, "seqs", tuple(self.seqs))

    @classmethod
    def from_lists(cls, lists) -> "GridConfig":
        return cls(tuple(BranchSeq(tuple(seq)) for seq in lists))

    @property
    def dim(self) -> int:
        return len(self.seqs)

    @property
    def min_depth(self) -> int:
        """Deepest rank valid across every dimension."""
        return min(seq.depth for seq in self.seqs)

    def to_json_dict(self) -> dict:
        """JSON form: dims, per-dimension factor arrays, common depth.

        The ``seqs`` arrays are authoritative (they carry their own lengths);
        ``depth`` records the deepest uniformly valid rank.
        """
        return {
            "dims": self.dim,
            "seqs": [list(seq.p) for seq in self.seqs],
            "depth": self.min_depth,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridConfig":
        if not isinstance(data, dict):
            raise ValueError("grid config must be a JSON object")
        seqs = data.get("seqs")
        if not isinstance(seqs, list) or not seqs:
            raise ValueError("grid config field 'seqs' must be a non-empty array")
        built = []
        for i, raw in enumerate(seqs):
            if not isinstance(raw, list) or not raw:
                raise ValueError(f"seqs[{i}] must be a non-empty array of integers")
            for k, v in enumerate(raw):
                if not isinstance(v, int) or isinstance(v, bool) or v < 2:
                    raise ValueError(f"seqs[{i}][{k}]: branching factor must be an integer >= 2, got {v!r}")
            built.append(BranchSeq(tuple(raw)))
        cfg = cls(tuple(built))
        for name, want in (("dims", cfg.dim), ("depth", cfg.min_depth)):
            got = data.get(name)
            if got is None:
                continue
            if not isinstance(got, int) or isinstance(got, bool):
                raise ValueError(f"grid config field {name!r} must be an integer, got {got!r}")
            if got != want:
                raise ValueError(f"{name} field says {got} but seqs give {want}")
        return cfg


@dataclass(frozen=True)
class Cell:
    """A product of per-dimension intervals, possibly of different ranks.

    Dimension j covers ``[indices[j] / m_{ranks[j]}, (indices[j]+1) / m_{ranks[j]})``.
    """

    ranks: tuple[int, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.indices):
            raise ValueError("ranks and indices must have equal length")
        object.__setattr__(self, "ranks", tuple(int(v) for v in self.ranks))
        object.__setattr__(self, "indices", tuple(int(v) for v in self.indices))

    @classmethod
    def of_ints(cls, ranks: tuple, indices: tuple) -> "Cell":
        """A cell from equal-length int tuples, taken as given: no ``__post_init__``."""
        cell = object.__new__(cls)
        cell.__dict__.update(ranks=ranks, indices=indices)
        return cell

    @property
    def dim(self) -> int:
        return len(self.ranks)

    def validate(self, cfg: GridConfig) -> None:
        if self.dim != cfg.dim:
            raise ConfigMismatch(f"cell has {self.dim} dims, grid has {cfg.dim}")
        for j, (k, n) in enumerate(zip(self.ranks, self.indices)):
            m = cfg.seqs[j].modulus(k)  # raises DepthExhausted on bad rank
            if not 0 <= n < m:
                raise ValueError(f"dim {j}: index {n} outside [0, {m}) at rank {k}")

    def measure(self, cfg: GridConfig) -> Fraction:
        return Fraction(1, prod(cfg.seqs[j].modulus(k) for j, k in enumerate(self.ranks)))

    def start(self, cfg: GridConfig, j: int) -> Fraction:
        return Fraction(self.indices[j], cfg.seqs[j].modulus(self.ranks[j]))

    def end(self, cfg: GridConfig, j: int) -> Fraction:
        return Fraction(self.indices[j] + 1, cfg.seqs[j].modulus(self.ranks[j]))

    def sort_key(self, cfg: GridConfig) -> tuple[int, ...]:
        """Canonical order: per dimension the integer start position
        (``widths``), then the rank.  The cell must be valid on `cfg`."""
        return tuple(x for seq, k, n in zip(cfg.seqs, self.ranks, self.indices)
                     for x in (n * seq.widths[k], k))

    def contains(self, cfg: GridConfig, other: "Cell") -> bool:
        """Whole-cell containment: every dimension of `other` nests in self."""
        for seq, ka, na, kb, nb in zip(cfg.seqs, self.ranks, self.indices,
                                       other.ranks, other.indices):
            if kb < ka or seq.ancestor(kb, nb, ka) != na:
                return False
        return True

    def meets(self, cfg: GridConfig, other: "Cell") -> bool:
        """Whether two cells valid on `cfg` meet: per dimension the coarser
        interval must be the finer one's ancestor."""
        for seq, ka, na, kb, nb in zip(cfg.seqs, self.ranks, self.indices,
                                       other.ranks, other.indices):
            if ka < kb:
                ka, na, kb, nb = kb, nb, ka, na
            if seq.ancestor(ka, na, kb) != nb:
                return False
        return True

    def intersect(self, cfg: GridConfig, other: "Cell"):
        """Intersection cell, or None when disjoint: the `meet` of cells
        that `meets`."""
        return self.meet(other) if self.meets(cfg, other) else None

    def meet(self, other: "Cell") -> "Cell":
        """The intersection of two cells known to meet: the finer interval in
        each dimension, and either cell itself when it is finer throughout."""
        ranks = tuple(map(max, self.ranks, other.ranks))
        if ranks == self.ranks:
            return self
        if ranks == other.ranks:
            return other
        return Cell(ranks, tuple(na if x >= y else nb for x, y, na, nb in
                                 zip(self.ranks, other.ranks, self.indices, other.indices)))


def full_cube(dim: int) -> Cell:
    """The rank-0 cell covering the whole unit cube."""
    return Cell((0,) * dim, (0,) * dim)


def cell_from_json_dict(data) -> Cell:
    """Parse {"ranks": [...], "indices": [...]} into a Cell."""
    if not isinstance(data, dict):
        raise ValueError("cell must be a JSON object with 'ranks' and 'indices'")
    for field in ("ranks", "indices"):
        row = data.get(field)
        if not isinstance(row, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in row
        ):
            raise ValueError(f"cell field {field!r} must be an array of integers >= 0")
    return Cell(tuple(data["ranks"]), tuple(data["indices"]))


def refine_cell(cfg: GridConfig, cell: Cell, dim: int) -> tuple[Cell, ...]:
    """Split `cell` along one dimension into its rank+1 children.

    Raises DepthExhausted when that dimension's sequence is used up.
    """
    cell.validate(cfg)
    k, seq = cell.ranks[dim], cfg.seqs[dim]
    if k >= seq.depth:
        raise DepthExhausted(f"dim {dim} already at maximal rank {k}")
    ranks = (*cell.ranks[:dim], k + 1, *cell.ranks[dim + 1:])
    before, after = cell.indices[:dim], cell.indices[dim + 1:]
    return tuple(Cell(ranks, (*before, n, *after))
                 for n in seq.descendants(k, cell.indices[dim], k + 1))


def decompose_box(cfg: GridConfig, box: Cell) -> tuple[Cell, ...]:
    """Partition a mixed-rank box into uniform cells at its maximal rank.

    The output rank is ``K = max(box.ranks)``; each dimension j contributes
    the ``m_K / m_{k_j}`` rank-K children of its interval, and the partition
    is their product, ordered lexicographically; a split into more than
    MAX_UNIFORM_CELLS cells is refused before any is built.
    """
    box.validate(cfg)
    K = max(box.ranks)
    if K > cfg.min_depth:  # some dimension has no rank-K split
        j, seq = next((j, seq) for j, seq in enumerate(cfg.seqs) if seq.depth < K)
        raise DepthExhausted(f"the box's finest rank {K} exceeds the depth {seq.depth} of dimension {j}")
    ranges = [seq.descendants(k, n, K) for seq, k, n in zip(cfg.seqs, box.ranks, box.indices)]
    count = prod(len(r) for r in ranges)
    if count > MAX_UNIFORM_CELLS:
        raise ValueError(f"box splits into {count} rank-{K} cells, over the {MAX_UNIFORM_CELLS} cap")
    return tuple(Cell((K,) * cfg.dim, combo) for combo in iter_product(*ranges))


@dataclass(frozen=True)
class PointCode:
    """A point of [0,1)^d as finite digit strings, one per dimension."""

    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "digits", tuple(tuple(int(x) for x in row) for row in self.digits)
        )

    @property
    def dim(self) -> int:
        return len(self.digits)


def point_code(cfg: GridConfig, *digit_rows) -> PointCode:
    """Build a PointCode, validating digit ranges against the grid."""
    if len(digit_rows) != cfg.dim:
        raise ConfigMismatch(f"expected {cfg.dim} digit rows, got {len(digit_rows)}")
    for j, row in enumerate(digit_rows):
        seq = cfg.seqs[j]
        if len(row) > seq.depth:
            raise DepthExhausted(f"dim {j}: {len(row)} digits exceed depth {seq.depth}")
        for i, x in enumerate(row):
            if not 0 <= x < seq.factor(i + 1):
                raise ValueError(f"dim {j}: digit x_{i + 1} = {x} outside [0, {seq.factor(i + 1)})")
    return PointCode(tuple(tuple(row) for row in digit_rows))


def point_position(cfg: GridConfig, pt: PointCode, j: int) -> Fraction:
    """Exact coordinate of the point in dimension j: sum_i x_i / m_i."""
    seq = cfg.seqs[j]
    return sum(
        (Fraction(x, seq.modulus(i + 1)) for i, x in enumerate(pt.digits[j])),
        start=Fraction(0),
    )


def cell_of_point(cfg: GridConfig, pt: PointCode, rank: int) -> Cell:
    """The unique rank-`rank` cell containing the point.

    Dimension j gets the rank-`rank` ancestor of the position of the first
    `rank` digits, ``sum_{i<=rank} x_i * m_rank / m_i``: the digit string
    read as a mixed-radix numeral.
    """
    if pt.dim != cfg.dim:
        raise ConfigMismatch(f"point has {pt.dim} dims, grid has {cfg.dim}")
    indices = []
    for j in range(cfg.dim):
        seq = cfg.seqs[j]
        if rank > seq.depth:
            raise DepthExhausted(f"rank {rank} exceeds depth {seq.depth} in dim {j}")
        if len(pt.digits[j]) < rank:
            raise DepthExhausted(
                f"dim {j}: point has {len(pt.digits[j])} digits, rank {rank} needs {rank}"
            )
        position = sum(x * w for x, w in zip(pt.digits[j][:rank], seq.widths[1:]))
        indices.append(seq.ancestor(seq.depth, position, rank))
    return Cell((rank,) * cfg.dim, tuple(indices))


def meeting_pairs(cfg: GridConfig, ranks, F, G, out) -> bool:
    """Append (a, a_payload, b, b_payload) for every pair of meeting cells.

    F and G are (cell, payload) lists tiling the region of rank vector
    `ranks`.  A single cell meets every cell of the other side; otherwise
    the region splits along one dimension, preferably one that no cell of
    F (or of G) spans, so that each pair lands in one child.  Only a
    pinwheel on both sides (d >= 3) forces a split that repeats pairs,
    and then the return value is True.  Raises ValueError on a gap or an
    overlap.
    """
    if not F or not G:
        raise ValueError("a partition leaves part of the region uncovered")
    if len(F) == 1 or len(G) == 1:
        out.extend((*a, *b) for a in F for b in G)
        return False
    best = None
    for j, r in enumerate(ranks):
        span_f = sum(a.ranks[j] <= r for a, _ in F)
        span_g = sum(b.ranks[j] <= r for b, _ in G)
        if span_f + span_g < len(F) + len(G):  # something is finer along j
            key = (span_f > 0 and span_g > 0, span_f + span_g, j)
            best = key if best is None else min(best, key)
    if best is None:  # every cell contains the region
        x, y = (F if len(F) > 1 else G)[:2]
        raise ValueError(f"cells {x[0]} and {y[0]} overlap")
    repeats, _, j = best
    child = list(ranks)
    child[j] += 1
    for fc, gc in zip(_split_along(cfg, F, ranks, j), _split_along(cfg, G, ranks, j)):
        repeats |= meeting_pairs(cfg, child, fc, gc, out)
    return repeats


def _split_along(cfg: GridConfig, items, ranks, j: int) -> list[list]:
    """Bucket (cell, payload) items by the region's children along dim j;
    an item whose interval spans the region goes into every bucket."""
    seq = cfg.seqs[j]
    r = ranks[j]
    p = seq.p[r]
    buckets = [[] for _ in range(p)]
    for item in items:
        k = item[0].ranks[j]
        if k <= r:
            for bucket in buckets:
                bucket.append(item)
        else:
            buckets[seq.ancestor(k, item[0].indices[j], r + 1) % p].append(item)
    return buckets


def validate_partition(cfg: GridConfig, cells, region: Cell | None = None) -> None:
    """Check that `cells` tile `region` (default: the whole cube) exactly.

    Verifies containment and the measure sum (in integer units of the
    deepest cells), then sweeps the cells against themselves to find any
    overlap: about cell count times depth, with no pairwise pass.
    """
    region = region if region is not None else full_cube(cfg.dim)
    region.validate(cfg)
    cells = list(cells)
    for c in cells:
        c.validate(cfg)
        if not region.contains(cfg, c):
            raise ValueError(f"cell {c} is not inside the region {region}")
    total, want = sum(box_weights(cfg, cells)), box_weights(cfg, [region])[0]
    if total != want:
        unit = weight_unit(cfg)
        raise ValueError(
            f"partition measures sum to {Fraction(total, unit)}, "
            f"region has measure {Fraction(want, unit)}"
        )
    items = [(c, None) for c in cells]
    meeting_pairs(cfg, list(region.ranks), items, items, [])


def weight_unit(cfg: GridConfig) -> int:
    """The common denominator of the weights: prod_j m_{K_j}, the number
    of deepest cells."""
    return prod(seq.widths[0] for seq in cfg.seqs)


def box_weights(cfg: GridConfig, cells, box: Cell | None = None) -> list:
    """Each cell's measure inside `box` (default: the whole cube) as an
    integer count of deepest cells, or None where the cell misses the box.

    Per dimension a cell spans the integer positions [n w_k, (n + 1) w_k);
    intervals of one sequence nest or miss, so where they meet the
    overlap is the narrower width.
    """
    widths = [seq.widths for seq in cfg.seqs]
    if box is not None:
        box.validate(cfg)
    if box is None or not any(box.ranks):
        return [prod(map(tuple.__getitem__, widths, c.ranks)) for c in cells]
    spans = [(n * w[k], (n + 1) * w[k], w[k]) for w, k, n in zip(widths, box.ranks, box.indices)]
    out = []
    for c in cells:
        weight = 1
        for w, k, n, (lo, hi, span) in zip(widths, c.ranks, c.indices, spans):
            width = w[k]
            start = n * width
            if start >= hi or start + width <= lo:
                weight = None
                break
            weight *= width if width < span else span
        out.append(weight)
    return out
