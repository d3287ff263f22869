"""Orthonormal function systems attached to a branching sequence.

Three families, all constant on cells and evaluated exactly:

* the generalized Haar system: flat index n >= 1 decodes to a rank k,
  a support cell r, and a frequency s; the function is
  sqrt(m_k) * exp(2*pi*i * x_{k+1} * s / p_{k+1}) on its support cell
  and zero elsewhere, with chi_0 identically one;
* the classical dyadic Haar system in two-index form (k, i), kept for
  the numbering bridge to the generalized system when every p equals 2;
* the Price system: psi_k(x) = exp(2*pi*i * sum_j alpha_j x_j / p_j)
  where k = sum_j alpha_j m_{j-1} in mixed radix; |psi_k| = 1.

Values are carried as UnitValue objects (sqrt of an integer times a root
of unity with exact rational phase) so that products of system values and
exact coefficients never round until the final conversion to a number.

Each system has one term builder, ``haar_term`` and ``price_term``, and
both give coeff times a tensor basis function in one shape: a support
cell, per dimension its rank and index and the rank and count of its
pieces, and the value on each piece.  One adder, ``add_terms``, adds such
terms to any step function, splitting only the cells each term meets by
one rule (``haar_pieces``): a Haar term's pieces are the p_{k+1} children
of its rank-k support, a Price term's the m_t cells of its block rank t;
a cell coarser than the pieces splits the support's interval if it holds
it, else its own; a piece's key is its index mod the piece count.
Tables, partial sums, series densities and recovery bases go through it;
``tensor_price_step`` lays a Price term on its uniform grid instead.
``price_term`` converts each distinct phase once, and ``gamma_codes``
gives a gamma block as its at most m + 1 distinct values and one integer
code per entry, so ``systems --gamma-block`` renders each value once.
"""
from __future__ import annotations

import cmath
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from math import isqrt, lcm, prod, sqrt
from operator import mul

from .errors import ConfigMismatch, DepthExhausted
from .grid import BranchSeq, Cell, GridConfig, PointCode, full_cube
from .stepfn import MAX_UNIFORM_CELLS, StepFunction, running_max, uniform_sizes, zip_with

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class UnitValue:
    """sqrt(radicand) times a root of unity, tracked exactly.

    ``radicand`` is a nonnegative integer (0 encodes the zero value) and
    ``phase`` is in turns, normalized to [0, 1).  Multiplication multiplies
    radicands and adds phases mod 1, so products of system values stay
    exact; conversion to an ordinary number happens once, at the end.
    """

    radicand: int
    phase: Fraction = Fraction(0)

    def __post_init__(self):
        if self.radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        phase = Fraction(self.phase) % 1 if self.radicand else Fraction(0)
        object.__setattr__(self, "phase", phase)

    @property
    def is_zero(self) -> bool:
        return self.radicand == 0

    @property
    def abs_sq(self) -> int:
        return self.radicand

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        return UnitValue(self.radicand * other.radicand, self.phase + other.phase)

    def conjugate(self) -> "UnitValue":
        return UnitValue(self.radicand, -self.phase)

    def times(self, coeff):
        """coeff * self as a number, exactly when both sides are exact."""
        if isinstance(coeff, UnitValue):
            return (coeff * self).as_number()
        return coeff * self.as_number()

    def as_number(self):
        """Exact int/Fraction when the phase is 0 or 1/2 and the radicand
        is a perfect square; a float/complex otherwise."""
        if self.radicand == 0:
            return 0
        root = isqrt(self.radicand)
        exact = root * root == self.radicand
        if self.phase == 0:
            return root if exact else sqrt(self.radicand)
        if self.phase == _HALF:
            return -root if exact else -sqrt(self.radicand)
        mag = root if exact else sqrt(self.radicand)
        return mag * cmath.exp(2j * cmath.pi * float(self.phase))


UnitValue.ZERO = UnitValue(0)
UnitValue.ONE = UnitValue(1)


# ---------------------------------------------------------------------------
# index codecs


def haar_decode(seq: BranchSeq, n: int) -> tuple[int, int, int]:
    """Flat index n >= 1 -> (k, r, s): rank, support cell, frequency.

    Inverse of ``haar_encode``; the block of rank k+1 spans flat indices
    [m_k, m_{k+1}), laid out as n = m_k + r*(p_{k+1} - 1) + s - 1 with
    0 <= r < m_k and 1 <= s < p_{k+1}.
    """
    if n < 1:
        raise ValueError(f"flat index must be >= 1 (0 is the constant), got {n}")
    k = block_of_index(seq, n) - 1
    rem, width = n - seq.moduli[k], seq.p[k] - 1
    return k, rem // width, rem % width + 1


def haar_encode(seq: BranchSeq, k: int, r: int, s: int) -> int:
    m_k = seq.modulus(k)
    p = seq.factor(k + 1)
    if not 0 <= r < m_k:
        raise ValueError(f"support index r={r} outside [0, {m_k})")
    if not 1 <= s < p:
        raise ValueError(f"frequency s={s} outside [1, {p})")
    return m_k + r * (p - 1) + s - 1


def block_of_index(seq: BranchSeq, n: int) -> int:
    """Block rank of a flat index: 0 for n=0, else t with m_{t-1} <= n < m_t."""
    if n < 0:
        raise ValueError(f"flat index must be nonnegative, got {n}")
    t = bisect_right(seq.moduli, n)  # m_0 = 1, so n = 0 gives 0
    if t > seq.depth:
        raise DepthExhausted(f"flat index {n} needs rank beyond depth {seq.depth}")
    return t


def classical_to_flat(k: int, i: int) -> int:
    """Two-index dyadic Haar (k, i) -> generalized flat index.

    chi_k^(i) (1 <= i <= 2^k) is the generalized function with rank k,
    support cell i-1, frequency 1; its flat index is 2^k + i - 1.
    """
    if k < 0 or not 1 <= i <= 2 ** k:
        raise ValueError(f"two-index pair ({k}, {i}) out of range")
    return 2 ** k + i - 1


def classical_from_flat(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError(f"flat index must be >= 1, got {n}")
    k = n.bit_length() - 1
    return k, n - 2 ** k + 1


def price_digits(seq: BranchSeq, k: int) -> tuple[int, ...]:
    """Mixed-radix digits (alpha_1, ..., alpha_t) of k = sum alpha_j m_{j-1},
    trimmed so the last digit is nonzero (empty for k = 0)."""
    if k < 0:
        raise ValueError(f"Price index must be nonnegative, got {k}")
    if k >= seq.modulus(seq.depth):
        raise DepthExhausted(f"Price index {k} needs rank beyond depth {seq.depth}")
    digits = []
    rest = k
    for j in range(seq.depth):
        rest, a = divmod(rest, seq.factor(j + 1))
        digits.append(a)
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def price_encode(seq: BranchSeq, digits) -> int:
    k = 0
    for j, a in enumerate(digits):
        p = seq.factor(j + 1)
        if not 0 <= a < p:
            raise ValueError(f"digit alpha_{j + 1} = {a} outside [0, {p})")
        k += a * seq.modulus(j)
    return k


# ---------------------------------------------------------------------------
# point evaluation


def _digits_1d(pt) -> tuple[int, ...]:
    if isinstance(pt, PointCode):
        if pt.dim != 1:
            raise ConfigMismatch(f"expected a 1-D point, got {pt.dim} dimensions")
        return pt.digits[0]
    return tuple(pt)


def gen_haar_eval(seq: BranchSeq, n: int, pt) -> UnitValue:
    """Generalized Haar chi_n at a point given by its digit string.

    Needs at least k+1 digits, where k is the rank of index n; chi_0 is
    identically one.
    """
    digits = _digits_1d(pt)
    if n == 0:
        return UnitValue.ONE
    k, r, s = haar_decode(seq, n)
    if len(digits) < k + 1:
        raise DepthExhausted(f"index {n} needs {k + 1} digits, point has {len(digits)}")
    prefix = 0
    for i in range(k):
        prefix = prefix * seq.factor(i + 1) + digits[i]
    if prefix != r:
        return UnitValue.ZERO
    p = seq.factor(k + 1)
    return UnitValue(seq.modulus(k), Fraction(digits[k] * s, p))


def classical_haar_eval(k: int, i: int, pt) -> UnitValue:
    """Two-index dyadic Haar function chi_k^(i) at a binary digit string.

    +sqrt(2^k) on the left half of [(i-1)/2^k, i/2^k), -sqrt(2^k) on the
    right half, zero outside.
    """
    digits = _digits_1d(pt)
    if k < 0 or not 1 <= i <= 2 ** k:
        raise ValueError(f"two-index pair ({k}, {i}) out of range")
    if len(digits) < k + 1:
        raise DepthExhausted(f"pair ({k}, {i}) needs {k + 1} digits, point has {len(digits)}")
    if any(d not in (0, 1) for d in digits):
        raise ValueError("classical Haar needs binary digits")
    prefix = 0
    for b in digits[:k]:
        prefix = prefix * 2 + b
    if prefix != i - 1:
        return UnitValue.ZERO
    return UnitValue(2 ** k, Fraction(digits[k], 2))


def price_eval(seq: BranchSeq, k: int, pt) -> UnitValue:
    """Price function psi_k at a point: unit modulus, exact phase."""
    digits = _digits_1d(pt)
    alphas = price_digits(seq, k)
    if len(digits) < len(alphas):
        raise DepthExhausted(
            f"Price index {k} needs {len(alphas)} digits, point has {len(digits)}"
        )
    phase = Fraction(0)
    for j, a in enumerate(alphas):
        phase += Fraction(a * digits[j], seq.factor(j + 1))
    return UnitValue(1, phase)


# ---------------------------------------------------------------------------
# tensor step functions and inner products


def haar_sup_sq(cfg: GridConfig, nvec) -> int:
    """||chi_{n_1} x ... x chi_{n_d}||_inf^2 = prod of m_{t_j - 1} over the
    dimensions with n_j >= 1, where t_j is the block of n_j."""
    return prod(seq.modulus(block_of_index(seq, n) - 1) for seq, n in zip(cfg.seqs, nvec) if n)


def term_cells(cfg: GridConfig, nvec, mode: str) -> int:
    """The most cells one term can span, known before it is built: per
    dimension, a Haar term of block k + 1 has at most sum_{t<=k}(p_t - 1)
    zero siblings and p_{k+1} pieces; a Price term of block t has m_t cells."""
    blocks = [(seq, block_of_index(seq, n)) for seq, n in zip(cfg.seqs, nvec)]
    return prod(seq.modulus(t) if mode == "price" else sum(seq.p[:t]) - t + 1 for seq, t in blocks)


def haar_term(cfg: GridConfig, nvec, coeff):
    """coeff * chi_{n_1} x ... x chi_{n_d} for ``haar_pieces``: the support
    cell; per dimension (support rank, index, rank of the pieces, their
    count p), (0, 0, 0, 1) for n_j = 0; and the value on each child of the
    support by its per-dimension digits, each converted once.  Refused
    before it is built beyond the cell cap."""
    decoded = [None if n == 0 else haar_decode(seq, n) for seq, n in zip(cfg.seqs, nvec)]
    size = term_cells(cfg, nvec, "haar")
    if size > MAX_UNIFORM_CELLS:
        raise ValueError(
            f"Haar term {tuple(nvec)} spans up to {size} cells, "
            f"which exceeds the {MAX_UNIFORM_CELLS} cap"
        )
    dims, kids = [], []
    for seq, d in zip(cfg.seqs, decoded):
        if d is None:
            dims.append((0, 0, 0, 1))
            kids.append([UnitValue.ONE])
            continue
        k, r, s = d
        p = seq.p[k]
        dims.append((k, r, k + 1, p))
        kids.append([UnitValue(seq.moduli[k], Fraction(x * s, p)) for x in range(p)])
    support = Cell(tuple(d[0] for d in dims), tuple(d[1] for d in dims))
    values = {digits: reduce(mul, map(list.__getitem__, kids, digits)).times(coeff)
              for digits in iter_product(*(range(d[3]) for d in dims))}
    return support, dims, values


def haar_pieces(cfg: GridConfig, term, cell: Cell, value) -> list:
    """The (cell, value) pieces of a cell of value `value` that meets the
    support of `term` (``haar_term`` or ``price_term``): per dimension, the
    siblings of its path down to the support keep `value`, and the support's
    interval (the cell's own where finer) splits down to the piece rank,
    each piece gaining the value at its key, index mod p."""
    _, dims, values = term
    out = []
    spans = list(zip(cell.ranks, cell.indices))
    pieces = []  # per dimension: (rank, index, key) on the support
    for j, (k, r, kid_rank, p) in enumerate(dims):
        seq = cfg.seqs[j]
        t = spans[j][0]
        for rank in range(t, k):
            step = seq.ancestor(k, r, rank + 1)
            for sibling in seq.descendants(rank, seq.ancestor(k, r, rank), rank + 1):
                if sibling != step:
                    spans[j] = (rank + 1, sibling)
                    out.append((Cell.of_ints(*zip(*spans)), value))
        if t <= k:
            spans[j] = (k, r)
        fine = max(spans[j][0], kid_rank)
        pieces.append([(fine, n, seq.ancestor(fine, n, kid_rank) % p)
                       for n in seq.descendants(*spans[j], fine)])
    for combo in iter_product(*pieces):
        ranks, indices, keys = zip(*combo)
        out.append((Cell.of_ints(ranks, indices), value + values[keys]))
    return out


def add_terms(sf: StepFunction, terms) -> tuple[StepFunction, tuple]:
    """sf plus the terms of ``(block, term)`` pairs, in order, and per cell the
    ``running_max`` of |sum| over the blocks before its last change.  Each
    term splits only the leaves under sf's cells that meet its support, found
    from those roots down, into ``haar_pieces``; so with terms in block order
    a leaf's value once block k is in is the sum of blocks <= k there."""
    cfg = sf.cfg
    roots = [[cell, value, None, 0, None] for cell, value in zip(sf.cells, sf.values)]
    nodes = list(roots)  # cell, value, running max, block, children
    for block, term in terms:
        support = term[0]
        whole = not any(support.ranks)
        stack = [node for node in roots if whole or node[0].meets(cfg, support)]
        while stack:
            node = stack.pop()
            if node[4] is not None:
                stack.extend(kid for kid in node[4] if whole or kid[0].meets(cfg, support))
                continue
            cell, value, best, seen, _ = node
            if seen < block:
                best = running_max(best, value)
            pieces = haar_pieces(cfg, term, cell, value)
            if len(pieces) == 1:
                node[1:4] = pieces[0][1], best, block
            else:
                node[4] = [[piece, v, best, block, None] for piece, v in pieces]
                nodes += node[4]
    leaves = sorted((node for node in nodes if node[4] is None), key=lambda node: node[0].sort_key(cfg))
    cells, values, bests, _, _ = zip(*leaves)
    return StepFunction(cfg, cells, values), bests


def add_haar_term(sf: StepFunction, nvec, coeff) -> StepFunction:
    """sf + coeff * chi_{n_1} x ... x chi_{n_d}, refined only where the term
    lives: cells of sf missing its support keep their values untouched, and
    a cell meeting it becomes its ``haar_pieces``."""
    return add_terms(sf, [(0, haar_term(sf.cfg, nvec, coeff))])[0]


def tensor_haar_step(cfg: GridConfig, nvec) -> StepFunction:
    """chi_{n_1} x ... x chi_{n_d} as an exact, sparse step function: the
    support's children plus sum_{t<=k_j} (p_t - 1) zero cells per dimension."""
    nvec = tuple(nvec)
    if len(nvec) != cfg.dim:
        raise ConfigMismatch(f"index has {len(nvec)} entries, grid has {cfg.dim} dims")
    return add_haar_term(StepFunction.constant(cfg, 0), nvec, UnitValue.ONE)


def _price_row(seq: BranchSeq, k: int, modulus: int) -> list[int]:
    """psi_k on the m_t cells of its block rank t, as integer exponents over
    a multiple ``modulus`` of m_t: cell i with digits d_1..d_t has phase
    sum_j alpha_j d_j / p_j = e / modulus, e = sum_j alpha_j d_j (modulus / p_j)."""
    exponents = [0]
    for a, p in zip(price_digits(seq, k), seq.p):
        step = a * (modulus // p)
        exponents = [e + d * step for e in exponents for d in range(p)]
    return exponents


def price_term(cfg: GridConfig, kvec, coeff):
    """coeff * psi_{k_1} x ... x psi_{k_d} in ``haar_term``'s shape: the whole
    cube as support, (0, 0, t, m_t) per dimension of block rank t, and the
    value on every cell of those ranks, keyed by index in ``on_grid`` order.
    Refused before it is built beyond the cell cap.  UnitValue coefficients
    stay exact; each distinct phase E / lcm(m_{t_j}) is converted once."""
    kvec = tuple(kvec)
    if len(kvec) != cfg.dim:
        raise ConfigMismatch(f"index has {len(kvec)} entries, grid has {cfg.dim} dims")
    ranks = [block_of_index(seq, k) for seq, k in zip(cfg.seqs, kvec)]
    sizes = uniform_sizes(cfg, ranks)  # the cap, checked before any row is built
    big = lcm(*sizes)
    phases = [0]
    for seq, k in zip(cfg.seqs, kvec):
        phases = [(a + b) % big for a in phases for b in _price_row(seq, k, big)]
    value = {e: UnitValue(1, Fraction(e, big)).times(coeff) for e in set(phases)}
    dims = [(0, 0, t, m) for t, m in zip(ranks, sizes)]
    return full_cube(cfg.dim), dims, dict(zip(iter_product(*map(range, sizes)), map(value.get, phases)))


def tensor_price_step(cfg: GridConfig, kvec) -> StepFunction:
    """psi_{k_1} x ... x psi_{k_d}: the Price term with coefficient one, laid densely."""
    _, dims, values = price_term(cfg, kvec, UnitValue.ONE)
    return StepFunction.on_grid(cfg, [d[2] for d in dims], values.values())


def conj(v):
    return v.conjugate() if isinstance(v, complex) else v


def inner_product(f: StepFunction, g: StepFunction):
    """<f, g> = integral of f * conj(g) over the common refinement."""
    return zip_with(f, g, lambda a, b: a * conj(b)).integral()


# ---------------------------------------------------------------------------
# block change-of-basis matrices


MAX_GAMMA_ENTRIES = 1 << 26  # 1 GiB of complex128


def block_range(seq: BranchSeq, block_rank: int) -> range:
    """Flat indices of one block: {0} for rank 0, [m_{t-1}, m_t) for t >= 1."""
    if block_rank == 0:
        return range(0, 1)
    return range(seq.modulus(block_rank - 1), seq.modulus(block_rank))


def gamma_codes(seq: BranchSeq, block_rank: int):
    """Gamma block t as (values, codes) with G = values[codes]: the m + 1
    distinct entries omega**e * sqrt(m) / m (e < m) and exact zero, and per
    entry N(a, r) mod m on the diagonal sub-blocks, m elsewhere (see
    ``price_haar_matrix``)."""
    import numpy as np  # only gamma blocks and basis changes need it

    if block_rank == 0:
        return np.ones(1, dtype=complex), np.zeros((1, 1), dtype=np.int64)
    t = block_rank
    m, p = seq.modulus(t - 1), seq.factor(t)
    side = (p - 1) * m
    if side * side > MAX_GAMMA_ENTRIES:
        raise ValueError(
            f"gamma block {t} has side B = {side}: {side * side} entries "
            f"exceed the {MAX_GAMMA_ENTRIES} cap"
        )
    cells = np.arange(m)
    exponent = np.zeros((m, m), dtype=np.int64)
    for j in range(1, t):
        p_j = seq.factor(j)
        alpha = cells // seq.modulus(j - 1) % p_j
        digit = cells // (m // seq.modulus(j)) % p_j
        exponent += np.outer(alpha, digit * (m // p_j))
    values = np.append(np.exp(2j * np.pi * cells / m) * (sqrt(m) / m), 0j)
    # rows (alpha_t - 1, a), columns (r, s - 1)
    codes = np.full((p - 1, m, m, p - 1), m, dtype=np.int64)
    for s in range(p - 1):
        codes[s, :, :, s] = exponent % m
    return values, codes.reshape(side, side)


def price_haar_matrix(seq: BranchSeq, block_rank: int) -> np.ndarray:
    """Change-of-basis matrix G[k][l] = <psi_k, chi_l> within one block.

    Both systems restricted to block t span the same space of step
    functions, so G is unitary; psi_k = sum_l G[k][l] chi_l exactly.
    In closed form, with m = m_{t-1}, k = a + alpha_t * m and l decoded to
    (t-1, r, s): G[k][l] = [alpha_t = s] * omega**N(a, r) * sqrt(m) / m,
    where omega = exp(2*pi*i / m) and N = sum_{j<t} alpha_j d_j (m / p_j)
    over the Price digits alpha_j of a and the digits d_j of r (most
    significant first): the character table of Z_{p_1} x ... x Z_{p_{t-1}}
    on the p_t - 1 diagonal (s, s) sub-blocks, exact zeros elsewhere.
    """
    values, codes = gamma_codes(seq, block_rank)
    return values[codes]
