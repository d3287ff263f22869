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

Each system has one term builder that lays coeff times a tensor basis
function on cells, ``add_haar_term`` and ``price_term``: tables, partial
sums, Haar bands and recovery bases all go through them.  ``price_term``
converts each distinct phase once, and ``gamma_codes`` gives a gamma block
as its at most m + 1 distinct values and one integer code per entry, so
``systems --gamma-block`` renders each value once, in the same bytes.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from math import isqrt, lcm, prod, sqrt
from operator import mul

from .errors import ConfigMismatch, DepthExhausted
from .grid import BranchSeq, Cell, GridConfig, PointCode
from .stepfn import MAX_UNIFORM_CELLS, StepFunction, uniform_sizes, zip_with

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
    if n == 0:
        return 0
    for t in range(1, seq.depth + 1):
        if seq.moduli[t - 1] <= n < seq.moduli[t]:
            return t
    raise DepthExhausted(f"flat index {n} needs rank beyond depth {seq.depth}")


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


def add_haar_term(sf: StepFunction, nvec, coeff) -> StepFunction:
    """sf + coeff * chi_{n_1} x ... x chi_{n_d}, refined only where the term lives.

    Per dimension the term lives on one rank-k_j support cell (the whole
    interval for n_j = 0), constant on its p_{k_j+1} children.  Cells of
    sf missing the support keep their values untouched.  A cell meeting it
    splits into its pieces on the children, which gain the term's value,
    and a coarse zero complement: dimension by dimension, the siblings of
    the path from the cell down to the support.
    """
    cfg = sf.cfg
    decoded = [None if n == 0 else haar_decode(seq, n) for seq, n in zip(cfg.seqs, nvec)]
    size = term_cells(cfg, nvec, "haar")
    if size > MAX_UNIFORM_CELLS:
        raise ValueError(
            f"Haar term {tuple(nvec)} spans up to {size} cells, "
            f"which exceeds the {MAX_UNIFORM_CELLS} cap"
        )
    terms = []  # per dimension: support rank and index, rank of the pieces, their values
    for seq, d in zip(cfg.seqs, decoded):
        if d is None:
            terms.append((0, 0, 0, [UnitValue.ONE]))
            continue
        k, r, s = d
        p = seq.factor(k + 1)
        terms.append((k, r, k + 1, [UnitValue(seq.modulus(k), Fraction(x * s, p)) for x in range(p)]))
    support = Cell(tuple(t[0] for t in terms), tuple(t[1] for t in terms))
    out = []
    for cell, value in zip(sf.cells, sf.values):
        if cell.intersect(cfg, support) is None:
            out.append((cell, value))
            continue
        spans = list(zip(cell.ranks, cell.indices))
        pieces = []  # per dimension: (rank, index, UnitValue) pieces on the support
        for j, (k, r, kid_rank, kids) in enumerate(terms):
            seq = cfg.seqs[j]
            t = spans[j][0]
            for rank in range(t, k):
                node, step = (r // (seq.modulus(k) // seq.modulus(q)) for q in (rank, rank + 1))
                p = seq.factor(rank + 1)
                for sibling in range(node * p, node * p + p):
                    if sibling != step:
                        spans[j] = (rank + 1, sibling)
                        out.append((Cell(*zip(*spans)), value))
            if t < kid_rank:
                spans[j] = (k, r)
                pieces.append([(kid_rank, r * len(kids) + x, uv) for x, uv in enumerate(kids)])
            else:
                digit = spans[j][1] // (seq.modulus(t) // seq.modulus(kid_rank)) % len(kids)
                pieces.append([(*spans[j], kids[digit])])
        for combo in iter_product(*pieces):
            uv = reduce(mul, (c[2] for c in combo))
            out.append((Cell(*zip(*(c[:2] for c in combo))), value + uv.times(coeff)))
    return StepFunction.from_pieces(cfg, out)


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


def price_term(cfg: GridConfig, kvec, coeff) -> StepFunction:
    """coeff * psi_{k_1} x ... x psi_{k_d} on the uniform grid of its block
    ranks: dense, since it is nowhere zero, and refused before it is built
    beyond the cell cap.  UnitValue coefficients stay exact; each distinct
    phase E / lcm(m_{t_j}) is converted once."""
    kvec = tuple(kvec)
    if len(kvec) != cfg.dim:
        raise ConfigMismatch(f"index has {len(kvec)} entries, grid has {cfg.dim} dims")
    ranks = tuple(block_of_index(seq, k) for seq, k in zip(cfg.seqs, kvec))
    uniform_sizes(cfg, ranks)  # the cap, checked before any row is built
    big = lcm(*(seq.modulus(t) for seq, t in zip(cfg.seqs, ranks)))
    phases = [0]
    for seq, k in zip(cfg.seqs, kvec):
        phases = [(a + b) % big for a in phases for b in _price_row(seq, k, big)]
    value = {e: UnitValue(1, Fraction(e, big)).times(coeff) for e in set(phases)}
    return StepFunction.on_grid(cfg, ranks, [value[e] for e in phases])


def tensor_price_step(cfg: GridConfig, kvec) -> StepFunction:
    """psi_{k_1} x ... x psi_{k_d}: the Price term with coefficient one."""
    return price_term(cfg, kvec, UnitValue.ONE)


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
