"""Finitely supported orthogonal series and their additive interval functions.

A CoeffMap assigns coefficients to multi-indices of the generalized Haar
system (mode "haar") or the Price system (mode "price") over one grid.
Every sum of terms is built from the systems' term builders
(``add_haar_term``, ``price_term``).  Partial sums stabilize once the
cutoff rank reaches the map's stabilization rank R, so the stabilized
sum S_R is a finite step function, the density of the induced additive
function on cells:

    Psi(I) = integral over I of S_N = integral over I of S_R,
             for any N >= max(R, rank(I)),

evaluated as one exact step-function integral over the (possibly
mixed-rank) box.  Coefficients may be UnitValue objects, in which case
products with system values stay exact until the final conversion; this
is what keeps integer-valued series (values up to the 2**52 guard)
exactly representable.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import product as iter_product
from math import isfinite, isqrt, prod

from .errors import ConfigMismatch, ValueGuardError
from .grid import Cell, GridConfig
from .stepfn import StepFunction, pointwise_max, uniform_sizes, value_abs
from .systems import (
    UnitValue,
    add_haar_term,
    block_of_index,
    block_range,
    haar_sup_sq,
    price_haar_matrix,
    price_term,
)

VALUE_GUARD = 2 ** 52

MODES = ("haar", "price")


def _index_block(cfg: GridConfig, nvec) -> int:
    """Stabilization rank of one multi-index: the largest per-dimension
    block, which is where a term of either system becomes constant."""
    return max(block_of_index(seq, n) for seq, n in zip(cfg.seqs, nvec))


def _coeff_magnitude_bound(value) -> int:
    """Integer upper bound on |value| for the exactness guard."""
    if isinstance(value, UnitValue):
        return isqrt(value.radicand) + 1
    if isinstance(value, (int, Fraction)):
        v = value if value >= 0 else -value
        return int(v) + 1
    return None  # float/complex coefficients are not guarded


class CoeffMap:
    """Finitely supported coefficients over one grid, in one mode."""

    def __init__(self, cfg: GridConfig, entries, mode: str = "haar"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.cfg = cfg
        self.mode = mode
        cleaned = {}
        for nvec, value in dict(entries).items():
            nvec = tuple(int(n) for n in nvec)
            if len(nvec) != cfg.dim:
                raise ConfigMismatch(
                    f"index {nvec} has {len(nvec)} entries, grid has {cfg.dim} dims"
                )
            _index_block(cfg, nvec)  # validates each index against the depth
            cleaned[nvec] = value
        self._entries = dict(sorted(cleaned.items()))
        self._check_guard()

    def _check_guard(self):
        """Refuse series whose exact values could exceed 2**52.

        Applies when every coefficient is exact; the bound is the worst-case
        partial-sum value sum_n |a_n| * ||chi_n||_inf, over-approximated in
        integer arithmetic.
        """
        total = 0
        for nvec, value in self._entries.items():
            mag = _coeff_magnitude_bound(value)
            if mag is None:
                return
            sup_sq = haar_sup_sq(self.cfg, nvec) if self.mode == "haar" else 1
            total += mag * (isqrt(sup_sq) + 1)
        if total > VALUE_GUARD:
            raise ValueGuardError(
                f"exact series values may reach {total} > 2**52; refuse to build"
            )

    def items(self):
        return self._entries.items()

    def __len__(self):
        return len(self._entries)

    def support(self):
        return tuple(self._entries)

    def get(self, nvec, default=0):
        return self._entries.get(tuple(nvec), default)

    @property
    def stabilization_rank(self) -> int:
        """Smallest N such that the partial sum S_N contains every term."""
        if not self._entries:
            return 0
        return max(_index_block(self.cfg, nvec) for nvec in self._entries)

    @cached_property
    def _haar_bands(self) -> tuple[StepFunction, ...]:
        """S_k for k = 0..R as sparse step functions (Haar mode), built once
        per map: S_k is S_{k-1} plus the terms of block k, each added on
        its own support."""
        bands = {}
        for nvec, coeff in self.items():
            bands.setdefault(_index_block(self.cfg, nvec), []).append((nvec, coeff))
        current, sums = StepFunction.constant(self.cfg, 0), []
        for k in range(self.stabilization_rank + 1):
            for nvec, coeff in bands.get(k, ()):
                current = add_haar_term(current, nvec, coeff)
            sums.append(current)
        return tuple(sums)

    def __eq__(self, other):
        return (
            isinstance(other, CoeffMap)
            and self.cfg == other.cfg
            and self.mode == other.mode
            and self._entries == other._entries
        )

    def __repr__(self):
        return f"CoeffMap(mode={self.mode!r}, {len(self._entries)} entries)"


def partial_sum(coeffs: CoeffMap, N: int) -> StepFunction:
    """S_N on the uniform rank-N partition.

    Includes exactly the terms whose every per-dimension index is below
    that dimension's rank-N modulus; for N >= stabilization_rank this is
    the full sum.  Each term comes from its system's term builder and is
    added cell by cell, in the map's sorted order.
    """
    cfg, ranks = coeffs.cfg, (N,) * coeffs.cfg.dim
    vals = [0] * prod(uniform_sizes(cfg, ranks))
    for nvec, coeff in coeffs.items():
        if _index_block(cfg, nvec) <= N:
            term = (add_haar_term(StepFunction.constant(cfg, 0), nvec, coeff)
                    if coeffs.mode == "haar" else price_term(cfg, nvec, coeff))
            vals = [a + b for a, b in zip(vals, term.uniform_values(ranks))]
    return StepFunction.on_grid(cfg, ranks, vals)


# ---------------------------------------------------------------------------
# banded Haar sums


def stabilized_sum(coeffs: CoeffMap) -> StepFunction:
    """The full sum S_R: sparse in Haar mode, the rank-R grid in Price mode."""
    if coeffs.mode == "price":
        return partial_sum(coeffs, coeffs.stabilization_rank)
    return coeffs._haar_bands[-1]


def series_majorant(coeffs: CoeffMap) -> StepFunction:
    """sup over N of |S_N|: the running maximum of |S_k| for k = 0..R.

    Equals, cell by cell at rank R, the maximum of |Psi(I)| / mu(I) over
    the chain of uniform-rank ancestors I of the cell.
    """
    if coeffs.mode == "price":
        sums = (partial_sum(coeffs, k) for k in range(coeffs.stabilization_rank + 1))
    else:
        sums = coeffs._haar_bands
    return reduce(pointwise_max, (sf.abs() for sf in sums))


# ---------------------------------------------------------------------------
# additive interval functions


class AdditiveFn:
    """Additive function on cells, induced by a series or a density table."""

    def __init__(self, cfg: GridConfig, coeffs: CoeffMap | None = None,
                 density: StepFunction | None = None):
        if (coeffs is None) == (density is None):
            raise ValueError("provide exactly one of coeffs or density")
        self.cfg = cfg
        self.coeffs = coeffs
        self._density = density
        self._majorant = None

    @classmethod
    def from_series(cls, coeffs: CoeffMap) -> "AdditiveFn":
        return cls(coeffs.cfg, coeffs=coeffs)

    @classmethod
    def from_table(cls, cfg: GridConfig, rank: int, values) -> "AdditiveFn":
        """Back the function by explicit rank-R cell densities."""
        density = StepFunction.on_grid(cfg, (rank,) * cfg.dim, values)
        return cls(cfg, density=density)

    @property
    def stabilization_rank(self) -> int:
        if self.coeffs is not None:
            return self.coeffs.stabilization_rank
        return max(self._density.max_ranks())

    def value_on(self, box: Cell):
        """Psi(box): the integral of the density Psi' = S_R over the box,
        which may be any mixed-rank cell."""
        return self.derivative().integral(box)

    def derivative(self) -> StepFunction:
        """The rank-R density: Psi(I)/mu(I) on rank-R cells, as a step function."""
        if self._density is None:
            self._density = stabilized_sum(self.coeffs)
        return self._density

    def majorant(self) -> StepFunction:
        """Psi*(x) = sup_N |S_N(x)| (equivalently the ancestor-ratio maximum)."""
        if self._majorant is None:
            if self.coeffs is not None:
                self._majorant = series_majorant(self.coeffs)
            else:
                self._majorant = self._table_majorant()
        return self._majorant

    def _table_majorant(self) -> StepFunction:
        """Running maximum of |density| and its averages on the uniform
        rank-k cells, k < R."""
        density, cfg = self._density, self.cfg
        best = density.abs()
        for k in range(max(density.max_ranks())):
            cells = tuple(
                Cell((k,) * cfg.dim, combo)
                for combo in iter_product(*(range(seq.modulus(k)) for seq in cfg.seqs))
            )
            averages = tuple(value_abs(density.integral(c) / c.measure(cfg)) for c in cells)
            best = pointwise_max(best, StepFunction(cfg, cells, averages))
        return best


# ---------------------------------------------------------------------------
# basis change between the two systems


def price_coeffs_from_haar(coeffs: CoeffMap) -> CoeffMap:
    """Haar-mode map {a_l} -> Price-mode map {b_k}, block by block.

    b_k = sum_l conj(G_1[k1,l1] * ... * Gd[kd,ld]) * a_l with G the
    per-dimension block matrices; the result holds every coefficient of
    each touched block that is not exactly zero.
    """
    if coeffs.mode != "haar":
        raise ValueError("expected a haar-mode coefficient map")
    return _transform(coeffs, "price")


def haar_coeffs_from_price(coeffs: CoeffMap) -> CoeffMap:
    """Inverse transform: a_l = sum_k G_1[k1,l1] * ... * Gd[kd,ld] * b_k."""
    if coeffs.mode != "price":
        raise ValueError("expected a price-mode coefficient map")
    return _transform(coeffs, "haar")


def _transform(coeffs: CoeffMap, to_mode: str) -> CoeffMap:
    """Scatter each touched block into a dense array and apply conj(G_j)
    (to Price) or G_j transposed (to Haar) along axis j."""
    import numpy as np  # only gamma blocks and basis changes need it

    cfg = coeffs.cfg
    groups: dict[tuple[int, ...], dict] = {}
    for nvec, value in coeffs.items():
        block_vec = tuple(block_of_index(cfg.seqs[j], n) for j, n in enumerate(nvec))
        groups.setdefault(block_vec, {})[nvec] = value
    out = {}
    for block_vec, entries in groups.items():
        mats = [price_haar_matrix(cfg.seqs[j], t) for j, t in enumerate(block_vec)]
        offsets = [block_range(cfg.seqs[j], t)[0] for j, t in enumerate(block_vec)]
        block = np.zeros([g.shape[0] for g in mats], dtype=complex)
        for nvec, value in entries.items():
            exact = value.as_number() if isinstance(value, UnitValue) else value
            block[tuple(n - o for n, o in zip(nvec, offsets))] = complex(exact)
        for j, g in enumerate(mats):
            g = g.conj() if to_mode == "price" else g.T
            block = np.moveaxis(np.tensordot(g, block, axes=(1, j)), 0, j)
        for pos in zip(*np.nonzero(block)):
            out[tuple(int(i) + o for i, o in zip(pos, offsets))] = complex(block[pos])
    return CoeffMap(cfg, out, mode=to_mode)


# ---------------------------------------------------------------------------
# coefficient file format


def coeffs_to_json_dict(coeffs: CoeffMap) -> dict:
    """JSON form: mode, grid, and [index..., re, im] entry rows.

    Integral values are emitted as exact integers; irrational coefficients
    (UnitValue with non-square radicand) degrade to floats in this format.
    """
    entries = []
    for nvec, value in coeffs.items():
        num = value.as_number() if isinstance(value, UnitValue) else value
        if isinstance(num, Fraction) and num.denominator == 1:
            num = int(num)
        if isinstance(num, int):
            re, im = num, 0
        elif isinstance(num, complex):
            re, im = num.real, num.imag
        else:
            re, im = float(num), 0
        entries.append([list(nvec), re, im])
    return {
        "mode": coeffs.mode,
        "grid": coeffs.cfg.to_json_dict(),
        "entries": entries,
    }


def coeffs_from_json_dict(data: dict) -> CoeffMap:
    if not isinstance(data, dict):
        raise ValueError("coefficient file must be a JSON object")
    mode = data.get("mode")
    if mode not in MODES:
        raise ValueError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    cfg = GridConfig.from_json_dict(data.get("grid"))
    entries = {}
    rows = data.get("entries")
    if not isinstance(rows, list):
        raise ValueError("field 'entries' must be an array")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(f"entries[{i}] must be [[n_1..n_d], re, im]")
        nvec, re, im = row
        if not (isinstance(nvec, list) and all(isinstance(n, int) and not isinstance(n, bool) for n in nvec)):
            raise ValueError(f"entries[{i}][0] must be an array of integer indices")
        for pos, part in ((1, re), (2, im)):
            if isinstance(part, bool) or not isinstance(part, (int, float)):
                raise ValueError(f"entries[{i}][{pos}] must be a number, got {part!r}")
            if isinstance(part, float) and not isfinite(part):
                raise ValueError(f"entries[{i}][{pos}] must be finite, got {part!r}")
        if tuple(nvec) in entries:
            raise ValueError(f"entries[{i}] repeats index {nvec}")
        if im == 0 and isinstance(re, int):
            value = re
        else:
            value = complex(re, im)
        entries[tuple(nvec)] = value
    return CoeffMap(cfg, entries, mode=mode)
