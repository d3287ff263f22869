"""Finitely supported orthogonal series and their additive interval functions.

A CoeffMap assigns coefficients to multi-indices of the generalized Haar
system (mode "haar") or the Price system (mode "price") over one grid.
Every sum of terms is built by ``add_terms`` from the systems' term
builders (``haar_term``, ``price_term``).  Partial sums stabilize once the
cutoff rank reaches the map's stabilization rank R, so the stabilized
sum S_R is a finite step function, the density of the induced additive
function on cells:

    Psi(I) = integral over I of S_N = integral over I of S_R,
             for any N >= max(R, rank(I)),

evaluated as one exact step-function integral over the (possibly
mixed-rank) box.  In both modes S_R and its majorant sup_k |S_k| come
from one ``add_terms`` pass down the support tree, which splits only the
cells each term meets.  Coefficients may be UnitValue objects, in
which case products with system values stay exact until the final
conversion; this is what keeps integer-valued series (values up to the
2**52 guard) exactly representable.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isfinite, isqrt, prod

from .errors import ConfigMismatch, ValueGuardError
from .grid import Cell, GridConfig
from .stepfn import StepFunction, running_max, uniform_sizes
from .systems import (
    UnitValue,
    add_terms,
    block_of_index,
    block_range,
    haar_sup_sq,
    haar_term,
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
    def _pass(self) -> tuple[StepFunction, tuple]:
        """S_R and the running maxima behind its majorant, per map."""
        return _tree_pass(self)


def partial_sum(coeffs: CoeffMap, N: int) -> StepFunction:
    """S_N on the uniform rank-N partition; N must not exceed any
    dimension's depth.

    Includes exactly the terms whose every per-dimension index is below
    that dimension's rank-N modulus; for N >= stabilization_rank this is
    the full sum.  Each term is built by its system's term builder and
    added cell by cell, in the map's sorted order.
    """
    cfg, ranks = coeffs.cfg, (N,) * coeffs.cfg.dim
    build = haar_term if coeffs.mode == "haar" else price_term
    vals = [0] * prod(uniform_sizes(cfg, ranks))
    for nvec, coeff in coeffs.items():
        if _index_block(cfg, nvec) <= N:
            term = add_terms(StepFunction.constant(cfg, 0), [(0, build(cfg, nvec, coeff))])[0]
            vals = [a + b for a, b in zip(vals, term.uniform_values(ranks))]
    return StepFunction.on_grid(cfg, ranks, vals)


# ---------------------------------------------------------------------------
# the density and its majorant


def _tree_pass(coeffs: CoeffMap) -> tuple[StepFunction, tuple]:
    """S_R and the running maxima behind sup_k |S_k|: ``add_terms`` on zero,
    terms in block order, then map order, as the band sweep adds them.  A
    Price pass is refused first if its leaves, on the uniform grid of each
    dimension's top block, would exceed the cell cap."""
    cfg = coeffs.cfg
    build = haar_term if coeffs.mode == "haar" else price_term
    if coeffs.mode == "price":
        uniform_sizes(cfg, [max(block_of_index(seq, n) for n in column)
                            for seq, column in zip(cfg.seqs, zip(*coeffs.support()))])
    terms = sorted((_index_block(cfg, nvec), nvec, coeff) for nvec, coeff in coeffs.items())
    return add_terms(StepFunction.constant(cfg, 0),
                     ((block, build(cfg, nvec, coeff)) for block, nvec, coeff in terms))


def stabilized_sum(coeffs: CoeffMap) -> StepFunction:
    """The full sum S_R, sparse: the cells of the map's tree pass."""
    return coeffs._pass[0]


def series_majorant(coeffs: CoeffMap) -> StepFunction:
    """sup over N of |S_N|: the running maximum of |S_k| for k = 0..R.

    Equals, cell by cell at rank R, the maximum of |Psi(I)| / mu(I) over
    the chain of uniform-rank ancestors I of the cell.  It comes from the
    density's tree pass, on the density's cells, so each term is built once.
    """
    density, bests = coeffs._pass
    return StepFunction(coeffs.cfg, density.cells, tuple(map(running_max, bests, density.values)))


# ---------------------------------------------------------------------------
# additive interval functions


class AdditiveFn:
    """Additive function on cells, induced by a finitely supported series."""

    def __init__(self, coeffs: CoeffMap):
        self.cfg = coeffs.cfg
        self.coeffs = coeffs
        self._majorant = None

    @classmethod
    def from_series(cls, coeffs: CoeffMap) -> "AdditiveFn":
        return cls(coeffs)

    def value_on(self, box: Cell):
        """Psi(box): the integral of the density Psi' = S_R over the box,
        which may be any mixed-rank cell."""
        return self.derivative().integral(box)

    def derivative(self) -> StepFunction:
        """The rank-R density: Psi(I)/mu(I) on rank-R cells, as a step function."""
        return stabilized_sum(self.coeffs)

    def majorant(self) -> StepFunction:
        """Psi*(x) = sup_N |S_N(x)| (equivalently the ancestor-ratio maximum)."""
        if self._majorant is None:
            self._majorant = series_majorant(self.coeffs)
        return self._majorant


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
