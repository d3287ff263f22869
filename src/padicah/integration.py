"""Truncated integrals against families of cutoff functions.

The truncation [f]_h keeps f where |f| <= h and is zero elsewhere.  A
cutoff family is a finite list of nonnegative step functions h_1 <= h_2
<= ... together with per-member partitions; the family conditions are

  (h1) pointwise monotone nondecreasing in m,
  (h2) sup h_m <= C * inf h_m on every partition cell, one C for all,
  (h3) the integrals of h_m over partition cells are bounded away from 0.

``ah_integral`` produces the truncated values v_m = int [f]_{h_m}, the
admissibility tails int_{|f| >= alpha h_m} h_m for a labeled alpha grid,
and a convergence verdict; with constant members h_m = lambda_m this is
exactly the classical A-integral recipe (whose cutoff clause uses the
strict inequality, reported separately as `a_clause`).  Exact value ties
|f| = alpha h_m are counted on their own, since with half-open cells they
are the only place the strict/non-strict choice can matter.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ConfigMismatch
from .grid import Cell, GridConfig, cell_from_json_dict, full_cube, validate_partition
from .parallel import parallel_map
from .reports import SCHEMA_VERSION, cell_json, encode_value, encode_values
from .stepfn import (
    StepFunction,
    box_weights,
    common_refinement,
    is_exact,
    leq_exact_or_float,
    leq_with_guard,
    value_abs,
    value_abs_sq,
    weight_unit,
    weighted_sum,
)


def _require_cutoff_values(h: StepFunction) -> None:
    for v in h.values:
        if isinstance(v, complex):
            raise ValueError("cutoff functions must be real-valued")
        if v < 0:
            raise ValueError(f"cutoff functions must be nonnegative, found {v}")


def truncate(f: StepFunction, h: StepFunction, scale_sq=1) -> StepFunction:
    """[f]_h on the common refinement: f where |f| <= sqrt(scale_sq) * h, else 0.

    The comparison squares both sides (|f|^2 <= scale_sq * h^2) so scaled
    thresholds like ||chi_n||_inf * h stay exact: scale_sq is the exact
    integer ||chi_n||_inf^2.  Mixed exact/float comparisons fall back to
    doubles with a 1e-12 relative guard band; ties keep the value.
    """
    triples = common_refinement(f, cutoff_thresholds(h, scale_sq))
    return StepFunction(f.cfg, tuple(c for c, _, _ in triples),
                        truncated_values((fv, t) for _, fv, t in triples))


def cutoff_thresholds(h: StepFunction, scale_sq=1) -> StepFunction:
    """scale_sq * h^2 on h's own cells, once per cutoff cell: truncation keeps
    f where ``leq_with_guard(|f|^2, threshold)``, the one rule for "kept"."""
    _require_cutoff_values(h)
    return h.map_values(lambda v: scale_sq * v * v)


def truncated_values(pairs) -> tuple:
    """The values of [f]_h from (f value, threshold) pairs on a refinement."""
    return tuple(fv if leq_with_guard(value_abs_sq(fv), t) else 0 for fv, t in pairs)


def tail_integral(g: StepFunction, h: StepFunction, alpha=1, strict: bool = True,
                  box: Cell | None = None):
    """Integral of h over the sublevel complement {g > alpha*h} (or >=).

    `g` should already be nonnegative (pass f.abs() for a signed f).
    """
    tail, _ = tail_with_ties(g, h, alpha=alpha, strict=strict, box=box)
    return tail


def tail_with_ties(g: StepFunction, h: StepFunction, alpha=1, strict: bool = True,
                   box: Cell | None = None):
    """(tail integral, measure of exact ties {g = alpha*h}) in one pass."""
    _require_cutoff_values(h)
    triples = common_refinement(g, h)
    return _tail_and_ties(g.cfg, triples, box_weights(g.cfg, [c for c, _, _ in triples], box),
                          alpha, strict)


def _tail_and_ties(cfg: GridConfig, triples, weights, alpha, strict: bool):
    """tail_with_ties on refinement triples (cell, g value, h value) and
    their box weights."""
    values, tail_weights = [], []
    ties = 0
    for (_, gv, hv), w in zip(triples, weights):
        if w is None:
            continue
        bound = alpha * hv
        if (not leq_exact_or_float(gv, bound)) if strict else leq_exact_or_float(bound, gv):
            values.append(hv)
            tail_weights.append(w)
        if is_exact(gv) and is_exact(bound) and gv == bound:
            ties += w
    return weighted_sum(cfg, values, tail_weights), Fraction(ties, weight_unit(cfg))


def level_measure(g: StepFunction, level, strict: bool = True,
                  box: Cell | None = None):
    """mu{x in box : g(x) > level} (or >=), exact; a tuple of levels gives
    the tuple of their measures, from one pass over the cells' weights."""
    levels = level if isinstance(level, tuple) else (level,)
    hits = [(gv, w) for gv, w in zip(g.values, box_weights(g.cfg, g.cells, box)) if w]
    unit = weight_unit(g.cfg)

    def above(gv, lam):
        return (not leq_exact_or_float(gv, lam)) if strict else leq_exact_or_float(lam, gv)

    measures = tuple(Fraction(sum(w for gv, w in hits if above(gv, lam)), unit) for lam in levels)
    return measures if isinstance(level, tuple) else measures[0]


# ---------------------------------------------------------------------------
# cutoff families


@dataclass(frozen=True)
class HFamily:
    """A finite cutoff family with per-member partitions.

    `partitions[m]` is the cell system on which member m's oscillation is
    controlled; by default it is the member's own step partition, which
    makes the (h2) constant exactly 1.
    """

    cfg: GridConfig
    members: tuple[StepFunction, ...]
    partitions: tuple[tuple[Cell, ...], ...]
    bound_C: Fraction = Fraction(1)

    @classmethod
    def from_members(cls, members, partitions=None, bound_C=Fraction(1)) -> "HFamily":
        members = tuple(members)
        if not members:
            raise ValueError("a cutoff family needs at least one member")
        cfg = members[0].cfg
        for h in members:
            if h.cfg != cfg:
                raise ConfigMismatch("family members live on different grids")
            _require_cutoff_values(h)
        if partitions is None:
            partitions = tuple(h.cells for h in members)
        else:
            partitions = tuple(tuple(p) for p in partitions)
            if len(partitions) != len(members):
                raise ValueError("need one partition per member")
        if bound_C < 1:
            raise ValueError(f"the oscillation constant must be >= 1, got {bound_C}")
        return cls(cfg, members, partitions, bound_C)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def report(self) -> "FamilyCheckReport":
        """check_family(self), computed once per family object."""
        return check_family(self)


@dataclass(frozen=True)
class FamilyCheckReport:
    """Outcome of the (h1)-(h3) checks, with the witness tables."""

    monotone_ok: bool
    oscillation_c: object  # Fraction/float, or None when unbounded
    min_cell_integral: object
    lambda_table: tuple
    eps0: object

    @property
    def passes(self) -> bool:
        return (
            self.monotone_ok
            and self.oscillation_c is not None
            and not leq_exact_or_float(self.min_cell_integral, 0)
        )

    def to_json_dict(self) -> dict:
        return {
            "eps0": encode_value(self.eps0),
            "lambda_table": [encode_values(row) for row in self.lambda_table],
            "min_cell_integral": encode_value(self.min_cell_integral),
            "monotone_ok": self.monotone_ok,
            "oscillation_c": encode_value(self.oscillation_c),
            "passes": self.passes,
            "schema_version": SCHEMA_VERSION,
        }


def check_family(fam: HFamily) -> FamilyCheckReport:
    """Verify (h1)-(h3) and compute the witness quantities exactly.

    Reports the minimal usable oscillation constant, the per-cell infima
    lambda^m_k, eps0 = inf_m,k lambda^m_k * mu(I^m_k), and the smallest
    per-cell integral (whose positivity is (h3)).  Each member meets its
    partition in one refinement sweep, against the step function that
    labels every partition cell with its position; the pieces give each
    cell its member values and its integral."""
    cfg = fam.cfg
    monotone_ok = True
    for a, b in zip(fam.members, fam.members[1:]):
        for _, va, vb in common_refinement(a, b):
            if not leq_exact_or_float(va, vb):
                monotone_ok = False
                break
        if not monotone_ok:
            break
    c_min = Fraction(1)
    unbounded = False
    min_integral = None
    eps0 = None
    lambda_table = []
    for h, partition in zip(fam.members, fam.partitions):
        labels = StepFunction.from_pieces(cfg, zip(partition, range(len(partition))))
        triples = common_refinement(h, labels)
        values = [[] for _ in partition]
        weights = [[] for _ in partition]
        for (_, v, i), w in zip(triples, box_weights(cfg, [c for c, _, _ in triples])):
            values[i].append(v)
            weights[i].append(w)
        row = []
        for pcell, vals, cell_weights in zip(partition, values, weights):
            sup, inf = max(vals), min(vals)
            if inf == 0:
                if sup != 0:
                    unbounded = True
            else:
                ratio = Fraction(sup, inf) if is_exact(sup) and is_exact(inf) else sup / inf
                if not leq_exact_or_float(ratio, c_min):
                    c_min = ratio
            cell_integral = weighted_sum(cfg, vals, cell_weights)
            weighted = inf * pcell.measure(cfg)
            row.append(inf)
            if min_integral is None or not leq_exact_or_float(min_integral, cell_integral):
                min_integral = cell_integral
            if eps0 is None or not leq_exact_or_float(eps0, weighted):
                eps0 = weighted
        lambda_table.append(tuple(row))
    return FamilyCheckReport(
        monotone_ok=monotone_ok,
        oscillation_c=None if unbounded else c_min,
        min_cell_integral=min_integral,
        lambda_table=tuple(lambda_table),
        eps0=eps0,
    )


# ---------------------------------------------------------------------------
# the AH integral


@dataclass(frozen=True)
class AhIntegralReport:
    """Truncated values, admissibility tails, and the convergence verdict."""

    box: Cell
    values: tuple
    alphas: tuple
    adm_tails: dict
    adm_ties: dict
    a_clause: tuple
    conv_tol: float
    adm_tol: object  # exact 0 by default, so a zero tolerance is really zero
    m0: object  # 1-based index where values settle, or None
    converged: bool

    @property
    def admissible(self) -> bool:
        return all(
            leq_exact_or_float(tails[-1], self.adm_tol) for tails in self.adm_tails.values()
        )

    @property
    def integrable(self) -> bool:
        return self.converged and self.admissible

    def to_json_dict(self) -> dict:
        return {
            "a_clause": encode_values(self.a_clause),
            "adm_tails": {k: encode_values(v) for k, v in self.adm_tails.items()},
            "adm_ties": {k: encode_values(v) for k, v in self.adm_ties.items()},
            "adm_tol": float(self.adm_tol),
            "admissible": self.admissible,
            "alphas": list(self.adm_tails.keys()),
            "box": cell_json(self.box),
            "conv_tol": self.conv_tol,
            "converged": self.converged,
            "integrable": self.integrable,
            "m0": self.m0,
            "m_values": list(range(1, len(self.values) + 1)),
            "schema_version": SCHEMA_VERSION,
            "values": encode_values(self.values),
        }


DEFAULT_ALPHAS = (Fraction(1, 2), 1, 2)


def ah_integral(f: StepFunction, fam: HFamily, box: Cell | None = None,
                alphas=DEFAULT_ALPHAS, conv_tol: float = 1e-9,
                adm_tol=0, threads: int = 1) -> AhIntegralReport:
    """Truncate f against every member and judge convergence/admissibility.

    values[m] = int_box [f]_{h_m}; admissibility at each alpha is the tail
    int_{|f| >= alpha h_m} h_m over the box, which must sit at or below
    `adm_tol` by the last member.  m0 is the first 1-based index from which
    all values agree pairwise within `conv_tol`.
    """
    if f.cfg != fam.cfg:
        raise ConfigMismatch("function and family live on different grids")
    box = box if box is not None else full_cube(f.cfg.dim)
    cfg = f.cfg

    def one_member(h: StepFunction):
        # |f| has f's partition, so one refinement against (h, h^2) serves truncation and tails
        paired = StepFunction(cfg, h.cells, tuple(zip(h.values, cutoff_thresholds(h).values)))
        triples = common_refinement(f, paired)
        weights = box_weights(cfg, [c for c, _, _ in triples], box)
        abs_triples = [(c, value_abs(fv), hv) for c, fv, (hv, _) in triples]
        adm = [_tail_and_ties(cfg, abs_triples, weights, alpha, False) for alpha in alphas]
        kept = truncated_values((fv, t) for _, fv, (_, t) in triples)
        return (weighted_sum(cfg, kept, weights), [t for t, _ in adm],
                [tie for _, tie in adm], _tail_and_ties(cfg, abs_triples, weights, 1, True)[0])

    rows = parallel_map(one_member, fam.members, threads=threads)
    values = tuple(r[0] for r in rows)
    labels = [str(Fraction(a)) for a in alphas]
    adm_tails = {lab: tuple(r[1][i] for r in rows) for i, lab in enumerate(labels)}
    adm_ties = {lab: tuple(r[2][i] for r in rows) for i, lab in enumerate(labels)}
    a_clause = tuple(r[3] for r in rows)
    m0 = _settle_index(values, conv_tol)
    return AhIntegralReport(
        box=box,
        values=values,
        alphas=tuple(alphas),
        adm_tails=adm_tails,
        adm_ties=adm_ties,
        a_clause=a_clause,
        conv_tol=conv_tol,
        adm_tol=adm_tol,
        m0=m0,
        converged=m0 is not None,
    )


def _settle_index(values, tol: float):
    """First 1-based index from which all pairwise gaps are within tol."""
    n = len(values)
    for start in range(n):
        tail = values[start:]
        ok = True
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                if abs(complex(tail[i]) - complex(tail[j])) > tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return start + 1
    return None


# ---------------------------------------------------------------------------
# family file format


def _rational_from_json(raw, where: str) -> Fraction:
    """A [num, den] pair; each part is a JSON integer (not a bool) or a string of one."""
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ValueError(f"{where}: expected a [num, den] pair, got {raw!r}")
    for part in raw:
        if not (isinstance(part, int) and not isinstance(part, bool)
                or isinstance(part, str) and re.fullmatch(r"[+-]?[0-9]+", part)):
            raise ValueError(f"{where}: rational parts must be integers or integer strings, got {part!r}")
    try:
        num, den = int(raw[0]), int(raw[1])
    except ValueError as exc:  # beyond the interpreter's integer-string digit limit
        raise ValueError(f"{where}: {exc}") from None
    if den == 0:
        raise ValueError(f"{where}: zero denominator")
    return Fraction(num, den)


def family_from_json_dict(data) -> HFamily:
    if not isinstance(data, dict):
        raise ValueError("family must be a JSON object")
    cfg = GridConfig.from_json_dict(data.get("grid"))
    raw_members = data.get("members")
    if not isinstance(raw_members, list) or not raw_members:
        raise ValueError("family field 'members' must be a non-empty array")
    members, partitions = [], []
    for i, entry in enumerate(raw_members):
        if not isinstance(entry, dict):
            raise ValueError(f"members[{i}] must be a JSON object")
        cells_raw = entry.get("cells")
        values_raw = entry.get("values")
        if not isinstance(cells_raw, list) or not isinstance(values_raw, list):
            raise ValueError(f"members[{i}]: need 'cells' and 'values' arrays")
        if len(cells_raw) != len(values_raw):
            raise ValueError(
                f"members[{i}]: {len(cells_raw)} cells against {len(values_raw)} values"
            )
        cells = [cell_from_json_dict(c) for c in cells_raw]
        values = [
            _rational_from_json(v, f"members[{i}].values[{t}]")
            for t, v in enumerate(values_raw)
        ]
        try:
            h = StepFunction.from_pieces(cfg, zip(cells, values), validate=True)
        except ValueError as exc:
            raise ValueError(f"members[{i}].cells: {exc}") from None
        members.append(h)
        part_raw = entry.get("partition")
        if part_raw is None:
            partitions.append(h.cells)
        else:
            part = [cell_from_json_dict(c) for c in part_raw]
            try:
                validate_partition(cfg, part)
            except ValueError as exc:
                raise ValueError(f"members[{i}].partition: {exc}") from None
            partitions.append(tuple(sorted(part, key=lambda c: c.sort_key(cfg))))
    raw_bound = data.get("bound_c")
    bound = _rational_from_json(raw_bound, "bound_c") if raw_bound is not None else Fraction(1)
    return HFamily.from_members(members, partitions=partitions, bound_C=bound)
