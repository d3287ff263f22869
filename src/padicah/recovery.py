"""Recovery of additive functions and series coefficients by truncation.

Three procedures share one shape: form truncations against a cutoff
family, integrate, and watch the sequence settle onto the target value.

* ``recover_additive``: Psi(box) on each of several boxes from the
  truncated integrals of the stabilized density, e_m = int_box [Psi']_{h_m}.
  ``member_passes`` meets each member with the density and the majorant
  once; every box, tail and cover check reads that one pass.
* ``recover_haar_coeff`` / ``recover_price_coeff``: one series
  coefficient from int [f]_{c h_m} conj(phi) with the threshold scaled
  by the sup norm of the basis function phi.  The density meets phi in
  one refinement, which carries f, |f|^2 and conj(phi) per cell; each
  member then meets that product once, against its squared thresholds.

The condition checks quantify when the procedure is entitled to work:
``lambda_condition_check`` tabulates lambda * mu{Psi* > lambda} (whose
failure to vanish is how recovery breaks), and ``tail_condition_check``
tabulates the cutoff tails int_{Psi* > h_m} h_m.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigMismatch
from .grid import Cell, full_cube
from .integration import HFamily, cutoff_thresholds, level_measure, truncate
from .parallel import parallel_map
from .reports import SCHEMA_VERSION, cell_json, encode_value, encode_values
from .series import (
    AdditiveFn,
    CoeffMap,
    haar_coeffs_from_price,
    price_coeffs_from_haar,
)
from .stepfn import (StepFunction, box_weights, common_refinement, leq_exact_or_float,
                     leq_with_guard, value_abs_sq, weighted_sum)
from .systems import conj, haar_sup_sq, tensor_haar_step, tensor_price_step


def _final_error(estimates, reference) -> float:
    return abs(complex(estimates[-1]) - complex(reference))


@dataclass(frozen=True)
class AdditiveRecoveryReport:
    """e_m = int_box of the truncated density, against Psi(box)."""

    box: Cell
    estimates: tuple
    reference: object
    errors: tuple[float, ...]
    hypothesis_tails: tuple
    tol: float
    family_ok: bool

    @property
    def passes(self) -> bool:
        return self.family_ok and self.errors[-1] <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "box": cell_json(self.box),
            "errors": list(self.errors),
            "estimates": encode_values(self.estimates),
            "family_ok": self.family_ok,
            "hypothesis_tails": encode_values(self.hypothesis_tails),
            "passes": self.passes,
            "reference": encode_value(self.reference),
            "schema_version": SCHEMA_VERSION,
            "tol": self.tol,
        }


def member_passes(af: AdditiveFn, fam: HFamily, boxes, threads: int = 1) -> list:
    """One pass per member h, in one parallel map: h truncates the density once
    and meets the majorant once, and every box is weighed from those two
    refinements.  Each pass is (estimates, tails, excess): int_box [Psi']_h
    and int_{box, Psi* > h} h per box, and the cells where Psi* > h."""
    if af.cfg != fam.cfg:
        raise ConfigMismatch("function and family live on different grids")
    cfg, deriv, maj = af.cfg, af.derivative(), af.majorant()
    for box in boxes:
        box.validate(cfg)

    def one_member(h: StepFunction):
        trunc = truncate(deriv, h)
        excess = [(c, hv) for c, sv, hv in common_refinement(maj, h)
                  if not leq_exact_or_float(sv, hv)]
        cells, values = [c for c, _ in excess], [hv for _, hv in excess]
        return (tuple(trunc.integral(box) for box in boxes),
                tuple(weighted_sum(cfg, values, box_weights(cfg, cells, box)) for box in boxes),
                tuple(cells))

    return parallel_map(one_member, fam.members, threads=threads)


def additive_reports(af: AdditiveFn, fam: HFamily, boxes, passes, tol: float = 1e-9) -> tuple:
    """One AdditiveRecoveryReport per box, read from the member passes over `boxes`."""
    reports = []
    for i, box in enumerate(boxes):
        reference, estimates = af.value_on(box), tuple(est[i] for est, _, _ in passes)
        errors = tuple(abs(complex(e) - complex(reference)) for e in estimates)
        reports.append(AdditiveRecoveryReport(box, estimates, reference, errors,
                                              tuple(tails[i] for _, tails, _ in passes),
                                              tol, fam.report.passes))
    return tuple(reports)


def recover_additive(af: AdditiveFn, fam: HFamily, boxes=None, tol: float = 1e-9,
                     threads: int = 1) -> tuple[AdditiveRecoveryReport, ...]:
    """Recover Psi(box) from truncated integrals of the density, one report
    per box (default: the whole cube), from one pass per member.

    Each report carries the whole estimate sequence, the per-member
    hypothesis tails int_{Psi* > h_m} h_m over the box, and a flag from
    the family's own (h1)-(h3) check (recorded, never raised: a family
    that fails its check is exactly what a counterexample run feeds in).
    """
    boxes = tuple(boxes) if boxes is not None else (full_cube(af.cfg.dim),)
    return additive_reports(af, fam, boxes, member_passes(af, fam, boxes, threads), tol)


# ---------------------------------------------------------------------------
# coefficient recovery


@dataclass(frozen=True)
class CoeffRecoveryReport:
    """Estimates of one coefficient from scaled truncations of f."""

    mode: str
    index: tuple[int, ...]
    scale_sq: int
    estimates: tuple
    reference: object
    final_error: float
    tol: float

    @property
    def passes(self) -> bool:
        return self.final_error <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "estimates": encode_values(self.estimates),
            "final_error": self.final_error,
            "index": list(self.index),
            "mode": self.mode,
            "passes": self.passes,
            "reference": encode_value(self.reference),
            "scale_sq": self.scale_sq,
            "schema_version": SCHEMA_VERSION,
            "tol": self.tol,
        }


def _recover_coeff(f: StepFunction, fam: HFamily, basis: StepFunction,
                   scale_sq: int, mode: str, index, reference, tol: float,
                   threads: int) -> CoeffRecoveryReport:
    if f.cfg != fam.cfg:
        raise ConfigMismatch("function and family live on different grids")
    # f x basis x member is one cell list in either order: each sum is <[f]_h, basis> termwise
    cfg, triples = f.cfg, common_refinement(f, basis)
    product = StepFunction(cfg, tuple(c for c, _, _ in triples),
                           tuple((fv, value_abs_sq(fv), conj(bv)) for _, fv, bv in triples))
    if reference is None:
        reference = weighted_sum(cfg, [fv * cb for fv, _, cb in product.values],
                                 box_weights(cfg, product.cells))

    def one_member(h: StepFunction):
        pieces = common_refinement(product, cutoff_thresholds(h, scale_sq))
        return weighted_sum(cfg, [(fv if leq_with_guard(fsq, t) else 0) * cb
                                  for _, (fv, fsq, cb), t in pieces],
                            box_weights(cfg, [c for c, _, _ in pieces]))

    estimates = tuple(parallel_map(one_member, fam.members, threads=threads))
    return CoeffRecoveryReport(
        mode=mode,
        index=tuple(index),
        scale_sq=scale_sq,
        estimates=estimates,
        reference=reference,
        final_error=_final_error(estimates, reference),
        tol=tol,
    )


def recover_haar_coeff(f: StepFunction, nvec, fam: HFamily, reference=None,
                       tol: float = 1e-8, threads: int = 1) -> CoeffRecoveryReport:
    """Estimate a_n = <f, chi_n> from truncations [f]_{c h_m}.

    The threshold is scaled by c = ||chi_n||_inf, kept exact as the
    integer c^2 (the product of the per-dimension support moduli).  With
    no explicit `reference` the plain inner product <f, chi_n> is used.
    """
    nvec = tuple(nvec)
    basis = tensor_haar_step(f.cfg, nvec)
    return _recover_coeff(f, fam, basis, haar_sup_sq(f.cfg, nvec), "haar", nvec,
                          reference, tol, threads)


def recover_price_coeff(f: StepFunction, kvec, fam: HFamily, reference=None,
                        tol: float = 1e-8, threads: int = 1) -> CoeffRecoveryReport:
    """Estimate b_k = <f, psi_k>; the system is unimodular so c = 1."""
    kvec = tuple(kvec)
    basis = tensor_price_step(f.cfg, kvec)
    return _recover_coeff(f, fam, basis, 1, "price", kvec, reference, tol, threads)


def gamma_path_reference(coeffs: CoeffMap, index):
    """The coefficient at `index` in the other system, by exact basis change.

    A haar-mode series yields the price coefficient b_index and a
    price-mode series yields the haar coefficient a_index; used to
    cross-check the truncation estimate against linear algebra.
    """
    other = price_coeffs_from_haar(coeffs) if coeffs.mode == "haar" else haar_coeffs_from_price(coeffs)
    return other.get(tuple(index), 0)


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class LambdaConditionReport:
    """lambda * mu{Psi* > lambda} per level, with the raw measures."""

    box: Cell
    lambdas: tuple
    measures: tuple
    products: tuple


def lambda_condition_check(af: AdditiveFn, lambdas, box: Cell | None = None) -> LambdaConditionReport:
    """Tabulate lambda * mu{x in box : Psi*(x) > lambda}, all exact.

    Recovery with constant cutoffs needs these products to vanish along
    lambda -> infinity; a window of levels where they stay bounded below
    is a certificate that it cannot."""
    box = box if box is not None else full_cube(af.cfg.dim)
    box.validate(af.cfg)
    maj = af.majorant()
    lambdas = tuple(lambdas)
    measures = level_measure(maj, lambdas, strict=True, box=box)
    products = tuple(lam * mu for lam, mu in zip(lambdas, measures))
    return LambdaConditionReport(box=box, lambdas=lambdas, measures=measures, products=products)


@dataclass(frozen=True)
class TailConditionReport:
    """Cutoff tails int_{Psi* > h_m} h_m and a finite-window decay verdict."""

    box: Cell
    tails: tuple
    tol: float
    window_start: int
    window_monotone: bool

    @property
    def passes(self) -> bool:
        return self.window_monotone and leq_exact_or_float(self.tails[-1], self.tol)

    def to_json_dict(self) -> dict:
        return {
            "box": cell_json(self.box),
            "passes": self.passes,
            "schema_version": SCHEMA_VERSION,
            "tails": encode_values(self.tails),
            "tol": self.tol,
            "window_monotone": self.window_monotone,
            "window_start": self.window_start,
        }

    @classmethod
    def from_tails(cls, box: Cell, tails: tuple, tol: float) -> "TailConditionReport":
        start = (2 * len(tails)) // 3
        window = tails[start:]
        monotone = all(leq_exact_or_float(b, a) for a, b in zip(window, window[1:]))
        return cls(box=box, tails=tails, tol=tol, window_start=start, window_monotone=monotone)


def tail_condition_check(af: AdditiveFn, fam: HFamily, box: Cell | None = None,
                         tol: float = 1e-9, threads: int = 1) -> TailConditionReport:
    """Check that the tails int_{Psi* > h_m} h_m die out along the family.

    A finite family cannot witness a limit, so the verdict is a
    finite-window proxy: the last tail sits at or below `tol` and the
    final third of the sequence is nonincreasing.
    """
    box = box if box is not None else full_cube(af.cfg.dim)
    passes = member_passes(af, fam, (box,), threads=threads)
    return TailConditionReport.from_tails(box, tuple(tails[0] for _, tails, _ in passes), tol)
