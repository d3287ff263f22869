"""A dyadic series that separates the two truncated-integral recipes.

The construction is one explicit Haar series on [0,1).  Terms come in
rows: row n (1 <= n <= n_max) holds n summands, and summand (n, i) is a
single basis function of rank t = n(n-1)/2 + i, scaled to take the
values +-2^t, whose support is the leftmost piece of the interval
[1 - 2^(1-i), 1 - 2^(-i)).  Within each such piece the supports of
successive rows nest at the left endpoint, so partial sums pile up
instead of cancelling.

Two facts are then checked in exact rational arithmetic:

* failure of constant cutoffs: on every right-edge interval
  [1 - 2^-j, 1] the majorant S* satisfies
  lambda * mu{S* > lambda} >= 2^-(j+2) for lambda = 2^m across a whole
  window of m, so these products cannot tend to zero;
* success of the staircase family h_m (value 2^(k_m + j + 1) on piece
  j = 1..m and 2^m on the remainder [1 - 2^-m, 1), with k_m = m(m-1)/2):
  the tails int_{S* > h_m} h_m fall under the closed-form bound
  2m/2^m + 2^(m+1)/2^(k_{m+1}), and recovery against the family lands
  on the exact cell values.  One pass per member (``member_passes``)
  feeds the tails, their cover check and the recoveries on every box.

Row counts above 8 are refused by ``MAX_ROWS``, to keep an exactly
checkable desk-scale instance.  It is the only limit at 9 rows, which
pass the integer guard; from 10 rows on the guard refuses the series too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WindowError
from .grid import Cell, GridConfig, full_cube
from .integration import FamilyCheckReport, HFamily
from .recovery import (
    AdditiveRecoveryReport,
    TailConditionReport,
    additive_reports,
    lambda_condition_check,
    member_passes,
)
from .reports import SCHEMA_VERSION, cell_json, encode_value, encode_values
from .series import AdditiveFn, CoeffMap
from .stepfn import StepFunction
from .systems import UnitValue

MAX_ROWS = 8


def triangle(n: int) -> int:
    """k_n = n(n-1)/2, the rank offset of row n."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class ExampleSpec:
    """Size parameters of the construction, with derived grid geometry.

    `n_max` is at least 2, since one row has no nonempty level window.
    `family_members` defaults to n_max + 1, which is exactly deep enough
    for the last member to dominate the whole density; `j_values`
    defaults to every j with a nonempty level window, and a list given
    must name at least one.
    """

    n_max: int = 5
    family_members: int | None = None
    j_values: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n_max, int) or not 2 <= self.n_max <= MAX_ROWS:
            raise ValueError(f"n_max must be an integer in 2..{MAX_ROWS}, got {self.n_max}")
        if self.family_members is None:
            object.__setattr__(self, "family_members", self.n_max + 1)
        if self.family_members < 1:
            raise ValueError("the family needs at least one member")
        if self.j_values is None:
            object.__setattr__(self, "j_values", tuple(range(1, self.n_max)))
        else:
            object.__setattr__(self, "j_values", tuple(int(j) for j in self.j_values))
            if not self.j_values:
                raise ValueError("j_values must list at least one right-edge exponent")
        for j in self.j_values:
            if j < 1:
                raise ValueError(f"right-edge exponents must be >= 1, got {j}")

    @property
    def max_term_rank(self) -> int:
        return triangle(self.n_max) + self.n_max

    @property
    def depth(self) -> int:
        # one rank past the deepest term (where its values live), and deep
        # enough to hold every family member's last piece
        return max(self.max_term_rank + 1, self.family_members)

    def grid(self) -> GridConfig:
        return GridConfig.from_lists([[2] * self.depth])


def term_support(n: int, i: int) -> Cell:
    """Support cell of summand (n, i): rank t = k_n + i, left end 1 - 2^(1-i)."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got (n, i) = ({n}, {i})")
    t = triangle(n) + i
    return Cell((t,), (2 ** t - 2 ** (triangle(n) + 1),))


def example_series(spec: ExampleSpec) -> CoeffMap:
    """The coefficient map: one entry of weight sqrt(2^t) per summand."""
    entries = {}
    for n in range(1, spec.n_max + 1):
        for i in range(1, n + 1):
            cell = term_support(n, i)
            t = cell.ranks[0]
            entries[(2 ** t + cell.indices[0],)] = UnitValue(2 ** t, 0)
    return CoeffMap(spec.grid(), entries, mode="haar")


def staircase_member(cfg: GridConfig, m: int) -> StepFunction:
    """h_m: 2^(k_m + j + 1) on piece j = 1..m, then 2^m on [1 - 2^-m, 1)."""
    pieces = [
        (Cell((j,), (2 ** j - 2,)), 2 ** (triangle(m) + j + 1)) for j in range(1, m + 1)
    ]
    pieces.append((Cell((m,), (2 ** m - 1,)), 2 ** m))
    return StepFunction.from_pieces(cfg, pieces)


def example_family(spec: ExampleSpec) -> HFamily:
    cfg = spec.grid()
    return HFamily.from_members(
        [staircase_member(cfg, m) for m in range(1, spec.family_members + 1)]
    )


def tail_bound(m: int) -> Fraction:
    """Closed-form bound on int_{S* > h_m} h_m: 2m/2^m + 2^(m+1)/2^(k_{m+1})."""
    return Fraction(2 * m, 2 ** m) + Fraction(2 ** (m + 1), 2 ** triangle(m + 1))


# ---------------------------------------------------------------------------
# failure of constant cutoffs


def failure_window(spec: ExampleSpec, j: int) -> range:
    """Levels 2^m whose products stay >= 2^-(j+2): m from k_{j+1}-1 (at
    least 1) through k_{n_max+1} - 2."""
    return range(max(1, triangle(j + 1) - 1), triangle(spec.n_max + 1) - 1)


@dataclass(frozen=True)
class FailureReport:
    """Exact level products on one right-edge interval, with their floors."""

    j: int
    box: Cell
    m_window: tuple[int, ...]
    lambdas: tuple
    measures: tuple
    products: tuple
    product_floor: Fraction
    measure_floors: tuple

    @property
    def holds(self) -> bool:
        return all(p >= self.product_floor for p in self.products) and all(
            mu >= floor for mu, floor in zip(self.measures, self.measure_floors)
        )

    def to_json_dict(self) -> dict:
        return {
            "box": cell_json(self.box),
            "holds": self.holds,
            "j": self.j,
            "lambdas": encode_values(self.lambdas),
            "m_window": list(self.m_window),
            "measure_floors": encode_values(self.measure_floors),
            "measures": encode_values(self.measures),
            "product_floor": encode_value(self.product_floor),
            "products": encode_values(self.products),
            "schema_version": SCHEMA_VERSION,
        }


def verify_lambda_failure(spec: ExampleSpec, j: int,
                          af: AdditiveFn | None = None) -> FailureReport:
    """Check lambda * mu{S* > lambda} >= 2^-(j+2) across the level window.

    The box is the right-edge interval [1 - 2^-j, 1).  Raises WindowError
    when the window is empty (j too large for this n_max), since a vacuous
    pass would be indistinguishable from a real one.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    window = failure_window(spec, j)
    if len(window) == 0:
        raise WindowError(
            f"no levels to test for j={j} at n_max={spec.n_max}; "
            f"need j <= {spec.n_max - 1}"
        )
    if af is None:
        af = AdditiveFn.from_series(example_series(spec))
    box = Cell((j,), (2 ** j - 1,))
    lambdas = tuple(2 ** m for m in window)
    rep = lambda_condition_check(af, lambdas, box=box)
    return FailureReport(
        j=j,
        box=box,
        m_window=tuple(window),
        lambdas=lambdas,
        measures=rep.measures,
        products=rep.products,
        product_floor=Fraction(1, 2 ** (j + 2)),
        measure_floors=tuple(Fraction(1, 2 ** (m + 2 + j)) for m in window),
    )


# ---------------------------------------------------------------------------
# success of the staircase family


def head_bounds_hold(spec: ExampleSpec, m: int) -> bool:
    """Rows up to m stay under h_m: sum_n 2^(k_n + j) <= 2^(k_m + j + 1).

    The summand supports nest at the left end of each piece, so the sum
    of the head magnitudes over piece j is largest where all of them
    overlap; pieces past row m carry no head terms at all.
    """
    top = min(m, spec.n_max)
    for j in range(1, top + 1):
        total = sum(2 ** (triangle(n) + j) for n in range(j, top + 1))
        if total > 2 ** (triangle(m) + j + 1):
            return False
    return True


@dataclass(frozen=True)
class SuccessReport:
    """Exact tails against the closed-form bounds, plus set inclusions."""

    tails: tuple
    bounds: tuple
    tails_within_bounds: bool
    inclusion_ok: bool
    head_bound_ok: bool
    decay_ok: bool

    @property
    def passes(self) -> bool:
        return (
            self.tails_within_bounds
            and self.inclusion_ok
            and self.head_bound_ok
            and self.decay_ok
        )

    def to_json_dict(self) -> dict:
        return {
            "bounds": encode_values(self.bounds),
            "decay_ok": self.decay_ok,
            "head_bound_ok": self.head_bound_ok,
            "inclusion_ok": self.inclusion_ok,
            "passes": self.passes,
            "schema_version": SCHEMA_VERSION,
            "tails": encode_values(self.tails),
            "tails_within_bounds": self.tails_within_bounds,
        }


def _excess_cells_covered(spec: ExampleSpec, cfg: GridConfig, excess, m: int) -> bool:
    """Every cell where S* exceeds h_m lies in a known summand support.

    The predicted cover: supports of row m+1 over pieces 1..m, and the
    widest support supp(i, i) of each piece past m.
    """
    cover = []
    if m + 1 <= spec.n_max:
        cover.extend(term_support(m + 1, i) for i in range(1, m + 1))
    cover.extend(term_support(i, i) for i in range(m + 1, spec.n_max + 1))
    return all(any(c.contains(cfg, cell) for c in cover) for cell in excess)


def _success_report(spec: ExampleSpec, fam: HFamily, passes) -> SuccessReport:
    """The staircase checks, read from member passes whose first box is
    the whole cube."""
    tails = tuple(cube_tails[0] for _, cube_tails, _ in passes)
    bounds = tuple(tail_bound(m) for m in range(1, len(fam) + 1))
    return SuccessReport(
        tails=tails,
        bounds=bounds,
        tails_within_bounds=all(t <= b for t, b in zip(tails, bounds)),
        inclusion_ok=all(_excess_cells_covered(spec, fam.cfg, excess, m)
                         for m, (_, _, excess) in enumerate(passes, start=1)),
        head_bound_ok=all(head_bounds_hold(spec, m) for m in range(1, len(fam) + 1)),
        decay_ok=tails[-1] == 0 or tails[-1] < tails[0],
    )


def verify_ah_success(spec: ExampleSpec, af: AdditiveFn | None = None,
                      fam: HFamily | None = None) -> SuccessReport:
    """Exact tail, inclusion, and head checks for the staircase family."""
    if af is None:
        af = AdditiveFn.from_series(example_series(spec))
    if fam is None:
        fam = example_family(spec)
    return _success_report(spec, fam, member_passes(af, fam, (full_cube(1),)))


# ---------------------------------------------------------------------------
# the whole argument in one run


RECOVERY_BOXES = (
    full_cube(1),
    Cell((1,), (0,)),
    Cell((2,), (0,)),
    Cell((2,), (1,)),
    Cell((2,), (3,)),
)


@dataclass(frozen=True)
class EndToEndReport:
    """Family check, staircase success, level failures, and recoveries."""

    n_max: int
    family_report: FamilyCheckReport
    success: SuccessReport
    failures: tuple[FailureReport, ...]
    tail_check: TailConditionReport
    tail_tol: float
    recoveries: tuple[AdditiveRecoveryReport, ...]

    @property
    def overall_pass(self) -> bool:
        return (
            self.family_report.passes
            and self.success.passes
            and all(f.holds for f in self.failures)
            and self.tail_check.passes
            and all(r.passes for r in self.recoveries)
        )

    def to_json_dict(self) -> dict:
        return {
            "failures": [f.to_json_dict() for f in self.failures],
            "family": self.family_report.to_json_dict(),
            "n_max": self.n_max,
            "overall_pass": self.overall_pass,
            "recoveries": [r.to_json_dict() for r in self.recoveries],
            "schema_version": SCHEMA_VERSION,
            "success": self.success.to_json_dict(),
            "tail_check": self.tail_check.to_json_dict(),
            "tail_tol": self.tail_tol,
        }


def end_to_end(spec: ExampleSpec, threads: int = 1) -> EndToEndReport:
    """Run every check of the construction and bundle the evidence.

    The tail-condition tolerance is not a magic float: it is the
    closed-form bound at the last member, which the exact tails must
    respect anyway."""
    af = AdditiveFn.from_series(example_series(spec))
    fam = example_family(spec)
    boxes = tuple(box for box in RECOVERY_BOXES if box.ranks[0] <= spec.depth)  # the cube first
    passes = member_passes(af, fam, boxes, threads=threads)
    tol = float(tail_bound(len(fam)))
    success = _success_report(spec, fam, passes)
    return EndToEndReport(
        n_max=spec.n_max,
        family_report=fam.report,
        success=success,
        failures=tuple(verify_lambda_failure(spec, j, af=af) for j in spec.j_values),
        tail_check=TailConditionReport.from_tails(boxes[0], success.tails, tol),
        tail_tol=tol,
        recoveries=additive_reports(af, fam, boxes, passes),
    )
