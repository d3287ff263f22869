"""Integer box weights against Cell.intersect and Fraction measures.

Every integral, tail and inner product sums value times weight.  These
properties hold the results to the measure-based reference: equal in
value, in type, and in the sign of a zero, for exact, float, complex and
mixed values alike.
"""
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    AdditiveFn,
    Cell,
    ExampleSpec,
    GridConfig,
    StepFunction,
    common_refinement,
    full_cube,
    inner_product,
    lambda_condition_check,
    level_measure,
    tail_with_ties,
)
from padicah.counterexample import example_series, failure_window
from padicah.parallel import tree_sum
from padicah.stepfn import box_weights, is_exact, leq_exact_or_float, weight_unit, weighted_sum
from strategies import grids, split

_FLOATS = st.floats(-4, 4, allow_nan=False)
_EXACT = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
_VALUES = {
    "exact": _EXACT,
    "float": _FLOATS,
    "real": st.one_of(_EXACT, _FLOATS),
    "complex": st.builds(complex, _FLOATS, _FLOATS),
    "mixed": st.one_of(_EXACT, _FLOATS, st.builds(complex, _FLOATS, _FLOATS)),
}


@st.composite
def boxes(draw, cfg):
    """None (the whole cube) or a cell of random rank in each dimension."""
    if draw(st.integers(0, 4)) == 0:
        return None
    ranks = [draw(st.integers(0, seq.depth)) for seq in cfg.seqs]
    return Cell(tuple(ranks), tuple(draw(st.integers(0, seq.modulus(k) - 1))
                                    for seq, k in zip(cfg.seqs, ranks)))


@st.composite
def step_functions(draw, cfg, kinds=tuple(_VALUES), nonnegative=False):
    """Values of one kind: exact, float, real (both), complex or mixed (all)."""
    values = _VALUES[draw(st.sampled_from(kinds))]
    if nonnegative:
        values = values.map(abs)
    cells = split(draw, cfg)
    return StepFunction.from_pieces(
        cfg, zip(cells, draw(st.lists(values, min_size=len(cells), max_size=len(cells)))))


def _measure(cfg, cell, box):
    """The reference measure: intersect, then a Fraction; None on a miss."""
    hit = cell.intersect(cfg, box if box is not None else full_cube(cfg.dim))
    return None if hit is None else hit.measure(cfg)


def _same(got, want):
    """Equal value, type and signed zeros (repr shows the sign of 0.0)."""
    assert type(got) is type(want) and repr(got) == repr(want), (got, want)


@settings(max_examples=150)
@given(st.data())
def test_box_weights_match_intersections(data):
    cfg = data.draw(grids(max_cells=64))
    cells = split(data.draw, cfg)
    box = data.draw(boxes(cfg))
    unit = weight_unit(cfg)
    for cell, w in zip(cells, box_weights(cfg, cells, box)):
        mu = _measure(cfg, cell, box)
        assert (w is None) == (mu is None)
        assert w is None or Fraction(w, unit) == mu


@settings(max_examples=100)
@given(st.data())
def test_integral_matches_the_measure_reference(data):
    cfg = data.draw(grids(max_cells=64))
    f = data.draw(step_functions(cfg))
    box = data.draw(boxes(cfg))
    terms = [v * mu for c, v in zip(f.cells, f.values)
             if (mu := _measure(cfg, c, box)) is not None]
    _same(f.integral(box), tree_sum(terms, zero=Fraction(0)))


@settings(max_examples=100)
@given(st.data())
def test_tail_with_ties_matches_the_measure_reference(data):
    cfg = data.draw(grids(max_cells=64))
    g = data.draw(step_functions(cfg, ("exact", "float", "real"), nonnegative=True))
    h = data.draw(step_functions(cfg, ("exact", "float", "real"), nonnegative=True))
    alpha = data.draw(st.sampled_from([Fraction(1, 2), 1, 2]))
    strict = data.draw(st.booleans())
    box = data.draw(boxes(cfg))
    terms, ties = [], Fraction(0)
    for cell, gv, hv in common_refinement(g, h):
        mu = _measure(cfg, cell, box)
        if mu is None:
            continue
        bound = alpha * hv
        if (not leq_exact_or_float(gv, bound)) if strict else leq_exact_or_float(bound, gv):
            terms.append(hv * mu)
        if is_exact(gv) and is_exact(bound) and gv == bound:
            ties += mu
    tail, got_ties = tail_with_ties(g, h, alpha=alpha, strict=strict, box=box)
    _same(tail, tree_sum(terms, zero=Fraction(0)))
    _same(got_ties, ties)


@settings(max_examples=100)
@given(st.data())
def test_inner_product_matches_the_measure_reference(data):
    cfg = data.draw(grids(max_cells=64))
    f, g = data.draw(step_functions(cfg)), data.draw(step_functions(cfg))
    terms = [a * (b.conjugate() if isinstance(b, complex) else b) * _measure(cfg, c, None)
             for c, a, b in common_refinement(f, g)]
    _same(inner_product(f, g), tree_sum(terms, zero=0))


@settings(max_examples=100)
@given(st.data())
def test_level_measure_of_a_window_matches_each_level(data):
    cfg = data.draw(grids(max_cells=64))
    g = data.draw(step_functions(cfg, ("exact", "float", "real"), nonnegative=True))
    levels = tuple(data.draw(st.lists(_VALUES["real"], max_size=6)))
    box = data.draw(boxes(cfg))
    strict = data.draw(st.booleans())
    assert level_measure(g, levels, strict=strict, box=box) == tuple(
        level_measure(g, lam, strict=strict, box=box) for lam in levels)


def test_lambda_condition_check_matches_per_level_measures():
    spec = ExampleSpec(n_max=6)
    af = AdditiveFn.from_series(example_series(spec))
    for j in spec.j_values:
        box = Cell((j,), (2 ** j - 1,))
        lambdas = tuple(2 ** m for m in failure_window(spec, j))
        rep = lambda_condition_check(af, lambdas, box=box)
        assert rep.measures == tuple(level_measure(af.majorant(), lam, box=box) for lam in lambdas)
        assert rep.products == tuple(lam * mu for lam, mu in zip(lambdas, rep.measures))


def test_exact_zeros_add_the_bits_of_fraction_zero_terms():
    """An exact zero beside floats adds as the int 0: the same value, type
    and signed zeros as a Fraction(0, unit) term in the same tree place."""
    cfg = GridConfig.from_lists([[2, 3]])
    unit = weight_unit(cfg)
    for values in ((0, -0.0, 0.5, Fraction(0)), (0, complex(-0.0, -0.0), -0.0, 1),
                   (Fraction(0), -0.0, -0.0), (0, 0, complex(-0.0, 0.0), 2.5, Fraction(1, 3))):
        for perm in permutations(values):  # not a set: -0.0 == 0 == Fraction(0)
            weights = list(range(1, len(perm) + 1))
            want = tree_sum([Fraction(v * w, unit) if is_exact(v) else v * (w / unit)
                             for v, w in zip(perm, weights)], zero=Fraction(0))
            _same(weighted_sum(cfg, perm, weights), want)
