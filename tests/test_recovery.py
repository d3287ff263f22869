import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    AdditiveFn,
    Cell,
    CoeffMap,
    GridConfig,
    HFamily,
    StepFunction,
    full_cube,
    gamma_path_reference,
    haar_coeffs_from_price,
    inner_product,
    lambda_condition_check,
    price_coeffs_from_haar,
    recover_additive,
    recover_haar_coeff,
    recover_price_coeff,
    stabilized_sum,
    tail_condition_check,
    tail_integral,
    tensor_haar_step,
    tensor_price_step,
    truncate,
)
from padicah.grid import refine_cell
from padicah.systems import haar_sup_sq
from strategies import grids, haar_indices, haar_series, split


def _dyadic(depth):
    return GridConfig.from_lists([[2] * depth])


def _const_family(cfg, first, count):
    return HFamily.from_members(
        [StepFunction.constant(cfg, 2 ** m) for m in range(first, first + count)]
    )


def test_recover_additive_exact_series():
    cfg = _dyadic(6)
    cm = CoeffMap(cfg, {(1,): 2, (3,): -1, (6,): 1}, "haar")
    af = AdditiveFn.from_series(cm)
    fam = _const_family(cfg, 1, 5)
    rep = recover_additive(af, fam, boxes=(Cell((1,), (0,)),))[0]
    assert rep.reference == 1
    assert rep.estimates[-1] == 1
    assert rep.errors[-1] == 0.0
    assert rep.passes
    assert rep.family_ok


def test_recover_additive_truncation_actually_bites():
    """Large coefficients should be cut by early members and return later."""
    cfg = _dyadic(6)
    cm = CoeffMap(cfg, {(1,): 2, (5,): 8}, "haar")
    af = AdditiveFn.from_series(cm)
    fam = _const_family(cfg, 1, 6)
    box = full_cube(1)
    rep = recover_additive(af, fam, boxes=(box,))[0]
    assert rep.errors[0] > 0
    assert rep.errors[-1] == 0.0
    assert rep.estimates[-1] == af.value_on(box)
    assert rep.passes


def test_recover_additive_estimates_settle_on_every_cell():
    rng = random.Random(42424)
    cfg = _dyadic(6)
    fam = _const_family(cfg, 2, 6)
    for _ in range(10):
        entries = {}
        for _ in range(3):
            entries[(rng.randrange(8),)] = rng.randint(-3, 3)
        af = AdditiveFn.from_series(CoeffMap(cfg, entries, "haar"))
        rank = rng.randint(0, 3)
        box = Cell((rank,), (rng.randrange(2 ** rank),))
        rep = recover_additive(af, fam, boxes=(box,))[0]
        assert rep.passes
        assert abs(complex(rep.estimates[-1]) - complex(af.value_on(box))) < 1e-12


def test_recover_additive_flags_bad_family():
    cfg = _dyadic(6)
    af = AdditiveFn.from_series(CoeffMap(cfg, {(1,): 2}, "haar"))
    broken = HFamily.from_members(
        [StepFunction.constant(cfg, 4), StepFunction.on_grid(cfg, (1,), [3, 5])]
    )
    rep = recover_additive(af, broken)[0]
    assert not rep.family_ok
    assert not rep.passes


def test_recover_haar_coeff_planted():
    cfg = _dyadic(5)
    cm = CoeffMap(cfg, {(1,): 2, (3,): Fraction(-5, 2), (6,): 1}, "haar")
    f = stabilized_sum(cm)
    fam = _const_family(cfg, 1, 6)
    rep = recover_haar_coeff(f, (3,), fam)
    assert rep.mode == "haar"
    assert rep.scale_sq == 2  # chi_3 lives at rank 1, sup norm sqrt(2)
    assert abs(complex(rep.reference) - (-2.5)) < 1e-12
    assert rep.final_error <= rep.tol
    assert abs(complex(rep.estimates[-1]) - (-2.5)) < 1e-10


def test_recover_haar_coeff_2d_scale():
    cfg = GridConfig.from_lists([[2, 2, 2], [3, 3, 3]])
    cm = CoeffMap(cfg, {(3, 2): complex(1.5, -0.5), (0, 1): 2}, "haar")
    f = stabilized_sum(cm)
    fam = HFamily.from_members(
        [StepFunction.constant(cfg, 2 ** m) for m in range(1, 7)]
    )
    rep = recover_haar_coeff(f, (3, 2), fam)
    # flat 3 sits at rank 1 (modulus 2), flat 2 at rank 0 (modulus 1)
    assert rep.scale_sq == 2
    assert rep.final_error < 1e-10


def test_recover_price_coeff_planted():
    cfg = GridConfig.from_lists([[3, 2, 2]])
    cm = CoeffMap(cfg, {(2,): complex(0, 1), (4,): -2}, "price")
    f = stabilized_sum(cm)
    fam = _const_family(cfg, 1, 6)
    rep = recover_price_coeff(f, (4,), fam)
    assert rep.mode == "price"
    assert rep.scale_sq == 1  # characters are unimodular
    assert abs(complex(rep.estimates[-1]) - (-2)) < 1e-10
    assert rep.final_error <= rep.tol


def test_recover_coeff_zero_when_not_planted():
    cfg = _dyadic(4)
    cm = CoeffMap(cfg, {(1,): 3}, "haar")
    f = stabilized_sum(cm)
    fam = _const_family(cfg, 2, 4)
    rep = recover_haar_coeff(f, (2,), fam)
    assert abs(complex(rep.estimates[-1])) < 1e-12
    assert rep.final_error <= rep.tol


def test_gamma_path_reference_matches_transform():
    rng = random.Random(8421)
    cfg = GridConfig.from_lists([[2, 3, 2]])
    entries = {}
    for _ in range(4):
        entries[(rng.randrange(12),)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    cm = CoeffMap(cfg, entries, "haar")
    price = price_coeffs_from_haar(cm)
    for k in range(12):
        assert abs(gamma_path_reference(cm, (k,)) - complex(price.get((k,)))) < 1e-12
    back = haar_coeffs_from_price(price)
    for n in range(12):
        assert abs(gamma_path_reference(price, (n,)) - complex(back.get((n,)))) < 1e-10


def test_lambda_condition_products():
    cfg = _dyadic(2)
    af = AdditiveFn.from_series(CoeffMap(cfg, {(1,): 2}, "haar"))
    rep = lambda_condition_check(af, [1, 2, 3])
    assert rep.lambdas == (1, 2, 3)
    assert rep.measures == (1, 0, 0)
    assert rep.products == (1, 0, 0)


def test_lambda_condition_respects_box():
    cfg = _dyadic(3)
    # majorant is 2*sqrt(2) on [0, 1/2) and 0 on [1/2, 1)
    af = AdditiveFn.from_series(CoeffMap(cfg, {(2,): 2}, "haar"))
    rep_all = lambda_condition_check(af, [1, 2, 3], box=full_cube(1))
    assert rep_all.measures == (Fraction(1, 2), Fraction(1, 2), 0)
    assert rep_all.products == (Fraction(1, 2), 1, 0)
    rep_left = lambda_condition_check(af, [2], box=Cell((2,), (0,)))
    assert rep_left.measures == (Fraction(1, 4),)
    rep_right = lambda_condition_check(af, [2], box=Cell((1,), (1,)))
    assert rep_right.measures == (0,)


def test_tail_condition_passes_for_dominated_series():
    cfg = _dyadic(6)
    af = AdditiveFn.from_series(CoeffMap(cfg, {(1,): 2, (3,): 1}, "haar"))
    fam = _const_family(cfg, 2, 5)
    rep = tail_condition_check(af, fam)
    assert rep.tails[-1] == 0
    assert rep.window_monotone
    assert rep.passes
    assert rep.window_start == (2 * len(fam)) // 3


def test_tail_condition_fails_when_tails_stay_up():
    cfg = _dyadic(6)
    af = AdditiveFn.from_series(CoeffMap(cfg, {(5,): 8}, "haar"))
    # family stuck at 2: the majorant tail never drains
    fam = HFamily.from_members([StepFunction.constant(cfg, 2)] * 4)
    rep = tail_condition_check(af, fam)
    assert not rep.passes


def test_recover_additive_tolerance_is_honored():
    cfg = _dyadic(6)
    cm = CoeffMap(cfg, {(1,): 2, (5,): 8}, "haar")
    af = AdditiveFn.from_series(cm)
    # family too short for the large coefficient to come back
    fam = _const_family(cfg, 1, 2)
    rep = recover_additive(af, fam)[0]
    assert rep.errors[-1] > rep.tol
    assert not rep.passes


@st.composite
def _series_family_boxes(draw):
    """A Haar or Price map (integer or complex coefficients), one to three
    cutoff members on random tilings with exact or float values, and one
    to five mixed-rank boxes."""
    coeffs = draw(haar_series(max_cells=256).filter(lambda c: c.cfg.dim <= 2))
    cfg = coeffs.cfg
    coeffs = CoeffMap(cfg, dict(coeffs.items()), draw(st.sampled_from(("haar", "price"))))
    level = st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=4), st.floats(0, 6))
    members = [StepFunction.from_pieces(cfg, [(c, draw(level)) for c in split(draw, cfg)])
               for _ in range(draw(st.integers(1, 3)))]
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        ranks = [draw(st.integers(0, seq.depth)) for seq in cfg.seqs]
        boxes.append(Cell(ranks, [draw(st.integers(0, seq.modulus(k) - 1))
                                  for seq, k in zip(cfg.seqs, ranks)]))
    return AdditiveFn.from_series(coeffs), HFamily.from_members(members), boxes


@settings(max_examples=60)
@given(_series_family_boxes())
def test_shared_member_pass_matches_one_recovery_per_box(case):
    """Every box read from one pass per member gives, float bits included,
    what a separate truncation and tail per box and member gives."""
    af, fam, boxes = case
    deriv, maj = af.derivative(), af.majorant()
    reports = recover_additive(af, fam, boxes=boxes, threads=2)
    assert len(reports) == len(boxes)
    for box, rep in zip(boxes, reports):
        reference = af.value_on(box)
        estimates = tuple(truncate(deriv, h).integral(box) for h in fam.members)
        tails = tuple(tail_integral(maj, h, alpha=1, strict=True, box=box) for h in fam.members)
        errors = tuple(abs(complex(e) - complex(reference)) for e in estimates)
        assert rep.box == box
        assert repr(rep.reference) == repr(reference)
        assert repr(rep.estimates) == repr(estimates)
        assert repr(rep.hypothesis_tails) == repr(tails)
        assert repr(rep.errors) == repr(errors)


def _multi_cell_tiling(draw, cfg):
    """A random tiling of the cube with at least two cells."""
    cells = split(draw, cfg)
    return cells if len(cells) > 1 else list(refine_cell(cfg, cells[0], 0))


@st.composite
def _coeff_recovery_cases(draw):
    """A density on a random tiling with int, Fraction or complex values (or
    all three), one to three multi-cell members on tilings of their own
    with exact or float levels, and a Haar or Price index."""
    cfg = draw(grids(max_cells=128))
    exact = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
    value = draw(st.sampled_from([
        st.integers(-4, 4),
        st.fractions(-4, 4, max_denominator=6),
        st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)),
        st.one_of(exact, st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))),
    ]))
    f = StepFunction.from_pieces(cfg, [(c, draw(value)) for c in _multi_cell_tiling(draw, cfg)])
    level = st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=4), st.floats(0, 6))
    members = [StepFunction.from_pieces(cfg, [(c, draw(level)) for c in _multi_cell_tiling(draw, cfg)])
               for _ in range(draw(st.integers(1, 3)))]
    return f, HFamily.from_members(members), draw(st.sampled_from(("haar", "price"))), \
        draw(haar_indices(cfg)), draw(st.sampled_from((1, 2)))


@settings(max_examples=80)
@given(_coeff_recovery_cases())
def test_one_pass_recovery_matches_a_truncation_per_member(case):
    """The estimates read from one density-basis refinement equal, float
    bits included, <[f]_{c h}, basis> built member by member; so does the
    reference read from that refinement when none is given."""
    f, fam, mode, index, threads = case
    if mode == "haar":
        basis, scale_sq = tensor_haar_step(f.cfg, index), haar_sup_sq(f.cfg, index)
        rep = recover_haar_coeff(f, index, fam, threads=threads)
    else:
        basis, scale_sq = tensor_price_step(f.cfg, index), 1
        rep = recover_price_coeff(f, index, fam, threads=threads)
    estimates = tuple(inner_product(truncate(f, h, scale_sq), basis) for h in fam.members)
    assert rep.scale_sq == scale_sq
    assert repr(rep.estimates) == repr(estimates)
    assert repr(rep.reference) == repr(inner_product(f, basis))


def test_a_coefficient_recovery_refines_once_plus_once_per_member(monkeypatch):
    """One refinement of the density against the basis, then one per
    member; refining each member's truncation against the basis again
    took two per member."""
    from padicah import stepfn

    cfg = GridConfig.from_lists([[2, 3, 2], [3, 2, 2]])
    f = stabilized_sum(CoeffMap(cfg, {(1, 2): 2, (5, 0): Fraction(-3, 2), (0, 7): 1}, "haar"))
    halves = refine_cell(cfg, full_cube(2), 0)
    members = [StepFunction.constant(cfg, 1), StepFunction.from_pieces(cfg, zip(halves, (2, 3))),
               StepFunction.constant(cfg, 4), StepFunction.from_pieces(cfg, zip(halves, (8, 5)))]
    calls = []
    refine = stepfn.common_refinement
    monkeypatch.setattr(stepfn, "common_refinement", lambda a, b: calls.append(1) or refine(a, b))
    for module in ("integration", "recovery"):
        monkeypatch.setattr(f"padicah.{module}.common_refinement", stepfn.common_refinement)
    rep = recover_haar_coeff(f, (5, 0), HFamily.from_members(members), reference=Fraction(-3, 2))
    assert len(calls) == 1 + len(members)
    assert rep.final_error < 1e-12
