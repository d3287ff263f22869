from fractions import Fraction

import pytest

from padicah import (
    AdditiveFn,
    Cell,
    ExampleSpec,
    UnitValue,
    WindowError,
    check_family,
    end_to_end,
    example_family,
    example_series,
    failure_window,
    full_cube,
    haar_decode,
    stabilized_sum,
    staircase_member,
    tail_bound,
    term_support,
    verify_ah_success,
    verify_lambda_failure,
)
from padicah.counterexample import triangle


def test_triangle_numbers():
    assert [triangle(n) for n in range(1, 7)] == [0, 1, 3, 6, 10, 15]


def test_example_spec_defaults():
    spec = ExampleSpec(n_max=4)
    assert spec.family_members == 5
    assert spec.j_values == (1, 2, 3)
    assert spec.max_term_rank == triangle(4) + 4
    assert spec.depth >= spec.max_term_rank + 1


def test_example_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        ExampleSpec(n_max=0)
    with pytest.raises(ValueError, match="2..8"):
        ExampleSpec(n_max=1)  # one row has no level window to certify
    with pytest.raises(ValueError):
        ExampleSpec(n_max=9)


def test_example_spec_rejects_an_empty_exponent_list():
    """No exponent would certify no failure window, and pass."""
    with pytest.raises(ValueError, match="at least one right-edge exponent"):
        ExampleSpec(n_max=5, j_values=())


def test_term_support_geometry():
    cfg = ExampleSpec(n_max=4).grid()
    for n in range(1, 5):
        k_n = triangle(n)
        for i in range(1, n + 1):
            t = k_n + i
            cell = term_support(n, i)
            assert cell.ranks == (t,)
            # left endpoint of piece i, which is 1 - 2^(1-i)
            assert cell.start(cfg, 0) == 1 - Fraction(1, 2 ** (i - 1))
            assert cell.measure(cfg) == Fraction(1, 2 ** t)


def test_term_supports_nest_for_fixed_piece():
    cfg = ExampleSpec(n_max=5).grid()
    for i in range(1, 4):
        for n in range(i, 5):
            outer = term_support(n, i)
            inner = term_support(n + 1, i)
            assert outer.contains(cfg, inner)


def test_example_series_entries():
    spec = ExampleSpec(n_max=3)
    series = example_series(spec)
    assert series.mode == "haar"
    entries = dict(series.items())
    assert len(entries) == triangle(4)  # one term per pair (n, i), i <= n
    seq = spec.grid().seqs[0]
    for (flat,), coeff in entries.items():
        k, r, s = haar_decode(seq, flat)
        assert s == 1
        assert isinstance(coeff, UnitValue)
        assert coeff.abs_sq == 2 ** k
        assert coeff.phase == 0
        assert term_support_rank_index(k, r)


def term_support_rank_index(k, r):
    # every entry must match some declared term support
    for n in range(1, 9):
        for i in range(1, n + 1):
            c = term_support(n, i)
            if c.ranks == (k,) and c.indices == (r,):
                return True
    return False


def test_staircase_member_frozen_layout():
    cfg = ExampleSpec(n_max=3).grid()
    m1 = staircase_member(cfg, 1)
    assert list(zip(m1.cells, m1.values)) == [
        (Cell((1,), (0,)), 4),
        (Cell((1,), (1,)), 2),
    ]
    m2 = staircase_member(cfg, 2)
    assert list(zip(m2.cells, m2.values)) == [
        (Cell((1,), (0,)), 8),
        (Cell((2,), (2,)), 16),
        (Cell((2,), (3,)), 4),
    ]
    m3 = staircase_member(cfg, 3)
    assert list(zip(m3.cells, m3.values)) == [
        (Cell((1,), (0,)), 32),
        (Cell((2,), (2,)), 64),
        (Cell((3,), (6,)), 128),
        (Cell((3,), (7,)), 8),
    ]


def test_example_family_satisfies_hypotheses():
    # the two-member family is the default of one row, which no spec allows
    for n_max, members in ((2, 2), (2, None), (3, None), (4, None), (5, None)):
        fam = example_family(ExampleSpec(n_max=n_max, family_members=members))
        assert len(fam) == (members or n_max + 1)
        rep = check_family(fam)
        assert rep.passes
        assert rep.oscillation_c == 1
        assert rep.eps0 == 1


def test_tail_bound_closed_form():
    assert tail_bound(1) == 3
    assert tail_bound(2) == 2
    assert tail_bound(3) == 1
    assert tail_bound(4) == Fraction(17, 32)


def test_failure_window_ranges():
    spec = ExampleSpec(n_max=5)
    assert failure_window(spec, 1) == range(1, 14)
    assert failure_window(spec, 2) == range(2, 14)
    assert failure_window(spec, 3) == range(5, 14)
    assert failure_window(spec, 4) == range(9, 14)


def test_window_error_when_j_too_large():
    spec = ExampleSpec(n_max=3)
    with pytest.raises(WindowError, match="j <= 2"):
        verify_lambda_failure(spec, 3)


def test_lambda_failure_holds_with_exact_floor():
    spec = ExampleSpec(n_max=5)
    af = AdditiveFn.from_series(example_series(spec))
    for j in (1, 2, 3, 4):
        rep = verify_lambda_failure(spec, j, af=af)
        assert rep.holds
        assert rep.product_floor == Fraction(1, 2 ** (j + 2))
        assert all(p >= rep.product_floor for p in rep.products)
        assert rep.box == Cell((j,), (2 ** j - 1,))
    # the deepest piece pins the floor exactly
    worst = verify_lambda_failure(spec, 4, af=af)
    assert min(worst.products) == Fraction(1, 64)


def test_lambda_failure_measures_against_brute_force():
    """Recompute mu{Psi* > 2^m} by expanding the majorant to uniform rank."""
    spec = ExampleSpec(n_max=3)
    cfg = spec.grid()
    af = AdditiveFn.from_series(example_series(spec))
    maj = af.majorant()
    depth = spec.depth
    flat = maj.uniform_values((depth,))
    cell_measure = Fraction(1, 2 ** depth)
    for j in (1, 2):
        rep = verify_lambda_failure(spec, j, af=af)
        box = rep.box
        lo = box.start(cfg, 0) * 2 ** depth
        hi = box.end(cfg, 0) * 2 ** depth
        for m, measure in zip(rep.m_window, rep.measures):
            level = 2 ** m
            count = sum(
                1
                for idx in range(int(lo), int(hi))
                if float(flat[idx]) > level
            )
            assert measure == count * cell_measure


def test_success_tails_frozen_n5():
    spec = ExampleSpec(n_max=5)
    rep = verify_ah_success(spec)
    assert rep.tails == (
        Fraction(12833, 16384),
        Fraction(8737, 8192),
        Fraction(3105, 4096),
        Fraction(1025, 2048),
        0,
        0,
    )
    assert rep.bounds == (
        3,
        2,
        1,
        Fraction(17, 32),
        Fraction(161, 512),
        Fraction(3073, 16384),
    )
    assert rep.tails_within_bounds
    assert rep.inclusion_ok
    assert rep.head_bound_ok
    assert rep.decay_ok


def test_success_tails_vanish_from_n_max_on():
    for n_max in (2, 3, 4):
        rep = verify_ah_success(ExampleSpec(n_max=n_max))
        assert all(t == 0 for t in rep.tails[n_max - 1:])
        assert rep.tails_within_bounds


def test_head_bound_brute_force():
    """Once m reaches n_max the staircase member dominates the density on
    pieces 1..m, so the truncation stops cutting anything there."""
    spec = ExampleSpec(n_max=3)
    cfg = spec.grid()
    af = AdditiveFn.from_series(example_series(spec))
    deriv = af.derivative()
    depth = spec.depth
    dvals = deriv.uniform_values((depth,))
    for m in (3, 4):
        h = staircase_member(cfg, m)
        hvals = h.uniform_values((depth,))
        # pieces 1..m cover [0, 1 - 2^-m)
        end = (2 ** depth) - (2 ** (depth - m))
        for idx in range(end):
            assert abs(dvals[idx]) <= hvals[idx]
        # and the density vanishes on the remaining sliver
        assert all(v == 0 for v in dvals[end:])


def test_density_exceeds_family_on_last_piece():
    # below n_max the nonzero density values on [1 - 2^-m, 1) overshoot
    # 2^m, so the truncation wipes that region instead of keeping it
    spec = ExampleSpec(n_max=3)
    af = AdditiveFn.from_series(example_series(spec))
    deriv = af.derivative()
    depth = spec.depth
    dvals = deriv.uniform_values((depth,))
    for m in (1, 2):
        start = (2 ** depth) - (2 ** (depth - m))
        nonzero = [abs(v) for v in dvals[start:] if v != 0]
        assert nonzero
        assert min(nonzero) > 2 ** m


def test_value_on_agrees_with_direct_sum_integral():
    spec = ExampleSpec(n_max=3)
    af = AdditiveFn.from_series(example_series(spec))
    full_sum = stabilized_sum(example_series(spec))
    boxes = [
        full_cube(1),
        Cell((1,), (0,)),
        Cell((2,), (0,)),
        Cell((2,), (1,)),
        Cell((2,), (3,)),
        Cell((3,), (5,)),
    ]
    for box in boxes:
        direct = full_sum.integral(box)
        assert af.value_on(box) == direct


def test_recovery_reference_values():
    rep = end_to_end(ExampleSpec(n_max=5))
    refs = [r.reference for r in rep.recoveries]
    assert refs == [0, 0, Fraction(1, 2), Fraction(-1, 2), 0]


def test_recovery_estimates_frozen_n5():
    rep = end_to_end(ExampleSpec(n_max=5))
    est = rep.recoveries[0].estimates
    assert est == (
        Fraction(-3, 4),
        Fraction(-5, 8),
        Fraction(-29, 64),
        Fraction(-285, 1024),
        0,
        0,
    )
    for r in rep.recoveries:
        assert r.errors[-1] == 0.0
        assert r.passes


def test_end_to_end_overall_pass():
    for n_max in (2, 3, 4):
        rep = end_to_end(ExampleSpec(n_max=n_max))
        assert rep.overall_pass
        assert rep.family_report.passes
        assert rep.success.tails_within_bounds
        assert all(f.holds for f in rep.failures)
        assert rep.tail_check.passes
        assert rep.tail_tol == float(tail_bound(n_max + 1))


def test_end_to_end_thread_count_invariance():
    a = end_to_end(ExampleSpec(n_max=3), threads=1)
    b = end_to_end(ExampleSpec(n_max=3), threads=4)
    from padicah import canonical_json

    assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())


def test_end_to_end_json_document():
    rep = end_to_end(ExampleSpec(n_max=2))
    doc = rep.to_json_dict()
    assert doc["n_max"] == 2
    assert doc["overall_pass"] is True
    assert doc["schema_version"] == 1
    assert len(doc["failures"]) == 1
    assert len(doc["recoveries"]) == 5


def test_end_to_end_refines_each_member_once_per_function(monkeypatch):
    """Each of the 9 members meets the density once and the majorant once
    (18 refinements); the rest are the family check's 8 monotonicity and 9
    partition sweeps.  The majorant comes from the density's tree pass with
    no refinement; a running maximum over the band sums S_0..S_37 made 37
    more, and without the shared member pass the count was 171."""
    from padicah import stepfn

    calls = []
    refine = stepfn.common_refinement
    monkeypatch.setattr(stepfn, "common_refinement", lambda f, g: calls.append(1) or refine(f, g))
    for module in ("integration", "recovery"):
        monkeypatch.setattr(f"padicah.{module}.common_refinement", stepfn.common_refinement)
    end_to_end(ExampleSpec(8, j_values=(1, 3)))
    assert len(calls) == 35
