import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    AdditiveFn,
    Cell,
    CoeffMap,
    ConfigMismatch,
    GridConfig,
    UnitValue,
    ValueGuardError,
    coeffs_from_json_dict,
    coeffs_to_json_dict,
    decompose_box,
    full_cube,
    gen_haar_eval,
    haar_coeffs_from_price,
    partial_sum,
    point_code,
    price_coeffs_from_haar,
    price_eval,
    series_majorant,
    stabilized_sum,
)
from padicah.systems import block_of_index
from strategies import haar_series


def _eval_at(coeffs, digit_rows, N=None):
    """Pointwise series value straight from the definition."""
    cfg = coeffs.cfg
    total = complex(0)
    for nvec, a in coeffs.items():
        if N is not None:
            skip = False
            for j, n in enumerate(nvec):
                if n >= cfg.seqs[j].modulus(N):
                    skip = True
            if skip:
                continue
        prod = complex(a)
        for j, n in enumerate(nvec):
            if coeffs.mode == "haar":
                u = gen_haar_eval(cfg.seqs[j], n, digit_rows[j])
            else:
                u = price_eval(cfg.seqs[j], n, digit_rows[j])
            prod *= complex(u.as_number())
        total += prod
    return total


def _random_coeffs(rng, cfg, mode, count):
    entries = {}
    for _ in range(count):
        nvec = tuple(
            rng.randrange(cfg.seqs[j].modulus(cfg.seqs[j].depth))
            for j in range(cfg.dim)
        )
        entries[nvec] = rng.choice(
            [rng.randint(-4, 4), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
        )
    return CoeffMap(cfg, entries, mode)


def _random_digit_rows(rng, cfg, depth):
    return tuple(
        tuple(rng.randrange(cfg.seqs[j].factor(r + 1)) for r in range(depth))
        for j in range(cfg.dim)
    )


def test_coeff_map_validation():
    cfg = GridConfig.from_lists([[2, 2]])
    with pytest.raises(ValueError):
        CoeffMap(cfg, {(0,): 1}, "fourier")
    with pytest.raises(ConfigMismatch):
        CoeffMap(cfg, {(0, 0): 1}, "haar")
    with pytest.raises(ValueError):
        CoeffMap(cfg, {(-1,): 1}, "haar")
    with pytest.raises(ValueError):
        CoeffMap(cfg, {(4,): 1}, "haar")


def test_coeff_map_exactness_guard():
    cfg = GridConfig.from_lists([[2, 2]])
    with pytest.raises(ValueGuardError):
        CoeffMap(cfg, {(0,): 2 ** 53}, "haar")
    # float coefficients are not subject to the guard
    CoeffMap(cfg, {(0,): 2.0 ** 53}, "haar")


def test_partial_sum_matches_pointwise_definition():
    rng = random.Random(90125)
    for _ in range(40):
        if rng.random() < 0.5:
            cfg = GridConfig.from_lists([[rng.choice((2, 3)) for _ in range(3)]])
        else:
            cfg = GridConfig.from_lists(
                [[2, 2, 2], [rng.choice((2, 3)), 3, 2]]
            )
        mode = rng.choice(("haar", "price"))
        coeffs = _random_coeffs(rng, cfg, mode, rng.randint(1, 4))
        for N in range(4):
            sn = partial_sum(coeffs, N)
            for _ in range(5):
                rows = _random_digit_rows(rng, cfg, 3)
                got = complex(sn.value_at(point_code(cfg, *rows)))
                want = _eval_at(coeffs, rows, N)
                assert abs(got - want) < 1e-10


def test_stabilized_sum_is_full_partial_sum():
    rng = random.Random(555)
    for _ in range(25):
        cfg = GridConfig.from_lists([[rng.choice((2, 3)) for _ in range(4)]])
        coeffs = _random_coeffs(rng, cfg, rng.choice(("haar", "price")), 3)
        r = coeffs.stabilization_rank
        full = partial_sum(coeffs, r)
        sparse = stabilized_sum(coeffs)
        for _ in range(8):
            rows = _random_digit_rows(rng, cfg, 4)
            pt = point_code(cfg, *rows)
            assert abs(complex(full.value_at(pt)) - complex(sparse.value_at(pt))) < 1e-10


def test_additive_fn_is_additive_on_every_cell():
    rng = random.Random(777)
    cfg = GridConfig.from_lists([[2, 3, 2], [3, 2, 2]])
    coeffs = _random_coeffs(rng, cfg, "haar", 4)
    af = AdditiveFn.from_series(coeffs)
    for rank in range(3):
        m0 = cfg.seqs[0].modulus(rank)
        m1 = cfg.seqs[1].modulus(rank)
        for i0 in range(m0):
            for i1 in range(m1):
                box = Cell((rank, rank), (i0, i1))
                kids = _children(cfg, box)
                whole = complex(af.value_on(box))
                parts = sum(complex(af.value_on(k)) for k in kids)
                assert abs(whole - parts) < 1e-12


def _children(cfg, box):
    from padicah import refine_cell

    kids = [box]
    for j in range(cfg.dim):
        kids = [c for k in kids for c in refine_cell(cfg, k, j)]
    return kids


def test_additive_fn_mixed_rank_box_agrees_with_decomposition():
    rng = random.Random(31337)
    cfg = GridConfig.from_lists([[2, 2, 3], [3, 2, 2]])
    for _ in range(20):
        coeffs = _random_coeffs(rng, cfg, "haar", 3)
        af = AdditiveFn.from_series(coeffs)
        ranks = (rng.randint(0, 3), rng.randint(0, 3))
        idx = tuple(
            rng.randrange(cfg.seqs[j].modulus(ranks[j])) for j in range(2)
        )
        box = Cell(ranks, idx)
        parts = decompose_box(cfg, box)
        whole = complex(af.value_on(box))
        total = sum(complex(af.value_on(p)) for p in parts)
        assert abs(whole - total) < 1e-12


def test_derivative_density_reproduces_values():
    rng = random.Random(2024)
    cfg = GridConfig.from_lists([[3, 2, 2]])
    coeffs = _random_coeffs(rng, cfg, "haar", 3)
    af = AdditiveFn.from_series(coeffs)
    deriv = af.derivative()
    r = af.stabilization_rank
    m = cfg.seqs[0].modulus(r)
    for i in range(m):
        cell = Cell((r,), (i,))
        want = complex(af.value_on(cell)) / float(cell.measure(cfg))
        got = complex(deriv.value_at(point_code(cfg, _digits_of(cfg.seqs[0], r, i))))
        assert abs(want - got) < 1e-9


def _digits_of(seq, rank, index):
    digs = []
    for j in reversed(range(rank)):
        block = index % seq.factor(j + 1)
        digs.append(block)
        index //= seq.factor(j + 1)
    return tuple(reversed(digs)) + (0,) * (seq.depth - rank)


def test_majorant_is_running_partial_sum_max():
    rng = random.Random(8080)
    for _ in range(15):
        cfg = GridConfig.from_lists([[rng.choice((2, 3)) for _ in range(3)]])
        coeffs = _random_coeffs(rng, cfg, "haar", 3)
        maj = series_majorant(coeffs)
        sums = [partial_sum(coeffs, N) for N in range(4)]
        for _ in range(6):
            rows = _random_digit_rows(rng, cfg, 3)
            pt = point_code(cfg, *rows)
            want = max(abs(complex(s.value_at(pt))) for s in sums)
            got = float(maj.value_at(pt))
            assert abs(got - want) < 1e-10


def test_majorant_agrees_with_additive_fn_method():
    cfg = GridConfig.from_lists([[2, 2, 2]])
    coeffs = CoeffMap(cfg, {(1,): 2, (3,): -1, (5,): 3}, "haar")
    a = series_majorant(coeffs)
    b = AdditiveFn.from_series(coeffs).majorant()
    pts = [point_code(cfg, (i, j, k)) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    for pt in pts:
        assert a.value_at(pt) == b.value_at(pt)


def test_haar_price_round_trip():
    rng = random.Random(616)
    for _ in range(20):
        cfg = GridConfig.from_lists([[rng.choice((2, 3)) for _ in range(3)]])
        coeffs = _random_coeffs(rng, cfg, "haar", 4)
        back = haar_coeffs_from_price(price_coeffs_from_haar(coeffs))
        keys = set(coeffs.support()) | set(back.support())
        for nvec in keys:
            assert abs(complex(back.get(nvec)) - complex(coeffs.get(nvec))) < 1e-10


def test_transform_preserves_partial_sums():
    """S_N under chi with haar coefficients equals S_N under psi after the
    block-wise change of basis, for every N."""
    rng = random.Random(11)
    cfg = GridConfig.from_lists([[2, 3, 2]])
    coeffs = _random_coeffs(rng, cfg, "haar", 4)
    price = price_coeffs_from_haar(coeffs)
    for N in range(4):
        a = partial_sum(coeffs, N)
        b = partial_sum(price, N)
        for _ in range(6):
            rows = _random_digit_rows(rng, cfg, 3)
            pt = point_code(cfg, *rows)
            assert abs(complex(a.value_at(pt)) - complex(b.value_at(pt))) < 1e-9


def test_transform_parseval_per_block():
    from padicah import block_range

    rng = random.Random(99)
    cfg = GridConfig.from_lists([[3, 2, 2]])
    seq = cfg.seqs[0]
    coeffs = _random_coeffs(rng, cfg, "haar", 5)
    price = price_coeffs_from_haar(coeffs)
    for t in range(4):
        blk = block_range(seq, t)
        ha = sum(abs(complex(coeffs.get((n,)))) ** 2 for n in blk)
        pr = sum(abs(complex(price.get((k,)))) ** 2 for k in blk)
        assert abs(ha - pr) < 1e-10


@st.composite
def _sparse_haar_series(draw, max_cells=5 ** 6):
    """A 1-D or 2-D grid with p <= 5, depth <= 3 and at most `max_cells`
    cells at full depth, carrying one to four Haar coefficients."""
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 3))
    lists, cells = [[] for _ in range(dim)], 1
    for slot in range(dim * depth):
        room = max_cells // (cells * 2 ** (dim * depth - slot - 1))
        p = draw(st.integers(2, min(5, room)))
        lists[slot % dim].append(p)
        cells *= p
    cfg = GridConfig.from_lists(lists)
    index = st.tuples(*(st.integers(0, seq.modulus(depth) - 1) for seq in cfg.seqs))
    value = st.one_of(
        st.integers(-4, 4), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    )
    return CoeffMap(cfg, draw(st.dictionaries(index, value, min_size=1, max_size=4)), "haar")


def _block_energy(coeffs):
    energy = {}
    for nvec, value in coeffs.items():
        key = tuple(block_of_index(seq, n) for seq, n in zip(coeffs.cfg.seqs, nvec))
        energy[key] = energy.get(key, 0) + abs(complex(value)) ** 2
    return energy


@settings(max_examples=60)
@given(_sparse_haar_series())
def test_round_trip_property(coeffs):
    back = haar_coeffs_from_price(price_coeffs_from_haar(coeffs))
    for nvec in set(coeffs.support()) | set(back.support()):
        assert abs(complex(back.get(nvec)) - complex(coeffs.get(nvec))) < 1e-10


@settings(max_examples=60)
@given(_sparse_haar_series())
def test_parseval_per_block_property(coeffs):
    haar, price = _block_energy(coeffs), _block_energy(price_coeffs_from_haar(coeffs))
    for key in set(haar) | set(price):
        assert abs(haar.get(key, 0) - price.get(key, 0)) < 1e-10


@settings(max_examples=25)
@given(_sparse_haar_series(max_cells=144))
def test_partial_sums_agree_across_systems_property(coeffs):
    price = price_coeffs_from_haar(coeffs)
    for N in range(coeffs.cfg.min_depth + 1):
        a, b = partial_sum(coeffs, N), partial_sum(price, N)
        assert a.cells == b.cells
        for x, y in zip(a.values, b.values):
            assert abs(complex(x) - complex(y)) < 1e-9


def test_coeff_json_round_trip():
    cfg = GridConfig.from_lists([[2, 2], [3, 3]])
    cm = CoeffMap(cfg, {(0, 0): 2, (3, 1): complex(0.5, -1.25)}, "haar")
    doc = coeffs_to_json_dict(cm)
    assert doc["mode"] == "haar"
    assert doc["grid"]["seqs"] == [[2, 2], [3, 3]]
    back = coeffs_from_json_dict(doc)
    assert back.mode == cm.mode
    assert dict(back.items()) == {(0, 0): 2, (3, 1): complex(0.5, -1.25)}


def test_coeff_json_diagnostics_name_the_field():
    good_grid = {"dims": 1, "seqs": [[2, 2]], "depth": 2}
    with pytest.raises(ValueError, match="mode"):
        coeffs_from_json_dict({"mode": "x", "grid": good_grid, "entries": []})
    with pytest.raises(ValueError, match="entries\\[0\\]"):
        coeffs_from_json_dict(
            {"mode": "haar", "grid": good_grid, "entries": [[[0], "x", 0]]}
        )
    with pytest.raises(ValueError, match="entries\\[1\\]"):
        coeffs_from_json_dict(
            {"mode": "haar", "grid": good_grid, "entries": [[[0], 1, 0], [0, 1, 0]]}
        )
    with pytest.raises(ValueError, match="entries"):
        coeffs_from_json_dict({"mode": "haar", "grid": good_grid, "entries": {}})


def test_from_table_density():
    cfg = GridConfig.from_lists([[2, 2]])
    af = AdditiveFn.from_table(cfg, 1, [3, Fraction(1, 2)])
    assert af.value_on(Cell((1,), (0,))) == Fraction(3, 2)
    assert af.value_on(Cell((1,), (1,))) == Fraction(1, 4)
    assert af.value_on(full_cube(1)) == Fraction(7, 4)
    # splitting below the table rank spreads the density uniformly
    assert af.value_on(Cell((2,), (0,))) == Fraction(3, 4)


def test_table_majorant_compares_exactly():
    """Two densities equal as doubles: the exact ancestor average still wins."""
    x = Fraction(1, 3)
    y = x + Fraction(2, 10 ** 30)
    assert float(x) == float((x + y) / 2)
    af = AdditiveFn.from_table(GridConfig.from_lists([[2, 2]]), 1, [x, y])
    assert af.majorant().values[0] == (x + y) / 2


def test_unit_value_coefficients_supported():
    cfg = GridConfig.from_lists([[2, 2]])
    cm = CoeffMap(cfg, {(1,): UnitValue(4, Fraction(1, 2))}, "haar")
    af = AdditiveFn.from_series(cm)
    # coefficient is exactly -2, chi_1 is +1 on [0, 1/2)
    assert af.value_on(Cell((1,), (0,))) == -1


def _close(a, b):
    return len(a) == len(b) and all(abs(complex(x) - complex(y)) < 1e-12 for x, y in zip(a, b))


@settings(max_examples=60)
@given(haar_series())
def test_banded_sum_and_majorant_match_dense_partial_sums(coeffs):
    cfg, r = coeffs.cfg, coeffs.stabilization_rank
    full = (cfg.seqs[0].depth,) * cfg.dim
    dense = [partial_sum(coeffs, k).uniform_values(full) for k in range(r + 1)]
    banded = stabilized_sum(coeffs)
    assert _close(banded.uniform_values(full), dense[-1])
    if all(isinstance(v, (int, Fraction)) for v in dense[-1]):  # exact: order-free sums
        assert banded.uniform_values(full) == dense[-1]
    running_max = [max(abs(complex(s[i])) for s in dense) for i in range(len(dense[0]))]
    assert _close(series_majorant(coeffs).uniform_values(full), running_max)


@st.composite
def _series_and_boxes(draw):
    """A Haar or Price map on a 1-D or 2-D grid, with mixed-rank boxes."""
    coeffs = draw(haar_series(max_cells=256).filter(lambda c: c.cfg.dim <= 2))
    coeffs = CoeffMap(coeffs.cfg, dict(coeffs.items()), draw(st.sampled_from(("haar", "price"))))
    boxes = []
    for _ in range(4):
        ranks = [draw(st.integers(0, seq.depth)) for seq in coeffs.cfg.seqs]
        boxes.append(Cell(ranks, [draw(st.integers(0, seq.modulus(k) - 1))
                                  for seq, k in zip(coeffs.cfg.seqs, ranks)]))
    return coeffs, boxes


@settings(max_examples=60)
@given(_series_and_boxes())
def test_value_on_matches_the_dense_partial_sum_property(case):
    """Psi(box) from the density against S_N on the uniform rank-N grid,
    N = max(R, rank of the box), integrated over the box."""
    coeffs, boxes = case
    af = AdditiveFn.from_series(coeffs)
    for box in boxes:
        got = af.value_on(box)
        want = partial_sum(coeffs, max(coeffs.stabilization_rank, *box.ranks)).integral(box)
        if isinstance(got, (int, Fraction)) and isinstance(want, (int, Fraction)):
            assert got == want
        else:
            assert abs(complex(got) - complex(want)) <= 1e-12


def test_banded_sum_leaves_cells_off_the_support_untouched():
    """A zero that no term reaches stays the integer 0, never 0j."""
    cfg = GridConfig.from_lists([[2, 2], [3, 3]])
    coeffs = CoeffMap(cfg, {(2, 0): complex(1, 1)}, "haar")  # lives on the left half
    banded = stabilized_sum(coeffs)
    right = [v for c, v in zip(banded.cells, banded.values) if c.start(cfg, 0) >= Fraction(1, 2)]
    assert right and all(type(v) is int and v == 0 for v in right)
    assert banded.uniform_values((2, 2)) == partial_sum(coeffs, 2).uniform_values((2, 2))


def test_price_unit_value_coefficient_stays_exact_in_partial_sum():
    # psi_1 on p = 4 has phase d/4 on cell d; the coefficient's phase 1/4
    # turns cell 3 into the integer 1 and cell 1 into -1, with no rounding
    cfg = GridConfig.from_lists([[4]])
    coeffs = CoeffMap(cfg, {(1,): UnitValue(1, Fraction(1, 4))}, "price")
    values = partial_sum(coeffs, 1).values
    assert (values[1], values[3]) == (-1, 1)
    assert type(values[1]) is int and type(values[3]) is int
    assert all(isinstance(v, complex) for v in (values[0], values[2]))
