import cmath
import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    BranchSeq,
    CoeffMap,
    GridConfig,
    StepFunction,
    UnitValue,
    block_range,
    classical_from_flat,
    classical_haar_eval,
    classical_to_flat,
    full_cube,
    gen_haar_eval,
    haar_decode,
    haar_encode,
    inner_product,
    point_code,
    price_digits,
    price_encode,
    price_eval,
    price_haar_matrix,
    stabilized_sum,
    tensor_haar_step,
    tensor_price_step,
)
from padicah.systems import gamma_codes, price_term
from strategies import grids, haar_indices


def test_unit_value_product():
    u = UnitValue(2, Fraction(1, 3))
    v = UnitValue(8, Fraction(1, 2))
    w = u * v
    assert w.radicand == 16
    assert w.phase == Fraction(5, 6)


def test_unit_value_exact_as_number():
    assert UnitValue(16, Fraction(1, 2)).as_number() == -4
    assert UnitValue(9).as_number() == 3
    assert UnitValue.ONE.as_number() == 1
    assert UnitValue.ZERO.is_zero


def test_unit_value_conjugate_and_abs():
    u = UnitValue(2, Fraction(1, 3))
    assert u.conjugate().phase == Fraction(2, 3)
    assert u.abs_sq == 2
    prod = u * u.conjugate()
    assert prod.as_number() == 2


def test_unit_value_inexact_falls_back_to_complex():
    z = UnitValue(2, Fraction(1, 8)).as_number()
    want = math.sqrt(2) * cmath.exp(2j * math.pi / 8)
    assert abs(z - want) < 1e-12


def test_haar_decode_frozen_examples():
    assert haar_decode(BranchSeq((2, 2, 2)), 3) == (1, 1, 1)
    assert haar_decode(BranchSeq((3, 3)), 2) == (0, 0, 2)


def test_haar_encode_decode_round_trip():
    seq = BranchSeq((2, 3, 2))
    for n in range(1, 12):
        k, r, s = haar_decode(seq, n)
        assert haar_encode(seq, k, r, s) == n
        assert 0 <= r < seq.modulus(k)
        assert 1 <= s < seq.factor(k + 1)


def test_block_range_partitions_indices():
    seq = BranchSeq((2, 3, 2))
    assert block_range(seq, 0) == range(0, 1)
    assert block_range(seq, 1) == range(1, 2)
    assert block_range(seq, 2) == range(2, 6)
    assert block_range(seq, 3) == range(6, 12)


def test_gen_haar_structure():
    """Decode tells us exactly where chi_n lives and what it does there."""
    seq = BranchSeq((3, 2, 3))
    cfg = GridConfig((seq,))
    for n in range(1, 18):
        k, r, s = haar_decode(seq, n)
        p_next = seq.factor(k + 1)
        for trial_digits in _all_digit_tuples(seq, 3):
            val = gen_haar_eval(seq, n, trial_digits)
            # locate the rank-k cell of the point
            idx = 0
            for j in range(k):
                idx = idx * seq.factor(j + 1) + trial_digits[j]
            if idx != r:
                assert val.is_zero
            else:
                assert val.abs_sq == seq.modulus(k)
                d = trial_digits[k]
                assert val.phase == Fraction(s * d, p_next) % 1


def _all_digit_tuples(seq, depth):
    out = [()]
    for j in range(depth):
        p = seq.factor(j + 1)
        out = [t + (d,) for t in out for d in range(p)]
    return out


def test_gen_haar_constant_index():
    seq = BranchSeq((2, 3))
    for digits in _all_digit_tuples(seq, 2):
        assert gen_haar_eval(seq, 0, digits) == UnitValue.ONE


def test_classical_flat_bridge():
    assert classical_to_flat(0, 1) == 1
    assert classical_to_flat(2, 3) == 6
    for n in range(1, 40):
        k, i = classical_from_flat(n)
        assert classical_to_flat(k, i) == n
        assert 1 <= i <= 2 ** k


def test_classical_haar_matches_general_on_dyadic():
    seq = BranchSeq((2, 2, 2))
    for k in range(3):
        for i in range(1, 2 ** k + 1):
            n = classical_to_flat(k, i)
            for digits in _all_digit_tuples(seq, 3):
                a = classical_haar_eval(k, i, digits)
                b = gen_haar_eval(seq, n, digits)
                assert a == b


def test_classical_haar_values():
    # sqrt(2^k) on the left half of the support interval, negated on the right
    v = classical_haar_eval(1, 2, (1, 0))
    assert v.abs_sq == 2 and v.phase == 0
    v = classical_haar_eval(1, 2, (1, 1))
    assert v.abs_sq == 2 and v.phase == Fraction(1, 2)
    assert classical_haar_eval(1, 2, (0, 1)).is_zero


def test_price_digits_round_trip():
    seq = BranchSeq((2, 3, 2))
    for k in range(12):
        digs = price_digits(seq, k)
        assert price_encode(seq, digs) == k
        for j, a in enumerate(digs):
            assert 0 <= a < seq.factor(j + 1)


def test_price_eval_formula():
    """psi_k is the explicit character given by its mixed-radix digits."""
    seq = BranchSeq((2, 3, 2))
    rng = random.Random(4821)
    for k in range(12):
        alphas = price_digits(seq, k)
        for _ in range(10):
            digits = tuple(rng.randrange(seq.factor(j + 1)) for j in range(3))
            val = price_eval(seq, k, digits)
            assert val.abs_sq == 1
            want = Fraction(0)
            for j, a in enumerate(alphas):
                want += Fraction(a * digits[j], seq.factor(j + 1))
            assert val.phase == want % 1


def test_tensor_haar_frozen_2d():
    cfg = GridConfig.from_lists([[2, 2], [2, 2]])
    st = tensor_haar_step(cfg, (1, 1))
    table = {(c.indices): v for c, v in zip(st.cells, st.values)}
    assert table == {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}


def test_orthonormality_small_grid():
    cfg = GridConfig.from_lists([[2, 3]])
    for build in (tensor_haar_step, tensor_price_step):
        steps = [build(cfg, (n,)) for n in range(6)]
        for a in range(6):
            for b in range(6):
                g = complex(inner_product(steps[a], steps[b]))
                want = 1.0 if a == b else 0.0
                assert abs(g - want) < 1e-12


def test_inner_product_conjugate_symmetry():
    cfg = GridConfig.from_lists([[3, 2]])
    f = tensor_price_step(cfg, (2,))
    g = tensor_price_step(cfg, (4,))
    fg = complex(inner_product(f, g))
    gf = complex(inner_product(g, f))
    assert abs(fg - gf.conjugate()) < 1e-15


def test_gamma_matrix_trivial_blocks():
    seq = BranchSeq((2, 3, 2))
    for t in (0, 1):
        m = price_haar_matrix(seq, t)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 1.0) < 1e-15


def test_gamma_matrix_entries_are_inner_products():
    """Gamma block entries must equal <psi_k, chi_l> computed from scratch."""
    seq = BranchSeq((2, 3, 2))
    cfg = GridConfig((seq,))
    for t in (2, 3):
        mat = price_haar_matrix(seq, t)
        idx = list(block_range(seq, t))
        assert mat.shape == (len(idx), len(idx))
        for a, k in enumerate(idx):
            for b, l in enumerate(idx):
                direct = complex(
                    inner_product(tensor_price_step(cfg, (k,)), tensor_haar_step(cfg, (l,)))
                )
                assert abs(mat[a, b] - direct) < 1e-12


def test_gamma_matrix_unitary():
    for lists in ([2, 2, 2], [3, 3], [2, 3, 2]):
        seq = BranchSeq(tuple(lists))
        for t in range(len(lists) + 1):
            m = price_haar_matrix(seq, t)
            eye = np.eye(m.shape[0])
            assert np.max(np.abs(m @ m.conj().T - eye)) < 1e-12
            assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-12


def test_gamma_matrix_is_exactly_zero_off_the_frequency_diagonal():
    """G[k, l] vanishes exactly unless the top Price digit alpha_t equals s."""
    for lists in ((2, 5, 3), (3, 2, 2), (3, 3, 3, 3)):
        seq = BranchSeq(lists)
        for t in range(1, len(lists) + 1):
            mat = price_haar_matrix(seq, t)
            idx = block_range(seq, t)
            top = [price_digits(seq, k)[-1] for k in idx]
            freq = [haar_decode(seq, l)[2] for l in idx]
            for a in range(len(idx)):
                for b in range(len(idx)):
                    if top[a] != freq[b]:
                        assert mat[a, b] == 0


@pytest.mark.parametrize("lists", [(2, 5, 3), (3, 2, 2)])
def test_gamma_matrix_matches_brute_force_inner_products(lists):
    seq = BranchSeq(lists)
    cfg = GridConfig((seq,))
    for t in range(len(lists) + 1):
        idx = block_range(seq, t)
        price = [tensor_price_step(cfg, (k,)) for k in idx]
        haar = [tensor_haar_step(cfg, (l,)) for l in idx]
        want = np.array([[complex(inner_product(f, g)) for g in haar] for f in price])
        assert np.max(np.abs(price_haar_matrix(seq, t) - want)) < 1e-12


def test_gamma_matrix_p3_block_6_is_unitary():
    mat = price_haar_matrix(BranchSeq((3,) * 6), 6)
    assert mat.shape == (486, 486)
    eye = np.eye(486)
    assert np.max(np.abs(mat @ mat.conj().T - eye)) < 1e-12
    assert np.max(np.abs(mat.conj().T @ mat - eye)) < 1e-12


def _dense_gamma_block(seq, t):
    """A gamma block built entry by entry as a dense matrix, the way
    ``price_haar_matrix`` built it before ``gamma_codes``: the oracle."""
    if t == 0:
        return np.ones((1, 1), dtype=complex)
    m, p = seq.modulus(t - 1), seq.factor(t)
    cells = np.arange(m)
    exponent = np.zeros((m, m), dtype=np.int64)
    for j in range(1, t):
        p_j = seq.factor(j)
        alpha = cells // seq.modulus(j - 1) % p_j
        digit = cells // (m // seq.modulus(j)) % p_j
        exponent += np.outer(alpha, digit * (m // p_j))
    table = np.exp(2j * np.pi * cells / m)[exponent % m] * (math.sqrt(m) / m)
    out = np.zeros((p - 1, m, m, p - 1), dtype=complex)
    for s in range(p - 1):
        out[s, :, :, s] = table
    return out.reshape((p - 1) * m, m * (p - 1))


def _assert_codes_rebuild_the_dense_block(seq):
    for t in range(seq.depth + 1):
        values, codes = gamma_codes(seq, t)
        want = _dense_gamma_block(seq, t)
        assert len(values) == (seq.modulus(t - 1) + 1 if t else 1)
        assert codes.shape == want.shape
        # bit for bit, signed zeros included
        assert np.array_equal(values[codes].view(np.int64), want.view(np.int64))
        assert np.array_equal(price_haar_matrix(seq, t).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("lists", [
    (2, 5, 3), (3, 2, 5, 2), (2, 3, 2, 3, 2, 3), (3, 3, 3, 3, 3), (2,) * 8, (3, 2, 2),
])
def test_gamma_codes_rebuild_the_dense_block_bit_for_bit(lists):
    _assert_codes_rebuild_the_dense_block(BranchSeq(lists))


@settings(max_examples=40)
@given(grids())
def test_gamma_codes_rebuild_the_dense_block_on_random_grids(cfg):
    for seq in cfg.seqs:
        _assert_codes_rebuild_the_dense_block(seq)


def test_price_term_converts_each_distinct_phase_once(monkeypatch):
    cfg = GridConfig.from_lists([[2, 3, 2], [3, 2, 5]])
    kvec = (11, 29)  # blocks 3 and 3, with m_3 = 12 and 30
    calls = []
    times = UnitValue.times
    monkeypatch.setattr(UnitValue, "times", lambda uv, coeff: calls.append(uv) or times(uv, coeff))
    _, _, values = price_term(cfg, kvec, complex(0.5, -0.25))
    assert len(values) == 12 * 30
    assert 0 < len(calls) <= math.lcm(12, 30)


def test_term_caps_refuse_before_any_value_is_built(monkeypatch):
    """Over the 2**22-cell cap, Haar and Price terms are refused on the
    library path before a single basis value is built: building them would
    take gigabytes, so a value built first fails the test at once."""
    def built(*_):
        raise AssertionError("a term value was built before the cap check")

    monkeypatch.setattr(UnitValue, "__post_init__", built)
    cfg = GridConfig.from_lists([[2 ** 23]])
    haar = "Haar term (1,) spans up to 8388608 cells, which exceeds the 4194304 cap"
    with pytest.raises(ValueError, match=re.escape(haar)):
        tensor_haar_step(cfg, (1,))
    with pytest.raises(ValueError, match=re.escape(haar)):
        stabilized_sum(CoeffMap(cfg, {(1,): 1}, "haar"))
    cfg = GridConfig.from_lists([[2] * 12] * 2)
    with pytest.raises(ValueError, match="uniform grid of 16777216 cells exceeds the 4194304 cap"):
        tensor_price_step(cfg, (2048, 2048))


def test_haar_encode_rejects_bad_args():
    seq = BranchSeq((2, 3))
    with pytest.raises(ValueError):
        haar_encode(seq, 0, 0, 0)  # s must be a nonzero residue
    with pytest.raises(ValueError):
        haar_encode(seq, 0, 1, 1)  # r outside [0, m_k)


def _deepest_cells(cfg):
    """The deepest cells in canonical order, each as its per-dimension
    digit strings d_1..d_K (a point of the cell for the point evaluators)."""
    return product(*(product(*(range(p) for p in seq.p)) for seq in cfg.seqs))


@settings(max_examples=80)
@given(st.data())
def test_sparse_haar_step_matches_the_cell_evaluator(data):
    cfg = data.draw(grids())
    nvec = data.draw(haar_indices(cfg))
    step = tensor_haar_step(cfg, nvec)
    ranks = tuple(seq.depth for seq in cfg.seqs)
    want = [
        reduce(mul, (gen_haar_eval(seq, n, digits) for seq, n, digits in
                     zip(cfg.seqs, nvec, idx))).as_number()
        for idx in _deepest_cells(cfg)
    ]
    assert step.uniform_values(ranks) == want
    # per dimension: sum_{t<=k}(p_t - 1) zero cells and p_{k+1} children
    zeros, children = 0, 1
    for seq, n in zip(cfg.seqs, nvec):
        if n:
            k = haar_decode(seq, n)[0]
            zeros += sum(p - 1 for p in seq.p[:k])
            children *= seq.factor(k + 1)
    assert len(step.cells) == zeros + children


_MIXED_RADIX_GRIDS = [GridConfig.from_lists(lists) for lists in (
    [[2, 5, 3]], [[3, 2, 5, 2]], [[2, 5, 3], [3, 2]], [[3, 2], [2, 2], [5]],
)]
_COEFFS = st.one_of(
    st.just(UnitValue.ONE),
    st.builds(UnitValue, st.integers(0, 9), st.fractions(0, 1, max_denominator=12)),
    st.integers(-4, 4),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
)


@settings(max_examples=80)
@given(st.data())
def test_price_term_matches_the_point_evaluator(data):
    cfg = data.draw(st.one_of(st.sampled_from(_MIXED_RADIX_GRIDS), grids()))
    kvec = data.draw(haar_indices(cfg))
    coeff = data.draw(_COEFFS)
    support, dims, values = price_term(cfg, kvec, coeff)
    ranks = [len(price_digits(seq, k)) for seq, k in zip(cfg.seqs, kvec)]
    assert support == full_cube(cfg.dim)
    assert dims == [(0, 0, t, seq.modulus(t)) for seq, t in zip(cfg.seqs, ranks)]
    assert list(values) == list(product(*(range(seq.modulus(t)) for seq, t in zip(cfg.seqs, ranks))))
    term = StepFunction.on_grid(cfg, ranks, values.values())  # laid densely
    want = [
        reduce(mul, (price_eval(seq, k, digits) for seq, k, digits in
                     zip(cfg.seqs, kvec, idx))).times(coeff)
        for idx in _deepest_cells(cfg)
    ]
    got = term.uniform_values(tuple(seq.depth for seq in cfg.seqs))
    assert list(map(repr, got)) == list(map(repr, want))
