"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Each criterion computes a JSON-ready report document; criterion 9 reruns
criteria 1-8 with a different thread count and demands byte-identical
canonical output.
"""

import random
import time
from fractions import Fraction

import numpy as np

from padicah import (
    AdditiveFn,
    Cell,
    CoeffMap,
    ExampleSpec,
    GridConfig,
    HFamily,
    StepFunction,
    ah_integral,
    block_range,
    canonical_json,
    check_family,
    decompose_box,
    example_family,
    example_series,
    full_cube,
    inner_product,
    partial_sum,
    price_coeffs_from_haar,
    price_haar_matrix,
    recover_additive,
    recover_haar_coeff,
    recover_price_coeff,
    refine_cell,
    stabilized_sum,
    tail_bound,
    tensor_haar_step,
    tensor_price_step,
    verify_ah_success,
    verify_lambda_failure,
)
from padicah.reports import encode_value, encode_values

GRIDS_1D = ((2, 2, 2, 2), (3, 3, 3), (2, 3, 2, 3))

_cache = {}


def _collect(name, threads):
    key = (name, threads)
    if key not in _cache:
        _cache[key] = globals()["_run_" + name](threads)
    return _cache[key]


VERDICT_LINES = []


def _report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


# -- criterion 1 -------------------------------------------------------------

def _run_c1(threads):
    docs = []
    for factors in GRIDS_1D:
        cfg = GridConfig.from_lists([list(factors)])
        m3 = cfg.seqs[0].modulus(3)
        for build, name in ((tensor_haar_step, "haar"), (tensor_price_step, "price")):
            steps = [build(cfg, (n,)) for n in range(m3)]
            max_dev = 0.0
            for a in range(m3):
                for b in range(a, m3):
                    g = complex(inner_product(steps[a], steps[b]))
                    want = 1.0 if a == b else 0.0
                    max_dev = max(max_dev, abs(g - want))
            docs.append({"grid": list(factors), "system": name, "max_dev": max_dev})
    return docs


def test_criterion_1_orthonormality():
    t0 = time.monotonic()
    docs = _collect("c1", 1)
    elapsed = time.monotonic() - t0
    worst = max(d["max_dev"] for d in docs)
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"orthonormality max deviation {worst:.3e} over {len(docs)} grid/system tables in {elapsed:.2f}s")


# -- criterion 2 -------------------------------------------------------------

def _run_c2(threads):
    docs = []
    for factors in GRIDS_1D:
        cfg = GridConfig.from_lists([list(factors)])
        seq = cfg.seqs[0]
        depth = seq.depth
        unit_dev = 0.0
        recon_dev = 0.0
        for t in range(depth + 1):
            mat = price_haar_matrix(seq, t)
            eye = np.eye(mat.shape[0])
            unit_dev = max(
                unit_dev,
                float(np.max(np.abs(mat @ mat.conj().T - eye))),
                float(np.max(np.abs(mat.conj().T @ mat - eye))),
            )
            idx = list(block_range(seq, t))
            chis = [
                [complex(v) for v in tensor_haar_step(cfg, (l,)).uniform_values((depth,))]
                for l in idx
            ]
            for a, k in enumerate(idx):
                psi = tensor_price_step(cfg, (k,)).uniform_values((depth,))
                acc = [complex(0)] * len(chis[0])
                for b in range(len(idx)):
                    coef = complex(mat[a, b])
                    acc = [x + coef * y for x, y in zip(acc, chis[b])]
                recon_dev = max(
                    recon_dev, max(abs(complex(p) - q) for p, q in zip(psi, acc))
                )
        rng = random.Random(1009)
        entries = {}
        while len(entries) < 5:
            n = rng.randrange(seq.modulus(depth))
            entries[(n,)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        cm = CoeffMap(cfg, entries, "haar")
        pc = price_coeffs_from_haar(cm)
        sn_dev = 0.0
        for N in range(depth + 1):
            a = partial_sum(cm, N).uniform_values((depth,))
            b = partial_sum(pc, N).uniform_values((depth,))
            sn_dev = max(
                sn_dev, max(abs(complex(x) - complex(y)) for x, y in zip(a, b))
            )
        docs.append(
            {
                "grid": list(factors),
                "unitarity_dev": unit_dev,
                "reconstruction_dev": recon_dev,
                "partial_sum_dev": sn_dev,
            }
        )
    return docs


def test_criterion_2_gamma_transform():
    docs = _collect("c2", 1)
    unit = max(d["unitarity_dev"] for d in docs)
    recon = max(d["reconstruction_dev"] for d in docs)
    sn = max(d["partial_sum_dev"] for d in docs)
    ok = unit <= 1e-10 and recon <= 1e-9 and sn <= 1e-9
    _report(2, ok, f"gamma blocks unitary to {unit:.3e}, reconstruction to {recon:.3e}, S_N identity to {sn:.3e}")


# -- criterion 3 -------------------------------------------------------------

def _uniform_cells(cfg, rank):
    counts = [cfg.seqs[j].modulus(rank) for j in range(cfg.dim)]
    idx = [0] * cfg.dim
    while True:
        yield Cell((rank,) * cfg.dim, tuple(idx))
        j = cfg.dim - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < counts[j]:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


def _all_children(cfg, cell):
    kids = [cell]
    for j in range(cfg.dim):
        kids = [c for k in kids for c in refine_cell(cfg, k, j)]
    return kids


def _run_c3(threads):
    rng = random.Random(30303)
    d1 = [(2, 2, 2, 2), (3, 3, 3), (2, 3, 2, 3), (3, 2, 2)]
    d2 = [((2, 2, 2, 2), (3, 2, 2, 2)), ((2, 3, 2), (3, 2, 2)), ((2, 2, 2), (2, 2, 2))]
    add_dev = 0.0
    mixed_dev = 0.0
    cells_checked = 0
    for i in range(200):
        if i % 2 == 0:
            cfg = GridConfig.from_lists([list(rng.choice(d1))])
        else:
            pair = rng.choice(d2)
            cfg = GridConfig.from_lists([list(pair[0]), list(pair[1])])
        R = min(4, cfg.min_depth)
        entries = {}
        while len(entries) < 3:
            nvec = tuple(
                rng.randrange(cfg.seqs[j].modulus(R)) for j in range(cfg.dim)
            )
            entries[nvec] = rng.choice(
                [rng.randint(-4, 4), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
            )
        af = AdditiveFn.from_series(CoeffMap(cfg, entries, "haar"))
        for rank in range(R):
            for cell in _uniform_cells(cfg, rank):
                whole = complex(af.value_on(cell))
                total = sum(
                    complex(af.value_on(k))
                    for k in _all_children(cfg, cell)
                )
                add_dev = max(add_dev, abs(whole - total))
                cells_checked += 1
        for _ in range(2):
            ranks = tuple(rng.randint(0, R) for _ in range(cfg.dim))
            idx = tuple(
                rng.randrange(cfg.seqs[j].modulus(ranks[j])) for j in range(cfg.dim)
            )
            box = Cell(ranks, idx)
            parts = decompose_box(cfg, box)
            whole = complex(af.value_on(box))
            total = sum(complex(af.value_on(p)) for p in parts)
            mixed_dev = max(mixed_dev, abs(whole - total))
    return [
        {
            "series": 200,
            "cells_checked": cells_checked,
            "max_additivity_dev": add_dev,
            "max_mixed_box_dev": mixed_dev,
        }
    ]


def test_criterion_3_additivity():
    doc = _collect("c3", 1)[0]
    ok = doc["max_additivity_dev"] <= 1e-12 and doc["max_mixed_box_dev"] <= 1e-12
    _report(3, ok, f"additivity on {doc['cells_checked']} cells dev {doc['max_additivity_dev']:.3e}, mixed boxes dev {doc['max_mixed_box_dev']:.3e}")


# -- criterion 4 -------------------------------------------------------------

def _aligned_family(rng, cfg, members):
    """Nonconstant cutoffs, constant on rank-1 partition cells, (h1)-(h3)."""
    counts = [cfg.seqs[j].modulus(1) for j in range(cfg.dim)]
    n_cells = 1
    for c in counts:
        n_cells *= c
    out = []
    for m in range(1, members + 1):
        vals = [
            2 ** m * rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
            for _ in range(n_cells)
        ]
        out.append(StepFunction.on_grid(cfg, (1,) * cfg.dim, vals))
    return HFamily.from_members(out)


def _run_c4(threads):
    rng = random.Random(44004)
    configs = [
        ("d1-p2", GridConfig.from_lists([[2] * 5]), "haar"),
        ("d1-p3", GridConfig.from_lists([[3] * 4]), "price"),
        ("d2-mixed", GridConfig.from_lists([[2, 3, 2], [3, 2, 2]]), "haar"),
    ]
    docs = []
    for label, cfg, mode in configs:
        fam_const = HFamily.from_members(
            [StepFunction.constant(cfg, 2 ** m) for m in range(1, 8)]
        )
        fam_var = _aligned_family(rng, cfg, members=7)
        assert check_family(fam_var).passes
        worst = {"const": 0.0, "var": 0.0}
        recovered = 0
        for _ in range(50):
            entries = {}
            while len(entries) < 2:
                nvec = tuple(
                    rng.randrange(cfg.seqs[j].modulus(cfg.seqs[j].depth))
                    for j in range(cfg.dim)
                )
                entries[nvec] = rng.choice(
                    [
                        rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    ]
                )
            cm = CoeffMap(cfg, entries, mode)
            f = stabilized_sum(cm)
            for nvec, planted in cm.items():
                for fam, kind in ((fam_const, "const"), (fam_var, "var")):
                    if mode == "haar":
                        rep = recover_haar_coeff(f, nvec, fam, threads=threads)
                    else:
                        rep = recover_price_coeff(f, nvec, fam, threads=threads)
                    err = abs(complex(rep.estimates[-1]) - complex(planted))
                    worst[kind] = max(worst[kind], err)
                    recovered += 1
        docs.append(
            {
                "config": label,
                "mode": mode,
                "recovered": recovered,
                "worst_const": worst["const"],
                "worst_var": worst["var"],
            }
        )
    return docs


def test_criterion_4_coefficient_recovery():
    t0 = time.monotonic()
    docs = _collect("c4", 1)
    elapsed = time.monotonic() - t0
    worst = max(max(d["worst_const"], d["worst_var"]) for d in docs)
    total = sum(d["recovered"] for d in docs)
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(4, ok, f"{total} coefficient recoveries across 3 configs x 2 families, worst error {worst:.3e}, {elapsed:.1f}s")


# -- criterion 5 -------------------------------------------------------------

def _run_c5(threads):
    rng = random.Random(50505)
    cfg = GridConfig.from_lists([[2] * 6])
    fam = HFamily.from_members(
        [StepFunction.constant(cfg, 2 ** m) for m in range(1, 9)]
    )
    worst = 0.0
    window_ok = True
    checked = 0
    for _ in range(5):
        entries = {}
        while len(entries) < 3:
            entries[(rng.randrange(2 ** 6),)] = rng.choice(
                (-8, -4, -2, -1, 1, 2, 4, 8)
            )
        af = AdditiveFn.from_series(CoeffMap(cfg, entries, "haar"))
        for _ in range(20):
            rank = rng.randint(0, 5)
            box = Cell((rank,), (rng.randrange(2 ** rank),))
            rep = recover_additive(af, fam, boxes=(box,), threads=threads)[0]
            worst = max(worst, rep.errors[-1])
            start = (2 * len(rep.errors)) // 3
            for i in range(start, len(rep.errors) - 1):
                if rep.errors[i + 1] > rep.errors[i] + 1e-15:
                    window_ok = False
            checked += 1
    return [{"cells": checked, "worst_final_error": worst, "window_monotone": window_ok}]


def test_criterion_5_additive_recovery():
    doc = _collect("c5", 1)[0]
    ok = doc["worst_final_error"] <= 1e-9 and doc["window_monotone"]
    _report(5, ok, f"recover_additive on {doc['cells']} cells, worst final error {doc['worst_final_error']:.3e}, error window nonincreasing: {doc['window_monotone']}")


# -- criterion 6 -------------------------------------------------------------

def _run_c6(threads):
    spec = ExampleSpec(n_max=5)
    af = AdditiveFn.from_series(example_series(spec))
    docs = []
    for j in (1, 2, 3):
        rep = verify_lambda_failure(spec, j, af=af)
        exact = all(isinstance(p, (int, Fraction)) for p in rep.products)
        floor = Fraction(1, 2 ** (j + 2))
        docs.append(
            {
                "j": j,
                "exact": exact,
                "holds": rep.holds and all(p >= floor for p in rep.products),
                "floor": encode_value(floor),
                "min_product": encode_value(min(rep.products)),
                "products": encode_values(rep.products),
                "window": [int(m) for m in rep.m_window],
            }
        )
    return docs


def test_criterion_6_failure_side():
    docs = _collect("c6", 1)
    ok = all(d["holds"] and d["exact"] for d in docs)
    mins = ", ".join(f"j={d['j']}: {d['min_product'][0]}/{d['min_product'][1]}" for d in docs)
    _report(6, ok, f"exact windowed products >= 1/2^(j+2) for j in 1..3 at n_max=5 (minima {mins})")


# -- criterion 7 -------------------------------------------------------------

def _run_c7(threads):
    spec = ExampleSpec(n_max=5)
    success = verify_ah_success(spec)
    fam = example_family(spec)
    fam_rep = check_family(fam)
    af = AdditiveFn.from_series(example_series(spec))
    tails_ok = all(
        isinstance(t, (int, Fraction)) and t <= tail_bound(m)
        for m, t in enumerate(success.tails[:4], start=1)
    )
    recoveries = []
    rec_ok = True
    for box in (full_cube(1), Cell((1,), (0,))):
        rep = recover_additive(af, fam, boxes=(box,), threads=threads)[0]
        exact_match = rep.estimates[-1] == rep.reference
        rec_ok = rec_ok and rep.errors[-1] <= 1e-9 and exact_match
        recoveries.append(
            {
                "box": {"ranks": list(box.ranks), "indices": list(box.indices)},
                "final_error": rep.errors[-1],
                "estimates": encode_values(rep.estimates),
                "reference": encode_value(rep.reference),
            }
        )
    return [
        {
            "tails": encode_values(success.tails),
            "bounds": encode_values([tail_bound(m) for m in range(1, 7)]),
            "tails_exact_within_bounds": tails_ok,
            "oscillation_c": encode_value(fam_rep.oscillation_c),
            "eps0": encode_value(fam_rep.eps0),
            "family_exact": fam_rep.oscillation_c == 1 and fam_rep.eps0 == 1,
            "recoveries": recoveries,
            "recoveries_ok": rec_ok,
        }
    ]


def test_criterion_7_success_side():
    doc = _collect("c7", 1)[0]
    ok = doc["tails_exact_within_bounds"] and doc["family_exact"] and doc["recoveries_ok"]
    _report(7, ok, "exact tails below closed-form bounds for m=1..4, staircase C=1 and eps0=1, recovery exact on [0,1] and [0,1/2]")


# -- criterion 8 -------------------------------------------------------------

def _hand_built(cfg):
    """20 fixed step functions against constant cutoffs 2..32.

    Four spikes break the lambda-mu clause outright; one more sits exactly
    at half the last cutoff, so the alpha=1/2 admissibility tail keeps full
    measure and the verdict must still be non-integrable.
    """
    F = Fraction
    cases = [
        # name, ranks, values, integrable, lambda-mu clause fails
        ("zero", (1,), [0, 0], True, False),
        ("constant", (1,), [5, 5], True, False),
        ("signed", (2,), [3, -5, 2, 0], True, False),
        ("fractions", (2,), [F(7, 2), F(-9, 4), F(1, 3), 1], True, False),
        ("step-up", (3,), [1, 2, 3, 4, 5, 6, 7, 8], True, False),
        ("alternating", (3,), [2, -2, 2, -2, 2, -2, 2, -2], True, False),
        ("one-cell", (3,), [9, 0, 0, 0, 0, 0, 0, 0], True, False),
        ("plateau", (2,), [10, 10, -10, -10], True, False),
        ("sawtooth", (3,), [1, -3, 5, -7, 7, -5, 3, -1], True, False),
        ("tiny", (2,), [F(1, 100), F(-1, 50), F(3, 100), 0], True, False),
        ("near-top", (1,), [15, -15], True, False),
        ("mixed-depth", (3,), [12, 0, -6, 0, 3, 0, -1, 0], True, False),
        ("just-under", (1,), [F(63, 4), F(63, 4)], True, False),
        ("signed-under", (2,), [F(63, 4), F(-63, 4), 12, -12], True, False),
        ("half-scale", (2,), [F(31, 2), 0, F(-31, 2), 0], True, False),
        ("tie-16", (2,), [16, -16, 0, 0], False, False),
        ("spike-64", (3,), [64, 0, 0, 0, 0, 0, 0, 0], False, True),
        ("spike-100", (2,), [100, 1, -1, 0], False, True),
        ("double-spike", (3,), [48, 0, 0, -48, 0, 0, 0, 0], False, True),
        ("wide-40", (1,), [40, -2], False, True),
    ]
    return [
        (name, StepFunction.on_grid(cfg, rank, vals), integrable, lm_fails)
        for name, rank, vals, integrable, lm_fails in cases
    ]


def _run_c8(threads):
    cfg = GridConfig.from_lists([[2] * 8])
    fam = HFamily.from_members(
        [StepFunction.constant(cfg, 2 ** m) for m in range(1, 6)]
    )
    docs = []
    for name, f, want_integrable, lm_fails in _hand_built(cfg):
        rep = ah_integral(f, fam, threads=threads)
        semantics_ok = rep.integrable == want_integrable
        if want_integrable:
            semantics_ok = semantics_ok and rep.values[-1] == f.integral()
            semantics_ok = semantics_ok and rep.a_clause[-1] == 0
        elif lm_fails:
            semantics_ok = semantics_ok and rep.a_clause[-1] > 0
        else:
            # the tie case: lambda-mu clause drains but admissibility cannot
            semantics_ok = semantics_ok and rep.a_clause[-1] == 0
            semantics_ok = semantics_ok and not rep.admissible
        docs.append(
            {
                "case": name,
                "integrable": rep.integrable,
                "expected": want_integrable,
                "lambda_mu_fails": lm_fails,
                "ok": bool(semantics_ok),
                "values": encode_values(rep.values),
                "a_clause": encode_values(rep.a_clause),
            }
        )
    return docs


def test_criterion_8_a_integral_embedding():
    docs = _collect("c8", 1)
    ok = all(d["ok"] for d in docs)
    lm = sum(1 for d in docs if d["lambda_mu_fails"])
    ok = ok and lm >= 1
    _report(8, ok, f"constant-cutoff integral semantics on {len(docs)} hand-built functions, {lm} with a failing lambda-mu clause judged non-integrable")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_determinism():
    names = ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"]
    same = True
    for name in names:
        a = canonical_json(_collect(name, 1))
        b = canonical_json(_collect(name, 4))
        if a.encode() != b.encode():
            same = False
    _report(9, same, "criteria 1-8 reports byte-identical across threads=1 and threads=4")
