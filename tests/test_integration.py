import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicah import (
    Cell,
    ConfigMismatch,
    GridConfig,
    HFamily,
    StepFunction,
    ah_integral,
    check_family,
    family_from_json_dict,
    full_cube,
    level_measure,
    tail_integral,
    tail_with_ties,
    truncate,
)
from strategies import grids, split


def _dyadic(depth=8):
    return GridConfig.from_lists([[2] * depth])


def _const_family(cfg, first=1, count=4):
    members = [StepFunction.constant(cfg, 2 ** m) for m in range(first, first + count)]
    return HFamily.from_members(members)


def test_truncate_keeps_small_values():
    cfg = _dyadic(2)
    f = StepFunction.on_grid(cfg, (2,), [3, -5, 2, 0])
    h = StepFunction.constant(cfg, 3)
    assert truncate(f, h).uniform_values((2,)) == [3, 0, 2, 0]


def test_truncate_scale_widens_threshold():
    cfg = _dyadic(2)
    f = StepFunction.on_grid(cfg, (2,), [3, -5, 2, 0])
    h = StepFunction.constant(cfg, 3)
    assert truncate(f, h, scale_sq=4).uniform_values((2,)) == [3, -5, 2, 0]


def test_truncate_tie_is_kept():
    cfg = _dyadic(1)
    f = StepFunction.on_grid(cfg, (1,), [2, -2])
    h = StepFunction.constant(cfg, 2)
    assert truncate(f, h).uniform_values((1,)) == [2, -2]


def test_truncate_exact_on_fraction_ties():
    # |f|^2 == h^2 exactly, no float round trip involved
    cfg = _dyadic(2)
    f = StepFunction.on_grid(cfg, (1,), [Fraction(1, 3), Fraction(2, 3)])
    h = StepFunction.on_grid(cfg, (1,), [Fraction(1, 3), Fraction(1, 3)])
    assert truncate(f, h).uniform_values((1,)) == [Fraction(1, 3), 0]


def test_tail_integral_integrates_the_cutoff():
    cfg = _dyadic(2)
    g = StepFunction.on_grid(cfg, (2,), [1, 2, 2, 3])
    h = StepFunction.constant(cfg, 2)
    assert tail_integral(g, h) == Fraction(1, 2)
    assert tail_integral(g, h, strict=False) == Fraction(3, 2)
    assert tail_with_ties(g, h) == (Fraction(1, 2), Fraction(1, 2))


def test_tail_integral_alpha_scaling():
    cfg = _dyadic(2)
    g = StepFunction.on_grid(cfg, (2,), [1, 2, 2, 3])
    h = StepFunction.constant(cfg, 2)
    # alpha = 1/2 lowers the bar to 1: strict tail is {2, 2, 3}
    assert tail_integral(g, h, alpha=Fraction(1, 2)) == Fraction(3, 2)
    # alpha = 2 raises it to 4: nothing above
    assert tail_integral(g, h, alpha=2) == 0


def test_tail_integral_restricted_to_box():
    cfg = _dyadic(2)
    g = StepFunction.on_grid(cfg, (2,), [1, 2, 2, 3])
    h = StepFunction.constant(cfg, 2)
    left = Cell((1,), (0,))
    right = Cell((1,), (1,))
    assert tail_integral(g, h, box=left) == 0
    assert tail_integral(g, h, box=right) == Fraction(1, 2)


def test_level_measure():
    cfg = _dyadic(2)
    g = StepFunction.on_grid(cfg, (2,), [1, 2, 2, 3])
    assert level_measure(g, 2) == Fraction(1, 4)
    assert level_measure(g, 2, strict=False) == Fraction(3, 4)
    assert level_measure(g, 0) == 1
    assert level_measure(g, 3) == 0


def test_level_measure_brute_force_agreement():
    rng = random.Random(606)
    cfg = _dyadic(3)
    for _ in range(30):
        vals = [Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))) for _ in range(8)]
        g = StepFunction.on_grid(cfg, (3,), vals)
        level = Fraction(rng.randint(0, 6), 2)
        want = sum(Fraction(1, 8) for v in vals if v > level)
        assert level_measure(g, level) == want


def test_family_requires_members():
    with pytest.raises(ValueError, match="at least one"):
        HFamily.from_members([])


def test_family_rejects_mixed_grids():
    a = StepFunction.constant(_dyadic(4), 1)
    b = StepFunction.constant(GridConfig.from_lists([[3, 3]]), 1)
    with pytest.raises(ConfigMismatch):
        HFamily.from_members([a, b])


def test_family_rejects_negative_members():
    cfg = _dyadic(2)
    bad = StepFunction.on_grid(cfg, (1,), [1, -2])
    with pytest.raises(ValueError, match="nonnegative"):
        HFamily.from_members([bad])


def test_family_partition_count_must_match():
    cfg = _dyadic(2)
    m1 = StepFunction.constant(cfg, 1)
    m2 = StepFunction.constant(cfg, 2)
    with pytest.raises(ValueError, match="one partition per member"):
        HFamily.from_members([m1, m2], partitions=[(full_cube(1),)])


def test_check_family_constant_members():
    fam = _const_family(_dyadic(8))
    rep = check_family(fam)
    assert rep.passes
    assert rep.monotone_ok
    assert rep.oscillation_c == 1
    assert rep.min_cell_integral == 2
    assert rep.eps0 == 2
    assert rep.lambda_table == ((2,), (4,), (8,), (16,))


def test_check_family_detects_monotonicity_failure():
    cfg = _dyadic(4)
    up = StepFunction.constant(cfg, 4)
    down = StepFunction.on_grid(cfg, (1,), [3, 5])
    rep = check_family(HFamily.from_members([up, down]))
    assert not rep.monotone_ok
    assert not rep.passes


def test_check_family_unbounded_oscillation():
    cfg = _dyadic(4)
    lopsided = StepFunction.on_grid(cfg, (1,), [0, 4])
    rep = check_family(HFamily.from_members([lopsided], partitions=[(full_cube(1),)]))
    assert rep.oscillation_c is None
    assert not rep.passes


def test_check_family_oscillation_constant_on_own_cells():
    """With per-member partitions equal to the member's own cells every
    cutoff is cell-constant, so the best constant is 1."""
    cfg = _dyadic(4)
    wiggly = StepFunction.on_grid(cfg, (2,), [1, 3, 2, 5])
    rep = check_family(HFamily.from_members([wiggly]))
    assert rep.oscillation_c == 1
    assert rep.eps0 == Fraction(1, 4)


def test_check_family_oscillation_with_coarse_partition():
    cfg = _dyadic(4)
    wiggly = StepFunction.on_grid(cfg, (1,), [2, 3])
    rep = check_family(
        HFamily.from_members([wiggly], partitions=[(full_cube(1),)])
    )
    assert rep.oscillation_c == Fraction(3, 2)
    assert rep.eps0 == 2


@st.composite
def _families(draw):
    """One to three members on random tilings, with random partitions
    listed in random order."""
    cfg = draw(grids(max_cells=128))
    value = st.integers(0, 6).map(lambda n: Fraction(n, 2))
    members, partitions = [], []
    for _ in range(draw(st.integers(1, 3))):
        cells = split(draw, cfg)
        values = draw(st.lists(value, min_size=len(cells), max_size=len(cells)))
        members.append(StepFunction.from_pieces(cfg, zip(cells, values)))
        partitions.append(draw(st.permutations(split(draw, cfg))))
    return HFamily.from_members(members, partitions=partitions)


def _family_oracle(fam):
    """lambda table, oscillation constant, smallest cell integral and eps0
    from every pairwise intersection of member cells with partition cells."""
    cfg = fam.cfg
    table, c, unbounded, integrals, weighted = [], Fraction(1), False, [], []
    for h, partition in zip(fam.members, fam.partitions):
        row = []
        for pcell in partition:
            hits = [(v, cell.intersect(cfg, pcell)) for cell, v in zip(h.cells, h.values)]
            hits = [(v, meet) for v, meet in hits if meet is not None]
            vals = [v for v, _ in hits]
            sup, inf = max(vals), min(vals)
            if inf == 0:
                unbounded |= sup != 0
            else:
                c = max(c, sup / inf)
            integrals.append(sum(v * meet.measure(cfg) for v, meet in hits))
            weighted.append(inf * pcell.measure(cfg))
            row.append(inf)
        table.append(tuple(row))
    return tuple(table), None if unbounded else c, min(integrals), min(weighted)


@settings(max_examples=50)
@given(_families())
def test_check_family_matches_pairwise_intersections_property(fam):
    rep = check_family(fam)
    got = (rep.lambda_table, rep.oscillation_c, rep.min_cell_integral, rep.eps0)
    assert got == _family_oracle(fam)


def test_check_family_tiny_exact_member_passes():
    """(h3) is judged exactly: an integral below the double range is still > 0."""
    tiny = StepFunction.constant(_dyadic(2), Fraction(1, 10 ** 400))
    rep = check_family(HFamily.from_members([tiny]))
    assert rep.min_cell_integral == Fraction(1, 10 ** 400)
    assert rep.passes


def test_ah_integral_truncation_ladder():
    cfg = _dyadic(8)
    fam = _const_family(cfg)
    f = StepFunction.on_grid(cfg, (2,), [3, -5, 2, 0])
    rep = ah_integral(f, fam)
    assert rep.values == (Fraction(1, 2), Fraction(5, 4), 0, 0)
    assert rep.m0 == 3
    assert rep.converged
    assert rep.admissible
    assert rep.integrable
    assert list(rep.adm_tails) == ["1/2", "1", "2"]
    assert rep.adm_tails["1"] == (Fraction(3, 2), 1, 0, 0)
    assert rep.adm_tails["1/2"] == (Fraction(3, 2), 3, 2, 0)
    assert rep.a_clause == (1, 1, 0, 0)


def test_ah_integral_value_matches_plain_integral_when_dominated():
    rng = random.Random(1212)
    cfg = _dyadic(6)
    fam = _const_family(cfg, first=3, count=3)
    for _ in range(20):
        vals = [rng.randint(-6, 6) for _ in range(8)]
        f = StepFunction.on_grid(cfg, (3,), vals)
        rep = ah_integral(f, fam)
        assert rep.integrable
        assert rep.values[-1] == f.integral()


def test_ah_integral_spike_is_not_integrable():
    cfg = _dyadic(8)
    fam = _const_family(cfg)  # tops out at 16
    f = StepFunction.on_grid(cfg, (3,), [64, 0, 0, 0, 0, 0, 0, 0])
    rep = ah_integral(f, fam)
    assert rep.converged  # every truncation is identically zero
    assert not rep.admissible
    assert not rep.integrable
    assert rep.a_clause == (Fraction(1, 4), Fraction(1, 2), 1, 2)
    assert rep.adm_tails["1"] == (Fraction(1, 4), Fraction(1, 2), 1, 2)


def test_ah_integral_zero_tolerance_is_exact():
    """A tail of 10**-400 underflows as a double but is not within tolerance 0."""
    cfg = _dyadic(2)
    fam = HFamily.from_members([StepFunction.constant(cfg, Fraction(1, 10 ** 400))])
    rep = ah_integral(StepFunction.constant(cfg, 1), fam)
    assert rep.adm_tails["1"] == (Fraction(1, 10 ** 400),)
    assert not rep.admissible
    assert rep.to_json_dict()["adm_tol"] == 0.0


def test_ah_integral_on_sub_box():
    cfg = _dyadic(8)
    fam = _const_family(cfg)
    f = StepFunction.on_grid(cfg, (2,), [3, -5, 2, 0])
    rep = ah_integral(f, fam, box=Cell((1,), (0,)))
    assert rep.values[-1] == Fraction(3, 4) - Fraction(5, 4)
    assert rep.box == Cell((1,), (0,))


def test_ah_integral_tie_measures_reported():
    cfg = _dyadic(4)
    fam = HFamily.from_members([StepFunction.constant(cfg, 2)])
    f = StepFunction.on_grid(cfg, (1,), [2, 1])
    rep = ah_integral(f, fam)
    # |f| = h exactly on the left half
    assert rep.adm_ties["1"] == (Fraction(1, 2),)


def test_family_json_round_trip():
    halves = [{"ranks": [1], "indices": [0]}, {"ranks": [1], "indices": [1]}]
    doc = {
        "bound_c": ["2", "1"],
        "grid": {"dims": 1, "seqs": [[2, 2]], "depth": 2},
        "members": [
            {"cells": halves, "values": [["2", "1"], ["3", "1"]]},
            {"cells": halves, "values": [["9", "2"], ["5", "1"]]},
        ],
        "schema_version": 1,
    }
    back = family_from_json_dict(doc)
    assert back.bound_C == Fraction(2)
    cells = (Cell((1,), (0,)), Cell((1,), (1,)))
    assert back.partitions == (cells, cells)
    for h, values in zip(back.members, [(2, 3), (Fraction(9, 2), 5)]):
        assert h.cells == cells
        assert h.values == values


def test_family_json_diagnostics():
    cfg = _dyadic(2)
    grid = cfg.to_json_dict()
    with pytest.raises(ValueError, match="members"):
        family_from_json_dict({"bound_c": ["1", "1"], "grid": grid})
    with pytest.raises(ValueError, match="values\\[0\\]"):
        family_from_json_dict(
            {
                "bound_c": ["1", "1"],
                "grid": grid,
                "members": [
                    {
                        "cells": [{"ranks": [0], "indices": [0]}],
                        "values": [["x", "2"]],
                    }
                ],
            }
        )


def test_family_partition_must_tile_the_cube():
    doc = {
        "bound_c": ["1", "1"],
        "grid": {"dims": 1, "seqs": [[2, 2]], "depth": 2},
        "members": [{"cells": [{"ranks": [0], "indices": [0]}], "values": [[str(2 ** m), "1"]]}
                    for m in range(1, 5)],
        "schema_version": 1,
    }
    doc["members"][0]["partition"] = [{"ranks": [1], "indices": [0]}]
    with pytest.raises(ValueError, match=r"members\[0\]\.partition: partition measures sum to 1/2"):
        family_from_json_dict(doc)
    doc["members"][0]["partition"] = [{"ranks": [1], "indices": [1]}, {"ranks": [1], "indices": [0]}]
    assert family_from_json_dict(doc).partitions[0] == (Cell((1,), (0,)), Cell((1,), (1,)))
