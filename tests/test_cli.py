import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from padicah.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _grid_doc(depth=6):
    return {"dims": 1, "seqs": [[2] * depth], "depth": depth}


def _series_doc(depth=6):
    return {
        "mode": "haar",
        "grid": _grid_doc(depth),
        "entries": [[[1], 2, 0], [[3], -1.5, 0.5]],
    }


def _family_doc(depth=6, first=1, count=5):
    return {
        "bound_c": ["1", "1"],
        "grid": _grid_doc(depth),
        "members": [
            {
                "cells": [{"ranks": [0], "indices": [0]}],
                "values": [[str(2 ** m), "1"]],
            }
            for m in range(first, first + count)
        ],
        "schema_version": 1,
    }


def test_systems_haar_json(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    out = tmp_path / "sys.json"
    rc = main(["systems", "--grid", grid, "--haar", "0..3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["grid"] == {"dims": 1, "seqs": [[2, 2, 2]], "depth": 3}
    assert len(doc["tables"]) == 4
    first = doc["tables"][0]
    assert first["system"] == "haar"
    assert first["index"] == [0]
    assert first["values"] == [["1", "1"]]


def test_systems_csv_header(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    out = tmp_path / "sys.csv"
    rc = main(
        ["systems", "--grid", grid, "--haar", "0,1", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "flat_index,cell_lo,cell_hi,re,im"
    assert lines[1] == "0,0,1,1,0"
    assert lines[2] == "1,0,1/2,1,0"


def test_systems_gamma_block_json(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    out = tmp_path / "gb.json"
    rc = main(["systems", "--grid", grid, "--gamma-block", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    blk = doc["gamma_blocks"][0]
    assert blk["block"] == 2
    assert blk["dim"] == 0
    mat = blk["matrix"]
    assert len(mat) == 2 and len(mat[0]) == 2
    assert abs(mat[0][0]["re"] - 2 ** -0.5) < 1e-12


def test_systems_gamma_block_csv_numbers_are_plain(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    out = tmp_path / "gb.csv"
    rc = main(
        ["systems", "--grid", grid, "--gamma-block", "2", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim,block,row,col,re,im"
    assert lines[1] == "0,2,0,0,0.7071067811865476,0.0"


def test_systems_csv_cannot_mix_tables_and_gamma(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    rc = main(
        ["systems", "--grid", grid, "--haar", "1", "--gamma-block", "2", "--format", "csv"]
    )
    assert rc == 1
    assert "not both" in capsys.readouterr().err


def test_gamma_block_out_of_range_names_the_flag(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(2))
    for block in ("7", "-1"):
        rc = main(["systems", "--grid", grid, "--gamma-block", block])
        assert rc == 1
        assert f"--gamma-block {block} outside 0..2" in capsys.readouterr().err


def test_non_finite_coefficient_names_the_field(tmp_path, capsys):
    family = _write(tmp_path / "f.json", _family_doc())
    for pos, bad in ((1, float("nan")), (2, float("inf"))):
        doc = _series_doc()
        doc["entries"][1][pos] = bad
        series = _write(tmp_path / "s.json", doc)
        rc = main(["recover", "--series", series, "--family", family,
                   "--mode", "haar", "--index", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"entries[1][{pos}]" in err


def test_systems_requires_a_request(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    rc = main(["systems", "--grid", grid])
    assert rc == 1
    assert "--haar" in capsys.readouterr().err


def test_recover_haar_coefficient(tmp_path):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    out = tmp_path / "r.json"
    rc = main(
        ["recover", "--mode", "haar", "--series", series, "--family", family,
         "--index", "3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "haar"
    assert doc["index"] == [3]
    assert doc["passes"] is True
    assert doc["reference"] == {"re": -1.5, "im": 0.5}
    assert doc["scale_sq"] == 2
    assert "family" in doc


def test_recover_price_adds_gamma_cross_check(tmp_path):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    out = tmp_path / "rp.json"
    rc = main(
        ["recover", "--mode", "price", "--series", series, "--family", family,
         "--index", "2", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "gamma_reference" in doc
    assert doc["gamma_error"] <= 1e-9


def test_recover_additive_box(tmp_path):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    out = tmp_path / "ra.json"
    rc = main(
        ["recover", "--mode", "additive", "--series", series, "--family", family,
         "--box", "1:0", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["box"] == {"ranks": [1], "indices": [0]}
    assert doc["family_ok"] is True
    assert doc["passes"] is True


def test_recover_failure_exits_two_but_writes_report(tmp_path):
    # family too short: the deep coefficient never comes back
    series = _write(
        tmp_path / "s.json",
        {
            "mode": "haar",
            "grid": _grid_doc(),
            "entries": [[[1], 2, 0], [[5], 8, 0]],
        },
    )
    family = _write(tmp_path / "f.json", _family_doc(count=2))
    out = tmp_path / "r2.json"
    rc = main(
        ["recover", "--mode", "additive", "--series", series, "--family", family,
         "--box", "full", "--out", str(out)]
    )
    assert rc == 2
    doc = json.loads(out.read_text())
    assert doc["passes"] is False


def test_recover_rejects_csv(tmp_path, capsys):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    rc = main(
        ["recover", "--mode", "haar", "--series", series, "--family", family,
         "--index", "3", "--format", "csv"]
    )
    assert rc == 1
    assert "JSON only" in capsys.readouterr().err


def test_check_family_pass_and_fail(tmp_path):
    good = _write(tmp_path / "good.json", _family_doc())
    assert main(["check-family", "--family", good]) == 0

    bad_doc = _family_doc(count=2)
    # break monotonicity: second member smaller than the first
    bad_doc["members"][1]["values"] = [["1", "1"]]
    bad = _write(tmp_path / "bad.json", bad_doc)
    out = tmp_path / "cf.json"
    rc = main(["check-family", "--family", bad, "--out", str(out)])
    assert rc == 2
    doc = json.loads(out.read_text())
    assert doc["monotone_ok"] is False
    assert doc["passes"] is False


def test_family_float_rational_part_names_the_field(tmp_path, capsys):
    doc = _family_doc(count=2)
    doc["members"][1]["values"] = [[1.5, 1]]
    rc = main(["check-family", "--family", _write(tmp_path / "f.json", doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "members[1].values[0]" in err and "1.5" in err


def test_family_bool_rational_part_names_the_field(tmp_path, capsys):
    doc = _family_doc(count=2)
    doc["bound_c"] = [True, 1]
    rc = main(["check-family", "--family", _write(tmp_path / "f.json", doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bound_c" in err and "True" in err


def test_family_infinite_rational_part_names_the_field(tmp_path, capsys):
    doc = _family_doc(count=2)
    doc["members"][0]["values"] = [[float("inf"), 1]]  # written as Infinity
    path = _write(tmp_path / "f.json", doc)
    assert "Infinity" in (tmp_path / "f.json").read_text()
    rc = main(["check-family", "--family", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "members[0].values[0]" in err


def test_family_integer_and_string_rational_parts_agree(tmp_path):
    as_ints = _family_doc(count=2)
    for entry in as_ints["members"]:
        entry["values"] = [[int(v) for v in pair] for pair in entry["values"]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check-family", "--family", _write(tmp_path / "i.json", as_ints), "--out", str(a)]) == 0
    assert main(["check-family", "--family", _write(tmp_path / "s.json", _family_doc(count=2)), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_report(tmp_path):
    out = tmp_path / "ce.json"
    rc = main(["counterexample", "--nmax", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n_max"] == 2
    assert doc["overall_pass"] is True
    assert doc["schema_version"] == 1
    assert {"family", "failures", "recoveries", "success", "tail_check"} <= set(doc)


def test_counterexample_window_error(tmp_path, capsys):
    rc = main(["counterexample", "--nmax", "2", "--j", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "j=5" in err and "n_max=2" in err


def test_counterexample_j_selection(tmp_path):
    out = tmp_path / "ce.json"
    rc = main(["counterexample", "--nmax", "4", "--j", "1,3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [f["j"] for f in doc["failures"]] == [1, 3]


def test_decompose_box_string(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    rc = main(["decompose", "--grid", grid, "--box", "1:0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    assert doc["measure"] == ["1", "2"]


def test_decompose_box_from_file(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    box = _write(tmp_path / "box.json", {"ranks": [1], "indices": [1]})
    rc = main(["decompose", "--grid", grid, "--box", box])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["box"] == {"ranks": [1], "indices": [1]}


def test_decompose_csv(tmp_path):
    grid = _write(tmp_path / "g2.json", {"dims": 2, "seqs": [[2, 2], [3, 3]], "depth": 2})
    out = tmp_path / "dec.csv"
    rc = main(
        ["decompose", "--grid", grid, "--box", "1:0,0:0", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + three rank-1 strips in dim 1
    assert lines[0].startswith("rank")


def test_missing_file_exit_code(capsys):
    rc = main(["check-family", "--family", "no-such-file.json"])
    assert rc == 1
    assert "missing file: no-such-file.json" in capsys.readouterr().err


def test_malformed_grid_names_the_field(tmp_path, capsys):
    bad = _write(tmp_path / "badg.json", {"dims": 1, "seqs": [[2, 1]], "depth": 2})
    rc = main(["systems", "--grid", bad, "--haar", "1"])
    assert rc == 1
    assert "seqs[0][1]" in capsys.readouterr().err


def test_thread_count_does_not_change_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["counterexample", "--nmax", "3", "--threads", "1", "--out", str(a)]) == 0
    assert main(["counterexample", "--nmax", "3", "--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "padicah", "counterexample", "--nmax", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall_pass"] is True


def test_tolerance_flag_recorded(tmp_path):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    out = tmp_path / "r.json"
    rc = main(
        ["recover", "--mode", "haar", "--series", series, "--family", family,
         "--index", "1", "--tolerance", "1e-4", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["tol"] == 1e-4


def test_family_member_covering_half_the_cube_is_refused(tmp_path, capsys):
    grid = {"dims": 2, "seqs": [[2, 2], [2, 2]], "depth": 2}
    family = _write(tmp_path / "f.json", {
        "bound_c": ["1", "1"],
        "grid": grid,
        "members": [{"cells": [{"ranks": [1, 0], "indices": [0, 0]}], "values": [["2", "1"]]}],
        "schema_version": 1,
    })
    series = _write(tmp_path / "s.json", {"mode": "haar", "grid": grid, "entries": [[[0, 0], 1, 0]]})
    for argv in (["check-family", "--family", family],
                 ["recover", "--mode", "additive", "--series", series, "--family", family]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: members[0].cells:") and "measures sum to 1/2" in err


def test_family_member_with_overlapping_cells_is_refused(tmp_path, capsys):
    doc = _family_doc(depth=2, count=1)
    doc["members"][0] = {
        "cells": [{"ranks": [0], "indices": [0]}, {"ranks": [2], "indices": [2]}],
        "values": [["2", "1"], ["3", "1"]],
    }
    rc = main(["check-family", "--family", _write(tmp_path / "f.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: members[0].cells:")


def test_systems_price_checks_the_cap_before_building(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(30))
    rc = main(["systems", "--grid", grid, "--price", "536870911"])
    assert rc == 1
    assert "exceeds the 4194304 cap" in capsys.readouterr().err


def _one_error_line(capsys, started) -> str:
    """The refusal's stderr, checked to be one ``error:`` line that came
    back well before any table could have been built."""
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("p", [10 ** 30, 2 ** 23])
def test_systems_haar_checks_the_cap_before_building(tmp_path, capsys, p):
    grid = _write(tmp_path / "g.json", {"dims": 1, "seqs": [[p]], "depth": 1})
    started = time.perf_counter()
    assert main(["systems", "--grid", grid, "--haar", "1"]) == 1
    assert "exceeds the 4194304 cap" in _one_error_line(capsys, started)


@pytest.mark.parametrize("p", [100000, 10 ** 30])
def test_systems_gamma_block_checks_the_cap_before_allocating(tmp_path, capsys, p):
    grid = _write(tmp_path / "g.json", {"dims": 1, "seqs": [[p]], "depth": 1})
    started = time.perf_counter()
    assert main(["systems", "--grid", grid, "--gamma-block", "1"]) == 1
    err = _one_error_line(capsys, started)
    assert f"gamma block 1 has side B = {p - 1}" in err and "67108864 cap" in err


@pytest.mark.parametrize("field, bad", [
    ("dims", "1"), ("depth", "2"), ("dims", True), ("depth", 2.0),
])
def test_grid_dims_and_depth_must_be_integers(tmp_path, capsys, field, bad):
    doc = {"dims": 1, "seqs": [[2, 2]], "depth": 2, field: bad}
    grid = _write(tmp_path / "g.json", doc)
    started = time.perf_counter()
    assert main(["systems", "--grid", grid, "--haar", "1"]) == 1
    err = _one_error_line(capsys, started)
    assert f"'{field}' must be an integer, got {bad!r}" in err


def test_systems_haar_lists_the_sparse_partition(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(30))
    out = tmp_path / "sys.json"
    assert main(["systems", "--grid", grid, "--haar", "536870911", "--out", str(out)]) == 0
    table = json.loads(out.read_text())["tables"][0]
    # chi_n with n = 2**29 - 1 lives at rank k = 28: one zero sibling per
    # level above the support, then the p_{k+1} = 2 children
    assert len(table["cells"]) == 28 * (2 - 1) + 2
    assert table["cells"][-2:] == [
        {"indices": [2 ** 29 - 2], "ranks": [29]},
        {"indices": [2 ** 29 - 1], "ranks": [29]},
    ]


@pytest.mark.parametrize("fmt, digest", [
    ("json", "b16e02c12300b1b8861b7b69569f5f741781d92726cb771008495684af919df2"),
    ("csv", "0dd1e2e29dc0544fbcf5efd57defa02a18991850664e79bde03f1320ece8fbda"),
])
def test_systems_gamma_block_bytes_are_frozen(tmp_path, fmt, digest):
    grid = _write(tmp_path / "g.json", {"dims": 1, "seqs": [[3, 3, 3, 3]], "depth": 4})
    out = tmp_path / f"gb.{fmt}"
    rc = main(["systems", "--grid", grid, "--gamma-block", "4", "--format", fmt, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `systems --gamma-block` output, recorded before blocks were
# rendered from their distinct values: blocks 0, 1 and the top block
GAMMA_SHA256 = {
    ((2, 5, 3),): {
        0: ("02732eb98c2eeab36f676c19bafde4bb55880b5a7ba4f31a059f638bc8f327f5",
            "7a31a4cfae3928644be074bab65eba9b410b24623de0c0ba1dec7e22e7e004ae"),
        1: ("3dac9675498156f547a7e76140e75043a9d06e3ae5b6e7e1def9569f150b6719",
            "5bf5e98b142552227725a0437a86da506bbd6765bacdacbed2df1d73b1c822bd"),
        3: ("3dd74588f5ed3edaf315562c00014e773d65496c4211ec9da716dc48d3564943",
            "166c14f2b4fa4071fb3c1a504726ba3a751195485ff3eea8d83e7aab770f8ac3"),
    },
    ((3, 2, 5, 2),): {
        0: ("c267663847469ff86dbc9d60bf67be072e3a0c8dbd418b06e969b1134b7579ae",
            "7a31a4cfae3928644be074bab65eba9b410b24623de0c0ba1dec7e22e7e004ae"),
        1: ("550f82ea128f24fe047255c7f28695a31207e6c9a37946b1273ef5f625b17e53",
            "27bee3492d1a4211bff7142f37fa26678859b0ac9fae3bb2df62a33771eeec52"),
        4: ("49499803a6223821fe6a42c395a1bec820a1b3e532f1e077a99af4da24713700",
            "8e5b637123db78f00119f23c87f8b6e43f4d60fb80b32c39a136a9e68172a96b"),
    },
    ((2, 3, 2, 3, 2, 3),): {
        0: ("6fa58df28e03897be53c6a9a84f4f1d3ef7f533d964a001791a712c5ebac9be2",
            "7a31a4cfae3928644be074bab65eba9b410b24623de0c0ba1dec7e22e7e004ae"),
        1: ("bbeea19112f135c52100cab8c12bf8838a3d7e27ec57c8f4068859211bdc3e52",
            "5bf5e98b142552227725a0437a86da506bbd6765bacdacbed2df1d73b1c822bd"),
        6: ("38197b506dd33be4fb5c01a823097da3ae269a935982d55f407992071882d688",
            "1488e7b0f486a2645c21a98d0ecbef701d27902d1e504c196a5c59ac4e6e73ab"),
    },
    ((2, 3, 2), (3, 2, 2)): {
        0: ("34c81ddb9b2c5930ae7c4fd2273fe4aac20fdce992d732edc36709303e52ca87",
            "c440ff95a8b16df583dc0d3e62f0fbd953a8dc47f6d1640730aa7f5ee3a36507"),
        1: ("88a7ccb6aee115a1761dc989074b2c772b14556804c1c5eef5fd66e782744f94",
            "fa93812d6a90f8c882215a2ba607302cc8f1016988c387817b33944d0b0490a0"),
        3: ("58487520efcb7fefb489e07c5de840441e753139a414e6f271908be7ef31a873",
            "c8207e2f8abd540df9c38fe79c0e1bd26d1f43c4015cd0242b7f100940c41c69"),
    },
}


@pytest.mark.parametrize("seqs, block, fmt", [
    (seqs, block, fmt) for seqs, blocks in GAMMA_SHA256.items() for block in blocks
    for fmt in ("json", "csv")
])
def test_systems_gamma_block_bytes_match_the_recorded_sha256(tmp_path, seqs, block, fmt):
    doc = {"dims": len(seqs), "seqs": [list(s) for s in seqs], "depth": min(map(len, seqs))}
    grid = _write(tmp_path / "g.json", doc)
    out = tmp_path / f"gb.{fmt}"
    argv = ["systems", "--grid", grid, "--gamma-block", str(block), "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    digest = GAMMA_SHA256[seqs][block][fmt == "csv"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_rerun_onto_an_existing_out_gives_the_same_bytes(tmp_path):
    grid = _write(tmp_path / "g.json", _grid_doc(4))
    out = tmp_path / "gb.json"
    argv = ["systems", "--grid", grid, "--gamma-block", "3", "--haar", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    out.write_text("a longer report from an earlier run\n" * 1000)
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "gb.json"]


def test_a_failed_write_leaves_the_existing_out_untouched(tmp_path, capsys, monkeypatch):
    import padicah.cli as cli

    grid = _write(tmp_path / "g.json", _grid_doc(4))
    out = tmp_path / "gb.json"
    out.write_text("the previous report\n")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            def write(text):
                raise OSError(28, "No space left on device", str(file))
            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(["systems", "--grid", grid, "--gamma-block", "3", "--out", str(out)]) == 1
    assert f"cannot read or write {out}: No space left on device" in capsys.readouterr().err
    assert out.read_text() == "the previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "gb.json"]


def test_decompose_checks_the_cap_before_enumerating(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", {"dims": 2, "seqs": [[2] * 40] * 2, "depth": 40})
    started = time.perf_counter()
    assert main(["decompose", "--grid", grid, "--box", "0:0,40:0"]) == 1
    assert time.perf_counter() - started < 0.1
    err = _one_error_line(capsys, started)
    assert f"{2 ** 40} rank-40 cells" in err and "4194304 cap" in err


def test_parser_survives_a_rejected_command_line(tmp_path):
    out = tmp_path / "in_process.json"
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--nmax", "three"])
    assert exc.value.code == 2
    assert main(["counterexample", "--nmax", "3", "--j", "1,2", "--out", str(out)]) == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "padicah", "counterexample", "--nmax", "3", "--j", "1,2"],
        capture_output=True,
    )
    assert fresh.returncode == 0
    assert out.read_bytes() == fresh.stdout


def test_numpy_loads_only_for_gamma_blocks(tmp_path):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    grid = _write(tmp_path / "g.json", _grid_doc(4))
    runs = [
        ["counterexample", "--nmax", "5"],
        ["recover", "--mode", "haar", "--series", series, "--family", family, "--index", "1"],
        ["systems", "--grid", grid, "--gamma-block", "2"],
    ]
    script = "\n".join([
        "import sys",
        "from padicah.cli import main",
        *(f"print(main({argv + ['--out', str(tmp_path / 'o.json')]!r}), 'numpy' in sys.modules)"
          for argv in runs),
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0 False", "0 False", "0 True"]


def test_family_check_sweeps_once_per_family(tmp_path, monkeypatch):
    import padicah.cli  # noqa: F401  (every module that may bind check_family)
    import padicah.counterexample  # noqa: F401
    from padicah.integration import check_family

    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("padicah") and getattr(module, "check_family", None) is check_family:
            monkeypatch.setattr(module, "check_family",
                                lambda fam: calls.append(fam) or check_family(fam))
    out = str(tmp_path / "o.json")
    assert main(["counterexample", "--nmax", "5", "--out", out]) == 0
    assert len(calls) == 1
    series = _write(tmp_path / "s.json", {"mode": "haar", "grid": _grid_doc(), "entries": [[[1], 2, 0]]})
    family = _write(tmp_path / "f.json", _family_doc())
    calls.clear()
    rc = main(["recover", "--mode", "additive", "--series", series, "--family", family,
               "--box", "1:0", "--out", out])
    assert rc == 0
    assert len(calls) == 1


def _refused_before_work(capsys, argv, *names):
    """`argv` exits 1 at once with one error line naming each of `names`,
    and writes no report."""
    started = time.perf_counter()
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    assert main(argv) == 1
    err = _one_error_line(capsys, started)
    assert all(name in err for name in names), err
    assert out is None or not Path(out).exists()
    return err


@pytest.mark.parametrize("flags, names", [
    (["--tolerance", "nan"], ["--tolerance", "nan"]),
    (["--tolerance", "inf"], ["--tolerance", "inf"]),
    (["--tolerance", "-1"], ["--tolerance", "-1.0"]),
    (["--threads", "-3"], ["--threads", "-3"]),
    (["--threads", "0"], ["--threads", "0"]),
])
def test_shared_flags_are_checked_before_any_work(tmp_path, capsys, flags, names):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    out = str(tmp_path / "o.json")
    for argv in (["recover", "--mode", "additive", "--series", series, "--family", family],
                 ["recover", "--mode", "haar", "--series", series, "--family", family,
                  "--index", "1"],
                 ["decompose", "--grid", grid, "--box", "1:0"],
                 ["systems", "--grid", grid, "--haar", "1"],
                 ["counterexample", "--nmax", "3"]):
        _refused_before_work(capsys, argv + flags + ["--out", out], *names)


@pytest.mark.parametrize("raw", ["zz", "0", "-2", "1.5"])
def test_bad_thread_variable_is_named_on_every_subcommand(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("PADIC_THREADS", raw)
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    for argv in (["systems", "--grid", grid, "--haar", "1"],
                 ["decompose", "--grid", grid, "--box", "1:0"]):
        _refused_before_work(capsys, argv, "PADIC_THREADS", repr(raw))
    # an explicit --threads overrides the variable
    assert main(["systems", "--grid", grid, "--haar", "1", "--threads", "1",
                 "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("flag", ["--haar", "--price"])
@pytest.mark.parametrize("raw", ["0..100000", "0..16", "-3..2", "5..2"])
def test_index_ranges_are_bounded_before_they_expand(tmp_path, capsys, flag, raw):
    grid = _write(tmp_path / "g.json", _grid_doc(4))
    _refused_before_work(capsys, ["systems", "--grid", grid, f"{flag}={raw}"],
                         f"{flag} range {raw!r}", "0..15")
    out = tmp_path / "o.json"
    assert main(["systems", "--grid", grid, flag, "0..15", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["tables"]) == 16


def test_a_range_longer_than_the_cell_cap_is_refused(tmp_path, capsys, monkeypatch):
    import padicah.cli

    # a lowered cap stands in for a deep grid, whose over-long range the
    # check must refuse without listing it
    monkeypatch.setattr(padicah.cli, "MAX_UNIFORM_CELLS", 8)
    grid = _write(tmp_path / "g.json", _grid_doc(4))
    _refused_before_work(capsys, ["systems", "--grid", grid, "--haar", "0..15"],
                         "--haar range '0..15'", "0..15", "at most 8")
    out = tmp_path / "o.json"
    assert main(["systems", "--grid", grid, "--haar", "8..15", "--out", str(out)]) == 0


def test_the_tables_of_one_call_are_capped_together(tmp_path, capsys, monkeypatch):
    import padicah.systems

    # --price 0..1023 on a depth-11 grid is 1024 tables of 699051 cells in
    # all (28.8 MB of JSON, 23 s to write); each table and the range pass
    # their own checks, so only the total can refuse them, here under a
    # lowered cap that stands in for a deeper grid
    monkeypatch.setattr(padicah.systems, "MAX_UNIFORM_CELLS", 1 << 16)
    grid = _write(tmp_path / "g.json", _grid_doc(11))
    out = str(tmp_path / "o.json")
    _refused_before_work(capsys, ["systems", "--grid", grid, "--price", "0..1023", "--out", out],
                         "--price tables", "699051 cells", "65536 cap")
    _refused_before_work(capsys, ["systems", "--grid", grid, "--haar", "0..1023", "--price", "0..1023",
                                  "--out", out], "--haar and --price tables", "65536 cap")
    assert main(["systems", "--grid", grid, "--price", "0..63", "--out", out]) == 0


def test_the_total_table_cap_holds_at_its_default(tmp_path, capsys):
    # 4096 Price tables of at most 4096 cells each, 11184811 cells in all
    grid = _write(tmp_path / "g.json", _grid_doc(13))
    _refused_before_work(capsys, ["systems", "--grid", grid, "--price", "0..4095"],
                         "--price tables", "11184811 cells", "4194304 cap")


COUNTEREXAMPLE_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "counterexample_sha256.json"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_counterexample_reports_match_the_recorded_sha256(tmp_path, threads):
    recorded = json.loads(COUNTEREXAMPLE_SHA256.read_text(encoding="utf-8"))
    keys = [key for key in recorded if key.split(":")[0] in ("5", "6")]
    assert len(keys) == 14
    out = tmp_path / "ce.json"
    for key in keys:
        nmax, j_arg = key.split(":")
        assert main(["counterexample", "--nmax", nmax, "--j", j_arg, "--threads", threads,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded[key], key


def test_unparsable_flags_are_named(tmp_path, capsys):
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    grid2 = _write(tmp_path / "g2.json", {"dims": 2, "seqs": [[2], [2]], "depth": 1})
    recover = ["recover", "--series", series, "--family", family]
    for argv, flag in (
        (["systems", "--grid", grid, "--haar", "x"], "--haar: 'x'"),
        (["systems", "--grid", grid, "--price", "1..y"], "--price: 'y'"),
        (["systems", "--grid", grid2, "--haar", "1:z"], "--haar: 'z'"),
        (recover + ["--mode", "haar", "--index", "x"], "--index: 'x'"),
        (recover + ["--mode", "additive", "--box", "1:x"], "--box: 'x'"),
        (["decompose", "--grid", grid, "--box", "1:x"], "--box: 'x'"),
        (["counterexample", "--j", "1,a"], "--j: 'a'"),
    ):
        _refused_before_work(capsys, argv, f"{flag} is not an integer")


def test_deeply_nested_json_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (["systems", "--grid", str(path), "--haar", "1"],
                 ["check-family", "--family", str(path)]):
        _refused_before_work(capsys, argv, f"error: {path}: maximum recursion depth exceeded")


def test_malformed_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": 1,')
    _refused_before_work(capsys, ["check-family", "--family", str(path)], f"error: {path}: ")


def test_series_file_repeating_an_index_is_refused(tmp_path, capsys):
    doc = _series_doc()
    doc["entries"] = [[[1], 2, 0], [[3], 1, 0], [[1], 5, 0]]
    series = _write(tmp_path / "s.json", doc)
    family = _write(tmp_path / "f.json", _family_doc())
    _refused_before_work(capsys, ["recover", "--mode", "haar", "--series", series,
                                  "--family", family, "--index", "1"],
                         "entries[2] repeats index [1]")


def test_a_haar_index_beyond_the_grid_names_the_flag(tmp_path, capsys):
    series = _write(tmp_path / "s.json", _series_doc(3))
    family = _write(tmp_path / "f.json", _family_doc(3))
    _refused_before_work(capsys, ["recover", "--series", series, "--family", family,
                                  "--mode", "haar", "--index", "8"],
                         "--index '8'", "flat indices 0..7")


def test_a_negative_systems_index_names_the_flag(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    _refused_before_work(capsys, ["systems", "--grid", grid, "--haar=-2"],
                         "--haar '-2'", "flat indices 0..7")


def test_a_negative_haar_recovery_index_names_the_accepted_range(tmp_path, capsys):
    # index 0 (the constant) is a valid Haar recovery, so the range starts at 0
    series = _write(tmp_path / "s.json", _series_doc())
    family = _write(tmp_path / "f.json", _family_doc())
    err = _refused_before_work(capsys, ["recover", "--series", series, "--family", family,
                                        "--mode", "haar", "--index=-1"],
                               "--index '-1'", "flat indices 0..63")
    assert "0 is the constant" not in err


def test_a_box_rank_beyond_the_grid_names_the_flag(tmp_path, capsys):
    grid = _write(tmp_path / "g.json", _grid_doc(3))
    _refused_before_work(capsys, ["decompose", "--grid", grid, "--box", "4:0"],
                         "--box '4:0'", "rank 4 outside [0, 3]")
    _refused_before_work(capsys, ["decompose", "--grid", grid, "--box", "2:4"],
                         "--box '2:4'", "index 4 outside [0, 4)")
