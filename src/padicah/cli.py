"""Command-line front end for grid dumps, recovery runs, and the example.

Subcommands: systems, recover, check-family, counterexample, decompose.
Shared flags on every subcommand: --grid (grid JSON file), --out (output
path, default stdout), --format {json,csv}, --threads (size of the pool
that runs family members concurrently; falls back to the PADIC_THREADS
variable, then 1), --tolerance (verdict tolerance where a command has one).
Both are checked before any work (threads >= 1, a finite tolerance >= 0),
as are index ranges (within the grid's flat indices); errors name the flag.

Exit codes: 0 when the command's verdicts pass, 1 for unusable input
(missing files, parse errors, empty windows), 2 when a requested verdict
fails; failed-verdict reports are still written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache
from math import isfinite
from pathlib import Path

from .errors import ConfigMismatch
from .grid import MAX_UNIFORM_CELLS, Cell, GridConfig, cell_from_json_dict, decompose_box, full_cube
from .parallel import ENV_THREADS, resolve_threads
from .reports import SCHEMA_VERSION, canonical_json, cell_json, encode_value, rational_pair


def _load_json(path: str):
    """Parse one input file; a parse failure names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, out_path) -> None:
    """A report file is written under a temporary name beside it, then
    renamed into place: never truncated in place, which is slow on some file
    systems, and left untouched by a failed write.  Links, devices and pipes
    are written through."""
    if not out_path:
        sys.stdout.write(text)
        return
    target = Path(out_path)
    if target.is_symlink() or target.exists() and not target.is_file():
        target.write_text(text, encoding="utf-8")
        return
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        target.unlink(missing_ok=True)
        os.rename(tmp, target)
    except OSError as exc:  # name the report, not its temporary file
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {text.strip()!r} is not an integer") from None


def _parse_indices(raw: str, cfg: GridConfig, flag: str) -> list[tuple[int, ...]]:
    """Index lists: "3", "0,2,5", "0..7" (1-D), or "1:2,0:3" for d >= 2.

    Every index, range end and vector entry must lie within its
    dimension's m_K flat indices, and a range may list at most
    MAX_UNIFORM_CELLS of them; all is checked before a range is expanded.
    """
    dim, out = cfg.dim, []
    bounds = [seq.modulus(seq.depth) for seq in cfg.seqs]
    shape = ":".join(f"0..{bound - 1}" for bound in bounds)
    for part in raw.split(","):
        part = part.strip()
        if ".." in part:
            if dim != 1:
                raise ValueError(f"{flag}: index ranges like 0..7 need a one-dimensional grid")
            lo, hi = (_int(x, flag) for x in part.split("..", 1))
            if not 0 <= lo <= hi < bounds[0] or hi - lo >= MAX_UNIFORM_CELLS:
                raise ValueError(f"{flag} range {part!r} must lie within the grid's flat "
                                 f"indices 0..{bounds[0] - 1} and list at most {MAX_UNIFORM_CELLS}")
            out.extend((n,) for n in range(lo, hi + 1))
            continue
        vec = tuple(_int(x, flag) for x in part.split(":"))
        if len(vec) != dim or not all(0 <= n < bound for n, bound in zip(vec, bounds)):
            raise ValueError(f"{flag} {part!r} must lie within the grid's flat indices {shape}, "
                             "one per dimension")
        out.append(vec)
    if not out:
        raise ValueError(f"{flag}: empty index list")
    return out


def _parse_box(raw: str, cfg: GridConfig) -> Cell:
    """Box syntax: "rank:index" per dimension, comma-separated; "full" works."""
    if raw.strip() == "full":
        return full_cube(cfg.dim)
    ranks, indices = [], []
    parts = raw.split(",")
    if len(parts) != cfg.dim:
        raise ValueError(f"--box {raw!r} has {len(parts)} dimensions, grid has {cfg.dim}")
    for part in parts:
        bits = part.strip().split(":")
        if len(bits) != 2:
            raise ValueError(f"--box component {part!r} is not rank:index")
        ranks.append(_int(bits[0], "--box"))
        indices.append(_int(bits[1], "--box"))
    cell = Cell(tuple(ranks), tuple(indices))
    try:
        cell.validate(cfg)
    except ValueError as exc:
        raise ValueError(f"--box {raw!r}: {exc}") from None
    return cell


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _axis_columns(cfg: GridConfig, *names: str) -> list[str]:
    """CSV column names, one per axis: as given in 1-D, suffixed _j otherwise."""
    return list(names) if cfg.dim == 1 else [f"{n}_{j}" for n in names for j in range(cfg.dim)]


def _re_im_strings(v) -> tuple[str, str]:
    if isinstance(v, complex):
        return repr(v.real), repr(v.imag)
    if isinstance(v, float):
        return repr(v), repr(0.0)
    return str(v), "0"


# ---------------------------------------------------------------------------
# systems


def cmd_systems(args) -> int:
    from . import systems

    if args.grid is None:
        return _fail("systems needs --grid")
    cfg = GridConfig.from_json_dict(_load_json(args.grid))
    wants_tables = args.haar is not None or args.price is not None
    if not wants_tables and args.gamma_block is None:
        return _fail("systems needs --haar, --price, or --gamma-block")
    if args.format == "csv" and wants_tables and args.gamma_block is not None:
        return _fail("csv output covers either tables or a gamma block, not both")
    if args.gamma_block is not None and not 0 <= args.gamma_block <= cfg.min_depth:
        return _fail(f"--gamma-block {args.gamma_block} outside 0..{cfg.min_depth}")

    requests = [(system, index) for system, flag in (("haar", args.haar), ("price", args.price))
                if flag is not None for index in _parse_indices(flag, cfg, f"--{system}")]
    total = sum(systems.term_cells(cfg, index, system) for system, index in requests)
    if total > systems.MAX_UNIFORM_CELLS:  # every table together, before any is built
        flags = " and ".join(dict.fromkeys(f"--{system}" for system, _ in requests))
        return _fail(f"{flags} tables span up to {total} cells in all, "
                     f"which exceeds the {systems.MAX_UNIFORM_CELLS} cap")
    build = {"haar": systems.tensor_haar_step, "price": systems.tensor_price_step}
    tables = [(system, index, build[system](cfg, index)) for system, index in requests]

    # each block as its distinct values, rendered once, and G = values[codes]
    blocks = [(j, args.gamma_block, systems.gamma_codes(seq, args.gamma_block))
              for j, seq in enumerate(cfg.seqs) if args.gamma_block is not None]

    if args.format == "csv":
        if wants_tables:
            header = ["flat_index", *_axis_columns(cfg, "cell_lo", "cell_hi"), "re", "im"]
            rows = []
            for _, nvec, sf in tables:
                label = str(nvec[0]) if cfg.dim == 1 else ":".join(map(str, nvec))
                for cell, value in zip(sf.cells, sf.values):
                    lo = [str(cell.start(cfg, j)) for j in range(cfg.dim)]
                    hi = [str(cell.end(cfg, j)) for j in range(cfg.dim)]
                    re, im = _re_im_strings(value)
                    rows.append([label, *lo, *hi, re, im])
            _emit(_csv_text(header, rows), args.out)
        else:
            lines = ["dim,block,row,col,re,im\n"]
            for j, t, (values, codes) in blocks:
                strs = [f"{v.real!r},{v.imag!r}\n" for v in values.tolist()]
                for r, row in enumerate(codes.tolist()):
                    lines.extend(f"{j},{t},{r},{c},{strs[code]}" for c, code in enumerate(row))
            _emit("".join(lines), args.out)
        return 0

    doc = {"grid": cfg.to_json_dict(), "schema_version": SCHEMA_VERSION}
    if tables:
        doc["tables"] = [
            {
                "cells": [cell_json(c) for c in sf.cells],
                "index": list(nvec),
                "system": system,
                "values": [encode_value(v) for v in sf.values],
            }
            for system, nvec, sf in tables
        ]
    text = canonical_json(doc)
    if blocks:  # "gamma_blocks" sorts before every other key of doc
        rendered = []
        for j, t, (values, codes) in blocks:
            strs = [canonical_json({"im": v.imag, "re": v.real})[:-1] for v in values.tolist()]
            matrix = "],[".join(",".join(map(strs.__getitem__, row)) for row in codes.tolist())
            rendered.append(f'{{"block":{t},"dim":{j},"matrix":[[{matrix}]]}}')
        text = f'{{"gamma_blocks":[{",".join(rendered)}],{text[1:]}'
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# recover


def cmd_recover(args) -> int:
    from .integration import family_from_json_dict
    from .recovery import (
        gamma_path_reference,
        recover_additive,
        recover_haar_coeff,
        recover_price_coeff,
    )
    from .series import (
        AdditiveFn,
        coeffs_from_json_dict,
        haar_coeffs_from_price,
        price_coeffs_from_haar,
    )
    from .systems import UnitValue

    if args.format == "csv":
        return _fail("recovery reports are JSON only")
    if args.series is None or args.family is None:
        return _fail("recover needs --series and --family")
    coeffs = coeffs_from_json_dict(_load_json(args.series))
    fam = family_from_json_dict(_load_json(args.family))
    if coeffs.cfg != fam.cfg:
        raise ConfigMismatch("series and family files use different grids")
    if args.grid is not None:
        cfg = GridConfig.from_json_dict(_load_json(args.grid))
        if cfg != coeffs.cfg:
            raise ConfigMismatch("--grid disagrees with the series file")
    threads = args.threads
    family_report = fam.report

    def as_value(coeff):
        return coeff.as_number() if isinstance(coeff, UnitValue) else coeff

    if args.mode == "additive":
        box = _parse_box(args.box, coeffs.cfg) if args.box else full_cube(coeffs.cfg.dim)
        tol = args.tolerance if args.tolerance is not None else 1e-9
        (report,) = recover_additive(
            AdditiveFn.from_series(coeffs), fam, boxes=(box,), tol=tol, threads=threads
        )
        doc = report.to_json_dict()
        doc["family"] = family_report.to_json_dict()
        _emit(canonical_json(doc), args.out)
        return 0 if report.passes and family_report.passes else 2

    if args.index is None:
        return _fail(f"mode {args.mode} needs --index")
    index = _parse_indices(args.index, coeffs.cfg, "--index")
    if len(index) != 1:
        return _fail("recover takes exactly one --index")
    index = index[0]
    tol = args.tolerance if args.tolerance is not None else 1e-8
    f = AdditiveFn.from_series(coeffs).derivative()

    if args.mode == "haar":
        if coeffs.mode == "haar":
            reference = as_value(coeffs.get(index, 0))
        else:
            reference = gamma_path_reference(coeffs, index)
        report = recover_haar_coeff(f, index, fam, reference=reference, tol=tol, threads=threads)
        doc = report.to_json_dict()
    else:
        if coeffs.mode == "price":
            reference = as_value(coeffs.get(index, 0))
            haar_side = haar_coeffs_from_price(coeffs)
        else:
            reference = gamma_path_reference(coeffs, index)
            haar_side = coeffs
        report = recover_price_coeff(f, index, fam, reference=reference, tol=tol, threads=threads)
        gamma_ref = as_value(price_coeffs_from_haar(haar_side).get(index, 0))
        doc = report.to_json_dict()
        doc["gamma_reference"] = encode_value(gamma_ref)
        doc["gamma_error"] = abs(complex(report.estimates[-1]) - complex(gamma_ref))
    doc["family"] = family_report.to_json_dict()
    _emit(canonical_json(doc), args.out)
    return 0 if report.passes and family_report.passes else 2


# ---------------------------------------------------------------------------
# check-family


def cmd_check_family(args) -> int:
    from .integration import check_family, family_from_json_dict

    if args.format == "csv":
        return _fail("family reports are JSON only")
    if args.family is None:
        return _fail("check-family needs --family")
    fam = family_from_json_dict(_load_json(args.family))
    report = check_family(fam)
    _emit(canonical_json(report.to_json_dict()), args.out)
    return 0 if report.passes else 2


# ---------------------------------------------------------------------------
# counterexample


def cmd_counterexample(args) -> int:
    from .counterexample import ExampleSpec, end_to_end

    if args.format == "csv":
        return _fail("the counterexample report is JSON only")
    j_values = None
    if args.j is not None:
        j_values = tuple(_int(p, "--j") for p in args.j.split(",") if p.strip())
    spec = ExampleSpec(n_max=args.nmax, j_values=j_values)
    report = end_to_end(spec, threads=args.threads)
    _emit(canonical_json(report.to_json_dict()), args.out)
    return 0 if report.overall_pass else 2


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    if args.grid is None:
        return _fail("decompose needs --grid")
    if args.box is None:
        return _fail("decompose needs --box")
    cfg = GridConfig.from_json_dict(_load_json(args.grid))
    box = (
        cell_from_json_dict(_load_json(args.box))
        if args.box.endswith(".json")
        else _parse_box(args.box, cfg)
    )
    box.validate(cfg)
    parts = decompose_box(cfg, box)
    if args.format == "csv":
        header = _axis_columns(cfg, "rank", "index", "lo", "hi")
        rows = []
        for cell in parts:
            lo = [str(cell.start(cfg, j)) for j in range(cfg.dim)]
            hi = [str(cell.end(cfg, j)) for j in range(cfg.dim)]
            rows.append([*cell.ranks, *cell.indices, *lo, *hi])
        _emit(_csv_text(header, rows), args.out)
        return 0
    doc = {
        "box": cell_json(box),
        "cells": [cell_json(c) for c in parts],
        "count": len(parts),
        "grid": cfg.to_json_dict(),
        "measure": rational_pair(box.measure(cfg)),
        "rank": max(box.ranks),
        "schema_version": SCHEMA_VERSION,
    }
    _emit(canonical_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", help="grid JSON file")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument(
        "--threads", type=int, default=None,
        help=f"workers for the family-member pool (default: ${ENV_THREADS} or 1)",
    )
    sub.add_argument(
        "--tolerance", type=float, default=None,
        help="verdict tolerance for recover (coefficients 1e-8, cells 1e-9)",
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call to `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="padicah",
        description="exact multiresolution grids, orthonormal systems, truncated integrals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("systems", help="dump basis functions or a gamma block")
    _add_common(p)
    p.add_argument("--haar", help='indices: "3", "0,2,5", "0..7", or "1:2" per dim')
    p.add_argument("--price", help="indices, same syntax as --haar")
    p.add_argument("--gamma-block", type=int, help="dump the change-of-basis block t")
    p.set_defaults(func=cmd_systems)

    p = subs.add_parser("recover", help="recover a coefficient or cell value")
    _add_common(p)
    p.add_argument("--series", help="coefficient JSON file")
    p.add_argument("--family", help="cutoff family JSON file")
    p.add_argument("--mode", choices=("haar", "price", "additive"), required=True)
    p.add_argument("--index", help="target index for coefficient modes")
    p.add_argument("--box", help='target cell "rank:index[,rank:index...]" or "full"')
    p.set_defaults(func=cmd_recover)

    p = subs.add_parser("check-family", help="validate a cutoff family file")
    _add_common(p)
    p.add_argument("--family", help="cutoff family JSON file")
    p.set_defaults(func=cmd_check_family)

    p = subs.add_parser("counterexample", help="run the packaged example end to end")
    _add_common(p)
    p.add_argument("--nmax", type=int, default=5, help="rows of the construction (1..8)")
    p.add_argument("--j", help='right-edge exponents, e.g. "1,2,3"')
    p.set_defaults(func=cmd_counterexample)

    p = subs.add_parser("decompose", help="split a box into uniform cells")
    _add_common(p)
    p.add_argument("--box", help='cell "rank:index[,rank:index...]" or a JSON file')
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # shared flags are checked before any work, on every subcommand
        if args.tolerance is not None and not (isfinite(args.tolerance) and args.tolerance >= 0):
            return _fail(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
        if args.threads is not None and args.threads < 1:
            return _fail(f"--threads must be >= 1, got {args.threads}")
        args.threads = resolve_threads(args.threads)
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc.filename}")
    except OSError as exc:
        return _fail(f"cannot read or write {exc.filename}: {exc.strerror}")
    except ValueError as exc:  # includes the package's own error types
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
