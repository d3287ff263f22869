"""Seeded inputs, job mixes and output oracles for the padicah benchmark.

A workload is a fixed *mix*: a list of job slots (command kind and size)
that the benchmark runs as a cycle, over and over, in one closed loop.
The seed never changes the sizes in the mix, only the planted data inside
each input file (indices, coefficient values, family weights, ``--j``
subsets) and the order of the slots within the cycle.  So two seeds give
different inputs of the same cost profile, and the metrics of a run
describe the stated mix rather than the luck of one draw.

Every job carries an oracle built from what was planted; ``check`` judges
one job's exit code and report bytes against it and returns the reason
for a failure, or None.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

COEFF_TOL = 1e-8  # the CLI's default verdict tolerance for coefficients
GAMMA_TOL = 1e-8  # bound on a price job's gamma_error
UNITARY_TOL = 1e-10  # bound on max |G G^H - I| for a dumped gamma block

FAMILY_MEMBERS = 7
SHA256_FILE = Path(__file__).with_name("counterexample_sha256.json")

# 2-D recovery grids: the (2,3,2,3) x (3,2,2,3) pair, one factor longer so
# that depth 5 exists.
GRID_2D_A = (2, 3, 2, 3, 2)
GRID_2D_B = (3, 2, 2, 3, 2)


@dataclass
class Job:
    """One CLI call of the mix, with the oracle its output must satisfy."""

    slot: int
    kind: str
    label: str
    argv: list[str]
    out: Path
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# documents


def moduli(seq) -> list[int]:
    out = [1]
    for p in seq:
        out.append(out[-1] * p)
    return out


def grid_doc(seqs) -> dict:
    seqs = [list(s) for s in seqs]
    return {"dims": len(seqs), "seqs": seqs, "depth": min(len(s) for s in seqs)}


def haar_rank(seq, n: int) -> int:
    """Rank k of the support cell of Haar index n >= 1 (block k + 1)."""
    mods = moduli(seq)
    return next(k for k in range(len(seq)) if mods[k] <= n < mods[k + 1])


def family_doc(rng: random.Random, seqs, variable: bool) -> dict:
    """Seven monotone members: constant 2^m, or 2^m times a per-cell weight
    on the rank-1 cells (aligned-variable)."""
    dim = len(seqs)
    if variable:
        cells = [[]]
        for seq in seqs:
            cells = [c + [i] for c in cells for i in range(seq[0])]
        weights = [rng.randint(1, 3) for _ in cells]
        cell_docs = [{"indices": c, "ranks": [1] * dim} for c in cells]
    else:
        weights = [1]
        cell_docs = [{"indices": [0] * dim, "ranks": [0] * dim}]
    members = [
        {"cells": cell_docs, "values": [[str(w * 2 ** m), "1"] for w in weights]}
        for m in range(1, FAMILY_MEMBERS + 1)
    ]
    return {"bound_c": ["1", "1"], "grid": grid_doc(seqs), "members": members,
            "schema_version": 1}


def planted_value(rng: random.Random, exact: bool):
    """(json re, json im, complex value) of one planted coefficient."""
    if exact:
        v = rng.choice((-3, -2, -1, 1, 2, 3))
        return v, 0, complex(v)
    re = rng.choice((-1, 1)) * rng.randint(4, 24) / 8
    im = rng.choice((-1, 1)) * rng.randint(1, 24) / 8
    return re, im, complex(re, im)


def series_entries(rng: random.Random, target, others, exact: bool):
    """Entry rows and the planted target value.  Exact series hold only
    integers; float series hold only complex floats."""
    rows = []
    planted = None
    for nvec in [target, *others]:
        re, im, value = planted_value(rng, exact)
        rows.append([list(nvec), re, im])
        if nvec == target:
            planted = value
    return rows, planted


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# the three mixes: (kind, size, count) per slot group, 40 jobs a cycle.
#
# Sorted by time, each mix puts a block of one kind around the median
# (ranks 16-25 of 40) and around the 90th percentile (ranks 35-38), with
# two heavier jobs above it, so both percentiles read the middle of one
# kind's times instead of a jump between kinds.  The first slot of each
# kind is its smallest size and doubles as the warm-up job.

RECOVER_MIX = (
    ("haar-2d", 3, 15),
    ("haar-1d", 10, 10),   # median
    ("haar-2d", 4, 9),
    ("haar-1d", 12, 4),    # 90th percentile
    ("haar-2d", 5, 1),
    ("haar-1d", 14, 1),
)

BASIS_CHANGE_MIX = (
    ("gamma-p3", 3, 4),
    ("price-2d", 3, 4),
    ("price-p2", 5, 4),
    ("gamma-mixed", 4, 3),
    ("gamma-mixed", 5, 10),  # median
    ("price-p2", 6, 5),
    ("gamma-p3", 4, 4),
    ("price-p3", 4, 4),      # 90th percentile
    ("gamma-mixed", 6, 1),
    ("gamma-p3", 5, 1),
)

CERTIFY_MIX = (
    ("decompose", 5, 5),
    ("check-family", 0, 10),
    ("additive", 3, 10),   # median
    ("additive", 4, 6),
    ("counterexample", 5, 3),
    ("counterexample", 6, 4),  # 90th percentile
    ("counterexample", 7, 1),
    ("counterexample", 8, 1),
)

MIXES = {"recover": RECOVER_MIX, "basis-change": BASIS_CHANGE_MIX, "certify": CERTIFY_MIX}

# --threads per workload: certify is the workload with a worker pool.
THREADS = {"recover": 1, "basis-change": 1, "certify": 2}


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files under `workdir` and return its cycle.

    The same (workload, seed) always writes the same files and returns the
    same jobs in the same order.
    """
    rng = random.Random(f"{workload}:{seed}")
    threads = ["--threads", str(THREADS[workload])]
    jobs = []
    for kind, size, count in MIXES[workload]:
        for rep in range(count):
            slot = len(jobs)
            job = _BUILDERS[kind](rng, workdir, slot, size, rep)
            job.argv += threads + ["--out", str(job.out)]
            jobs.append(job)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order]


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """One job per kind: the kind's smallest slot."""
    first = {}
    for job in sorted(jobs, key=lambda j: j.slot):
        first.setdefault(job.kind, job)
    return list(first.values())


def _planted_series(rng, seqs, depth: int, rep: int):
    """A target index in the top block of every dimension, plus 1-3 others.

    The entry count, the block of every entry and the exact/float choice
    follow from `rep` alone, so a slot costs the same under every seed;
    the seed picks the indices inside those blocks and the values.  With
    the target in the top block its sup norm is the largest, so the top
    family member (2^7) truncates nothing and the last estimate is exact.
    """
    mods = [moduli(s) for s in seqs]
    target = tuple(rng.randrange(m[depth - 1], m[depth]) for m in mods)
    others = []
    for i in range(1 + rep % 3):
        blocks = [1 + (rep + i + j) % depth for j in range(len(seqs))]
        nvec = target
        while nvec == target:
            nvec = tuple(rng.randrange(m[b - 1], m[b]) for m, b in zip(mods, blocks))
        others.append(nvec)
    return target, series_entries(rng, target, others, exact=rep % 2 == 0)


def _recover_coeff(rng, workdir, slot, depth, rep, mode, seqs):
    target, (rows, planted) = _planted_series(rng, seqs, depth, rep)
    series = write_json(workdir / f"s{slot}.json",
                        {"mode": mode, "grid": grid_doc(seqs), "entries": rows})
    family = write_json(workdir / f"f{slot}.json", family_doc(rng, seqs, rep % 4 >= 2))
    kind = mode if mode == "price" else f"haar-{len(seqs)}d"
    oracle = {"check": "coeff", "planted": [planted.real, planted.imag]}
    if mode == "price":
        oracle["gamma"] = True
    return Job(slot, kind, f"{kind} {'x'.join(''.join(map(str, s)) for s in seqs)} "
               f"{'exact' if rep % 2 == 0 else 'float'}",
               ["recover", "--mode", mode, "--series", series, "--family", family,
                "--index", ":".join(map(str, target))],
               workdir / f"o{slot}.json", oracle)


def _gamma_dump(rng, workdir, slot, block, rep, seq):
    grid = write_json(workdir / f"g{slot}.json", grid_doc([seq]))
    size = moduli(seq)[block] - moduli(seq)[block - 1]
    return Job(slot, "gamma", f"gamma {seq} t{block}",
               ["systems", "--grid", grid, "--gamma-block", str(block)],
               workdir / f"o{slot}.json", {"check": "unitary", "size": size})


def _counterexample(rng, workdir, slot, nmax, rep):
    js = sorted(rng.sample(range(1, nmax), 3))
    j_arg = ",".join(map(str, js))
    return Job(slot, "counterexample", f"counterexample n{nmax}",
               ["counterexample", "--nmax", str(nmax), "--j", j_arg],
               workdir / f"o{slot}.json",
               {"check": "counterexample", "key": f"{nmax}:{j_arg}"})


def _exact_2d_series(rng, depth: int):
    """Integer coefficients on a dyadic 2-D grid whose basis values are
    integers too (even total support rank), so the whole run is exact."""
    seq = (2,) * depth
    mods = moduli(seq)
    rows, bound = [], 0
    while len(rows) < 3:
        nvec = (rng.randrange(0, mods[depth]), rng.randrange(0, mods[depth]))
        if not any(nvec) or any(nvec == tuple(r[0]) for r in rows):
            continue
        ranks = [haar_rank(seq, n) if n else 0 for n in nvec]
        if sum(ranks) % 2:
            continue
        value = rng.choice((-3, -2, -1, 1, 2, 3))
        sup = 2 ** (sum(ranks) // 2)
        if bound + abs(value) * sup > 2 ** (FAMILY_MEMBERS - 1):
            continue  # keep every value below the top member: exact recovery
        bound += abs(value) * sup
        rows.append([list(nvec), value, 0])
    return [seq, seq], rows


def _additive(rng, workdir, slot, depth, rep):
    seqs, rows = _exact_2d_series(rng, depth)
    series = write_json(workdir / f"s{slot}.json",
                        {"mode": "haar", "grid": grid_doc(seqs), "entries": rows})
    family = write_json(workdir / f"f{slot}.json", family_doc(rng, seqs, rep % 2 == 1))
    # a mixed-rank box: one coarse and one fine side
    coarse, fine = rng.randrange(0, depth - 1), depth - 1
    ranks = [coarse, fine] if rep % 2 else [fine, coarse]
    mods = moduli(seqs[0])
    box = ",".join(f"{k}:{rng.randrange(mods[k])}" for k in ranks)
    return Job(slot, "additive", f"additive d{depth}",
               ["recover", "--mode", "additive", "--series", series, "--family", family,
                "--box", box],
               workdir / f"o{slot}.json", {"check": "passes"})


def _decompose(rng, workdir, slot, depth, rep):
    """A mixed-rank 2-D box split into the uniform cells of its finest rank."""
    seqs = [GRID_2D_A[:depth], GRID_2D_B[:depth]]
    grid = write_json(workdir / f"g{slot}.json", grid_doc(seqs))
    ranks = [rng.randrange(0, depth - 1), depth - 1 + rep % 2]
    rng.shuffle(ranks)
    mods = [moduli(s) for s in seqs]
    top = max(ranks)
    count, den = 1, 1
    for m, k in zip(mods, ranks):
        count *= m[top] // m[k]
        den *= m[k]
    box = ",".join(f"{k}:{rng.randrange(m[k])}" for m, k in zip(mods, ranks))
    return Job(slot, "decompose", f"decompose d{depth}",
               ["decompose", "--grid", grid, "--box", box],
               workdir / f"o{slot}.json",
               {"check": "decompose", "count": count, "measure": ["1", str(den)]})


def _check_family(rng, workdir, slot, _size, rep):
    depth = 4
    seqs = [(2,) * depth] if rep % 2 else [GRID_2D_A[:depth], GRID_2D_B[:depth]]
    family = write_json(workdir / f"f{slot}.json", family_doc(rng, seqs, True))
    return Job(slot, "check-family", "check-family", ["check-family", "--family", family],
               workdir / f"o{slot}.json", {"check": "passes"})


_BUILDERS = {
    "haar-1d": lambda rng, wd, slot, size, rep: _recover_coeff(
        rng, wd, slot, size, rep, "haar", [(2,) * size]),
    "haar-2d": lambda rng, wd, slot, size, rep: _recover_coeff(
        rng, wd, slot, size, rep, "haar", [GRID_2D_A[:size], GRID_2D_B[:size]]),
    "price-p3": lambda rng, wd, slot, size, rep: _recover_coeff(
        rng, wd, slot, size, rep, "price", [(3,) * size]),
    "price-p2": lambda rng, wd, slot, size, rep: _recover_coeff(
        rng, wd, slot, size, rep, "price", [(2,) * size]),
    "price-2d": lambda rng, wd, slot, size, rep: _recover_coeff(
        rng, wd, slot, size, rep, "price", [GRID_2D_A[:size], GRID_2D_B[:size]]),
    "gamma-p3": lambda rng, wd, slot, size, rep: _gamma_dump(rng, wd, slot, size, rep, (3,) * 6),
    "gamma-mixed": lambda rng, wd, slot, size, rep: _gamma_dump(
        rng, wd, slot, size, rep, (2, 3, 2, 3, 2, 3)),
    "counterexample": _counterexample,
    "additive": _additive,
    "check-family": _check_family,
    "decompose": _decompose,
}


# ---------------------------------------------------------------------------
# oracles


def decode_number(v) -> complex:
    """Inverse of the report encoding: [num, den] strings, {re, im}, float."""
    if isinstance(v, list):
        return complex(int(v[0]) / int(v[1]))
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def load_sha256() -> dict:
    return json.loads(SHA256_FILE.read_text(encoding="utf-8"))


def check(job: Job, exit_code, data: bytes | None, sha256: dict) -> str | None:
    """Reason why the job's output disagrees with its oracle, or None."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if data is None:
        return "no report written"
    try:
        doc = json.loads(data)
        return _CHECKS[job.oracle["check"]](job, doc, data, sha256)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


def _check_counterexample(job: Job, doc: dict, data: bytes, sha256: dict) -> str | None:
    if doc["overall_pass"] is not True:
        return "overall_pass is not true"
    want = sha256.get(job.oracle["key"])
    got = hashlib.sha256(data).hexdigest()
    return None if got == want else f"report sha256 {got[:12]} != recorded {str(want)[:12]}"


def _check_decompose(job: Job, doc: dict, data: bytes, sha256: dict) -> str | None:
    want = (job.oracle["count"], job.oracle["measure"])
    got = (doc["count"], doc["measure"])
    if len(doc["cells"]) != want[0]:
        return f"{len(doc['cells'])} cells listed, expected {want[0]}"
    return None if got == want else f"count and measure {got} != {want}"


def _check_passes(job: Job, doc: dict, data: bytes, sha256: dict) -> str | None:
    return None if doc["passes"] is True else "passes is not true"


def _check_coeff(job: Job, doc: dict, data: bytes, sha256: dict) -> str | None:
    if doc["passes"] is not True:
        return "passes is not true"
    planted = complex(*job.oracle["planted"])
    estimate = decode_number(doc["estimates"][-1])
    if not abs(estimate - planted) <= COEFF_TOL:
        return f"estimate {estimate} is off the planted {planted}"
    if job.oracle.get("gamma") and not doc["gamma_error"] <= GAMMA_TOL:
        return f"gamma_error {doc['gamma_error']} exceeds {GAMMA_TOL}"
    return None


def _check_unitary(job: Job, doc: dict, data: bytes, sha256: dict) -> str | None:
    import numpy as np

    blocks = doc["gamma_blocks"]
    if len(blocks) != 1:
        return f"expected one gamma block, got {len(blocks)}"
    g = np.array([[complex(e["re"], e["im"]) for e in row] for row in blocks[0]["matrix"]])
    if g.shape != (job.oracle["size"],) * 2:
        return f"gamma block has shape {g.shape}"
    dev = float(np.abs(g @ g.conj().T - np.eye(g.shape[0])).max())
    return None if dev <= UNITARY_TOL else f"unitarity deviation {dev:.3g}"


_CHECKS = {
    "coeff": _check_coeff,
    "unitary": _check_unitary,
    "counterexample": _check_counterexample,
    "decompose": _check_decompose,
    "passes": _check_passes,
}
