"""Record the sha256 of every counterexample report the certify mix can ask for.

    python3 perfbench/record_sha256.py

Writes counterexample_sha256.json next to this file: one entry per
"nmax:j-list" key (nmax 5..8, every three-element --j subset).  Run it only
at a commit whose reports are known good; the benchmark's oracle then
holds later commits to the same bytes.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    cli = run.import_program()
    workdir = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    out = workdir / "report.json"
    table = {}
    try:
        for nmax in range(5, 9):
            for js in itertools.combinations(range(1, nmax), 3):
                j_arg = ",".join(map(str, js))
                code = cli.main(["counterexample", "--nmax", str(nmax), "--j", j_arg,
                                 "--threads", str(workloads.THREADS["certify"]),
                                 "--out", str(out)])
                if code != 0:
                    print(f"nmax {nmax} --j {j_arg}: exit code {code}", file=sys.stderr)
                    return 1
                table[f"{nmax}:{j_arg}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.SHA256_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"recorded {len(table)} reports in {workloads.SHA256_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
