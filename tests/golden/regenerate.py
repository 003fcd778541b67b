"""The golden-output corpus of the ``ringdecay`` CLI: its command lines and their outputs.

    PYTHONPATH=src python tests/golden/regenerate.py

runs every command line of ``LINES`` in process and rewrites
``corpus.json`` next to this file; ``test_golden.py`` replays them and
compares.  A change that moves the corpus says why in CHANGES.md.

Each record holds the command line, its exit code, its stderr text, and
the SHA-256 and byte count of its stdout (UTF-8).  Only IEEE-deterministic
bits are pinned.  The analytic route, ``coeffs`` and the ``validate``
text compute with Python floats, ``math`` functions and sequential numpy
sums.  The oracle goes through numpy's SIMD ``np.sin``/``np.cos`` and
pocketfft, so ``pinned`` replaces every oracle-derived field by ``~``
before hashing: the ``rate_oracle`` and ``abs_diff`` cells and the
``max_abs_diff`` line of ``spectrum --path both``, and the measured value
and worst case of the four ``validate`` checks that read oracle rates.
``test_golden.py`` checks those fields numerically instead.

``sweep``'s grid is ``np.geomspace``, which calls numpy's ``log10`` and
``power`` ufuncs.  Both dispatch on the CPU: on an AVX-512 (X86_V4) host
they run a SIMD kernel whose results differ from the C library's ``pow``
in the last bit at 3 of the 50 points of ``--grid-points 50`` (numpy
2.4; ``NPY_DISABLE_CPU_FEATURES=X86_V4`` gives the C library's bits).
So ``sweep`` bytes are pinned per platform: ``geomspace_probe`` is the
hash of one grid on the host that wrote the corpus, and a host whose grid
differs skips the ``sweep`` lines that print a grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from ringdecay.cli import main as cli_main

CORPUS = Path(__file__).with_name("corpus.json")
MASK = "~"
# The validate checks whose measure includes oracle rates.
ORACLE_CHECKS = ("oracle-equivalence", "trace-sum-rule", "mode-nonnegativity",
                 "reflection-symmetry")

# The 39 ops of benchmarks/workloads.py at seed 20250117, in batch order.
WORKLOAD_OPS = [
    ["spectrum", "--n-atoms", "538", "--a", "0.5564120166766328", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "2785", "--a", "45.70369562522758", "--path", "both",
     "--model", "vector", "--delta", "0.10693591755644796"],
    ["spectrum", "--n-atoms", "1794", "--a", "38.31901876586172", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "1158", "--a", "31.540573455837695", "--path", "analytic",
     "--model", "vector", "--delta", "1.1859067203125544"],
    ["spectrum", "--n-atoms", "763", "--a", "25.950903053962783", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "4096", "--a", "21.032512669204884", "--path", "both",
     "--model", "vector", "--delta", "0.5536932924868088"],
    ["spectrum", "--n-atoms", "2531", "--a", "17.568439748199054", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "1666", "--a", "14.147859513349951", "--path", "analytic",
     "--model", "vector", "--delta", "0.055034796816155016"],
    ["spectrum", "--n-atoms", "1075", "--a", "12.041224278339632", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "699", "--a", "9.81878867191953", "--path", "both",
     "--model", "vector", "--delta", "0.9269051508205892"],
    ["spectrum", "--n-atoms", "3610", "--a", "7.886752461631247", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "2327", "--a", "6.536974048353098", "--path", "analytic",
     "--model", "vector", "--delta", "0.8149018909873402"],
    ["spectrum", "--n-atoms", "1520", "--a", "5.431022465508922", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "986", "--a", "4.499373489003246", "--path", "both",
     "--model", "vector", "--delta", "0.7578665291463255"],
    ["spectrum", "--n-atoms", "636", "--a", "3.7614981342436633", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "3297", "--a", "3.0742769294290566", "--path", "analytic",
     "--model", "vector", "--delta", "0.5534179642185958"],
    ["spectrum", "--n-atoms", "2119", "--a", "2.5168936125778996", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "1395", "--a", "2.0694007430435", "--path", "both",
     "--model", "vector", "--delta", "0.560304666104564"],
    ["spectrum", "--n-atoms", "904", "--a", "1.7531236304172773", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "580", "--a", "1.4324333047692868", "--path", "analytic",
     "--model", "vector", "--delta", "0.8206942276847586"],
    ["spectrum", "--n-atoms", "3011", "--a", "1.169963222750376", "--path", "analytic",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "1944", "--a", "0.9859082542985593", "--path", "both",
     "--model", "vector", "--delta", "0.102833823766958"],
    ["spectrum", "--n-atoms", "1264", "--a", "0.7906462464010209", "--path", "both",
     "--model", "scalar"],
    ["spectrum", "--n-atoms", "819", "--a", "0.6574331242978945", "--path", "analytic",
     "--model", "vector", "--delta", "1.5479615284558796"],
    ["coeffs", "--a", "165.65850046787352", "--n-max", "206", "--with-d"],
    ["coeffs", "--a", "57.90419833535565", "--n-max", "98", "--with-d"],
    ["coeffs", "--a", "400.0", "--n-max", "440", "--with-d"],
    ["coeffs", "--a", "204.8769103830065", "--n-max", "245", "--with-d"],
    ["coeffs", "--a", "275.06908581858556", "--n-max", "316", "--with-d"],
    ["coeffs", "--a", "95.62934166754069", "--n-max", "136", "--with-d"],
    ["coeffs", "--a", "72.73122680159814", "--n-max", "113", "--with-d"],
    ["coeffs", "--a", "127.2854326063519", "--n-max", "168", "--with-d"],
    ["sweep", "--n-atoms", "8", "--model", "scalar", "--grid-points", "50"],
    ["sweep", "--n-atoms", "8", "--model", "vector", "--delta", "0.7381727672014521",
     "--grid-points", "50"],
    ["sweep", "--n-atoms", "10", "--model", "scalar", "--grid-points", "50"],
    ["sweep", "--n-atoms", "10", "--model", "vector", "--delta", "0.6457418499797338",
     "--grid-points", "50"],
    ["sweep", "--n-atoms", "12", "--model", "scalar", "--grid-points", "50"],
    ["sweep", "--n-atoms", "12", "--model", "vector", "--delta", "1.5707947207062853",
     "--grid-points", "50"],
    ["validate"],
]

# The README's examples and the command lines its CLI section describes.
README_LINES = [
    ["spectrum", "--n-atoms", "10", "--a", "3", "--path", "both"],
    ["coeffs", "--a", "50", "--n-max", "70", "--with-d"],
    ["coeffs", "--a", "50", "--n-max", "70"],
    ["sweep", "--n-atoms", "10", "--k", "0,1,2,4"],
    ["sweep", "--n-atoms", "10", "--k=-2,2", "--grid-points", "20"],
    ["spectrum", "--n-atoms", "10", "--d-over-lambda", "0.3"],
    ["spectrum", "--n-atoms", "10", "--lambda-over-d", "2.5", "--model", "vector"],
    ["coeffs", "--a", "1e4", "--n-max", "100000", "--with-d"],
]

# Where coeffs stops below alias_cutoff(a): a note where a sum rule misses
# by more than TOL_SUM, none where both still close.
NOTE_LINES = [
    ["coeffs", "--a", "50", "--n-max", "30"],
    ["coeffs", "--a", "2000", "--n-max", "2040", "--with-d"],
    ["coeffs", "--a", "5", "--n-max", "10", "--method", "series"],
    ["coeffs", "--a", "400", "--n-max", "440"],
    ["coeffs", "--a", "50", "--n-max", "90"],
    ["coeffs", "--a", "0", "--n-max", "5"],
]

# Rows 4096 at a time: one row short of, at, and past a block seam.
SEAM_LINES = [
    ["coeffs", "--a", "3.5", "--n-max", "4095"],
    ["coeffs", "--a", "3.5", "--n-max", "4096", "--with-d"],
    ["coeffs", "--a", "3.5", "--n-max", "8192", "--with-d"],
    ["spectrum", "--n-atoms", "4096", "--a", "2"],
    ["spectrum", "--n-atoms", "4097", "--a", "2", "--path", "both"],
    ["spectrum", "--n-atoms", "8193", "--a", "0.5", "--model", "vector", "--delta", "1"],
    ["sweep", "--grid-points", "1024"],
    ["sweep", "--grid-points", "1025"],
]

# Corners of the advertised range.
CORNER_LINES = [
    ["coeffs", "--a", "0", "--n-max", "2", "--with-d"],
    ["coeffs", "--a", "1e-60", "--n-max", "3", "--with-d"],
    ["coeffs", "--a", "2", "--n-max", "30", "--with-d", "--method", "series"],
    ["coeffs", "--a", "1e4", "--n-max", "10148"],
    ["spectrum", "--n-atoms", "2", "--a", "0"],
    ["spectrum", "--n-atoms", "3", "--a", "0.5", "--path", "both", "--model", "vector"],
    ["spectrum", "--n-atoms", "200", "--d-over-lambda", "0.1"],
    ["spectrum", "--n-atoms", "64", "--a", "1e4", "--path", "both", "--model", "vector",
     "--delta", "1"],
    ["spectrum", "--n-atoms", "12", "--lambda-over-d", "2.5", "--model", "vector",
     "--delta", "1.5707963267948966"],
    ["sweep", "--n-atoms", "90", "--k=-45,0,44,45", "--model", "vector", "--delta", "0.7",
     "--grid-points", "30"],
    ["sweep", "--n-atoms", "400", "--k", "0,200", "--grid-min", "0.05", "--grid-max", "0.1",
     "--grid-points", "3"],
    ["sweep", "--n-atoms", "10", "--grid-min", "1", "--grid-max", "1e60", "--grid-points", "7"],
]

# Refusals: exit 2 with one error line, or argparse's usage message.
REFUSAL_LINES = [
    ["coeffs", "--a", "50", "--n-max", "10", "--method", "series"],
    ["coeffs", "--a", "1", "--n-max", "100001"],
    ["coeffs", "--a", "1", "--n-max", "-1"],
    ["coeffs", "--a", "-1", "--n-max", "5"],
    ["coeffs", "--a", "10001", "--n-max", "5"],
    ["coeffs", "--a", "nan", "--n-max", "5"],
    ["coeffs", "--a", "1"],
    ["spectrum", "--n-atoms", "1", "--a", "1"],
    ["spectrum", "--n-atoms", "10000001", "--a", "1"],
    ["spectrum", "--n-atoms", "10", "--a", "1", "--delta", "0.5"],
    ["spectrum", "--n-atoms", "10", "--a", "1", "--model", "vector", "--delta", "2"],
    ["spectrum", "--n-atoms", "10", "--d-over-lambda", "0"],
    ["spectrum", "--n-atoms", "10", "--d-over-lambda", "1e300"],
    ["spectrum", "--n-atoms", "10", "--lambda-over-d", "1e-320"],
    ["sweep", "--grid-min", "1", "--grid-max", "1"],
    ["sweep", "--grid-max", "inf"],
    ["sweep", "--grid-points", "1"],
    ["sweep", "--grid-points", "10001"],
    ["sweep", "--k", "1,1"],
    ["sweep", "--k", ","],
    ["sweep", "--n-atoms", "10", "--k", "6"],
    ["sweep", "--k", "-2,2"],
    ["coeffs", "--a", "1", "--n-max", "2", "--output", "no/such/dir/out.csv"],
    ["validate", "--output", "no/such/dir/report.txt"],
    ["transform"],
]

LINES = WORKLOAD_OPS + README_LINES + NOTE_LINES + SEAM_LINES + CORNER_LINES + REFUSAL_LINES


def run(argv):
    """(exit code, stdout, stderr) of ``ringdecay *argv``, run in this process.

    argparse wraps its usage text at the terminal width, so it is pinned
    to 80 columns.
    """
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pinned(argv, out, err):
    """stdout and stderr with every oracle-derived field replaced by ``MASK``."""
    if argv[0] == "spectrum" and "both" in argv:
        header, *rows = out.split("\n")
        rows = [",".join(row.split(",")[:2] + [MASK, MASK]) if row else row for row in rows]
        out = "\n".join([header, *rows])
        err = re.sub(r"^max_abs_diff = \S+$", f"max_abs_diff = {MASK}", err, flags=re.M)
    elif argv[0] == "validate":
        names = "|".join(ORACLE_CHECKS)
        out = re.sub(rf"^((?:PASS|FAIL)  (?:{names}): .* \(measured )\S+(, tolerance \S+) at .*\)$",
                     rf"\g<1>{MASK}\g<2> at {MASK})", out, flags=re.M)
    return out, err


def sweep_grid_hash() -> str:
    """SHA-256 of ``np.geomspace(0.05, 100.0, 50)``, the workloads' sweep grid."""
    return hashlib.sha256(np.geomspace(0.05, 100.0, 50).tobytes()).hexdigest()


def record(argv, code, out, err) -> dict:
    out, err = pinned(argv, out, err)
    data = out.encode("utf-8")
    return {"argv": list(argv), "exit": code, "stderr": err,
            "stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def main() -> None:
    lines = [record(argv, *run(argv)) for argv in LINES]
    CORPUS.write_text(json.dumps({"geomspace_probe": sweep_grid_hash(), "lines": lines},
                                 indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
