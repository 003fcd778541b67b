"""Replay the golden corpus: each command line's pinned bytes, and its oracle fields by value.

``regenerate.py`` holds the command lines and writes ``corpus.json``.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ringdecay_golden", Path(__file__).with_name("regenerate.py"))
golden = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = golden
_SPEC.loader.exec_module(golden)

CORPUS = json.loads(golden.CORPUS.read_text(encoding="utf-8"))
LINES = CORPUS["lines"]
TOL_ORACLE = 1e-8  # the per-mode agreement of the two spectrum routes


def test_corpus_holds_every_line():
    assert [line["argv"] for line in LINES] == golden.LINES
    assert 60 <= len(LINES) <= 100


def check_oracle_fields(argv, out, err):
    """The fields ``pinned`` masks, checked against the pinned ones and their tolerances."""
    if argv[0] == "spectrum" and "both" in argv:
        rows = np.array([[float(x) for x in row.split(",")] for row in out.split("\n")[1:-1]])
        rate, oracle, diff = rows[:, 1], rows[:, 2], rows[:, 3]
        assert np.max(np.abs(oracle - rate)) <= TOL_ORACLE
        assert np.array_equal(diff, np.abs(rate - oracle))
        assert err == f"max_abs_diff = {np.max(diff):.17g}\n"
    elif argv[0] == "validate":
        names = "|".join(golden.ORACLE_CHECKS)
        found = re.findall(rf"^(?:PASS|FAIL)  (?:{names}): .* \(measured (\S+), "
                           rf"tolerance (\S+) at ", out, flags=re.M)
        assert len(found) == len(golden.ORACLE_CHECKS)
        for measured, tolerance in found:
            assert float(measured) <= float(tolerance)


@pytest.mark.parametrize("line", LINES, ids=[" ".join(line["argv"]) for line in LINES])
def test_line(line):
    argv = line["argv"]
    code, out, err = golden.run(argv)
    assert golden.record(argv, code, out, err) == line
    if out:
        check_oracle_fields(argv, out, err)
