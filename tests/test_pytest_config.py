"""The repository's pytest settings report a failing test instead of aborting the session."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # a failing @given test makes hypothesis import libcst to report the example
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(INI),
         "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_planted.py::test_fails" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1, out
