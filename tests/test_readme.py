"""The README's examples run: every ``python`` block, and each CLI example.

A public name removed from the library, or an option renamed, fails here
instead of leaving the README's examples broken.
"""

import re
import shlex
from pathlib import Path

import pytest

from ringdecay.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
EXAMPLES = re.search(r"^Examples:\n\n```\n(.*?)^```", README, re.S | re.M).group(1)
CLI_EXAMPLES = [line for line in EXAMPLES.splitlines() if line.startswith("ringdecay ")]


def test_examples_were_found():
    assert len(PYTHON_BLOCKS) >= 1
    assert len(CLI_EXAMPLES) == 3


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert out
