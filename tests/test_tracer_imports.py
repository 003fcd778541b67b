"""A package-relative import that its module never uses must be a wrap point.

Some modules import a name only so that ``benchmarks/spans.py`` can wrap
it where the callers look it up.  Once the tracer drops that wrap point,
the import is dead code; this test catches it.
"""

import ast
from pathlib import Path

from test_trace_hooks import WRAP_POINTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringdecay"


def unused_relative_imports(source: str) -> set:
    """Names bound by a ``from .x import`` in ``source`` and never loaded there."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_finds_an_unused_relative_import():
    source = "from .a import used, unused\nfrom b import absolute\nused()\n"
    assert unused_relative_imports(source) == {"unused"}


def test_every_unused_relative_import_is_a_wrap_point():
    wrapped = {(module, attr) for module, attr, _ in WRAP_POINTS}
    unused = {(f"ringdecay.{path.stem}", name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in unused_relative_imports(path.read_text())}
    assert unused <= wrapped, sorted(unused - wrapped)
