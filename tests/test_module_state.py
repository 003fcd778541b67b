"""No module of the package applies a ``functools`` cache.

The package holds no module state: every call builds what it reads, so
results never depend on what was called before, and the benchmark's
per-op ``clear_caches`` has nothing to clear.  A ``functools.lru_cache``
or ``functools.cache`` added to ``src/ringdecay`` would bring that state
back; this test catches it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringdecay"
CACHES = {"lru_cache", "cache"}


def cache_uses(source: str) -> list:
    """Each load of ``functools.lru_cache`` or ``functools.cache`` in ``source``, as written."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id in modules]


def test_finds_each_cache_use():
    source = ("import functools\nfrom functools import lru_cache as memo, partial\n"
              "f, g, h = functools.cache(len), memo(8)(len), partial(len)\n")
    assert cache_uses(source) == ["functools.cache", "memo"]


def test_package_applies_no_functools_cache():
    uses = {path.name: cache_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}
