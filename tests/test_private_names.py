"""Every module-level private name in the package must be loaded somewhere in it.

A private function, class or constant that no module of ``src/ringdecay``
reads is dead code: a helper left behind when its callers were folded
into another function.  Tests may still call it, so only the package
itself counts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringdecay"


def private_definitions(tree: ast.Module) -> set:
    """The single-underscore functions, classes and constants bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def loaded_names(tree: ast.Module) -> set:
    """Every name read in ``tree``, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unloaded_private_names(sources) -> set:
    """Module-level private names defined in ``sources`` and read in none of them."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(private_definitions, trees))
    return defined - set().union(*map(loaded_names, trees))


def package_sources() -> list:
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]


def test_finds_an_unloaded_private_name():
    source = "_USED, _DEAD = 1, 2\ndef _helper(): return _USED\nclass _Dead: __slots__ = ()\n"
    assert unloaded_private_names([source]) == {"_DEAD", "_helper", "_Dead"}
    assert unloaded_private_names([source, "from .m import _helper\n_helper()\n"]) == {
        "_DEAD", "_Dead"}


def test_every_private_name_is_loaded_in_the_package():
    sources = package_sources()
    defined = set().union(*(private_definitions(ast.parse(source)) for source in sources))
    assert {"_analytic_rates", "_check", "_BLOCK_ROWS"} <= defined  # functions and constants
    assert unloaded_private_names(sources) == set()
