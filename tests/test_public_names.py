"""No public helper without a caller.

Every name listed in a ``weierlab`` module's ``__all__`` must be read
somewhere other than its own definition: in the package, the tests, the
demos or the benchmark.  Imports, the ``__all__`` entry itself and uses
inside the name's own top-level definition do not count.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weierlab"
SOURCES = [p for d in ("src", "tests", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(node: ast.AST):
    """Names and attributes read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _defined_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _uses():
    """(file, top-level definition name or None, name read) over every source."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            owner = _defined_name(node)
            for name in _reads(node):
                yield path, owner, name


MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if _public_names(ast.parse(p.read_text())))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(module):
    names = set(_public_names(ast.parse(module.read_text())))
    used = {name for path, owner, name in _uses()
            if name in names and not (path == module and owner == name)}
    assert sorted(names - used) == []
