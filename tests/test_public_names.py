"""No public helper without a caller, and no keyword parameter without a setter.

Every name listed in a ``weierlab`` module's ``__all__`` must be read
somewhere other than its own definition: in the package, the tests, the
demos or the benchmark.  Imports, the ``__all__`` entry itself and uses
inside the name's own top-level definition do not count.  Likewise every
parameter with a default must be set by some call in those sources.
"""

import ast
import functools
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


EXEMPT_KEYWORDS = {"tol", "seed"}  # every evaluator takes them


def _keyword_params(fn: ast.FunctionDef, skip: int):
    """(position or None, name) of each parameter with a default; ``skip``
    leaves self or cls out of the positions."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _definitions(tree: ast.Module):
    """(name a call uses, function, positions taken by self or cls) for each
    top-level function and method; a constructor is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield node.name if fn.name == "__init__" else fn.name, fn, 1


def _called_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@functools.cache
def _setters():
    """Per called name: the most positional arguments any call passes, the
    keywords passed, and whether a call unpacks */** (which may set any).
    A function named as an argument takes the arguments after it, as
    ``functools.partial`` and the benchmark's ``attempt`` pass them."""
    found: dict[str, list] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            unpacks = (any(k.arg is None for k in node.keywords)
                       or any(isinstance(a, ast.Starred) for a in node.args))
            keywords = {k.arg for k in node.keywords if k.arg}
            targets = [(node.func, len(node.args))]
            targets += [(arg, len(node.args) - i - 1) for i, arg in enumerate(node.args)]
            for target, n_positional in targets:
                name = _called_name(target)
                if name is None:
                    continue
                entry = found.setdefault(name, [0, set(), False])
                entry[0] = max(entry[0], n_positional)
                entry[1] |= keywords
                entry[2] |= unpacks
    return found


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_keyword_parameter_has_a_setter(module):
    """A parameter with a default that no call in the package, the tests,
    the demos or the benchmark ever sets is a constant in disguise."""
    setters = _setters()
    unset = []
    for called, fn, skip in _definitions(ast.parse(module.read_text())):
        n_positional, keywords, unpacks = setters.get(called, (0, set(), False))
        for position, name in _keyword_params(fn, skip):
            if name in EXEMPT_KEYWORDS or unpacks or name in keywords:
                continue
            if position is None or position >= n_positional:
                unset.append(f"{fn.name}({name})")
    assert unset == []
