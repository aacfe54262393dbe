"""No public helper without a caller, and no keyword parameter without a setter.

Every name listed in a ``weierlab`` module's ``__all__`` must be read by
the program: in the package, the demos, the benchmark or the acceptance
criteria of ``tests/test_acceptance.py``.  A unit test alone does not
keep a name alive.  Imports, the ``__all__`` entry itself and uses inside
the name's own top-level definition do not count, nor does a bare name
that a parameter or local of an enclosing function binds: such a name is
not the module's definition.  Likewise every parameter with a default
must be set by some call in the package, the tests, the demos or the
benchmark.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weierlab"
SOURCES = [p for d in ("src", "tests", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
READERS = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
READERS.append(ROOT / "tests" / "test_acceptance.py")

# nodes that open a scope of their own for the names they bind
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _local_nodes(scope: ast.AST):
    """Nodes of one scope, not descending into nested scopes or classes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _bound_names(scope: ast.AST) -> set[str]:
    """Parameters of a function or lambda, and the names its own body
    assigns; for a comprehension, its loop targets.  Imports are left
    out, since an imported name is the module's definition."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    args = scope.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg] if a is not None}
    if isinstance(scope, ast.Lambda):
        return names
    for node in _local_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _reads(node: ast.AST, shadowed: frozenset = frozenset()):
    """Names and attributes read anywhere under node, leaving out bare
    names that an enclosing function binds itself."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _bound_names(node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in shadowed:
                yield child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr
        yield from _reads(child, shadowed)


def _defined_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _uses(paths):
    """(file, top-level definition name or None, name read) over the files."""
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            owner = _defined_name(node)
            for name in _reads(node):
                yield path, owner, name


def _unread(module: pathlib.Path, readers) -> list[str]:
    names = set(_public_names(ast.parse(module.read_text())))
    used = {name for path, owner, name in _uses(readers)
            if name in names and not (path == module and owner == name)}
    return sorted(names - used)


MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if _public_names(ast.parse(p.read_text())))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(module):
    assert _unread(module, READERS) == []


def test_a_parameter_is_no_reader(tmp_path):
    """A parameter or local that shares a public name's spelling does not
    read it, at any depth of nesting; a module-level read does."""
    module = tmp_path / "mod.py"
    module.write_text('__all__ = ["refine", "scale", "probe", "rows", "kept"]\n'
                      "def refine(): pass\ndef scale(): pass\ndef probe(): pass\n"
                      "def rows(): pass\ndef kept(): pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("def sup(refine=True):\n"
                      "    scale = 2\n"
                      "    f = lambda probe: probe + refine + scale\n"
                      "    def inner():\n"
                      "        return refine\n"
                      "    return [rows for rows in range(3)], f, inner\n"
                      "def user():\n"
                      "    from mod import kept\n"
                      "    return kept()\n")
    assert _unread(module, [module, reader]) == ["probe", "refine", "rows", "scale"]


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
