"""No helpers that nothing calls.

Every function, method and class defined under src/graypath must be named
somewhere outside its own body: as an identifier, an attribute or a string
(the benchmark tracer wraps entry points by name), in src/, tests/ or
perfbench/.  Dunder methods and click commands are called by the runtime
and are exempt.  Names are matched without regard to their owner, so this
is a coarse guard: it catches helpers nobody calls, not every unused method.
A second guard fails on locals that are bound and never read, and a third
on module-level imports that the module never reads and does not list in
its __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _names(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command",
                                                                  "group"):
            return True
    return False


def _exempt(node):
    name = node.name
    return (name.startswith("__") and name.endswith("__")) \
        or (not isinstance(node, ast.ClassDef) and _is_click_command(node))


def test_every_definition_is_referenced():
    uses = {}        # name -> [(path, line)]
    defs = []        # (path, node)
    src = ROOT / "src" / "graypath"
    for path, tree in _trees():
        for node in ast.walk(tree):
            name = _names(node)
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
            if isinstance(node, DEFS) and path.is_relative_to(src):
                defs.append((path, node))
    dead = []
    for path, node in defs:
        if _exempt(node):
            continue
        outside = [(p, line) for p, line in uses.get(node.name, ())
                   if p != path or not node.lineno <= line <= node.end_lineno]
        if not outside:
            dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func):
    """The nodes of func's body that no nested function encloses."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCS):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(target):
    """The names a plain or unpacking target binds."""
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)


def test_every_local_is_read():
    """A local bound by `name = expr`, or by a tuple or list target of an
    assignment or a `for` loop, is read in its function (reads in nested
    functions count); `_` is exempt."""
    dead = []
    for path, tree in _trees():
        if not path.is_relative_to(ROOT / "src" / "graypath"):
            continue
        for func in ast.walk(tree):
            if not isinstance(func, FUNCS):
                continue
            read = {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            read |= {n.target.id for n in ast.walk(func)
                     if isinstance(n, ast.AugAssign)
                     and isinstance(n.target, ast.Name)}
            for node in _own_nodes(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif (isinstance(node, (ast.For, ast.AsyncFor))
                      and isinstance(node.target, (ast.Tuple, ast.List))):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for name in _bound_names(target):
                        if name.id != "_" and name.id not in read:
                            dead.append(f"{path.relative_to(ROOT)}:"
                                        f"{name.lineno} {func.name}: "
                                        f"{name.id}")
    assert not dead, "locals that are never read:\n" + "\n".join(sorted(dead))


def _unused_imports(tree):
    """The names a module's top-level imports bind that the module never
    reads and its __all__ does not list; __future__ imports are exempt."""
    bound = {}       # name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= {e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_every_import_is_read():
    unused = []
    for path, tree in _trees():
        if path.is_relative_to(ROOT / "src" / "graypath"):
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for line, name in _unused_imports(tree)]
    assert not unused, "imports that are never read:\n" + "\n".join(unused)


def test_unused_import_guard_has_teeth(tmp_path):
    """A module that imports a name and never reads it is caught; one that
    reads it, or re-exports it through __all__, is not."""
    module = tmp_path / "scratch.py"
    module.write_text("from __future__ import annotations\n"
                      "import json\n"
                      "import os.path\n"
                      "from itertools import chain as _chain, product\n"
                      "__all__ = ['product']\n"
                      "def f():\n"
                      "    return os.path.join('a', 'b')\n",
                      encoding="utf-8")
    tree = ast.parse(module.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [(2, "json"), (4, "_chain")]
