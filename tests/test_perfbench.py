"""The benchmark's trace wrappers resolve against the package and come off cleanly.

``perfbench/tracing.py`` wraps cfdens bindings by name (``WRAPS``); a change
that drops or renames one breaks the traced benchmark, so it is checked here.
A module may keep a binding it never calls only because ``WRAPS`` wraps it.
Two static checks keep the package free of dead code: every package import
is used or wrapped, and every package function is reachable from the CLI, the
exported names or the wrapped names.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "cfdens"


def binding(mod_name, attr):
    owner = importlib.import_module(f"cfdens.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_every_binding_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [binding(mod, attr) for mod, attr, _ in tracing.WRAPS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(binding(mod, attr) is not orig
                   for (mod, attr, _), orig in zip(tracing.WRAPS, originals))
    finally:
        tracer.uninstall()
    assert all(binding(mod, attr) is orig
               for (mod, attr, _), orig in zip(tracing.WRAPS, originals))


def test_every_package_import_is_used_or_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wrapped = {(mod, attr) for mod, attr, _ in importlib.import_module("tracing").WRAPS}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used and (path.stem, name) not in wrapped:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def _referenced(nodes):
    """Every Name and attribute name under the AST nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_package_function_is_reachable(monkeypatch):
    # An AST call graph of src/cfdens rooted at cli.main, the package's
    # __all__ names and the WRAPS names. A reference resolves by name: a
    # reached Name or attribute reaches every module-level function, method
    # and class of that name, so the graph over-approximates the calls. A
    # reached class reaches its dunder methods and class-body statements,
    # which run implicitly; module-level statements run at import. A
    # function or method left unreached is called, if at all, only from
    # tests or perfbench. Dunder methods are exempt, as is _Parser.error,
    # which argparse calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    roots = {"main"} | {part for _, attr, _ in importlib.import_module("tracing").WRAPS
                        for part in attr.split(".")}
    edges = {}          # name -> names referenced by a definition of that name
    defined = []        # (module, qualified name, name) of every function and method
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                edges.setdefault(node.name, set()).update(_referenced([node]))
                defined.append((path.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                implicit = []
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        implicit.append(item)
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        implicit.append(item)
                    else:
                        edges.setdefault(item.name, set()).update(_referenced([item]))
                        defined.append((path.stem, f"{node.name}.{item.name}", item.name))
                edges.setdefault(node.name, set()).update(
                    _referenced(implicit + node.decorator_list + node.bases))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                roots |= set(ast.literal_eval(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _referenced([node])
    reached, frontier = set(roots), list(roots)
    while frontier:
        for name in edges.get(frontier.pop(), ()):
            if name not in reached:
                reached.add(name)
                frontier.append(name)
    exempt = {("cli", "_Parser.error")}
    assert [f"{mod}: {qual}" for mod, qual, name in defined
            if name not in reached and (mod, qual) not in exempt] == []
