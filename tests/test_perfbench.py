"""The benchmark's trace wrappers resolve against the package and come off cleanly.

``perfbench/tracing.py`` wraps cfdens bindings by name (``WRAPS``); a change
that drops or renames one breaks the traced benchmark, so it is checked here.
A module may keep a binding it never calls only because ``WRAPS`` wraps it.
Two static checks keep the package free of dead code: every package import
is used or wrapped, and every package function is named somewhere.
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


def test_every_package_function_is_named_somewhere(monkeypatch):
    # a module-level function or method of the package that no Name or
    # attribute in src, tests or perfbench refers to, and that WRAPS does not
    # wrap, has outlived its last caller (dunder methods are called implicitly)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    named = {part for _, attr, _ in importlib.import_module("tracing").WRAPS
             for part in attr.split(".")}
    defined = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")) \
            + sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        if path.parent == PACKAGE:
            for node in tree.body:
                body = node.body if isinstance(node, ast.ClassDef) else [node]
                defined += [(path.stem, f.name) for f in body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (f.name.startswith("__") and f.name.endswith("__"))]
    assert [f"{mod}: {name}" for mod, name in defined if name not in named] == []
