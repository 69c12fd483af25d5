"""The benchmark's trace wrappers resolve against the package and come off cleanly.

``perfbench/tracing.py`` wraps cfdens bindings by name (``WRAPS``); a change
that drops or renames one breaks the traced benchmark, so it is checked here.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
