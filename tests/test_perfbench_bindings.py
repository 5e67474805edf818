"""The benchmark's span wrappers replace module attributes by name, so every
name they wrap must stay bound in the module that owns it."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_is_bound_in_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.WRAPPED
        if attr not in owner.__dict__
    ]
    assert not missing
    assert spans.WRAPPED
