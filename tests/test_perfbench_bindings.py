"""The benchmark's span wrappers replace module attributes by name, so every
name they wrap must stay bound in the module that owns it, and the CLI must
reach each route through those attributes."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from qdiffusion import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: one small scenario per input kind, together reaching every route
SCENARIOS = [
    {"input": {"kind": "coherent", "z": [0.5, 0.5]}, "routes": list(cli.ROUTES)},
    {"input": {"kind": "number", "l": 1},
     "routes": ["kraus", "closed_form", "husimi_integral", "ode_oracle"]},
    {"input": {"kind": "squeezed_vacuum", "squeeze": 0.3},
     "routes": ["kraus", "closed_form", "husimi_integral", "ode_oracle"]},
]

#: the span of every route call the CLI can make
ROUTE_SPANS = (
    "channel.coherent_output",
    "channel.number_output",
    "channel.squeezed_output",
    "channel.evolve_via_p_integral",
    "channel.evolve_via_husimi_integral",
    "channel.build_kraus_set",
    "channel.kraus_evolve",
    "oracle.integrate_master_equation",
    "fock.state_metrics",
    "fock.trace_distance",
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_name_is_bound_in_its_owner(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.WRAPPED
        if attr not in owner.__dict__
    ]
    assert not missing
    assert spans.WRAPPED


def test_spans_see_every_route_call(spans, tmp_path):
    with spans.instrument(spans.Tracer()) as tracer:
        for doc in SCENARIOS:
            text = json.dumps(dict(doc, tau_values=[0.25], cutoff_dim=24,
                                   output_dir=str(tmp_path / doc["input"]["kind"])))
            cli.run_scenario(cli.parse_config(text))
    traced = tracer.by_name()
    assert [name for name in ROUTE_SPANS if name not in traced] == []
