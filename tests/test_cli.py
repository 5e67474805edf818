import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiffusion import cli
from qdiffusion.channel import resolve_squeezed_sign
from qdiffusion.cli import main, parse_config, run_scenario
from qdiffusion.errors import SchemaError, UnsupportedRouteForInput
from qdiffusion.fock import density_from_vector, state_vector
from qdiffusion.oracle import integrate_master_equation


def _write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


MINIMAL = {
    "input": {"kind": "number", "l": 1},
    "tau_values": [0.5],
    "routes": ["kraus", "closed_form"],
}


def test_parse_minimal_config_resolves_auto_dim():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.cutoff_dim >= 24
    assert cfg.kraus_max_index is None  # per-tau default rule
    assert cfg.routes == ("kraus", "closed_form")


def test_parse_rejects_unknown_keys_with_path():
    bad = dict(MINIMAL, extra_knob=1)
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert "extra_knob" in str(err.value)
    bad = dict(MINIMAL, input={"kind": "number", "l": 1, "z": 0})
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert "input.z" in str(err.value)


def test_parse_rejects_unsorted_taus():
    bad = dict(MINIMAL, tau_values=[0.5, 0.1])
    with pytest.raises(SchemaError):
        parse_config(json.dumps(bad))


def test_parse_rejects_unsupported_route_for_input():
    bad = dict(MINIMAL, routes=["p_integral"])
    with pytest.raises(UnsupportedRouteForInput):
        parse_config(json.dumps(bad))
    # the squeezed closed form refuses |squeeze| > 2; other routes take it
    bad = dict(MINIMAL, input={"kind": "squeezed_vacuum", "squeeze": 2.02}, cutoff_dim=300)
    with pytest.raises(UnsupportedRouteForInput):
        parse_config(json.dumps(bad))
    parse_config(json.dumps(dict(bad, routes=["husimi_integral"])))


def test_parse_rejects_pfun_grid_for_number_input():
    bad = dict(MINIMAL, outputs=["report", "pfun_grid"])
    with pytest.raises(SchemaError):
        parse_config(json.dumps(bad))


def test_parse_misc_schema_errors():
    for mutation in (
        {"tau_values": []},
        {"tau_values": [-0.5]},
        {"routes": []},
        {"routes": ["kraus", "kraus"]},
        {"routes": ["teleport"]},
        {"cutoff_dim": 1},
        {"kraus_max_index": 0},
        {"seed": "zero"},
        {"grid": {"points_per_axis": 8}},
        {"outputs": ["plots"]},
        {"input": {"kind": "coherent", "z": "one"}},
        {"tau_values": [float("nan")]},
        {"tau_values": [0.5, float("inf")]},
        {"tau_values": [True]},
        {"input": {"kind": "number", "l": True}},
        {"input": {"kind": "coherent", "z": [float("nan"), 0]}},
        {"input": {"kind": "coherent", "z": float("-inf")}},
        {"input": {"kind": "squeezed_vacuum", "squeeze": float("nan")}},
        {"input": {"kind": "squeezed_vacuum", "squeeze": True}},
        {"grid": {"radius": float("inf")}},
        {"grid": {"radius": True}},
        {"grid": {"points_per_axis": True}},
        {"cutoff_dim": True},
        {"kraus_max_index": True},
    ):
        bad = dict(MINIMAL, **mutation)
        with pytest.raises(SchemaError):
            parse_config(json.dumps(bad))
    with pytest.raises(SchemaError):
        parse_config("not json at all {")


def test_run_scenario_number_input(tmp_path):
    cfg = parse_config(json.dumps(dict(
        MINIMAL,
        input={"kind": "number", "l": 2},
        routes=["kraus", "closed_form", "husimi_integral", "ode_oracle"],
        cutoff_dim=64,
        outputs=["report", "photon_trajectory"],
        output_dir=str(tmp_path / "out"),
    )))
    report = run_scenario(cfg)
    assert report.checks["all_passed"], report.checks["failures"]
    for entry in report.results:
        assert abs(entry["mean_photon"] - 2.5) < 1e-6
        assert abs(entry["trace"] - 1.0) < 1e-6
    assert all(p["trace_distance"] <= 1e-5 for p in report.pairwise)
    kraus_rows = [e for e in report.results if e["route"] == "kraus"]
    assert "completeness_residual" in kraus_rows[0]

    traj = (tmp_path / "out" / "photon_trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "tau,route,mean_photon"
    assert len(traj) == 1 + len(report.results)
    report_text = (tmp_path / "out" / "report.json").read_text()
    parsed = json.loads(report_text)
    assert parsed["checks"]["all_passed"] is True


def test_run_scenario_coherent_all_routes_and_pfun(tmp_path):
    cfg = parse_config(json.dumps({
        "input": {"kind": "coherent", "z": [1.0, 0.0]},
        "tau_values": [0.25, 0.5, 1.0],
        "routes": ["kraus", "closed_form", "p_integral", "husimi_integral", "ode_oracle"],
        "cutoff_dim": 48,
        "grid": {"radius": 7.0, "points_per_axis": 48},
        "outputs": ["report", "pfun_grid", "photon_trajectory"],
        "output_dir": str(tmp_path / "out"),
    }))
    report = run_scenario(cfg)
    assert report.checks["all_passed"], report.checks["failures"]
    # decoherence: purity strictly decreasing with tau on the closed form
    purities = [
        e["purity"] for e in report.results if e["route"] == "closed_form"
    ]
    assert all(b < a for a, b in zip(purities, purities[1:]))
    for tau in (0.25, 0.5, 1.0):
        pfun = (tmp_path / "out" / f"pfun_{tau:g}.csv").read_text().splitlines()
        assert pfun[0] == "re_alpha,im_alpha,p_value"
        re_a, im_a, val = (float(tok) for tok in pfun[1].split(","))
        expected = math.exp(-abs(1.0 - complex(re_a, im_a)) ** 2 / tau) / tau
        assert val == pytest.approx(expected, rel=1e-15)  # 17 digits round-trip


def test_run_scenario_squeezed_records_sign(tmp_path):
    cfg = parse_config(json.dumps({
        "input": {"kind": "squeezed_vacuum", "squeeze": 0.5},
        "tau_values": [0.5],
        "routes": ["closed_form", "husimi_integral"],
        "cutoff_dim": 64,
        "output_dir": str(tmp_path / "out"),
    }))
    report = run_scenario(cfg)
    assert report.checks["all_passed"], report.checks["failures"]
    closed = [e for e in report.results if e["route"] == "closed_form"][0]
    assert closed["sign_resolution"] == 1
    assert abs(closed["trace"] - 1.0) < 1e-6


@pytest.mark.parametrize("squeeze", [0.5, -0.5, 1.5, -1.5])
def test_sign_resolution_read_from_cell_matches_resolved_sign(tmp_path, squeeze):
    # dim 96: at dim 64 the |squeeze| 1.5 body keeps trace 0.99694 at tau 4,
    # which no sign resolves
    taus = [0.25, 1.0, 4.0]
    cfg = parse_config(json.dumps({
        "input": {"kind": "squeezed_vacuum", "squeeze": squeeze},
        "tau_values": taus,
        "routes": ["closed_form"],
        "cutoff_dim": 96,
        "output_dir": str(tmp_path / "out"),
    }))
    signs = [e["sign_resolution"] for e in run_scenario(cfg).results]
    assert signs == [resolve_squeezed_sign(squeeze, tau, 96) for tau in taus]


def test_report_determinism_excluding_timings(tmp_path):
    base = dict(
        MINIMAL,
        cutoff_dim=32,
        outputs=["report"],
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = _write_config(tmp_path, dict(base, output_dir=str(out_a)), "a.json")
    cfg_b = _write_config(tmp_path, dict(base, output_dir=str(out_b)), "b.json")
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    ra = json.loads((out_a / "report.json").read_text())
    rb = json.loads((out_b / "report.json").read_text())
    ra.pop("timings")
    rb.pop("timings")
    ra["config"].pop("output_dir")
    rb["config"].pop("output_dir")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_threads_option_is_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(MINIMAL, output_dir=str(tmp_path)))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def _oracle_states(tmp_path, monkeypatch, doc):
    """run_scenario on doc, with the ode_oracle state of every tau."""
    states = {}
    run_cell = cli._run_cell

    def recording(cfg, rho0, route, tau, oracle_start):
        state, extra = run_cell(cfg, rho0, route, tau, oracle_start)
        if route == "ode_oracle":
            states[tau] = state.entries
        return state, extra

    monkeypatch.setattr(cli, "_run_cell", recording)
    cfg = parse_config(json.dumps(dict(doc, output_dir=str(tmp_path))))
    run_scenario(cfg)
    rho0 = density_from_vector(state_vector(cfg.input, cfg.cutoff_dim))
    return states, rho0


def test_oracle_sweep_continuation_is_bit_identical(tmp_path, monkeypatch):
    # at taus 0.5 and 2 every step is the double 0.002, so continuing from
    # tau 0.5 repeats the direct integration's arithmetic; dim 40 keeps the
    # tau-2 top level below the truncation limit
    doc = {
        "input": {"kind": "coherent", "z": [0.5, 0.3]},
        "tau_values": [0, 0.5, 2],
        "cutoff_dim": 40,
        "routes": ["closed_form", "ode_oracle"],
    }
    states, rho0 = _oracle_states(tmp_path, monkeypatch, doc)
    np.testing.assert_array_equal(states[0], rho0.entries)
    for tau in (0.5, 2):
        direct = integrate_master_equation(rho0, 1.0, tau, 0.002)
        np.testing.assert_array_equal(states[tau], direct.entries)


def test_oracle_sweep_continuation_with_uneven_gaps(tmp_path, monkeypatch):
    doc = {
        "input": {"kind": "coherent", "z": [0.5, 0.3]},
        "tau_values": [0.1, 0.3, 1.0, 1.7],
        "cutoff_dim": 40,
        "routes": ["ode_oracle"],
    }
    spans = []

    def integrate(rho0, kappa, t_final, dt):
        spans.append(t_final)
        return integrate_master_equation(rho0, kappa, t_final, dt)

    monkeypatch.setattr(cli, "integrate_master_equation", integrate)
    states, rho0 = _oracle_states(tmp_path, monkeypatch, doc)
    # one pass to max(tau), not one integration from 0 per tau
    assert sum(spans) == pytest.approx(1.7, abs=1e-12)
    for tau in doc["tau_values"]:
        direct = integrate_master_equation(rho0, 1.0, tau, min(0.002, tau / 4))
        assert np.abs(states[tau] - direct.entries).max() < 1e-12


def test_exit_code_schema_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(MINIMAL, tau_values=[0.5, 0.1]))
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = _write_config(tmp_path, dict(MINIMAL, tau_values=[float("nan")]), "nan.json")
    assert main(["run", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_exit_code_tolerance_failure(tmp_path, capsys):
    # cutoff 14 keeps ~6e-5 of the coherent output above the cutoff: enough
    # to fail the 1e-6 trace tolerance but not the 0.999 truncation floor
    cfg = _write_config(tmp_path, {
        "input": {"kind": "coherent", "z": 1.0},
        "tau_values": [0.5],
        "routes": ["closed_form"],
        "cutoff_dim": 14,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["checks"]["all_passed"]
    capsys.readouterr()


def test_cell_failures_are_listed_before_pair_failures(tmp_path):
    # Kraus order 2 loses trace at both taus, and cutoff 24 loses 5.5e-6 of
    # the closed form at tau 1, so cells and pairs fail at both taus
    cfg = parse_config(json.dumps({
        "input": {"kind": "coherent", "z": 1.0},
        "tau_values": [0.5, 1.0],
        "routes": ["kraus", "closed_form"],
        "cutoff_dim": 24,
        "kraus_max_index": 2,
        "output_dir": str(tmp_path / "out"),
    }))
    failures = run_scenario(cfg).checks["failures"]
    heads = [f.split(" deviates")[0].split(" is ")[0] for f in failures]
    assert heads == [
        "trace of kraus at tau=0.5",
        "trace of kraus at tau=1",
        "trace of closed_form at tau=1",
        "trace distance kraus|closed_form at tau=0.5",
        "trace distance kraus|closed_form at tau=1",
    ]


def test_exit_code_truncation_loss(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "input": {"kind": "coherent", "z": 2.0},
        "tau_values": [1.0],
        "routes": ["closed_form"],
        "cutoff_dim": 12,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(cfg)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("squeeze", [1000.0, -1000.0])
def test_squeeze_beyond_cosh_range_exits_truncation_loss(tmp_path, capsys, squeeze):
    cfg = _write_config(tmp_path, {
        "input": {"kind": "squeezed_vacuum", "squeeze": squeeze},
        "tau_values": [0.5],
        "cutoff_dim": 20,
        "routes": ["kraus", "husimi_integral", "ode_oracle"],
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(cfg)]) == 4
    assert "keeps only 0.000000 of its mass" in capsys.readouterr().err


def test_cutoff_beyond_rk4_stability_edge_exits_zero(tmp_path):
    # |z|^2 = 100 resolves to dim 411, where the fixed 0.002 step would leave
    # RK4's stability interval; the oracle step shrinks with the cutoff
    cfg = {
        "input": {"kind": "coherent", "z": 10},
        "tau_values": [0.05],
        "routes": ["closed_form", "ode_oracle"],
        "output_dir": str(tmp_path / "out"),
    }
    assert parse_config(json.dumps(cfg)).cutoff_dim == 411
    assert main(["run", "--config", str(_write_config(tmp_path, cfg))]) == 0


def test_kraus_order_above_factorial_range_exits_zero(tmp_path):
    # 99! 100! no longer fits a float; the loss bands need no factorials
    cfg = {
        "input": {"kind": "coherent", "z": 1.0},
        "tau_values": [1.0],
        "cutoff_dim": 130,
        "kraus_max_index": 120,
        "routes": ["kraus", "closed_form"],
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", "--config", str(_write_config(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"][0]["kraus_max_index"] == 120
    assert report["pairwise"][0]["trace_distance"] < 1e-12


@pytest.mark.parametrize("kmax, dim", [(100, 104), (30, 34)])
def test_auto_cutoff_leaves_room_for_explicit_kraus_order(tmp_path, kmax, dim):
    cfg = {
        "input": {"kind": "coherent", "z": 1},
        "tau_values": [0.5],
        "routes": ["kraus", "closed_form"],
        "cutoff_dim": "auto",
        "kraus_max_index": kmax,
        "output_dir": str(tmp_path / "out"),
    }
    assert parse_config(json.dumps(cfg)).cutoff_dim == dim
    assert main(["run", "--config", str(_write_config(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"][0]["kraus_max_index"] == kmax
    assert report["pairwise"][0]["trace_distance"] < 1e-12


@pytest.mark.parametrize("input_, route, tau, dim, message", [
    ({"kind": "squeezed_vacuum", "squeeze": 1.5}, "closed_form", 4.0, 64,
     "unsigned trace 0.996944 is below 0.999 in magnitude; cutoff too small"),
    ({"kind": "squeezed_vacuum", "squeeze": 1.5}, "husimi_integral", 4.0, 64,
     "unsigned trace 0.996944 is below 0.999 in magnitude; cutoff too small"),
    ({"kind": "number", "l": 5}, "closed_form", 0.5, 8, "need l < dim/2"),
    ({"kind": "number", "l": 1}, "kraus", 0.5, 8, "dim=8 must exceed max_index=18"),
], ids=["squeezed-closed_form", "squeezed-husimi_integral", "number-closed_form", "number-kraus"])
def test_cutoff_too_small_exits_truncation_loss(tmp_path, capsys, input_, route, tau, dim,
                                                message):
    # the squeezed body keeps 0.99694 of its mass at dim 64, so neither sign
    # gives unit trace; the Kraus route takes its "auto" order 18 at tau 0.5
    cfg = _write_config(tmp_path, {
        "input": input_,
        "tau_values": [tau],
        "routes": [route],
        "cutoff_dim": dim,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(cfg)]) == 4
    assert message in capsys.readouterr().err


TINY_TAU_INPUTS = {
    "coherent": {"kind": "coherent", "z": 1},
    "number": {"kind": "number", "l": 3},
    "squeezed": {"kind": "squeezed_vacuum", "squeeze": 0.5},
}


@pytest.mark.parametrize("kind, route, tau, code", [
    ("number", "closed_form", 1e-200, 5),
    ("number", "closed_form", 5e-324, 5),
    ("coherent", "husimi_integral", 1e-200, 5),
    ("coherent", "husimi_integral", 5e-324, 5),
    ("number", "husimi_integral", 1e-200, 5),
    ("squeezed", "husimi_integral", 1e-200, 5),
    ("coherent", "ode_oracle", 5e-324, 0),
    ("number", "ode_oracle", 5e-324, 0),
    ("squeezed", "ode_oracle", 5e-324, 0),
])
def test_tiny_tau_ends_in_documented_exit_code(tmp_path, capsys, kind, route, tau, code):
    # 1/tau overflows or a closed-form coefficient divides by an underflowed
    # power (exit 5); a span whose quarter underflows is integrated in one step.
    # The first invalid value raises, so no RuntimeWarning is emitted on the way.
    cfg = _write_config(tmp_path, {
        "input": TINY_TAU_INPUTS[kind],
        "tau_values": [tau],
        "routes": [route],
        "cutoff_dim": 40,
        "output_dir": str(tmp_path / "out"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(cfg)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("kind, message", [
    ("coherent", "cross-element route output trace is nan"),
    ("number2", "cross-element route output trace is nan"),
    ("squeezed", "cross-element route: unsigned trace nan"),
])
def test_nan_output_names_its_route(tmp_path, capsys, kind, message):
    # at tau = 5e-324, 1/tau overflows and the cross element evaluates inf - inf
    inputs = dict(TINY_TAU_INPUTS, number2={"kind": "number", "l": 2})
    cfg = _write_config(tmp_path, {
        "input": inputs[kind],
        "tau_values": [5e-324],
        "routes": ["husimi_integral"],
        "cutoff_dim": 40,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(cfg)]) == 5
    assert message in capsys.readouterr().err


def test_memory_error_exits_five(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "run_scenario", out_of_memory)
    cfg = _write_config(tmp_path, dict(MINIMAL, cutoff_dim=1000000))
    assert main(["run", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")


@pytest.mark.parametrize("doc", [
    {"input": {"kind": "coherent", "z": [0.46, 2.19]},
     "routes": ["closed_form", "husimi_integral", "p_integral"]},
    {"input": {"kind": "squeezed_vacuum", "squeeze": -1.0},
     "routes": ["closed_form", "husimi_integral"]},
], ids=["coherent", "squeezed"])
def test_report_eigenvalues_match_dense_solve(tmp_path, monkeypatch, doc):
    # the smoke-size analytic sweep: |z| = |2 + i| at a rotated phase, dim 64
    states = {}
    run_cell = cli._run_cell

    def recording(cfg, rho0, route, tau, oracle_start):
        state, extra = run_cell(cfg, rho0, route, tau, oracle_start)
        states[(tau, route)] = state.entries
        return state, extra

    monkeypatch.setattr(cli, "_run_cell", recording)
    doc = dict(doc, tau_values=[0.25, 1.0], cutoff_dim=64, output_dir=str(tmp_path))
    report = run_scenario(parse_config(json.dumps(doc)))

    def dense(m):
        return np.linalg.eigvalsh(0.5 * (m + m.conj().T))

    for entry in report.results:
        expected = dense(states[(entry["tau"], entry["route"])])[0]
        assert abs(entry["min_eigenvalue"] - expected) <= 1e-12
    for pair in report.pairwise:
        delta = states[(pair["tau"], pair["route_a"])] - states[(pair["tau"], pair["route_b"])]
        expected = 0.5 * np.abs(dense(delta)).sum()
        assert abs(pair["trace_distance"] - expected) <= 1e-12


def test_output_dir_override(tmp_path):
    cfg = _write_config(tmp_path, dict(MINIMAL, cutoff_dim=32, output_dir=str(tmp_path / "ignored")))
    override = tmp_path / "override"
    assert main(["run", "--config", str(cfg), "--output-dir", str(override)]) == 0
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_report_floats_survive_roundtrip(tmp_path):
    cfg = _write_config(tmp_path, dict(MINIMAL, cutoff_dim=32, output_dir=str(tmp_path / "out")))
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["results"][0]
    # 17 significant digits reproduce the binary double exactly
    assert entry["trace"] == float(format(entry["trace"], ".17g"))
    assert np.isfinite(entry["min_eigenvalue"])


_COHERENT = {
    "input": {"kind": "coherent", "z": [1.0, 0.5]},
    "tau_values": [0.5, 1.0],
    "routes": ["kraus", "closed_form", "p_integral"],
    "grid": {"radius": 7.0, "points_per_axis": 32},
    "kraus_max_index": 8,
}
_SQUEEZED = dict(MINIMAL, input={"kind": "squeezed_vacuum", "squeeze": 1.0})

#: (base config, key path) of every numeric field in the schema
NUMERIC_FIELDS = [
    (_COHERENT, ("input", "z")),
    (_COHERENT, ("input", "z", 0)),
    (_COHERENT, ("input", "z", 1)),
    (_COHERENT, ("tau_values", 0)),
    (_COHERENT, ("tau_values", 1)),
    (_COHERENT, ("grid", "radius")),
    (_COHERENT, ("grid", "points_per_axis")),
    (_COHERENT, ("cutoff_dim",)),
    (_COHERENT, ("kraus_max_index",)),
    (MINIMAL, ("input", "l")),
    (_SQUEEZED, ("input", "squeeze")),
]

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(NUMERIC_FIELDS), value=JSON_SCALARS)
def test_numeric_fields_fail_only_with_schema_errors(field, value):
    base, path = field
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_config(json.dumps(doc))
    except (SchemaError, UnsupportedRouteForInput):
        pass


_NAMED = dict(_COHERENT, outputs=["report", "photon_trajectory"])

#: key path in _NAMED of every field that takes a name or "auto"
NAME_FIELDS = [
    ("input", "kind"),
    ("routes", 0),
    ("routes", 2),
    ("outputs", 1),
    ("grid", "rule"),
    ("cutoff_dim",),
    ("kraus_max_index",),
]

#: the schema's own names, so that valid values are drawn too
SCHEMA_NAMES = st.sampled_from([
    "coherent", "number", "squeezed_vacuum", *cli.ROUTES, *cli.OUTPUTS,
    "midpoint", "gauss_legendre_tensor", "auto",
])

JSON_VALUES = st.recursive(
    JSON_SCALARS | SCHEMA_NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | SCHEMA_NAMES, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(NAME_FIELDS), value=JSON_VALUES)
def test_name_fields_fail_only_with_schema_errors(path, value):
    # a JSON list or object looked up in a dict would raise TypeError
    doc = copy.deepcopy(_NAMED)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_config(json.dumps(doc))
    except (SchemaError, UnsupportedRouteForInput):
        pass
