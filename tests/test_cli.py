import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiffusion.cli import main, parse_config, run_scenario
from qdiffusion.errors import SchemaError, UnsupportedRouteForInput


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


def test_threads_match_serial(tmp_path):
    base = dict(MINIMAL, cutoff_dim=32, tau_values=[0.25, 0.5], outputs=["report"])
    out_s = tmp_path / "serial"
    out_t = tmp_path / "threaded"
    cfg_s = _write_config(tmp_path, dict(base, output_dir=str(out_s)), "s.json")
    cfg_t = _write_config(tmp_path, dict(base, output_dir=str(out_t)), "t.json")
    assert main(["run", "--config", str(cfg_s), "--threads", "0"]) == 0
    assert main(["run", "--config", str(cfg_t), "--threads", "2"]) == 0
    rs = json.loads((out_s / "report.json").read_text())
    rt = json.loads((out_t / "report.json").read_text())
    for r in (rs, rt):
        r.pop("timings")
        r["config"].pop("output_dir")
    assert json.dumps(rs, sort_keys=True) == json.dumps(rt, sort_keys=True)


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
