"""Experiment configuration, report serialization, and determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab.experiments import (ExperimentConfig, emit_report, make_family,
                                 parse_config, report_to_csv, report_to_json,
                                 run_experiment)
from disclab.fields import SeparableBump
from disclab.grids import SPHERE_VOLUME


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.experiment_id == "E1"
    assert cfg.grid_n == 256
    assert cfg.nodes == 257
    grid = cfg.grid()
    assert grid.n == 257
    qx, _ = grid.nodes()
    assert np.min(np.abs(qx)) == 0.0          # origin on a node
    assert cfg.tol("anything", 0.5) == 0.5
    assert ExperimentConfig(tolerances={"x": 1e-3}).tol("x", 1.0) == 1e-3


@pytest.mark.parametrize("kw", [
    {"experiment_id": "E10"},
    {"grid_n": 100},          # not a power of two
    {"grid_n": 32},           # too small
    {"dt": 0.0},
    {"dt": 0.5},              # above the cap
    {"h_a": -1.0},
    {"h_a": 0.5},             # E8's scale 0.5 - h_a would be 0
    {"h_a": 0.6},             # and negative
    {"family": "unknown"},
    {"tolerances": {"x": -1.0}},
    {"m": 0},                 # H constant on the support
    {"m": 1},                 # discontinuous vector field
    {"h_a": math.nan},
    {"tolerances": {"x": math.nan}},
    {"tolerances": {"x": math.inf}},
    {"amp": math.nan},
    {"amp": math.inf},
    {"rho": 0.0},             # E5 would divide by zero
    {"rho": 1.0},             # support leaves the unit disc
    {"angle": math.nan},
    {"sweep": -math.inf},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("key, val", [
    ("h_a", math.nan), ("amp", math.inf), ("rho", 0.0), ("angle", math.nan),
    ("sweep", -math.inf), ("dt", math.nan),
])
def test_config_error_names_the_key(key, val):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: val})


def test_parse_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\n"
        "experiment_id = E2\n"
        "grid_n = 128\n"
        "dt = 2e-3\n"
        "amp = 0.04\n"
        "tol_ratio_rel = 1e-5\n"
        "\n"
    )
    cfg = parse_config(path)
    assert cfg.experiment_id == "E2"
    assert cfg.grid_n == 128
    assert cfg.dt == 2e-3
    assert cfg.amp == 0.04
    assert cfg.tolerances == {"ratio_rel": 1e-5}


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("grid_n = 128\n")
    cfg = parse_config(path, experiment_id="E6", grid_n=64, seed=None)
    assert cfg.grid_n == 64
    assert cfg.experiment_id == "E6"
    assert cfg.seed == 2024                    # None override ignored


E6_LINES = (
    "experiment_id = E6",
    "grid_n = 64",
    "dt = 1e-2",
    "seed = 11",
    "amp = 0.04",
    "tol_expansion = 1e-13",
    "tol_spread = 0.5",
)


@pytest.fixture(scope="module")
def e6_file_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    path.write_text("\n".join(E6_LINES) + "\n")
    return report_to_json(run_experiment(parse_config(path)))


@settings(deadline=None, max_examples=8)
@given(lines=st.permutations(E6_LINES))
def test_report_ignores_config_line_order(e6_file_report, tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    path.write_text("\n".join(lines) + "\n")
    assert report_to_json(run_experiment(parse_config(path))) == e6_file_report


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("grid_m = 128\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(path)


def test_parse_config_rejects_bad_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(path)


@pytest.mark.parametrize("name", ["radial_bump", "reparam_loop",
                                  "moving_bump", "twist"])
def test_make_family(name):
    F = make_family(name, ExperimentConfig())
    assert isinstance(F, SeparableBump)
    assert F.support_radius <= 0.8


# ---------------------------------------------------------------------------
# reports


@pytest.fixture(scope="module")
def e6_report():
    return run_experiment(ExperimentConfig(experiment_id="E6"))


def test_e6_passes(e6_report):
    assert e6_report.overall_pass
    assert e6_report.errors == {}
    assert e6_report.measured["failures"] == 0.0
    assert e6_report.measured["samples"] == 10_000.0
    assert e6_report.measured["expansion_mismatch"] <= 1e-14


def test_report_expected_values_carry_provenance(e6_report):
    for entry in e6_report.expected.values():
        assert entry["provenance"] in ("[PAPER]", "[TRIVIAL]", "[DERIVED]")


def test_report_json_round_trip(e6_report):
    payload = json.loads(report_to_json(e6_report))
    assert payload["experiment_id"] == "E6"
    assert payload["overall_pass"] is True
    assert payload["config"]["grid_n"] == 256
    # floats are serialized in fixed scientific notation
    assert payload["measured"]["failures"] == "0.000000000000e+00"


def test_report_csv_structure(e6_report):
    rows = report_to_csv(e6_report).splitlines()
    assert rows[0] == "section,name,value,provenance,passed"
    sections = {r.split(",")[0] for r in rows[1:]}
    assert sections == {"measured", "expected", "criterion"}


def test_report_determinism(e6_report, tmp_path):
    again = run_experiment(ExperimentConfig(experiment_id="E6"))
    assert report_to_json(again) == report_to_json(e6_report)
    assert report_to_csv(again) == report_to_csv(e6_report)
    p1 = emit_report(e6_report, "json", str(tmp_path / "a.json"))
    p2 = emit_report(again, "json", str(tmp_path / "b.json"))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_seed_changes_measurements_not_result():
    other = run_experiment(ExperimentConfig(experiment_id="E6", seed=7))
    assert other.overall_pass


def test_failed_module_error_is_recorded(monkeypatch):
    # force an internal failure in E2's runner
    from disclab import experiments as ex

    monkeypatch.setitem(
        ex._RUNNERS, "E2",
        lambda cfg, m, e, p: (_ for _ in ()).throw(ValueError("boom")),
    )
    rep = run_experiment(ExperimentConfig(experiment_id="E2"))
    assert not rep.overall_pass
    assert "boom" in rep.errors["completed"]


def test_e8_recovers_each_map_once(monkeypatch):
    from disclab import graphical as gr

    built = []
    midpoint = gr.midpoint_map
    monkeypatch.setattr(gr, "midpoint_map",
                        lambda phi: built.append(phi.template.extent[1][0]) or midpoint(phi))
    rep = run_experiment(ExperimentConfig(experiment_id="E8", grid_n=64, dt=1e-2))
    assert rep.overall_pass
    # 5 + 9 phase functions for the HJ levels, then one trace chain: the
    # base map and 9 rescalings, a = 1 and a = 0.5 shared by both families
    assert len(built) == 24
    rescaled = [e for e in built if e < 1.05]
    assert len(rescaled) == len(set(rescaled)) == 9


E4_FAMILIES = ("radial_bump", "moving_bump", "twist")


def test_e4_takes_one_forward_run_per_family(monkeypatch):
    # each family's phase function and action come from one 3-row lift of
    # the config grid's seeds; no two-row flow_map runs beside it
    from disclab import experiments as ex
    from disclab import flows, kernels
    from disclab import phase as ph

    runs = []
    rk4 = kernels.rk4

    def counted(segments, z):
        runs.append(z.shape)
        return rk4(segments, z)

    def no_flow_map(*args, **kwargs):
        raise AssertionError("flow_map called")

    monkeypatch.setattr(kernels, "rk4", counted)
    for mod in (ex, flows, ph):
        monkeypatch.setattr(mod, "flow_map", no_flow_map)
    cfg = ExperimentConfig(experiment_id="E4", grid_n=64, dt=1e-2)
    rep = run_experiment(cfg)
    assert rep.overall_pass and not rep.errors
    seeds = cfg.grid().node_points().reshape(-1, 2)
    assert len(seeds) == cfg.nodes**2
    index = np.arange(len(seeds))
    want = [(3, index[kernels.live_points(seeds, make_family(name, cfg).support_radius)].size)
            for name in E4_FAMILIES]
    assert runs == want


def test_e4_graph_consistency_sees_a_wrong_action_row(monkeypatch):
    # the phase function and the action share one run; an action row that
    # drops the 1/2 x . grad F term leaves phi^1 and the identity value as
    # they were, and must still fail the graph check
    from disclab import phase as ph

    segment = ph._rk4_segment

    def wrong_row(F, t0, t1, dt, value):
        assert value == (1.0, -0.5)
        return segment(F, t0, t1, dt, (1.0, 0.0))

    monkeypatch.setattr(ph, "_rk4_segment", wrong_row)
    cfg = ExperimentConfig(experiment_id="E4", grid_n=64, dt=1e-2)
    rep = run_experiment(cfg)
    assert not rep.errors
    for name in E4_FAMILIES:
        assert rep.passed[f"{name}_identity_value"]
        assert not rep.passed[f"{name}_graph_consistency"]
        assert rep.measured[f"{name}_graph_consistency"] > 2e-3


def test_e4_identity_value_is_the_closed_form():
    # the expected identity value is Cal / vol(sphere) of each autonomous
    # bump in closed form, amp pi rho^2 / (m + 1), not a second run of the
    # quadrature that produced the measured value
    cfg = ExperimentConfig(experiment_id="E4", grid_n=64, dt=1e-2)
    rep = run_experiment(cfg)
    assert rep.overall_pass
    bumps = {
        "radial_bump": (cfg.amp, cfg.rho),
        "moving_bump": (cfg.amp, 0.25),
        "twist": (cfg.angle * cfg.rho**2 / (2.0 * cfg.m), cfg.rho),
    }
    for name, (amp, rho) in bumps.items():
        want = amp * math.pi * rho**2 / (cfg.m + 1) / SPHERE_VOLUME
        entry = rep.expected[f"{name}_identity_value"]
        assert entry["provenance"] == "[DERIVED]"
        assert entry["value"] == pytest.approx(want, rel=1e-12)
        assert abs(rep.measured[f"{name}_identity_value"] - want) < 1e-9
