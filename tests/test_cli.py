"""The `disclab` command-line surface."""

import csv
import json

import pytest

from disclab import graphical as gr
from disclab.cli import build_parser, main


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# parser


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_all_subcommands():
    p = build_parser()
    for cmd in ("flow", "calabi", "alexander", "graphical", "phase"):
        assert p.parse_args([cmd]).command == cmd
    args = p.parse_args(["exp", "E3"])
    assert args.command == "exp"
    assert args.experiment_id == "E3"


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["exp", "E42"])


# ---------------------------------------------------------------------------
# error handling


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gird_n = 128\n")
    code = run(["exp", "E6", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_grid_exits_2(capsys):
    code = run(["flow", "--grid", "100"])
    assert code == 2
    assert "power of two" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    code = run(["exp", "E6", "--config", "/nonexistent/cfg"])
    assert code == 2


# ---------------------------------------------------------------------------
# subcommand smoke runs (small grids)


def test_flow_smoke(tmp_path, capsys):
    code = run(["flow", "--grid", "64", "--dt", "5e-3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "displacement norm" in out
    assert (tmp_path / "radial_bump_map_x.csv").exists()


def test_calabi_smoke(tmp_path, capsys):
    code = run(["calabi", "--grid", "128", "--dt", "2e-3", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "radial_bump_calabi.json").read_text())
    assert abs(payload["cal_def1"] - payload["cal_path"]) < 1e-4


def test_alexander_smoke(tmp_path, capsys):
    code = run(["alexander", "--grid", "64", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "radial_bump_sequence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a_i", "cal", "c0_dist", "hofer_len"]
    assert len(rows) == 6                     # header + five scales


def test_graphical_smoke(tmp_path, capsys):
    code = run(["graphical", "--grid", "128", "--dt", "2e-3",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "graphical : True" in out
    assert (tmp_path / "radial_bump_oneform_1.csv").exists()


def test_graphical_nongraphical_exit_1(capsys):
    code = run(["graphical", "--grid", "128", "--dt", "2e-3",
                "--family", "twist"])
    # default twist angle 0.8 is graphical; no nongraphical family is
    # reachable through the config surface, so this should succeed
    assert code == 0


def _count_midpoint_maps(monkeypatch):
    calls = []
    orig = gr.midpoint_map

    def counted(phi):
        calls.append(phi)
        return orig(phi)

    monkeypatch.setattr(gr, "midpoint_map", counted)
    return calls


def test_graphical_scans_the_map_once(capsys, monkeypatch):
    # the verdict, min det and the one-form all come from one scan
    calls = _count_midpoint_maps(monkeypatch)
    assert run(["graphical", "--grid", "64", "--dt", "1e-2"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "graphical : True" in out
    assert "closedness residual" in out


def test_graphical_rejected_scan_exits_1(capsys, monkeypatch):
    # a determinant floor no map reaches makes the one scan fail
    calls = _count_midpoint_maps(monkeypatch)
    monkeypatch.setattr(gr, "MIN_DET", 10.0)
    assert run(["graphical", "--grid", "64", "--dt", "1e-2"]) == 1
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "graphical : False" in out
    assert "closedness residual" not in out


def test_phase_smoke(tmp_path, capsys):
    code = run(["phase", "--grid", "128", "--dt", "2e-3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "identity-region value" in out
    assert (tmp_path / "radial_bump_phase.csv").exists()


# ---------------------------------------------------------------------------
# experiment runs


def test_exp_e6_reports(tmp_path, capsys):
    code = run(["exp", "E6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] E6:positivity" in out
    assert "[PASS] E6:expansion" in out
    payload = json.loads((tmp_path / "E6_report.json").read_text())
    assert payload["overall_pass"] is True
    with open(tmp_path / "E6_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["section", "name", "value", "provenance", "passed"]


def test_exp_reports_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert run(["exp", "E6", "--out", str(d1)]) == 0
    assert run(["exp", "E6", "--out", str(d2)]) == 0
    for name in ("E6_report.json", "E6_report.csv"):
        a = (d1 / name).read_bytes()
        b = (d2 / name).read_bytes()
        assert a == b


def test_exp_failure_exit_code(tmp_path, capsys):
    # an unreachable tolerance forces a failed criterion and exit code 1
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tol_expansion = 1e-30\n")
    code = run(["exp", "E6", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "[FAIL] E6:expansion" in capsys.readouterr().out
