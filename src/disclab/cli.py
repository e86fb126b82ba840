"""Command-line interface of the laboratory.

Subcommands: flow, calabi, alexander, graphical, phase run single module
operations on a built-in family; `exp <ID>` runs a catalog experiment and
emits its JSON and CSV reports.  Exit code 0 iff every criterion passed.
"""

import argparse
import os
import sys

import numpy as np

from . import alexander as alx
from . import calabi as cb
from . import graphical as gr
from . import phase as ph
from .experiments import (EXPERIMENT_IDS, FAMILIES, ExperimentConfig, emit_report,
                          make_family, parse_config, run_experiment)
from .flows import flow_map


def _common_flags(p):
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--out", help="output directory for reports and grids")
    p.add_argument("--seed", type=int, help="RNG seed (64-bit)")
    p.add_argument("--grid", type=int, help="grid cells per side (power of two)")
    p.add_argument("--dt", type=float, help="integrator time step")
    p.add_argument("--family", choices=tuple(FAMILIES))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disclab",
        description="numerical laboratory for Calabi invariants on the disc",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("flow", "integrate the time-1 map of a family and report diagnostics"),
        ("calabi", "compute the Calabi invariant both ways"),
        ("alexander", "run the shrinking-support sequence"),
        ("graphical", "graphicality test and one-form recovery"),
        ("phase", "phase function of the time-1 graph"),
    ):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
    p = sub.add_parser("exp", help="run a catalog experiment E1..E9")
    p.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    _common_flags(p)
    return parser


def _config_from_args(args, experiment_id="E1"):
    overrides = {
        "seed": args.seed,
        "grid_n": args.grid,
        "dt": args.dt,
        "family": args.family,
    }
    if args.config:
        cfg = parse_config(args.config, experiment_id=experiment_id, **overrides)
    else:
        cfg = ExperimentConfig(
            experiment_id=experiment_id,
            **{k: v for k, v in overrides.items() if v is not None},
        )
    return cfg


def _out_dir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_flow(args):
    cfg = _config_from_args(args)
    F = make_family(cfg.family, cfg)
    phi = flow_map(F, 1.0, grid=cfg.grid(), dt=cfg.dt)
    print(f"family            : {cfg.family}")
    print(f"displacement norm : {phi.displacement_norm():.6e}")
    print(f"jacobian defect   : {phi.jacobian_defect():.6e}")
    if args.out:
        prefix = os.path.join(_out_dir(args), f"{cfg.family}_map")
        phi.save(prefix)
        print(f"map saved to      : {prefix}_[xy].csv")
    return 0


def cmd_calabi(args):
    cfg = _config_from_args(args)
    F = make_family(cfg.family, cfg)
    grid = cfg.grid()
    cal = cb.cal_path(F, grid)
    phi = flow_map(F, 1.0, grid=grid, dt=cfg.dt)
    rep = cb.primitive_and_cal_def1(phi, cal_path_value=cal)
    print(rep.to_json())
    if args.out:
        path = os.path.join(_out_dir(args), f"{cfg.family}_calabi.json")
        rep.to_json(path)
        print(f"report saved to: {path}")
    return 0


def cmd_alexander(args):
    cfg = _config_from_args(args)
    F = make_family(cfg.family, cfg)
    diags = alx.shrinking_calabi_sequence(
        F, [2.0 ** -i for i in range(1, 6)], node_count=cfg.nodes
    )
    print(f"{'a':>10} {'cal':>16} {'c0_dist':>12} {'hofer_len':>12}")
    for d in diags:
        print(f"{d.scale:>10.5f} {d.cal:>16.9e} {d.c0_dist:>12.5e} "
              f"{d.hofer_len:>12.5e}")
    if args.out:
        path = os.path.join(_out_dir(args), f"{cfg.family}_sequence.csv")
        alx.sequence_to_csv(diags, path)
        print(f"sequence saved to: {path}")
    return 0


def cmd_graphical(args):
    cfg = _config_from_args(args)
    F = make_family(cfg.family, cfg)
    phi = flow_map(F, 1.0, grid=cfg.grid(), dt=cfg.dt)
    scanned = gr.scan(phi)
    print(f"graphical : {scanned.graphical}")
    print(f"min det   : {scanned.min_det:.6e}")
    if not scanned.graphical:
        return 1
    alpha = gr.recover_one_form(phi, scanned)
    print(f"closedness residual : {alpha.closedness_residual():.6e}")
    if args.out:
        base = os.path.join(_out_dir(args), f"{cfg.family}_oneform")
        alpha.a1.to_csv(base + "_1.csv")
        alpha.a2.to_csv(base + "_2.csv")
        print(f"one-form saved to: {base}_[12].csv")
    return 0


def cmd_phase(args):
    cfg = _config_from_args(args)
    F = make_family(cfg.family, cfg)
    f, value = ph.phase_function_graphical(F, grid=cfg.grid(), dt=cfg.dt)
    spread = float(np.ptp(f.values))
    print(f"identity-region value : {value:.9e}")
    print(f"spread (max - min)    : {spread:.9e}")
    if args.out:
        path = os.path.join(_out_dir(args), f"{cfg.family}_phase.csv")
        f.to_csv(path)
        print(f"phase function saved to: {path}")
    return 0


def cmd_exp(args):
    cfg = _config_from_args(args, experiment_id=args.experiment_id)
    report = run_experiment(cfg)
    out = _out_dir(args)
    json_path = emit_report(
        report, "json", os.path.join(out, f"{cfg.experiment_id}_report.json")
    )
    csv_path = emit_report(
        report, "csv", os.path.join(out, f"{cfg.experiment_id}_report.csv")
    )
    for name in sorted(report.passed):
        status = "PASS" if report.passed[name] else "FAIL"
        print(f"[{status}] {cfg.experiment_id}:{name}")
    for name in sorted(report.errors):
        print(f"[FAIL] {cfg.experiment_id}:{name}: {report.errors[name]}")
    print(f"report: {json_path}  {csv_path}  ({report.runtime:.1f}s)")
    return 0 if report.overall_pass else 1


_COMMANDS = {
    "flow": cmd_flow,
    "calabi": cmd_calabi,
    "alexander": cmd_alexander,
    "graphical": cmd_graphical,
    "phase": cmd_phase,
    "exp": cmd_exp,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
