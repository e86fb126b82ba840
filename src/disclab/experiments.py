"""Experiment catalog E1-E9: configuration, execution, reports.

Each experiment measures a set of named values, compares them against
expected values carrying a provenance tag, and records per-criterion
pass/fail.  Reports serialize to byte-stable JSON and CSV.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import alexander as alx
from . import calabi as cb
from . import graphical as gr
from . import phase as ph
from .chart import jmap
from .fields import loop_bump, moving_bump, radial_bump, twist_bump
# hamiltonian_path is not called here, but bench/test_oracles.py checks that
# the benchmark's tracer finds and rebinds it in this module
from .flows import flow_map, hamiltonian_path
from .grids import SPHERE_VOLUME as VOL, square_grid

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 10))

# name -> constructor from a config; the order is the order of the CLI choices
FAMILIES = {
    "radial_bump": lambda cfg: radial_bump(amp=cfg.amp, rho=cfg.rho, m=cfg.m),
    "reparam_loop": lambda cfg: loop_bump(amp=cfg.amp, rho=cfg.rho, m=cfg.m),
    "moving_bump": lambda cfg: moving_bump(amp=cfg.amp, rho=0.25, m=cfg.m,
                                           sweep=cfg.sweep),
    "twist": lambda cfg: twist_bump(angle=cfg.angle, rho=cfg.rho, m=cfg.m),
}

@dataclass
class ExperimentConfig:
    experiment_id: str = "E1"
    grid_n: int = 256
    dt: float = 1e-3
    h_a: float = 0.125
    family: str = "radial_bump"
    amp: float = 0.05
    rho: float = 0.8
    m: int = 4
    angle: float = 0.8
    sweep: float = 0.3
    seed: int = 2024
    output_path: str = ""
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment id {self.experiment_id!r}; "
                f"choose one of {', '.join(EXPERIMENT_IDS)}"
            )
        n = self.grid_n
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_n must be a power of two >= 64, got {n}")
        for key, kind in _CONFIG_FIELDS.items():
            if kind is float and not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not 0.0 < self.dt <= 1e-2:
            raise ValueError(f"dt must lie in (0, 1e-2], got {self.dt}")
        # E8 differentiates at the scales 0.5 +- h_a, which must lie in (0, 1)
        if not 0.0 < self.h_a < 0.5:
            raise ValueError(f"h_a must lie in (0, 0.5), got {self.h_a}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2 for a continuous vector field, got {self.m}")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose one of "
                f"{', '.join(FAMILIES)}"
            )
        for key, val in self.tolerances.items():
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"tol_{key} must be positive and finite, got {val}")

    @property
    def nodes(self):
        """Node count: grid_n cells per side, so the origin is a node."""
        return self.grid_n + 1

    def grid(self, extent=1.05):
        return square_grid(self.nodes, extent=extent)

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))


# the scalar config keys and their types; tolerances come as tol_<name> keys
_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "tolerances"}


def parse_config(path, **overrides):
    """Plain key = value lines (UTF-8); unknown keys are errors."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, val = stripped.partition("=")
            key = key.strip()
            val = val.strip()
            if key in _CONFIG_FIELDS:
                raw[key] = _CONFIG_FIELDS[key](val)
            elif key.startswith("tol_"):
                raw.setdefault("tolerances", {})[key[4:]] = float(val)
            else:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**raw)


def make_family(name, cfg):
    """Instantiate one of the built-in Hamiltonian families from a config."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name](cfg)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    experiment_id: str
    config: dict
    measured: dict
    expected: dict          # name -> {"value": float, "provenance": tag}
    passed: dict            # criterion name -> bool
    errors: dict            # criterion name -> message
    runtime: float

    @property
    def overall_pass(self):
        return bool(self.passed) and all(self.passed.values()) and not self.errors


def _fmt(x):
    if isinstance(x, float):
        return "%.12e" % x
    return x


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return _fmt(obj)


def report_to_json(report):
    payload = {
        "experiment_id": report.experiment_id,
        "config": _canonical(report.config),
        "measured": _canonical(report.measured),
        "expected": _canonical(report.expected),
        "passed": {k: bool(v) for k, v in sorted(report.passed.items())},
        "errors": {k: str(v) for k, v in sorted(report.errors.items())},
        # runtime is reported on stdout only: emitted files must be
        # byte-identical across runs of the same config and seed
        "overall_pass": report.overall_pass,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "name", "value", "provenance", "passed"])
    for name in sorted(report.measured):
        writer.writerow(["measured", name, _fmt(report.measured[name]), "", ""])
    for name in sorted(report.expected):
        entry = report.expected[name]
        writer.writerow(
            ["expected", name, _fmt(entry["value"]), entry["provenance"], ""]
        )
    for name in sorted(report.passed):
        writer.writerow(["criterion", name, "", "", str(report.passed[name])])
    for name in sorted(report.errors):
        writer.writerow(["error", name, report.errors[name], "", "False"])
    return buf.getvalue()


def emit_report(report, fmt, path):
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# experiment bodies


def run_experiment(cfg):
    runner = _RUNNERS[cfg.experiment_id]
    measured, expected, passed, errors = {}, {}, {}, {}
    start = time.perf_counter()
    try:
        runner(cfg, measured, expected, passed)
    except Exception as exc:  # record, never crash the report
        errors["completed"] = f"{type(exc).__name__}: {exc}"
        passed["completed"] = False
    runtime = time.perf_counter() - start
    return ExperimentReport(
        cfg.experiment_id, _config_echo(cfg), measured, expected, passed,
        errors, runtime,
    )


def _config_echo(cfg):
    echo = asdict(cfg)
    echo["tolerances"] = dict(cfg.tolerances)
    return echo


def _closed_form_cal(F):
    """Time-1 Calabi of a separable bump: amp * pi * rho^2 / (m + 1) * int tau."""
    base = F.amp * math.pi * F.rho**2 / (F.m + 1)
    if F.tau is None:
        return base
    ts = np.linspace(0.0, 1.0, 2001)
    return base * float(np.trapezoid([F.tau(t) for t in ts], ts))


def _e1(cfg, measured, expected, passed):
    """Calabi by primitive vs Calabi by double quadrature, three families."""
    tol = cfg.tol("agreement", 5e-3)
    grid = cfg.grid()
    for name in ("radial_bump", "reparam_loop", "moving_bump"):
        F = make_family(name, cfg)
        cal_p = cb.cal_path(F, grid)
        phi = flow_map(F, 1.0, grid=grid, dt=cfg.dt)
        rep = cb.primitive_and_cal_def1(phi, cal_path_value=cal_p)
        measured[f"{name}_cal_def1"] = rep.cal_def1
        measured[f"{name}_cal_path"] = cal_p
        measured[f"{name}_agreement_error"] = rep.agreement_error
        measured[f"{name}_primitive_residual"] = rep.primitive_residual
        if name == "reparam_loop":
            expected[f"{name}_cal_path"] = {
                "value": 0.0, "provenance": "[TRIVIAL]",
            }
        else:
            expected[f"{name}_cal_path"] = {
                "value": _closed_form_cal(F), "provenance": "[DERIVED]",
            }
        expected[f"{name}_agreement_error"] = {
            "value": 0.0, "provenance": "[PAPER]",
        }
        passed[f"{name}_agreement"] = rep.agreement_error <= tol * (1 + abs(cal_p))
        passed[f"{name}_oracle"] = (
            abs(cal_p - expected[f"{name}_cal_path"]["value"])
            <= tol * (1 + abs(cal_p))
        )


def _e2(cfg, measured, expected, passed):
    """Calabi scales like the fourth power of the rescaling parameter."""
    tol = cfg.tol("ratio_rel", 1e-6)
    H = make_family(cfg.family, cfg)
    base_grid = cfg.grid()
    base = cb.cal_path(H, base_grid)
    measured["cal_base"] = base
    for a in (0.5, 0.25, 0.75):
        K = alx.rescale(H, a)
        grid_a = square_grid(cfg.nodes, extent=1.05 * a)
        cal_a = cb.cal_path(K, grid_a, 129)
        ratio = cal_a / base
        measured[f"ratio_a_{a}"] = ratio
        expected[f"ratio_a_{a}"] = {"value": a**4, "provenance": "[PAPER]"}
        passed[f"ratio_a_{a}"] = abs(ratio - a**4) <= tol * a**4


def _e3(cfg, measured, expected, passed):
    """Shrinking supports: constant Calabi, vanishing C0 size, Hofer blow-up."""
    tol_cal = cfg.tol("cal_rel", 1e-6)
    tol_ratio = cfg.tol("hofer_ratio", 1e-6)
    H = make_family(cfg.family, cfg)
    scales = [2.0 ** -i for i in range(1, 6)]
    diags = alx.shrinking_calabi_sequence(H, scales, node_count=cfg.nodes)
    base_cal = cb.cal_path(H)
    cal_ok, c0_ok = True, True
    for d in diags:
        measured[f"cal_a_{d.scale}"] = d.cal
        measured[f"c0_a_{d.scale}"] = d.c0_dist
        measured[f"hofer_a_{d.scale}"] = d.hofer_len
        cal_ok &= abs(d.cal - base_cal) <= tol_cal * abs(base_cal)
        c0_ok &= d.c0_dist <= 2.0 * d.scale
    ratios = [
        diags[i].hofer_len / diags[i - 1].hofer_len for i in range(1, len(diags))
    ]
    for i, r in enumerate(ratios):
        measured[f"hofer_ratio_{i}"] = r
    expected["cal_constant"] = {"value": base_cal, "provenance": "[PAPER]"}
    expected["hofer_ratio"] = {"value": 4.0, "provenance": "[DERIVED]"}
    passed["cal_constant"] = cal_ok
    passed["c0_bound"] = c0_ok
    passed["hofer_ratio"] = all(abs(r - 4.0) <= tol_ratio * 4.0 for r in ratios)
    if cfg.output_path:
        alx.sequence_to_csv(diags, cfg.output_path)


def _e4(cfg, measured, expected, passed):
    """Identity-region value of the phase function is the closed-form Cal / vol(sphere)."""
    tol = cfg.tol("identity_value", 2e-3)
    tol_graph = cfg.tol("graph_consistency", 2e-3)
    grid = cfg.grid()
    for name in ("radial_bump", "moving_bump", "twist"):
        F = make_family(name, cfg)
        # one forward run gives the graph's action and its time-1 map
        gs = ph.basic_generating(F, grid=grid, dt=cfg.dt)
        value = gs.value
        f = ph.phase_function_of_map(gs.phi, value)
        want = _closed_form_cal(F) / VOL
        measured[f"{name}_identity_value"] = value
        expected[f"{name}_identity_value"] = {
            "value": want, "provenance": "[DERIVED]",
        }
        passed[f"{name}_identity_value"] = abs(value - want) <= tol
        gap = float(np.max(np.abs(f(gs.q) - gs.h)))
        measured[f"{name}_graph_consistency"] = gap
        expected[f"{name}_graph_consistency"] = {
            "value": 0.0, "provenance": "[DERIVED]",
        }
        passed[f"{name}_graph_consistency"] = gap <= tol_graph


def _e5(cfg, measured, expected, passed):
    """Time-1 phase functions of loops are constant, equal to Cal / vol = 0."""
    tol_spread = cfg.tol("spread", 5e-3)
    tol_value = cfg.tol("value", 5e-3)
    grid = cfg.grid()
    for label, factor in (("loop", 1.0), ("loop_strong", 2.0)):
        L = loop_bump(amp=cfg.amp * factor, rho=cfg.rho, m=cfg.m)
        f, value = ph.phase_function_graphical(L, grid=grid, dt=cfg.dt)
        spread = float(np.ptp(f.values))
        measured[f"{label}_spread"] = spread
        measured[f"{label}_value"] = value
        expected[f"{label}_value"] = {"value": 0.0, "provenance": "[PAPER]"}
        passed[f"{label}_spread"] = spread <= tol_spread
        passed[f"{label}_value"] = abs(value) <= tol_value


def _e6(cfg, measured, expected, passed):
    """Star-shape determinant positivity over random symmetric matrices."""
    tol = cfg.tol("expansion", 1e-14)
    rng = np.random.default_rng(cfg.seed)
    n_samples = 10_000
    samples = np.empty((0, 3))
    while samples.shape[0] < n_samples:
        batch = rng.normal(size=(2 * n_samples, 3))
        keep = 1.0 + (batch[:, 0] * batch[:, 1] - batch[:, 2] ** 2) > 0.0
        samples = np.vstack([samples, batch[keep]])
    samples = samples[:n_samples]
    r = np.linspace(0.0, 1.0, 101)
    a, b, c = samples.T[:, :, None]
    closed, direct = gr.starshape_expansions(gr.SymmetricMatrix2(a, b, c), r[None, :])
    failures = int(np.sum(np.min(direct, axis=1) <= 0.0))
    mismatch = float(np.max(np.abs(direct - closed)))
    measured["failures"] = float(failures)
    measured["samples"] = float(n_samples)
    measured["expansion_mismatch"] = mismatch
    expected["failures"] = {"value": 0.0, "provenance": "[DERIVED]"}
    expected["expansion_mismatch"] = {"value": 0.0, "provenance": "[PAPER]"}
    passed["positivity"] = failures == 0
    passed["expansion"] = mismatch <= tol


def _e7(cfg, measured, expected, passed):
    """Calabi and generating functions agree between the s-path and the t-path."""
    tol_cal = cfg.tol("cal", 1e-3)
    tol_sup = cfg.tol("sup", 5e-3)
    H = make_family(cfg.family, cfg)
    fam = alx.linear_family(H)
    sham = alx.s_hamiltonian(
        fam, s_samples=np.linspace(0.0625, 1.0, 16), nt=17,
        grid=square_grid(129), dt=max(cfg.dt, 2e-3),
    )
    cal_k, cal_h = alx.calabi_match(sham, fam)
    measured["cal_k1"] = cal_k
    measured["cal_h1"] = cal_h
    expected["cal_k1"] = {"value": cal_h, "provenance": "[PAPER]"}
    passed["calabi_match"] = abs(cal_k - cal_h) <= tol_cal
    # generating function of the s-path vs the t-path
    grid = cfg.grid()
    f_h, _ = ph.phase_function_graphical(H, grid=grid, dt=cfg.dt)
    phi_k = flow_map(sham.time_one_field(), 1.0, grid=grid, dt=max(cfg.dt, 2e-3))
    f_k = ph.phase_function_of_map(phi_k, cal_k / VOL)
    gap = float(np.max(np.abs(f_k.values - f_h.values)))
    measured["generating_sup_diff"] = gap
    expected["generating_sup_diff"] = {"value": 0.0, "provenance": "[PAPER]"}
    passed["generating_match"] = gap <= tol_sup


def _e8(cfg, measured, expected, passed):
    """Hamilton-Jacobi residual convergence plus the rescaled-potential laws."""
    ratio_min = cfg.tol("hj_ratio_min", 1.7)
    tol_scaling = cfg.tol("scaling", 5e-5)
    H = make_family(cfg.family, cfg)
    fam = alx.alexander_family(H)

    def hj_level(n_nodes, n_samples, dt):
        grid = square_grid(n_nodes)
        a_samples = np.linspace(0.5, 1.0, n_samples)
        sham = alx.s_hamiltonian(fam, s_samples=a_samples, nt=17, grid=grid, dt=dt)
        pfam = ph.phase_family(a_samples, [fam.at(a) for a in a_samples], grid, dt)
        # the normalized K(a, 1, .) on the sphere, at the chart point of (q, p)
        nk = cb.normalize_on_sphere(sham.time_one_field(), grid)
        return ph.hj_residual(pfam, lambda a, q, p: nk(a, q + 0.5 * jmap(p)))

    coarse = hj_level(cfg.nodes // 2 + 1, 5, max(cfg.dt, 2e-3))
    fine = hj_level(cfg.nodes, 9, cfg.dt)
    measured["hj_residual_coarse"] = coarse
    measured["hj_residual_fine"] = fine
    measured["hj_ratio"] = coarse / fine
    expected["hj_ratio"] = {"value": 2.0, "provenance": "[PAPER]"}
    passed["hj_convergence"] = coarse / fine >= ratio_min

    phi = flow_map(H, 1.0, grid=cfg.grid(), dt=cfg.dt)
    h_a = cfg.h_a
    shrink_scales = [0.75, 0.5, 0.25, 0.125, 0.0625]
    fd_scales = [0.5 - h_a, 0.5, 0.5 + h_a, 0.5 - h_a / 2, 0.5 + h_a / 2]
    # one recovery per map: both scale sets hold a = 0.5, and a = 1 is the base
    potentials = gr.trace_chain_potentials(phi, shrink_scales + fd_scales)
    defect = gr.scaling_defect(potentials, shrink_scales)
    measured["scaling_defect"] = defect
    expected["scaling_defect"] = {"value": 0.0, "provenance": "[PAPER]"}
    passed["potential_scaling"] = defect <= tol_scaling

    rng = np.random.default_rng(cfg.seed)
    probes = rng.uniform(-0.25, 0.25, size=(64, 2))
    d_full = gr.trace_chain_dgada(potentials, 0.5, h_a, probes)
    d_half = gr.trace_chain_dgada(potentials, 0.5, h_a / 2, probes)
    measured["dgada_defect_h"] = d_full
    measured["dgada_defect_h_half"] = d_half
    expected["dgada_defect_h"] = {"value": 0.0, "provenance": "[PAPER]"}
    passed["dgada_first_order"] = d_half <= max(0.75 * d_full, 1e-8)


def _e9(cfg, measured, expected, passed):
    """The phase integral of a graphical loop family vanishes."""
    tol_int = cfg.tol("integral", 1e-2)
    tol_sup = cfg.tol("sup", 1e-2)
    L = loop_bump(amp=cfg.amp, rho=cfg.rho, m=cfg.m)
    grid = cfg.grid()
    scales = [0.25, 0.5, 0.75, 1.0]
    fam = ph.phase_family(scales, [alx.rescale(L, a) for a in scales], grid, cfg.dt)
    integrals = ph.phase_integral(fam)
    for a, ival in zip(scales, integrals):
        measured[f"integral_a_{a}"] = ival
    sup_f = float(np.max(np.abs(fam.fields[-1].values)))
    measured["sup_f_at_1"] = sup_f
    expected["integral_a_1.0"] = {"value": 0.0, "provenance": "[PAPER]"}
    expected["sup_f_at_1"] = {"value": 0.0, "provenance": "[PAPER]"}
    passed["integral_vanishes"] = abs(integrals[-1]) <= tol_int * VOL
    passed["phase_sup"] = sup_f <= tol_sup


_RUNNERS = {
    "E1": _e1, "E2": _e2, "E3": _e3, "E4": _e4, "E5": _e5,
    "E6": _e6, "E7": _e7, "E8": _e8, "E9": _e9,
}
