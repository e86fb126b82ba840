"""Acceptance suite: the ten headline criteria, one printed line each.

Each test runs the corresponding catalog experiment at its stated
resolution, prints a single [PASS]/[FAIL] line to the terminal, and
asserts the criterion.
"""

import math

import numpy as np

from disclab.experiments import ExperimentConfig, run_experiment
from disclab.fields import radial_bump, twist_bump
from disclab.flows import flow_map, integrate_points
from disclab.grids import integrate_disc, sample, square_grid


_CACHE = {}


def report_for(experiment_id, **kw):
    key = (experiment_id, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = run_experiment(
            ExperimentConfig(experiment_id=experiment_id, **kw)
        )
    return _CACHE[key]


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{status}] criterion {num:2d} — {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def experiment_ok(report, budget):
    return report.overall_pass and report.runtime < budget


def test_criterion_01_stokes_agreement(capsys):
    rep = report_for("E1", grid_n=512)
    ok = experiment_ok(rep, 180.0)   # < 60 s for each of the 3 families
    worst = max(v for k, v in rep.measured.items() if k.endswith("agreement_error"))
    announce(capsys, 1, "E1 Calabi via primitive vs via double quadrature", ok,
             f"worst agreement error {worst:.2e}, runtime {rep.runtime:.1f}s")


def test_criterion_02_fourth_power_law(capsys):
    rep = report_for("E2")
    ok = experiment_ok(rep, 30.0)
    err = max(abs(rep.measured[f"ratio_a_{a}"] / a**4 - 1.0)
              for a in (0.5, 0.25, 0.75))
    announce(capsys, 2, "E2 rescaling fourth-power law", ok,
             f"worst relative error {err:.2e}, runtime {rep.runtime:.1f}s")


def test_criterion_03_discontinuity_sequence(capsys):
    rep = report_for("E3")
    ok = experiment_ok(rep, 120.0)
    announce(capsys, 3, "E3 constant Calabi, shrinking C0, Hofer ratio 4", ok,
             f"runtime {rep.runtime:.1f}s")


def test_criterion_04_identity_region_value(capsys):
    rep = report_for("E4")
    ok = experiment_ok(rep, 120.0)
    announce(capsys, 4, "E4 identity-region value = Cal / vol(sphere)", ok,
             f"runtime {rep.runtime:.1f}s")


def test_criterion_05_loop_constancy(capsys):
    rep = report_for("E5")
    ok = experiment_ok(rep, 180.0)
    spread = max(rep.measured["loop_spread"], rep.measured["loop_strong_spread"])
    announce(capsys, 5, "E5 loop phase functions are constant", ok,
             f"worst spread {spread:.2e}, runtime {rep.runtime:.1f}s")


def test_criterion_06_starshape(capsys):
    rep = report_for("E6")
    ok = experiment_ok(rep, 5.0)
    announce(capsys, 6, "E6 star-shape determinant positivity", ok,
             f"{int(rep.measured['samples'])} samples, "
             f"{int(rep.measured['failures'])} failures, "
             f"runtime {rep.runtime:.1f}s")


def test_criterion_07_homotopy_invariance(capsys):
    rep = report_for("E7")
    ok = experiment_ok(rep, 300.0)
    gap = abs(rep.measured["cal_k1"] - rep.measured["cal_h1"])
    announce(capsys, 7, "E7 s-path and t-path agree (Calabi and generating)", ok,
             f"Calabi gap {gap:.2e}, sup gap "
             f"{rep.measured['generating_sup_diff']:.2e}, "
             f"runtime {rep.runtime:.1f}s")


def test_criterion_08_hamilton_jacobi(capsys):
    rep = report_for("E8")
    ok = experiment_ok(rep, 300.0)
    announce(capsys, 8, "E8 HJ residual convergence and potential scaling", ok,
             f"residual ratio {rep.measured['hj_ratio']:.2f}, "
             f"scaling defect {rep.measured['scaling_defect']:.2e}, "
             f"runtime {rep.runtime:.1f}s")


def test_criterion_09_graphical_loop_vanishing(capsys):
    rep = report_for("E9")
    ok = experiment_ok(rep, 300.0)
    announce(capsys, 9, "E9 phase integral of graphical loops vanishes", ok,
             f"|I(1)| = {abs(rep.measured['integral_a_1.0']):.2e}, "
             f"sup |f| = {rep.measured['sup_f_at_1']:.2e}, "
             f"runtime {rep.runtime:.1f}s")


def test_criterion_10_integrator_baselines(capsys):
    # symplecticity of the reference flow
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    phi = flow_map(H, 1.0, grid=square_grid(513), dt=1e-3)
    sympl = phi.jacobian_defect()

    # disc quadrature of (1 - r^2)^2 against pi/3
    g = square_grid(513)
    f = sample(g, lambda pts: (1.0 - pts[..., 0] ** 2 - pts[..., 1] ** 2) ** 2)
    quad_err = abs(integrate_disc(f) - math.pi / 3.0)

    # RK4 order on the exact-rotation test
    T = twist_bump(angle=2.0, rho=0.8, m=4)
    pts = np.array([[0.25, 0.0], [0.45, 0.1], [0.0, 0.55]])
    exact = T.exact_flow(0.0, 1.0, pts)
    errs = [
        np.max(np.abs(integrate_points(T, 0.0, 1.0, pts, dt=dt) - exact))
        for dt in (0.05, 0.025)
    ]
    order_ratio = errs[0] / errs[1]

    ok = sympl < 1e-5 and quad_err < 1e-4 and order_ratio >= 14.0
    announce(capsys, 10, "integrator and quadrature baselines", ok,
             f"symplecticity {sympl:.2e}, quadrature error {quad_err:.2e}, "
             f"order ratio {order_ratio:.1f}")
