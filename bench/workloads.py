"""The benchmark's four workloads: inputs from a seed, one pass, checks.

A pass runs a fixed list of operations.  An operation is one verified
result (one catalog report, one s-Hamiltonian with its Calabi match, one
flowed point cloud).  Each operation's outputs are checked against the
closed forms in ``oracles`` or against properties the method must have,
and summarised as a digest string that must be byte-identical in every
pass of a run.

Seeds vary amplitudes, parameters and point clouds inside narrow ranges
that keep the amount of work per pass fixed, so the wall time does not
depend on the seed.
"""

import json
import traceback

import numpy as np

import oracles
# Traced functions are called through their modules, so the tracer's
# wrappers (installed into disclab's modules) see these calls too.
from disclab import alexander as alx
from disclab import calabi as cb
from disclab import experiments as ex
from disclab import flows
from disclab.experiments import ExperimentConfig, report_to_json
from disclab.fields import radial_bump
from disclab.flows import PlaneMap
from disclab.grids import square_grid

RHO, M = 0.8, 4

# Check tolerances, fixed from the errors measured on the numpy lane
# (bench/README.md lists them), with one to two orders of magnitude to spare.
TOL_CAL_MATCH = 1e-8        # |Cal(K(., 1, .)) - Cal(H(1))|, measured 6.5e-10
TOL_CAL_REL = 1e-8          # grid Cal^path against the closed form, measured 2.4e-10
TOL_K_FIELD = 2e-7          # max |K(s, t, .) - t H|, measured 2.1e-8
TOL_IDENTITY = 1e-8         # identity-region value against Cal / 2 pi, measured 4e-11
TOL_LOOP = 1e-8             # loop phase values, spreads and integrals, measured 2e-11
TOL_SPLINE_FLOW = 5e-6      # spline-backed flow against the exact rotation, measured 8e-7
TOL_KERNEL_FLOW = 1e-7      # bump-kernel flow against the exact rotation, measured 6e-9
TOL_PRIMITIVE_REL = 1e-8    # Cal by the primitive at 513 nodes, measured 6e-10
TOL_EXACT_REL = 1e-9        # values the quadrature reproduces to rounding (a^4, Hofer)


def _rng(seed):
    """Generator for a workload's inputs; any integer seed is accepted."""
    return np.random.default_rng(seed % 2**64)


def _amp(rng):
    """Amplitude within 10% of the catalog default 0.05."""
    return 0.05 * (0.9 + 0.2 * rng.random())


def _disc_points(rng, n, radius):
    """n points uniform in the disc of the given radius."""
    r = radius * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


def _num(x):
    return "%.12e" % x


class Op:
    """Outcome of one operation: checks, a digest of its outputs, or an error."""

    def __init__(self, name):
        self.name = name
        self.checks = []
        self.digest = ""
        self.error = None

    def close(self, label, value, reference, tol, relative=False):
        scale = abs(reference) if relative else 1.0
        err = abs(value - reference)
        self.checks.append({
            "check": label, "value": float(value), "reference": float(reference),
            "error": float(err), "tol": tol * scale, "ok": bool(err <= tol * scale),
        })

    def holds(self, label, ok, value=None):
        self.checks.append({"check": label, "value": value, "ok": bool(ok)})

    @property
    def checked_ok(self):
        return self.error is None and all(c["ok"] for c in self.checks)

    def as_dict(self):
        return {"op": self.name, "ok": self.checked_ok, "error": self.error,
                "checks": self.checks}


def run_op(name, body):
    """Run body(op) as one operation; an exception is recorded, not raised."""
    op = Op(name)
    try:
        body(op)
    except Exception:
        op.error = traceback.format_exc(limit=8)
    return op


def _digest(values):
    return json.dumps({k: _num(v) for k, v in sorted(values.items())}, sort_keys=True)


def catalog_op(cfg, span, check):
    """One catalog report through run_experiment, checked by check(op, cfg, measured)."""
    def body(op):
        rep = ex.run_experiment(cfg)
        with span("bench.check"):
            op.holds("overall_pass", rep.overall_pass, rep.errors or None)
            check(op, cfg, rep.measured)
            op.digest = report_to_json(rep)

    return run_op(cfg.experiment_id, body)


# ---------------------------------------------------------------------------


class SHamiltonianWorkload:
    """alexander.s_hamiltonian on linear_family(radial_bump), then calabi_match.

    For an autonomous H the family H(s) = s H has K(s, t, .) = t H exactly,
    which checks every stored grid, not only the Calabi values.  K and Cal
    are blind to errors in the rotation angle of a radial flow, so a
    64-point flow of H(1) through the same kernel is checked against the
    exact rotation too.
    """

    name = "s_hamiltonian"

    def setup(self, seed):
        rng = _rng(seed)
        amp = _amp(rng)
        return {
            "amp": amp,
            "family": alx.linear_family(radial_bump(amp, RHO, M)),
            "s_samples": np.array([0.5 + 0.1 * rng.random(), 1.0]),
            "nt": 17,
            "dt": 4e-3,
            "grid": square_grid(65),
            "match_grid": square_grid(129),
            "probe": _disc_points(rng, 64, 0.75),
        }

    def run(self, inp, span):
        def body(op):
            sham = alx.s_hamiltonian(inp["family"], s_samples=inp["s_samples"],
                                     nt=inp["nt"], grid=inp["grid"], dt=inp["dt"])
            cal_k, cal_h = alx.calabi_match(sham, inp["family"], grid=inp["match_grid"])
            probe = flows.integrate_points(inp["family"].at(1.0), 0.0, 1.0, inp["probe"],
                                           dt=inp["dt"])
            with span("bench.check"):
                amp = inp["amp"]
                exact = oracles.radial_bump_flow(inp["probe"], amp, RHO, M)
                op.close("kernel_flow_vs_exact_rotation",
                         float(np.max(np.hypot(*(probe - exact).T))), 0.0, TOL_KERNEL_FLOW)
                cal = oracles.bump_calabi(amp, RHO, M)
                op.close("calabi_match", cal_k, cal_h, TOL_CAL_MATCH)
                op.close("cal_h_closed_form", cal_h, cal, TOL_CAL_REL, relative=True)
                op.close("cal_k_closed_form", cal_k, cal, TOL_CAL_MATCH)
                nodes = np.stack(inp["grid"].nodes(), axis=-1)
                outside = np.hypot(nodes[..., 0], nodes[..., 1]) >= sham.support_radius
                k_err, gauge, out_max = 0.0, 0.0, 0.0
                for row in sham.values:
                    gauge = max(gauge, float(np.max(np.abs(row[0].values))))
                    for t, g in zip(sham.t_samples, row):
                        ref = oracles.linear_family_k(t, nodes, amp, RHO, M)
                        k_err = max(k_err, float(np.max(np.abs(g.values - ref))))
                        out_max = max(out_max, float(np.max(np.abs(g.values[outside]))))
                op.close("k_equals_t_h", k_err, 0.0, TOL_K_FIELD)
                op.holds("gauge_k_s_0_zero", gauge == 0.0, gauge)
                op.holds("k_zero_outside_support", out_max == 0.0, out_max)
                op.digest = _digest({"cal_k": cal_k, "cal_h": cal_h, "k_err": k_err,
                                     "probe": float(np.sum(probe))})

        return [run_op("s_hamiltonian", body)]


class PhaseFunctionsWorkload:
    """Catalog E4, E5 and E9 through run_experiment at grid_n = 64."""

    name = "phase_functions"

    def setup(self, seed):
        rng = _rng(seed)
        common = {"grid_n": 64, "dt": 1e-2, "amp": _amp(rng),
                  "angle": 0.75 + 0.1 * rng.random(), "seed": int(seed)}
        return {"configs": [ExperimentConfig(experiment_id=eid, **common)
                            for eid in ("E4", "E5", "E9")]}

    def run(self, inp, span):
        return [catalog_op(cfg, span, self.check) for cfg in inp["configs"]]

    @staticmethod
    def check(op, cfg, got):
        if cfg.experiment_id == "E4":
            # the catalog's moving bump has rho = 0.25; the twist has
            # amp = angle rho^2 / (2 m)
            cals = {
                "radial_bump": oracles.bump_calabi(cfg.amp, cfg.rho, cfg.m),
                "moving_bump": oracles.bump_calabi(cfg.amp, 0.25, cfg.m),
                "twist": oracles.bump_calabi(
                    cfg.angle * cfg.rho**2 / (2.0 * cfg.m), cfg.rho, cfg.m),
            }
            for fam, cal in cals.items():
                op.close(f"{fam}_identity_value", got[f"{fam}_identity_value"],
                         oracles.identity_value(cal), TOL_IDENTITY)
        elif cfg.experiment_id == "E5":
            # a loop's tau = chi' integrates to chi(1) - chi(0) = 0
            loop_value = oracles.identity_value(
                oracles.bump_calabi(cfg.amp, cfg.rho, cfg.m, tau_integral=0.0))
            for label in ("loop", "loop_strong"):
                op.close(f"{label}_value", got[f"{label}_value"], loop_value, TOL_LOOP)
                op.close(f"{label}_spread", got[f"{label}_spread"], 0.0, TOL_LOOP)
        else:
            op.close("integral_a_1", got["integral_a_1.0"], 0.0, TOL_LOOP)
            op.close("sup_f_at_1", got["sup_f_at_1"], 0.0, TOL_LOOP)


class SplineFlowWorkload:
    """flows.integrate_points of SHamiltonian.time_one_field on a sampled bump.

    K(s, t, .) = t H is stored on a 129-node spline grid, so the s-flow of
    K(., 1, .) is the exact rotation of the radial bump.  A tenth of the
    points start outside the support and must not move at all.
    """

    name = "spline_flow"

    def setup(self, seed):
        rng = _rng(seed)
        amp = _amp(rng)
        grid = square_grid(129)
        nodes = np.stack(grid.nodes(), axis=-1)
        zero = grid.with_values(np.zeros(grid.values.shape))
        bump = grid.with_values(oracles.bump_values(nodes, amp, RHO, M))
        sham = alx.SHamiltonian(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                [[zero, bump], [zero, bump]], RHO)
        n_in, n_out = 900, 100
        r = np.concatenate([0.75 * np.sqrt(rng.random(n_in)),
                            RHO + (1.0 - RHO) * rng.random(n_out)])
        angle = 2.0 * np.pi * rng.random(n_in + n_out)
        points = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
        return {"amp": amp, "field": sham.time_one_field(), "points": points,
                "inside": r < RHO, "dt": 2e-3}

    def run(self, inp, span):
        def body(op):
            out = flows.integrate_points(inp["field"], 0.0, 1.0, inp["points"], dt=inp["dt"])
            with span("bench.check"):
                inside = inp["inside"]
                exact = oracles.radial_bump_flow(inp["points"][inside], inp["amp"], RHO, M)
                err = float(np.max(np.hypot(*(out[inside] - exact).T)))
                op.close("flow_vs_exact_rotation", err, 0.0, TOL_SPLINE_FLOW)
                fixed = bool(np.array_equal(out[~inside], inp["points"][~inside]))
                op.holds("outside_support_fixed", fixed)
                op.digest = _digest({"err": err, "sum": float(np.sum(out))})

        return [run_op("spline_flow", body)]


class CalabiQuadratureWorkload:
    """Catalog E2 and E3, the primitive Calabi of exact rotations, Hofer length."""

    name = "calabi_quadrature"

    def setup(self, seed):
        rng = _rng(seed)
        amp = _amp(rng)
        common = {"grid_n": 128, "amp": amp, "seed": int(seed)}
        grid = square_grid(513)
        nodes = np.stack(grid.nodes(), axis=-1)
        maps = []
        for tau_integral in (1.0, 0.3 + 0.6 * rng.random()):
            img = oracles.radial_bump_flow(nodes, amp, RHO, M, tau_integral)
            phi = PlaneMap(grid.with_values(img[..., 0]), grid.with_values(img[..., 1]), RHO)
            maps.append((tau_integral, phi))
        return {
            "amp": amp,
            "configs": [ExperimentConfig(experiment_id=eid, **common) for eid in ("E2", "E3")],
            "maps": maps,
            "hofer_field": radial_bump(amp, RHO, M),
            "hofer_grid": square_grid(257),
        }

    def run(self, inp, span):
        amp = inp["amp"]
        ops = [catalog_op(cfg, span, self.check) for cfg in inp["configs"]]
        for k, (tau_integral, phi) in enumerate(inp["maps"]):
            def body(op, tau_integral=tau_integral, phi=phi):
                # cal_path_value skips the function's own Cal^path quadrature;
                # the closed form is the reference here
                rep = cb.primitive_and_cal_def1(phi, cal_path_value=0.0)
                with span("bench.check"):
                    op.close("cal_def1_closed_form", rep.cal_def1,
                             oracles.bump_calabi(amp, RHO, M, tau_integral),
                             TOL_PRIMITIVE_REL, relative=True)
                    op.digest = _digest({"cal_def1": rep.cal_def1,
                                         "residual": rep.primitive_residual})
            ops.append(run_op(f"primitive_{k}", body))

        def hofer(op):
            length = flows.hofer_length(inp["hofer_field"], inp["hofer_grid"])
            with span("bench.check"):
                op.close("hofer_length", length, oracles.shrunk_hofer_length(amp, 1.0),
                         TOL_EXACT_REL, relative=True)
                op.digest = _digest({"hofer": length})

        ops.append(run_op("hofer_length", hofer))
        return ops

    @staticmethod
    def check(op, cfg, got):
        cal = oracles.bump_calabi(cfg.amp, cfg.rho, cfg.m)
        if cfg.experiment_id == "E2":
            op.close("cal_base", got["cal_base"], cal, TOL_CAL_REL, relative=True)
            for a in (0.5, 0.25, 0.75):
                op.close(f"ratio_a_{a}", got[f"ratio_a_{a}"],
                         oracles.rescaled_calabi_ratio(a), TOL_EXACT_REL, relative=True)
            return
        scales = [2.0 ** -i for i in range(1, 6)]
        for a in scales:
            op.close(f"cal_a_{a}", got[f"cal_a_{a}"], cal, TOL_CAL_REL, relative=True)
            op.holds(f"c0_a_{a}_within_2a", got[f"c0_a_{a}"] <= oracles.c0_bound(a),
                     got[f"c0_a_{a}"])
            op.close(f"hofer_a_{a}", got[f"hofer_a_{a}"],
                     oracles.shrunk_hofer_length(cfg.amp, a), TOL_EXACT_REL, relative=True)
        for i in range(len(scales) - 1):
            op.close(f"hofer_ratio_{i}", got[f"hofer_ratio_{i}"],
                     oracles.HOFER_RATIO_PER_HALVING, TOL_EXACT_REL, relative=True)


WORKLOADS = {w.name: w for w in (SHamiltonianWorkload(), PhaseFunctionsWorkload(),
                                 SplineFlowWorkload(), CalabiQuadratureWorkload())}
