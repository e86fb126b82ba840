"""Lifted actions, generating/phase functions, HJ residuals, suspension."""

import numpy as np
import pytest

from disclab import graphical as gr
from disclab import kernels
from disclab import phase as ph
from disclab.calabi import cal_path, normalize_on_sphere
from disclab.chart import jmap
from disclab.fields import SeparableBump, moving_bump, radial_bump, twist_bump, zero_field
from disclab.flows import _rk4_segment, flow_map, integrate_points
from disclab.graphical import recover_one_form
from disclab.grids import SPHERE_VOLUME, square_grid


# ---------------------------------------------------------------------------
# basic generating function


def test_basic_generating_of_zero_field():
    (gs,) = ph.basic_generating([radial_bump(amp=0.0)], grid=square_grid(65))
    assert np.max(np.abs(gs.h)) == 0.0
    assert np.max(np.abs(gs.p)) == 0.0
    assert np.array_equal(gs.q, gs.seeds)
    # the action row is the bump kernel's: a field that is not a
    # SeparableBump has none
    with pytest.raises(TypeError, match="SeparableBump"):
        ph.basic_generating([zero_field()], grid=square_grid(65))


def exactness_defect(gs):
    """Max |dh - p . dq| / |dq| over grid-neighbor seed pairs of GraphSamples gs."""
    worst = 0.0
    for axis in (0, 1):
        dh = np.diff(gs.h, axis=axis)
        dq = np.diff(gs.q, axis=axis)
        pbar = 0.5 * (
            np.take(gs.p, np.arange(gs.p.shape[axis] - 1), axis=axis)
            + np.take(gs.p, np.arange(1, gs.p.shape[axis]), axis=axis)
        )
        pdq = np.sum(pbar * dq, axis=-1)
        norm = np.hypot(dq[..., 0], dq[..., 1])
        ok = norm > 1e-14
        worst = max(worst, float(np.max(np.abs(dh[ok] - pdq[ok]) / norm[ok])))
    return worst


def test_basic_generating_exactness(bump):
    # the action is a generating function of the graph: dh = p . dq
    (gs,) = ph.basic_generating([bump], grid=square_grid(129), dt=1e-3)
    assert exactness_defect(gs) < 5e-4


def test_basic_generating_identity_region_value(bump, grid257):
    (gs,) = ph.basic_generating([bump], grid=square_grid(129), dt=1e-3)
    cal = cal_path(bump, grid257)
    # seeds outside the support never move; their chord action is the
    # normalization constant integral = Cal / vol
    qx, qy = gs.seeds[..., 0], gs.seeds[..., 1]
    outside = np.hypot(qx, qy) >= 0.9
    vals = gs.h[outside]
    assert np.max(np.abs(vals - cal / SPHERE_VOLUME)) < 1e-4


# lifted_action and basic_generating as they stood before the grid lift
# skipped the frozen seeds and took one RK4 run, copied verbatim but for
# returning the action h alone: every seed is lifted, with one
# integrate_points call per stored time, and the action is the trapezoid
# rule on the nu stored times.  They are the second-order reference that
# the Richardson test below extrapolates.


def _head_lifted_action(F, ham, seeds, times, dt):
    pts = seeds
    q = seeds.copy()
    p = np.zeros_like(seeds)
    f = ham(0.0, seeds)
    h = np.zeros(seeds.shape[0])
    yield q, p, f, h
    for k in range(len(times) - 1):
        pts = integrate_points(F, times[k], times[k + 1], pts, dt)
        cur_q = 0.5 * (pts + seeds)
        cur_p = -jmap(pts - seeds)
        cur_f = ham(times[k + 1], pts)
        du = times[k + 1] - times[k]
        # p . dq as the sum of its two columns: np.sum over a length-2 axis
        # is many times slower and gives the same bits
        h = h + 0.5 * np.add(*((p + cur_p) * (cur_q - q)).T)
        h = h - 0.5 * du * (f + cur_f)
        q, p, f = cur_q, cur_p, cur_f
        yield q, p, f, h


def _head_basic_generating(F, grid=None, dt=1e-3, nu=101):
    if grid is None:
        grid = square_grid(257)
    qx, qy = grid.nodes()
    seeds = np.stack([qx, qy], axis=-1)
    flat = seeds.reshape(-1, 2)
    ham = normalize_on_sphere(F, grid=grid)
    times = np.linspace(0.0, 1.0, nu)
    for q, p, _, h in _head_lifted_action(F, ham, flat, times, dt):
        pass
    return h.reshape(qx.shape)


def test_basic_generating_matches_the_radial_closed_form():
    # a radial F is constant along its circles, so A(1) = -F(r) + r F'(r) / 2
    # and h(y) = int c - F(r) + r F'(r) / 2 - (y_2 x_1 - y_1 x_2) / 2, with x
    # the exact rotation of y; the stepper's row is exact here to rounding
    amp, rho, m = 0.05, 0.8, 4
    F = radial_bump(amp=amp, rho=rho, m=m)
    grid = square_grid(65)
    (gs,) = ph.basic_generating([F], grid=grid, dt=1e-2)
    y = gs.seeds.reshape(-1, 2)
    x = F.exact_flow(0.0, 1.0, y)
    r2 = y[:, 0] ** 2 + y[:, 1] ** 2
    u = np.maximum(1.0 - r2 / rho**2, 0.0)
    f = amp * u**m
    r_df = -2.0 * m * amp * u ** (m - 1) * r2 / rho**2
    value = normalize_on_sphere(F, grid=grid).offset_integral()
    want = value - f + 0.5 * r_df - 0.5 * (y[:, 1] * x[:, 0] - y[:, 0] * x[:, 1])
    assert np.max(np.abs(want - value)) > 1e-3
    assert np.max(np.abs(gs.h.ravel() - want)) < 1e-12


def test_basic_generating_matches_the_richardson_moving_bump_action():
    # the per-seed lift's trapezoid action on 401 and 801 stored times,
    # Richardson-extrapolated, is fourth order: the stepper's action row at
    # dt 1e-2 agrees with it far below the 101-time trapezoid's 6e-6
    F = moving_bump()
    grid = square_grid(65)
    fine = _head_basic_generating(F, grid=grid, dt=1.25e-3, nu=801)
    coarse = _head_basic_generating(F, grid=grid, dt=1.25e-3, nu=401)
    want = (4.0 * fine - coarse) / 3.0
    (gs,) = ph.basic_generating([F], grid=grid, dt=1e-2)
    assert np.max(np.abs(gs.h - want)) < 1e-7


@pytest.mark.parametrize("tau", [None, lambda t: 1.0 + t], ids=["autonomous", "ramp"])
def test_frozen_seeds_share_the_trapezoid_offset_integral(tau, grid65):
    F = SeparableBump(amp=0.05, rho=0.8, m=4, tau=tau)
    (gs,) = ph.basic_generating([F], grid=grid65, dt=1e-2)
    flat = gs.seeds.reshape(-1, 2)
    frozen = np.ones(len(flat), dtype=bool)
    frozen[kernels.live_points(flat, F.support_radius)] = False
    frozen = frozen.reshape(gs.h.shape)
    assert frozen.any() and not frozen.all()
    assert np.array_equal(gs.q[frozen], gs.seeds[frozen])
    assert np.all(gs.p[frozen] == 0.0)
    # off the support the normalized field is -c(u), and a frozen chord has
    # p . dq = 0: its action is the integral of c, bit for bit the offset's
    nf = normalize_on_sphere(F, grid=grid65)
    vals = gs.h[frozen]
    assert np.all(vals == nf.offset_integral())
    # c is linear in u for both taus, so the trapezoid rule is exact too
    times = np.linspace(0.0, 1.0, 21)
    trapezoid = float(np.trapezoid([nf.offset(t) for t in times], times))
    assert vals[0] == pytest.approx(trapezoid, rel=1e-12)
    assert abs(trapezoid) > 1e-5


def test_basic_generating_normalizes_before_the_lift(monkeypatch):
    # a support that reaches the grid edge fails the sphere normalization
    # before the stepper takes a step
    runs = []
    monkeypatch.setattr(kernels, "rk4", lambda segments, z: runs.append(z.shape))
    with pytest.raises(ValueError, match="reaches the grid boundary"):
        ph.basic_generating([radial_bump(amp=0.05, rho=0.8, m=4)],
                            grid=square_grid(65, extent=0.8), dt=1e-2)
    assert runs == []


# the three bumps E4 lifts, at the catalog's default parameters
E4_BUMPS = {
    "radial": radial_bump(amp=0.05, rho=0.8, m=4),
    "moving": moving_bump(amp=0.05, rho=0.25, m=4, sweep=0.3),
    "twist": twist_bump(angle=0.8, rho=0.8, m=4),
}


@pytest.mark.parametrize("name", E4_BUMPS)
def test_the_lift_time_one_map_is_the_flow_map(name, grid65):
    # the value row never feeds back into the seeds: the lift's node
    # images are flow_map's, and frozen seeds keep x = y
    F = E4_BUMPS[name]
    (gs,) = ph.basic_generating([F], grid=grid65, dt=1e-2)
    phi = flow_map(F, 1.0, grid=grid65, dt=1e-2)
    for got, want in zip(gs.phi.node_images(), phi.node_images()):
        assert got.tobytes() == want.tobytes()
    assert gs.phi.support_radius == phi.support_radius
    assert gs.value == normalize_on_sphere(F, grid=grid65).offset_integral()


@pytest.mark.parametrize("name", E4_BUMPS)
def test_the_lift_phase_function_is_phase_function_graphical(name, grid65):
    # E4's route: the phase function of the lift's map and value
    F = E4_BUMPS[name]
    (gs,) = ph.basic_generating([F], grid=grid65, dt=1e-2)
    f = ph.phase_function_of_map(gs.phi, gs.value)
    f_ref, v_ref = ph.phase_function_graphical(F, grid=grid65, dt=1e-2)
    assert gs.value == v_ref
    assert f.values.tobytes() == f_ref.values.tobytes()


# ---------------------------------------------------------------------------
# phase functions


@pytest.fixture(scope="module")
def bump_phase(bump, grid257, bump_map_257):
    """f, its identity-region value, and the one-form f integrates."""
    f, value = ph.phase_function_graphical(bump, grid=grid257, dt=1e-3)
    return f, value, recover_one_form(bump_map_257)


def test_phase_value_is_cal_over_vol(bump_phase, bump, grid257):
    _, value, _ = bump_phase
    cal = cal_path(bump, grid257)
    assert value == pytest.approx(cal / SPHERE_VOLUME, abs=2e-3)


def test_phase_matches_identity_region(bump_phase):
    f, value, _ = bump_phase
    qx, qy = f.nodes()
    outside = np.hypot(qx, qy) >= 0.9
    assert np.max(np.abs(f.values[outside] - value)) < 1e-6


def test_phase_gradient_bound(bump_phase):
    # max |df| is bounded by max |p| over the graph
    f, _, alpha = bump_phase
    d1, d2 = f.gradient()
    max_df = float(np.max(np.hypot(d1.values, d2.values)))
    pmax = float(np.max(np.hypot(alpha.a1.values, alpha.a2.values)))
    assert max_df - pmax <= 1e-4


def test_lagrangian_selector_matches_recovered_form(bump_phase, bump_map_257):
    # sigma = df lies on the graph: it is the recovered one-form
    f, _, _ = bump_phase
    d1, d2 = f.gradient()
    alpha = recover_one_form(bump_map_257)
    core = (slice(4, -4), slice(4, -4))
    assert np.max(np.abs(d1.values[core] - alpha.a1.values[core])) < 5e-4
    assert np.max(np.abs(d2.values[core] - alpha.a2.values[core])) < 5e-4


def test_phase_scans_the_map_once(monkeypatch):
    # recover_one_form is the only graphicality gate: one midpoint map per
    # phase function
    built = []
    midpoint = gr.midpoint_map
    monkeypatch.setattr(gr, "midpoint_map", lambda phi: built.append(phi) or midpoint(phi))
    ph.phase_function_graphical(radial_bump(amp=0.05, rho=0.8, m=4),
                                grid=square_grid(65), dt=1e-2)
    assert len(built) == 1


def test_phase_rejects_non_graphical_slice():
    H = twist_bump(angle=4.0, rho=0.8, m=4)
    with pytest.raises(ValueError, match="not graphical"):
        ph.phase_function_graphical(H, grid=square_grid(129), dt=2e-3)


def test_phase_lipschitz_in_the_hamiltonian(grid257):
    # sup |f_H - f_H'| bounded by the Hofer distance of the Hamiltonians
    H1 = radial_bump(amp=0.05, rho=0.8, m=4)
    H2 = radial_bump(amp=0.06, rho=0.8, m=4)
    f1, _ = ph.phase_function_graphical(H1, grid=grid257, dt=2e-3)
    f2, _ = ph.phase_function_graphical(H2, grid=grid257, dt=2e-3)
    gap = float(np.max(np.abs(f1.values - f2.values)))
    assert gap <= 0.01 * 1.001   # ||H1 - H2||_osc = 0.01


# ---------------------------------------------------------------------------
# phase families


def make_linear_family(c=0.3, n=3):
    """f(a, q) = q1 + a*c on a small grid: an exact HJ solution for G = -c."""
    grid = square_grid(33, extent=1.0)
    samples = [0.25, 0.5, 0.75][:n] if n == 3 else list(np.linspace(0.25, 0.75, n))
    fields = []
    for a in samples:
        qx, _ = grid.nodes()
        fields.append(grid.with_values(qx + a * c))
    return ph.PhaseFamily(samples, fields, [a * c for a in samples])


def test_hj_residual_exact_solution():
    fam = make_linear_family()
    assert ph.hj_residual(fam, lambda a, q, p: -0.3 * np.ones(q.shape[:-1])) < 1e-12


def test_hj_residual_needs_three_uniform_samples():
    fam = make_linear_family()
    short = ph.PhaseFamily(fam.parameter_samples[:2], fam.fields[:2],
                           fam.normalization_value[:2])
    with pytest.raises(ValueError):
        ph.hj_residual(short, lambda a, q, p: 0.0)
    skew = ph.PhaseFamily([0.1, 0.2, 0.5], fam.fields, fam.normalization_value)
    with pytest.raises(ValueError):
        ph.hj_residual(skew, lambda a, q, p: 0.0)


@pytest.fixture(scope="module")
def e8_coarse():
    """E8's coarse level at grid_n 64, dt 1e-2: 33 nodes, a in linspace(0.5, 1, 5).

    (grid, samples, members, phase family, s-Hamiltonian) of the Alexander
    family of the default radial bump.
    """
    from disclab.alexander import alexander_family, s_hamiltonian

    grid = square_grid(33)
    fam = alexander_family(radial_bump(amp=0.05, rho=0.8, m=4))
    samples = np.linspace(0.5, 1.0, 5)
    members = [fam.at(a) for a in samples]
    sham = s_hamiltonian(fam, s_samples=samples, nt=17, grid=grid, dt=1e-2)
    return grid, samples, members, ph.phase_family(samples, members, grid, 1e-2), sham


def test_phase_family_is_one_phase_function_per_member(e8_coarse):
    grid, samples, members, pfam, _ = e8_coarse
    assert pfam.parameter_samples == list(samples)
    for H, f, v in zip(members, pfam.fields, pfam.normalization_value):
        f_ref, v_ref = ph.phase_function_graphical(H, grid=grid, dt=1e-2)
        assert v == v_ref
        assert np.array_equal(f.values, f_ref.values)


def test_hj_residual_hands_G_the_interior_nodes_only(e8_coarse):
    # E8's coarse level: G sees only the (n - 4)^2 nodes the residual
    # reduces over, and there E8's points q + J(p)/2 stay on the grid
    grid, samples, _, pfam, _ = e8_coarse
    fields = pfam.fields
    seen = []

    def G(a, q, p):
        seen.append((a, q.copy(), p.copy()))
        return a * q[..., 0] * p[..., 1]

    residual = ph.hj_residual(pfam, G)
    assert [a for a, _, _ in seen] == list(samples[1:-1])
    lo, hi = grid.extent
    want = 0.0
    for i, (a, q, p) in enumerate(seen, start=1):
        assert q.shape == p.shape == (29, 29, 2)
        assert np.array_equal(q, grid.node_points()[2:-2, 2:-2])
        z = q + 0.5 * jmap(p)
        assert np.all((z >= lo) & (z <= hi))
        # the residual over the whole grid, reduced over the same core
        dfda = (fields[i + 1].values - fields[i - 1].values) / (2 * (samples[1] - samples[0]))
        d1, d2 = np.gradient(fields[i].values, grid.spacing, edge_order=2)
        full = dfda + a * grid.node_points()[..., 0] * d2
        want = max(want, float(np.max(np.abs(full[2:-2, 2:-2]))))
    assert residual == want


def test_hj_residual_of_the_sphere_normalized_k_matches_the_node_sum(e8_coarse):
    # E8 normalizes K(a, 1, .) by normalize_on_sphere; the reference is a
    # node sum of K(a, 1, .) over the grid, h^2 / vol(sphere), per a.  The
    # residuals agree to the last bit, so a change to how calabi integrates
    # time profiles cannot move E8 unseen.
    grid, _, _, pfam, sham = e8_coarse
    nodes = grid.node_points()
    offsets = {}

    def G_ref(a, q, p):
        if a not in offsets:
            offsets[a] = float(np.sum(sham.field_at(a)(nodes))) * grid.spacing**2 / SPHERE_VOLUME
        return sham.field_at(a)(q + 0.5 * jmap(p)) - offsets[a]

    nk = normalize_on_sphere(sham.time_one_field(), grid)
    got = ph.hj_residual(pfam, lambda a, q, p: nk(a, q + 0.5 * jmap(p)))
    assert got == ph.hj_residual(pfam, G_ref)
    assert 0.0 < got < 1e-2


def test_phase_family_value_and_lipschitz():
    # each member's integral takes that member's value: f - v_a = q1 has
    # chart integral 0 on the symmetric grid, so I(a) = v_a * vol
    fam = make_linear_family()
    assert fam.normalization_value[1] == pytest.approx(0.15)
    integrals = ph.phase_integral(fam)
    for ival, v in zip(integrals, fam.normalization_value):
        assert ival == pytest.approx(v * SPHERE_VOLUME, rel=1e-12)


# ---------------------------------------------------------------------------
# suspension identity and the phase integral


def suspension_check(F, nt=41, dt=1e-3):
    """Max defect of d(h~) against the pulled-back form theta + a dt.

    The timewise generating function h~(t, q-seed) is read at nt stored
    times from one RK4 run of a stencil of seeds (step 1e-3) around each
    of 8 seeded random probes inside 0.6 of the support radius, with the
    action row of phase.basic_generating:
    h~ = A(t) + int_0^t c - (y_2 x_1 - y_1 x_2) / 2.  The
    q-components of the defect test dh = p . dq at fixed t; the
    t-component tests dh/dt = p . dq/dt - F(t, phi^t(y)), whose last term
    is the a-coordinate -F of the suspended graph.
    """
    if F.support_radius is None:
        raise ValueError("suspension check needs a compactly supported field")
    probes = np.random.default_rng(7).uniform(
        -0.6 * F.support_radius, 0.6 * F.support_radius, size=(8, 2)
    )
    h_q = 1e-3
    nf = normalize_on_sphere(F)
    # stencil: center, +/- h_q in each axis
    offsets = np.array(
        [[0.0, 0.0], [h_q, 0.0], [-h_q, 0.0], [0.0, h_q], [0.0, -h_q]]
    )
    seeds = (probes[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    times = np.linspace(0.0, 1.0, nt)
    y = seeds.T
    z = np.zeros((3, len(seeds)))
    z[:2] = y
    segments = [_rk4_segment(F, t0, t1, dt, (1.0, -0.5)) for t0, t1 in zip(times[:-1], times[1:])]
    hist_q, hist_p = [seeds], [np.zeros_like(seeds)]
    hist_f, hist_h = [nf(0.0, seeds)], [np.zeros(len(seeds))]
    for t, z in zip(times[1:], kernels.rk4(segments, z)):
        x = z[:2]
        hist_q.append((0.5 * (x + y)).T)
        hist_p.append(-jmap((x - y).T))
        hist_f.append(nf(t, x.T))
        hist_h.append(z[2] + nf.offset_integral(t1=t) - 0.5 * (y[1] * x[0] - y[0] * x[1]))
    hq = np.array(hist_q).reshape(nt, -1, 5, 2)
    hp = np.array(hist_p).reshape(nt, -1, 5, 2)
    hh = np.array(hist_h).reshape(nt, -1, 5)
    hf = np.array(hist_f).reshape(nt, -1, 5)
    du = times[1] - times[0]
    worst_q = 0.0
    worst_t = 0.0
    # spatial components at each stored time
    for k in range(nt):
        for axis, (ip, im) in enumerate(((1, 2), (3, 4))):
            dh = (hh[k, :, ip] - hh[k, :, im]) / (2 * h_q)
            dq = (hq[k, :, ip] - hq[k, :, im]) / (2 * h_q)
            pdq = np.sum(hp[k, :, 0] * dq, axis=-1)
            worst_q = max(worst_q, float(np.max(np.abs(dh - pdq))))
    # time component at interior stored times (centered differences)
    dhdt = (hh[2:, :, 0] - hh[:-2, :, 0]) / (2 * du)
    dqdt = (hq[2:, :, 0] - hq[:-2, :, 0]) / (2 * du)
    pdqdt = np.sum(hp[1:-1, :, 0] * dqdt, axis=-1)
    defect_t = dhdt - (pdqdt - hf[1:-1, :, 0])
    worst_t = float(np.max(np.abs(defect_t)))
    return max(worst_q, worst_t)


def test_suspension_identity(bump):
    assert suspension_check(bump, nt=41, dt=1e-3) < 5e-4


def test_suspension_needs_support():
    H = zero_field(support_radius=None)
    with pytest.raises(ValueError):
        suspension_check(H)


def test_phase_integral_of_constant_family():
    grid = square_grid(33, extent=1.0)
    v = 0.4
    f = grid.with_values(np.full((33, 33), v))
    fam = ph.PhaseFamily([0.0, 0.5, 1.0], [f, f, f], [v, v, v])
    integrals = ph.phase_integral(fam)
    for ival in integrals:
        assert ival == pytest.approx(v * SPHERE_VOLUME, rel=1e-12)
    deriv = np.gradient(np.asarray(integrals), fam.parameter_samples)
    assert np.max(np.abs(deriv)) < 1e-12


def test_phase_integral_at_time_one(bump_phase, bump, grid257):
    f, value, _ = bump_phase
    fam = ph.PhaseFamily([1.0], [f], [value])
    integrals = ph.phase_integral(fam)
    # the chart integral of the potential cancels the identity-region
    # contribution value * vol: the phase integral vanishes
    cal = cal_path(bump, grid257)
    assert abs(value * SPHERE_VOLUME - cal) < 2e-3
    assert abs(integrals[0]) < 1e-3
