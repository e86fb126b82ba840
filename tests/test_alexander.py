"""Rescaling isotopies, the s-Hamiltonian, and the shrinking sequence."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from disclab import alexander as alx
from disclab import kernels
from disclab.calabi import cal_path, spatial_integral
from disclab.fields import ScalarTimeField, loop_bump, radial_bump, zero_field
from disclab.flows import (PlaneMap, _simpson_weights, hamiltonian_path, hofer_length,
                           integrate_points, sweep_nodes)
from disclab.grids import GridField2D, sample, square_grid


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_validation(bump):
    for a in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            alx.rescale(bump, a)
    with pytest.raises(ValueError):
        alx.rescale(zero_field(support_radius=None), 0.5)


def test_rescalings_take_only_separable_bumps(bump):
    # a field that is no SeparableBump has no exact rescaling
    black_box = ScalarTimeField(lambda t, pts: bump(t, pts), bump.support_radius)
    with pytest.raises(TypeError, match="SeparableBump"):
        alx.rescale(black_box, 0.5)
    with pytest.raises(TypeError, match="SeparableBump"):
        alx.shrinking_calabi_sequence(black_box, [0.5, 0.25], node_count=65, nt=33)


def test_rescale_identity_scale(bump):
    assert alx.rescale(bump, 1.0) is bump


def test_rescale_functoriality(bump, rng):
    a, b = 0.6, 0.5
    one = alx.rescale(alx.rescale(bump, a), b)
    two = alx.rescale(bump, a * b)
    pts = rng.uniform(-0.2, 0.2, size=(40, 2))
    assert np.allclose(one(0.0, pts), two(0.0, pts), rtol=1e-12)


def test_conjugated_flow_matches_rescaled_hamiltonian(bump):
    a = 0.5
    K = alx.rescale(bump, a)
    pts = np.array([[0.1, 0.05], [0.2, -0.15], [0.0, 0.3]])
    # the rescaled path is the conjugate a * phi^t(x / a)
    conj = a * integrate_points(bump, 0.0, 1.0, pts / a, dt=1e-3)
    direct = integrate_points(K, 0.0, 1.0, pts, dt=1e-3)
    assert np.max(np.abs(conj - direct)) < 1e-6


def test_cal_fourth_power_law(bump, grid257):
    base = cal_path(bump, grid257)
    for a in (0.5, 0.25, 0.75):
        K = alx.rescale(bump, a)
        grid_a = square_grid(257, extent=1.05 * a)
        cal_a = cal_path(K, grid_a)
        assert cal_a / base == pytest.approx(a**4, rel=1e-6)


# ---------------------------------------------------------------------------
# the shrinking sequence


def test_shrinking_sequence_exact_laws(bump):
    scales = [2.0 ** -i for i in range(1, 6)]
    diags = alx.shrinking_calabi_sequence(bump, scales, node_count=257)
    base = cal_path(bump)
    for d in diags:
        assert d.cal == pytest.approx(base, rel=1e-9)
        assert d.c0_dist <= 2.0 * d.scale * 0.8
        assert d.c0_method == "exact"
    ratios = [diags[i].hofer_len / diags[i - 1].hofer_len
              for i in range(1, len(diags))]
    for r in ratios:
        assert r == pytest.approx(4.0, rel=1e-12)


@settings(deadline=None, max_examples=20)
@given(a=st.floats(1.0 / 32.0, 1.0), amp=st.floats(0.01, 0.2), m=st.integers(2, 6))
def test_shrinking_member_quadratures(a, amp, m):
    """Member Cal and Hofer length are cal_path and hofer_length; Cal scales as a^4."""
    H = radial_bump(amp=amp, rho=0.8, m=m)
    grid = square_grid(65)
    (member,) = alx.shrinking_calabi_sequence(H, [a], node_count=65, nt=33)
    base = cal_path(H, grid, 33)
    assert member.cal == pytest.approx(base, rel=1e-12)
    assert member.hofer_len == pytest.approx(hofer_length(H, grid, 33) / a**2, rel=1e-12)
    rescaled = cal_path(alx.rescale(H, a), square_grid(65, extent=1.05 * a), 33)
    assert rescaled == pytest.approx(a**4 * base, rel=1e-12)


def test_shrinking_sequence_validation(bump):
    with pytest.raises(ValueError):
        alx.shrinking_calabi_sequence(bump, [0.5, 0.5])      # not decreasing
    with pytest.raises(ValueError):
        alx.shrinking_calabi_sequence(bump, [1.5, 0.5])      # out of range
    with pytest.raises(ValueError):
        alx.shrinking_calabi_sequence(loop_bump(amp=0.05), [0.5, 0.25])


def test_shrinking_sequence_fixed_grid_resolution(bump):
    grid = square_grid(65)
    with pytest.raises(ValueError, match="4 grid cells"):
        alx.shrinking_calabi_sequence(bump, [0.5, 0.05], grid=grid)


def test_sequence_csv(tmp_path, bump):
    diags = alx.shrinking_calabi_sequence(bump, [0.5, 0.25], node_count=129)
    path = tmp_path / "seq.csv"
    alx.sequence_to_csv(diags, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a_i", "cal", "c0_dist", "hofer_len"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.5


# ---------------------------------------------------------------------------
# two-parameter families and the s-Hamiltonian


def test_linear_family_endpoints(bump):
    fam = alx.linear_family(bump)
    pts = np.array([[0.2, 0.1]])
    assert fam.at(0.0)(0.0, pts)[0] == 0.0
    assert fam.at(1.0)(0.0, pts)[0] == pytest.approx(bump(0.0, pts)[0])


def test_alexander_family_is_rescaling(bump):
    fam = alx.alexander_family(bump)
    pts = np.array([[0.1, 0.05]])
    a = 0.5
    assert fam.at(a)(0.0, pts)[0] == pytest.approx(
        a * a * bump(0.0, pts / a)[0], rel=1e-12
    )


def test_s_hamiltonian_rejects_bad_samples(bump):
    fam = alx.linear_family(bump)
    with pytest.raises(ValueError):
        alx.s_hamiltonian(fam, s_samples=[0.001, 0.5], grid=square_grid(65))
    with pytest.raises(ValueError):
        alx.s_hamiltonian(fam, s_samples=[0.5, 1.1], grid=square_grid(65))


@pytest.mark.parametrize("kwargs, name", [
    # one s sample or one t sample leaves nothing to interpolate between
    ({"s_samples": [0.75]}, "s_samples"),
    ({"s_samples": [0.75, 0.75]}, "s_samples"),
    ({"s_samples": [0.5, 0.75], "nt": 1}, "nt"),
])
def test_s_hamiltonian_rejects_too_few_samples(bump, kwargs, name):
    fam = alx.linear_family(bump)
    with pytest.raises(ValueError, match=name):
        alx.s_hamiltonian(fam, grid=square_grid(33), **kwargs)


def test_s_hamiltonian_of_constant_family_vanishes(bump):
    fam = alx.TwoParameterFamily(lambda s: bump, 0.8)
    sham = alx.s_hamiltonian(fam, s_samples=[0.5, 0.75, 1.0], nt=5,
                             grid=square_grid(65), dt=2e-3)
    worst = max(
        float(np.max(np.abs(f.values)))
        for row in sham.values for f in row
    )
    assert worst < 1e-10
    assert all(np.all(row[0].values == 0.0) for row in sham.values)


@pytest.mark.parametrize("s_samples, calls", [([0.5, 1.0], 6), ([0.25, 0.5], 6)])
def test_s_hamiltonian_reuses_the_mid_path_at_the_upper_end(bump, monkeypatch, s_samples, calls):
    # one kernel call per segment per s sample.  A centered sample steps 3
    # sweeps (the mid path backward and two sidearms); at s = 1 the
    # one-sided stencil's arm at s is the mid path's forward sweep, so 4
    seen = []
    kernel = kernels.rk4_bump_flow

    def counting(pts, dt, nsteps, *args):
        support = args[-1]
        live = np.count_nonzero(pts[:, 0] ** 2 + pts[:, 1] ** 2 < support * support)
        seen.append((len(pts), dt, live * nsteps))
        return kernel(pts, dt, nsteps, *args)

    monkeypatch.setattr(kernels, "rk4_bump_flow", counting)
    grid = square_grid(33)
    alx.s_hamiltonian(alx.linear_family(bump), s_samples=s_samples, nt=4, grid=grid, dt=0.05)
    assert len(seen) == calls
    nodes = grid.node_points().reshape(-1, 2)
    live = np.count_nonzero(np.hypot(nodes[:, 0], nodes[:, 1]) < bump.support_radius)
    # 3 segments per sample, of round((1/3) / 0.05) = 7 steps each
    sweeps = [3 if s < 1.0 else 4 for s in s_samples for _ in range(3)]
    assert [n for n, _, _ in seen] == [k * len(nodes) for k in sweeps]
    assert [steps for _, _, steps in seen] == [k * live * 7 for k in sweeps]
    # backward sweeps ride along with their amp negated
    assert all(dt > 0.0 for _, dt, _ in seen)


# s_hamiltonian as it stood when each s sample made separate hamiltonian_path
# sweeps and evaluated its integrand at every node, kept verbatim but for the
# inverse of the mid path, which hamiltonian_path stored then and
# _backward_sweep now gives with the same bits.


def _backward_sweep(H, nt, grid, dt):
    """(phi_H^{t_k})^{-1} at the nodes, k = 0, ..., nt - 1, as (n, n, 2) arrays.

    An autonomous H chains integrate_points(H, t_k, t_{k-1}, ...) from the
    previous image; any other H is re-integrated from t_k back to 0.
    """
    nodes = grid.node_points().reshape(-1, 2)
    times = np.linspace(0.0, 1.0, nt)
    images = [nodes]
    for k in range(1, nt):
        if H.is_autonomous:
            images.append(integrate_points(H, times[k], times[k - 1], images[-1], dt))
        else:
            images.append(integrate_points(H, times[k], 0.0, nodes, dt))
    return [img.reshape(grid.values.shape + (2,)) for img in images]


def _swept_path_s_hamiltonian(family, s_samples, nt, grid, dt, h_s=1e-3):
    qx, qy = grid.nodes()
    times = np.linspace(0.0, 1.0, nt)
    all_values = []
    support = family.support_radius
    for s in s_samples:
        H_mid = family.at(s)
        path_mid = hamiltonian_path(H_mid, nt, grid, dt)
        inverse_mid = _backward_sweep(H_mid, nt, grid, dt)
        if s + h_s <= 1.0:
            # centered stencil
            stencil = [(s + h_s, 0.5 / h_s), (s - h_s, -0.5 / h_s)]
        else:
            # one-sided second-order stencil at the upper end
            stencil = [(s, 1.5 / h_s), (s - h_s, -2.0 / h_s), (s - 2.0 * h_s, 0.5 / h_s)]
        sidearms = []
        for sv, cv in stencil:
            if sv == s:
                # the forward sweep of path_mid is this sidearm's path
                sidearms.append((H_mid, path_mid, cv))
            else:
                Hs = family.at(sv)
                sidearms.append((Hs, hamiltonian_path(Hs, nt, grid, dt), cv))
        integrands = []
        for k, u in enumerate(times):
            y = inverse_mid[k]
            val = np.zeros_like(qx)
            for Hs, path_s, coeff in sidearms:
                val += coeff * Hs(u, path_s.maps[k](y))
            integrands.append(val)
        integrands = np.array(integrands)
        K = cumulative_trapezoid(integrands, times, axis=0, initial=0.0)
        # gauge: pin K to zero at the grid corner, outside every support
        K -= K[:, :1, :1]
        outside = np.hypot(qx, qy) >= support
        K[:, outside] = 0.0
        all_values.append([grid.with_values(K[k]) for k in range(nt)])
    return all_values


@pytest.mark.parametrize("family, n", [
    (lambda: alx.linear_family(radial_bump(0.05, 0.8, 4)), 65),
    (lambda: alx.alexander_family(radial_bump(0.05, 0.8, 4)), 65),
    # every sweep takes its own integrate_points: a non-autonomous family,
    # and clouds whose live nodes overflow one kernel block
    (lambda: alx.linear_family(loop_bump(0.05)), 33),
    (lambda: alx.linear_family(radial_bump(0.05, 0.8, 4)), 129),
], ids=["linear", "alexander", "loop", "linear-past-one-block"])
def test_s_hamiltonian_bits_match_swept_paths(family, n):
    fam = family()
    kw = dict(s_samples=np.array([0.5, 0.75, 1.0]), nt=5, grid=square_grid(n), dt=1e-2)
    got = alx.s_hamiltonian(fam, **kw)
    want = _swept_path_s_hamiltonian(fam, **kw)
    for got_row, want_row in zip(got.values, want, strict=True):
        for g, w in zip(got_row, want_row, strict=True):
            assert np.array_equal(g.values, w.values)
    assert max(np.max(np.abs(g.values)) for g in got.values[-1]) > 1e-3


# _s_integrand as it stood before grids.values_at, kept verbatim but for
# the map's value path, the fixture's copy that evaluates one grid at a time.

def _head_s_integrand(arms, u, grid, images, y, plane_map_call):
    val = np.zeros(len(y))
    for (Hs, coeff), img in zip(arms, images):
        phi = PlaneMap.from_node_images(grid, img, Hs.support_radius)
        val += coeff * Hs(u, plane_map_call(phi, y))
    return val


@pytest.mark.parametrize("s", [0.5, 1.0], ids=["centered", "one-sided"])
def test_s_integrand_bits_match_one_arm_at_a_time(s, head_plane_map_call):
    # the arms of s_hamiltonian's stencil at s, on its sweeps' node images;
    # y spans several blocks and reaches past every arm's support
    fam = alx.alexander_family(radial_bump(0.05, 0.8, 4))
    grid = square_grid(65)
    h = alx.S_STEP
    if s + h <= 1.0:
        stencil = [(s + h, 0.5 / h), (s - h, -0.5 / h)]
    else:
        stencil = [(s, 1.5 / h), (s - h, -2.0 / h), (s - 2.0 * h, 0.5 / h)]
    H_mid = fam.at(s)
    arms = [(H_mid if sv == s else fam.at(sv), cv) for sv, cv in stencil]
    sweeps = [(H_mid, True)] + [(Hs, False) for Hs, _ in arms]
    nodes = grid.node_points().reshape(-1, 2)
    sel = np.union1d([0], np.flatnonzero(np.hypot(nodes[:, 0], nodes[:, 1]) < 0.9))
    assert len(sel) > 2048
    steps = [(0.0, [nodes] * len(arms), nodes[sel])]
    for u, imgs in zip(np.linspace(0.0, 1.0, 5)[1:], sweep_nodes(sweeps, 5, grid, 1e-2)):
        steps.append((u, imgs[1:], imgs[0][sel]))
    for u, images, y in steps:
        got = alx._s_integrand(arms, u, grid, images, y)
        want = _head_s_integrand(arms, u, grid, images, y, head_plane_map_call)
        assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(got)) > 1e-3


@pytest.fixture(scope="module")
def linear_sham(bump):
    fam = alx.linear_family(bump)
    sham = alx.s_hamiltonian(fam, s_samples=np.linspace(0.125, 1.0, 8),
                             nt=9, grid=square_grid(65), dt=2e-3)
    return fam, sham


def test_s_hamiltonian_gauge(linear_sham):
    _, sham = linear_sham
    assert all(np.all(row[0].values == 0.0) for row in sham.values)
    # vanishes outside the support up to interpolation round-off
    pts = np.array([[0.85, 0.0], [0.0, -0.9]])
    assert np.max(np.abs(sham(0.5, 1.0, pts))) < 1e-8


def test_s_path_calabi_matches_end_path(linear_sham):
    fam, sham = linear_sham
    cal_k, cal_h = alx.calabi_match(sham, fam, grid=square_grid(129), nt=33)
    assert cal_k == pytest.approx(cal_h, abs=1e-3 * max(1.0, abs(cal_h)))


def _simpson_slices(H, grid, nt):
    """Composite Simpson over s of one node sum per s sample."""
    times = np.linspace(0.0, 1.0, nt)
    vals = np.array([spatial_integral(H, t, grid) for t in times])
    return np.sum(_simpson_weights(nt) * vals) * (times[1] - times[0])


@pytest.fixture(scope="module")
def two_sample_sham(bump):
    # s in [0, 0.55) lies below the first sample: K(., 1, .) extrapolates there
    fam = alx.linear_family(bump)
    sham = alx.s_hamiltonian(fam, s_samples=[0.55, 1.0], nt=5,
                             grid=square_grid(65), dt=4e-3)
    return fam, sham


def _random_sham(rng, n_s):
    g = square_grid(33)
    s_samples, t_samples = np.linspace(0.0625, 1.0, n_s), np.array([0.0, 0.5, 1.0])
    values = [[g.with_values(rng.random((33, 33))) for _ in t_samples]
              for _ in s_samples]
    return alx.SHamiltonian(s_samples, t_samples, values, 0.8)


@pytest.mark.parametrize("n_s", [2, 16])
def test_s_path_calabi_equals_the_per_slice_simpson_sum(n_s, two_sample_sham, rng):
    # K(s, 1, .) blends the stored K(s_i, 1, .): Cal of the s-path takes one
    # node sum per s sample and agrees with one node sum per s up to rounding
    sham = two_sample_sham[1] if n_s == 2 else _random_sham(rng, n_s)
    assert len(sham.s_samples) == n_s and sham.s_samples[0] > 0.0
    grid = square_grid(129)
    K1 = sham.time_one_field()
    assert cal_path(K1, grid, 65) == pytest.approx(_simpson_slices(K1, grid, 65),
                                                   rel=1e-13)


def test_time_one_profiles_are_the_last_t_grids_under_the_mask(rng):
    sham = _random_sham(rng, 3)
    weights, profiles = sham.time_one_field().time_profiles
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    inside = np.hypot(pts[:, 0], pts[:, 1]) < sham.support_radius
    for row, P in zip(sham.values, profiles):
        vals = P(0.3, pts)
        assert np.array_equal(vals[inside], row[-1](pts[inside]))
        assert np.all(vals[~inside] == 0.0)
    # the weights of _interp, with linear extrapolation below the first sample
    for s in (0.0, 0.25, 0.53125, 1.0):
        i0, w = sham._interp(sham.s_samples, s)
        expected = np.zeros(3)
        expected[i0:i0 + 2] = 1.0 - w, w
        assert np.array_equal(weights(s), expected)


def test_calabi_match_evaluates_each_s_sample_once(two_sample_sham, monkeypatch):
    fam, sham = two_sample_sham
    calls = []
    call = GridField2D.__call__

    def counting(self, points):
        calls.append(self)
        return call(self, points)

    monkeypatch.setattr(GridField2D, "__call__", counting)
    alx.calabi_match(sham, fam, grid=square_grid(65), nt=9)
    assert calls == [row[-1] for row in sham.values]


def test_s_flow_reaches_end_map(linear_sham):
    # the flow of K(., 1, .) in s reaches s -> phi_{H(s)}^1 at s = 1
    fam, sham = linear_sham
    nodes = square_grid(65).node_points().reshape(-1, 2)
    via_k = integrate_points(sham.time_one_field(), 0.0, 1.0, nodes, 2e-3)
    direct = integrate_points(fam.at(1.0), 0.0, 1.0, nodes, 2e-3)
    assert float(np.max(np.hypot(*(via_k - direct).T))) < 5e-3


def test_blended_s_hamiltonian_equals_per_grid_sum(rng):
    g = square_grid(33)
    s_samples, t_samples = np.array([0.25, 0.5, 1.0]), np.array([0.0, 0.5, 1.0])
    values = [[g.with_values(rng.normal(size=(33, 33))) for _ in t_samples]
              for _ in s_samples]
    sham = alx.SHamiltonian(s_samples, t_samples, values, 0.8)
    pts = rng.uniform(-1.05, 1.05, size=(300, 2))
    # interior (s, t), a sample s, and s extrapolated below the first sample
    for s, t in ((0.4, 0.3), (0.5, 0.7), (0.1, 0.8), (0.0, 1.0)):
        (i0, wi), (k0, wk) = sham._interp(s_samples, s), sham._interp(t_samples, t)
        reference = sum(
            ci * ck * values[i0 + di][k0 + dk](pts)
            for di, ci in ((0, 1.0 - wi), (1, wi))
            for dk, ck in ((0, 1.0 - wk), (1, wk))
        )
        assert np.max(np.abs(sham(s, t, pts) - reference)) < 1e-14


def test_time_one_field_gradient_matches_finite_differences(linear_sham, rng, fd4_x_h):
    _, sham = linear_sham
    K1 = sham.time_one_field()
    fd = ScalarTimeField(lambda s, pts: sham(s, 1.0, pts), sham.support_radius)
    r = 0.85 * np.sqrt(rng.random(400))
    angle = 2.0 * np.pi * rng.random(400)
    pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    z = np.ascontiguousarray(pts.T)
    grad = np.empty_like(z)
    with pytest.raises(TypeError):
        fd.gradient_into(0.5, z, grad)
    for s in (0.05, 0.3, 0.5625, 1.0):
        K1.gradient_into(s, z, grad)
        analytic = np.stack([grad[1], -grad[0]], axis=-1)
        assert np.max(np.abs(analytic - fd4_x_h(fd, s, pts, 1e-4))) < 1e-7
        assert np.all(analytic[r >= sham.support_radius] == 0.0)


def test_spline_s_flow_is_the_exact_rotation(bump, rng):
    # K(s, t, .) = t H on 129 nodes, so the s-flow of K(., 1, .) over
    # s in [0, 1] is the exact time-one rotation of the radial bump
    g = square_grid(129)
    zero, k = g, sample(g, lambda pts: bump(0.0, pts))
    sham = alx.SHamiltonian(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                            [[zero, k], [zero, k]], bump.support_radius)
    r = np.concatenate([0.75 * np.sqrt(rng.random(180)), 0.8 + 0.2 * rng.random(20)])
    angle = 2.0 * np.pi * rng.random(200)
    pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    out = integrate_points(sham.time_one_field(), 0.0, 1.0, pts, dt=2e-3)
    inside = r < bump.support_radius
    exact = bump.exact_flow(0.0, 1.0, pts[inside])
    assert np.max(np.hypot(*(out[inside] - exact).T)) < 5e-6
    assert np.array_equal(out[~inside], pts[~inside])


def alexander_k_radial(a, t, z, amp=0.05, rho=0.8, m=4):
    """K(a, t, z) of the Alexander family of the radial bump h(r) = amp (1 - r^2/rho^2)_+^m.

    H_a = a^2 H(t, x/a) gives phi_a^t = delta_a o phi^t o delta_a^{-1}.  With
    lambda = q dp - p dq and the Euler field E(x) = x,
    (phi^t)^* lambda - lambda = dS_t where
    S_t(y) = int_0^t (2H - E . grad H)(u, phi^u(y)) du.  Then
    K(a, t, z) = a S_t((phi^t)^{-1}(z / a)).  An autonomous radial H keeps
    r = |y| along its flow, so K = a t (2 h(r) - r h'(r)) at r = |z| / a.
    """
    z = np.asarray(z, dtype=np.float64)
    # v = r^2 / rho^2 and u = 1 - v: 2 h - r h' = amp u^(m-1) (2 u + 2 m v)
    v = (z[..., 0] ** 2 + z[..., 1] ** 2) / (a * a * rho * rho)
    u = np.maximum(1.0 - v, 0.0)
    return a * t * amp * u ** (m - 1) * (2.0 * u + 2.0 * m * v)


def test_s_hamiltonian_matches_the_radial_closed_form():
    grid = square_grid(65)
    sham = alx.s_hamiltonian(alx.alexander_family(radial_bump(0.05, 0.8, 4)),
                             s_samples=[0.5, 0.75, 1.0], nt=17, grid=grid, dt=2e-3)
    nodes = grid.node_points()
    gap = signal = 0.0
    for row, s in zip(sham.values, sham.s_samples):
        for t in (0.5, 1.0):
            want = alexander_k_radial(s, t, nodes)
            got = row[int(np.flatnonzero(sham.t_samples == t)[0])].values
            gap = max(gap, float(np.max(np.abs(got - want))))
            signal = max(signal, float(np.max(np.abs(want))))
    assert signal == pytest.approx(0.1)
    assert gap < 1e-6
