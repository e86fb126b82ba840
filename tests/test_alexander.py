"""Rescaling isotopies, the s-Hamiltonian, and the shrinking sequence."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import alexander as alx
from disclab import kernels
from disclab.calabi import cal_path, spatial_integral
from disclab.fields import ScalarTimeField, loop_bump, moving_bump, radial_bump, zero_field
from disclab.flows import _simpson_weights, hofer_length, integrate_points
from disclab.grids import GridField2D, blend, sample, square_grid


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
        alx.s_hamiltonian(fam, s_samples=[0.0, 0.5], grid=square_grid(65))
    with pytest.raises(ValueError):
        alx.s_hamiltonian(fam, s_samples=[-0.25, 0.5], grid=square_grid(65))
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
    # the constant family's Euler row (0, 0) writes dH/ds = 0
    fam = alx.TwoParameterFamily(lambda s: bump, 0.8, euler=lambda s: (0.0, 0.0))
    sham = alx.s_hamiltonian(fam, s_samples=[0.5, 0.75, 1.0], nt=5,
                             grid=square_grid(65), dt=2e-3)
    worst = max(
        float(np.max(np.abs(f.values)))
        for row in sham.values for f in row
    )
    assert worst < 1e-10
    assert all(np.all(row[0].values == 0.0) for row in sham.values)


class _RecordedRuns:
    """Wraps kernels.rk4 and records each run's state shape, segments and final state."""

    def __init__(self, monkeypatch):
        self.runs = []
        rk4 = kernels.rk4

        def recording(segments, z_all):
            segments = list(segments)
            run = {"shape": z_all.shape, "steps": [(dt, n) for _, dt, n in segments]}
            self.runs.append(run)
            for z in rk4(segments, z_all):
                run["end"] = z.copy()
                yield z

        monkeypatch.setattr(kernels, "rk4", recording)


def _live_count(grid, radius):
    nodes = grid.node_points().reshape(-1, 2)
    return np.count_nonzero(np.hypot(nodes[:, 0], nodes[:, 1]) < radius)


def _reach(H):
    """The radius outside which the bump H moves no node, for a center on one circle."""
    return min(H.support_radius,
               float(np.hypot(*H.center_at(0.0))) + H.rho * (1.0 + kernels.REACH_MARGIN))


@pytest.mark.parametrize("base", [radial_bump, moving_bump], ids=["autonomous", "moving"])
def test_s_hamiltonian_stacks_every_sample_in_one_backward_run(base, monkeypatch):
    # an autonomous H(s) takes one run over the live nodes of every H(s),
    # through every stored time; a moving one takes one run back to 0 per
    # stored t, again over every sample's live nodes side by side
    fam = alx.alexander_family(base(amp=0.05))
    grid, nt, dt = square_grid(33), 5, 0.05
    s_samples = [0.5, 1.0]
    runs = _RecordedRuns(monkeypatch).runs
    alx.s_hamiltonian(fam, s_samples=s_samples, nt=nt, grid=grid, dt=dt)
    times = np.linspace(0.0, 1.0, nt)
    live = [_live_count(grid, _reach(fam.at(s))) for s in s_samples]
    assert live[0] < live[1]
    assert len(runs) == (1 if base is radial_bump else nt - 1)
    assert all(run["shape"] == (3, sum(live)) for run in runs)
    assert all(dt_k < 0.0 for run in runs for dt_k, _ in run["steps"])
    if base is radial_bump:
        # the path's steps, 5 per stored time, once
        assert [n for _, n in runs[0]["steps"]] == [5] * (nt - 1)
    else:
        assert [[n for _, n in run["steps"]] for run in runs] == [
            [round(t / dt)] for t in times[1:]]


@pytest.mark.parametrize("base", [radial_bump, moving_bump], ids=["autonomous", "moving"])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_s_hamiltonian_runs_invert_the_time_one_map(base, m, monkeypatch):
    # the position rows of the run that ends K(s, 1, .) are (phi_s^1)^{-1}
    # at the live nodes: flowing them forward returns the nodes.  RK4's
    # global error is O((omega dt)^4 omega t) at the peak rotation rate
    H = base(amp=0.05, m=m)
    fam = alx.linear_family(H)
    grid, dt, s = square_grid(65), 1e-2, 0.75
    runs = _RecordedRuns(monkeypatch).runs
    alx.s_hamiltonian(fam, s_samples=[0.5, s], nt=3, grid=grid, dt=dt)
    monkeypatch.undo()
    # the last run's columns hold the live nodes of s = 0.5, then of s
    nodes = grid.node_points().reshape(-1, 2)
    live = nodes[np.hypot(nodes[:, 0], nodes[:, 1]) < _reach(H)]
    assert runs[-1]["end"].shape == (3, 2 * len(live))
    back = runs[-1]["end"][:2, len(live):].T
    assert np.max(np.abs(back - live)) > 1e-3
    omega = 2.0 * m * s * H.amp / H.rho**2
    tol = (omega * dt) ** 4 * omega + 1e-12
    assert np.max(np.abs(integrate_points(fam.at(s), 0.0, 1.0, back, dt) - live)) < tol


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
    assert np.max(np.abs(sham.field_at(0.5)(pts))) < 1e-8


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
    # K(s, 1, .) at an interior s, a sample s, and s extrapolated below the
    # first sample
    for s in (0.4, 0.5, 0.1, 0.0):
        i0, w = sham._interp(s_samples, s)
        reference = sum(c * values[i0 + di][-1](pts) for di, c in ((0, 1.0 - w), (1, w)))
        assert np.max(np.abs(sham.field_at(s)(pts) - reference)) < 1e-14


def _head_field_at(sham, s, t):
    # SHamiltonian.field_at as it stood with a t axis, kept verbatim but for
    # `self` passed as an argument and no cache: the bilinear blend in (s, t)
    (i0, wi), (k0, wk) = sham._interp(sham.s_samples, s), sham._interp(sham.t_samples, t)
    terms = [
        (ci * ck, sham.values[i0 + di][k0 + dk])
        for di, ci in ((0, 1.0 - wi), (1, wi))
        for dk, ck in ((0, 1.0 - wk), (1, wk))
        if ci * ck != 0.0
    ]
    return blend(terms)


def test_time_one_field_bits_match_the_bilinear_blend_at_t_1(rng):
    # at t = 1 the bilinear blend in (s, t) builds the same terms, in the
    # same order, as the blend in s of the last-t grids
    sham = _random_sham(rng, 3)
    K1 = sham.time_one_field()
    head = ScalarTimeField(
        lambda s, pts: _head_field_at(sham, s, 1.0)(pts), sham.support_radius,
        gradient=lambda s, z, out: _head_field_at(sham, s, 1.0).gradient_into(z, out))
    pts = rng.uniform(-0.85, 0.85, size=(500, 2))
    z = np.ascontiguousarray(pts.T)
    got, want = np.empty_like(z), np.empty_like(z)
    # inside the s samples, at each sample, and below the first, extrapolated
    for s in (0.3, 0.75, 0.0625, 0.53125, 1.0, 0.03125, 0.0):
        assert K1(s, pts).tobytes() == head(s, pts).tobytes()
        K1.gradient_into(s, z, got)
        head.gradient_into(s, z, want)
        assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(want)) > 1e-3


@pytest.mark.parametrize("t_last", [0.5, 1.5])
def test_s_hamiltonian_t_samples_must_end_at_one(t_last):
    g = square_grid(33)
    zero = g.with_values(np.zeros((33, 33)))
    with pytest.raises(ValueError, match="end at 1"):
        alx.SHamiltonian(np.array([0.0, 1.0]), np.array([0.0, t_last]),
                         [[zero, zero], [zero, zero]], 0.8)


def test_time_one_field_gradient_matches_finite_differences(linear_sham, rng, fd4_x_h):
    _, sham = linear_sham
    K1 = sham.time_one_field()
    fd = ScalarTimeField(lambda s, pts: sham.field_at(s)(pts), sham.support_radius)
    r = 0.85 * np.sqrt(rng.random(400))
    angle = 2.0 * np.pi * rng.random(400)
    # the stencil straddles the support's edge circle within its reach,
    # where the mask makes the field jump: those probes are left out
    keep = np.abs(r - sham.support_radius) > 2.0 * 1e-4
    r, angle = r[keep], angle[keep]
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
    assert gap < 1e-12


def test_linear_family_k_is_t_h(bump):
    # s H flows along the level sets of H, so K(s, t, .) = t H
    grid = square_grid(65)
    sham = alx.s_hamiltonian(alx.linear_family(bump), s_samples=[0.25, 0.5, 1.0], nt=9,
                             grid=grid, dt=2e-3)
    H = bump(0.0, grid.node_points())
    for row in sham.values:
        for t, g in zip(sham.t_samples, row, strict=True):
            assert np.max(np.abs(g.values - t * H)) < 1e-12


def test_nonautonomous_s_hamiltonian_self_converges():
    # the moving bump's K takes one backward run per stored time; RK4 at
    # dt 1e-2 against dt 2e-3 differs by 1.4e-8 against a signal of 5.4e-3
    fam = alx.linear_family(moving_bump())
    kw = dict(s_samples=[0.5, 1.0], nt=5, grid=square_grid(65))
    coarse = alx.s_hamiltonian(fam, dt=1e-2, **kw)
    fine = alx.s_hamiltonian(fam, dt=2e-3, **kw)
    gap = max(float(np.max(np.abs(c.values - f.values)))
              for c_row, f_row in zip(coarse.values, fine.values) for c, f in zip(c_row, f_row))
    signal = max(float(np.max(np.abs(f.values))) for f in fine.values[-1])
    assert signal > 5e-3
    assert gap < 3e-8


def _generator_gap(n, a=0.75, h=1e-4, dt=1e-3):
    """max |X_K(a, 1, phi_a^1(y)) - d/da phi_a^1(y)| over probes y, and the max of the latter.

    K(., 1, .) generates the end path a -> phi_a^1 of the moving bump's
    Alexander family: X_K by the spline gradient of K on n nodes, the
    a-derivative by centered differences of step h.
    """
    fam = alx.alexander_family(moving_bump())
    sham = alx.s_hamiltonian(fam, s_samples=[0.5, a], nt=2, grid=square_grid(n), dt=dt)
    rng = np.random.default_rng(2015)
    r = 0.6 * np.sqrt(rng.random(200))
    angle = 2.0 * np.pi * rng.random(200)
    y = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    moved = integrate_points(fam.at(a), 0.0, 1.0, y, dt)
    d_a = (integrate_points(fam.at(a + h), 0.0, 1.0, y, dt)
           - integrate_points(fam.at(a - h), 0.0, 1.0, y, dt)) / (2.0 * h)
    z = np.ascontiguousarray(moved.T)
    grad = np.empty_like(z)
    sham.time_one_field().gradient_into(a, z, grad)
    x_k = np.stack([grad[1], -grad[0]], axis=-1)
    return float(np.max(np.hypot(*(x_k - d_a).T))), float(np.max(np.hypot(*d_a.T)))


def test_time_one_k_generates_the_end_path():
    # the gap falls with the grid, as K's spline error does
    coarse, _ = _generator_gap(65)
    fine, signal = _generator_gap(129)
    assert signal > 0.2
    assert fine < 2e-3
    assert coarse / fine >= 4.0
