"""Rescaling isotopies, the s-Hamiltonian, and the shrinking sequence."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import alexander as alx
from disclab.calabi import cal_path
from disclab.fields import ScalarTimeField, loop_bump, radial_bump, zero_field
from disclab.flows import hofer_length, integrate_points, vector_field
from disclab.grids import sample, square_grid


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_validation(bump):
    for a in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            alx.rescale(bump, a)
    with pytest.raises(ValueError):
        alx.rescale(zero_field(support_radius=None), 0.5)
    with pytest.raises(ValueError):
        alx.rescale(bump, 0.5, eta=0.5)   # support 0.8 > 1 - eta


def test_rescale_identity_scale(bump):
    rp = alx.rescale(bump, 1.0)
    assert rp.hamiltonian is bump
    assert rp.scale == 1.0


def test_rescale_functoriality(bump, rng):
    a, b = 0.6, 0.5
    one = alx.rescale(alx.rescale(bump, a).hamiltonian, b).hamiltonian
    two = alx.rescale(bump, a * b).hamiltonian
    pts = rng.uniform(-0.2, 0.2, size=(40, 2))
    assert np.allclose(one(0.0, pts), two(0.0, pts), rtol=1e-12)


def test_conjugated_flow_matches_rescaled_hamiltonian(bump):
    a = 0.5
    rp = alx.rescale(bump, a)
    pts = np.array([[0.1, 0.05], [0.2, -0.15], [0.0, 0.3]])
    conj = rp.conjugated_point_flow(0.0, 1.0, pts, dt=1e-3)
    direct = integrate_points(rp.hamiltonian, 0.0, 1.0, pts, dt=1e-3)
    assert np.max(np.abs(conj - direct)) < 1e-6


def test_cal_fourth_power_law(bump, grid257):
    base = cal_path(bump, grid257)
    for a in (0.5, 0.25, 0.75):
        K = alx.rescale(bump, a).hamiltonian
        grid_a = square_grid(257, extent=1.05 * a)
        cal_a = cal_path(K, grid_a)
        assert cal_a / base == pytest.approx(a**4, rel=1e-6)


# ---------------------------------------------------------------------------
# reparametrization


def test_reparametrize_linear_time_change(bump, grid257):
    K = alx.reparametrize(bump, lambda t: 0.5 * t, lambda t: 0.5)
    # autonomous base: Cal scales by chi(1) - chi(0)
    assert cal_path(K, grid257) == pytest.approx(0.5 * cal_path(bump, grid257),
                                                 rel=1e-9)


def test_reparametrize_finite_difference_derivative(bump):
    K = alx.reparametrize(bump, lambda t: t * t)
    pts = np.array([[0.3, 0.1]])
    assert K(0.5, pts)[0] == pytest.approx(1.0 * bump(0.25, pts)[0], rel=1e-5)


def test_reparametrize_accepts_loop_profile(bump, grid257):
    chi = lambda t: math.sin(math.pi * t) ** 2
    dchi = lambda t: math.pi * math.sin(2.0 * math.pi * t)
    L = alx.reparametrize(bump, chi, dchi)
    assert abs(cal_path(L, grid257)) < 1e-8
    # the loop returns to the identity at time one
    pts = np.array([[0.3, 0.2], [0.1, -0.4]])
    out = integrate_points(L, 0.0, 1.0, pts, dt=1e-3)
    assert np.max(np.abs(out - pts)) < 1e-6


def test_reparametrize_rejections(bump):
    with pytest.raises(ValueError):
        alx.reparametrize(bump, lambda t: 1.5 * t)          # leaves [0, 1]
    with pytest.raises(ValueError):
        alx.reparametrize(bump, lambda t: -0.1 + t)         # dips below 0
    with pytest.raises(ValueError):
        alx.reparametrize(bump, lambda t: 0.5 + 0.4 * math.sin(16 * math.pi * t))


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
    rescaled = cal_path(alx.rescale(H, a).hamiltonian, square_grid(65, extent=1.05 * a), 33)
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


def test_s_hamiltonian_of_constant_family_vanishes(bump):
    fam = alx.TwoParameterFamily(lambda s: bump, 0.8)
    sham = alx.s_hamiltonian(fam, s_samples=[0.5, 0.75, 1.0], nt=5,
                             grid=square_grid(65), dt=2e-3)
    worst = max(
        float(np.max(np.abs(f.values)))
        for row in sham.values for f in row
    )
    assert worst < 1e-10
    assert sham.gauge_defect() == 0.0


@pytest.fixture(scope="module")
def linear_sham(bump):
    fam = alx.linear_family(bump)
    sham = alx.s_hamiltonian(fam, s_samples=np.linspace(0.125, 1.0, 8),
                             nt=9, grid=square_grid(65), dt=2e-3)
    return fam, sham


def test_s_hamiltonian_gauge(linear_sham):
    _, sham = linear_sham
    assert sham.gauge_defect() == 0.0
    # vanishes outside the support up to interpolation round-off
    pts = np.array([[0.85, 0.0], [0.0, -0.9]])
    assert np.max(np.abs(sham(0.5, 1.0, pts))) < 1e-8


def test_s_path_calabi_matches_end_path(linear_sham):
    fam, sham = linear_sham
    cal_k, cal_h = alx.calabi_match(sham, fam, grid=square_grid(129), nt=33)
    assert cal_k == pytest.approx(cal_h, abs=1e-3 * max(1.0, abs(cal_h)))


def test_s_flow_reaches_end_map(linear_sham):
    fam, sham = linear_sham
    gap = alx.s_flow_check(sham, fam, grid=square_grid(65))
    assert gap < 5e-3


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


def test_time_one_field_gradient_matches_finite_differences(linear_sham, rng):
    _, sham = linear_sham
    K1 = sham.time_one_field()
    fd = ScalarTimeField(lambda s, pts: sham(s, 1.0, pts), sham.support_radius)
    assert K1.has_gradient and not fd.has_gradient
    r = 0.85 * np.sqrt(rng.random(400))
    angle = 2.0 * np.pi * rng.random(400)
    pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    for s in (0.05, 0.3, 0.5625, 1.0):
        analytic = vector_field(K1, s, pts)
        assert np.max(np.abs(analytic - vector_field(fd, s, pts))) < 1e-7
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


def test_rescaling_k_decomposition_consistency(bump):
    fam = alx.alexander_family(bump)
    grid = square_grid(65)
    sham = alx.s_hamiltonian(fam, s_samples=[0.375, 0.5, 0.625], nt=9,
                             grid=grid, dt=2e-3)
    rest_measured, rest_direct = alx.rescaling_k_decomposition(
        sham, bump, 0.5, grid=grid
    )
    assert rest_measured == pytest.approx(rest_direct,
                                          abs=1e-3 * max(1.0, abs(rest_direct)))
