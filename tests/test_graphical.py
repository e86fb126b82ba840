"""Graphicality, one-form recovery, and the rescaled-potential chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import graphical as gr
from disclab.calabi import ray_primitives
from disclab.fields import twist_bump
from disclab.flows import PlaneMap, flow_map
from disclab.grids import sample, square_grid


coef = st.floats(-3.0, 3.0, allow_nan=False)


# ---------------------------------------------------------------------------
# star-shape determinant


def starshape_det(A, r):
    """det(I - r jA) by closed form, checked against the direct 2x2 expansion."""
    closed, direct = gr.starshape_expansions(A, r)
    assert np.all(np.abs(direct - closed) <= 1e-13 * np.maximum(1.0, np.abs(closed)))
    return closed


def test_starshape_closed_forms():
    zero = gr.SymmetricMatrix2(0.0, 0.0, 0.0)
    assert starshape_det(zero, 0.7) == 1.0
    diag = gr.SymmetricMatrix2(1.0, 1.0, 0.0)
    assert starshape_det(diag, 1.0) == pytest.approx(2.0)
    off = gr.SymmetricMatrix2(0.0, 0.0, 1.0)
    assert starshape_det(off, 0.5) == pytest.approx(1.0 - 0.25)


def test_starshape_det_takes_arrays():
    # one call over broadcast arrays gives the bits of the scalar calls
    a, b, c = np.random.default_rng(3).normal(size=(3, 20, 1))
    rs = np.linspace(0.0, 1.0, 11)
    dets = starshape_det(gr.SymmetricMatrix2(a, b, c), rs[None, :])
    assert dets.shape == (20, 11)
    want = [[starshape_det(gr.SymmetricMatrix2(float(x), float(y), float(z)), float(r))
             for r in rs] for x, y, z in zip(a[:, 0], b[:, 0], c[:, 0])]
    assert np.array_equal(dets, want)


@settings(deadline=None, max_examples=200)
@given(coef, coef, coef)
def test_starshape_positivity_property(a, b, c):
    A = gr.SymmetricMatrix2(a, b, c)
    disc = a * b - c * c
    rs = np.linspace(0.0, 1.0, 101)
    dets = np.array([starshape_det(A, r) for r in rs])
    if 1.0 + disc > 1e-12:
        assert np.all(dets > 0.0)


# ---------------------------------------------------------------------------
# midpoint map and graphicality


def test_midpoint_of_identity(grid65):
    ident = PlaneMap.identity(grid65, 0.8)
    kappa = gr.midpoint_map(ident)
    assert kappa.displacement_norm() < 1e-12
    _, ok, min_det = gr.scan(ident)
    assert ok
    assert min_det == pytest.approx(1.0, abs=1e-12)


def test_midpoint_rescaling_chain_rule(bump_map_129):
    # d(kappa_a) at node a*q equals d(kappa_1) at node q, exactly on the
    # adapted grids
    k1 = gr.midpoint_map(bump_map_129)
    ka = gr.midpoint_map(gr._rescaled_map(bump_map_129, 0.5))
    assert np.allclose(ka.det_jacobian(), k1.det_jacobian(), atol=1e-10)


def test_gentle_flow_is_graphical(bump_map_257):
    _, ok, min_det = gr.scan(bump_map_257)
    assert ok
    assert min_det > 0.5


def test_strong_twist_is_not_graphical():
    H = twist_bump(angle=4.0, rho=0.8, m=4)
    phi = flow_map(H, 1.0, grid=square_grid(257), dt=1e-3)
    _, ok, min_det = gr.scan(phi)
    assert not ok
    assert min_det <= 1e-3


def twist_midpoint_det(H, r):
    """Closed-form det d(kappa) at radius r for the time-one map of a radial bump H.

    The map rotates the circle of radius r by theta(r), the integrated
    rotation rate, so kappa sends polar (r, a) to (r cos(theta/2),
    a + theta/2), and det d(kappa) = cos(theta/2) (cos(theta/2) - r theta'
    sin(theta/2) / 2).  At r = 0 it is cos^2(theta(0)/2).
    """
    u = np.maximum(1.0 - r * r / (H.rho * H.rho), 0.0)
    peak = 2.0 * H.m * H.amp / (H.rho * H.rho)
    theta = peak * u ** (H.m - 1)
    dtheta = -2.0 * peak * (H.m - 1) * r / (H.rho * H.rho) * u ** (H.m - 2)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return c * (c - 0.5 * r * dtheta * s)


@pytest.mark.parametrize("angle, graphical", [
    (0.8, True), (2.6, True), (3.0, True),
    # cos^2(theta(0)/2) under MIN_DET, and a centre twisted past pi
    (3.11, False), (3.17, False),
])
def test_scan_matches_the_closed_form_midpoint_determinant(angle, graphical):
    # kappa is proper, so the verdict rests on min det d(kappa) alone
    H = twist_bump(angle=angle, rho=0.8, m=4)
    grid = square_grid(129)
    kappa, ok, min_det = gr.scan(flow_map(H, 1.0, grid=grid, dt=1e-3))
    inside = kappa.interior_nodes(kappa.support_radius)
    closed = twist_midpoint_det(H, np.hypot(*grid.nodes()))[inside]
    assert np.max(np.abs(kappa.det_jacobian()[inside] - closed)) < 5e-4
    assert min_det == pytest.approx(closed.min(), abs=1e-5)
    assert (closed.min() > gr.MIN_DET) == graphical
    assert ok is graphical


# ---------------------------------------------------------------------------
# one-form recovery


@pytest.fixture(scope="module")
def bump_form(bump_map_257):
    return gr.recover_one_form(bump_map_257)


def test_recovered_form_is_closed(bump_form):
    assert bump_form.closedness_residual() < 5e-5


def test_recovered_form_vanishes_outside_support(bump_form):
    pts = np.array([[0.85, 0.0], [0.0, 0.95]])
    assert np.max(np.abs(bump_form(pts))) == 0.0


@pytest.fixture(scope="module")
def twist_map_129():
    H = twist_bump(angle=4.0, rho=0.8, m=4)
    return flow_map(H, 1.0, grid=square_grid(129), dt=1e-3)


def test_recover_rejects_non_graphical(twist_map_129):
    with pytest.raises(ValueError, match="not graphical"):
        gr.recover_one_form(twist_map_129)


def test_recover_on_identity_gives_zero(grid65):
    ident = PlaneMap.identity(grid65, 0.8)
    alpha = gr.recover_one_form(ident)
    assert np.max(np.abs(alpha.a1.values)) < 1e-12
    assert np.max(np.abs(alpha.a2.values)) < 1e-12


def test_form_encodes_the_graph(bump_form, bump_map_257):
    # at a chart node q with kappa(y) = q, alpha(q) = -j(phi(y) - y); check
    # by re-solving the midpoint equation at a few probes
    kappa = gr.midpoint_map(bump_map_257)
    probes = np.array([[0.2, 0.1], [-0.3, 0.25], [0.0, 0.4]])
    y = kappa.newton_invert(probes)
    from disclab.chart import jmap

    expected = -jmap(bump_map_257(y) - y)
    assert np.max(np.abs(bump_form(probes) - expected)) < 1e-4


# ---------------------------------------------------------------------------
# potential integration


def test_integrate_zero_form(grid65):
    zero = gr.OneFormField(grid65, grid65.with_values(np.zeros((65, 65))), 0.8)
    g = gr.integrate_generating(zero, base_value=0.25)
    assert np.allclose(g.values, 0.25)


def test_integrate_rejects_non_closed(grid65):
    # alpha = c(-y dx + x dy) has curl 2c everywhere
    a1 = sample(grid65, lambda pts: -pts[..., 1])
    a2 = sample(grid65, lambda pts: pts[..., 0])
    alpha = gr.OneFormField(a1, a2, 0.8)
    with pytest.raises(ValueError, match="circulation"):
        gr.integrate_generating(alpha)


def test_gradient_recovers_form(bump_form):
    g = gr.integrate_generating(bump_form)
    # g is the row-ray family; the column rays agree with it (path independence)
    rows, cols = ray_primitives(bump_form.a1.values, bump_form.a2.values, g.spacing)
    assert np.array_equal(g.values, rows)
    assert np.max(np.abs(rows - cols)) < 1e-4
    d1, d2 = g.gradient()
    core = (slice(4, -4), slice(4, -4))
    assert np.max(np.abs(d1.values[core] - bump_form.a1.values[core])) < 1e-4
    assert np.max(np.abs(d2.values[core] - bump_form.a2.values[core])) < 1e-4


def test_exact_gradient_round_trip(grid129):
    # start from g = polynomial bump, differentiate analytically, integrate back
    def gfun(pts):
        u = 1.0 - (pts[..., 0] ** 2 + pts[..., 1] ** 2) / 0.36
        return 0.05 * np.where(u > 0.0, u, 0.0) ** 4

    def dg(pts):
        u = 1.0 - (pts[..., 0] ** 2 + pts[..., 1] ** 2) / 0.36
        fac = 0.05 * 4 * np.where(u > 0.0, u, 0.0) ** 3 * (-2.0 / 0.36)
        return fac[..., None] * pts

    a1 = sample(grid129, lambda pts: dg(pts)[..., 0])
    a2 = sample(grid129, lambda pts: dg(pts)[..., 1])
    alpha = gr.OneFormField(a1, a2, 0.8)
    g = gr.integrate_generating(alpha)
    target = sample(grid129, gfun)
    assert np.max(np.abs(g.values - target.values)) < 1e-4


# ---------------------------------------------------------------------------
# trace-chain potentials


@pytest.fixture(scope="module")
def chain(bump_map_257):
    return gr.trace_chain_potentials(bump_map_257, [0.5, 0.25])


def test_trace_chain_scaling_law(chain):
    assert gr.scaling_defect(chain, [0.5, 0.25]) < 5e-5


def test_trace_chain_base_member(chain, bump_form):
    g_direct = gr.integrate_generating(bump_form)
    g1 = chain[1.0]
    assert np.max(np.abs(g1.values - g_direct.values)) < 1e-12


def test_trace_chain_scans_each_member_once(bump_map_129, monkeypatch):
    # the base map's form serves a = 1: one midpoint map per scale
    built = []
    midpoint = gr.midpoint_map
    monkeypatch.setattr(gr, "midpoint_map",
                        lambda phi: built.append(phi) or midpoint(phi))
    potentials = gr.trace_chain_potentials(bump_map_129, [0.5, 0.25, 0.5, 1.0])
    assert list(potentials) == [1.0, 0.5, 0.25]
    assert len(built) == 3
    assert built[0] is bump_map_129
    # the rescaled maps are recovered in the order of the scales
    assert [phi.support_radius for phi in built[1:]] == pytest.approx([0.4, 0.2])


def test_trace_chain_rejects_non_graphical_base(twist_map_129, monkeypatch):
    def no_rescaling(phi, a):
        raise AssertionError("rescaled a non-graphical base map")

    monkeypatch.setattr(gr, "_rescaled_map", no_rescaling)
    with pytest.raises(ValueError, match="not graphical"):
        gr.trace_chain_potentials(twist_map_129, [0.5, 0.25])


def test_trace_chain_dgada_first_order(bump_map_257, rng):
    h_a = 0.125
    potentials = gr.trace_chain_potentials(
        bump_map_257,
        [0.5 - h_a, 0.5, 0.5 + h_a, 0.5 - h_a / 2, 0.5 + h_a / 2],
    )
    probes = rng.uniform(-0.2, 0.2, size=(32, 2))
    d_full = gr.trace_chain_dgada(potentials, 0.5, h_a, probes)
    d_half = gr.trace_chain_dgada(potentials, 0.5, h_a / 2, probes)
    assert d_half <= max(0.75 * d_full, 1e-8)
    with pytest.raises(ValueError, match="missing"):
        gr.trace_chain_dgada(potentials, 0.5, 0.3, probes)   # scales not in the dict
