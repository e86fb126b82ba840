"""Grid fields and disc quadrature."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import disclab
from disclab.grids import (GridField2D, _collocation_inverse, _disc_weights, blend,
                           cumulative_trapezoid, disc_weights, integrate_disc, sample,
                           square_grid)


# ---------------------------------------------------------------------------
# grid construction and interpolation


def test_square_grid_geometry():
    g = square_grid(65, extent=1.05)
    assert g.n == 65
    lo, hi = g.extent
    assert np.allclose(lo, [-1.05, -1.05])
    assert np.allclose(hi, [1.05, 1.05])
    assert math.isclose(g.spacing, 2.1 / 64)
    # odd node count puts the origin exactly on a node
    qx, qy = g.nodes()
    assert np.min(np.abs(qx)) == 0.0
    assert np.min(np.abs(qy)) == 0.0


@pytest.mark.parametrize("bad", [
    dict(values=np.zeros((8, 8))),                    # too small
    dict(values=np.zeros((20, 30))),                  # not square
    dict(values=np.zeros((20, 20)), spacing=0.0),     # bad spacing
    dict(values=np.zeros((20, 20, 2))),               # not a matrix
    dict(values=np.zeros((20, 20)), spacing=math.nan),
    dict(values=np.zeros((20, 20)), spacing=math.inf),
    dict(values=np.zeros((20, 20)), origin=(math.nan, 0.0)),
    dict(values=np.zeros((20, 20)), origin=(0.0, -math.inf)),
])
def test_grid_field_validation(bad):
    kw = dict(origin=(0.0, 0.0), spacing=0.1)
    kw.update(bad)
    with pytest.raises(ValueError):
        GridField2D(kw["origin"], kw["spacing"], kw["values"])


def test_interpolation_reproduces_node_values(rng):
    g = square_grid(33, extent=1.0)
    f = sample(g, lambda pts: np.sin(3 * pts[..., 0]) * pts[..., 1])
    qx, qy = f.nodes()
    pts = np.stack([qx, qy], axis=-1)
    assert np.max(np.abs(f(pts) - f.values)) < 1e-12


def test_cubic_interpolation_accuracy_off_nodes(rng):
    g = square_grid(129, extent=1.0)
    fn = lambda pts: np.sin(2 * pts[..., 0]) * np.cos(3 * pts[..., 1])
    f = sample(g, fn)
    pts = rng.uniform(-0.8, 0.8, size=(200, 2))
    assert np.max(np.abs(f(pts) - fn(pts))) < 1e-5


def test_gradient_of_linear_field_is_exact():
    g = square_grid(33, extent=1.0)
    f = sample(g, lambda pts: 2.0 * pts[..., 0] - 0.5 * pts[..., 1])
    d1, d2 = f.gradient()
    assert np.allclose(d1.values, 2.0, atol=1e-12)
    assert np.allclose(d2.values, -0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# scipy as the oracle of the prefilter, the mirror rule and the trapezoid


@pytest.mark.parametrize("n", [16, 65, 129])
def test_spline_matches_scipys_mirror_spline(n):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(n)
    f = GridField2D((-1.05, -0.4), 2.1 / (n - 1), rng.uniform(-1.0, 1.0, size=(n, n)))
    coeffs = ndimage.spline_filter(f.values, order=3, mode="mirror")
    assert np.max(np.abs(f._spline_coeffs() - coeffs)) < 1e-13
    # over the extent; up to 0.3 past it there is no spline to evaluate
    pts = _extent_points(f, rng, count=400)
    u = (pts - f.origin) / f.spacing
    ref = ndimage.map_coordinates(coeffs, u.T, order=3, mode="mirror", prefilter=False)
    assert np.max(np.abs(f(pts) - ref)) < 1e-13
    lo, hi = f.extent
    past = rng.uniform(lo - 0.3, hi + 0.3, (400, 2))
    past = past[np.any((past < lo) | (past > hi), axis=1)]
    assert len(past) > 100
    for p in past[:20]:
        with pytest.raises(ValueError, match="extent"):
            f(p)


def test_call_refuses_non_finite_points():
    f = square_grid(33)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        pts = np.array([[0.1, 0.2], bad])
        with pytest.raises(ValueError, match="finite"):
            f(pts)
        out = np.full((2, 2), 7.0)
        with pytest.raises(ValueError, match="finite"):
            f.gradient_into(np.ascontiguousarray(pts.T), out)
        assert np.all(out == 7.0)


def test_collocation_inverse_is_read_only():
    f = GridField2D((0.0, 0.0), 0.1, np.ones((20, 20)))
    assert np.allclose(f._spline_coeffs(), 1.0, rtol=0.0, atol=1e-15)
    assert _collocation_inverse(20) is _collocation_inverse(20)
    with pytest.raises(ValueError):
        _collocation_inverse(20)[0, 0] = 1.0


@pytest.mark.parametrize("axis", [0, 1])
def test_cumulative_trapezoid_is_scipys_bit_for_bit(axis, rng):
    integrate = pytest.importorskip("scipy.integrate")
    y = rng.normal(size=(17, 23))
    x = np.sort(rng.uniform(0.0, 1.0, y.shape[axis]))
    assert np.array_equal(cumulative_trapezoid(y, x, axis=axis),
                          integrate.cumulative_trapezoid(y, x, axis=axis, initial=0.0))
    assert np.array_equal(cumulative_trapezoid(y, dx=0.03, axis=axis),
                          integrate.cumulative_trapezoid(y, dx=0.03, axis=axis, initial=0.0))


def test_import_leaves_scipy_out():
    src = str(Path(disclab.__file__).resolve().parents[1])
    code = ("import sys, disclab, disclab.cli, disclab.experiments\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# analytic spline gradient


def _extent_points(f, rng, count=400):
    """Points spread over f's extent, with extra ones in the two edge cells
    of every side, on the edges themselves and at the corners."""
    lo, hi = f.extent
    band = 2.0 * f.spacing
    pts = [rng.uniform(lo, hi, size=(count, 2))]
    for axis in (0, 1):
        for near_lo in (True, False):
            p = rng.uniform(lo, hi, size=(count // 4, 2))
            p[:, axis] = (rng.uniform(lo[axis], lo[axis] + band, count // 4) if near_lo
                          else rng.uniform(hi[axis] - band, hi[axis], count // 4))
            pts.append(p)
            edge = rng.uniform(lo, hi, size=(8, 2))
            edge[:, axis] = lo[axis] if near_lo else hi[axis]
            pts.append(edge)
    pts.append(np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]]))
    return np.concatenate(pts)


def _centered_fd(f, pts, h=1e-5):
    """Centered differences of f's interpolant, stencils kept inside the extent.

    The points are moved h inside the extent, and the stencil points are
    clamped to the closed extent as well, since x - h rounds below lo when
    x = lo + h does not round to a number h above lo.  Each difference is
    divided by the distance between its two stencil points as stored, so
    rounding x +- h, or a clamp, adds no error.
    """
    lo, hi = f.extent
    pts = np.clip(pts, lo + h, hi - h)
    grad = []
    for step in ([h, 0.0], [0.0, h]):
        up, down = np.minimum(pts + step, hi), np.maximum(pts - step, lo)
        dist = np.hypot(*(up - down).T)
        grad.append((f(up) - f(down)) / dist)
    return pts, np.stack(grad, axis=-1)


def _gradient(f, pts):
    """The spline gradient at (n, 2) points, through gradient_into."""
    out = np.empty((2, len(pts)))
    f.gradient_into(np.ascontiguousarray(pts.T), out)
    return out.T


def _check_value_and_gradient(f, pts):
    assert f(pts).shape == pts.shape[:-1]
    inner, fd = _centered_fd(f, pts)
    assert np.max(np.abs(_gradient(f, inner) - fd)) < 1e-9
    lo, hi = f.extent
    for off in ([hi[0] + 1e-9, 0.5 * (lo[1] + hi[1])], [lo[0], lo[1] - 1e-9],
                [hi[0] + 1.0, hi[1] + 1.0], [np.nan, lo[1]]):
        bad = np.concatenate([pts[:3], [off]])
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            _gradient(f, bad)


def test_spline_value_and_gradient_over_the_extent(rng):
    # even about every edge, as the mirrored spline is, so the spline's
    # third derivative stays bounded and the FD reference's h^2 bias small
    g = square_grid(65)
    lo, hi = g.extent
    a = math.pi / (hi[0] - lo[0])

    def fn(pts):
        u, v = pts[..., 0] - lo[0], pts[..., 1] - lo[1]
        return np.cos(a * u) * np.cos(2.0 * a * v) + 0.3 * np.cos(2.0 * a * u)

    f = sample(g, fn)
    _check_value_and_gradient(f, _extent_points(f, rng))
    # and it is the gradient of the sampled function, up to interpolation error
    inner = rng.uniform(-0.9, 0.9, size=(200, 2))
    u, v = inner[:, 0] - lo[0], inner[:, 1] - lo[1]
    exact = np.stack([-a * np.sin(a * u) * np.cos(2 * a * v) - 0.6 * a * np.sin(2 * a * u),
                      -2 * a * np.cos(a * u) * np.sin(2 * a * v)], axis=-1)
    assert np.max(np.abs(_gradient(f, inner) - exact)) < 1e-4


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), spacing=st.sampled_from([2.0, 4.0]),
       origin=st.tuples(st.integers(-64, 64), st.integers(-64, 64)))
# lo + 1e-5 - 1e-5 rounds below lo = 4 on this grid
@example(seed=0, spacing=2.0, origin=(0, 4))
def test_spline_value_and_gradient_on_random_grids(seed, spacing, origin):
    # The FD reference limits this check, not the spline.  Random node
    # values make a rough spline, and a spacing of at least 2 keeps the
    # reference's h^2/6 times third-derivative bias near 2e-10.  A power-of-2
    # spacing and an integer origin make the stencils' grid coordinates
    # exact; otherwise their rounding costs up to ulp(64)/h times the slope.
    rng = np.random.default_rng(seed)
    f = GridField2D(origin, spacing, rng.uniform(-1.0, 1.0, size=(65, 65)))
    _check_value_and_gradient(f, _extent_points(f, rng, count=200))


def test_spline_bits_do_not_depend_on_the_batch(rng):
    # a point's value and gradient are its own spline sums: the same bits
    # in one block, across several, and in any sub-batch
    f = GridField2D((-1.3, 0.4), 0.05, rng.normal(size=(40, 40)))
    pts = _extent_points(f, rng, count=600)
    assert len(pts) > 1024
    value, grad = f(pts), _gradient(f, pts)
    for part in (slice(0, 7), slice(7, 1030), slice(1030, None)):
        assert np.array_equal(f(pts[part]), value[part])
        assert np.array_equal(_gradient(f, pts[part]), grad[part])
    # an interior point gets the same bits whether or not its block also
    # holds a point in an edge cell
    inner = rng.uniform(f.extent[0] + 3 * f.spacing, f.extent[1] - 3 * f.spacing, size=(50, 2))
    edge = np.concatenate([inner, [f.extent[0]]])
    assert np.array_equal(f(inner), f(edge)[:-1])
    assert np.array_equal(_gradient(f, inner), _gradient(f, edge)[:-1])


def test_extent_is_closed_at_the_upper_corner():
    f = GridField2D((-0.7, 0.3), 0.1, np.arange(400.0).reshape(20, 20) ** 0.5)
    lo, hi = f.extent
    for corner, away in ((hi, np.inf), (lo, -np.inf)):
        corner = corner[None, :].copy()
        assert np.all(np.isfinite(f(corner)))
        out = np.empty((2, 1))
        f.gradient_into(corner.T.copy(), out)
        assert np.all(np.isfinite(out))
        # one step past either edge through the corner is refused, before
        # anything is written
        for axis in (0, 1):
            past = corner.copy()
            past[0, axis] = np.nextafter(past[0, axis], away)
            with pytest.raises(ValueError, match="extent"):
                f(past)
            out = np.full((2, 1), 7.0)
            with pytest.raises(ValueError, match="extent"):
                f.gradient_into(past.T.copy(), out)
            assert np.all(out == 7.0)


def test_node_points_are_built_once_and_read_only():
    g = square_grid(33)
    pts = g.node_points()
    assert np.array_equal(pts, np.stack(g.nodes(), axis=-1))
    assert g.node_points() is pts
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 1.0


def test_blend_is_the_weighted_sum(rng):
    g = square_grid(33)
    f1 = g.with_values(rng.normal(size=(33, 33)))
    f2 = g.with_values(rng.normal(size=(33, 33)))
    b = blend([(0.3, f1), (-1.7, f2)])
    assert np.array_equal(b.values, 0.3 * f1.values - 1.7 * f2.values)
    pts = _extent_points(b, rng, count=100)
    assert np.max(np.abs(b(pts) - (0.3 * f1(pts) - 1.7 * f2(pts)))) < 1e-13
    # the blended coefficients are those of the blended values
    assert np.max(np.abs(b(pts) - g.with_values(b.values)(pts))) < 1e-13
    with pytest.raises(ValueError):
        blend([(1.0, f1), (1.0, square_grid(33, extent=1.0))])


def test_blend_sums_values_only_when_read(rng):
    # evaluation and gradients need only the blended spline coefficients
    g = square_grid(33)
    f1 = g.with_values(rng.normal(size=(33, 33)))
    f2 = g.with_values(rng.normal(size=(33, 33)))
    b = blend([(0.3, f1), (-1.7, f2)])
    pts = _extent_points(b, rng, count=100)
    b(pts)
    b.gradient_into(np.ascontiguousarray(pts.T), np.empty((2, len(pts))))
    assert b.n == 33 and "values" not in vars(b)
    assert np.array_equal(b.values, 0.3 * f1.values - 1.7 * f2.values)
    assert np.array_equal(b._spline_coeffs(),
                          0.3 * f1._spline_coeffs() - 1.7 * f2._spline_coeffs())


# ---------------------------------------------------------------------------
# quadrature


def test_disc_quadrature_of_polynomial():
    # int over the unit disc of (1 - r^2)^2 equals pi/3
    g = square_grid(513)
    f = sample(g, lambda pts: (1.0 - pts[..., 0] ** 2 - pts[..., 1] ** 2) ** 2)
    assert abs(integrate_disc(f) - math.pi / 3.0) < 1e-4


def test_disc_quadrature_area():
    g = square_grid(257)
    f = sample(g, lambda pts: np.ones(pts.shape[:-1]))
    assert abs(integrate_disc(f) - math.pi) < 1e-4


def test_disc_weights_cached():
    g = square_grid(65)
    w1 = disc_weights(g)
    w2 = disc_weights(g)
    assert w1 is w2


def test_disc_weights_are_read_only():
    w = disc_weights(square_grid(65))
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # the cache is bounded
    assert _disc_weights.cache_info().maxsize is not None


def test_integrate_disc_rejects_small_grid():
    g = square_grid(33, extent=0.5)
    f = sample(g, lambda pts: np.ones(pts.shape[:-1]))
    with pytest.raises(ValueError):
        integrate_disc(f)


# ---------------------------------------------------------------------------
# serialization


def test_csv_round_trip(tmp_path, rng):
    g = square_grid(33, extent=0.7)
    f = g.with_values(rng.normal(size=(33, 33)))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    back = GridField2D.from_csv(path)
    assert np.array_equal(back.values, f.values)
    assert back.spacing == f.spacing
    assert np.array_equal(back.origin, f.origin)


def test_csv_rejects_non_cubic_order(tmp_path):
    path = tmp_path / "field.csv"
    square_grid(17, extent=0.5).to_csv(path)
    text = path.read_text().replace("# interpolation_order = 3", "# interpolation_order = 1")
    path.write_text(text)
    with pytest.raises(ValueError, match="interpolation_order 1"):
        GridField2D.from_csv(path)


def test_csv_rejects_non_finite_spacing(tmp_path):
    path = tmp_path / "field.csv"
    square_grid(17, extent=0.5).to_csv(path)
    text = path.read_text().splitlines(keepends=True)
    text[1] = "# spacing = nan\n"
    path.write_text("".join(text))
    with pytest.raises(ValueError, match="spacing"):
        GridField2D.from_csv(path)
