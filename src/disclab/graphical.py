"""Graphicality of area-preserving maps in the flat chart.

A map phi is graphical when its graph, written in the midpoint chart,
projects one-to-one onto the diagonal.  The working criterion is the
midpoint map kappa(y) = (y + phi(y)) / 2: phi is graphical iff kappa is
a diffeomorphism, certified here by a determinant scan plus a sampled
collision probe.  The graph of a graphical Hamiltonian map is the image
of a closed one-form, recovered node-by-node by Newton inversion of
kappa; its potential is the generating function of the map.

`recover_one_form` is the one graphicality gate: it builds kappa once,
scans it once, and inverts that same kappa.  `scan` runs that scan alone
and its result can be handed to `recover_one_form`, so a caller that
reports the verdict first still scans once; `is_graphical` keeps only the
verdict.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chart import jmap
from .calabi import plaquette_circulation, ray_primitives
from .flows import NewtonError, PlaneMap
from .grids import GridField2D, square_grid

# kappa counts as a diffeomorphism only where min det d(kappa) exceeds this
MIN_DET = 1e-3
# largest plaquette circulation of a one-form that is integrated
CIRCULATION_TOL = 5e-4

# ---------------------------------------------------------------------------
# star-shapedness determinant


@dataclass(frozen=True)
class SymmetricMatrix2:
    """[[a, c], [c, b]] -- the Hessian-type data of the star-shape bound."""

    a: float
    b: float
    c: float

    def matrix(self):
        return np.array([[self.a, self.c], [self.c, self.b]])


def starshape_expansions(A, r):
    """det(I - r jA) by closed form, 1 + r^2 (ab - c^2), and by the direct 2x2 expansion.

    A's entries and r may be scalars or arrays that broadcast together;
    both results have their broadcast shape.
    """
    a, b, c = A.a, A.b, A.c
    closed = 1.0 + r * r * (a * b - c * c)
    # I - r jA = [[1 + r c, r b], [-r a, 1 - r c]]
    direct = (1.0 + r * c) * (1.0 - r * c) - (r * b) * (-r * a)
    return closed, direct


# ---------------------------------------------------------------------------
# midpoint map and graphicality


def midpoint_map(phi):
    """kappa(y) = (y + phi(y)) / 2, the midpoint map of phi on phi's own grid."""
    grid = phi.template
    y = np.stack(grid.nodes(), axis=-1)
    return PlaneMap.from_node_images(grid, 0.5 * (y + phi(y)), phi.support_radius)


def _min_det_inside(kappa):
    det = kappa.det_jacobian()[kappa.interior_nodes(kappa.support_radius)]
    return float(np.min(det)) if det.size else 1.0


class Scan(NamedTuple):
    """The midpoint map kappa of phi, the scan's verdict, and min det d(kappa)."""

    kappa: PlaneMap
    graphical: bool
    min_det: float


def scan(phi):
    """The one graphicality scan of phi.

    The determinant scan certifies that kappa is a local diffeomorphism
    inside the support.  Only if it passes does the collision probe run:
    it hashes the kappa-images of the grid nodes into half-cell bins and
    fails if two nodes with distant preimages collide -- a sampled
    certificate of global injectivity.
    """
    kappa = midpoint_map(phi)
    min_det = _min_det_inside(kappa)
    ok = min_det > MIN_DET and not _collision_probe(kappa)
    return Scan(kappa, ok, min_det)


def is_graphical(phi):
    """(graphical?, min det d(kappa)) by determinant scan + collision probe."""
    _, ok, min_det = scan(phi)
    return ok, min_det


def _collision_probe(kappa):
    grid = kappa.template
    h = grid.spacing
    qx, qy = grid.nodes()
    ix, iy = kappa.node_images()
    r = np.hypot(qx, qy)
    sel = r < kappa.support_radius
    src = np.stack([qx[sel], qy[sel]], axis=-1)
    img = np.stack([ix[sel], iy[sel]], axis=-1)
    bins = {}
    cell = np.floor(img / (0.5 * h)).astype(np.int64)
    for k in range(src.shape[0]):
        key = (int(cell[k, 0]), int(cell[k, 1]))
        prev = bins.setdefault(key, k)
        if prev != k:
            gap = np.hypot(*(src[prev] - src[k]))
            if gap > 2.0 * h:
                return True
    return False


# ---------------------------------------------------------------------------
# the closed one-form of a graphical map


@dataclass
class OneFormField:
    """One-form alpha = a1 dq1 + a2 dq2 on the chart, zero outside the support."""

    a1: GridField2D
    a2: GridField2D
    support_radius: float

    def __call__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        out = np.stack([self.a1(pts), self.a2(pts)], axis=-1)
        r = np.hypot(pts[..., 0], pts[..., 1])
        return np.where((r >= self.support_radius)[..., None], 0.0, out)

    @property
    def template(self):
        return self.a1

    def closedness_residual(self):
        """Max loop integral of alpha around a grid cell (d alpha = 0)."""
        circ = plaquette_circulation(
            self.a1.values, self.a2.values, self.a1.spacing
        )
        return float(np.max(np.abs(circ)))


def recover_one_form(phi, scanned=None):
    """alpha with Image(alpha) = Graph(phi): solve kappa(y) = q per node.

    Rejects non-graphical input after one scan of kappa; scanned, the
    result of scan(phi), saves a caller that already has it the second
    scan.  For each chart node q inside the support, the midpoint
    equation kappa(y) = q is then solved by damped Newton (seeded at q)
    on that same kappa, and alpha(q) = -j(phi(y) - y).
    """
    kappa, ok, min_det = scan(phi) if scanned is None else scanned
    if not ok:
        raise ValueError(
            f"map is not graphical (min det d(kappa) = {min_det:.3e}; the scan "
            f"needs > {MIN_DET} and no collision of distant nodes)"
        )
    grid = kappa.template
    qx, qy = grid.nodes()
    try:
        y = kappa.solve_at_nodes()
    except NewtonError as exc:
        raise NewtonError(
            f"one-form recovery failed at chart node {exc.point}", exc.point
        ) from exc
    y = y.reshape(qx.shape + (2,))
    v = phi(y) - y
    alpha = -jmap(v)
    alpha[np.hypot(qx, qy) >= kappa.support_radius] = 0.0
    return OneFormField(
        grid.with_values(alpha[..., 0]),
        grid.with_values(alpha[..., 1]),
        kappa.support_radius,
    )


def integrate_generating(alpha, base_value=0.0, full_output=False):
    """g with dg = alpha by ray integration from the grid edge.

    g equals base_value on the left edge (outside the support).  The
    column-ray family provides the path-independence monitor.  Rejects
    one-forms whose plaquette circulation exceeds CIRCULATION_TOL.
    """
    residual = alpha.closedness_residual()
    if residual > CIRCULATION_TOL:
        raise ValueError(
            f"one-form circulation {residual:.3e} exceeds {CIRCULATION_TOL:.3e}; "
            "not closed enough to integrate"
        )
    grid = alpha.template
    rows, cols = ray_primitives(alpha.a1.values, alpha.a2.values, grid.spacing)
    g_rows = base_value + rows
    g_cols = base_value + cols
    path_independence = float(np.max(np.abs(g_rows - g_cols)))
    g = grid.with_values(g_rows)
    if full_output:
        return g, {
            "circulation": residual,
            "path_independence": path_independence,
        }
    return g


# ---------------------------------------------------------------------------
# trace-chain family of rescaled graphs


@dataclass
class TraceChainFamily:
    """Generating functions g_a of the rescaled graphs a * Graph(phi)."""

    scales: list
    potentials: list          # GridField2D per scale, on the adapted grids

    def potential_at(self, a):
        idx = self.scales.index(a)
        return self.potentials[idx]

    def restricted(self, scales):
        """The sub-family at a = 1 and the given scales, without recovering again."""
        scales = _with_unit_scale(scales)
        return TraceChainFamily(scales, [self.potential_at(a) for a in scales])

    def scaling_defect(self):
        """Max over scales and nodes of |g_a(a q) - a^2 g_1(q)|.

        The adapted grids put node a*q of g_a exactly over node q of g_1,
        so the identity is checked without interpolation.
        """
        g1 = self.potentials[self.scales.index(1.0)] if 1.0 in self.scales \
            else None
        if g1 is None:
            raise ValueError("family must contain the scale a = 1")
        worst = 0.0
        for a, g in zip(self.scales, self.potentials):
            worst = max(
                worst, float(np.max(np.abs(g.values - a * a * g1.values)))
            )
        return worst


def trace_chain_family(phi, scales):
    """Recover g_a for each a: midpoint inversion on the a-rescaled graph.

    The base map is recovered first, so a non-graphical phi fails before
    any rescaled member is built; its one-form serves the scale a = 1.
    """
    scales = _with_unit_scale(scales)
    base = recover_one_form(phi)
    potentials = []
    for a in scales:
        if a == 1.0:
            alpha = base
        else:
            try:
                alpha = recover_one_form(_rescaled_map(phi, a))
            except ValueError as exc:
                raise ValueError(
                    f"graphicality lost at scale {a}: {exc}; the midpoint "
                    "criterion is scale-invariant, so the discretization is "
                    "too coarse"
                ) from exc
        potentials.append(integrate_generating(alpha, base_value=0.0))
    return TraceChainFamily(scales, potentials)


def _with_unit_scale(scales):
    """The scales as floats, with a = 1 put first when missing."""
    scales = [float(a) for a in scales]
    return scales if 1.0 in scales else [1.0] + scales


def _rescaled_map(phi, a):
    """a * phi(y / a) on the grid shrunk by a (node-exact rescaling)."""
    grid = phi.template
    lo, hi = grid.extent
    target = square_grid(grid.n, extent=a * hi[0])
    img = a * np.stack(phi.node_images(), axis=-1)
    return PlaneMap.from_node_images(target, img, a * phi.support_radius)


def trace_chain_dgada(family, a, h_a, probe_points):
    """Finite-difference check of the derivative of the rescaled potentials.

    Compares the centered a-difference of g at fixed chart points with
    2a g_1(q/a) - (1/a) dg_a(q) . q; both sides are O(h) accurate, so the
    defect should shrink linearly with h_a.
    """
    scales = family.scales
    for s in (a - h_a, a, a + h_a):
        if not any(abs(s - sc) < 1e-12 for sc in scales):
            raise ValueError(f"scale {s} missing from the family")
    gm = family.potential_at(_snap(scales, a - h_a))
    g0 = family.potential_at(_snap(scales, a))
    gp = family.potential_at(_snap(scales, a + h_a))
    g1 = family.potential_at(1.0)
    pts = np.asarray(probe_points, dtype=np.float64)
    lhs = (gp(pts) - gm(pts)) / (2.0 * h_a)
    d1, d2 = g0.gradient()
    dg_dot_q = d1(pts) * pts[..., 0] + d2(pts) * pts[..., 1]
    rhs = 2.0 * a * g1(pts / a) - dg_dot_q / a
    return float(np.max(np.abs(lhs - rhs)))


def _snap(scales, value):
    for s in scales:
        if abs(s - value) < 1e-12:
            return s
    raise ValueError(f"scale {value} not in family")
