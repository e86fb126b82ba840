"""Graphicality of area-preserving maps in the flat chart.

A map phi is graphical when its graph, written in the midpoint chart,
projects one-to-one onto the diagonal.  The working criterion is the
midpoint map kappa(y) = (y + phi(y)) / 2: phi is graphical iff kappa is
a diffeomorphism, certified here by a determinant scan.  kappa is the
identity outside the support, so it is proper, and a proper local
diffeomorphism of the plane is a diffeomorphism: det d(kappa) > 0
suffices.  The graph of a graphical Hamiltonian map is the image of a
closed one-form, recovered node-by-node by Newton inversion of kappa;
its potential is the generating function of the map.

`recover_one_form` is the one graphicality gate: it builds kappa once,
scans it once, and inverts that same kappa.  `scan` runs that scan alone
and its result can be handed to `recover_one_form`, so a caller that
reports the verdict first still scans once.

The trace chain's potentials g_a of the rescaled graphs a * Graph(phi)
are a plain dict {a: g_a}, which the scaling-law checks read.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chart import jmap
from .calabi import plaquette_circulation
from .flows import NewtonError, PlaneMap
from .grids import GridField2D, cumulative_trapezoid, square_grid

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

    phi is graphical when min det d(kappa) over the nodes inside the
    support exceeds MIN_DET: kappa is then a local diffeomorphism there,
    and, being proper, a diffeomorphism.
    """
    kappa = midpoint_map(phi)
    min_det = _min_det_inside(kappa)
    return Scan(kappa, min_det > MIN_DET, min_det)


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
            f"needs > {MIN_DET})"
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


def integrate_generating(alpha, base_value=0.0):
    """g with dg = alpha by trapezoid row rays from the left grid edge.

    g equals base_value on the left edge (outside the support).  Rejects
    one-forms whose plaquette circulation exceeds CIRCULATION_TOL, so the
    rays' path independence rests on that check.
    """
    residual = alpha.closedness_residual()
    if residual > CIRCULATION_TOL:
        raise ValueError(
            f"one-form circulation {residual:.3e} exceeds {CIRCULATION_TOL:.3e}; "
            "not closed enough to integrate"
        )
    grid = alpha.template
    rays = cumulative_trapezoid(alpha.a1.values, dx=grid.spacing, axis=0)
    return grid.with_values(base_value + rays)


# ---------------------------------------------------------------------------
# trace-chain potentials of rescaled graphs


def trace_chain_potentials(phi, scales):
    """{a: g_a}: the generating function of the rescaled graph a * Graph(phi) per scale.

    The keys are a = 1 first, then the scales in their given order, each
    once.  The base map is recovered first, so a non-graphical phi fails
    before any rescaled member is built; its one-form serves a = 1.  Each
    g_a lives on the grid of phi shrunk by a, and vanishes on its left edge.
    """
    base = recover_one_form(phi)
    potentials = {}
    for a in dict.fromkeys([1.0] + [float(a) for a in scales]):
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
        potentials[a] = integrate_generating(alpha, base_value=0.0)
    return potentials


def _rescaled_map(phi, a):
    """a * phi(y / a) on the grid shrunk by a (node-exact rescaling)."""
    grid = phi.template
    lo, hi = grid.extent
    target = square_grid(grid.n, extent=a * hi[0])
    img = a * np.stack(phi.node_images(), axis=-1)
    return PlaneMap.from_node_images(target, img, a * phi.support_radius)


def scaling_defect(potentials, scales):
    """Max over the scales and the nodes of |g_a(a q) - a^2 g_1(q)|.

    potentials is `trace_chain_potentials`' dict.  Its adapted grids put
    node a*q of g_a exactly over node q of g_1, so the identity is
    checked without interpolation.
    """
    g1 = potentials[1.0]
    return max((float(np.max(np.abs(potentials[a].values - a * a * g1.values)))
                for a in scales), default=0.0)


def trace_chain_dgada(potentials, a, h_a, probe_points):
    """Finite-difference check of the derivative of the rescaled potentials.

    Compares the centered a-difference of g at fixed chart points with
    2a g_1(q/a) - (1/a) dg_a(q) . q; both sides are O(h) accurate, so the
    defect should shrink linearly with h_a.  potentials is
    `trace_chain_potentials`' dict and must hold a - h_a, a and a + h_a.
    """
    missing = [s for s in (a - h_a, a, a + h_a) if s not in potentials]
    if missing:
        raise ValueError(f"scales {missing} missing from the potentials")
    gm, g0, gp, g1 = (potentials[s] for s in (a - h_a, a, a + h_a, 1.0))
    pts = np.asarray(probe_points, dtype=np.float64)
    lhs = (gp(pts) - gm(pts)) / (2.0 * h_a)
    d1, d2 = g0.gradient()
    dg_dot_q = d1(pts) * pts[..., 0] + d2(pts) * pts[..., 1]
    rhs = 2.0 * a * g1(pts / a) - dg_dot_q / a
    return float(np.max(np.abs(lhs - rhs)))
