"""The Calabi invariant, by both definitions, and the sphere normalization.

Definition via past history: Cal^path(H) = int_0^1 int H(t,x) dA dt.
Definition via a primitive: with alpha = -p dq, the one-form
beta = phi^*alpha - alpha is closed, beta = dh for a compactly supported
h, and Cal(phi) = (1/2) int h dA.  With the sign convention of `flows`
(X_H = (H_p, -H_q)) the two agree with constant exactly 1.

Cal^path and the sphere-normalization offset c(t) both read
t -> int H(t, .) dA through one helper, `slice_integrals`.  An autonomous
H takes one node sum.  A field that declares time profiles,
H(t, .) = sum_i w_i(t) * P_i (`ScalarTimeField.time_profiles`), takes one
node sum per profile, and each time sample is the weighted sum of those
integrals.  Any other field takes one node sum per time.
"""

import functools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import ScalarTimeField
from .flows import time_integral
from .grids import SPHERE_VOLUME, GridField2D, cumulative_trapezoid, square_grid


def _check_supported(H, grid):
    if H.support_radius is None:
        raise ValueError("Calabi quadrature needs a compactly supported Hamiltonian")
    lo, hi = grid.extent
    margin = grid.spacing
    if H.support_radius >= min(-lo[0], -lo[1], hi[0], hi[1]) - margin:
        raise ValueError(
            f"support radius {H.support_radius} reaches the grid boundary"
        )


def spatial_integral(H, t, grid):
    """int H(t, .) dA by cell sum (valid: the field vanishes at the grid edge)."""
    return float(np.sum(H(t, grid.node_points())) * grid.spacing**2)


def slice_integrals(H, grid):
    """t -> int H(t, .) dA on grid, by linearity where H declares profiles.

    A field with time profiles (weights, profiles) has each profile
    integrated once, here; t then gives sum_i w_i(t) * int P_i dA with no
    node sum.  Any other field takes one node sum per call.
    """
    declared = H.time_profiles
    if declared is None:
        return lambda t: spatial_integral(H, t, grid)
    weights, profiles = declared
    integrals = [spatial_integral(P, 0.0, grid) for P in profiles]
    return lambda t: sum(w * c for w, c in zip(weights(t), integrals))


def cal_path(H, grid=None, nt=129):
    """Cal^path: double quadrature of H over time and the disc.

    Simpson on nt time samples of `slice_integrals`; an autonomous H takes
    the one spatial slice at t = 0, and a field with time profiles one
    node sum per profile.
    """
    if grid is None:
        grid = square_grid(257)
    _check_supported(H, grid)
    return time_integral(H, slice_integrals(H, grid), nt)


# ---------------------------------------------------------------------------
# Definition 1.1 via the primitive alpha = -p dq


@dataclass
class CalabiReport:
    cal_def1: float
    cal_path: float
    primitive_residual: float
    agreement_error: float
    path_independence: float = 0.0
    quadrature_error: float = 0.0
    grid_n: int = 0

    def to_json(self, path=None):
        payload = json.dumps(asdict(self), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return payload


def pullback_defect_form(phi, gauge=None):
    """Components of beta = phi^*alpha - alpha on the map's grid.

    alpha = -p dq; optionally alpha is replaced by alpha + d(gauge) for a
    compactly supported gauge function (the value of Cal must not move).
    """
    grid = phi.template
    qx, qy = grid.nodes()
    P = phi.grid_y.values
    j11, j12, _, _ = phi.jacobian_at_nodes()   # dQ/dq, dQ/dp
    b1 = -P * j11 + qy
    b2 = -P * j12
    if gauge is not None:
        pts = np.stack([qx, qy], axis=-1)
        img = np.stack([phi.grid_x.values, phi.grid_y.values], axis=-1)
        diff = gauge(img) - gauge(pts)
        g1, g2 = np.gradient(diff, grid.spacing, edge_order=2)
        b1 = b1 + g1
        b2 = b2 + g2
    return b1, b2


def plaquette_circulation(b1, b2, spacing):
    """Loop integrals of (b1, b2) around every grid cell (counterclockwise)."""
    bottom = 0.5 * (b1[:-1, :-1] + b1[1:, :-1])
    top = 0.5 * (b1[:-1, 1:] + b1[1:, 1:])
    left = 0.5 * (b2[:-1, :-1] + b2[:-1, 1:])
    right = 0.5 * (b2[1:, :-1] + b2[1:, 1:])
    return spacing * (bottom + right - top - left)


def ray_primitives(b1, b2, spacing):
    """Primitives of the one-form (b1, b2) by trapezoid rays from the grid edge.

    Row rays integrate b1 from the left edge, column rays integrate b2
    from the bottom edge; both vanish on their starting edge.  For a
    closed form the two agree up to quadrature error.
    """
    rows = cumulative_trapezoid(b1, dx=spacing, axis=0)
    cols = cumulative_trapezoid(b2, dx=spacing, axis=1)
    return rows, cols


# the largest plaquette circulation of beta that still counts as closed
PRIMITIVE_RESIDUAL_TOL = 1e-3


def primitive_and_cal_def1(phi, cal_path_value=None, gauge=None):
    """Cal by Definition via the primitive, with all diagnostics.

    Builds beta = phi^*alpha - alpha, checks closedness, integrates it
    along grid rays from the boundary (where h = 0) and returns
    Cal = (1/2) int h.  If cal_path_value is given the agreement error
    against the path definition is reported.
    """
    grid = phi.template
    h_sp = grid.spacing
    b1, b2 = pullback_defect_form(phi, gauge=gauge)
    circ = plaquette_circulation(b1, b2, h_sp)
    residual = float(np.max(np.abs(circ)))
    if residual > PRIMITIVE_RESIDUAL_TOL:
        raise ValueError(
            f"primitive defect form is not closed enough "
            f"(residual {residual:.3e} > {PRIMITIVE_RESIDUAL_TOL:.3e}); "
            "the map is not area-preserving at this resolution"
        )
    # both edges lie outside the support, where h = 0
    h_rows, h_cols = ray_primitives(b1, b2, h_sp)
    path_independence = float(np.max(np.abs(h_rows - h_cols)))
    cal1 = 0.5 * float(np.sum(h_rows)) * h_sp * h_sp
    # second quadrature level from the decimated grid, for the error estimate
    cal1_coarse = 0.5 * float(np.sum(h_rows[::2, ::2])) * (2 * h_sp) ** 2
    quad_err = abs(cal1 - cal1_coarse) / 3.0
    cal_p = cal1 if cal_path_value is None else cal_path_value
    return CalabiReport(
        cal_def1=cal1,
        cal_path=cal_p,
        primitive_residual=residual,
        agreement_error=abs(cal1 - cal_p),
        path_independence=path_independence,
        quadrature_error=quad_err,
        grid_n=grid.n,
    )


# ---------------------------------------------------------------------------
# normalization on the sphere model


@dataclass
class NormalizedField:
    """H - c(t) on the disc, == -c(t) on the identity region of the sphere."""

    base: ScalarTimeField
    grid: GridField2D
    _cache: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def _slices(self):
        return slice_integrals(self.base, self.grid)

    def offset(self, t):
        """c(t) = int base(t, .) dA / vol, kept per t to 12 digits.

        An autonomous base has the one offset c(0) for every t; a base
        with time profiles integrates each profile once, on the first call.
        """
        key = 0.0 if self.base.is_autonomous else round(float(t), 12)
        if key not in self._cache:
            self._cache[key] = self._slices(key) / SPHERE_VOLUME
        return self._cache[key]

    def __call__(self, t, points):
        return self.base(t, points) - self.offset(t)

    def offset_integral(self, t1=1.0, nt=129):
        """int_0^t1 c(s) ds; equals Cal/vol at t1 = 1.

        Simpson on nt samples of `offset`; an autonomous base takes the
        one offset c(0).
        """
        return time_integral(self, self.offset, nt, t1)

    @property
    def support_radius(self):
        return self.base.support_radius

    @property
    def is_autonomous(self):
        return self.base.is_autonomous


def normalize_on_sphere(H, grid=None):
    """H - c(t) with c(t) chosen so that the sphere mean vanishes.

    H must be supported inside the open unit disc, the upper hemisphere
    of the sphere model.
    """
    if grid is None:
        grid = square_grid(257)
    _check_supported(H, grid)
    if not 0.0 < H.support_radius < 1.0:
        raise ValueError(
            f"support radius must lie in (0, 1), got {H.support_radius}"
        )
    return NormalizedField(H, grid)
