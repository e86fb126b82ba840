"""Rescalings of Hamiltonian paths on the disc and two-parameter families.

The rescaling by a in (0, 1] sends the path generated by H(t, x) to the
path a * phi^t(x / a), generated by a^2 H(t, x/a).  Shrinking the support
while boosting amplitude like a^{-2} keeps the Calabi invariant constant
while the maps converge uniformly to the identity and the Hofer length
blows up like a^{-2} -- the C0-discontinuity sequence.

The s-direction Hamiltonian K of a two-parameter family {phi_{H(s)}^t}
is measured directly from flows:
    K(s, t, x) = int_0^t [d/ds (H(s,u, .) o phi_s^u)] o (phi_s^u)^{-1} (x) du
with the gauge K(s, 0, .) = 0 and K = 0 outside all supports.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .calabi import cal_path
from .fields import ScalarTimeField, SeparableBump
from .flows import hamiltonian_path, hofer_length, integrate_points
from .grids import blend, square_grid


# ---------------------------------------------------------------------------
# rescaling


@dataclass
class RescaledPath:
    """The path a*phi^t(x/a) together with its Hamiltonian a^2 H(t, x/a)."""

    base: ScalarTimeField
    scale: float
    eta: float
    hamiltonian: ScalarTimeField

    def conjugated_point_flow(self, t0, t1, points, dt=1e-3):
        """Flow of the rescaled path via conjugation: a * phi^t(x / a)."""
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * integrate_points(
            self.base, t0, t1, pts / self.scale, dt
        )


def rescale(H, a, eta=None):
    """Rescaled path Hamiltonian a^2 H(t, x/a) for a in (0, 1]."""
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {a}")
    if H.support_radius is None:
        raise ValueError("rescaling needs a compactly supported Hamiltonian")
    if eta is None:
        eta = 1.0 - H.support_radius
    if H.support_radius > 1.0 - eta + 1e-12:
        raise ValueError(
            f"support radius {H.support_radius} exceeds 1 - eta = {1.0 - eta}"
        )
    if a == 1.0:
        return RescaledPath(H, 1.0, eta, H)
    if isinstance(H, SeparableBump):
        ham = H.rescaled(a)
    else:
        ham = ScalarTimeField(
            lambda t, pts: a * a * H(t, pts / a),
            a * H.support_radius,
            H.smoothness_order,
        )
    return RescaledPath(H, a, eta, ham)


def reparametrize(H, chi, dchi=None, n_check=201, max_pieces=8):
    """Hamiltonian chi'(t) * H(chi(t), x) of the time-reparametrized path.

    chi must map [0,1] into [0,1] and be piecewise monotone (at most
    max_pieces monotone pieces; a wildly oscillating chi is rejected).
    """
    ts = np.linspace(0.0, 1.0, n_check)
    vals = np.array([chi(t) for t in ts])
    if np.min(vals) < -1e-12 or np.max(vals) > 1.0 + 1e-12:
        raise ValueError("reparametrization must map [0,1] into [0,1]")
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-14])
    turns = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
    if turns >= max_pieces:
        raise ValueError(
            f"reparametrization is not piecewise monotone "
            f"({turns + 1} monotone pieces > {max_pieces})"
        )
    if dchi is None:
        eps = 1e-6
        dchi = lambda t: (chi(min(t + eps, 1.0)) - chi(max(t - eps, 0.0))) / (
            min(t + eps, 1.0) - max(t - eps, 0.0)
        )
    if isinstance(H, SeparableBump):
        return H.reparametrized(chi, dchi)
    return ScalarTimeField(
        lambda t, pts: dchi(t) * H(chi(t), pts),
        H.support_radius,
        H.smoothness_order,
    )


# ---------------------------------------------------------------------------
# two-parameter families and the s-Hamiltonian


class TwoParameterFamily:
    """s in [0,1] -> a path Hamiltonian H(s); H(0) need not vanish."""

    def __init__(self, at, support_radius):
        self._at = at
        self.support_radius = float(support_radius)

    def at(self, s):
        return self._at(s)


def linear_family(H):
    """H(s) = s * H: the straight-line two-parameter family with H(0) = 0."""
    return TwoParameterFamily(lambda s: H.scaled(s), H.support_radius)


def alexander_family(H, eta=None):
    """H(s) = s^2 H(t, x/s): the rescaling contraction of the path of H."""
    return TwoParameterFamily(
        lambda s: rescale(H, s, eta).hamiltonian, H.support_radius
    )


@dataclass
class SHamiltonian:
    """K(s, t, .) sampled on grids, gauge K(s,0,.) = 0 and K = 0 near the boundary.

    Between samples K is bilinear in (s, t).  spline_filter is linear, so
    K(s, t, .) is one grid field whose values and spline coefficients
    blend those of the (up to four) bracketing grids.
    """

    s_samples: np.ndarray
    t_samples: np.ndarray
    values: list  # values[i][k] : GridField2D of K(s_i, t_k, .)
    support_radius: float
    # the last blended (s, t) and its grid field: RK4 stages repeat times
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, s, t, points):
        return self.field_at(s, t)(points)

    def field_at(self, s, t):
        """K(s, t, .) as one grid field."""
        if self._last is None or self._last[0] != (s, t):
            (i0, wi), (k0, wk) = self._interp(self.s_samples, s), self._interp(self.t_samples, t)
            terms = [
                (ci * ck, self.values[i0 + di][k0 + dk])
                for di, ci in ((0, 1.0 - wi), (1, wi))
                for dk, ck in ((0, 1.0 - wk), (1, wk))
                if ci * ck != 0.0
            ]
            self._last = ((s, t), blend(terms))
        return self._last[1]

    @staticmethod
    def _interp(samples, x):
        """Bracketing index and weight, extrapolating linearly at the ends."""
        idx = int(np.searchsorted(samples, x)) - 1
        idx = min(max(idx, 0), len(samples) - 2)
        w = (x - samples[idx]) / (samples[idx + 1] - samples[idx])
        return idx, w

    def time_one_field(self):
        """s -> K(s, 1, .): the Hamiltonian of the end path s -> phi_{H(s)}^1.

        The field carries the analytic gradient of its spline.
        """
        return ScalarTimeField(
            lambda s, pts: self(s, 1.0, pts), self.support_radius, 2,
            gradient=lambda s, pts: self.field_at(s, 1.0).value_and_gradient(pts)[1],
        )

    def gauge_defect(self):
        """Max |K(s, 0, .)|; zero by construction."""
        return max(float(np.max(np.abs(self.values[i][0].values)))
                   for i in range(len(self.s_samples)))


def s_hamiltonian(family, s_samples=None, nt=17, grid=None, dt=2e-3, h_s=1e-3):
    """Measure the s-Hamiltonian K of a two-parameter family from its flows.

    For each s, three paths are integrated (at s - h_s, s, s + h_s); the
    s-derivative of H(s, u, phi_s^u(y)) is taken by centered differences
    and pushed to x = phi_s^u(y) via the stored inverse maps, then
    integrated over u by the trapezoid rule.
    """
    if s_samples is None:
        s_samples = np.linspace(0.0625, 1.0, 16)
    s_samples = np.asarray(s_samples, dtype=np.float64)
    if np.any(s_samples - 2.0 * h_s <= 0.0) or np.any(s_samples > 1.0):
        raise ValueError("s samples must keep s - 2 h_s inside (0, 1]")
    if grid is None:
        grid = square_grid(129)
    qx, qy = grid.nodes()
    times = np.linspace(0.0, 1.0, nt)
    all_values = []
    support = family.support_radius
    for s in s_samples:
        path_mid = hamiltonian_path(family.at(s), nt, grid, dt, with_inverse=True)
        if s + h_s <= 1.0:
            # centered stencil
            stencil = [(s + h_s, 0.5 / h_s), (s - h_s, -0.5 / h_s)]
        else:
            # one-sided second-order stencil at the upper end
            stencil = [(s, 1.5 / h_s), (s - h_s, -2.0 / h_s), (s - 2.0 * h_s, 0.5 / h_s)]
        sidearms = [
            (family.at(sv), hamiltonian_path(family.at(sv), nt, grid, dt), cv)
            for sv, cv in stencil
        ]
        integrands = []
        for k, u in enumerate(times):
            y = np.stack(path_mid.maps[k].inverse().node_images(), axis=-1)
            val = np.zeros_like(qx)
            for Hs, path_s, coeff in sidearms:
                val += coeff * Hs(u, path_s.maps[k](y))
            integrands.append(val)
        integrands = np.array(integrands)
        from scipy.integrate import cumulative_trapezoid

        K = cumulative_trapezoid(integrands, times, axis=0, initial=0.0)
        # gauge: pin K to zero at the grid corner, outside every support
        K -= K[:, :1, :1]
        outside = np.hypot(qx, qy) >= support
        K[:, outside] = 0.0
        all_values.append([grid.with_values(K[k]) for k in range(nt)])
    return SHamiltonian(s_samples, times, all_values, support)


def s_flow_check(sham, family, dt=2e-3, grid=None):
    """C0 gap between the flow of K(., 1, .) in s and s -> phi_{H(s)}^1."""
    if grid is None:
        grid = square_grid(65)
    qx, qy = grid.nodes()
    nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
    K1 = sham.time_one_field()
    via_k = integrate_points(K1, 0.0, 1.0, nodes.copy(), dt)
    H1 = family.at(1.0)
    direct = integrate_points(H1, 0.0, 1.0, nodes.copy(), dt)
    return float(np.max(np.hypot(*(via_k - direct).T)))


def calabi_match(sham, family, grid=None, nt=65):
    """(Cal of the s-path K(., 1, .), Cal of the t-path H(1)); equal when H(0)=0."""
    cal_k = cal_path(sham.time_one_field(), grid, nt)
    cal_h = cal_path(family.at(1.0), grid, nt)
    return cal_k, cal_h


# ---------------------------------------------------------------------------
# the C0-discontinuity sequence


@dataclass
class ShrinkDiagnostics:
    scale: float
    cal: float
    c0_dist: float
    hofer_len: float
    c0_method: str = "exact"


def shrinking_calabi_sequence(H, scales, node_count=257, grid=None, nt=129):
    """K_i(t,x) = a_i^{-2} H(t, x/a_i): constant Calabi, shrinking support.

    Diagnostics per member: Calabi invariant, C0 distance of the time-one
    map to the identity, Hofer length.  Each member is measured on a grid
    adapted to its support unless a fixed grid is supplied (which must
    resolve the support by at least 4 cells).  The members of an
    autonomous bump are autonomous, so their Calabi and Hofer time
    integrals each take one spatial slice instead of nt.
    """
    scales = [float(a) for a in scales]
    if any(not 0.0 < a <= 1.0 for a in scales):
        raise ValueError("scales must lie in (0, 1]")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    if H.support_radius is None:
        raise ValueError("need a compactly supported Hamiltonian")
    exact = isinstance(H, SeparableBump) and H.is_radial()
    out = []
    for a in scales:
        if isinstance(H, SeparableBump):
            member = H.rescaled(a).amplified(a ** -4)
        else:
            member = ScalarTimeField(
                lambda t, pts, a=a: H(t, pts / a) / (a * a),
                a * H.support_radius,
                H.smoothness_order,
            )
        if grid is not None:
            if a * H.support_radius < 4.0 * grid.spacing:
                raise ValueError(
                    f"scale {a}: support {a * H.support_radius:.3g} falls under "
                    f"4 grid cells ({4.0 * grid.spacing:.3g})"
                )
            member_grid = grid
        else:
            member_grid = square_grid(node_count, extent=1.05 * a)
        cal = cal_path(member, member_grid, nt)
        # every member carries the base Calabi invariant (the a^4 law)
        if abs(cal) < 1e-12:
            raise ValueError("the base path has zero Calabi invariant; "
                             "the sequence would be trivial")
        hofer = hofer_length(member, member_grid, nt)
        if exact:
            mnodes = np.stack(member_grid.nodes(), axis=-1)
            img = member.exact_flow(0.0, 1.0, mnodes)
            c0 = float(np.max(np.hypot(img[..., 0] - mnodes[..., 0],
                                       img[..., 1] - mnodes[..., 1])))
            method = "exact"
        else:
            c0 = 2.0 * a * H.support_radius
            method = "support-bound"
        out.append(ShrinkDiagnostics(a, cal, c0, hofer, method))
    return out


def sequence_to_csv(diags, path):
    """CSV with columns (a_i, cal, c0_dist, hofer_len)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_i", "cal", "c0_dist", "hofer_len"])
        for d in diags:
            writer.writerow(
                ["%.12e" % v for v in (d.scale, d.cal, d.c0_dist, d.hofer_len)]
            )


# ---------------------------------------------------------------------------
# structural probe for the measured s-Hamiltonian of the rescaling family


def rescaling_k_decomposition(sham, H, s, grid=None):
    """Integrated consistency of the measured K against its closed form.

    For the rescaling family of an autonomous H the s-Hamiltonian is
        K(s,t,x) = 2s int_0^t H(u, x/s) du  +  remainder,
    where the remainder involves the derivative of -H(u, phi^u(.)) paired
    with the pulled-back position.  Returns (integral of measured K minus
    the first summand, integral of the directly computed remainder) at
    t = 1, which must agree.
    """
    if grid is None:
        grid = square_grid(129)
    qx, qy = grid.nodes()
    pts = np.stack([qx, qy], axis=-1)
    t1 = sham.t_samples[-1]
    measured = sham(s, t1, pts)
    # first summand at t = 1 (H autonomous: integral over u is H itself)
    first = 2.0 * s * H(0.0, pts / s)
    rest_measured = float(np.sum(measured - first)) * grid.spacing**2
    # direct remainder: int <d(-H(u, phi^u(.)))(y/s), y> du, y = (phi_s^u)^{-1}(x)
    path = hamiltonian_path(sham_field_for(H, s), nt=len(sham.t_samples),
                            grid=grid, with_inverse=True)
    eps = 1e-5
    acc = np.zeros_like(qx)
    times = sham.t_samples
    for k, u in enumerate(times):
        y = np.stack(path.maps[k].inverse().node_images(), axis=-1)
        ys = y / s

        def hbar(z, u=u):
            return -H(u, integrate_points(H, 0.0, u, z.reshape(-1, 2)).reshape(z.shape))

        gx = (hbar(ys + [eps, 0]) - hbar(ys - [eps, 0])) / (2 * eps)
        gy = (hbar(ys + [0, eps]) - hbar(ys - [0, eps])) / (2 * eps)
        term = gx * y[..., 0] + gy * y[..., 1]
        w = 0.5 if k in (0, len(times) - 1) else 1.0
        acc += w * term * (times[1] - times[0])
    rest_direct = float(np.sum(acc)) * grid.spacing**2
    return rest_measured, rest_direct


def sham_field_for(H, s):
    """The rescaling-family member s^2 H(t, x/s)."""
    return rescale(H, s).hamiltonian
