"""Rescalings of Hamiltonian paths on the disc and two-parameter families.

The rescaling by a in (0, 1] sends the path generated by H(t, x) to the
path a * phi^t(x / a), generated by a^2 H(t, x/a).  Shrinking the support
while boosting amplitude like a^{-2} keeps the Calabi invariant constant
while the maps converge uniformly to the identity and the Hofer length
blows up like a^{-2} -- the C0-discontinuity sequence.

The s-direction Hamiltonian K of a two-parameter family {phi_s^t}, the
flows of H(s), satisfies d/ds phi_s^t = X_K o phi_s^t, and Duhamel's
formula gives it as

    K(s, t, x) = int_0^t (dH/ds)(s, u, .) o phi_s^u o (phi_s^t)^{-1} (x) du,

with the gauge K(s, 0, .) = 0, and K = 0 wherever dH/ds vanishes along
the path.  The path u -> phi_s^u((phi_s^t)^{-1}(x)) is the trajectory of
H(s) run backward from x at time t to time 0, so s_hamiltonian takes K at
the grid nodes from one backward RK4 run per stored time, or for an
autonomous H(s) one run in all, whose state carries the integral of
dH/ds as a third row.  Every s sample rides in the same run, as one
member of the runner's stack.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .calabi import cal_path
from .fields import ScalarTimeField, SeparableBump
# hamiltonian_path is not called here, but bench/test_oracles.py checks that
# the benchmark's tracer finds and rebinds it in this module
from .flows import _rk4_segment, hamiltonian_path, hofer_length
from .grids import blend, square_grid


# ---------------------------------------------------------------------------
# rescaling


def rescale(H, a):
    """The rescaled-path Hamiltonian a^2 H(t, x/a) of a SeparableBump H, for a in (0, 1].

    It generates the path a * phi^t(x / a); at a = 1 it is H itself.
    """
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {a}")
    if H.support_radius is None:
        raise ValueError("rescaling needs a compactly supported Hamiltonian")
    if not isinstance(H, SeparableBump):
        raise TypeError(f"rescale needs a SeparableBump, got {type(H).__name__}")
    return H if a == 1.0 else H.rescaled(a)


# ---------------------------------------------------------------------------
# two-parameter families and the s-Hamiltonian

class TwoParameterFamily:
    """s in [0,1] -> a path Hamiltonian H(s); H(0) need not vanish.

    s_hamiltonian integrates dH/ds along the flows of H(s).  euler maps s
    to the Euler coefficients (alpha, beta) of a family of SeparableBumps,
    dH/ds(s) = alpha H(s) + beta x . grad H(s), which kernels.bump_field
    writes in closed form as the stepper's value row.
    """

    def __init__(self, at, support_radius, euler):
        self._at = at
        self.support_radius = float(support_radius)
        self.euler = euler

    def at(self, s):
        return self._at(s)


def linear_family(H):
    """H(s) = s * H: the straight-line two-parameter family with H(0) = 0.

    dH/ds = H = H(s) / s.
    """
    return TwoParameterFamily(H.amplified, H.support_radius, euler=lambda s: (1.0 / s, 0.0))


def alexander_family(H):
    """H(s) = s^2 H(t, x/s): the rescaling contraction of the path of H.

    d/da [a^2 H(x/a)] = (2 H_a - x . grad H_a) / a with H_a = a^2 H(x/a).
    """
    return TwoParameterFamily(lambda s: rescale(H, s), H.support_radius,
                              euler=lambda a: (2.0 / a, -1.0 / a))


@dataclass
class SHamiltonian:
    """K(s, t, .) sampled on grids, gauge K(s,0,.) = 0 and K = 0 near the boundary.

    values[i][k] is K(s_i, t_k, .) on a grid; the t samples end at t = 1.
    Only K(s, 1, .) is read between samples: it is linear in s, and the
    spline prefilter is linear, so K(s, 1, .) = (1 - w) K(s_i, 1, .) +
    w K(s_{i+1}, 1, .) is one grid field whose values and spline
    coefficients blend those of the two bracketing last-t grids, with the
    bracketing index i and weight w of `_interp`, linear extrapolation
    below the first s sample included; `time_one_field` declares the
    stored last-t grids as its time profiles with these weights.
    """

    s_samples: np.ndarray
    t_samples: np.ndarray
    values: list  # values[i][k] : GridField2D of K(s_i, t_k, .)
    support_radius: float
    # the last blended s and its grid field: RK4 stages repeat times
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t_samples[-1] != 1.0:
            raise ValueError(f"t samples must end at 1, got {self.t_samples[-1]}")

    def field_at(self, s):
        """K(s, 1, .) as one grid field."""
        if self._last is None or self._last[0] != s:
            i0, w = self._interp(self.s_samples, s)
            terms = [(c, self.values[i0 + di][-1])
                     for di, c in ((0, 1.0 - w), (1, w)) if c != 0.0]
            self._last = (s, blend(terms))
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

        The field carries the analytic gradient of its spline, which the
        blended K grid writes straight into the caller's buffer.  Its time
        profiles are the stored grids K(s_i, 1, .), under the field's own
        support mask, weighted as `_interp` brackets s; Cal of the s-path
        then takes one node sum per s sample.
        """
        return _TimeOneField(self)


class _TimeOneField(ScalarTimeField):
    """K(., 1, .) of an SHamiltonian, with its stored last-t grids as time profiles."""

    def __init__(self, sham):
        super().__init__(
            lambda s, pts: sham.field_at(s)(pts), sham.support_radius,
            gradient=lambda s, z, out: sham.field_at(s).gradient_into(z, out),
        )
        self._sham = sham

    @property
    def time_profiles(self):
        sham = self._sham
        profiles = [ScalarTimeField(lambda s, pts, g=row[-1]: g(pts), sham.support_radius)
                    for row in sham.values]
        return self._weights, profiles

    def _weights(self, s):
        """The weight of each stored K(s_i, 1, .) in K(s, 1, .)."""
        i0, w = self._sham._interp(self._sham.s_samples, s)
        weights = np.zeros(len(self._sham.s_samples))
        weights[i0:i0 + 2] = 1.0 - w, w
        return weights


def s_hamiltonian(family, s_samples=None, nt=17, grid=None, dt=2e-3):
    """Measure the s-Hamiltonian K of a two-parameter family by Duhamel's formula.

    For each s, K(s, t_k, .) at the grid nodes is the third row of a
    backward RK4 run of H(s) on the state (x, y, A), from (node, 0) at
    time t_k to time 0, whose rate of A is -dH/ds(s): A ends at the
    integral of dH/ds along the trajectory (flows._rk4_segment's value
    row), with the family's Euler coefficients (alpha, beta) at s.  An
    autonomous H(s) has phi^u o (phi^t)^{-1} = phi^(u - t), so one run
    backward through the stored times, segment by segment, gives K at
    every t_k; any other H(s) takes one run from each t_k back to 0.  The
    runs are kernels.rk4_points stacks of every sample's H(s): one run in
    all for the autonomous samples, one per stored time for the others.
    Each H(s) steps the nodes inside its reach, outside which alpha H +
    beta x . grad H vanishes, so K is exactly zero at every other node and
    at t = 0.
    """
    if s_samples is None:
        s_samples = np.linspace(0.0625, 1.0, 16)
    s_samples = np.asarray(s_samples, dtype=np.float64)
    # K(s, 1, .) is interpolated between bracketing samples in s
    if s_samples.ndim != 1 or s_samples.size < 2 or np.any(np.diff(s_samples) <= 0.0):
        raise ValueError(
            f"s_samples must be at least two increasing values, got {s_samples.tolist()}"
        )
    if nt < 2:
        raise ValueError(f"nt must be at least 2, got {nt}")
    if np.any(s_samples <= 0.0) or np.any(s_samples > 1.0):
        raise ValueError(f"s samples must lie in (0, 1], got {s_samples.tolist()}")
    if grid is None:
        grid = square_grid(129)
    times = np.linspace(0.0, 1.0, nt)
    nodes = grid.node_points().reshape(-1, 2)
    members = [family.at(s) for s in s_samples]

    def run(ids, spans):
        """One kernels.rk4_points run of the members ids, each through the (t0, t1) spans."""
        return kernels.rk4_points(
            nodes, [([_rk4_segment(members[i], t0, t1, dt, family.euler(s_samples[i]))
                      for t0, t1 in spans], members[i].support_radius) for i in ids], rows=3)

    K = np.zeros((len(members), nt, nodes.shape[0]))
    autonomous = [i for i, H in enumerate(members) if H.is_autonomous]
    moving = [i for i, H in enumerate(members) if not H.is_autonomous]
    if autonomous:
        for k, z in enumerate(run(autonomous, list(zip(times[1:], times[:-1]))), start=1):
            K[autonomous, k] = z[:, 2]
    if moving:
        for k in range(1, nt):
            (z,) = run(moving, [(times[k], 0.0)])
            K[moving, k] = z[:, 2]
    K = K.reshape(K.shape[:2] + grid.values.shape)
    all_values = [[grid.with_values(Ki[k]) for k in range(nt)] for Ki in K]
    return SHamiltonian(s_samples, times, all_values, family.support_radius)


def calabi_match(sham, family, grid=None, nt=65):
    """(Cal of the s-path K(., 1, .), Cal of the t-path H(1)); equal when H(0)=0.

    K(., 1, .) declares its stored s samples as time profiles, so Cal of
    the s-path takes one node sum per s sample.
    """
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
    """K_i(t,x) = a_i^{-2} H(t, x/a_i) of a SeparableBump H: constant Calabi, shrinking support.

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
    if not isinstance(H, SeparableBump):
        raise TypeError(f"the shrinking sequence needs a SeparableBump, got {type(H).__name__}")
    exact = H.is_radial()
    out = []
    for a in scales:
        member = H.rescaled(a).amplified(a ** -4)
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
