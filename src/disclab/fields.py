"""Time-dependent Hamiltonians on the plane and the built-in field families.

A ScalarTimeField evaluates H(t, x) for scalar t and point arrays of shape
(..., 2), and vanishes for |x| >= support_radius.  The structured
SeparableBump family

    H(t, x) = amp * tau(t) * (1 - |x - c(t)|^2 / rho^2)^m,  m >= 2,

carries enough algebraic structure for the closed-form vector field of the
bump flow kernel (disclab.kernels) and for exact rescaling; any other
field that is flowed carries a gradient evaluator, from which the flows
take X_H.  Its value takes the one profile power u^m by repeated
multiplication, in place, as the kernel takes u^(m-1), and needs no
support mask when its center is fixed.  A fixed-center bump with a time
factor is tau(t) times one spatial profile, and declares so through
`time_profiles`.
"""

import functools
import math

import numpy as np

# trapezoid samples of the time factor in SeparableBump.exact_flow
EXACT_FLOW_SAMPLES = 257


class ScalarTimeField:
    """H(t, x) wrapping a vectorized evaluator.

    A compactly supported field calls its evaluator only at the points
    inside the support and is zero at the others.  An optional gradient
    evaluator, gradient(t, z, out), writes (dH/dq, dH/dp) at points z of
    shape (2, n) into out of shape (2, n), the layout of the RK4 loop's
    stage buffers; flows take X_H from it.  A field without one can be
    evaluated and integrated, but not flowed.

    A field that is a fixed set of spatial profiles with time weights,
    H(t, .) = sum_i w_i(t) * P_i, declares it through `time_profiles`:
    a pair (weights, profiles), where weights(t) gives the w_i(t) in the
    order of profiles, and each P_i is a field that ignores t and vanishes
    where H's support mask puts H to zero.  The identity holds pointwise
    up to rounding, so a time quadrature of a linear functional of
    H(t, .), such as the node sum of calabi, takes one node sum per
    profile.  A black-box field declares nothing (None).
    """

    # a black-box evaluator makes no promise that it ignores t
    is_autonomous = False
    # nor that it separates into spatial profiles with time weights
    time_profiles = None
    # nor that it vanishes outside the support, so it runs only inside it
    _evaluator_masks = False

    def __init__(self, evaluator, support_radius, gradient=None):
        self._evaluator = evaluator
        self._gradient = gradient
        self.support_radius = None if support_radius is None else float(support_radius)

    def __call__(self, t, points):
        points = np.asarray(points, dtype=np.float64)
        if self.support_radius is None or self._evaluator_masks:
            return np.asarray(self._evaluator(t, points), dtype=np.float64)
        inside = ~self._outside(points[..., 0], points[..., 1])
        vals = np.zeros(points.shape[:-1])
        vals[inside] = self._evaluator(t, points[inside])
        return vals

    def gradient_into(self, t, z, out):
        """Write (dH/dq, dH/dp) at points z, shape (2, n), into out, zero outside the support."""
        if self._gradient is None:
            raise TypeError("this field carries no gradient evaluator")
        self._gradient(t, z, out)
        if self.support_radius is not None:
            outside = self._outside(z[0], z[1])
            if outside.any():
                out[:, outside] = 0.0

    def _outside(self, x, y):
        return np.hypot(x, y) >= self.support_radius


def _zero_gradient(t, z, out):
    out.fill(0.0)


def zero_field(support_radius=0.8):
    """H == 0; its gradient evaluator writes zeros, so its flow moves no point."""
    return ScalarTimeField(lambda t, pts: np.zeros(pts.shape[:-1]), support_radius,
                           gradient=_zero_gradient)


class SeparableBump(ScalarTimeField):
    """amp * tau(t) * (1 - |x - center(t)|^2/rho^2)^m, zero outside the moving disc.

    tau=None means tau == 1 and center=None means a bump fixed at the
    origin (then the flow is an exact rotation in each circle of radius r,
    with clockwise rate u'(r)/r).
    """

    # the evaluator is zero outside the support by itself
    _evaluator_masks = True

    def __init__(self, amp=1.0, rho=0.8, m=4, tau=None, center=None, support_radius=None):
        self.amp = float(amp)
        self.rho = float(rho)
        self.m = int(m)
        if self.m < 2:
            # m = 0 is constant on the support and m = 1 has a discontinuous X_H
            raise ValueError(f"bump exponent m must be >= 2, got {m}")
        self.tau = tau
        self.center = center
        if support_radius is None:
            if center is None:
                support_radius = rho
            else:
                raise ValueError("moving bumps must declare their support_radius")
        elif center is None and support_radius < rho:
            # the profile vanishes only at r >= rho
            raise ValueError(
                f"a fixed bump's support_radius must be >= rho = {rho}, got {support_radius}"
            )
        super().__init__(self._eval, support_radius)

    def _eval(self, t, pts):
        """amp * tau(t) * max(u, 0)^m, the power by repeated multiplication, in place.

        A fixed center needs no mask: u <= 0 already means r >= rho.  A
        moving bump is masked where r^2 >= support_radius^2.
        """
        x = pts[..., 0]
        y = pts[..., 1]
        if self.center is not None:
            c = self.center_at(t)
            x = x - c[0]
            y = y - c[1]
        u = np.multiply(x, x, out=np.empty(pts.shape[:-1]))
        w = np.multiply(y, y, out=np.empty(pts.shape[:-1]))
        u += w
        u /= self.rho * self.rho
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        np.multiply(u, u, out=w)
        for _ in range(self.m - 2):
            w *= u
        w *= self.amp
        if self.tau is not None:
            w *= self.tau(t)
        if self.center is not None:
            x, y = pts[..., 0], pts[..., 1]
            w[x * x + y * y >= self.support_radius * self.support_radius] = 0.0
        return w

    @property
    def is_autonomous(self):
        """True when H ignores t: tau == 1 and the bump stays at the origin."""
        return self.tau is None and self.center is None

    @functools.cached_property
    def time_profiles(self):
        """(t -> (tau(t),), (the same bump with tau == 1,)) for a fixed center.

        A moving center translates the profile, so H(t, .) is no fixed
        combination of profiles (and the grid sum of a translated bump
        differs from the centered one in its low bits): a moving bump
        declares None.  So does an autonomous one, whose time quadratures
        take one slice already.
        """
        if self.tau is None or self.center is not None:
            return None
        profile = SeparableBump(self.amp, self.rho, self.m,
                                support_radius=self.support_radius)
        return (lambda t: (self.tau(t),)), (profile,)

    def tau_at(self, t):
        return 1.0 if self.tau is None else float(self.tau(t))

    def center_at(self, t):
        if self.center is None:
            return np.zeros(2)
        return np.asarray(self.center(t), dtype=np.float64)

    def rescaled(self, a):
        """The rescaled-path Hamiltonian a^2 H(t, x/a): same family, shrunk."""
        center = None if self.center is None else (lambda t, c=self.center: a * np.asarray(c(t)))
        return SeparableBump(
            amp=self.amp * a * a,
            rho=self.rho * a,
            m=self.m,
            tau=self.tau,
            center=center,
            support_radius=None if center is None else a * self.support_radius,
        )

    def amplified(self, factor):
        return SeparableBump(
            amp=self.amp * factor,
            rho=self.rho,
            m=self.m,
            tau=self.tau,
            center=self.center,
            support_radius=None if self.center is None else self.support_radius,
        )

    def reparametrized(self, chi, dchi):
        """The Hamiltonian dchi(t) * H(chi(t), x) of the reparametrized path."""
        if self.tau is None:
            tau = lambda t: dchi(t)
        else:
            tau = lambda t, base=self.tau: dchi(t) * base(chi(t))
        center = None if self.center is None else (lambda t, c=self.center: c(chi(t)))
        return SeparableBump(
            amp=self.amp,
            rho=self.rho,
            m=self.m,
            tau=tau,
            center=center,
            support_radius=None if center is None else self.support_radius,
        )

    # -- exact radial flow -------------------------------------------------

    def is_radial(self):
        return self.center is None

    def rotation_rate(self, r):
        """Clockwise angular velocity u'(r)/r of the radial profile (tau == 1 slice)."""
        if not self.is_radial():
            raise ValueError("rotation_rate only makes sense for a centered bump")
        r = np.asarray(r, dtype=np.float64)
        u = 1.0 - r * r / (self.rho * self.rho)
        return -2.0 * self.m * self.amp / (self.rho * self.rho) * np.where(u > 0.0, u, 0.0) ** (
            self.m - 1
        )

    def exact_flow(self, t0, t1, points):
        """Exact flow map of a radial bump: rotation by the integrated rate.

        Clockwise rotation rate is -u'(r)/r per unit of integrated tau;
        tau is integrated by the trapezoid rule on EXACT_FLOW_SAMPLES times.
        """
        if not self.is_radial():
            raise ValueError("exact_flow requires a centered (radial) bump")
        pts = np.asarray(points, dtype=np.float64)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if self.tau is None:
            tau_int = t1 - t0
        else:
            ts = np.linspace(t0, t1, EXACT_FLOW_SAMPLES)
            tau_int = np.trapezoid([self.tau(t) for t in ts], ts)
        theta = -self.rotation_rate(r) * tau_int
        ct, st = np.cos(theta), np.sin(theta)
        out = np.empty_like(pts)
        out[..., 0] = ct * pts[..., 0] - st * pts[..., 1]
        out[..., 1] = st * pts[..., 0] + ct * pts[..., 1]
        return out


def radial_bump(amp=1.0, rho=0.8, m=4):
    """Autonomous C^{m-1} bump centered at the origin."""
    return SeparableBump(amp=amp, rho=rho, m=m)


def loop_bump(amp=1.0, rho=0.8, m=4):
    """Reparametrized bump traversing chi(t) = sin^2(pi t): a loop with zero Calabi."""
    chi = lambda t: math.sin(math.pi * t) ** 2
    dchi = lambda t: math.pi * math.sin(2.0 * math.pi * t)
    return radial_bump(amp, rho, m).reparametrized(chi, dchi)


def moving_bump(amp=0.05, rho=0.25, m=4, sweep=0.3, support_radius=0.8):
    """Small bump whose center circles the origin once."""
    center = lambda t: sweep * np.array([math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)])
    if sweep + rho > support_radius:
        raise ValueError("moving bump leaves the declared support")
    return SeparableBump(
        amp=amp, rho=rho, m=m, center=center, support_radius=support_radius
    )


def twist_bump(angle=4.0, rho=0.8, m=4):
    """Radial bump strong enough that its time-one map twists by ~angle radians."""
    # peak clockwise rotation angle over one time unit is 2*m*amp/rho^2
    amp = angle * rho * rho / (2.0 * m)
    return radial_bump(amp=amp, rho=rho, m=m)
