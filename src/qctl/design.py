"""Pole placement for quaternionic SISO plants by solving the
one-sided Diophantine equation a x + b y = c over skew polynomials.

The plant is a left fraction a^{-1} b, the controller a right fraction
q p^{-1} in the feedback law u = v - R y, and c prescribes the
closed-loop denominator.  Everything here works coefficientwise over H,
so left and right multiplications are never interchangeable.
"""

from __future__ import annotations

import warnings as _warnings

from .errors import (DegenerateKernel, IllPosed, NonCausalController,
                     Unsolvable, ZeroRoot)
from .quat import Quaternion, _coerce, ZERO_THRESHOLD
from .qmat import spectral_radius_stable
from .qpoly import (COEFF_TOL, QPoly, div_quotient_right, gcld, mul,
                    right_to_left)
from .xfer import LeftFraction, RightFraction, as_left_fraction, realize


class DiophantineSolution:
    """One solution of a x + b y = c plus the data spanning all others.

    The full solution set is x = x + x_step t, y = y + y_step t over
    polynomials t, since a x_step + b y_step = 0 with (x_step, y_step)
    the right-coprime kernel pair of (a, b).  ``g`` is the greatest
    common left divisor certifying solvability.
    """

    __slots__ = ("x", "y", "g", "x_step", "y_step", "mode")

    def __init__(self, x, y, g, x_step, y_step, mode):
        self.x = x
        self.y = y
        self.g = g
        self.x_step = x_step
        self.y_step = y_step
        self.mode = mode

    def shifted(self, t: QPoly):
        """The solution (x + x_step t, y + y_step t)."""
        return self.x + mul(self.x_step, t), self.y + mul(self.y_step, t)

    def __repr__(self):
        return (f"DiophantineSolution(mode={self.mode!r}, "
                f"deg x={self.x.degree()}, deg y={self.y.degree()})")


def solve_diophantine(a: QPoly, b: QPoly, c: QPoly,
                      mode: str = "particular",
                      tol: float = COEFF_TOL) -> DiophantineSolution:
    """Solve a x + b y = c for polynomials x, y.

    Solvable exactly when the greatest common left divisor g of a and b
    left-divides c; otherwise Unsolvable is raised carrying g and the
    offending remainder.  Modes:

    - "particular": the Bezout cofactors scaled by g^{-1} c.
    - "minimal_x": the unique solution with deg x < deg x_step
      (requires b != 0, else the kernel is degenerate).
    - "minimal_y": the unique solution with deg y < deg y_step
      (requires a != 0).
    """
    if mode not in ("particular", "minimal_x", "minimal_y"):
        raise ValueError(f"unknown mode {mode!r}")
    data = gcld(a, b, tol)
    scale = max(1.0, a.norm_inf(), b.norm_inf(), c.norm_inf())
    ctilde, rem = div_quotient_right(c, data.g)
    if not rem.trim(tol, scale).is_zero():
        raise Unsolvable(
            "gcld(a, b) does not left-divide c "
            f"(remainder norm {rem.norm_inf():.3g})",
            g=data.g, remainder=rem)
    x = mul(data.p, ctilde)
    y = mul(data.q, ctilde)
    x_step, y_step = data.u, data.v
    if mode == "minimal_x":
        if x_step.is_zero():
            raise DegenerateKernel("b = 0 leaves x unconstrained")
        # x0 = x_step t + r means x = r drops the kernel multiple t,
        # so y picks up -y_step t to keep a x + b y = c
        t, x = div_quotient_right(x, x_step)
        y = y - mul(y_step, t)
    elif mode == "minimal_y":
        if y_step.is_zero():
            raise DegenerateKernel("a = 0 leaves y unconstrained")
        t, y = div_quotient_right(y, y_step)
        x = x - mul(x_step, t)
    xy_scale = max(scale, x.norm_inf(), y.norm_inf())
    return DiophantineSolution(x.trim(tol, xy_scale), y.trim(tol, xy_scale),
                               data.g, x_step, y_step, mode)


def build_c(roots, tol: float = COEFF_TOL) -> QPoly:
    """Target closed-loop polynomial as the ordered product of the
    factors (z_i - d), left to right.

    Each root contributes its similarity class to the zero set of the
    product (the companion polynomial of a product is the product of
    companions).  Roots at zero are rejected: c(0) = prod z_i would
    vanish and no causal controller could produce that loop.  Roots on
    or inside the unit circle draw a warning since the matching
    closed-loop mode would not decay.
    """
    c = QPoly.one()
    for r in roots:
        z = _coerce(r)
        if z.norm() <= ZERO_THRESHOLD:
            raise ZeroRoot("closed-loop root at 0 is not realizable")
        if z.norm() <= 1.0 + tol:
            _warnings.warn(
                f"root with norm {z.norm():.4g} <= 1 yields a "
                "non-decaying closed-loop mode", stacklevel=2)
        c = mul(c, QPoly([z, Quaternion(-1.0)]))
    return c


class DesignResult:
    """Everything place_poles produces.

    plant: the left plant fraction used.  c: target denominator.
    p, q: the Diophantine solution (controller den and num).
    controller: q p^{-1} as a RightFraction.  t_v, t_w: closed-loop
    transfer functions from reference and output disturbance to y.
    closed_loop: state-space realization of t_w.  stable: True when the
    realized loop matrix has spectral radius below one.  t_w is left
    coprime, so that spectrum is the inverse zero classes of t_w.den
    plus modes at the origin: the one verdict covers both.
    """

    __slots__ = ("plant", "c", "p", "q", "controller", "t_v", "t_w",
                 "closed_loop", "stable", "warnings")

    def __init__(self, plant, c, p, q, controller, t_v, t_w, closed_loop,
                 stable, warnings):
        self.plant = plant
        self.c = c
        self.p = p
        self.q = q
        self.controller = controller
        self.t_v = t_v
        self.t_w = t_w
        self.closed_loop = closed_loop
        self.stable = stable
        self.warnings = list(warnings)

    def __repr__(self):
        return (f"DesignResult(stable={self.stable}, "
                f"deg c={self.c.degree()})")


def closed_loop_response_tfs(plant: LeftFraction, p: QPoly, q: QPoly,
                             tol: float = COEFF_TOL):
    """Closed-loop maps for plant a^{-1} b under u = v - (q p^{-1}) y.

    With c = a p + b q, the loop gives y = T_v v + T_w w where
    T_w = p c^{-1} a and T_v = p c^{-1} b.  Both are returned as left
    fractions over the common denominator from converting p c^{-1}.
    """
    a, b = plant.den, plant.num
    c = (mul(a, p) + mul(b, q)).trim(
        tol, max(1.0, a.norm_inf() * max(1.0, p.norm_inf()),
                 b.norm_inf() * max(1.0, q.norm_inf())))
    if c.is_zero():
        raise IllPosed("a p + b q is identically zero")
    den_cl, h = right_to_left(p, c, tol)
    t_w = LeftFraction(den_cl, mul(h, a))
    t_v = LeftFraction(den_cl, mul(h, b))
    return t_v, t_w


def place_poles(plant, targets, tol: float = COEFF_TOL) -> DesignResult:
    """Design a feedback controller fixing the closed-loop denominator.

    ``plant`` may be a StateSpace (its minimal left fraction is
    computed), a LeftFraction, or a RightFraction.  ``targets`` is
    either an iterable of desired denominator zeros in the shift
    variable (norms above 1 mean decay) or a ready-made target
    polynomial.

    Solves a p + b q = c for the minimal-degree p, forms the controller
    q p^{-1}, and packages the closed-loop transfer functions, a
    realization, and the realization's spectral-radius stability
    verdict.  NonCausalController signals
    p(0) = 0, which would make the feedback law depend on the current
    output.
    """
    frac = as_left_fraction(plant, tol)
    notes = []
    if isinstance(targets, QPoly):
        c = targets
    else:
        targets = list(targets)
        for r in targets:
            z = _coerce(r)
            if ZERO_THRESHOLD < z.norm() <= 1.0 + tol:
                notes.append(f"target zero with norm {z.norm():.4g} "
                             "is not outside the unit circle")
        c = build_c(targets, tol)
    if c.is_zero():
        raise IllPosed("target polynomial is zero")
    sol = solve_diophantine(frac.den, frac.num, c, mode="minimal_x", tol=tol)
    p, q = sol.x, sol.y
    if p.is_zero() or p.at0().norm() <= tol * max(1.0, p.norm_inf()):
        raise NonCausalController("p(0) = 0: the controller is not causal")
    controller = RightFraction(q, p)
    t_v, t_w = closed_loop_response_tfs(frac, p, q, tol)
    closed_loop = realize(t_w)
    stable = spectral_radius_stable(closed_loop.F)
    return DesignResult(frac, c, p, q, controller, t_v, t_w, closed_loop,
                        stable, notes)
