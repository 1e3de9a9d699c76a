"""Pole placement for quaternionic SISO plants by solving the
one-sided Diophantine equation a x + b y = c over skew polynomials.

The plant is a left fraction a^{-1} b, the controller a right fraction
q p^{-1} in the feedback law u = v - R y, and c prescribes the
closed-loop denominator.  Everything here works coefficientwise over H,
so left and right multiplications are never interchangeable.
"""

from __future__ import annotations

import warnings as _warnings

import numpy as np

from .errors import (BothZero, DegenerateKernel, IllPosed,
                     NonCausalController, ZeroRoot)
from .quat import _coerce, ZERO_THRESHOLD
from .qmat import spectral_radius_stable
from .qpoly import (COEFF_TOL, QPoly, _invert, _left_gcd, _left_quotient,
                    _norm, _sylvester_solve, _wrap, mul, right_to_left,
                    scale_left, scale_right)
from .xfer import (LeftFraction, RightFraction, _closed_loop, _unit_at0,
                   as_left_fraction)


class DiophantineSolution:
    """One solution of a x + b y = c plus the data spanning all others.

    The full solution set is x = x + x_step t, y = y + y_step t over
    polynomials t, since a x_step + b y_step = 0 with (x_step, y_step)
    the right-coprime kernel pair of (a, b).  x_step is monic of degree
    deg b - deg g in modes "particular" and "minimal_x", y_step monic of
    degree deg a - deg g in mode "minimal_y"; the pair is (0, 1) when
    b = 0 and (1, 0) when a = 0.  ``g`` is the monic greatest common
    left divisor certifying solvability, 1 when a and b are left
    coprime.
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

    Every step solves with the complex-adjoint block-Toeplitz
    (Sylvester) matrix of a linear map on coefficients of bounded
    degree, equilibrated by rows and columns: an LU solve when it is
    square and of full rank, least squares otherwise.  No Euclidean
    algorithm runs.  With n = deg a and m = deg b, after trimming both
    by ``tol`` relative to their largest coefficient:

    - k = deg gcld(a, b) is half the number of singular values at or
      below floor * (largest singular value), floor = max(tol, 2 r eps),
      of the equilibrated square matrix M of (x, y) -> a x + b y with
      deg x < m, deg y < r - m and r = max(deg c, n + m) + 1 coefficient
      equations.  Its null space holds the kernel multiples
      (x_step t, y_step t) with deg t < k.  The LU that solves with M
      also gives M^-1, and 1 / |M^-1|_F > 2 floor |M|_F certifies k = 0
      (sigma_min >= 1 / |M^-1|_F, sigma_max <= |M|_F); the singular
      values are computed only when that certificate fails.
    - k = 0 (left coprime, the common case): the same call solves for
      the solution and, from the right-hand side -a d^m, for the kernel
      pair with x_step = d^m + (lower terms); g = 1.
    - k > 0: M gets no solution; the map with deg x < m - k gives the
      solution and the kernel pair, x_step monic of degree m - k.  g
      solves g a' = a, g b' = b, (a', b') being the left annihilator of
      the kernel pair, all in least squares.
    - a = 0 or b = 0: g is the other one made monic.  a = b = 0
      raises BothZero.
    - Whenever g != 1, the equation is solvable exactly when g
      left-divides c.  Unsolvable, carrying g and the remainder of
      dividing c by g, is raised when g h = c leaves a least-squares
      residual above tol times the largest coefficient of a, b and c.

    Modes:

    - "particular": the Bezout cofactors p, q of a p + b q = g with
      deg p < m - k, times g^{-1} c.
    - "minimal_x": the unique solution with deg x < deg x_step
      (requires b != 0, else the kernel is degenerate).
    - "minimal_y": the unique solution with deg y < deg y_step
      (requires a != 0), solved as "minimal_x" with a and b exchanged,
      so y_step is the monic one.
    """
    if mode not in ("particular", "minimal_x", "minimal_y"):
        raise ValueError(f"unknown mode {mode!r}")
    if a.is_zero() and b.is_zero():
        raise BothZero("a x + b y = c with a = b = 0 is undefined")
    ab_scale = max(1.0, a.norm_inf(), b.norm_inf())
    scale = max(ab_scale, c.norm_inf())
    a, b = a.trim(tol, ab_scale), b.trim(tol, ab_scale)
    if a.is_zero() or b.is_zero():
        side = b if a.is_zero() else a
        unit = _invert(side.lead(), "leading coefficient")
        g = scale_right(side, unit)
        quo = scale_left(unit, _left_quotient(g, c, tol, scale))
        if mode == "minimal_x" and b.is_zero():
            raise DegenerateKernel("b = 0 leaves x unconstrained")
        if mode == "minimal_y" and a.is_zero():
            raise DegenerateKernel("a = 0 leaves y unconstrained")
        if a.is_zero():
            x, y, x_step, y_step = QPoly(), quo, QPoly.one(), QPoly()
        else:
            x, y, x_step, y_step = quo, QPoly(), QPoly(), QPoly.one()
    else:
        swap, particular = mode == "minimal_y", mode == "particular"
        f, s = (b, a) if swap else (a, b)
        k, g, (x_step, y_step), [(x, y)], _ = _left_gcd(
            f, s, tol, [QPoly.one() if particular else c], c.degree())
        ctilde = _left_quotient(g, c, tol, scale) if k else c
        if particular and k:
            m = s.degree()
            rows = max(c.degree(), f.degree() + m - k) + 1
            [[x, y]], _, _ = _sylvester_solve(
                [(f, m - k), (s, rows - m)], rows, [g])
        if particular:
            x, y = mul(x, ctilde), mul(y, ctilde)
        if swap:
            x, y, x_step, y_step = y, x, y_step, x_step
    xy_scale = max(scale, x.norm_inf(), y.norm_inf())
    return DiophantineSolution(x.trim(tol, xy_scale), y.trim(tol, xy_scale),
                               g, x_step, y_step, mode)


def build_c(roots, tol: float = COEFF_TOL) -> QPoly:
    """Target closed-loop polynomial as the ordered product of the
    factors (z_i - d), left to right.

    Each root contributes its similarity class to the zero set of the
    product (the companion polynomial of a product is the product of
    companions).  Roots at zero are rejected: c(0) = prod z_i would
    vanish and no causal controller could produce that loop.  Roots on
    or inside the unit circle draw a warning since the matching
    closed-loop mode would not decay.

    The roots are packed once into one array of the factors' pair
    arrays, and mul takes the product factor by factor with no
    Quaternion per factor, bit for bit the chain of mul calls on
    QPoly factors from 1: it starts at the first factor plus 0.0, which
    for finite roots is 1 times it (both turn -0.0 into +0.0).
    """
    z = np.array([_coerce(r).components() for r in roots],
                 dtype=float).reshape(-1, 4)
    for norm in _norm(z.T).tolist():
        if norm <= ZERO_THRESHOLD:
            raise ZeroRoot("closed-loop root at 0 is not realizable")
        if norm <= 1.0 + tol:
            _warnings.warn(
                f"root with norm {norm:.4g} <= 1 yields a "
                "non-decaying closed-loop mode", stacklevel=2)
    factors = np.empty((len(z), 2, 2), dtype=complex)
    factors[:, 0] = z.view(complex)
    factors[:, 1] = -1.0, 0.0
    c = _wrap(factors[0] + 0.0) if len(factors) else QPoly.one()
    for factor in factors[1:]:
        c = mul(c, _wrap(factor))
    return c


class DesignResult:
    """Everything place_poles produces.

    plant: the left plant fraction a^{-1} b used.  c: target
    denominator.  p, q: the Diophantine solution (controller den and
    num).  controller: q p^{-1} as a RightFraction.  closed_loop: a
    state-space realization of t_w = p c^{-1} a, the series connection
    of place_poles written in one block pair array (see xfer._closed_loop),
    with max(deg c, deg a) + deg p states.
    stable: True when closed_loop.F has spectral radius below one.

    t_v, t_w: the closed-loop transfer functions from reference and
    output disturbance to y, as left fractions.  Passing None for them
    defers them: closed_loop_response_tfs(plant, p, q) then computes
    both on first read.  Passing None for controller likewise defers
    RightFraction(q, p), with its common-factor cancellation, to the
    first read.  No design decision rests on any of the three.
    """

    __slots__ = ("plant", "c", "p", "q", "_controller", "closed_loop",
                 "stable", "warnings", "_tfs", "_tol")

    def __init__(self, plant, c, p, q, controller, t_v, t_w, closed_loop,
                 stable, warnings):
        self.plant = plant
        self.c = c
        self.p = p
        self.q = q
        self._controller = controller
        self._tfs = None if t_v is None or t_w is None else (t_v, t_w)
        self._tol = COEFF_TOL
        self.closed_loop = closed_loop
        self.stable = stable
        self.warnings = list(warnings)

    @property
    def controller(self):
        if self._controller is None:
            self._controller = RightFraction(self.q, self.p, self._tol)
        return self._controller

    def _response_tfs(self):
        if self._tfs is None:
            self._tfs = closed_loop_response_tfs(self.plant, self.p, self.q,
                                                 self._tol)
        return self._tfs

    @property
    def t_v(self):
        return self._response_tfs()[0]

    @property
    def t_w(self):
        return self._response_tfs()[1]

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

    Solves a p + b q = c for the minimal-degree p.  The controller
    q p^{-1} is built on the first read of result.controller, and
    tf_left builds a StateSpace plant's fraction with no coprimeness
    decision, so such a design makes one, in solve_diophantine.  The
    closed loop t_w = p c^{-1} a is realized by composition, with no
    fraction conversion: the observer form of c_ach^{-1} a, with
    c_ach = a p + b q cut to deg c + 1 coefficients, in series with the
    observer form of the FIR p, written straight into one block pair
    array (see xfer._closed_loop).  c_ach, not c, makes the verdict depend
    on the computed p and q.  That realization is block triangular, so
    its spectrum is the inverse zero classes of c_ach plus modes at the
    origin, and stable is its spectral-radius verdict.
    NonCausalController signals p(0) = 0, which would make the feedback
    law depend on the current output; NonCausal signals c_ach(0) = 0.
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
    a, b = frac.den, frac.num
    sol = solve_diophantine(a, b, c, mode="minimal_x", tol=tol)
    p, q = sol.x, sol.y
    if p.is_zero() or p.at0().norm() <= tol * max(1.0, p.norm_inf()):
        raise NonCausalController("p(0) = 0: the controller is not causal")
    c_ach = _wrap((mul(a, p) + mul(b, q))._z[:c.degree() + 1])
    closed_loop = _closed_loop(*_unit_at0(c_ach, a), p)
    stable = spectral_radius_stable(closed_loop.F)
    result = DesignResult(frac, c, p, q, None, None, None, closed_loop,
                          stable, notes)
    result._tol = tol
    return result
