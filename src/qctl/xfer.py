"""Transfer functions of SISO quaternionic state-space systems.

A system (F, G, H, J) evolves x_{k+1} = F x_k + G u_k, y_k = H x_k
+ J u_k.  Its transfer function in the backward-shift variable d is the
formal series S(d) = J + sum_{k>=1} H F^{k-1} G d^k, represented here as
a left fraction den^{-1} num or a right fraction num den^{-1} of skew
polynomials.
"""

from __future__ import annotations

from .errors import (AnnihilatorNotFound, DimensionMismatch, NonCausal,
                     ZeroDivisor)
from .quat import Quaternion, SimilarityClass, _coerce, ZERO_THRESHOLD
from .qmat import QuatMatrix, right_eigenvalues, solve_left_linear
from .qpoly import (COEFF_TOL, QPoly, _invert, div_quotient_right, gcld,
                    left_to_right, mul, right_to_left, right_zeros,
                    scale_left)
from .sim import _impulse_response


class StateSpace:
    """Quaternionic SISO state-space system (F, G, H, J)."""

    __slots__ = ("F", "G", "H", "J")

    def __init__(self, F, G, H, J):
        self.F = F if isinstance(F, QuatMatrix) else QuatMatrix(F)
        self.G = G if isinstance(G, QuatMatrix) else QuatMatrix(G)
        self.H = H if isinstance(H, QuatMatrix) else QuatMatrix(H)
        if isinstance(J, QuatMatrix):
            if J.rows != 1 or J.cols != 1:
                raise DimensionMismatch("J must be scalar")
            J = J[0, 0]
        self.J = _coerce(J)
        n = self.F.rows
        if self.F.cols != n:
            raise DimensionMismatch("F must be square")
        if self.G.rows != n or self.G.cols != 1:
            raise DimensionMismatch("G must be n x 1")
        if self.H.rows != 1 or self.H.cols != n:
            raise DimensionMismatch("H must be 1 x n")

    @property
    def n(self) -> int:
        return self.F.rows

    def __repr__(self):
        return f"StateSpace(n={self.n})"


def _cancel_gcld(den: QPoly, num: QPoly, tol: float):
    """Trim den and num and divide out their greatest common left
    divisor, leaving den^{-1} num unchanged."""
    if den.is_zero():
        raise ZeroDivisor("fraction denominator is zero")
    scale = max(1.0, den.norm_inf(), num.norm_inf())
    den = den.trim(tol, scale)
    num = num.trim(tol, scale)
    if not num.is_zero():
        g = gcld(den, num, tol).g
        if g.degree() >= 1:
            den, _ = div_quotient_right(den, g)
            num, _ = div_quotient_right(num, g)
    return den, num


class LeftFraction:
    """Transfer function den^{-1} num.

    Construction reduces by the greatest common left divisor and then
    normalizes den(0) = 1 by a left unit (falling back to a monic
    denominator when den(0) is zero).  Both transforms leave the
    fraction's value unchanged.
    """

    __slots__ = ("den", "num")

    kind = "left"

    def __init__(self, den: QPoly, num: QPoly, tol: float = COEFF_TOL):
        den, num = _cancel_gcld(den, num, tol)
        c0 = den.at0()
        unit = (c0.inverse() if c0.norm() > tol * max(1.0, den.norm_inf())
                else _invert(den.lead(),
                             "leading coefficient of the denominator"))
        self.den = scale_left(unit, den)
        self.num = scale_left(unit, num)

    def __repr__(self):
        return f"LeftFraction(den={self.den!r}, num={self.num!r})"


class RightFraction:
    """Transfer function num den^{-1}.

    Construction reduces by the greatest common right divisor, computed
    as the conjugate of the left reduction of conj(den)^{-1} conj(num).
    No unit normalization is applied, so num and den keep the scaling
    they were given; callers that need a causal normal form convert to
    a left fraction.
    """

    __slots__ = ("num", "den")

    kind = "right"

    def __init__(self, num: QPoly, den: QPoly, tol: float = COEFF_TOL):
        den, num = _cancel_gcld(den.conjugate(), num.conjugate(), tol)
        self.num = num.conjugate()
        self.den = den.conjugate()

    def __repr__(self):
        return f"RightFraction(num={self.num!r}, den={self.den!r})"


def as_left_fraction(plant, tol: float = COEFF_TOL) -> LeftFraction:
    """The left fraction of a StateSpace (its minimal one), a
    LeftFraction (itself) or a RightFraction (converted)."""
    if isinstance(plant, StateSpace):
        return tf_left(plant)
    if isinstance(plant, LeftFraction):
        return plant
    if isinstance(plant, RightFraction):
        return LeftFraction(*right_to_left(plant.num, plant.den, tol))
    raise TypeError(f"cannot interpret {type(plant).__name__} as a plant")


def markov(sys: StateSpace, count: int):
    """First ``count`` Markov parameters S_0 = J, S_k = H F^{k-1} G,
    the system's impulse response from x = 0."""
    return _impulse_response(sys, max(count, 0))


def series(frac, count: int):
    """First ``count`` coefficients of the fraction's power series.

    Requires den(0) invertible (causality); raises NonCausal otherwise.
    Left fractions solve den * S = num; a right fraction's series is the
    conjugate of the left series of conj(den)^{-1} conj(num).
    """
    if frac.kind == "left":
        return _left_series(frac.den, frac.num, count)
    return [s.conjugate() for s in
            _left_series(frac.den.conjugate(), frac.num.conjugate(), count)]


def _left_series(den: QPoly, num: QPoly, count: int):
    d0 = den.at0()
    if d0.norm() <= ZERO_THRESHOLD * max(1.0, den.norm_inf()):
        raise NonCausal("den(0) is not invertible")
    d0i = d0.inverse()
    s = []
    for k in range(count):
        acc = num.coeff(k)
        for i in range(1, min(k, den.degree()) + 1):
            acc = acc - den.coeff(i) * s[k - i]
        s.append(d0i * acc)
    return s


def _left_annihilator(ms, n: int, tol: float):
    """Minimal monic-at-0 polynomial a with sum_i a_i S_{k-i} = 0 for
    all k > deg a, given Markov parameters ``ms`` of a system with at
    most n states.  Returns (a, b) with b the matching numerator."""
    for m in range(0, 2 * n + 1):
        if m == 0:
            coeffs = [Quaternion(1.0)]
        else:
            rows, rhs = [], []
            for k in range(m + 1, m + 2 * n + 1):
                row = [ms[k - i] for i in range(1, m + 1)]
                w = max([1.0] + [s.norm() for s in row] + [ms[k].norm()])
                rows.append([s * (1.0 / w) for s in row])
                rhs.append(-ms[k] * (1.0 / w))
            if not rows:
                continue
            sol = solve_left_linear(rows, rhs)
            coeffs = [Quaternion(1.0)] + sol
        # verify on a longer guard window than was fit
        amax = max(1.0, sum(c.norm() for c in coeffs))
        ok = True
        for k in range(m + 1, min(m + 2 * n + 5, len(ms))):
            acc = Quaternion()
            scale = 1.0
            for i in range(0, m + 1):
                acc = acc + coeffs[i] * ms[k - i]
                scale += coeffs[i].norm() * ms[k - i].norm()
            if acc.norm() > tol * max(scale, amax):
                ok = False
                break
        if not ok:
            continue
        a = QPoly(coeffs)
        bs = []
        for k in range(0, m + 1):
            acc = Quaternion()
            for i in range(0, min(k, m) + 1):
                acc = acc + coeffs[i] * ms[k - i]
            bs.append(acc)
        b = QPoly(bs).trim(tol, max(1.0, max(s.norm() for s in ms)))
        return a, b
    raise AnnihilatorNotFound(
        "no annihilating denominator up to degree "
        f"{2 * n} met the residual tolerance {tol:g}")


def tf_left(sys: StateSpace, tol: float = 1e-7) -> LeftFraction:
    """Minimal left fraction den^{-1} num equal to the system's series.

    Searches denominator degrees 0..2n, fits the annihilation equations
    on a 2n-wide window of Markov parameters, and keeps the first
    candidate that also annihilates a longer guard window.
    """
    n = sys.n
    ms = markov(sys, 4 * n + 5)
    a, b = _left_annihilator(ms, n, tol)
    return LeftFraction(a, b)


def tf_right(sys: StateSpace, tol: float = 1e-7) -> RightFraction:
    """Minimal right fraction num den^{-1} for the system.

    Computed through the left fraction of the conjugated Markov
    sequence: if sum a_i conj(S_{k-i}) = 0 then conjugating gives
    sum S_{k-i} conj(a_i) = 0, a right annihilator.
    """
    n = sys.n
    ms = [s.conjugate() for s in markov(sys, 4 * n + 5)]
    a, b = _left_annihilator(ms, n, tol)
    return RightFraction(b.conjugate(), a.conjugate())


def fraction_equal(f1, f2, tol: float = 1e-9) -> bool:
    """Whether two fractions (of either kind) define the same transfer
    function, decided by exact cross-multiplication: a^{-1} b equals
    b' a'^{-1} iff b a' = a b'.  Two right fractions are compared as
    the conjugate left fractions conj(den)^{-1} conj(num)."""
    if f1.kind == f2.kind:
        a1, b1, a2, b2 = f1.den, f1.num, f2.den, f2.num
        if f1.kind == "right":
            a1, b1, a2, b2 = (p.conjugate() for p in (a1, b1, a2, b2))
        b2r, a2r = left_to_right(a2, b2)
        lhs, rhs = mul(b1, a2r), mul(a1, b2r)
    elif f1.kind == "left":
        lhs, rhs = mul(f1.num, f2.den), mul(f1.den, f2.num)
    else:
        return fraction_equal(f2, f1, tol)
    scale = max(1.0, lhs.norm_inf(), rhs.norm_inf())
    return (lhs - rhs).norm_inf() <= tol * scale


def realize(frac, tol: float = COEFF_TOL) -> StateSpace:
    """Controllable-form state-space realization of a causal fraction.

    With den(0) = 1, split off the direct term b0 = num(0), write the
    strictly proper remainder den^{-1} (num - den b0) as a right
    fraction bhat ahat^{-1} with ahat(0) = 1, and read the companion
    realization off the right fraction's coefficients:

        F = shift matrix with last row (-ahat_n ... -ahat_1)
        G = e_n,  H = (bhat_n ... bhat_1),  J = b0

    n = max(deg den, deg num).  Right fractions are converted first.
    """
    frac = as_left_fraction(frac)
    den, num = frac.den, frac.num
    scale = max(1.0, den.norm_inf(), num.norm_inf())
    d0 = den.at0()
    if d0.norm() <= ZERO_THRESHOLD * scale:
        raise NonCausal("den(0) = 0: the fraction has no causal series")
    if d0 != Quaternion(1.0):
        u = d0.inverse()
        den, num = scale_left(u, den), scale_left(u, num)
    b0 = num.at0()
    btilde = (num - mul(den, QPoly.constant(b0))).trim(tol, scale)
    n = max(den.degree(), num.degree() if not num.is_zero() else 0)
    if btilde.is_zero() or n <= 0:
        return StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                          QuatMatrix.zeros(1, 0), b0)
    bhat, ahat = left_to_right(den, btilde)
    if ahat.at0().norm() <= ZERO_THRESHOLD * max(1.0, ahat.norm_inf()):
        raise NonCausal("right denominator vanishes at 0")
    F = [[Quaternion() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        F[i][i + 1] = Quaternion(1.0)
    for j in range(n):
        F[n - 1][j] = -ahat.coeff(n - j)
    G = [[Quaternion()] for _ in range(n)]
    G[n - 1][0] = Quaternion(1.0)
    H = [[bhat.coeff(n - j) for j in range(n)]]
    return StateSpace(F, G, H, b0)


def inverse_class(cls: SimilarityClass) -> SimilarityClass:
    """Similarity class of q^{-1} for any q in the given class."""
    n2 = cls.re * cls.re + cls.im_norm * cls.im_norm
    if n2 == 0.0:
        raise ZeroDivisor("the zero class has no inverse")
    return SimilarityClass(cls.re / n2, cls.im_norm / n2)


def pole_classes(frac, tol: float = COEFF_TOL):
    """Inverse similarity classes of the denominator's right zeros.

    These are the classes where the system's dynamics live: a zero z of
    den corresponds to a mode with right eigenvalue class [z^{-1}].
    """
    report = right_zeros(frac.den, tol)
    out = [inverse_class(cls) for _, cls in report.isolated]
    out.extend(inverse_class(cls) for cls in report.spherical)
    return out


def spectrum_matches_poles(sys: StateSpace, frac,
                           tol: float = 1e-6) -> bool:
    """Check that the system's dynamics live where the fraction says.

    True iff every inverse zero class of frac.den matches some
    right-eigenvalue class of F within tol, and F carries exactly
    n - deg(den) eigenvalue classes at the origin (the states the
    denominator does not see).
    """
    eig = list(right_eigenvalues(sys.F, tol))
    origin = SimilarityClass(0.0, 0.0)
    for want in pole_classes(frac, min(tol, COEFF_TOL)):
        if not any(cls.matches(want, tol) for cls in eig):
            return False
    at_zero = sum(1 for cls in eig if cls.matches(origin, tol))
    return at_zero == sys.n - frac.den.degree()


def denominator_classes_agree(lf, rf, tol: float = 1e-6) -> bool:
    """Whether the left and right denominators of one transfer function
    have the same multiset of zero classes (greedy class matching).

    Meaningful when the fractions are coprime representations of the
    same function; then the two denominators are similar in this exact
    sense even though they differ as polynomials.
    """
    left = right_zeros(lf.den, min(tol, COEFF_TOL))
    right = right_zeros(rf.den, min(tol, COEFF_TOL))
    mine = left.all_classes()
    theirs = right.all_classes()
    if (len(mine) != len(theirs)
            or len(left.spherical) != len(right.spherical)):
        return False
    remaining = list(theirs)
    for cls in mine:
        hit = next((i for i, want in enumerate(remaining)
                    if cls.matches(want, tol)), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True
