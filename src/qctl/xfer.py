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
    """State-space realization of a causal fraction, with no fraction
    conversion.

    A left fraction den^{-1} num, normalized to den(0) = 1, gets the
    observer form (see _observer_form).  A right fraction num den^{-1}
    gets the dual (F^H, H^H, G^H, conj J) of the observer form of the
    conjugate left fraction conj(den)^{-1} conj(num): since conjugation
    reverses products, that is the controllable form of num den^{-1}.
    A StateSpace is realized from its minimal left fraction.

    n = max(deg den, deg num) states; a fraction equal to its direct
    term num(0) den(0)^{-1} gets none.  Raises NonCausal when den(0)
    vanishes.
    """
    if isinstance(frac, RightFraction):
        ss = _realize_left(frac.den.conjugate(), frac.num.conjugate(), tol)
        return StateSpace(_conj_transpose(ss.F), _conj_transpose(ss.H),
                          _conj_transpose(ss.G), ss.J.conjugate())
    frac = as_left_fraction(frac)
    return _realize_left(frac.den, frac.num, tol)


def _realize_left(den: QPoly, num: QPoly, tol: float) -> StateSpace:
    """realize for the left fraction den^{-1} num, given as polynomials
    that need not be reduced or normalized."""
    den, num = _unit_at0(den, num)
    b0 = num.at0()
    btilde = (num - mul(den, QPoly.constant(b0))).trim(
        tol, max(1.0, den.norm_inf(), num.norm_inf()))
    if btilde.is_zero():
        den, num = QPoly.one(), QPoly.constant(b0)
    return _observer_form(den, num)


def _unit_at0(den: QPoly, num: QPoly):
    """(u den, u num) with u = den(0)^{-1}: the same left fraction with
    den(0) = 1.  Raises NonCausal when den(0) vanishes."""
    d0 = den.at0()
    if d0.norm() <= ZERO_THRESHOLD * max(1.0, den.norm_inf(), num.norm_inf()):
        raise NonCausal("den(0) = 0: the fraction has no causal series")
    if d0 == Quaternion(1.0):
        return den, num
    u = d0.inverse()
    return scale_left(u, den), scale_left(u, num)


def _observer_form(den: QPoly, num: QPoly) -> StateSpace:
    """Observer-form realization of den^{-1} num for den(0) = 1.

    With b0 = num(0) and n = max(deg den, deg num):

        F = first column (-den_1 ... -den_n), ones on the superdiagonal
        G = (num_1 - den_1 b0; ...; num_n - den_n b0),  H = e_1,  J = b0

    Its Markov parameters solve den S = num term by term, and F is a
    companion matrix: its spectrum is the inverse zero classes of den
    plus n - deg den classes at the origin.
    """
    n = max(den.degree(), num.degree(), 0)
    b0 = num.at0()
    zero, one = Quaternion(), Quaternion(1.0)
    F = [[zero] * n for _ in range(n)]
    for j in range(n):
        F[j][0] = -den.coeff(j + 1)
        if j + 1 < n:
            F[j][j + 1] = one
    G = [[num.coeff(j + 1) - den.coeff(j + 1) * b0] for j in range(n)]
    H = [[one if j == 0 else zero for j in range(n)]]
    return StateSpace(QuatMatrix(F, cols=n), QuatMatrix(G, cols=1),
                      QuatMatrix(H, cols=n), b0)


def _series(s1: StateSpace, s2: StateSpace) -> StateSpace:
    """The series connection u -> s1 -> s2 -> y, whose transfer function
    is S2 S1 (s1 acts first, so its series multiplies from the right):

        F = [[F1, 0], [G2 H1, F2]],  G = [G1; G2 J1],
        H = [J2 H1, H2],             J = J2 J1
    """
    n1, n2 = s1.n, s2.n
    zero = Quaternion()
    g2 = [s2.G[i, 0] for i in range(n2)]
    h1 = [s1.H[0, j] for j in range(n1)]
    F = ([list(s1.F.data[i]) + [zero] * n2 for i in range(n1)]
         + [[g * h for h in h1] + list(s2.F.data[i])
            for i, g in enumerate(g2)])
    G = [[s1.G[i, 0]] for i in range(n1)] + [[g * s1.J] for g in g2]
    H = [[s2.J * h for h in h1] + list(s2.H.data[0])]
    return StateSpace(QuatMatrix(F, cols=n1 + n2),
                      QuatMatrix(G, cols=1), QuatMatrix(H, cols=n1 + n2),
                      s2.J * s1.J)


def _conj_transpose(A: QuatMatrix) -> QuatMatrix:
    return QuatMatrix([[A[i, j].conjugate() for i in range(A.rows)]
                       for j in range(A.cols)], cols=A.rows)


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
