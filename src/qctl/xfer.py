"""Transfer functions of SISO quaternionic state-space systems.

A system (F, G, H, J) evolves x_{k+1} = F x_k + G u_k, y_k = H x_k
+ J u_k.  Its transfer function in the backward-shift variable d is the
formal series S(d) = J + sum_{k>=1} H F^{k-1} G d^k, represented here as
a left fraction den^{-1} num or a right fraction num den^{-1} of skew
polynomials.
"""

from __future__ import annotations

import numpy as np

from .errors import (AnnihilatorNotFound, DimensionMismatch, NonCausal,
                     Unsolvable, ZeroDivisor)
from .quat import Quaternion, SimilarityClass, _coerce, ZERO_THRESHOLD
from .qmat import (QuatMatrix, _pair_matmul, _wrap as _wrap_matrix,
                   complex_adjoint, right_eigenvalues)
from .qpoly import (_CONJ, COEFF_TOL, QPoly, _invert, _left_gcd,
                    _left_quotient, _wrap, left_to_right, mul, right_to_left,
                    right_zeros, scale_left, scale_right)
from .sim import _blocks, _impulse_response


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
    divisor g, leaving den^{-1} num unchanged.  The Sylvester decision
    of solve_diophantine gives deg g from singular values alone; only
    when it is positive are g and the quotients g^{-1} den, g^{-1} num
    computed, by least squares.  A g that leaves either residual above
    tol times the larger input is no common factor at that tolerance,
    and den, num stay as trimmed."""
    if den.is_zero():
        raise ZeroDivisor("fraction denominator is zero")
    scale = max(1.0, den.norm_inf(), num.norm_inf())
    den = den.trim(tol, scale)
    num = num.trim(tol, scale)
    if den.degree() > 0 and num.degree() > 0:
        k, g, _, _ = _left_gcd(den, num, tol, solve=False)
        if k:
            try:
                return (_left_quotient(g, den, tol, scale),
                        _left_quotient(g, num, tol, scale))
            except Unsolvable:
                pass
    return den, num


class LeftFraction:
    """Transfer function den^{-1} num.

    Construction divides out the greatest common left divisor that the
    Sylvester decision of solve_diophantine finds (see _cancel_gcld),
    then normalizes den(0) = 1 by a left unit (monic when den(0) is
    zero).  Neither step changes the fraction's value.
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

    Construction divides out the greatest common right divisor: the
    conjugate of the left reduction (the Sylvester decision, see
    _cancel_gcld) of conj(den)^{-1} conj(num).  No unit normalization is
    applied, so num and den keep the scaling they were given; callers
    that need a causal normal form convert to a left fraction.
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

    Raises NonCausal when |den(0)| <= ZERO_THRESHOLD max(1, |den|).  A
    left fraction's series solves den * S = num: it is the impulse
    response of the observer form.  A right fraction's is the conjugate
    of the left series of conj(den)^{-1} conj(num), the response of the
    dual of that form.
    """
    den, num = frac.den, frac.num
    if frac.kind == "right":
        den, num = den.conjugate(), num.conjugate()
    ss = _observer_form(*_unit_at0(den, num, max(1.0, den.norm_inf())))
    return markov(ss if frac.kind == "left" else _dual(ss), count)


def _first_dependence(A, rows, tol: float):
    """First left dependence among the blocks adj(r F^k) = rows A^k, for
    ``rows`` = adj(r) (2 x N) and A = adj(F).  For m = 0, 1, ..., N/2,
    solves sum_i a_i1 B[0] + a_i2 B[1] = -(first row of block m) over the
    blocks B = m-1, ..., 0 in least squares with unit-norm rows, that is
    r F^m = -sum_i a_i r F^(m-i) with a_i = a_i1 + a_i2 j, and returns
    (x, stacked blocks m-1, ..., 0) once the residual is at most tol
    times the norm of that row; a_i's pair is x[2i-2:2i]."""
    block, earlier = rows, np.empty((0, A.shape[0]), dtype=complex)
    for m in range(A.shape[0] // 2 + 1):
        target, x = block[0], np.empty(0, dtype=complex)
        resid = target
        if m:
            w = 1.0 / np.linalg.norm(earlier, axis=1)
            x = np.linalg.lstsq(earlier.T * w, -target, rcond=None)[0] * w
            resid = x @ earlier + target
        if np.linalg.norm(resid) <= tol * np.linalg.norm(target):
            return x, earlier
        earlier, block = np.vstack([block, earlier]), block @ A
    raise AnnihilatorNotFound(f"no dependence up to degree {m} met the "
                              f"relative residual tolerance {tol:g}")


def _annihilator(sys: StateSpace, tol: float):
    """(a, b), a(0) = 1, with a^{-1} b the minimal left fraction.  The
    rows H F^k are restricted to the controllable subspace (spanned by
    the dual rows G^H (F^H)^k), where their first dependence gives a;
    b is a S cut after d^(deg a), S the Markov parameters."""
    F = complex_adjoint(sys.F)
    _, ctrb = _first_dependence(F.conj().T, complex_adjoint(sys.G).conj().T,
                                tol)
    Q = np.linalg.qr(ctrb.conj().T)[0]
    x, _ = _first_dependence(Q.conj().T @ F @ Q,
                             complex_adjoint(sys.H) @ Q, tol)
    a = _wrap(np.vstack([[1.0, 0.0], x.reshape(-1, 2)]))
    b = mul(a, QPoly(markov(sys, sys.n + 1)))
    return a, _wrap(b._z[:a.degree() + 1])


def tf_left(sys: StateSpace, tol: float = 1e-7) -> LeftFraction:
    """Minimal left fraction den^{-1} num equal to the system's series.
    deg den is the first m at which H F^m, on the controllable subspace,
    lies in the left span of H F^(m-1), ..., H: its least-squares
    residual on the complex adjoint is at most ``tol`` times its norm."""
    return LeftFraction(*_annihilator(sys, tol))


def tf_right(sys: StateSpace, tol: float = 1e-7) -> RightFraction:
    """Minimal right fraction num den^{-1}: the conjugate of the left
    fraction of the dual system, as sum a_i conj(S_(k-i)) = 0 conjugates
    to sum S_(k-i) conj(a_i) = 0.  ``tol`` is tf_left's, on the dual."""
    a, b = _annihilator(_dual(sys), tol)
    return RightFraction(b.conjugate(), a.conjugate())


def _dual(sys: StateSpace) -> StateSpace:
    """(F^H, H^H, G^H, conj J), whose Markov parameters are conj(S_k):
    the conjugate transpose of the block pair array [[F, G], [H, J]]."""
    z = _blocks(sys).transpose(1, 0, 2).view(float) * _CONJ
    return _from_blocks(z.view(complex), sys.n)


def _from_blocks(z, n: int) -> StateSpace:
    """The system whose block pair array [[F, G], [H, J]] is z, uncopied."""
    return StateSpace(_wrap_matrix(z[:n, :n]), _wrap_matrix(z[:n, n:]),
                      _wrap_matrix(z[n:, :n]), _wrap_matrix(z[n:, n:]))


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
    gets the dual (see _dual) of the observer form of the conjugate left
    fraction conj(den)^{-1} conj(num): since conjugation reverses
    products, that is the controllable form of num den^{-1}.
    A StateSpace is realized from its minimal left fraction.

    n = max(deg den, deg num) states; a fraction equal to its direct
    term num(0) den(0)^{-1} gets none.  Raises NonCausal when den(0)
    vanishes.
    """
    if isinstance(frac, RightFraction):
        return _dual(_realize_left(frac.den.conjugate(),
                                   frac.num.conjugate(), tol))
    frac = as_left_fraction(frac)
    return _realize_left(frac.den, frac.num, tol)


def _realize_left(den: QPoly, num: QPoly, tol: float) -> StateSpace:
    """realize for the left fraction den^{-1} num, given as polynomials
    that need not be reduced or normalized."""
    den, num = _unit_at0(den, num)
    ss = _observer_form(den, num)
    # G ~ 0: the fraction equals its direct term J and needs no states
    if ss.G.entry_norm_max() <= tol * max(1.0, den.norm_inf(), num.norm_inf()):
        return _observer_form(QPoly.one(), QPoly.constant(ss.J))
    return ss


def _unit_at0(den: QPoly, num: QPoly, scale: float = None):
    """(u den, u num) with u = den(0)^{-1}: the same left fraction with
    den(0) = 1.  Raises NonCausal when |den(0)| <= ZERO_THRESHOLD scale,
    ``scale`` defaulting to max(1, |den|, |num|)."""
    d0 = den.at0()
    scale = scale or max(1.0, den.norm_inf(), num.norm_inf())
    if d0.norm() <= ZERO_THRESHOLD * scale:
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
    z = np.zeros((n + 1, n + 1, 2), dtype=complex)
    z[:den.degree(), 0] = -den._z[1:]
    z[range(n - 1), range(1, n), 0] = 1.0
    z[n, 0, 0] = 1.0  # H = e_1; at n = 0 the J entry below replaces it
    b0 = num.at0()
    g = (num - scale_right(den, b0))._z[1:]
    z[:len(g), n] = g
    z[n, n] = complex(b0.w, b0.x), complex(b0.y, b0.z)
    return _from_blocks(z, n)


def _series(s1: StateSpace, s2: StateSpace) -> StateSpace:
    """The series connection u -> s1 -> s2 -> y, whose transfer function
    is S2 S1 (s1 acts first, so its series multiplies from the right):

        F = [[F1, 0], [G2 H1, F2]],  G = [G1; G2 J1],
        H = [J2 H1, H2],             J = J2 J1

    the blocks of E2 E1, E1 and E2 the block pair arrays of s1 and s2
    embedded in the identity on (x1, x2, u).
    """
    n1, n = s1.n, s1.n + s2.n
    b1, b2 = _blocks(s1), _blocks(s2)
    k1 = [*range(n1), n]
    z = np.zeros((n + 1, n + 1, 2), dtype=complex)
    z[:n1, k1] = b1[:n1]
    z[n1:, n1:n] = b2[:, :-1]
    z[n1:, k1] = _pair_matmul(b2[:, -1:], b1[-1:])
    return _from_blocks(z, n)


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
