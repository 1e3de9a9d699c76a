"""Transfer functions of SISO quaternionic state-space systems.

A system (F, G, H, J) evolves x_{k+1} = F x_k + G u_k, y_k = H x_k
+ J u_k.  Its transfer function in the backward-shift variable d is the
formal series S(d) = J + sum_{k>=1} H F^{k-1} G d^k, represented here as
a left fraction den^{-1} num or a right fraction num den^{-1} of skew
polynomials.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (AnnihilatorNotFound, DimensionMismatch, NonCausal,
                     ZeroDivisor)
from .quat import Quaternion, SimilarityClass, _coerce, ZERO_THRESHOLD
from .qmat import (QuatMatrix, _pair_matmul, _wrap as _wrap_matrix,
                   right_eigenvalues, spectral_radius_stable)
from .qpoly import (_CONJ, COEFF_TOL, QPoly, _left_gcd, _trim_pair, _unit,
                    _unit_scale, _wrap, left_to_right, mul, right_to_left,
                    right_zeros, scale_left, scale_right)
from .sim import _blocks, _impulse_response, _quaternions, _step_matrix


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
    """Trim den and num (see _trim_pair) and divide out their greatest
    common left divisor g, leaving den^{-1} num unchanged.  The Sylvester
    decision of solve_diophantine gives deg g with no right-hand side,
    and when it is positive, the reduced pair (g^{-1} den, g^{-1} num)
    with the residual of solving for g, from the same pass.  A residual
    above tol times the larger input means g is no common factor at that
    tolerance, and den, num stay as trimmed."""
    den, num, scale = _trim_pair(den, num, tol)
    if den.degree() > 0 and num.degree() > 0:
        *_, (den_r, num_r, resid) = _left_gcd(den, num, tol, solve=False)
        if resid <= tol * scale:
            return den_r, num_r
    return den, num


class LeftFraction:
    """Transfer function den^{-1} num.

    Construction takes the pair with the greatest common left divisor
    divided out from the Sylvester decision of solve_diophantine, which
    finds both in one pass (see _cancel_gcld), then normalizes
    den(0) = 1 by a left unit (monic when den(0) is zero; see _unit).
    Neither step changes the fraction's value.  The fractions that
    tf_left and as_left_fraction build are coprime by construction and
    skip the decision (see _coprime).
    """

    __slots__ = ("den", "num")

    kind = "left"

    def __init__(self, den: QPoly, num: QPoly, tol: float = COEFF_TOL):
        self._normalize(*_cancel_gcld(den, num, tol), tol)

    @classmethod
    def _coprime(cls, den: QPoly, num: QPoly):
        """The fraction den^{-1} num of a pair known to be left coprime:
        trimmed and normalized as by the constructor at its default tol,
        with no Sylvester decision."""
        frac = cls.__new__(cls)
        frac._normalize(*_trim_pair(den, num, COEFF_TOL)[:2], COEFF_TOL)
        return frac

    def _normalize(self, den: QPoly, num: QPoly, tol: float):
        unit = _unit(den, tol, max(1.0, den.norm_inf()))
        if unit == Quaternion(1.0):
            # on finite coefficients, a scale by 1 only turns -0.0 into +0.0
            self.den, self.num = _wrap(den._z + 0.0), _wrap(num._z + 0.0)
        else:
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
    that need a causal normal form convert to a left fraction.  The
    fractions that tf_right builds skip the decision (see _coprime).
    """

    __slots__ = ("num", "den")

    kind = "right"

    def __init__(self, num: QPoly, den: QPoly, tol: float = COEFF_TOL):
        den, num = _cancel_gcld(den.conjugate(), num.conjugate(), tol)
        self.num = num.conjugate()
        self.den = den.conjugate()

    @classmethod
    def _coprime(cls, num: QPoly, den: QPoly):
        """The fraction num den^{-1} of a pair known to be right coprime,
        trimmed as by the constructor at its default tol, with no
        Sylvester decision."""
        frac = cls.__new__(cls)
        frac.den, frac.num, _ = _trim_pair(den, num, COEFF_TOL)
        return frac

    def __repr__(self):
        return f"RightFraction(num={self.num!r}, den={self.den!r})"


def as_left_fraction(plant, tol: float = COEFF_TOL) -> LeftFraction:
    """The left fraction of a StateSpace (its minimal one), a
    LeftFraction (itself) or a RightFraction (converted).  The converted
    pair is right_to_left's kernel pair, coprime and normalized, so the
    conversion makes one coprimeness decision."""
    if isinstance(plant, StateSpace):
        return tf_left(plant)
    if isinstance(plant, LeftFraction):
        return plant
    if isinstance(plant, RightFraction):
        return LeftFraction._coprime(*right_to_left(plant.num, plant.den, tol))
    raise TypeError(f"cannot interpret {type(plant).__name__} as a plant")


def markov(sys: StateSpace, count: int):
    """First ``count`` Markov parameters S_0 = J, S_k = H F^{k-1} G,
    the system's impulse response from x = 0, as Quaternions."""
    return _quaternions(_impulse_response(_step_matrix(sys), max(count, 0)))


def series(frac, count: int):
    """First ``count`` coefficients of the fraction's power series.

    Raises NonCausal when den(0) vanishes, as realize does.  A
    left fraction's series solves den * S = num: it is the impulse
    response of the observer form.  A right fraction's is the conjugate
    of the left series of conj(den)^{-1} conj(num), the response of the
    dual of that form.
    """
    den, num = frac.den, frac.num
    if frac.kind == "right":
        den, num = den.conjugate(), num.conjugate()
    ss = _observer_form(*_unit_at0(den, num))
    return markov(ss if frac.kind == "left" else _dual(ss), count)


def _norm2(v) -> float:
    """np.linalg.norm(v) of a complex vector v: its formula, so its bits,
    with none of its dispatch."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _row_norms(x) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of a complex x, as _norm2 is."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))


def _screen(A, rows, tol: float):
    """skip[m], m = 0, ..., N/2: whether the search of _first_dependence
    cannot stop at step m.  One QR factorization of all N/2 + 1 blocks
    rows A^k, each scaled by its largest entry so that high powers stay
    in range, gives |R[2m, 2m]|, the distance of block m's first row
    from the span of blocks 0, ..., m-1, which no least-squares residual
    undercuts; skip[m] holds where it exceeds 100 tol times the row's
    norm (so the blocks span C^N when every m < N/2 is skipped).  An
    exactly zero block has distance 0; skip[N/2] is false."""
    n = A.shape[0]
    screen = np.empty((n + 2, n), dtype=complex)
    zero = np.zeros(n // 2 + 1, dtype=bool)
    block = rows
    for m in range(n // 2 + 1):
        if m:
            block = screen[2 * m - 2:2 * m] @ A
        peak = np.abs(block).max(initial=0.0)
        zero[m] = not peak
        screen[2 * m:2 * m + 2] = block / peak if peak else block
    # raw mode leaves R in the upper triangle of the transposed
    # factorization, so its diagonal is R's, with no copy of R
    dist = np.abs(np.diagonal(np.linalg.qr(screen.T, mode="raw")[0])[::2])
    dist[zero[:-1]] = 0.0
    return [*(dist > 100 * tol * _row_norms(screen[:n:2])), False]


def _first_dependence(A, rows, tol: float, skip):
    """First left dependence among the blocks adj(r F^k) = rows A^k, for
    ``rows`` = adj(r) (2 x N) and A = adj(F).  For m = 0, 1, ..., N/2,
    solves sum_i a_i1 B[0] + a_i2 B[1] = -(first row of block m) over the
    blocks B = m-1, ..., 0 in least squares with unit-norm rows, that is
    r F^m = -sum_i a_i r F^(m-i) with a_i = a_i1 + a_i2 j, and returns
    (x, stacked blocks m-1, ..., 0) once the residual is at most tol
    times the norm of that row; a_i's pair is x[2i-2:2i].

    ``skip`` is _screen(A, rows, tol).  The steps it skips are not
    solved; the others solve on the unscaled blocks, so x and the blocks
    are those of solving every step."""
    blocks = [rows]
    for m in range(len(skip)):
        if skip[m]:
            continue
        while len(blocks) <= m:
            blocks.append(blocks[-1] @ A)
        target, x = blocks[m][0], np.empty(0, dtype=complex)
        earlier = (np.vstack(blocks[m - 1::-1]) if m
                   else np.empty((0, len(A)), dtype=complex))
        resid = target
        if m:
            w = 1.0 / _row_norms(earlier)
            x = np.linalg.lstsq(earlier.T * w, -target, rcond=None)[0] * w
            resid = x @ earlier + target
        if _norm2(resid) <= tol * _norm2(target):
            return x, earlier
    raise AnnihilatorNotFound(f"no dependence up to degree {m} met the "
                              f"relative residual tolerance {tol:g}")


def _annihilator(sys: StateSpace, tol: float):
    """(a, b), a(0) = 1, with a^{-1} b the minimal left fraction.  The
    rows H F^k are restricted to the controllable subspace, spanned by
    the dual rows G^H (F^H)^k, where their first dependence, at index
    m, gives a; b is a S cut after d^m, S the Markov parameters.  The
    cut is at m, not at deg a: when F is nilpotent on that subspace the
    top coefficients of a can be exact zeros while b's are not.  When
    _screen skips every dual step below N/2, that subspace is C^N, and
    the rows are searched with no dual solve and no projection, a
    unitary change of basis that changes no residual test.  One adjoint
    step matrix gives adj F, adj G and adj H and runs the impulse
    response."""
    step = _step_matrix(sys)
    n2 = 2 * sys.n
    F, G, H = (np.ascontiguousarray(block) for block in (
        step[:n2, :n2], step[:n2, n2:], step[n2:, :n2]))
    dual = F.conj().T, G.conj().T
    skip = _screen(*dual, tol)
    if not all(skip[:-1]):
        Q = np.linalg.qr(_first_dependence(*dual, tol, skip)[1].conj().T)[0]
        F, H = Q.conj().T @ F @ Q, H @ Q
    x, _ = _first_dependence(F, H, tol, _screen(F, H, tol))
    a = _wrap(np.vstack([[1.0, 0.0], x.reshape(-1, 2)]))
    b = mul(a, _wrap(_impulse_response(step, sys.n + 1)))
    return a, _wrap(b._z[:len(x) // 2 + 1])


def tf_left(sys: StateSpace, tol: float = 1e-7) -> LeftFraction:
    """Minimal left fraction den^{-1} num equal to the system's series.
    deg den is the first m at which H F^m, on the controllable subspace,
    lies in the left span of H F^(m-1), ..., H: its least-squares
    residual on the complex adjoint is at most ``tol`` times its norm.
    A QR screen of all the rows skips the steps whose distance from
    that span already fails the test; the same screen of the dual rows
    shows when that subspace is the whole space (see _screen).  The pair
    is coprime by construction, so the fraction is trimmed by COEFF_TOL
    and normalized to den(0) = 1 with no coprimeness decision."""
    return LeftFraction._coprime(*_annihilator(sys, tol))


def tf_right(sys: StateSpace, tol: float = 1e-7) -> RightFraction:
    """Minimal right fraction num den^{-1}: the conjugate of the left
    fraction of the dual system, as sum a_i conj(S_(k-i)) = 0 conjugates
    to sum S_(k-i) conj(a_i) = 0.  ``tol`` is tf_left's, on the dual.
    Like tf_left's, the fraction is trimmed by COEFF_TOL with no
    coprimeness decision."""
    a, b = _annihilator(_dual(sys), tol)
    return RightFraction._coprime(b.conjugate(), a.conjugate())


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


def _unit_at0(den: QPoly, num: QPoly):
    """(u den, u num) with u = den(0)^{-1}: the same left fraction with
    den(0) = 1.  Raises NonCausal when |den(0)| <= ZERO_THRESHOLD
    max(1, |den|): whether den(0) vanishes is a property of den alone."""
    d0 = den.at0()
    if d0.norm() <= ZERO_THRESHOLD * max(1.0, den.norm_inf()):
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
    z[n, 0, 0] = 1.0  # H = e_1; at n = 0 the J entry below replaces it
    z[n, n] = _observer_rows(z[:n], den, num)
    return _from_blocks(z, n)


def _observer_rows(z, den: QPoly, num: QPoly):
    """Write the n state rows of the observer form of den^{-1} num into
    the zeroed rows ``z`` of a block pair array, F in its first n columns
    and G in its last, and return the pair of J = num(0)."""
    n = len(z)
    z[:den.degree(), 0] = -den._z[1:]
    z[range(n - 1), range(1, n), 0] = 1.0
    b0 = num.at0()
    g = (num - scale_right(den, b0))._z[1:]
    z[:len(g), -1] = g
    return complex(b0.w, b0.x), complex(b0.y, b0.z)


def _closed_loop(den: QPoly, num: QPoly, p: QPoly):
    """p den^{-1} num, den(0) = 1, as the observer form (F1, G1, H1, J1)
    of den^{-1} num in series with that of the FIR p (F2 a shift,
    G2 = (p_1; ...; p_m), H2 = e_1, J2 = p_0), filled into one block
    pair array [[F1, 0, G1], [G2 H1, F2, G2 J1], [J2 H1, H2, J2 J1]].
    The column (G2; J2) times the row (H1, J1) is one pair product."""
    n1 = max(den.degree(), num.degree(), 0)
    n = n1 + p.degree()
    z = np.zeros((n + 1, n + 1, 2), dtype=complex)
    row = np.zeros((1, n1 + 1, 2), dtype=complex)
    row[0, 0, 0] = 1.0  # H1 = e_1; at n1 = 0 the J1 entry replaces it
    row[0, n1] = _observer_rows(z[:n1], den, num)
    z[range(n1, n - 1), range(n1 + 1, n), 0] = 1.0
    z[n, n1, 0] = 1.0  # H2 = e_1; at deg p = 0 the product replaces it
    column = np.concatenate([p._z[1:], p._z[:1]])[:, None]
    z[n1:, [*range(n1), n]] = _pair_matmul(column, row)
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


def is_stable(a: QPoly, tol: float = 1e-9) -> bool:
    """Stability in the backward-shift variable: every right zero
    (isolated or spherical) must have norm > 1 + tol.  Nonzero constants
    are vacuously stable.  The observer form of 1/a has the inverse zero
    classes of a as its spectrum, so spectral_radius_stable decides it,
    as it decides place_poles.  a is first scaled exactly by a power of
    two; an a(0) that vanishes against |a| is a zero at the origin."""
    if a.is_zero():
        raise ValueError("stability of the zero polynomial is undefined")
    a = _wrap(_unit_scale(a._z.view(float)).view(complex))
    try:
        form = _observer_form(*_unit_at0(a, QPoly.one()))
    except NonCausal:
        return False
    return spectral_radius_stable(form.F, tol / (1.0 + tol))


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
