"""Skew polynomials over H in the central indeterminate d.

The indeterminate commutes with every coefficient, but coefficients do
not commute with each other, so divisions, divisors, and evaluations all
come in left and right flavors.  Conjugation reverses products and fixes
the real d, so one side of each mirrored pair is computed as the
conjugate of the other.  Coefficients are stored ascending by power; index
i holds the coefficient of d^i.

Storage: a polynomial holds its coefficients once, as an (L, 2) complex
array of pairs (q1, q2) with q = q1 + q2 j, q1 = w + x i, q2 = y + z i.
Its float view is the (L, 4) array of components (w, x, y, z).  Since
j c = conj(c) j for complex c, the side that conjugates is the right
factor's: (a b)_1 = a_1 b_1 - a_2 conj(b_2) and
(a b)_2 = a_1 b_2 + a_2 conj(b_1).  So multiplying by a scalar t on the
right is complex linear, the row (x_1, x_2) times
[[t_1, t_2], [-conj t_2, conj t_1]], and a product of polynomials is
four convolutions.  Quaternion coefficients (``coeffs``, ``lead``,
``at0``, ``coeff``) are built from the array on demand.

Numerical conventions: comparisons against zero use a caller tolerance
scaled by the infinity norm (largest coefficient norm) of the operands,
default 1e-9.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (BothZero, EigensolverFailure, IllConditioned,
                     Unsolvable, ZeroDivisor)
from .quat import (ZERO_THRESHOLD, Quaternion, SimilarityClass, _coerce,
                   _from_floats, left_mul_matrix, right_mul_matrix)

COEFF_TOL = 1e-9

NEG_INF = float("-inf")

# component signs of the conjugate, and of conjugating q2 alone, on the
# float view of a pair array
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_CONJ_Q2 = np.array([1.0, 1.0, 1.0, -1.0])
# the pair arrays of 1 and 0, shared read-only by every one() and zero()
_ONE = np.array([[1.0, 0.0]], dtype=complex)
_ONE.setflags(write=False)
_ZERO = _ONE[:0]


class QPoly:
    """Polynomial sum a_i d^i with quaternion coefficients.

    Construction trims trailing exact zeros; use :meth:`trim` for
    tolerance-based trimming after floating-point arithmetic.
    """

    __slots__ = ("_z",)

    def __init__(self, coeffs=()):
        comps = [_coerce(c).components() for c in coeffs]
        self._z = _wrap(np.array(comps, dtype=float).reshape(-1, 4)
                        .view(complex))._z

    @staticmethod
    def zero() -> "QPoly":
        return _wrap(_ZERO)

    @staticmethod
    def one() -> "QPoly":
        return _wrap(_ONE)

    @staticmethod
    def constant(q) -> "QPoly":
        return QPoly([q])

    @staticmethod
    def monomial(q, power: int) -> "QPoly":
        return shift(QPoly([q]), power)

    @property
    def coeffs(self):
        """The coefficients as a tuple of Quaternions."""
        return tuple(map(_from_floats, self._z.view(float).tolist()))

    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self._z) - 1 if len(self._z) else NEG_INF

    def is_zero(self) -> bool:
        return not len(self._z)

    def at0(self) -> Quaternion:
        return self.coeff(0)

    def lead(self) -> Quaternion:
        if not len(self._z):
            raise ZeroDivisor("zero polynomial has no leading coefficient")
        return self.coeff(len(self._z) - 1)

    def coeff(self, i: int) -> Quaternion:
        if not 0 <= i < len(self._z):
            return Quaternion()
        u, v = self._z[i].tolist()
        return Quaternion(u.real, u.imag, v.real, v.imag)

    def norm_inf(self) -> float:
        return max(map(_row_norm, self._z.tolist()), default=0.0)

    def conjugate(self) -> "QPoly":
        """Coefficientwise conjugate.  Since d is real, it reverses
        products, conj(a b) = conj(b) conj(a), so every right-side
        operation is the conjugate of its left-side mirror."""
        return _wrap((self._z.view(float) * _CONJ).view(complex))

    def trim(self, tol: float, scale: float = None) -> "QPoly":
        """Drop trailing coefficients of norm <= tol * scale.

        ``scale`` defaults to this polynomial's own infinity norm; pass
        the norm of the originating operands when trimming arithmetic
        results.
        """
        cut = tol * (max(1.0, self.norm_inf()) if scale is None else scale)
        n = len(self._z)
        while n and _row_norm(self._z[n - 1].tolist()) <= cut:
            n -= 1
        return _wrap(self._z[:n])

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        out = np.zeros((max(len(self._z), len(other._z)), 2), dtype=complex)
        out[:len(self._z)] = self._z
        out[:len(other._z)] += other._z
        return _wrap(out)

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        out = np.zeros((max(len(self._z), len(other._z)), 2), dtype=complex)
        out[:len(self._z)] = self._z
        out[:len(other._z)] -= other._z
        return _wrap(out)

    def __neg__(self):
        return _wrap(-self._z)

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return np.array_equal(self._z, other._z)

    def __repr__(self):
        parts = [f"({c.w:g},{c.x:g},{c.y:g},{c.z:g})d^{i}"
                 for i, c in enumerate(self.coeffs)]
        return "QPoly[" + " + ".join(parts) + "]" if parts else "QPoly(0)"


def _wrap(z) -> QPoly:
    """The QPoly holding the C-contiguous (L, 2) pair array z without its
    trailing exact-zero rows.  z is not copied and must not be written
    to afterwards."""
    n = len(z)
    while n and not any(z[n - 1].tolist()):
        n -= 1
    p = QPoly.__new__(QPoly)
    p._z = z[:n]
    return p


def _row_norm(row) -> float:
    """Norm of one coefficient given as the Python pair [q1, q2], summed
    in the order of Quaternion.norm2.  norm_inf and trim work in these
    Python floats: most of their calls see a few coefficients, where one
    numpy call costs more than the whole loop.  A sum that overflows
    (components above ~1.3e154) falls back to math.hypot."""
    u, v = row
    n2 = u.real * u.real + u.imag * u.imag + v.real * v.real + v.imag * v.imag
    if n2 == math.inf:
        return math.hypot(u.real, u.imag, v.real, v.imag)
    return math.sqrt(n2)


def _norm(v):
    """Quaternion norms of components laid along the first axis, summed
    in the order of Quaternion.norm2 so they match it bit for bit."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3])


def mul(a: QPoly, b: QPoly) -> QPoly:
    """Product with coefficient products taken in left-right order:
    (a b)_k = sum a_i b_j over i + j = k, as four convolutions of the
    complex pairs."""
    if a.is_zero() or b.is_zero():
        return QPoly()
    a1, a2 = a._z[:, 0], a._z[:, 1]
    b1, b2 = b._z[:, 0], b._z[:, 1]
    out = np.empty((len(a1) + len(b1) - 1, 2), dtype=complex)
    out[:, 0] = np.convolve(a1, b1) - np.convolve(a2, b2.conj())
    out[:, 1] = np.convolve(a1, b2) + np.convolve(a2, b1.conj())
    return _wrap(out)


def scale_left(q, a: QPoly) -> QPoly:
    """q * a, the scalar multiplying every coefficient from the left."""
    return _wrap((a._z.view(float) @ left_mul_matrix(q).T).view(complex))


def scale_right(a: QPoly, q) -> QPoly:
    """a * q with the scalar on the right of every coefficient."""
    return _wrap((a._z.view(float) @ right_mul_matrix(q).T).view(complex))


def shift(a: QPoly, k: int) -> QPoly:
    """Multiply by d^k (k >= 0)."""
    if a.is_zero():
        return QPoly()
    out = np.zeros((k + len(a._z), 2), dtype=complex)
    out[k:] = a._z
    return _wrap(out)


def eval_right(a: QPoly, q) -> Quaternion:
    """Right evaluation sum a_i q^i, coefficients left of the powers.
    A right zero is a point where this vanishes."""
    q = _coerce(q)
    acc = Quaternion()
    for c in reversed(a.coeffs):
        acc = c + acc * q
    return acc


def eval_left(a: QPoly, q) -> Quaternion:
    """Left evaluation sum q^i a_i, powers left of the coefficients:
    the conjugate of the right evaluation of conj(a) at conj(q)."""
    return eval_right(a.conjugate(), _coerce(q).conjugate()).conjugate()


def _invert(q: Quaternion, what: str) -> Quaternion:
    """Inverse of a coefficient that a polynomial routine divides by,
    raising ZeroDivisor (not ZeroDivisionError) when it is numerically
    zero."""
    try:
        return q.inverse()
    except ZeroDivisionError as exc:
        raise ZeroDivisor(f"{what} is numerically zero") from exc


def div_quotient_right(a: QPoly, b: QPoly):
    """Divide with the quotient on the right: a = b q + r, deg r < deg b.

    The top coefficient is eliminated by q_top = inverse(lead b) * lead a,
    so common LEFT divisors of a and b also left-divide r.  Each quotient
    coefficient is formed in complex scalars and taken off the remainder
    by one slice update, b's lower coefficients times it on the right.
    Raises ZeroDivisor when b = 0.
    """
    if b.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if a.degree() < b.degree():
        return QPoly(), a
    inv = _invert(b.lead(), "leading coefficient of the divisor")
    i1, i2 = complex(inv.w, inv.x), complex(inv.y, inv.z)
    db = b.degree()
    low = b._z[:db]
    rem = a._z.copy()
    quo = np.empty((len(rem) - db, 2), dtype=complex)
    for top in range(len(rem) - 1, db - 1, -1):
        r1, r2 = rem[top].tolist()
        t1 = i1 * r1 - i2 * r2.conjugate()
        t2 = i1 * r2 + i2 * r1.conjugate()
        quo[top - db] = t1, t2
        # subtract b * (t d^(top-db)), each b_i t as the row b_i times
        # t's matrix; the top term cancels exactly
        rem[top - db:top] -= low @ np.array(
            ((t1, t2), (-t2.conjugate(), t1.conjugate())))
    return _wrap(quo), _wrap(rem[:db])


def div_quotient_left(a: QPoly, b: QPoly):
    """Divide with the quotient on the left: a = q b + r, deg r < deg b.

    The conjugate of conj(a) = conj(b) conj(q) + conj(r), so common
    RIGHT divisors of a and b right-divide r.
    """
    q, r = div_quotient_right(a.conjugate(), b.conjugate())
    return q.conjugate(), r.conjugate()


class BezoutData:
    """Extended Euclid output for one side.

    For side "left" (gcld): a p + b q = g and a u + b v = 0, cofactors
    multiplied on the right of a and b.  For side "right" (gcrd) every
    field is the conjugate of the gcld data of the conjugated inputs:
    p a + q b = g and u a + v b = 0.
    """

    __slots__ = ("g", "p", "q", "u", "v", "side")

    def __init__(self, g, p, q, u, v, side):
        self.g = g
        self.p = p
        self.q = q
        self.u = u
        self.v = v
        self.side = side

    def __repr__(self):
        return f"BezoutData(side={self.side!r}, deg g={self.g.degree()})"


def gcld(a: QPoly, b: QPoly, tol: float = COEFF_TOL) -> BezoutData:
    """Greatest common left divisor via the Euclidean algorithm with
    right quotients.

    Maintains r_i = a p_i + b q_i (cofactors updated on the right, since
    r_{i+1} = r_{i-1} - r_i quo), remainders trimmed relative to the
    inputs.  g is made monic by a right unit, which keeps it a left
    divisor of both inputs.  The final cofactor pair gives the kernel:
    a u + b v = 0 with (u, -v) right coprime.
    """
    if a.is_zero() and b.is_zero():
        raise BothZero("gcld(0, 0) is undefined")
    scale = max(1.0, a.norm_inf(), b.norm_inf())
    r0, r1 = a, b.trim(tol, scale)
    p0, q0, p1, q1 = QPoly.one(), QPoly.zero(), QPoly.zero(), QPoly.one()
    while not r1.is_zero():
        quo, rem = div_quotient_right(r0, r1)
        r0, r1 = r1, rem.trim(tol, scale)
        p0, q0, p1, q1 = p1, q1, p0 - mul(p1, quo), q0 - mul(q1, quo)
    unit = _invert(r0.lead(), "leading coefficient of the gcld")
    return BezoutData(scale_right(r0, unit), scale_right(p0, unit),
                      scale_right(q0, unit), p1, q1, "left")


def gcrd(a: QPoly, b: QPoly, tol: float = COEFF_TOL) -> BezoutData:
    """Greatest common right divisor: p a + q b = g, u a + v b = 0.

    The conjugate of gcld(conj a, conj b); g comes out monic, normalized
    by a left unit, which keeps it a right divisor of both inputs.
    """
    if a.is_zero() and b.is_zero():
        raise BothZero("gcrd(0, 0) is undefined")
    data = gcld(a.conjugate(), b.conjugate(), tol)
    return BezoutData(data.g.conjugate(), data.p.conjugate(),
                      data.q.conjugate(), data.u.conjugate(),
                      data.v.conjugate(), "right")


def _trim_pair(den: QPoly, num: QPoly, tol: float):
    """(den, num, scale): both trimmed by tol relative to scale =
    max(1, |den|, |num|).  Raises ZeroDivisor when den trims to zero."""
    scale = max(1.0, den.norm_inf(), num.norm_inf())
    den = den.trim(tol, scale)
    if den.is_zero():
        raise ZeroDivisor("fraction denominator is zero")
    return den, num.trim(tol, scale), scale


def _unit(den: QPoly, tol: float, scale: float) -> Quaternion:
    """The unit normalizing a fraction's denominator: den(0)^{-1}, or
    lead(den)^{-1} (making it monic) when |den(0)| <= tol scale."""
    c0 = den.at0()
    return (c0.inverse() if c0.norm() > tol * scale
            else _invert(den.lead(), "leading coefficient of the denominator"))


def left_to_right(a: QPoly, b: QPoly, tol: float = COEFF_TOL):
    """Convert the left fraction a^{-1} b into a right fraction
    b_r a_r^{-1}.

    The kernel pair of solve_diophantine's Sylvester decision on (a, b),
    trimmed by _trim_pair, satisfies a u + b v = 0, so a^{-1} b =
    u (-v)^{-1}; (b_r, a_r) = (u, -v) is right coprime, of degrees
    deg b - k and deg a - k with k = deg gcld(a, b).  Both are rescaled
    by the right _unit, so a_r(0) = 1 (monic when a_r(0) = 0).
    """
    a, b, _ = _trim_pair(a, b, tol)
    if b.is_zero():
        return QPoly(), QPoly.one()
    _, _, (b_r, v), _, _ = _left_gcd(a, b, tol)
    a_r = -v
    unit = _unit(a_r, tol, max(1.0, a_r.norm_inf(), b_r.norm_inf()))
    return scale_right(b_r, unit), scale_right(a_r, unit)


def right_to_left(b: QPoly, a: QPoly, tol: float = COEFF_TOL):
    """Convert the right fraction b a^{-1} into a left fraction
    a_l^{-1} b_l, i.e. b_l a = a_l b.

    The conjugate of :func:`left_to_right` on conj(a)^{-1} conj(b), so
    (a_l, b_l) is the conjugated Sylvester kernel pair: left coprime and
    normalized by a left unit so a_l(0) = 1 (monic when a_l(0) = 0).
    """
    b_r, a_r = left_to_right(a.conjugate(), b.conjugate(), tol)
    return a_r.conjugate(), b_r.conjugate()


def _sylvester_matrix(blocks, rows: int):
    """The equilibrated Sylvester matrix M of sum_i p_i x_i over skew
    polynomials, with its row and column scales: (M, row_scale,
    col_scale).

    ``blocks`` lists the pairs (p_i, n_i), the unknown x_i having
    n_i coefficients (deg x_i < n_i); ``rows`` is the number of
    coefficient equations, d^0 through d^(rows-1), and must cover every
    product.  The matrix is the complex adjoint of the block-Toeplitz
    map, the coefficient a_i acting on (x1, conj x2) as
    [[a1, -a2], [conj a2, conj a1]], so it is half the size of the
    real 4 x 4 embedding.  Every column is scaled to unit norm, then
    every row whose norm is above ZERO_THRESHOLD times the largest
    (smaller rows hold rounding noise, which unit norm would blow up to
    the size of real equations).
    """
    cols = sum(n for _, n in blocks)
    M = np.zeros((2 * rows, 2 * cols), dtype=complex)
    row_norm2 = np.zeros(rows)
    col_scale = np.empty(2 * cols)
    col = 0
    for p, n in blocks:
        if n == 0:
            continue
        p1, p2 = p._z[:, 0], p._z[:, 1]
        # every column of a block holds each coefficient of p once
        p_norm2 = np.abs(p1) ** 2 + np.abs(p2) ** 2
        scale = 1.0 / math.sqrt(p_norm2.sum())
        row_norm2[:len(p1) + n - 1] += (np.convolve(p_norm2, np.ones(n))
                                        * scale ** 2)
        blk = scale * np.array([p1, -p2, p2.conj(),
                                p1.conj()]).T.reshape(-1, 2)
        for j in range(n):
            M[2 * j:2 * j + len(blk), col:col + 2] = blk
            col += 2
        col_scale[col - 2 * n:col] = scale
    row_norm = np.sqrt(row_norm2)
    live = row_norm > ZERO_THRESHOLD * row_norm.max()
    row_scale = np.repeat(1.0 / np.where(live, row_norm, 1.0), 2)
    M *= row_scale[:, None]
    return M, row_scale, col_scale


def _sylvester_solve(blocks, rows: int, rhs, tol: float = 0.0):
    """Solve sum_i p_i x_i = r over skew polynomials: by LU when the
    matrix M is square, in least squares when it has more equations
    than unknowns.

    ``blocks`` and ``rows`` give M (see :func:`_sylvester_matrix`;
    ``rows`` must also cover every right-hand side).  A square M is
    factored once: one LU solve of M [X | Y] = [R | I] gives the
    solutions X and M^-1.  M is a complex adjoint, so M^-1 is one too,
    and only the even columns of I are solved for: each odd column of
    M^-1 is the even one before it with the rows (u, v) mapped to
    (-conj v, conj u).  Since sigma_min >= 1 / |M^-1|_F and
    sigma_max <= |M|_F, the test 1 / |M^-1|_F > 2 floor |M|_F, with the
    rank floor max(tol, 2 rows eps), certifies that no singular value is
    at or below the floor times the largest.  Only when it fails (or
    the LU meets an exact zero pivot) are the singular values computed
    and counted against the same floor.  A square M whose LU fails or
    with sigma_min <= 2 rows eps sigma_max gets no solution; any other
    gets one step of iterative refinement with M^-1.  That keeps the
    residual small coefficient by coefficient, which the SVD-based lstsq
    does not once the coefficients span decades, as those of plants from
    state space do.  Each call serves every right-hand side in ``rhs``;
    with none, a square M gets its rank decision only.

    Returns (solutions, small, resid): solutions[r] lists the x_i for
    rhs[r] (solutions is None when a square M gets none); small
    counts the singular values of a square M at or below the floor times
    the largest, each quaternionic one twice (0 when the certificate
    holds; None when M is not square); resid() computes, for the callers
    that read it, resid()[r], the largest coefficient norm of the
    residual sum_i p_i x_i - r.
    """
    M, row_scale, col_scale = _sylvester_matrix(blocks, rows)
    square, nr = M.shape[0] == M.shape[1], len(rhs)
    RI = np.zeros((2 * rows, nr + rows * square), dtype=complex)
    for k, r in enumerate(rhs):
        RI[:2 * len(r._z), k] = _flip_q2(r._z).ravel()
    R = RI[:, :nr]
    R *= row_scale[:, None]
    small, sol = None, None
    if square:
        RI[range(0, 2 * rows, 2), range(nr, nr + rows)] = 1.0
        rank_cut = 2 * rows * np.finfo(float).eps
        floor = max(tol, rank_cut)
        try:
            X = np.linalg.solve(M, RI)
            sol, inv_even = X[:, :nr], X[:, nr:]
            cut = 2 * floor * math.sqrt(np.vdot(M, M).real)
            # an M^-1 too large to square is far from certified: its
            # norm reads inf or nan, and the test fails
            with np.errstate(over="ignore", invalid="ignore"):
                inv_norm2 = 2 * np.vdot(inv_even, inv_even).real
            small = 0 if math.sqrt(inv_norm2) * cut < 1 else None
        except np.linalg.LinAlgError:
            pass
        if small is None:
            sv = np.linalg.svd(M, compute_uv=False)
            small = int((sv <= floor * sv[0]).sum())
            sol = sol if sv[-1] > rank_cut * sv[0] else None
        if sol is None:
            return None, small, None
        if not rhs:
            return [], small, None
        inv = np.empty_like(M)
        inv[:, 0::2] = inv_even
        inv[0::2, 1::2] = -inv_even[1::2].conj()
        inv[1::2, 1::2] = inv_even[0::2].conj()
        sol = sol - inv @ (M @ sol - R)
    else:
        sol = np.linalg.lstsq(M, R, rcond=None)[0]

    def resid():
        res = (M @ sol - R) / row_scale[:, None]
        return np.sqrt(np.abs(res[0::2]) ** 2
                       + np.abs(res[1::2]) ** 2).max(axis=0)
    unscaled = np.ascontiguousarray((sol * col_scale[:, None]).T)
    edges = [0, *itertools.accumulate(2 * n for _, n in blocks)]
    return ([[_wrap(_flip_q2(s[i:j].reshape(-1, 2)))
              for i, j in zip(edges, edges[1:])] for s in unscaled], small,
            resid)


def _flip_q2(z):
    """The rows (q1, conj q2) of the pair rows (q1, q2) of z, and back."""
    return (z.view(float) * _CONJ_Q2).view(complex)


def _left_gcd(f: QPoly, s: QPoly, tol: float, rhs=(), top: int = 0,
              solve: bool = True):
    """The Sylvester decision of solve_diophantine on nonzero f, s, with
    ``top`` in place of deg c: (k, g, (u, v), sols, (f', s', resid)).
    k = deg gcld(f, s); g is the monic common left factor (1 when k = 0);
    f u + s v = 0 with u monic of degree deg s - k; sols[r] is the pair
    (x, y), deg x < deg u, with f x + s y = rhs[r], in least squares
    when k > 0; (f', s') = (g^{-1} f, g^{-1} s) to the residual resid
    ((f, s, 0.0) when k = 0).  k is half the count of singular values at
    or below _sylvester_solve's rank floor times the largest, of the
    square matrix with deg u < deg s; when k > 0 the reduced one, deg u
    = deg s - k, gives sols and (u, v).  With ``solve`` false and k = 0
    nothing more than the decision is computed; (u, v) is None.  A
    square matrix singular to working precision with k = 0 (the degrees
    allow no common factor) raises IllConditioned.

    r solves r f' = f, r s' = s in least squares, (f', s') being the left
    annihilator of (u, v) with lead f' = lead f; then g = r lambda^{-1}
    and the pair is (lambda f', lambda s'), lambda = lead r.  Both solves
    run on conjugates, where the unknowns multiply from the right.
    Solving for g from f p + s q = g instead inverts division by g, whose
    error grows like |zero of g|^deg c.
    """
    n, m = f.degree(), s.degree()
    rows = max(top, n + m) + 1
    sols, small, _ = _sylvester_solve([(f, m), (s, rows - m)], rows,
                                      [*rhs, -shift(f, m)] if solve else [],
                                      tol)
    k = min(small // 2, n, m)
    if k:
        rows = max(top, n + m - k) + 1
        sols, _, _ = _sylvester_solve([(f, m - k), (s, rows - m)], rows,
                                      [*rhs, -shift(f, m - k)])
    elif not solve:
        return 0, QPoly.one(), None, [], (f, s, 0.0)
    elif sols is None:
        raise IllConditioned("singular Sylvester system of a coprime pair")
    *sols, (u_low, v) = sols
    u, v = u_low + shift(QPoly.one(), m - k), v.trim(tol)
    if not k:
        return 0, QPoly.one(), (u, v), sols, (f, s, 0.0)
    cu, cv, clead = u.conjugate(), v.conjugate(), f.lead().conjugate()
    annihilator, _, _ = _sylvester_solve(
        [(cu, n - k), (cv, m - k + 1)], n + m - 2 * k + 1,
        [-shift(scale_right(cu, clead), n - k)])
    if annihilator is None:
        raise IllConditioned("singular annihilator solve for the common "
                             f"left factor of degree {k}")
    [[f_low, cs]] = annihilator
    cf = f_low + QPoly.monomial(clead, n - k)
    [[cr]], _, residual = _sylvester_solve(
        [(cf + shift(cs, n + 1), k + 1)], n + m + 2,
        [f.conjugate() + shift(s.conjugate(), n + 1)])
    [resid] = residual()
    lam = cr.lead().conjugate()
    g = scale_right(cr.conjugate(), _invert(lam, "leading coefficient"))
    return k, g, (u, v), sols, (scale_left(lam, cf.conjugate()),
                                scale_left(lam, cs.conjugate()), resid)


def _left_quotient(g, c, tol, scale):
    """h with g h = c, by least squares.

    Raises Unsolvable, carrying g and the remainder of dividing c by g,
    when the residual exceeds tol * scale.  The remainder itself cannot
    decide this at high degree: on rounding errors in c it grows like
    |zero of g|^(deg c - deg g).
    """
    if c.is_zero():
        return QPoly()
    h, resid = QPoly(), c.norm_inf()
    if c.degree() >= g.degree():
        [[h]], _, residual = _sylvester_solve(
            [(g, c.degree() - g.degree() + 1)], c.degree() + 1, [c])
        [resid] = residual()
    if resid > tol * scale:
        _, rem = div_quotient_right(c, g)
        raise Unsolvable(
            "gcld(a, b) does not left-divide c (least-squares residual "
            f"{resid:.3g}, remainder norm {rem.norm_inf():.3g})",
            g=g, remainder=rem)
    return h


def _companion_coeffs(C) -> np.ndarray:
    """Ascending real coefficients of conj(a) a from the (L, 4)
    components of a.  Coefficient k sums, over i ascending from 0.0, the
    terms |a_i|^2 (k = 2i) and 2 Re(conj(a_i) a_j) (k = i + j, j > i),
    each dot product in component order."""
    n = len(C)
    dots = (C[:, None, 0] * C[None, :, 0] + C[:, None, 1] * C[None, :, 1]
            + C[:, None, 2] * C[None, :, 2] + C[:, None, 3] * C[None, :, 3])
    terms = np.triu(2.0 * dots, 1)
    terms[np.diag_indices(n)] = np.diag(dots)
    # row i + 1 holds a_i's terms moved to their powers i + j; a zero
    # row 0 starts every sum at 0.0, and cumsum adds strictly in order
    rows = np.arange(n)[:, None]
    skew = np.zeros((n + 1, 2 * n - 1))
    skew[rows + 1, rows + np.arange(n)] = terms
    return np.cumsum(skew, axis=0)[-1]


def companion_polynomial(a: QPoly) -> QPoly:
    """conj(a) a, which has real coefficients and degree 2 deg a.

    Every right zero of a lies in the similarity class of one of its
    roots.  Coefficients are assembled pairwise as 2 Re(conj(a_i) a_j),
    so they are exactly real by construction.
    """
    if a.is_zero():
        raise ZeroDivisor("companion of the zero polynomial")
    out = np.zeros((2 * len(a._z) - 1, 2), dtype=complex)
    out[:, 0] = _companion_coeffs(a._z.view(float))
    return _wrap(out)


class ZeroReport:
    """Right zeros of a polynomial.

    isolated: list of (zero, class) pairs.  spherical: classes whose
    every member is a right zero (im_norm > 0 always).  warnings: notes
    about candidates accepted inside the ill-conditioning band.
    """

    __slots__ = ("isolated", "spherical", "warnings")

    def __init__(self, isolated, spherical, warnings=()):
        self.isolated = list(isolated)
        self.spherical = list(spherical)
        self.warnings = list(warnings)

    def all_classes(self):
        return [cls for _, cls in self.isolated] + list(self.spherical)

    def __repr__(self):
        return (f"ZeroReport(isolated={len(self.isolated)}, "
                f"spherical={len(self.spherical)})")


def _cluster_classes(roots, tol):
    """Group complex roots by similarity class (re, |im|).

    One pass in sorted order: a root joins the first-created class whose
    running mean lies within tol * max(1, |root|, |mean|) in both parts,
    or founds a new class.  Such a match puts the mean's real part at
    most tol * max(1, |root|) / (1 - sqrt(2) tol) below the root's, so a
    class further below than ``reach`` (that bound at the largest root,
    doubled against rounding) can match no later root and drops out of
    the scan.
    """
    reps = sorted(zip(roots.real.tolist(), np.abs(roots.imag).tolist()))
    top = max([1.0] + [math.hypot(re, im) for re, im in reps])
    reach = (2.0 * tol * top / (1.0 - math.sqrt(2.0) * tol)
             if tol < 0.35 else math.inf)
    classes = []     # [re, im, count], in creation order
    live = []        # the classes still within reach, in creation order
    for re, im in reps:
        live = [cls for cls in live if cls[0] >= re - reach]
        for cls in live:
            cre, cim, cnt = cls
            scale = max(1.0, math.hypot(re, im), math.hypot(cre, cim))
            if abs(re - cre) <= tol * scale and abs(im - cim) <= tol * scale:
                # running mean keeps the representative centered
                cls[:] = ((cre * cnt + re) / (cnt + 1),
                          (cim * cnt + im) / (cnt + 1), cnt + 1)
                break
        else:
            classes.append([re, im, 1])
            live.append(classes[-1])
    return [(re, im) for re, im, _ in classes]


def _real_class_checks(C, norms, res):
    """(|a(re)|, sum_i |a_i| max(1, |re|)^i) for every real class re at
    once, by componentwise Horner steps in eval_right's order.  An
    overflowed residual is NaN, which accepts nothing."""
    if not res:
        return []
    xr = np.array(res)
    acc = np.zeros((4, len(xr)))
    for c in C[::-1]:
        acc = c[:, None] + acc * xr
    resid = _norm(acc)
    resid[~np.isfinite(resid)] = np.nan
    powers = np.empty((len(C), len(xr)))
    powers[0] = 1.0
    powers[1:] = np.maximum(1.0, np.abs(xr))
    scale = np.cumsum(norms[:, None] * np.cumprod(powers, axis=0),
                      axis=0)[-1]
    return zip(resid.tolist(), scale.tolist())


# Hamilton product on components stacked along axis 0, in the term order
# of Quaternion.__mul__: (p q)_m is the sum over t of
# _SIGN[m, t] p_t q_(_RIGHT[m, t]), t ascending.
_RIGHT = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0],
                  [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])[:, :, None]


def _psi_class_checks(C, classes):
    """For every non-real class (re, im) at once, the remainder
    r_1 d + r_0 of a modulo the real psi = d^2 + p_1 d + p_0: long
    division from the top, which matches div_quotient_right(a, psi) bit
    for bit because psi is real and monic.  Gives (|r_0|, |r_1|,
    |r_1|^2, x, |x|, |Im x|) per class, with x = -inverse(r_1) r_0 as
    Quaternion.inverse and __mul__ compute it."""
    if not classes:
        return []
    re, im = np.array(classes).T
    p = np.empty((2, 1, len(re)))
    p[0, 0] = re * re + im * im
    p[1, 0] = -2.0 * re
    rem = np.repeat(C[:, :, None], len(re), axis=2)
    for top in range(len(C) - 1, 1, -1):
        rem[top - 2:top] -= p * rem[top]
    r0, r1 = rem[0], rem[1]
    # squared norms of r_0 and r_1 together, summed as in norm2
    sq = rem[:2] * rem[:2]
    n2 = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]
    terms = _SIGN * ((_SIGN[0] * r1 / n2[1])[None] * r0[_RIGHT])
    x = -(terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3])
    sq = x * x
    return zip(*np.sqrt(n2).tolist(), n2[1].tolist(), x.T.tolist(),
               np.sqrt(sq[0] + sq[1] + sq[2] + sq[3]).tolist(),
               np.sqrt(sq[1] + sq[2] + sq[3]).tolist())


def _unit_scale(C) -> np.ndarray:
    """C times the power of two that brings its largest entry to [1, 2)."""
    return np.ldexp(C, 1 - math.frexp(np.abs(C).max())[1])


def right_zeros(a: QPoly, tol: float = COEFF_TOL) -> ZeroReport:
    """All right zeros of a, isolated and spherical.

    Procedure: roots of the companion polynomial conj(a) a give the
    candidate similarity classes (Janovska & Opfer, SIAM J. Numer. Anal.,
    2010).  Every class is then checked in one array pass over the
    coefficients of a.  For all classes with nonzero imaginary norm at
    once, a is divided by the central quadratics
    psi(d) = d^2 - 2 re d + (re^2 + im^2); a vanishing remainder means
    the whole class consists of zeros (spherical), otherwise the
    remainder r_1 d + r_0 pins the single zero in the class at
    x = -inverse(r_1) r_0.  All real classes are checked at once by
    direct evaluation, each test relative to the size of a.

    Candidates whose class check misses by a factor in (1, 1e3] of the
    tolerance are kept but noted in ``warnings``; beyond that the
    polynomial is reported IllConditioned rather than silently wrong, as
    is a count of zeros (a sphere counting twice) above deg a.
    """
    if a.is_zero():
        raise ValueError("right_zeros of the zero polynomial")
    cluster_tol = max(1e-6, 10.0 * tol)
    C = a._z.view(float)
    # overflow and division by zero only yield values that the decisions
    # below read as misses, so numpy need not warn about them
    with np.errstate(all="ignore"):
        norms = _norm(C.T)
        if not 2.0 ** -511 <= max(norms.tolist()) <= 2.0 ** 511:
            # conj(a) a would leave the float range
            C = _unit_scale(C)
            norms = _norm(C.T)
        try:
            roots = np.roots(_companion_coeffs(C)[::-1])
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(str(exc)) from exc
        if len(roots) < 2 * a.degree():
            # np.roots strips top coefficients of conj(a) a that underflow
            raise IllConditioned(
                f"{len(roots)} of {2 * a.degree()} companion roots "
                "resolved: the top of conj(a) a underflows")
        classes = _cluster_classes(roots, cluster_tol)
        real = [im <= cluster_tol * max(1.0, math.hypot(re, im))
                for re, im in classes]
        real_checks = iter(_real_class_checks(
            C, norms, [re for (re, _), r in zip(classes, real) if r]))
        psi_checks = iter(_psi_class_checks(
            C, [cls for cls, r in zip(classes, real) if not r]))
    a_scale = max(1.0, max(norms.tolist()))

    isolated, spherical, warnings = [], [], []
    for (re, im), is_real in zip(classes, real):
        if is_real:
            # a single candidate point, validated directly
            resid, scale = next(real_checks)
            scale = max(1.0, scale)
            if resid <= tol * scale:
                isolated.append((Quaternion(re), SimilarityClass(re, 0.0)))
            elif resid <= 1e3 * tol * scale:
                isolated.append((Quaternion(re), SimilarityClass(re, 0.0)))
                warnings.append(
                    f"real zero {re:.6g} accepted with residual {resid:.3g}")
            continue
        r0n, r1n, r1n2, x, xn, x_im = next(psi_checks)
        if r0n <= tol * a_scale and r1n <= tol * a_scale:
            spherical.append(SimilarityClass(re, im))
            continue
        if r1n <= tol * a_scale:
            # algebraically impossible for a genuine companion class
            raise IllConditioned(
                f"degenerate remainder for class ({re:.6g}, {im:.6g})")
        if r1n2 <= ZERO_THRESHOLD * ZERO_THRESHOLD:
            # what Quaternion.inverse raises for r_1
            raise ZeroDivisionError("quaternion norm below zero threshold")
        miss = max(abs(x[0] - re), abs(x_im - im)) / max(1.0, xn)
        if miss <= tol:
            isolated.append((Quaternion(*x), SimilarityClass(re, im)))
        elif miss <= 1e3 * tol:
            isolated.append((Quaternion(*x), SimilarityClass(re, im)))
            warnings.append(
                f"zero in class ({re:.6g}, {im:.6g}) accepted with "
                f"class mismatch {miss:.3g}")
        else:
            raise IllConditioned(
                f"candidate zero strays from class ({re:.6g}, {im:.6g}) "
                f"by {miss:.3g}")
    count = len(isolated) + 2 * len(spherical)
    if count > a.degree():
        raise IllConditioned(
            f"{count} zeros found for a polynomial of degree {a.degree()}")
    return ZeroReport(isolated, spherical, warnings)

