"""Quaternionic matrices, the complex-adjoint embedding, and right
eigenvalues.

A QuatMatrix stores its entries as QPoly stores its coefficients: one
(r, c, 2) complex array of pairs (q1, q2), q = q1 + q2 j, from which
``data`` and ``[i, j]`` build Quaternions on demand.  Products follow
row-column order with the row entry multiplying the column entry from
the left, matching x(k+1) = F x(k) + G u(k).

ComplexMatrix values are plain numpy complex arrays; the adjoint of an
n x m quaternionic matrix is 2n x 2m complex.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DimensionMismatch, EigensolverFailure
from .quat import Quaternion, SimilarityClass, _coerce, _from_floats


class QuatMatrix:
    """Immutable dense matrix over H."""

    __slots__ = ("rows", "cols", "_z", "_data")

    def __init__(self, entries, cols=None):
        """Build from a sequence of rows of Quaternion (or real) entries.

        ``cols`` is only needed for matrices with zero rows, where the
        column count cannot be inferred.
        """
        rows = list(map(list, entries))
        widths = list(map(len, rows))
        comps = np.fromiter(chain.from_iterable(map(
            Quaternion.components, map(_coerce, chain.from_iterable(rows)))),
            float, 4 * sum(widths))
        if rows:
            width = widths[0]
            if widths.count(width) != len(widths):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("cols does not match row width")
            cols = width
        _wrap(comps.reshape(len(rows), cols or 0, 4).view(complex), self)

    @staticmethod
    def zeros(rows: int, cols: int) -> "QuatMatrix":
        return _wrap(np.zeros((rows, cols, 2), dtype=complex))

    @staticmethod
    def identity(n: int) -> "QuatMatrix":
        return _wrap(np.eye(n, dtype=complex)[..., None] * [1.0, 0.0])

    @property
    def data(self):
        """The entries as a tuple of rows of Quaternions, built once."""
        if self._data is None:
            self._data = tuple(tuple(map(_from_floats, row))
                               for row in self._z.view(float).tolist())
        return self._data

    def __getitem__(self, key):
        """The entry at [i, j]; a key that picks no single entry raises
        TypeError."""
        entry = self._z[key]
        if entry.shape != (2,):
            raise TypeError("index one entry of a QuatMatrix, as [i, j]")
        return _from_floats(entry.view(float).tolist())

    def __eq__(self, other):
        if not isinstance(other, QuatMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self._z, other._z))

    def __repr__(self):
        return f"QuatMatrix({self.rows}x{self.cols})"

    def entry_norm_max(self) -> float:
        v = self._z.view(float)
        return float(np.sqrt((v * v).sum(axis=-1)).max(initial=0.0))


def _wrap(z, m: QuatMatrix = None) -> QuatMatrix:
    """The QuatMatrix (``m``, or a new one) holding the (r, c, 2) pair
    array z, whose last axis must be contiguous.  z is not copied and
    must not be written to afterwards; it is marked read-only."""
    m = QuatMatrix.__new__(QuatMatrix) if m is None else m
    m.rows, m.cols = z.shape[:2]
    z.setflags(write=False)
    m._z, m._data = z, None
    return m


def add(A: QuatMatrix, B: QuatMatrix) -> QuatMatrix:
    if A.rows != B.rows or A.cols != B.cols:
        raise DimensionMismatch(f"add {A.rows}x{A.cols} with {B.rows}x{B.cols}")
    return _wrap(A._z + B._z)


def matmul(A: QuatMatrix, B: QuatMatrix) -> QuatMatrix:
    if A.cols != B.rows:
        raise DimensionMismatch(f"matmul {A.rows}x{A.cols} with {B.rows}x{B.cols}")
    return _wrap(_pair_matmul(A._z, B._z))


def _pair_matmul(a, b) -> np.ndarray:
    """The pair array of the product of the matrices with pair arrays a
    (r x k) and b (k x c): each row of a, read as the pairs (a1, a2),
    times the 2 x 2 blocks [[b1, b2], [-conj b2, conj b1]] of b."""
    k, c = b.shape[:2]
    m = np.empty((k, 2, c, 2), dtype=complex)
    m[:, 0] = b
    m[:, 1, :, 0] = -b[..., 1].conj()
    m[:, 1, :, 1] = b[..., 0].conj()
    r = len(a)
    return (a.reshape(r, 2 * k) @ m.reshape(2 * k, 2 * c)).reshape(r, c, 2)


def matvec(A: QuatMatrix, v: QuatMatrix) -> QuatMatrix:
    if v.cols != 1:
        raise DimensionMismatch("matvec expects a column")
    return matmul(A, v)


identity = QuatMatrix.identity


def _adjoint(z: np.ndarray) -> np.ndarray:
    """Complex adjoint [[A1, A2], [-conj(A2), conj(A1)]] of the
    quaternionic matrix with (r, c, 2) pair array ``z``."""
    r, c = z.shape[:2]
    a1, a2 = z[..., 0], z[..., 1]
    out = np.empty((2 * r, 2 * c), dtype=complex)
    out[:r, :c] = a1
    out[:r, c:] = a2
    out[r:, :c] = -a2.conj()
    out[r:, c:] = a1.conj()
    return out


def complex_adjoint(A: QuatMatrix) -> np.ndarray:
    """Complex adjoint of A = A1 + A2 j.

    With A1 = w + x i and A2 = y + z i entrywise, returns the block
    matrix [[A1, A2], [-conj(A2), conj(A1)]] of shape 2r x 2c.  The map
    is a ring homomorphism, which is what makes right eigenvalues
    computable through it.
    """
    return _adjoint(A._z)


class RightSpectrum:
    """The n right-eigenvalue similarity classes of an n x n matrix,
    canonical representatives with nonnegative imaginary part, sorted by
    (re, im_norm) descending.  warnings: notes about conjugate mates of
    the adjoint spectrum that differ by more than the pairing
    tolerance."""

    __slots__ = ("classes", "warnings")

    def __init__(self, classes, warnings=()):
        self.classes = tuple(classes)
        self.warnings = list(warnings)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def __repr__(self):
        inner = ", ".join(f"({c.re:.6g}, {c.im_norm:.6g})" for c in self.classes)
        return f"RightSpectrum[{inner}]"


def _adjoint_eigenvalues(A: QuatMatrix) -> np.ndarray:
    """The 2n eigenvalues of the complex adjoint of a square A."""
    if A.rows != A.cols:
        raise DimensionMismatch("right eigenvalues need a square matrix")
    try:
        return np.linalg.eigvals(complex_adjoint(A))
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc


def right_eigenvalues(A: QuatMatrix, tol: float = 1e-9) -> RightSpectrum:
    """Standard right eigenvalues of a square quaternionic matrix.

    The 2n eigenvalues of the complex adjoint come in conjugate pairs;
    the sorted spectrum is halved into mates and each pair collapses to
    one similarity class, their average.  The worst distance between
    mates (relative to the eigenvalue scale), a lower bound on the
    eigenvalues' error, is noted in ``warnings`` when it exceeds
    max(tol, 1e-8).
    """
    lam = _adjoint_eigenvalues(A)
    # Conjugate mates share (re, |im|); sorting on that key makes them
    # adjacent.  Real eigenvalues appear twice and pair with themselves.
    order = sorted(range(len(lam)), key=lambda t: (
        lam[t].real, abs(lam[t].imag), lam[t].imag))
    classes = []
    worst = 0.0
    for t in range(0, len(lam), 2):
        a = lam[order[t]]
        b = lam[order[t + 1]]
        scale = max(1.0, abs(a), abs(b))
        worst = max(worst, abs(a.real - b.real) / scale,
                    abs(abs(a.imag) - abs(b.imag)) / scale)
        classes.append(SimilarityClass(0.5 * (a.real + b.real),
                                       0.5 * (abs(a.imag) + abs(b.imag))))
    classes.sort(key=lambda c: (-c.re, -c.im_norm))
    pair_tol = max(tol, 1e-8)
    warnings = [] if worst <= pair_tol else [
        f"conjugate eigenvalue mates differ by {worst:.3g} relative, "
        f"above {pair_tol:.3g}"]
    return RightSpectrum(classes, warnings)


def spectral_radius_stable(A: QuatMatrix, tol: float = 1e-9) -> bool:
    """Whether every right-eigenvalue class norm is strictly below
    1 - tol, the contraction condition for x(k+1) = A x(k).  Each adjoint
    eigenvalue has the norm of its class, so none need pairing."""
    return bool(np.all(np.abs(_adjoint_eigenvalues(A)) < 1.0 - tol))


def solve_left_linear(coeff_rows, rhs):
    """Solve equations sum_i p_i s_{k,i} = rhs_k for the unknowns p_i.

    Each unknown multiplies its known coefficient s_{k,i} from the left:
    the row p times S^T is rhs^T, so the first block row (p1, p2) of
    adj(p) times adj(S^T) is the first row (rhs1, rhs2) of adj(rhs^T),
    one complex linear system.
    Returns the minimum-norm least squares solution as a list of
    Quaternion; residual checking is the caller's job.
    """
    if len(coeff_rows) != len(rhs):
        raise DimensionMismatch("rhs length does not match equation count")
    s = QuatMatrix(coeff_rows)._z
    r = _adjoint(QuatMatrix([list(rhs)])._z)[0]
    x = np.linalg.lstsq(_adjoint(s.transpose(1, 0, 2)).T, r, rcond=None)[0]
    return list(_wrap(np.stack(np.split(x, 2), axis=-1)[None]).data[0])
