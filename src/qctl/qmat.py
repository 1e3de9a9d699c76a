"""Quaternionic matrices, the complex-adjoint embedding, and right
eigenvalues.

A QuatMatrix is a dense row-major grid of Quaternion entries.  Products
follow row-column order with the row entry multiplying the column entry
from the left, matching x(k+1) = F x(k) + G u(k).

ComplexMatrix values are plain numpy complex arrays; the adjoint of an
n x m quaternionic matrix is 2n x 2m complex.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EigensolverFailure
from .quat import Quaternion, SimilarityClass, right_mul_matrix, to_vec, from_vec, _coerce


class QuatMatrix:
    """Immutable dense matrix over H."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries, cols=None):
        """Build from a sequence of rows of Quaternion (or real) entries.

        ``cols`` is only needed for matrices with zero rows, where the
        column count cannot be inferred.
        """
        rows = [tuple(_coerce(e) for e in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        self.rows = len(rows)
        self.cols = cols
        self.data = tuple(rows)

    @staticmethod
    def zeros(rows: int, cols: int) -> "QuatMatrix":
        return QuatMatrix([[Quaternion() for _ in range(cols)] for _ in range(rows)],
                          cols=cols)

    @staticmethod
    def identity(n: int) -> "QuatMatrix":
        return QuatMatrix([[Quaternion(1.0 if i == c else 0.0) for c in range(n)]
                           for i in range(n)], cols=n)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, QuatMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return f"QuatMatrix({self.rows}x{self.cols})"

    def entry_norm_max(self) -> float:
        return max((e.norm() for row in self.data for e in row), default=0.0)


def add(A: QuatMatrix, B: QuatMatrix) -> QuatMatrix:
    if A.rows != B.rows or A.cols != B.cols:
        raise DimensionMismatch(f"add {A.rows}x{A.cols} with {B.rows}x{B.cols}")
    return QuatMatrix([[A[i, j] + B[i, j] for j in range(A.cols)]
                       for i in range(A.rows)], cols=A.cols)


def matmul(A: QuatMatrix, B: QuatMatrix) -> QuatMatrix:
    if A.cols != B.rows:
        raise DimensionMismatch(f"matmul {A.rows}x{A.cols} with {B.rows}x{B.cols}")
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = Quaternion()
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            row.append(acc)
        out.append(row)
    return QuatMatrix(out, cols=B.cols)


def matvec(A: QuatMatrix, v: QuatMatrix) -> QuatMatrix:
    if v.cols != 1:
        raise DimensionMismatch("matvec expects a column")
    return matmul(A, v)


def identity(n: int) -> QuatMatrix:
    return QuatMatrix.identity(n)


def _components(rows, r: int, c: int) -> np.ndarray:
    """The (r, c, 4) array of the (w, x, y, z) components of a grid of
    Quaternion entries given as r rows of c entries."""
    flat = [v for row in rows for q in row for v in (q.w, q.x, q.y, q.z)]
    return np.array(flat, dtype=float).reshape(r, c, 4)


def _adjoint(comps: np.ndarray) -> np.ndarray:
    """Complex adjoint [[A1, A2], [-conj(A2), conj(A1)]] of the
    quaternionic matrix with (r, c, 4) component array ``comps``.

    Viewing (w, x, y, z) as two complex numbers gives A1 = w + x i and
    A2 = y + z i exactly, with no per-entry work."""
    r, c = comps.shape[:2]
    pairs = np.ascontiguousarray(comps, dtype=float).view(complex)
    a1, a2 = pairs[..., 0], pairs[..., 1]
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
    return _adjoint(_components(A.data, A.rows, A.cols))


class RightSpectrum:
    """The n right-eigenvalue similarity classes of an n x n matrix,
    canonical representatives with nonnegative imaginary part, sorted by
    (re, im_norm) descending."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = tuple(classes)

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
    each pair collapses to one similarity class.  ``tol`` bounds the
    allowed mismatch (relative to the eigenvalue scale) when pairing.
    """
    lam = _adjoint_eigenvalues(A)
    # Conjugate mates share (re, |im|); sorting on that key makes them
    # adjacent.  Real eigenvalues appear twice and pair with themselves.
    order = sorted(range(len(lam)), key=lambda t: (
        lam[t].real, abs(lam[t].imag), lam[t].imag))
    pair_tol = max(tol, 1e-8)
    classes = []
    for t in range(0, len(lam), 2):
        a = lam[order[t]]
        b = lam[order[t + 1]]
        scale = max(1.0, abs(a), abs(b))
        if (abs(a.real - b.real) > pair_tol * scale
                or abs(abs(a.imag) - abs(b.imag)) > pair_tol * scale):
            raise EigensolverFailure(
                f"adjoint spectrum does not pair into conjugates: {a} vs {b}")
        classes.append(SimilarityClass(0.5 * (a.real + b.real),
                                       0.5 * (abs(a.imag) + abs(b.imag))))
    classes.sort(key=lambda c: (-c.re, -c.im_norm))
    return RightSpectrum(classes)


def spectral_radius_stable(A: QuatMatrix, tol: float = 1e-9) -> bool:
    """Whether every right-eigenvalue class norm is strictly below
    1 - tol, the contraction condition for x(k+1) = A x(k).  Each adjoint
    eigenvalue has the norm of its class, so none need pairing."""
    return bool(np.all(np.abs(_adjoint_eigenvalues(A)) < 1.0 - tol))


def solve_left_linear(coeff_rows, rhs):
    """Solve equations sum_i p_i s_{k,i} = rhs_k for the unknowns p_i.

    Each unknown multiplies its known coefficient from the left, so each
    quaternion equation expands into 4 real equations through
    right-multiplication matrices.  Returns the minimum-norm least
    squares solution as a list of Quaternion; residual checking is the
    caller's job.
    """
    m = len(coeff_rows[0]) if coeff_rows else 0
    if any(len(row) != m for row in coeff_rows):
        raise DimensionMismatch("ragged coefficient rows")
    if len(coeff_rows) != len(rhs):
        raise DimensionMismatch("rhs length does not match equation count")
    if m == 0:
        return []
    K = len(coeff_rows)
    A = np.zeros((4 * K, 4 * m))
    b = np.zeros(4 * K)
    for k, row in enumerate(coeff_rows):
        for i, s in enumerate(row):
            A[4 * k:4 * k + 4, 4 * i:4 * i + 4] = right_mul_matrix(s)
        b[4 * k:4 * k + 4] = to_vec(rhs[k])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return [from_vec(sol[4 * i:4 * i + 4]) for i in range(m)]
