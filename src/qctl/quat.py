"""Quaternion scalars over the skew field H and similarity classes.

Values are immutable; every operation returns a fresh object and is safe
to share between threads.  Components are 64-bit floats.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Norm at or below this is treated as zero for invertibility purposes.
ZERO_THRESHOLD = 1e-12

# Default relative tolerance for similarity tests.
SIMILARITY_TOL = 1e-6


class Quaternion:
    """A quaternion w + x i + y j + z k with Hamilton multiplication
    (i j = k, j i = -k)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # -- basic structure -------------------------------------------------

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def inverse(self, threshold: float = ZERO_THRESHOLD) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2.

        Raises ZeroDivisionError when the norm is at or below
        ``threshold``.
        """
        n2 = self.norm2()
        if n2 <= threshold * threshold:
            raise ZeroDivisionError("quaternion norm below zero threshold")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        w, x, y, z = other.w, other.x, other.y, other.z
        return Quaternion(
            a * w - b * x - c * y - d * z,
            a * x + b * w + c * z - d * y,
            a * y - b * z + c * w + d * x,
            a * z + b * y - c * x + d * w,
        )

    def __rmul__(self, other):
        # reals are central, so scalar order does not matter
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __abs__(self):
        return self.norm()

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Quaternion(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w == other.w and self.x == other.x
                and self.y == other.y and self.z == other.z)

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


_new = object.__new__


def _from_floats(comps) -> Quaternion:
    """The Quaternion with components ``comps``, four Python floats in
    w, x, y, z order, stored as they are: no float() coercion.  This is
    the edge from a pair array, whose .tolist() gives floats already."""
    q = _new(Quaternion)
    q.w, q.x, q.y, q.z = comps
    return q


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, numbers.Real):
        return Quaternion(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q (noncommutative)."""
    return _coerce(p) * _coerce(q)


def conjugate(q: Quaternion) -> Quaternion:
    return _coerce(q).conjugate()


def norm(q: Quaternion) -> float:
    return _coerce(q).norm()


def inverse(q: Quaternion, threshold: float = ZERO_THRESHOLD) -> Quaternion:
    return _coerce(q).inverse(threshold)


class SimilarityClass:
    """Conjugacy class [q] = {u q u^-1 : u != 0}, identified by the pair
    (real part, norm of the imaginary part).

    The canonical representative is the complex number re + im_norm i
    with im_norm >= 0; all members share the norm sqrt(re^2 + im_norm^2).
    """

    __slots__ = ("re", "im_norm")

    def __init__(self, re: float, im_norm: float):
        if im_norm < 0:
            raise ValueError("im_norm must be nonnegative")
        self.re = float(re)
        self.im_norm = float(im_norm)

    def norm(self) -> float:
        return math.hypot(self.re, self.im_norm)

    def representative(self) -> Quaternion:
        return Quaternion(self.re, self.im_norm)

    def matches(self, other: "SimilarityClass", tol: float = SIMILARITY_TOL) -> bool:
        scale = max(1.0, self.norm(), other.norm())
        return (abs(self.re - other.re) <= tol * scale
                and abs(self.im_norm - other.im_norm) <= tol * scale)

    def __eq__(self, other):
        if not isinstance(other, SimilarityClass):
            return NotImplemented
        return self.re == other.re and self.im_norm == other.im_norm

    def __hash__(self):
        return hash((self.re, self.im_norm))

    def __repr__(self):
        return f"SimilarityClass({self.re!r}, {self.im_norm!r})"


def class_of(q: Quaternion) -> SimilarityClass:
    """Similarity class of q: (Re q, |Im q|)."""
    q = _coerce(q)
    return SimilarityClass(q.w, q.imag_norm())


def similar(p: Quaternion, q: Quaternion, tol: float = SIMILARITY_TOL) -> bool:
    """Whether p and q are similar (some u conjugates one to the other).

    Equal real parts plus equal imaginary norms characterize similarity
    over H, which is why members of one class all share the same norm:
    their classes must match (SimilarityClass.matches).
    """
    return class_of(p).matches(class_of(q), tol)


def left_mul_matrix(q: Quaternion) -> np.ndarray:
    """Real 4x4 matrix M with M vec(p) = vec(q p).

    vec maps a quaternion to the column (w, x, y, z).
    """
    q = _coerce(q)
    a, b, c, d = q.w, q.x, q.y, q.z
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def right_mul_matrix(q: Quaternion) -> np.ndarray:
    """Real 4x4 matrix M with M vec(p) = vec(p q).

    This is the linearization used when unknowns multiply known
    coefficients from the left.
    """
    q = _coerce(q)
    a, b, c, d = q.w, q.x, q.y, q.z
    return np.array([
        [a, -b, -c, -d],
        [b, a, d, -c],
        [c, -d, a, b],
        [d, c, -b, a],
    ])


def to_vec(q: Quaternion) -> np.ndarray:
    return np.array(_coerce(q).components())


def from_vec(v) -> Quaternion:
    return Quaternion(v[0], v[1], v[2], v[3])
