import numpy as np
import pytest

from qctl import (ONE, ZERO, I, J, K, QPoly, Quaternion, QuatMatrix,
                  SimilarityClass, class_of, conjugate, left_mul_matrix, qmul,
                  right_mul_matrix, similar)
from qctl.quat import _coerce, from_vec, to_vec
import gen


def test_hamilton_table():
    assert I * I == Quaternion(-1.0)
    assert J * J == Quaternion(-1.0)
    assert K * K == Quaternion(-1.0)
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J
    assert I * J * K == Quaternion(-1.0)


def test_multiplication_is_noncommutative():
    p = Quaternion(1.0, 2.0, 0.0, -1.0)
    q = Quaternion(0.5, -1.0, 3.0, 2.0)
    assert p * q != q * p


def test_conjugate_anti_homomorphism():
    rng = gen.rng_for(7)
    for _ in range(100):
        p = gen.rand_quat(rng)
        q = gen.rand_quat(rng)
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


def test_norm_and_inverse():
    rng = gen.rng_for(8)
    for _ in range(100):
        q = gen.rand_nonzero_quat(rng)
        assert abs(q.norm2() - q.norm() ** 2) <= 1e-12 * max(1.0, q.norm2())
        left = q.inverse() * q
        right = q * q.inverse()
        assert (left - ONE).norm() <= 1e-12
        assert (right - ONE).norm() <= 1e-12


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e-14, 0.0, 0.0, 1e-14).inverse()


def test_real_scalar_mixing():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert 2.0 * q == Quaternion(2.0, 4.0, 6.0, 8.0)
    assert q * 2 == Quaternion(2.0, 4.0, 6.0, 8.0)
    assert q + 1.0 == Quaternion(2.0, 2.0, 3.0, 4.0)
    assert 1 - q == Quaternion(0.0, -2.0, -3.0, -4.0)


def test_equality_and_hash():
    a = Quaternion(1.0, 2.0, 3.0, 4.0)
    b = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert a == b and hash(a) == hash(b)
    assert a != Quaternion(1.0, 2.0, 3.0, 4.000001)
    assert Quaternion(5.0) == 5.0


def test_similarity_class_data():
    q = Quaternion(2.0, 1.0, 2.0, -2.0)
    cls = class_of(q)
    assert cls.re == 2.0
    assert abs(cls.im_norm - 3.0) <= 1e-12
    assert abs(cls.norm() - np.sqrt(13.0)) <= 1e-12
    rep = cls.representative()
    assert rep.w == 2.0 and abs(rep.imag_norm() - 3.0) <= 1e-12


def test_similarity_under_unit_rotation():
    rng = gen.rng_for(9)
    for _ in range(100):
        q = gen.rand_quat(rng)
        u = gen.rand_nonzero_quat(rng, 0.3)
        assert similar(q, u * q * u.inverse())
    # distinct classes do not match
    assert not similar(I, 2.0 * I)
    assert not similar(I, ONE + I)


def test_class_matches_uses_relative_scale():
    big = SimilarityClass(1e8, 1e8)
    nearby = SimilarityClass(1e8 * (1.0 + 1e-8), 1e8)
    assert big.matches(nearby, 1e-6)
    assert not big.matches(SimilarityClass(1.0001e8, 1e8), 1e-6)


def test_mul_matrices_agree_with_products():
    rng = gen.rng_for(10)
    for _ in range(50):
        p = gen.rand_quat(rng)
        q = gen.rand_quat(rng)
        want = to_vec(p * q)
        assert np.allclose(left_mul_matrix(p) @ to_vec(q), want,
                           atol=1e-12)
        assert np.allclose(right_mul_matrix(q) @ to_vec(p), want,
                           atol=1e-12)


def test_numpy_real_scalars_coerce():
    # numpy integers and float32 are not Python int or float subclasses
    for v in (np.int64(3), np.int32(3), np.float32(3.0), np.uint8(3)):
        assert _coerce(v) == Quaternion(3.0)
    assert QPoly([np.int64(1), 2]) == QPoly([1.0, 2.0])
    assert QuatMatrix([[np.float32(1.0)]]) == QuatMatrix([[ONE]])
    with pytest.raises(TypeError):
        _coerce(1j)


def test_vec_round_trip():
    q = Quaternion(0.5, -1.5, 2.5, -3.5)
    v = to_vec(q)
    assert v.shape == (4,)
    assert from_vec(v) == q


def test_module_level_helpers_match_methods():
    p = Quaternion(1.0, -2.0, 0.5, 3.0)
    q = Quaternion(-1.0, 0.0, 2.0, 1.0)
    assert qmul(p, q) == p * q
    assert conjugate(p) == p.conjugate()


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 0.0])
def test_similar_is_class_matching(tol):
    # pairs around the threshold: a rotated copy of p moved by up to
    # twice tol relative to its size, half of them not moved at all
    rng = gen.rng_for(25)
    for _ in range(1000):
        p = gen.rand_quat(rng, 10.0 ** rng.uniform(-2.0, 3.0))
        u = gen.rand_unit_quat(rng)
        q = u * p * u.inverse()
        if rng.uniform() < 0.5:
            q = q + gen.rand_quat(rng, 2.0 * tol * max(1.0, p.norm()))
        assert similar(p, q, tol) == class_of(p).matches(class_of(q), tol)
