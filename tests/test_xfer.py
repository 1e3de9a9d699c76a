import pytest

from qctl import (ONE, ZERO, I, J, K, DimensionMismatch, LeftFraction,
                  NonCausal, QPoly, Quaternion, QuatMatrix, RightFraction,
                  SimilarityClass, StateSpace, ZeroDivisor,
                  denominator_classes_agree, fraction_equal, inverse_class,
                  markov, pmul, pole_classes, realize, series,
                  spectrum_matches_poles, tf_left, tf_right)
import gen

PLANT = StateSpace(QuatMatrix([[ONE, I], [J, K]]),
                   QuatMatrix([[I], [ZERO]]),
                   QuatMatrix([[ONE, ZERO]]),
                   ZERO)


def test_state_space_validation():
    F = QuatMatrix([[ONE, I], [J, K]])
    G = QuatMatrix([[I], [ZERO]])
    H = QuatMatrix([[ONE, ZERO]])
    with pytest.raises(DimensionMismatch):
        StateSpace(QuatMatrix([[ONE, I]]), G, H, ZERO)
    with pytest.raises(DimensionMismatch):
        StateSpace(F, QuatMatrix([[I]]), H, ZERO)
    with pytest.raises(DimensionMismatch):
        StateSpace(F, G, QuatMatrix([[ONE]]), ZERO)
    ss = StateSpace(F, G, H, 0.0)
    assert ss.n == 2 and ss.J == ZERO


def test_markov_hand_values():
    ms = markov(PLANT, 4)
    assert ms[0] == ZERO
    assert ms[1] == I
    assert ms[2] == I
    assert ms[3] == I + J


def test_series_satisfies_recurrences():
    rng = gen.rng_for(31)
    for _ in range(20):
        a = gen.rand_causal_poly(rng, int(rng.integers(1, 4)))
        b = gen.rand_poly(rng, int(rng.integers(0, 4)))
        lf = LeftFraction(a, b)
        s = series(lf, 12)
        for k in range(12):
            acc = Quaternion()
            for i in range(lf.den.degree() + 1):
                if k - i >= 0:
                    acc = acc + lf.den.coeff(i) * s[k - i]
            want = lf.num.coeff(k)
            assert (acc - want).norm() <= 1e-9 * max(1.0, want.norm())
        rf = RightFraction(b, a)
        s = series(rf, 12)
        for k in range(12):
            acc = Quaternion()
            for i in range(rf.den.degree() + 1):
                if k - i >= 0:
                    acc = acc + s[k - i] * rf.den.coeff(i)
            want = rf.num.coeff(k)
            assert (acc - want).norm() <= 1e-9 * max(1.0, want.norm())


def test_left_fraction_reduces_common_left_factor():
    g = QPoly([1.0, I])
    a1 = QPoly([1.0, J])
    b1 = QPoly([0.0, 1.0])
    lf = LeftFraction(pmul(g, a1), pmul(g, b1))
    assert lf.den.degree() == 1
    assert (lf.den.at0() - ONE).norm() <= 1e-12
    assert fraction_equal(lf, LeftFraction(a1, b1), 1e-9)


def test_right_fraction_reduces_common_right_factor():
    g = QPoly([1.0, I])
    a1 = QPoly([1.0, J])
    b1 = QPoly([0.0, 1.0])
    rf = RightFraction(pmul(b1, g), pmul(a1, g))
    assert rf.den.degree() == 1
    assert fraction_equal(rf, RightFraction(b1, a1), 1e-9)


def test_left_fraction_normalizes_causal_constant():
    lf = LeftFraction(QPoly([2.0, I]), QPoly([J]))
    assert (lf.den.at0() - ONE).norm() <= 1e-12
    # numerator rescaled by the same unit so the fraction is unchanged
    assert fraction_equal(lf, LeftFraction(QPoly([2.0, I]), QPoly([J])))


def test_left_fraction_numerically_zero_denominator_raises_zero_divisor():
    # with tol = 0 nothing is trimmed, and neither den(0) nor the lead
    # of den can be inverted
    with pytest.raises(ZeroDivisor):
        LeftFraction(QPoly([0.0, 1e-13]), QPoly.zero(), tol=0.0)


def test_tf_left_reference_plant():
    lf = tf_left(PLANT)
    want_den = QPoly([ONE, Quaternion(-1.0, 0.0, 0.0, 1.0),
                      Quaternion(0.0, 0.0, 0.0, -2.0)])
    want_num = QPoly([ZERO, I, J])
    assert (lf.den - want_den).norm_inf() <= 1e-8
    assert (lf.num - want_num).norm_inf() <= 1e-8


def test_tf_right_matches_tf_left():
    lf = tf_left(PLANT)
    rf = tf_right(PLANT)
    assert rf.kind == "right"
    assert fraction_equal(lf, rf, 1e-8)
    assert denominator_classes_agree(lf, rf, 1e-6)
    s_l = series(lf, 12)
    s_r = series(rf, 12)
    for u, v in zip(s_l, s_r):
        assert (u - v).norm() <= 1e-8 * max(1.0, u.norm())


def test_realize_single_state():
    alpha = Quaternion(0.3, 0.1, 0.0, -0.2)
    f = LeftFraction(QPoly([ONE, -alpha]), QPoly([0.0, 1.0]))
    ss = realize(f)
    assert ss.n == 1
    assert (ss.F[0, 0] - alpha).norm() <= 1e-12
    assert ss.G[0, 0] == ONE
    assert (ss.H[0, 0] - ONE).norm() <= 1e-12
    assert ss.J == ZERO


def test_realize_constant_fraction():
    q = Quaternion(2.0, -1.0, 0.5, 0.0)
    ss = realize(LeftFraction(QPoly.one(), QPoly([q])))
    assert ss.n == 0
    assert ss.J == q
    assert markov(ss, 3) == [q, ZERO, ZERO]


def test_realize_right_fraction_input():
    rf = tf_right(PLANT)
    ss = realize(rf)
    want = markov(PLANT, 8)
    got = markov(ss, 8)
    for u, v in zip(want, got):
        assert (u - v).norm() <= 1e-8 * max(1.0, u.norm())


def test_realize_noncausal_raises():
    f = LeftFraction(QPoly([0.0, 1.0]), QPoly.one())
    with pytest.raises(NonCausal):
        realize(f)
    with pytest.raises(NonCausal):
        series(f, 4)


def test_fraction_equal_examples():
    q = QPoly([Quaternion(0.5, 1.0, 0.0, 0.0)])
    assert fraction_equal(LeftFraction(QPoly.one(), q),
                          RightFraction(q, QPoly.one()))
    assert not fraction_equal(LeftFraction(QPoly.one(), q + QPoly.one()),
                              RightFraction(q, QPoly.one()))
    lf = tf_left(PLANT)
    assert fraction_equal(lf, lf)
    bumped = LeftFraction(lf.den, lf.num + QPoly([1e-3]))
    assert not fraction_equal(lf, bumped, 1e-9)


def test_spectrum_matches_poles_positive_and_negative():
    lf = tf_left(PLANT)
    assert spectrum_matches_poles(realize(lf), lf, 1e-6)
    # append an unreachable nonzero mode: the spectrum gains a class
    # that is neither a pole nor at the origin
    F = QuatMatrix([[PLANT.F[0, 0], PLANT.F[0, 1], ZERO],
                    [PLANT.F[1, 0], PLANT.F[1, 1], ZERO],
                    [ZERO, ZERO, Quaternion(0.7)]])
    G = QuatMatrix([[I], [ZERO], [ZERO]])
    H = QuatMatrix([[ONE, ZERO, ZERO]])
    padded = StateSpace(F, G, H, ZERO)
    assert not spectrum_matches_poles(padded, lf, 1e-6)


def test_pole_classes_and_inverse_class():
    cls = SimilarityClass(3.0, 4.0)
    inv = inverse_class(cls)
    assert abs(inv.re - 0.12) <= 1e-12
    assert abs(inv.im_norm - 0.16) <= 1e-12
    with pytest.raises(ZeroDivisor):
        inverse_class(SimilarityClass(0.0, 0.0))
    lf = tf_left(PLANT)
    poles = pole_classes(lf)
    eig = [(1.3660254037844386, 0.3660254037844386),
           (-0.3660254037844386, 1.3660254037844386)]
    assert len(poles) == 2
    for cls, (re, im) in zip(sorted(poles, key=lambda c: -c.re), eig):
        assert abs(cls.re - re) <= 1e-6
        assert abs(cls.im_norm - im) <= 1e-6


def test_markov_series_lengths_and_validation():
    assert markov(PLANT, 0) == []
    assert series(tf_left(PLANT), 0) == []
