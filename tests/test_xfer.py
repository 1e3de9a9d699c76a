from types import SimpleNamespace

import pytest

from qctl import (ONE, ZERO, I, J, K, DimensionMismatch, LeftFraction,
                  NonCausal, QPoly, Quaternion, QuatMatrix, RightFraction,
                  SimilarityClass, StateSpace, ZeroDivisor,
                  denominator_classes_agree, fraction_equal, inverse_class,
                  markov, pmul, pole_classes, realize, scale_left,
                  scale_right, series,
                  spectrum_matches_poles, tf_left, tf_right)
from qctl.xfer import _dual
import gen
import oracle

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


def _right_fractions():
    yield tf_right(PLANT)
    rng = gen.rng_for(118)
    for _ in range(30):
        deg = int(rng.integers(1, 5))
        unit = gen.rand_nonzero_quat(rng)
        den = gen.rand_stable_denominator(rng, deg)
        num = gen.rand_poly(rng, int(rng.integers(0, deg + 1)))
        # a right unit leaves num den^{-1} unchanged but den(0) != 1
        yield RightFraction(scale_right(num, unit), scale_right(den, unit))


def test_realize_right_fraction_matches_series():
    for rf in _right_fractions():
        ss = realize(rf)
        assert ss.n == max(rf.den.degree(), rf.num.degree())
        want = series(rf, 16)
        got = markov(ss, 16)
        scale = max(1.0, max(u.norm() for u in want))
        assert max((u - v).norm() for u, v in zip(want, got)) <= 1e-12 * scale


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


@pytest.mark.parametrize("deg", [1, 4, 9, 16])
def test_series_matches_oracle_recursion(deg):
    """series against the oracle's own recursion of den S = num (left)
    and S den = num (right), with den(0) != 1 and deg num > deg den.  The
    fractions are plain (kind, den, num) records, because the
    constructors would scale a left den(0) to 1 and cancel factors.

    The denominators have generic coefficients.  A product of 16 stable
    linear factors has coefficients up to 1e4 times its series terms:
    there the oracle's recursion itself sits 7e-12 from the series in
    50-digit arithmetic, so two double-precision methods cannot agree
    to 1e-12."""
    rng = gen.rng_for(33, deg)
    for _ in range(3):
        unit = gen.rand_nonzero_quat(rng)
        den = gen.rand_causal_poly(rng, deg)
        num = gen.rand_poly(rng, deg + int(rng.integers(1, 4)))
        count = 3 * deg + 6
        for kind, d in (("left", scale_left(unit, den)),
                        ("right", scale_right(den, unit))):
            assert (d.at0() - ONE).norm() > 1e-3
            frac = SimpleNamespace(kind=kind, den=d, num=num)
            want = oracle.series(oracle.poly_pair(d), oracle.poly_pair(num),
                                 count, kind)
            assert oracle.seq_rel_err(series(frac, count), want) <= 1e-12


def test_series_noncausal_threshold_reads_den_only():
    # |den(0)| = 1e-13 <= 1e-12 max(1, |den|): no causal series
    den = QPoly([Quaternion(0.0, 1e-13), ONE])
    num = QPoly([ONE, I])
    lf, rf = LeftFraction(den, num), RightFraction(num, den)
    for frac in (lf, rf):
        assert abs(frac.den.at0().norm() - 1e-13) <= 1e-28
        with pytest.raises(NonCausal):
            series(frac, 4)
    # |den(0)| = 2e-12 passes, however large num is
    den = QPoly([Quaternion(0.0, 2e-12), ONE])
    for kind in ("left", "right"):
        frac = SimpleNamespace(kind=kind, den=den, num=QPoly([1e3, 1e3]))
        assert len(series(frac, 4)) == 4


def test_dual_markov_is_conjugate_at_n16():
    ss = gen.rand_system(gen.rng_for(34), 16, radius=0.9)
    want = [s.conjugate() for s in markov(ss, 40)]
    got = markov(_dual(ss), 40)
    scale = max(1.0, max(s.norm() for s in want))
    assert max((u - v).norm() for u, v in zip(got, want)) <= 1e-12 * scale


def _causal(expand):
    try:
        expand()
    except NonCausal:
        return False
    return True


@pytest.mark.parametrize("den0, causal", [(5e-12, True), (0.0, False)])
@pytest.mark.parametrize("kind", ["left", "right"])
def test_series_and_realize_share_one_causality_rule(den0, causal, kind):
    # whether den(0) vanishes is decided against den alone, however
    # large the numerator
    den, num = QPoly([den0, 1.0]), QPoly([1.0, 1e4])
    frac = (LeftFraction(den, num) if kind == "left"
            else RightFraction(num, den))
    assert _causal(lambda: series(frac, 4)) is causal
    assert _causal(lambda: realize(frac)) is causal
