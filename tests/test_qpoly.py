import math
import warnings

import pytest

from qctl import (ONE, ZERO, I, J, K, BothZero, QPoly, Quaternion,
                  ZeroDivisor, class_of, companion_polynomial,
                  div_quotient_left, div_quotient_right, eval_left,
                  eval_right, gcld, gcrd, is_stable, left_to_right, pmul,
                  right_zeros)
from qctl.qpoly import scale_left, shift
import gen
import oracle


def test_constructor_trims_exact_zero_tail():
    a = QPoly([1.0, I, ZERO, ZERO])
    assert a.degree() == 1
    assert QPoly([ZERO]).is_zero()
    assert QPoly().degree() == float("-inf")


def test_constructor_keeps_tiny_nonzero_coefficients():
    # below about 1.5e-154 norm2() underflows to 0, the components do not
    assert QPoly([1.0, 1e-160]).degree() == 1
    assert QPoly([Quaternion(0.0, 0.0, 0.0, -1e-170)]).degree() == 0
    assert QPoly([1.0, Quaternion(0.0, -0.0)]).degree() == 0


def test_trim_is_relative_to_scale():
    a = QPoly([1.0, Quaternion(1e-12)])
    assert a.trim(1e-9).degree() == 0
    # same tail survives when the stated scale is tiny
    assert a.trim(1e-9, scale=1e-12).degree() == 1


def test_basic_accessors():
    a = QPoly([2.0, I, J])
    assert a.at0() == Quaternion(2.0)
    assert a.lead() == J
    assert a.coeff(1) == I
    assert a.coeff(9) == ZERO
    assert a.norm_inf() == 2.0
    with pytest.raises(ZeroDivisor):
        QPoly.zero().lead()


def test_monomial_and_shift():
    m = QPoly.monomial(I, 3)
    assert m.degree() == 3 and m.lead() == I
    assert shift(QPoly([1.0, J]), 2) == QPoly([0.0, 0.0, 1.0, J])


def test_product_coefficients_keep_factor_order():
    # (i d)(j d) = k d^2, while (j d)(i d) = -k d^2
    assert pmul(QPoly([0.0, I]), QPoly([0.0, J])) == QPoly([0.0, 0.0, K])
    assert pmul(QPoly([0.0, J]), QPoly([0.0, I])) == QPoly([0.0, 0.0, -K])


def test_evaluation_sides_differ():
    a = QPoly([0.0, I])
    assert eval_right(a, J) == K
    assert eval_left(a, J) == -K


def test_division_right_exact_case():
    # d^2 = (d - i)(d + i) - 1
    a = QPoly([0.0, 0.0, 1.0])
    b = QPoly([-I, 1.0])
    q, r = div_quotient_right(a, b)
    assert (q - QPoly([I, 1.0])).norm_inf() <= 1e-12
    assert (r - QPoly([-1.0])).norm_inf() <= 1e-12


def test_division_degenerate_degrees():
    a = QPoly([I, J])
    q, r = div_quotient_right(a, QPoly([3.0, 0.0, 1.0]))
    assert q.is_zero() and r == a
    with pytest.raises(ZeroDivisor):
        div_quotient_right(a, QPoly.zero())
    with pytest.raises(ZeroDivisor):
        div_quotient_left(a, QPoly.zero())


def test_numerically_zero_leading_coefficient_raises_zero_divisor():
    # a coefficient below the inversion threshold is a QctlError, never
    # a raw ZeroDivisionError
    a, tiny = QPoly([1.0, 1.0, 1.0]), QPoly([1.0, 1e-13])
    with pytest.raises(ZeroDivisor):
        div_quotient_right(a, tiny)
    with pytest.raises(ZeroDivisor):
        div_quotient_left(a, tiny)
    # gcld trims only its second argument, so this lead reaches the
    # monic normalization of g
    with pytest.raises(ZeroDivisor):
        gcld(QPoly([0.0, 1e-13]), QPoly.zero())
    # left_to_right trims the pair as the fraction constructors do, and
    # this denominator trims to zero
    with pytest.raises(ZeroDivisor):
        left_to_right(QPoly([0.0, 1e-13]), QPoly.one())


def test_division_sides_reconstruct():
    rng = gen.rng_for(21)
    for _ in range(50):
        a = gen.rand_poly(rng, int(rng.integers(0, 6)))
        b = gen.rand_poly(rng, int(rng.integers(0, 6)))
        scale = max(1.0, a.norm_inf(), b.norm_inf())
        q, r = div_quotient_right(a, b)
        assert (pmul(b, q) + r - a).norm_inf() <= 1e-9 * scale
        q, r = div_quotient_left(a, b)
        assert (pmul(q, b) + r - a).norm_inf() <= 1e-9 * scale


def test_gcld_extracts_planted_left_divisor():
    g = QPoly([1.0, I])
    a = pmul(g, QPoly([J, 1.0]))
    b = pmul(g, QPoly([1.0, K]))
    data = gcld(a, b)
    assert data.g.degree() == 1
    assert (data.g.lead() - ONE).norm() <= 1e-12
    # the result divides both inputs from the left
    for poly in (a, b):
        _, rem = div_quotient_right(poly, data.g)
        assert rem.norm_inf() <= 1e-9
    # and is itself a left multiple of the planted divisor
    _, rem = div_quotient_right(data.g, g)
    assert rem.norm_inf() <= 1e-9


def test_gcrd_extracts_planted_right_divisor():
    g = QPoly([1.0, I])
    a = pmul(QPoly([J, 1.0]), g)
    b = pmul(QPoly([1.0, K]), g)
    data = gcrd(a, b)
    assert data.g.degree() == 1
    for poly in (a, b):
        _, rem = div_quotient_left(poly, data.g)
        assert rem.norm_inf() <= 1e-9


def test_gcld_degenerate_inputs():
    a = QPoly([I, 1.0])
    data = gcld(a, QPoly.zero())
    assert data.g.degree() == 1
    _, rem = div_quotient_right(a, data.g)
    assert rem.norm_inf() <= 1e-12
    data = gcld(QPoly.zero(), a)
    assert data.g.degree() == 1
    with pytest.raises(BothZero):
        gcld(QPoly.zero(), QPoly.zero())
    with pytest.raises(BothZero):
        gcrd(QPoly.zero(), QPoly.zero())


def test_left_to_right_keeps_zero_class():
    # a = d - i against b = 1: the right denominator keeps class [i]
    a = QPoly([-I, 1.0])
    b = QPoly.one()
    b_r, a_r = left_to_right(a, b)
    cross = pmul(a, b_r) - pmul(b, a_r)
    assert cross.norm_inf() <= 1e-12
    report = right_zeros(a_r)
    assert len(report.isolated) == 1
    _, cls = report.isolated[0]
    assert cls.matches(class_of(I), 1e-9)


def test_companion_polynomial_is_real_and_known():
    q = Quaternion(1.0, 2.0, -1.0, 0.5)
    a = QPoly([-q, 1.0])
    comp = companion_polynomial(a)
    want = QPoly([q.norm2(), -2.0 * q.w, 1.0])
    assert (comp - want).norm_inf() <= 1e-12
    rng = gen.rng_for(22)
    for _ in range(20):
        a = gen.rand_poly(rng, int(rng.integers(1, 5)))
        comp = companion_polynomial(a)
        for c in comp.coeffs:
            assert c.imag_norm() <= 1e-12 * max(1.0, c.norm())


def test_right_zeros_real_factors():
    a = QPoly([12.0, -7.0, 1.0])
    report = right_zeros(a)
    assert not report.spherical
    zs = sorted(z.w for z, _ in report.isolated)
    assert abs(zs[0] - 3.0) <= 1e-9 and abs(zs[1] - 4.0) <= 1e-9
    for z, _ in report.isolated:
        assert z.imag_norm() <= 1e-9


def test_right_zeros_quaternion_factors():
    x1 = Quaternion(1.0, 2.0, 0.0, 0.0)
    x2 = Quaternion(-0.5, 0.0, 1.5, 0.0)
    a = pmul(QPoly([-x1, 1.0]), QPoly([-x2, 1.0]))
    report = right_zeros(a)
    assert len(report.isolated) == 2 and not report.spherical
    # the right factor's zero appears exactly; the left factor
    # contributes some member of its class
    direct = min((z - x2).norm() for z, _ in report.isolated)
    assert direct <= 1e-8
    assert any(cls.matches(class_of(x1), 1e-8)
               for _, cls in report.isolated)
    for z, _ in report.isolated:
        assert eval_right(a, z).norm() <= 1e-8 * max(1.0, a.norm_inf())


def test_right_zeros_spherical():
    report = right_zeros(QPoly([1.0, 0.0, 1.0]))
    assert not report.isolated
    assert len(report.spherical) == 1
    cls = report.spherical[0]
    assert abs(cls.re) <= 1e-9 and abs(cls.im_norm - 1.0) <= 1e-9
    # every class member really is a zero
    member = Quaternion(0.0, 0.6, 0.8, 0.0)
    assert eval_right(QPoly([1.0, 0.0, 1.0]), member).norm() <= 1e-12


def test_right_zeros_mixed_spherical_and_isolated():
    sphere = QPoly([1.0, 0.0, 1.0])
    a = pmul(sphere, QPoly([-3.0, 1.0]))
    report = right_zeros(a)
    assert len(report.spherical) == 1
    assert any(abs(cls.re - 3.0) <= 1e-8 and cls.im_norm <= 1e-8
               for _, cls in report.isolated)


def test_right_zeros_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        right_zeros(QPoly.zero())
    report = right_zeros(QPoly([2.0]))
    assert not report.isolated and not report.spherical


@pytest.mark.parametrize("s", [1e160, 1e-170])
def test_right_zeros_far_from_unit_scale(s):
    # conj(a) a leaves the float range at these scales
    unit = QPoly([Quaternion(-2.0, 1.0), ONE])
    a = QPoly([Quaternion(-2.0 * s, s), Quaternion(s)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, want = right_zeros(a), right_zeros(unit)
        assert is_stable(a) == is_stable(unit)
    assert not report.spherical and not report.warnings
    [(z, cls)], [(z_want, cls_want)] = report.isolated, want.isolated
    assert cls.matches(cls_want, 1e-14)
    assert (z - z_want).norm() <= 1e-14


def test_is_stable_thresholds():
    assert is_stable(QPoly([12.0, -7.0, 1.0]))
    assert not is_stable(QPoly([-0.5, 1.0]))
    assert not is_stable(QPoly([-1.0, 1.0]))
    # constants have no zeros at all
    assert is_stable(QPoly([5.0]))


@pytest.mark.parametrize("deg", [4, 8, 12])
def test_is_stable_on_products_of_spaced_real_factors(deg):
    # right_zeros cannot resolve these real classes (ROADMAP item 4);
    # the verdict needs only their norms, all at least 1.2
    for seed in range(20):
        zeros = gen.spaced_real(gen.rng_for(seed, 550 + deg), deg, 1.2, 0.4)
        a = QPoly([1.0])
        for z in zeros:
            a = pmul(a, QPoly([-z, 1.0]))
        assert is_stable(a) is True, seed
        assert is_stable(a, min(zeros) - 1.0 + 1e-6) is False, seed


@pytest.mark.parametrize("gap", [2e-9, 1e-8, 3e-8, 1e-7])
def test_is_stable_on_real_zeros_just_outside(gap):
    # a real zero is a double root of conj(a) a, which rounding splits
    # by about sqrt(eps); the clustered class keeps its norm
    r = 1.0 + 1e-9 + gap
    assert is_stable(QPoly([-r, 1.0]))
    assert is_stable(pmul(QPoly([-r, 1.0]), QPoly([-3.0, 1.0])))
    assert not is_stable(QPoly([-r, 1.0]), gap + 2e-9)


def _power(f, k):
    a = QPoly([1.0])
    for _ in range(k):
        a = pmul(a, f)
    return a


@pytest.mark.parametrize("gap", [2e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_is_stable_on_repeated_real_zeros_just_outside(gap):
    # (d - r)^2 is a fourfold root of conj(a) a, which np.roots splits by
    # about eps^(1/4); the observer form of 1/a has the double eigenvalue
    # class 1/r, whose modulus rounding moves far less
    r = 1.0 + 1e-9 + gap
    a = _power(QPoly([-r, 1.0]), 2)
    assert is_stable(a)
    assert not is_stable(a, gap + 2e-9)


@pytest.mark.parametrize("gap", [1e-5, 1e-4, 1e-3])
def test_is_stable_on_triple_real_zeros_outside(gap):
    r = 1.0 + 1e-9 + gap
    assert is_stable(_power(QPoly([-r, 1.0]), 3))


@pytest.mark.parametrize("s", [1e-13, 1e-100, 1e100])
def test_is_stable_ignores_the_scale_of_a(s):
    # the zero 2 - i of (-2 + i) + d has norm sqrt(5), that of -0.5 + d
    # norm 0.5, however small or large the coefficients
    assert is_stable(QPoly([Quaternion(-2.0 * s, s), Quaternion(s)]))
    assert not is_stable(QPoly([-0.5 * s, s]))


def test_is_stable_reads_a_zero_at_the_origin_as_unstable():
    assert not is_stable(QPoly([0.0, -3.0, 1.0]))
    assert not is_stable(QPoly([1e-14, -3.0, 1.0]))


def test_scale_left_right_zero_preserved():
    rng = gen.rng_for(23)
    a = gen.rand_poly(rng, 2)
    report = right_zeros(a)
    scaled = scale_left(gen.rand_nonzero_quat(rng), a)
    report2 = right_zeros(scaled)
    for (_, c1), (_, c2) in zip(report.isolated, report2.isolated):
        assert c1.matches(c2, 1e-7)


# -- packed kernels against oracle.py's independent complex-pair arithmetic

PACKED_DEGREES = [0, 1, 2, 8, 32, 64]


def _rel_err(got, want, scale):
    return oracle.coeff_norm_max(oracle.polysub(got, want)) / max(1.0, scale)


@pytest.mark.parametrize("deg", PACKED_DEGREES)
def test_mul_matches_oracle_product(deg):
    rng = gen.rng_for(9800 + deg)
    a, b = gen.rand_poly(rng, deg), gen.rand_poly(rng, deg // 2 + 1)
    want = oracle.polymul(oracle.poly_pair(a), oracle.poly_pair(b))
    got = pmul(a, b)
    assert got.degree() == deg + deg // 2 + 1
    assert _rel_err(oracle.poly_pair(got), want,
                    oracle.coeff_norm_max(want)) <= 1e-14


@pytest.mark.parametrize("deg", PACKED_DEGREES)
def test_division_identities_match_oracle(deg):
    rng = gen.rng_for(9810 + deg)
    a, b = gen.rand_poly(rng, deg), gen.rand_poly(rng, (deg + 1) // 2)
    A, B = oracle.poly_pair(a), oracle.poly_pair(b)
    q, r = div_quotient_right(a, b)
    Q, R = oracle.poly_pair(q), oracle.poly_pair(r)
    assert r.degree() < b.degree()
    bq = oracle.polymul(B, Q)
    scale = max(oracle.coeff_norm_max(A), oracle.coeff_norm_max(bq))
    assert _rel_err(oracle.polyadd(bq, R), A, scale) <= 1e-13
    q, r = div_quotient_left(a, b)
    Q, R = oracle.poly_pair(q), oracle.poly_pair(r)
    assert r.degree() < b.degree()
    qb = oracle.polymul(Q, B)
    scale = max(oracle.coeff_norm_max(A), oracle.coeff_norm_max(qb))
    assert _rel_err(oracle.polyadd(qb, R), A, scale) <= 1e-13


@pytest.mark.parametrize("deg", PACKED_DEGREES)
def test_conjugate_reverses_products(deg):
    rng = gen.rng_for(9820 + deg)
    a, b = gen.rand_poly(rng, deg), gen.rand_poly(rng, deg)
    lhs = oracle.poly_pair(pmul(a, b).conjugate())
    rhs = oracle.poly_pair(pmul(b.conjugate(), a.conjugate()))
    assert _rel_err(lhs, rhs, oracle.coeff_norm_max(rhs)) <= 1e-14


@pytest.mark.parametrize("deg,common", [(8, 4), (12, 6)])
@pytest.mark.parametrize("seed", range(1, 6))
def test_gcld_bezout_residual_and_planted_degree(deg, common, seed):
    rng = gen.rng_for(9830 + deg, seed)
    g = gen.rand_poly(rng, common)
    a = pmul(g, gen.rand_poly(rng, deg - common))
    b = pmul(g, gen.rand_poly(rng, deg - common - 1))
    data = gcld(a, b)
    assert data.g.degree() == common
    A, B = oracle.poly_pair(a), oracle.poly_pair(b)
    ap = oracle.polymul(A, oracle.poly_pair(data.p))
    bq = oracle.polymul(B, oracle.poly_pair(data.q))
    scale = max(oracle.coeff_norm_max(ap), oracle.coeff_norm_max(bq))
    assert _rel_err(oracle.polyadd(ap, bq), oracle.poly_pair(data.g),
                    scale) <= 1e-9
    au = oracle.polymul(A, oracle.poly_pair(data.u))
    bv = oracle.polymul(B, oracle.poly_pair(data.v))
    scale = max(oracle.coeff_norm_max(au), oracle.coeff_norm_max(bv))
    assert oracle.coeff_norm_max(oracle.polyadd(au, bv)) <= 1e-9 * scale


def test_coeffs_are_quaternions_equal_to_the_input():
    cs = [Quaternion(1.0, -2.0, 0.5, 3.0), Quaternion(-0.0, 0.0, 1e-300),
          Quaternion(2.0, 0.0, 0.0, -1e-170), Quaternion(-7.5)]
    a = QPoly(cs + [ZERO, Quaternion(-0.0, 0.0, -0.0)])
    assert all(isinstance(c, Quaternion) for c in a.coeffs)
    assert a.coeffs == tuple(cs)
    assert [a.coeff(i) for i in range(4)] == cs
    assert a.at0() == cs[0] and a.lead() == cs[-1]
    assert QPoly([1.0, 1e-160]).coeffs == (ONE, Quaternion(1e-160))
    assert QPoly([0.0, 0.0]).coeffs == ()


def test_add_and_sub_reject_non_polynomials():
    a = QPoly([1.0, I])
    for bad in (1, 1.0, Quaternion(1.0)):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            bad + a
