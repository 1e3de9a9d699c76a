"""The design path, bit for bit.

place_poles writes its closed loop straight into one block pair array,
tf_left skips the scale by a unit that is 1, and build_c starts its
product chain at the first factor.  Each is compared here with a frozen
reference of the plain composition: the observer forms of c_ach^{-1} a
and of the FIR p joined by a series connection, the fraction scaled by
its _unit, and the chain of mul calls from 1.  Every component must
match in its bits (signed zeros included).
"""

import warnings

import numpy as np
import pytest

from qctl import (ONE, ZERO, I, J, K, IllConditioned, LeftFraction, QPoly,
                  Quaternion, QuatMatrix, RightFraction, StateSpace, build_c,
                  place_poles, right_to_left, tf_left)
from qctl.qmat import _pair_matmul
from qctl.qpoly import (COEFF_TOL, _trim_pair, _unit, _wrap, mul, scale_left,
                        scale_right)
from qctl.sim import _blocks
from qctl.xfer import _annihilator, _from_blocks, _unit_at0

import gen

WORKED = StateSpace(QuatMatrix([[ONE, I], [J, K]]),
                    QuatMatrix([[I], [ZERO]]),
                    QuatMatrix([[ONE, ZERO]]),
                    ZERO)


# -- frozen reference --------------------------------------------------------

def _ref_observer_form(den, num):
    n = max(den.degree(), num.degree(), 0)
    z = np.zeros((n + 1, n + 1, 2), dtype=complex)
    z[:den.degree(), 0] = -den._z[1:]
    z[range(n - 1), range(1, n), 0] = 1.0
    z[n, 0, 0] = 1.0
    b0 = num.at0()
    g = (num - scale_right(den, b0))._z[1:]
    z[:len(g), n] = g
    z[n, n] = complex(b0.w, b0.x), complex(b0.y, b0.z)
    return _from_blocks(z, n)


def _ref_series(s1, s2):
    n1, n = s1.n, s1.n + s2.n
    b1, b2 = _blocks(s1), _blocks(s2)
    k1 = [*range(n1), n]
    z = np.zeros((n + 1, n + 1, 2), dtype=complex)
    z[:n1, k1] = b1[:n1]
    z[n1:, n1:n] = b2[:, :-1]
    z[n1:, k1] = _pair_matmul(b2[:, -1:], b1[-1:])
    return _from_blocks(z, n)


def ref_closed_loop(res):
    a, b = res.plant.den, res.plant.num
    c_ach = _wrap((mul(a, res.p) + mul(b, res.q))._z[:res.c.degree() + 1])
    return _ref_series(_ref_observer_form(*_unit_at0(c_ach, a)),
                       _ref_observer_form(QPoly.one(), res.p))


def ref_left_fraction(den, num, tol=COEFF_TOL):
    den, num, _ = _trim_pair(den, num, tol)
    unit = _unit(den, tol, max(1.0, den.norm_inf()))
    return scale_left(unit, den), scale_left(unit, num)


def ref_build_c(roots):
    c = QPoly.one()
    for r in roots:
        c = mul(c, QPoly([r, -1.0]))
    return c


# -- helpers ----------------------------------------------------------------

def _bits(z):
    return np.ascontiguousarray(z).view(np.int64)


def _same(x, y):
    return x.shape == y.shape and np.array_equal(_bits(x), _bits(y))


def _same_system(s1, s2):
    return (s1.n == s2.n and _same(s1.F._z, s2.F._z)
            and _same(s1.G._z, s2.G._z) and _same(s1.H._z, s2.H._z)
            and _same(np.array(s1.J.components()),
                      np.array(s2.J.components())))


def _plants():
    yield "worked", WORKED, [3.0, 4.0]
    for n in range(1, 13):
        for seed in (1, 2):
            plant = gen.plant_system(gen.rng_for(seed, 100 + n), n)
            rng = gen.rng_for(seed, 200 + n)
            yield f"n{n}-s{seed}-real", plant, gen.spaced_real(rng, n)
            yield (f"n{n}-s{seed}-nonreal", plant,
                   gen.spaced_nonreal(rng, n))


PLANTS = list(_plants())


# -- tests ------------------------------------------------------------------

@pytest.mark.parametrize("label, plant, targets", PLANTS,
                         ids=[p[0] for p in PLANTS])
def test_closed_loop_matches_the_series_of_two_observer_forms(label, plant,
                                                              targets):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = place_poles(plant, targets)
    assert _same_system(res.closed_loop, ref_closed_loop(res))


@pytest.mark.parametrize("label, plant", [p[:2] for p in PLANTS],
                         ids=[p[0] for p in PLANTS])
def test_tf_left_matches_the_unit_scaled_fraction(label, plant):
    frac = tf_left(plant)
    den, num = ref_left_fraction(*_annihilator(plant, 1e-7))
    assert _same(frac.den._z, den._z) and _same(frac.num._z, num._z)


def test_fractions_scale_by_a_unit_of_one_bit_for_bit():
    # den(0) is 1 or -0.0-signed 1: the unit is 1, and every signed zero
    # comes out as the scale by it leaves it
    signed = Quaternion(1.0, -0.0, 0.0, -0.0)
    for d0 in (Quaternion(1.0), signed):
        den = QPoly([d0, Quaternion(-0.0, 0.5, -0.0, 0.0), 0.25 * J])
        num = QPoly([Quaternion(0.0, -0.0, -0.0, 2.0), -0.0 * I + 3.0])
        frac = LeftFraction(den, num)
        ref_den, ref_num = ref_left_fraction(den, num)
        assert _same(frac.den._z, ref_den._z)
        assert _same(frac.num._z, ref_num._z)


def test_large_denominators_take_the_monic_unit():
    # |den| > 1e9 makes den(0) = 1 numerically zero against it: the unit
    # is lead(den)^-1, not 1
    den = QPoly([1.0, 0.5 * I, Quaternion(2e9, 0.0, 1e9, 0.0)])
    num = QPoly([5.0, 7.0 * K])
    frac = LeftFraction(den, num)
    ref_den, ref_num = ref_left_fraction(den, num)
    assert frac.den.at0().norm() < 1e-9 and not frac.num.is_zero()
    assert _same(frac.den._z, ref_den._z)
    assert _same(frac.num._z, ref_num._z)


def test_build_c_matches_the_chain_from_one():
    assert build_c([]) == QPoly.one()
    rng = gen.rng_for(7, 300)
    root_sets = [[3.0], [3.0, 4.0], [Quaternion(2.0, -0.0, 0.0, -0.0)],
                 [Quaternion(-0.0, -2.0, 0.0, -0.0), Quaternion(1.5, 0.0,
                                                                -0.0, 1.0)],
                 gen.spaced_nonreal(rng, 6), gen.spaced_real(rng, 5)]
    for roots in root_sets:
        assert _same(build_c(roots)._z, ref_build_c(roots)._z)


@pytest.mark.parametrize("seed, tols", [(4, (1e-14, 0.0)), (5, (0.0,)),
                                        (9, (0.0,))])
def test_singular_annihilator_solve_raises_ill_conditioned(seed, tols):
    # the common factor of degree k > 0 found in (p, c) leaves a square
    # annihilator system singular to working precision
    n = 20
    plant = gen.plant_system(gen.rng_for(seed, 100 + n), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = place_poles(plant, gen.spaced_nonreal(gen.rng_for(seed,
                                                                200 + n), n))
    a, b = res.plant.den, res.plant.num
    c = _wrap((mul(a, res.p) + mul(b, res.q))._z[:res.c.degree() + 1])
    for tol in tols:
        for call in (lambda: right_to_left(res.p, c, tol),
                     lambda: RightFraction(res.p, c, tol),
                     lambda: LeftFraction(c, res.p, tol)):
            with pytest.raises(IllConditioned, match="annihilator"):
                call()
