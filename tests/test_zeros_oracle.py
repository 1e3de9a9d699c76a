"""right_zeros judged by forward quantities with the complex-pair
arithmetic of oracle.py, which shares no code with qctl: the relative
residual of every reported zero, the zero count with multiplicity, and
the classes of planted factors.

Products of real linear factors are left out: right_zeros splits every
real zero (README, fault 2).  So are psi times a random polynomial of
degree 17 or more: np.roots places the double root pair of conj(a) a
only to about 5e-8, and the remainder modulo that psi then exceeds the
spherical test's tolerance (CHANGES.md FOUND).  Zeros of higher
multiplicity at 0 lose their multiplicity (ROADMAP item 2), so the
origin case is d b."""

import numpy as np
import pytest

from qctl import QPoly, Quaternion, right_zeros
import gen
import oracle

RESIDUAL_TOL = 1e-8
CLASS_TOL = 1e-6


def _qpoly(p):
    return QPoly([Quaternion(a.real, a.imag, b.real, b.imag)
                  for a, b in zip(*p)])


def _rand_pair(rng, deg):
    return oracle.poly_pair(gen.rand_poly(rng, deg))


def _check(p, report):
    """Relative residual of each zero (a spherical class at its
    representative re + im i) and the count with multiplicity."""
    points = [(complex(z.w, z.x), complex(z.y, z.z))
              for z, _ in report.isolated]
    points += [(complex(cl.re, cl.im_norm), 0j) for cl in report.spherical]
    for z in points:
        resid, scale = oracle.eval_right(p, z)
        assert resid <= RESIDUAL_TOL * max(1.0, scale)
    count = len(report.isolated) + 2 * len(report.spherical)
    assert count == len(p[0]) - 1


def _classes(report):
    return sorted([(cl.re, cl.im_norm) for _, cl in report.isolated]
                  + [(cl.re, cl.im_norm) for cl in report.spherical])


@pytest.mark.parametrize("deg", range(1, 65))
def test_random_polynomials(deg):
    p = _rand_pair(gen.rng_for(9000 + deg), deg)
    _check(p, right_zeros(_qpoly(p)))


@pytest.mark.parametrize("deg", [4, 8, 12])
@pytest.mark.parametrize("seed", range(5))
def test_products_of_spaced_nonreal_factors(deg, seed):
    rng = gen.rng_for(9100 + 10 * deg + seed)
    zeros = []
    for i in range(deg):
        # norms at least 0.15 apart, off the real axis by 0.4 rad or more
        r = 1.2 + 0.3 * i + 0.15 * rng.random()
        th = 0.4 + 2.2 * rng.random()
        u = rng.normal(size=3)
        u *= r * np.sin(th) / np.linalg.norm(u)
        zeros.append((complex(r * np.cos(th), u[0]), complex(u[1], u[2])))
    p = oracle.linear_product(zeros)
    report = right_zeros(_qpoly(p))
    _check(p, report)
    assert not report.spherical
    want = sorted((z[0].real, float(np.sqrt(z[0].imag ** 2 + abs(z[1]) ** 2)))
                  for z in zeros)
    for got, ref in zip(_classes(report), want):
        assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= CLASS_TOL


@pytest.mark.parametrize("deg", range(0, 17))
def test_psi_times_random_is_spherical(deg):
    rng = gen.rng_for(9200 + deg)
    re, im = 3.0 * rng.random() - 1.5, 0.3 + 1.5 * rng.random()
    p1, p0 = -2.0 * re, re * re + im * im
    psi = (np.array([p0, p1, 1.0], dtype=complex), np.zeros(3, complex))
    p = oracle.polymul(psi, _rand_pair(rng, deg))
    report = right_zeros(_qpoly(p))
    _check(p, report)
    scale = np.max(np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2))
    planted = [cl for cl in report.spherical
               if abs(cl.re - re) <= CLASS_TOL and abs(cl.im_norm - im)
               <= CLASS_TOL]
    assert len(planted) == 1
    cl = planted[0]
    r = oracle.rem_real_quadratic(p, -2.0 * cl.re, cl.re ** 2 + cl.im_norm ** 2)
    assert oracle.coeff_norm_max(r) <= RESIDUAL_TOL * scale


@pytest.mark.parametrize("deg", [0, 3, 10, 25])
def test_zero_at_origin(deg):
    # d b: the class of 0 is real and its only member is 0
    b = _rand_pair(gen.rng_for(9300 + deg), deg)
    p = (np.concatenate([[0j], b[0]]), np.concatenate([[0j], b[1]]))
    report = right_zeros(_qpoly(p))
    _check(p, report)
    assert any(z.norm() == 0.0 for z, _ in report.isolated)
