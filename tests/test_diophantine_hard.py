"""Hard cases for solve_diophantine, judged by forward quantities with
the independent arithmetic of oracle.py: the residual against |c|, the
degree bounds, and the minimal x against a dense solve."""

import warnings

import numpy as np
import pytest

from qctl import (I, J, K, IllConditioned, LeftFraction, QPoly,
                  RightFraction, Unsolvable, left_to_right, pmul, shift,
                  solve_diophantine, tf_left)
from qctl.qpoly import COEFF_TOL, _left_gcd, _sylvester_matrix
import qctl.qpoly
import gen
import oracle

COPRIME = ([(d, s) for d in (8, 16, 32) for s in range(1, 21)]
           + [(64, s) for s in range(1, 11)])

COMMON = ([(8, 2, s) for s in range(1, 21)]
          + [(16, 4, s) for s in range(1, 21)]
          + [(32, 8, s) for s in range(1, 11)])


@pytest.mark.parametrize("d,seed", COPRIME)
def test_minimal_x_coprime(d, seed):
    rng = gen.rng_for(1000 * d + seed)
    a = gen.rand_poly(rng, d)
    b = gen.rand_poly(rng, d - 1)
    c = gen.rand_poly(rng, 2 * d - 1)
    sol = solve_diophantine(a, b, c, mode="minimal_x")
    A, B, C = (oracle.poly_pair(p) for p in (a, b, c))
    X, Y = oracle.poly_pair(sol.x), oracle.poly_pair(sol.y)
    assert oracle.residual(A, B, C, X, Y) <= 1e-10
    assert sol.x.degree() < b.degree()
    assert sol.y.degree() <= c.degree() - b.degree()
    x_ref, _ = oracle.solve_minimal_x(A, B, C)
    assert oracle.rel_diff(X, x_ref) <= 1e-8


@pytest.mark.parametrize("d,k,seed", COMMON)
def test_minimal_x_common_factor(d, k, seed):
    rng = gen.rng_for(7000 + 100 * d + seed)
    g = gen.rand_poly(rng, k)
    a = pmul(g, gen.rand_poly(rng, d - k))
    b = pmul(g, gen.rand_poly(rng, d - k - 1))
    c = pmul(g, gen.rand_poly(rng, 2 * d - 1 - k))
    sol = solve_diophantine(a, b, c, mode="minimal_x")
    assert sol.g.degree() == k
    A, B, C = (oracle.poly_pair(p) for p in (a, b, c))
    X, Y = oracle.poly_pair(sol.x), oracle.poly_pair(sol.y)
    assert oracle.residual(A, B, C, X, Y) <= 1e-9
    assert sol.x.degree() < b.degree() - k
    with pytest.raises(Unsolvable) as info:
        solve_diophantine(a, b, c + QPoly.one(), mode="minimal_x")
    assert info.value.g.degree() == k


@pytest.mark.parametrize("seed", range(1, 21))
def test_one_side_zero_divisible(seed):
    # g is the nonzero side itself; whether it left-divides c is a
    # least-squares question, not one for a long-division remainder
    rng = gen.rng_for(9000 + seed)
    a = gen.rand_poly(rng, 32)
    c = pmul(a, gen.rand_poly(rng, 31))
    A, C = oracle.poly_pair(a), oracle.poly_pair(c)
    for sol in (solve_diophantine(a, QPoly.zero(), c),
                solve_diophantine(QPoly.zero(), a, c, mode="minimal_x")):
        assert sol.g.degree() == 32
        X, Y = oracle.poly_pair(sol.x), oracle.poly_pair(sol.y)
        assert oracle.residual(A, A, C, X, Y) <= 1e-9


@pytest.mark.parametrize("d,seed", [(d, s) for d in (16, 32, 64)
                                    for s in range(1, 4)])
def test_particular_coprime(d, seed):
    # x = p c with a p + b q = 1 and deg p < deg x_step, so deg x stays
    # below deg x_step + deg c
    rng = gen.rng_for(1000 * d + seed)
    a = gen.rand_poly(rng, d)
    b = gen.rand_poly(rng, d - 1)
    c = gen.rand_poly(rng, 2 * d - 1)
    sol = solve_diophantine(a, b, c, mode="particular")
    A, B, C = (oracle.poly_pair(p) for p in (a, b, c))
    X, Y = oracle.poly_pair(sol.x), oracle.poly_pair(sol.y)
    assert oracle.residual(A, B, C, X, Y) <= 1e-8
    assert sol.g.degree() == 0
    assert sol.x_step.degree() == b.degree()
    assert sol.x.degree() < sol.x_step.degree() + c.degree()
    kernel = oracle.polyadd(oracle.polymul(A, oracle.poly_pair(sol.x_step)),
                            oracle.polymul(B, oracle.poly_pair(sol.y_step)))
    assert oracle.coeff_norm_max(kernel) <= 1e-8 * max(
        1.0, oracle.coeff_norm_max(oracle.polymul(
            A, oracle.poly_pair(sol.x_step))))


def _check_shared_factor(a, b, c, g):
    """Every mode solves a x + b y = c and returns the monic g, where g is
    the exact common left factor of a, b and c."""
    A, B, C = (oracle.poly_pair(p) for p in (a, b, c))
    misses = []
    for mode in ("particular", "minimal_x", "minimal_y"):
        sol = solve_diophantine(a, b, c, mode=mode)
        X, Y = oracle.poly_pair(sol.x), oracle.poly_pair(sol.y)
        # sol.g times the lead of g is g itself
        g_back = oracle.polymul(oracle.poly_pair(sol.g),
                                oracle.poly_pair(QPoly([g.lead()])))
        resid = oracle.residual(A, B, C, X, Y)
        g_err = oracle.rel_diff(g_back, oracle.poly_pair(g))
        if not (resid <= 1e-9 and g_err <= 1e-8):
            misses.append((mode, resid, g_err))
    return misses


D = QPoly([0.0, 1.0])


@pytest.mark.parametrize("g,a1,b1,c1", [
    # b(0) = 0 leaves Sylvester rows that hold rounding noise alone;
    # scaled to unit norm, that noise had made g = d - 0.703 i - 0.041 j
    (QPoly([1.0, I]), QPoly([1.0, J]), D, QPoly([2.0, K, 1.0])),
    # a(0) = b(0) = 0 leaves an exactly zero row
    (D, QPoly([1.0, J]), QPoly([2.0, I]), QPoly([1.0, K, 3.0])),
], ids=["noise-rows", "zero-row"])
def test_shared_factor_with_b_vanishing_at_zero(g, a1, b1, c1):
    assert not _check_shared_factor(pmul(g, a1), pmul(g, b1), pmul(g, c1), g)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_factor_with_b_vanishing_at_zero_seeded(k):
    misses = []
    for seed in range(1, 41):
        rng = gen.rng_for(seed, 980 + k)
        g = gen.rand_poly(rng, k)
        a = pmul(g, gen.rand_poly(rng, 3))
        b = pmul(g, shift(gen.rand_poly(rng, 2), 1))
        c = pmul(g, gen.rand_poly(rng, 6))
        try:
            misses += [(seed, m) for m in _check_shared_factor(a, b, c, g)]
        except Unsolvable as exc:
            misses.append((seed, str(exc)))
    assert not misses


def _linear(q):
    return QPoly([-q, 1.0])


# Exact common left factors with small integer coefficients: the
# Sylvester matrix is singular, and its LU either meets an exact zero
# pivot (LinAlgError inside the kernel) or an inverse of about 1e16.
# k is the degree of the planted common factor.
SINGULAR = [
    (pmul(_linear(I), _linear(2.0)), _linear(I), 1),
    (pmul(_linear(1.0), _linear(2.0)), _linear(1.0), 1),
    (pmul(_linear(I), _linear(2.0)), pmul(_linear(I), _linear(-1.0)), 1),
    (pmul(D, _linear(2.0)), D, 1),
    (pmul(D, _linear(2.0)), pmul(D, _linear(-I)), 1),
    (pmul(_linear(2.0), _linear(I)), _linear(2.0), 1),
    (pmul(pmul(_linear(J), _linear(I)), _linear(2.0)),
     pmul(_linear(J), _linear(I)), 2),
    (pmul(pmul(_linear(1.0), _linear(1.0)), pmul(_linear(1.0), _linear(2.0))),
     pmul(pmul(_linear(1.0), _linear(1.0)), _linear(1.0)), 3),
]


@pytest.mark.parametrize("a,b,k", SINGULAR,
                         ids=[f"case{i}" for i in range(len(SINGULAR))])
def test_exactly_singular_sylvester_falls_back(a, b, k):
    c = pmul(b, _linear(3.0 * J))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for mode in ("particular", "minimal_x", "minimal_y"):
            assert solve_diophantine(a, b, c, mode=mode).g.degree() == k
        frac = LeftFraction(a, b)
        b_r, a_r = left_to_right(a, b)
    assert (frac.den.degree(), frac.num.degree()) == (a.degree() - k,
                                                      b.degree() - k)
    assert (b_r.degree(), a_r.degree()) == (b.degree() - k, a.degree() - k)


@pytest.mark.parametrize("eps", [1e-160, 1e-300])
def test_inverse_too_large_to_square_falls_back(eps):
    # d - eps and d share d to within eps; the LU inverse holds entries
    # of about 1 / eps, whose squares overflow
    a = _linear(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _left_gcd(a, D, COEFF_TOL, solve=False)[0] == 1
        b_r, a_r = left_to_right(a, D)
        b_r3, a_r3 = left_to_right(pmul(a, _linear(2.0 * J)),
                                   pmul(D, _linear(I)))
    assert (b_r.degree(), a_r.degree()) == (0, 0)
    assert (b_r3.degree(), a_r3.degree()) == (1, 1)


def _rule_k(f, s, tol=COEFF_TOL):
    """k by the singular-value rule on _left_gcd's equilibrated matrix."""
    n, m = f.degree(), s.degree()
    rows = n + m + 1
    M, _, _ = _sylvester_matrix([(f, m), (s, rows - m)], rows)
    sv = np.linalg.svd(M, compute_uv=False)
    return min(int((sv <= tol * sv[0]).sum()) // 2, n, m)


def _sweep():
    """(f, s, planted) over coprime, common and near-common pairs;
    planted is None for coprime pairs, else (deg g, relative shift)."""
    for d in range(1, 33):
        rng = gen.rng_for(d, 991)
        yield gen.rand_poly(rng, d), gen.rand_poly(rng, d), None
        if d > 1:
            yield gen.rand_poly(rng, d), gen.rand_poly(rng, d - 1), None
    for k in range(1, 5):
        for seed in range(1, 6):
            rng = gen.rng_for(seed, 992 + k)
            g = gen.rand_poly(rng, k)
            f1, s1 = gen.rand_poly(rng, 4), gen.rand_poly(rng, 3)
            yield pmul(g, f1), pmul(g, s1), (k, 0.0)
            for eps in (1e-7, 1e-9, 1e-11):
                # move every coefficient of g in s's factor by eps |g|
                step = QPoly([gen.rand_unit_quat(rng) for _ in range(k + 1)])
                g_near = g + QPoly([eps * g.norm_inf() * q
                                    for q in step.coeffs])
                yield pmul(g, f1), pmul(g_near, s1), (k, eps)


def test_certificate_decides_as_singular_values():
    misses, near_k = [], set()
    for f, s, planted in _sweep():
        want = _rule_k(f, s)
        got = (_left_gcd(f, s, COEFF_TOL, solve=False)[0],
               _left_gcd(f, s, COEFF_TOL, [QPoly.one()])[0])
        if got != (want, want):
            misses.append((f.degree(), s.degree(), planted, want, got))
        if planted and planted[1]:
            near_k.add(want > 0)
    assert not misses
    # the perturbations straddle the cut: some read coprime, some not
    assert near_k == {False, True}


def test_coprime_decisions_skip_singular_values(monkeypatch):
    rng = gen.rng_for(1, 993)
    a, b = gen.rand_poly(rng, 32), gen.rand_poly(rng, 31)
    c = gen.rand_poly(rng, 63)
    ss = gen.rand_system(gen.rng_for(2, 993), 4)
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    sol = solve_diophantine(a, b, c, mode="minimal_x")
    frac = tf_left(ss)
    assert not calls
    assert sol.g.degree() == 0 and frac.den.degree() == 4
    a, b, k = SINGULAR[0]
    assert solve_diophantine(a, b, b, mode="minimal_x").g.degree() == k
    assert calls


def _common_pair(d, k, seed):
    """(a, b) = (g a1, g b1) of degrees d and d - 1 sharing the exact
    left factor g of degree k."""
    rng = gen.rng_for(600 + d, seed)
    g = gen.rand_poly(rng, k)
    return (pmul(g, gen.rand_poly(rng, d - k)),
            pmul(g, gen.rand_poly(rng, d - k - 1)))


def _count(monkeypatch, owner, name):
    """Record the first argument of every call of owner.name."""
    fn, firsts = getattr(owner, name), []

    def counted(first, *args, **kwargs):
        firsts.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return firsts


@pytest.mark.parametrize("d,k", [(8, 4), (16, 4), (32, 8)])
def test_left_fraction_reads_the_reduced_pair_off_the_decision(
        monkeypatch, d, k):
    # the decision, the reduced solve, the annihilator and g: no
    # quotient solves after them, and lstsq only on the two tall systems
    pairs = [_common_pair(d, k, seed) for seed in range(3)]
    solves = _count(monkeypatch, qctl.qpoly, "_sylvester_solve")
    lstsq = _count(monkeypatch, np.linalg, "lstsq")
    for a, b in pairs:
        del solves[:], lstsq[:]
        frac = LeftFraction(a, b)
        assert (frac.den.degree(), frac.num.degree()) == (d - k, d - k - 1)
        assert (len(solves), len(lstsq)) == (4, 2)
        assert all(M.shape[0] > M.shape[1] for M in lstsq)


@pytest.mark.parametrize("d,k", [(8, 4), (16, 4), (32, 8)])
def test_shared_factor_runs_no_square_lstsq(monkeypatch, d, k):
    a, b = _common_pair(d, k, 1)
    c = pmul(a, gen.rand_poly(gen.rng_for(d, 994), d - 1))
    lstsq = _count(monkeypatch, np.linalg, "lstsq")
    sol = solve_diophantine(a, b, c, mode="minimal_x")
    b_r, a_r = left_to_right(a, b)
    assert sol.g.degree() == k
    assert (b_r.degree(), a_r.degree()) == (d - k - 1, d - k)
    assert lstsq and all(M.shape[0] != M.shape[1] for M in lstsq)


def _miss(poly, product):
    """The largest coefficient of poly - product relative to poly."""
    return (poly - product).norm_inf() / poly.norm_inf()


@pytest.mark.parametrize("k", range(1, 9))
def test_user_fractions_cancel_exact_common_factors(k):
    for seed in range(1, 4):
        rng = gen.rng_for(seed, 995 + k)
        g = gen.rand_poly(rng, k)
        a1, b1 = gen.rand_poly(rng, 4), gen.rand_poly(rng, 3)
        a, b = pmul(g, a1), pmul(g, b1)
        left = LeftFraction(a, b)
        assert (left.den.degree(), left.num.degree()) == (4, 3), (k, seed)
        # a = G den and b = G num with G = g u, u fixed by den(0) = 1
        G = pmul(g, QPoly([g.at0().inverse() * a.at0()]))
        assert _miss(a, pmul(G, left.den)) <= 1e-9
        assert _miss(b, pmul(G, left.num)) <= 1e-9
        # the right fraction of the conjugates: a' = den G', b' = num G'
        ca, cb, cg = a.conjugate(), b.conjugate(), g.conjugate()
        right = RightFraction(cb, ca)
        assert (right.den.degree(), right.num.degree()) == (4, 3), (k, seed)
        unit = right.den.lead().inverse() * ca.lead() * cg.lead().inverse()
        G = pmul(QPoly([unit]), cg)
        assert _miss(ca, pmul(right.den, G)) <= 1e-9
        assert _miss(cb, pmul(right.num, G)) <= 1e-9


def test_decision_below_the_rank_floor(monkeypatch):
    # at tol = 1e-20 the singular values are counted against
    # 2 rows eps, so the exact factor is found and the rank-deficient
    # square matrix is never solved
    a, b = _common_pair(8, 4, 2)
    lstsq = _count(monkeypatch, np.linalg, "lstsq")
    k, g, _, _, (a1, b1, resid) = _left_gcd(a, b, 1e-20, [QPoly.one()])
    b_r, a_r = left_to_right(a, b, tol=1e-20)
    assert k == g.degree() == 4 and resid <= 1e-12
    assert (a1.degree(), b1.degree()) == (4, 3)
    assert (b_r.degree(), a_r.degree()) == (3, 4)
    assert all(M.shape[0] != M.shape[1] for M in lstsq)


@pytest.mark.parametrize("p", [10, 12, 14])
def test_ill_conditioned_system_of_a_coprime_pair_is_solved(p):
    # a = 1 and b = 10 - d are coprime and x = c(10) = 1 + 10^p: the
    # square system has condition about 10^p, so singular values fall
    # below tol, but deg a = 0 admits no common factor and the LU
    # solution, of full rank to working precision, is kept
    c = QPoly([1.0] + [0.0] * (p - 1) + [1.0])
    sol = solve_diophantine(QPoly.one(), QPoly([10.0, -1.0]), c, "minimal_x")
    assert sol.x.degree() == 0
    assert abs(sol.x.coeffs[0] - (1.0 + 10.0 ** p)) <= 1e-12 * 10.0 ** p


def test_singular_system_of_a_coprime_pair_raises():
    # as above with x = 1 + 1e40: the square system is singular to
    # working precision and has no solution to return (a least-squares
    # one misses c by 5)
    c = QPoly([1.0] + [0.0] * 39 + [1.0])
    with pytest.raises(IllConditioned):
        solve_diophantine(QPoly.one(), QPoly([10.0, -1.0]), c, "minimal_x")
