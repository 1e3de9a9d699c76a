"""Hard cases for solve_diophantine, judged by forward quantities with
the independent arithmetic of oracle.py: the residual against |c|, the
degree bounds, and the minimal x against a dense solve."""

import pytest

from qctl import I, J, K, QPoly, Unsolvable, pmul, shift, solve_diophantine
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
