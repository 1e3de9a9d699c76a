import importlib
import warnings

import numpy as np
import pytest

from qctl import (ONE, ZERO, I, J, K, DegenerateKernel, IllConditioned,
                  IllPosed, LeftFraction, NonCausalController, QPoly,
                  Quaternion, QuatMatrix, RightFraction, SimilarityClass,
                  StateSpace, Unsolvable, ZeroDivisor, ZeroRoot, build_c,
                  closed_loop_response_tfs, fraction_equal, is_stable,
                  markov, place_poles, pmul, realize, right_eigenvalues,
                  right_zeros, series, solve_diophantine, tf_left,
                  tf_right)
from qctl.xfer import as_left_fraction
import gen

PLANT = StateSpace(QuatMatrix([[ONE, I], [J, K]]),
                   QuatMatrix([[I], [ZERO]]),
                   QuatMatrix([[ONE, ZERO]]),
                   ZERO)


def _residual(a, b, c, sol):
    return (pmul(a, sol.x) + pmul(b, sol.y) - c).norm_inf()


def test_solve_particular_and_shift():
    rng = gen.rng_for(41)
    a = gen.rand_poly(rng, 2)
    b = gen.rand_poly(rng, 2)
    c = gen.rand_poly(rng, 3)
    sol = solve_diophantine(a, b, c)
    assert sol.mode == "particular"
    assert _residual(a, b, c, sol) <= 1e-9 * max(
        1.0, a.norm_inf() * max(1.0, sol.x.norm_inf()),
        b.norm_inf() * max(1.0, sol.y.norm_inf()))
    # kernel steps really are a kernel element
    ker = pmul(a, sol.x_step) + pmul(b, sol.y_step)
    assert ker.norm_inf() <= 1e-9 * max(1.0, a.norm_inf()
                                        * sol.x_step.norm_inf())
    xs, ys = sol.shifted(QPoly([I, 1.0]))
    assert (pmul(a, xs) + pmul(b, ys) - c).norm_inf() <= 1e-7 * max(
        1.0, a.norm_inf() * xs.norm_inf())


def test_solve_minimal_modes_degree_bounds():
    rng = gen.rng_for(42)
    for _ in range(20):
        a = gen.rand_poly(rng, int(rng.integers(1, 4)))
        b = gen.rand_poly(rng, int(rng.integers(1, 4)))
        c = gen.rand_poly(rng, int(rng.integers(0, 5)))
        mx = solve_diophantine(a, b, c, mode="minimal_x")
        assert mx.x.degree() < mx.x_step.degree()
        assert _residual(a, b, c, mx) <= 1e-7 * max(
            1.0, a.norm_inf() * max(1.0, mx.x.norm_inf()),
            b.norm_inf() * max(1.0, mx.y.norm_inf()))
        my = solve_diophantine(a, b, c, mode="minimal_y")
        assert my.y.degree() < my.y_step.degree()
        assert _residual(a, b, c, my) <= 1e-7 * max(
            1.0, a.norm_inf() * max(1.0, my.x.norm_inf()),
            b.norm_inf() * max(1.0, my.y.norm_inf()))


def test_solve_unknown_mode_rejected():
    a = QPoly([1.0, I])
    with pytest.raises(ValueError):
        solve_diophantine(a, a, a, mode="fastest")


def test_unsolvable_carries_divisor_and_remainder():
    g = QPoly([1.0, I])
    a = pmul(g, QPoly([J, 1.0]))
    b = pmul(g, QPoly([1.0, K]))
    c = QPoly([0.5])
    try:
        solve_diophantine(a, b, c)
    except Unsolvable as exc:
        assert exc.g.degree() == 1
        assert not exc.remainder.is_zero()
    else:
        pytest.fail("expected Unsolvable")


def test_zero_numerator_side():
    a = QPoly([1.0, I, J])
    c = pmul(a, QPoly([K, 1.0]))
    sol = solve_diophantine(a, QPoly.zero(), c)
    assert _residual(a, QPoly.zero(), c, sol) <= 1e-9 * max(
        1.0, a.norm_inf() * sol.x.norm_inf())
    with pytest.raises(DegenerateKernel):
        solve_diophantine(a, QPoly.zero(), c, mode="minimal_x")


def test_solve_numerically_zero_side_raises_zero_divisor():
    # with tol = 0 nothing is trimmed, so a is nonzero but its lead
    # cannot be inverted to make g monic
    with pytest.raises(ZeroDivisor):
        solve_diophantine(QPoly([0.0, 1e-13]), QPoly.zero(), QPoly([1.0]),
                          tol=0.0)


def test_solve_keeps_huge_coefficients():
    # norms above ~1.3e154 once overflowed and trimmed x and y to zero
    sol = solve_diophantine(QPoly([1.0]), QPoly([0.0, 1.0]),
                            QPoly([1e200, 2e200]), mode="minimal_x")
    assert sol.x == QPoly([1e200]) and sol.y == QPoly([2e200])


def test_build_c_product_and_validation():
    c = build_c([3.0, 4.0])
    assert (c - QPoly([12.0, -7.0, 1.0])).norm_inf() <= 1e-12
    c = build_c([Quaternion(0.0, 2.0, 0.0, 0.0)])
    assert (c - QPoly([Quaternion(0.0, 2.0, 0.0, 0.0),
                       Quaternion(-1.0)])).norm_inf() <= 1e-12
    with pytest.raises(ZeroRoot):
        build_c([3.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_c([0.5, 3.0])
    # one warning for the one root inside the unit circle
    assert [str(w.message) for w in caught] == [
        "root with norm 0.5 <= 1 yields a non-decaying closed-loop mode"]


def test_build_c_is_the_ordered_mul_chain():
    rng = gen.rng_for(58)
    for count in range(1, 17):
        roots = gen.spaced_nonreal(rng, count)
        roots[::3] = gen.spaced_real(rng, len(roots[::3]))
        want = QPoly.one()
        for z in roots:
            want = pmul(want, QPoly([z, Quaternion(-1.0)]))
        assert build_c(roots) == want


def test_place_poles_reference_design():
    res = place_poles(PLANT, [3.0, 4.0])
    assert res.stable
    assert res.closed_loop.n == 3
    assert res.controller.kind == "right"
    # p(0) = c(0) because the plant is strictly proper and a(0) = 1
    assert (res.p.at0() - Quaternion(12.0)).norm() <= 1e-9
    assert res.p.degree() == 1 and res.q.degree() == 1
    report = right_zeros(res.t_w.den)
    res_zeros = sorted(cls.re for _, cls in report.isolated)
    assert abs(res_zeros[0] - 3.0) <= 1e-6
    assert abs(res_zeros[1] - 4.0) <= 1e-6
    # response to reference and to disturbance share the denominator
    assert (res.t_v.den - res.t_w.den).norm_inf() <= 1e-12
    ident = pmul(res.plant.den, res.p) + pmul(res.plant.num, res.q) - res.c
    assert ident.norm_inf() <= 1e-8


def test_place_poles_accepts_numpy_integer_targets():
    want = place_poles(PLANT, [3, 4])
    got = place_poles(PLANT, np.array([3, 4]))
    assert got.p == want.p and got.q == want.q
    assert got.stable is want.stable is True


def test_right_zeros_never_reports_more_zeros_than_the_degree():
    # the closed-loop denominators of qctl design with real targets: a
    # degree-4 polynomial has at most 4 zeros, a sphere counting twice
    for seed in range(20):
        ss = gen.rand_system(gen.rng_for(seed), 4)
        res = place_poles(StateSpace(ss.F, ss.G, ss.H, ZERO),
                          [1.5, 2.1, 2.7, 3.3], 1e-9)
        den = res.t_w.den
        try:
            report = right_zeros(den, 1e-9)
        except IllConditioned:
            continue
        count = len(report.isolated) + 2 * len(report.spherical)
        assert count <= den.degree(), seed


def test_place_poles_accepts_fraction_and_polynomial_target():
    lf = tf_left(PLANT)
    res = place_poles(lf, QPoly([12.0, -7.0, 1.0]))
    assert res.stable
    res2 = place_poles(PLANT, [3.0, 4.0])
    assert fraction_equal(res.t_w, res2.t_w, 1e-8)


@pytest.mark.parametrize("n, seeds", [(4, range(1, 21)), (8, range(1, 11))])
def test_place_poles_real_targets(n, seeds):
    # spaced real targets: the design must not fail in its verdict
    targets = [1.5 + 0.6 * i for i in range(n)]
    for seed in seeds:
        s = gen.rand_system(gen.rng_for(seed), n)
        res = place_poles(StateSpace(s.F, s.G, s.H, ZERO), targets)
        assert res.stable, seed
        modes = [cls for cls in right_eigenvalues(res.closed_loop.F)
                 if cls.norm() > 1e-3]
        assert len(modes) == n, seed
        for t in targets:
            want = SimilarityClass(1.0 / t, 0.0)
            assert any(cls.matches(want, 1e-6) for cls in modes), (seed, t)


def test_place_poles_marks_unstable_targets():
    res = place_poles(PLANT, [0.5, 4.0])
    assert not res.stable
    assert res.warnings == [
        "root with norm 0.5 <= 1 yields a non-decaying closed-loop mode"]
    # norm 1 and norm 1 + tol are on the circle; a polynomial target has
    # no roots to note
    res = place_poles(PLANT, [Quaternion(0.0, 0.6, 0.0, 0.8), 1.0 + 1e-9,
                              4.0])
    assert res.warnings == [
        "root with norm 1 <= 1 yields a non-decaying closed-loop mode"] * 2
    assert place_poles(PLANT, QPoly([12.0, -7.0, 1.0])).warnings == []


def test_place_poles_noncausal_controller():
    with pytest.raises(NonCausalController):
        place_poles(PLANT, QPoly([0.0, 1.0]))


def test_place_poles_ill_posed_target():
    with pytest.raises(IllPosed):
        place_poles(PLANT, QPoly.zero())


def test_closed_loop_response_tfs_match_design():
    res = place_poles(PLANT, [3.0, 4.0])
    t_v, t_w = closed_loop_response_tfs(res.plant, res.p, res.q)
    assert fraction_equal(t_w, res.t_w, 1e-8)
    assert fraction_equal(t_v, res.t_v, 1e-8)
    with pytest.raises(IllPosed):
        closed_loop_response_tfs(res.plant, QPoly.zero(), QPoly.zero())


def test_place_poles_runs_no_fraction_conversion(monkeypatch):
    def conversion(*args, **kwargs):
        raise AssertionError("fraction conversion called")

    for module in ("qctl.design", "qctl.xfer"):
        mod = importlib.import_module(module)
        for name in ("right_to_left", "left_to_right",
                     "closed_loop_response_tfs"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, conversion)
    res = place_poles(PLANT, [3.0, 4.0])
    assert res.stable and res.closed_loop.n == 3
    assert realize(res.controller).n == 1
    with pytest.raises(AssertionError, match="fraction conversion"):
        res.t_w


def _count_left_gcd(monkeypatch):
    """Count the Sylvester coprimeness decisions in every module that
    binds _left_gcd."""
    decide, calls = importlib.import_module("qctl.qpoly")._left_gcd, []

    def counted(*args, **kwargs):
        calls.append(1)
        return decide(*args, **kwargs)

    for module in ("qctl.qpoly", "qctl.xfer", "qctl.design"):
        mod = importlib.import_module(module)
        if hasattr(mod, "_left_gcd"):
            monkeypatch.setattr(mod, "_left_gcd", counted)
    return calls


def test_a_design_makes_one_coprimeness_decision(monkeypatch):
    calls = _count_left_gcd(monkeypatch)
    ss = gen.plant_system(gen.rng_for(1, 108), 8)
    for fn in (tf_left, tf_right):
        fn(ss)
        fn(PLANT)
    assert not calls
    res = place_poles(PLANT, [3.0, 4.0])
    assert len(calls) == 1
    ctrl = res.controller
    assert len(calls) == 2 and ctrl.kind == "right"
    assert res.controller is ctrl and len(calls) == 2


def test_right_to_left_conversion_makes_one_decision(monkeypatch):
    # the converted pair is the kernel pair, coprime and normalized, so
    # the left fraction is not decided a second time
    plants = [tf_right(gen.plant_system(gen.rng_for(seed, 109), n))
              for seed, n in ((1, 2), (2, 8))]
    plants.append(RightFraction(pmul(QPoly([1.0, I]), QPoly([2.0, J])),
                                pmul(QPoly([1.0, K, 0.5]), QPoly([2.0, J]))))
    calls = _count_left_gcd(monkeypatch)
    for plant in plants:
        del calls[:]
        frac = as_left_fraction(plant)
        assert len(calls) == 1
        assert (frac.den.degree(), frac.num.degree()) == (plant.den.degree(),
                                                          plant.num.degree())
        assert (frac.den.at0() - ONE).norm() <= 1e-12
        assert fraction_equal(frac, plant)


@pytest.mark.parametrize("gap", [1e-7, 1e-6, 1e-5, 1e-4])
def test_design_verdict_agrees_with_is_stable(gap):
    # a double real target just outside 1 + tol: the design's verdict on
    # its closed loop and is_stable of its own target c are one rule
    r = 1.0 + 1e-9 + gap
    res = place_poles(gen.plant_system(gen.rng_for(1, 102), 2), [r, r])
    assert res.stable
    assert is_stable(res.c) == res.stable
