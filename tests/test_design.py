import importlib
import warnings

import pytest

from qctl import (ONE, ZERO, I, J, K, DegenerateKernel, IllPosed,
                  LeftFraction, NonCausalController, QPoly, Quaternion,
                  QuatMatrix, SimilarityClass, StateSpace, Unsolvable,
                  ZeroDivisor, ZeroRoot, build_c, closed_loop_response_tfs,
                  fraction_equal, markov, place_poles, pmul, realize,
                  right_eigenvalues, right_zeros, series,
                  solve_diophantine, tf_left)
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
    assert any("non-decaying" in str(w.message) for w in caught)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = place_poles(PLANT, [0.5, 4.0])
    assert not res.stable
    assert res.warnings


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
