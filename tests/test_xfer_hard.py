"""tf_left and tf_right on n-state plants and on non-minimal block
systems, judged by degree and by Markov parameters from the
complex-pair arithmetic of oracle.py.

Plants are those of the benchmark's design workload, drawn from the
stream 100 + n of seeds 1-10.  Their Markov parameters decay or grow
with the powers of F, so the rows H F^k that decide the degree span
many decades once n reaches 16.
"""

import numpy as np
import pytest

from qctl import (AnnihilatorNotFound, LeftFraction, QPoly, Quaternion,
                  QuatMatrix, RightFraction, StateSpace, complex_adjoint,
                  fraction_equal, markov, place_poles, pmul, realize, series,
                  shift, tf_left, tf_right, xfer)
import gen
import oracle

SEEDS = range(1, 11)
MARKOV_TOL = 1e-10


def _markov_err(ss, frac):
    count = 3 * ss.n + 3
    return oracle.seq_rel_err(series(frac, count),
                              oracle.markov(oracle.system_pair(ss), count))


@pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 20, 24])
def test_fractions_of_plants_have_degree_n_and_match_markov(n):
    misses = []
    for seed in SEEDS:
        ss = gen.plant_system(gen.rng_for(seed, 100 + n), n)
        for fn in (tf_left, tf_right):
            frac = fn(ss)
            err = _markov_err(ss, frac)
            if frac.den.degree() != n or not err <= MARKOV_TOL:
                misses.append((seed, fn.__name__, frac.den.degree(), err))
    assert not misses


def _blocks(rows, cols):
    """The quaternion matrix of a grid of QuatMatrix blocks."""
    out = []
    for row in rows:
        for i in range(row[0].rows):
            out.append([q for blk in row for q in blk.data[i]])
    return QuatMatrix(out, cols=cols)


def _non_minimal(n, k, seed, observable):
    """An (n + k)-state system whose transfer function is that of an
    n-state plant: k extra states that the input never reaches
    (observable=True) or that the output never sees (False)."""
    p = gen.plant_system(gen.rng_for(seed, 100 + n), n)
    rng = gen.rng_for(seed, 900 + n)
    F2 = gen.rand_matrix(rng, k, k, 0.5)
    coupling = gen.rand_matrix(rng, n, k) if observable \
        else gen.rand_matrix(rng, k, n)
    if observable:
        F = _blocks([[p.F, coupling], [QuatMatrix.zeros(k, n), F2]], n + k)
        G = _blocks([[p.G], [QuatMatrix.zeros(k, 1)]], 1)
        H = _blocks([[p.H, gen.rand_matrix(rng, 1, k)]], n + k)
    else:
        F = _blocks([[p.F, QuatMatrix.zeros(n, k)], [coupling, F2]], n + k)
        G = _blocks([[p.G], [gen.rand_matrix(rng, k, 1)]], 1)
        H = _blocks([[p.H, QuatMatrix.zeros(1, k)]], n + k)
    return StateSpace(F, G, H, p.J)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (8, 4)])
@pytest.mark.parametrize("observable", [True, False],
                         ids=["uncontrollable", "unobservable"])
def test_non_minimal_systems_reduce_to_degree_n(n, k, observable):
    misses = []
    for seed in SEEDS:
        ss = _non_minimal(n, k, seed, observable)
        for fn in (tf_left, tf_right):
            frac = fn(ss)
            err = _markov_err(ss, frac)
            if frac.den.degree() != n or not err <= MARKOV_TOL:
                misses.append((seed, fn.__name__, frac.den.degree(), err))
    assert not misses


def test_systems_without_dynamics_give_the_direct_term():
    rng = gen.rng_for(77)
    J = gen.rand_quat(rng)
    p = gen.rand_system(rng, 3)
    systems = [
        StateSpace(QuatMatrix([], cols=0), QuatMatrix([], cols=1),
                   QuatMatrix([[]], cols=0), J),
        StateSpace(p.F, QuatMatrix.zeros(3, 1), p.H, J),
        StateSpace(p.F, p.G, QuatMatrix.zeros(1, 3), J),
    ]
    for ss in systems:
        assert markov(ss, 4)[1:] == [Quaternion()] * 3
        for fn in (tf_left, tf_right):
            frac = fn(ss)
            assert frac.den == QPoly.one() and frac.num == QPoly([J])


def test_unreachable_tolerance_raises():
    ss = gen.plant_system(gen.rng_for(1, 104), 4)
    for fn in (tf_left, tf_right):
        with pytest.raises(AnnihilatorNotFound, match="up to degree 4"):
            fn(ss, 1e-300)


@pytest.mark.parametrize("kg,kd", [(4, 12), (8, 16)])
def test_user_built_fractions_cancel_an_exact_common_factor(kg, kd):
    # a degree-kg factor shared on the left (right) of a coprime pair of
    # degree kd; the reduced fraction must be that pair up to a unit
    misses = []
    for seed in range(1, 21):
        rng = gen.rng_for(seed, 950 + kd)
        g = gen.rand_poly(rng, kg)
        a1 = gen.rand_causal_poly(rng, kd)
        b1 = shift(gen.rand_poly(rng, kd - 2), 1)
        pairs = ((LeftFraction(pmul(g, a1), pmul(g, b1)),
                  LeftFraction(a1, b1)),
                 (RightFraction(pmul(b1, g), pmul(a1, g)),
                  RightFraction(b1, a1)))
        for frac, want in pairs:
            if not (frac.den.degree() == kd
                    and fraction_equal(frac, want, 1e-8)):
                misses.append((seed, frac.kind, frac.den.degree()))
    assert not misses


def _reference_first_dependence(A, rows, tol):
    """The dependence search that solves in least squares at every
    step, which _first_dependence must reproduce bit for bit."""
    block, earlier = rows, np.empty((0, A.shape[0]), dtype=complex)
    for m in range(A.shape[0] // 2 + 1):
        target, x = block[0], np.empty(0, dtype=complex)
        resid = target
        if m:
            w = 1.0 / np.linalg.norm(earlier, axis=1)
            x = np.linalg.lstsq(earlier.T * w, -target, rcond=None)[0] * w
            resid = x @ earlier + target
        if np.linalg.norm(resid) <= tol * np.linalg.norm(target):
            return x, earlier
        earlier, block = np.vstack([block, earlier]), block @ A
    raise AnnihilatorNotFound(f"no dependence up to degree {m}")


def _compare_with_reference(monkeypatch):
    """Make every _first_dependence call also run the reference; the
    returned list collects the calls whose outputs differ."""
    screened, misses = xfer._first_dependence, []

    def both(A, rows, tol, skip):
        try:
            want = _reference_first_dependence(A, rows, tol)
        except AnnihilatorNotFound:
            want = None
        try:
            got = screened(A, rows, tol, skip)
        except AnnihilatorNotFound:
            if want is not None:
                misses.append((A.shape[0], tol, "raised"))
            raise
        if want is None or not (np.array_equal(got[0], want[0])
                                and np.array_equal(got[1], want[1])):
            misses.append((A.shape[0], tol, len(got[0])))
        return got

    monkeypatch.setattr(xfer, "_first_dependence", both)
    return misses


def _fir_systems():
    """Observer and controllable forms of FIR fractions of degree 1-8."""
    out = []
    for deg in range(1, 9):
        num = gen.rand_poly(gen.rng_for(deg, 960), deg)
        out += [realize(LeftFraction(QPoly.one(), num)),
                realize(RightFraction(num, QPoly.one()))]
    return out


@pytest.mark.parametrize("tol", [1e-5, 1e-7, 1e-9])
def test_screened_dependence_search_matches_solving_every_step(
        monkeypatch, tol):
    misses = _compare_with_reference(monkeypatch)
    systems = [gen.plant_system(gen.rng_for(seed, 100 + n), n)
               for n in range(2, 25) for seed in SEEDS]
    systems += [_non_minimal(n, k, seed, observable)
                for n, k in [(2, 1), (4, 2), (6, 3), (8, 4)]
                for seed in SEEDS for observable in (True, False)]
    systems += _fir_systems()
    for ss in systems:
        for fn in (tf_left, tf_right):
            try:
                fn(ss, tol)
            except AnnihilatorNotFound:
                pass
    assert not misses


def _scaled(m, s):
    return QuatMatrix([[q * s for q in row] for row in m.data], m.cols)


def test_screen_stays_in_range_where_the_powers_overflow(monkeypatch):
    # the output sees 8 of 16 states, so the search over the rows H F^k
    # (the first pass of tf_right) stops at k = 8, while the unscaled
    # H F^16 overflows
    base = _non_minimal(8, 8, 1, observable=False)
    A = complex_adjoint(_scaled(base.F, 1e25))
    rows = complex_adjoint(_scaled(base.H, 1e-70))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(rows @ np.linalg.matrix_power(A, 16)).all()
    x, earlier = xfer._first_dependence(A, rows, 1e-7,
                                        xfer._screen(A, rows, 1e-7))
    want_x, want_earlier = _reference_first_dependence(A, rows, 1e-7)
    assert len(x) == 16
    assert np.array_equal(x, want_x) and np.array_equal(earlier, want_earlier)
    # nilpotent of index 2: every block from the third on is exactly zero
    rng = gen.rng_for(1, 970)
    zero = QuatMatrix.zeros(3, 3)
    ss = StateSpace(
        _blocks([[zero, gen.rand_matrix(rng, 3, 3)], [zero, zero]], 6),
        gen.rand_matrix(rng, 6, 1), gen.rand_matrix(rng, 1, 6), Quaternion())
    misses = _compare_with_reference(monkeypatch)
    for fn in (tf_left, tf_right):
        frac = fn(ss)
        assert frac.den == QPoly.one() and frac.num.degree() == 2
    assert not misses


def test_screen_leaves_one_solve_per_pass_on_minimal_plants(monkeypatch):
    solve, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for seed in SEEDS:
        ss = gen.plant_system(gen.rng_for(seed, 108), 8)
        for fn in (tf_left, tf_right):
            calls.clear()
            fn(ss)
            assert len(calls) <= 2


ONE_DELAY = StateSpace(QuatMatrix([[Quaternion()]]),
                       QuatMatrix([[Quaternion(1.0)]]),
                       QuatMatrix([[Quaternion(1.0)]]), Quaternion())


def test_one_delay_keeps_its_numerator():
    delay = QPoly.monomial(1.0, 1)
    for fn in (tf_left, tf_right):
        frac = fn(ONE_DELAY)
        assert frac.den == QPoly.one() and frac.num == delay
    assert markov(realize(ONE_DELAY), 4) == markov(ONE_DELAY, 4)
    res = place_poles(ONE_DELAY, [2.0])
    assert res.plant.num == delay and res.stable


@pytest.mark.parametrize("deg", range(1, 9))
def test_fir_systems_round_trip(deg):
    misses = []
    for seed in SEEDS:
        num = gen.rand_poly(gen.rng_for(seed, 960 + deg), deg)
        for frac in (LeftFraction(QPoly.one(), num),
                     RightFraction(num, QPoly.one())):
            ss = realize(frac)
            for fn in (tf_left, tf_right):
                got = fn(ss)
                if not (got.den.degree() == 0
                        and fraction_equal(got, frac, 1e-9)):
                    misses.append((seed, frac.kind, fn.__name__))
    assert not misses


def test_low_degree_denominator_over_a_longer_numerator():
    misses = []
    for seed in SEEDS:
        rng = gen.rng_for(seed, 980)
        frac = LeftFraction(gen.rand_causal_poly(rng, 1),
                            gen.rand_poly(rng, 5))
        ss = realize(frac)
        for fn in (tf_left, tf_right):
            got = fn(ss)
            err = _markov_err(ss, got)
            if got.den.degree() != 1 or not err <= MARKOV_TOL:
                misses.append((seed, fn.__name__, got.den.degree(), err))
    assert not misses


def _count_dependence_calls(monkeypatch):
    """Count the _first_dependence calls; the returned list grows by one
    per call."""
    search, calls = xfer._first_dependence, []

    def counted(A, rows, tol, skip):
        calls.append(A.shape[0])
        return search(A, rows, tol, skip)

    monkeypatch.setattr(xfer, "_first_dependence", counted)
    return calls


def test_controllable_systems_skip_the_projection(monkeypatch):
    # a plant (and its dual) the screen shows controllable is searched
    # in one pass; a system with states the input never reaches (for
    # tf_right: that the output never sees) gets the dual pass and the
    # projected one, and still reduces
    calls = _count_dependence_calls(monkeypatch)
    cases = [(gen.plant_system(gen.rng_for(seed, 100 + n), n), fn, n, 1)
             for n in range(1, 9) for seed in SEEDS
             for fn in (tf_left, tf_right)]
    cases += [(_non_minimal(n, k, seed, fn is tf_left), fn, n, 2)
              for n, k in [(2, 1), (4, 2), (6, 3), (8, 4)]
              for seed in SEEDS for fn in (tf_left, tf_right)]
    misses = []
    for ss, fn, n, passes in cases:
        calls.clear()
        frac = fn(ss)
        err = _markov_err(ss, frac)
        if (len(calls) != passes or frac.den.degree() != n
                or not err <= MARKOV_TOL):
            misses.append((ss.n, fn.__name__, len(calls), err))
    assert not misses


def _rel_diff(p, q):
    return (p - q).norm_inf() / max(1.0, q.norm_inf())


def test_unprojected_search_matches_the_projected_one(monkeypatch):
    # the projected path, forced by a screen that skips no step, against
    # the default path, which skips the projection on these plants
    fast = {}
    for n in range(1, 25):
        for seed in SEEDS:
            ss = gen.plant_system(gen.rng_for(seed, 100 + n), n)
            for fn in (tf_left, tf_right):
                fast[n, seed, fn] = ss, fn(ss)
    monkeypatch.setattr(xfer, "_screen",
                        lambda A, rows, tol: [False] * (A.shape[0] // 2 + 1))
    misses = []
    for (n, seed, fn), (ss, want) in fast.items():
        got = fn(ss)
        if not (got.den.degree() == want.den.degree()
                and _rel_diff(got.den, want.den) <= 1e-8
                and _rel_diff(got.num, want.num) <= 1e-8):
            misses.append((n, seed, fn.__name__))
    assert not misses


def test_annihilator_numerator_is_the_cut_markov_product():
    # b is read off the pair array of the impulse response; it must be
    # the product with the Markov parameters as Quaternions, bit for bit
    systems = [gen.plant_system(gen.rng_for(seed, 100 + n), n)
               for n in (1, 2, 4, 8) for seed in SEEDS]
    systems += [_non_minimal(4, 2, 1, True), ONE_DELAY] + _fir_systems()
    for ss in systems:
        for s in (ss, xfer._dual(ss)):
            a, b = xfer._annihilator(s, 1e-7)
            want = pmul(a, QPoly(markov(s, s.n + 1)))
            assert np.array_equal(b._z, want._z[:len(b._z)])
