"""tf_left and tf_right on n-state plants and on non-minimal block
systems, judged by degree and by Markov parameters from the
complex-pair arithmetic of oracle.py.

Plants are those of the benchmark's design workload, drawn from the
stream 100 + n of seeds 1-10.  Their Markov parameters decay or grow
with the powers of F, so the rows H F^k that decide the degree span
many decades once n reaches 16.
"""

import pytest

from qctl import (AnnihilatorNotFound, LeftFraction, QPoly, Quaternion,
                  QuatMatrix, RightFraction, StateSpace, fraction_equal,
                  markov, pmul, series, shift, tf_left, tf_right)
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
