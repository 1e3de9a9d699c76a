"""Seeded inputs for the four workloads.

Inputs are drawn as plain numpy component arrays (w, x, y, z) and only
then turned into qctl objects, so that the reference checks in ref.py
can work from the same arrays without reading anything back from qctl.

Every family draws from its own stream, numpy.random.default_rng([seed,
stream]), so adding a family never shifts another.  The inputs that
exercise the known faults (see README.md) come from FIXED_SEED instead of
--seed: each one fails on every run or on none, so the share of failed
operations is the same whatever seed is given.
"""

import numpy as np

import ref

from qctl import Quaternion, QPoly, QuatMatrix, StateSpace

# Seed of the fixed inputs that show the known faults; never --seed.
FIXED_SEED = 2506_08034


def rng_for(seed, stream):
    # numpy takes non-negative seeds only; this leaves those unchanged
    return np.random.default_rng([seed % 2**63, stream])


# -- component arrays ------------------------------------------------------

def rand_comps(rng, shape):
    return 2.0 * rng.random(tuple(shape) + (4,)) - 1.0


def poly_comps(rng, deg):
    """Random coefficients of exact degree deg, |lead| >= 0.5."""
    c = rand_comps(rng, (deg + 1,))
    while np.linalg.norm(c[-1]) < 0.5:
        c[-1] = rand_comps(rng, ())
    return c


def scaled_loop_matrix(rng, n, radius):
    """Random n x n components scaled to right spectral radius ``radius``."""
    c = rand_comps(rng, (n, n))
    top = max(np.hypot(*cls) for cls in ref.right_eig_classes(ref.pair(c)))
    return c * (radius / top)


def plant_comps(rng, n):
    """Strictly proper plant (F, G, H, J = 0) with spectral radius 1."""
    return (scaled_loop_matrix(rng, n, 1.0), rand_comps(rng, (n, 1)),
            rand_comps(rng, (1, n)), np.zeros(4))


def stable_system_comps(rng, n):
    """Open-loop system with spectral radius 0.9 and a direct term."""
    return (scaled_loop_matrix(rng, n, 0.9), rand_comps(rng, (n, 1)),
            rand_comps(rng, (1, n)), rand_comps(rng, ()))


def _unit_imag(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def spaced_real(rng, m, start=1.5, gap=0.6):
    """m real values at least gap/2 apart, starting at ``start``."""
    return np.array([[start + gap * i + 0.5 * gap * rng.random(), 0, 0, 0]
                     for i in range(m)])


def spaced_nonreal(rng, m, start=1.5, gap=0.6):
    """m non-real quaternions whose norms are at least gap/2 apart."""
    out = []
    for i in range(m):
        r = start + gap * i + 0.5 * gap * rng.random()
        th = 0.4 + 2.2 * rng.random()
        out.append([r * np.cos(th), *(r * np.sin(th) * _unit_imag(rng))])
    return np.array(out)


# -- qctl objects ----------------------------------------------------------

def to_quat(c):
    return Quaternion(*(float(v) for v in c))


def to_matrix(c):
    return QuatMatrix([[to_quat(e) for e in row] for row in c],
                      cols=c.shape[1])


def to_poly(c):
    return QPoly([to_quat(e) for e in c])


def to_system(comps):
    F, G, H, J = comps
    return StateSpace(to_matrix(F), to_matrix(G), to_matrix(H), to_quat(J))


def system_pairs(comps):
    """(F, G, H, J) component arrays as complex pairs for ref.py."""
    return tuple(ref.pair(c) for c in comps)


# The worked 2-state example: F = [[1, i], [j, k]], G = [i; 0], H = [1 0].
WORKED_PLANT = (
    np.array([[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]],
             dtype=float),
    np.array([[[0, 1, 0, 0]], [[0, 0, 0, 0]]], dtype=float),
    np.array([[[1, 0, 0, 0], [0, 0, 0, 0]]], dtype=float),
    np.zeros(4),
)
WORKED_TARGETS = np.array([[3.0, 0, 0, 0], [4.0, 0, 0, 0]])


def lcg_state(n, seed):
    """Initial state of qctl.sim.random_state(n, seed), recomputed from
    the documented recurrence s <- 6364136223846793005 s +
    1442695040888963407 (mod 2^64), top 53 bits mapped to [-1, 1)."""
    mask = (1 << 64) - 1
    s = seed & mask
    vals = []
    for _ in range(4 * n):
        s = (6364136223846793005 * s + 1442695040888963407) & mask
        vals.append(2.0 * ((s >> 11) / float(1 << 53)) - 1.0)
    return np.array(vals).reshape(n, 1, 4)
