"""Seeded random generators shared by the test modules.

Leading coefficients are kept away from zero so division and Euclid
steps stay well conditioned; spectral content is kept moderate so
series comparisons do not overflow their tolerances.
"""

import numpy as np

from qctl import QPoly, Quaternion, QuatMatrix, StateSpace


def rng_for(seed: int, stream: int = None) -> np.random.Generator:
    """The generator of ``seed``, or of the pair (seed, stream) so that
    families drawn from different streams never shift each other."""
    return np.random.default_rng(seed if stream is None else [seed, stream])


def rand_quat(rng, scale: float = 1.0) -> Quaternion:
    w, x, y, z = scale * (2.0 * rng.random(4) - 1.0)
    return Quaternion(w, x, y, z)


def rand_nonzero_quat(rng, floor: float = 0.5) -> Quaternion:
    while True:
        q = rand_quat(rng)
        if q.norm() >= floor:
            return q


def rand_unit_quat(rng) -> Quaternion:
    q = rand_nonzero_quat(rng, 0.3)
    n = q.norm()
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def rand_poly(rng, deg: int, lead_floor: float = 0.5) -> QPoly:
    """Random polynomial of exact degree deg with |lead| >= lead_floor."""
    cs = [rand_quat(rng) for _ in range(deg)]
    cs.append(rand_nonzero_quat(rng, lead_floor))
    return QPoly(cs)


def rand_causal_poly(rng, deg: int) -> QPoly:
    """Random polynomial of exact degree deg with constant term 1."""
    if deg == 0:
        return QPoly.one()
    cs = [Quaternion(1.0)] + [rand_quat(rng) for _ in range(deg - 1)]
    cs.append(rand_nonzero_quat(rng))
    return QPoly(cs)


def rand_stable_denominator(rng, deg: int, zero_floor: float = 1.05):
    """Denominator with den(0) = 1 whose zero classes have norms
    >= zero_floor, built as a product of linear factors."""
    from qctl import pmul, scale_left
    den = QPoly.one()
    for _ in range(deg):
        z = rand_quat(rng)
        n = z.norm()
        want = zero_floor + 1.5 * rng.random()
        if n < 1e-3:
            z = Quaternion(want)
            n = want
        z = Quaternion(*(v * want / n for v in z.components()))
        den = pmul(den, QPoly([z, Quaternion(-1.0)]))
    return scale_left(den.at0().inverse(), den)


def rand_matrix(rng, rows: int, cols: int, scale: float = 1.0) -> QuatMatrix:
    return QuatMatrix([[rand_quat(rng, scale) for _ in range(cols)]
                       for _ in range(rows)], cols=cols)


def rand_system(rng, n: int, radius: float = 1.0) -> StateSpace:
    """Random n-state system with the loop matrix scaled to spectral
    radius about ``radius``."""
    import numpy.linalg as la
    from qctl import complex_adjoint
    F = rand_matrix(rng, n, n)
    if n:
        eigs = la.eigvals(complex_adjoint(F))
        top = max(abs(eigs)) if len(eigs) else 0.0
        if top > 1e-9:
            s = radius / top
            F = QuatMatrix([[F[i, j] * s for j in range(n)]
                            for i in range(n)], cols=n)
    G = rand_matrix(rng, n, 1)
    H = rand_matrix(rng, 1, n)
    return StateSpace(F, G, H, rand_quat(rng))


def _quat_grid(c) -> QuatMatrix:
    return QuatMatrix([[Quaternion(*(float(v) for v in e)) for e in row]
                       for row in c], cols=c.shape[1])


def plant_system(rng, n: int) -> StateSpace:
    """Strictly proper n-state plant (F, G, H, J = 0) drawn as component
    arrays in [-1, 1), F scaled to spectral radius 1: the construction of
    the benchmark's design plants."""
    from qctl import complex_adjoint
    F = 2.0 * rng.random((n, n, 4)) - 1.0
    # the largest class norm, read from the class list as the benchmark
    # reads it, so that the plants match its plants bit for bit
    lam = np.linalg.eigvals(complex_adjoint(_quat_grid(F)))
    keys = sorted((float(v.real), float(abs(v.imag))) for v in lam)
    top = max(np.hypot(re, im) for re, im in keys[0::2])
    G = 2.0 * rng.random((n, 1, 4)) - 1.0
    H = 2.0 * rng.random((1, n, 4)) - 1.0
    return StateSpace(_quat_grid(F * (1.0 / top)), _quat_grid(G),
                      _quat_grid(H), Quaternion())


def spaced_nonreal(rng, m: int, start: float = 1.5, gap: float = 0.6):
    """m non-real quaternions whose norms are at least gap/2 apart,
    starting above ``start``."""
    out = []
    for i in range(m):
        r = start + gap * i + 0.5 * gap * rng.random()
        th = 0.4 + 2.2 * rng.random()
        u = rng.normal(size=3)
        u = r * np.sin(th) * (u / np.linalg.norm(u))
        out.append(Quaternion(r * np.cos(th), *(float(v) for v in u)))
    return out


def spaced_real(rng, m: int, start: float = 1.5, gap: float = 0.6):
    """m real values at least gap/2 apart, starting above ``start``."""
    return [start + gap * i + 0.5 * gap * rng.random() for i in range(m)]
