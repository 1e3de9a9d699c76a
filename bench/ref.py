"""Reference quaternion arithmetic that shares no code with qctl.

A quaternion w + x i + y j + z k is held as the complex pair (a, b) with
a = w + x i and b = y + z i, so that q = a + b j.  Because j c = conj(c) j
for complex c, the Cayley-Dickson product is

    (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j

and the same formula serves scalars, matrices (with @) and polynomial
convolution.  Right-eigenvalue classes come from numpy's eigvals of the
complex adjoint [[A1, A2], [-conj(A2), conj(A1)]].

Every output check in the benchmark uses this module; none uses qctl
arithmetic.  qctl objects are read only through their float components.
"""

import numpy as np


# -- conversion from plain component arrays --------------------------------

def pair(comps):
    """(..., 4) real components (w, x, y, z) -> complex pair (a, b)."""
    c = np.asarray(comps, dtype=float)
    return c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3]


def comps(p):
    """Complex pair -> (..., 4) real components."""
    a, b = p
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def qcomps(q):
    """Components of a qctl Quaternion, read as plain floats."""
    return (q.w, q.x, q.y, q.z)


def poly_pair(qpoly):
    """Ascending coefficients of a qctl QPoly as a complex pair."""
    return pair(np.array([qcomps(c) for c in qpoly.coeffs],
                         dtype=float).reshape(-1, 4))


def matrix_pair(qmatrix):
    """Entries of a qctl QuatMatrix as a complex pair of 2-D arrays."""
    rows = [[qcomps(qmatrix.data[i][j]) for j in range(qmatrix.cols)]
            for i in range(qmatrix.rows)]
    return pair(np.array(rows, dtype=float).reshape(qmatrix.rows,
                                                    qmatrix.cols, 4))


def quats_pair(quats):
    """A sequence of qctl Quaternions as a complex pair of 1-D arrays."""
    return pair(np.array([qcomps(q) for q in quats],
                         dtype=float).reshape(-1, 4))


# -- arithmetic ------------------------------------------------------------

def mul(p, q):
    """Elementwise (broadcast) quaternion product p q."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def matmul(P, Q):
    """Quaternion matrix product, row entries multiplying from the left."""
    a1, b1 = P
    a2, b2 = Q
    return a1 @ a2 - b1 @ np.conj(b2), a1 @ b2 + b1 @ np.conj(a2)


def add(p, q):
    return p[0] + q[0], p[1] + q[1]


def sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def conj(p):
    """Quaternion conjugate: conj(a + b j) = conj(a) - b j."""
    return np.conj(p[0]), -p[1]


def norm(p):
    return np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)


def inv(p):
    n2 = np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2
    c = conj(p)
    return c[0] / n2, c[1] / n2


def index(p, k):
    return p[0][k], p[1][k]


def _entry(m):
    """The scalar of a 1 x 1 matrix pair."""
    return m[0][0, 0], m[1][0, 0]


def _stack(ys):
    return (np.array([y[0] for y in ys], dtype=complex),
            np.array([y[1] for y in ys], dtype=complex))


def polymul(p, q):
    """Skew-polynomial product (p q)_k = sum_{i+j=k} p_i q_j."""
    a1, b1 = p
    a2, b2 = q
    return (np.convolve(a1, a2) - np.convolve(b1, np.conj(b2)),
            np.convolve(a1, b2) + np.convolve(b1, np.conj(a2)))


def polyadd(p, q):
    n = max(len(p[0]), len(q[0]))
    out = [np.zeros(n, complex), np.zeros(n, complex)]
    for part in (p, q):
        out[0][:len(part[0])] += part[0]
        out[1][:len(part[1])] += part[1]
    return out[0], out[1]


def polysub(p, q):
    return polyadd(p, (-q[0], -q[1]))


def coeff_norm_max(p):
    return float(np.max(norm(p))) if len(p[0]) else 0.0


def linear_factor_product(zeros):
    """prod_i (z_i - d), left to right, as ascending complex-pair coeffs."""
    out = (np.array([1.0 + 0j]), np.array([0j]))
    for z in zeros:
        out = polymul(out, (np.array([z[0], -1.0 + 0j]),
                            np.array([z[1], 0j])))
    return out


def eval_right(p, z):
    """Right evaluation sum_i p_i z^i and its conditioning scale
    sum_i |p_i| |z|^i."""
    acc = (0j, 0j)
    for k in range(len(p[0]) - 1, -1, -1):
        acc = add(mul(acc, z), index(p, k))
    zn = float(norm(z))
    scale = sum(float(norm(index(p, k))) * zn ** k
                for k in range(len(p[0])))
    return float(norm(acc)), max(1.0, scale)


def left_series(den, num, count):
    """First count coefficients S of den^-1 num, from den S = num."""
    d0i = inv(index(den, 0))
    s = []
    for k in range(count):
        acc = index(num, k) if k < len(num[0]) else (0j, 0j)
        for i in range(1, min(k, len(den[0]) - 1) + 1):
            acc = sub(acc, mul(index(den, i), s[k - i]))
        s.append(mul(d0i, acc))
    return s


def markov(F, G, H, count):
    """H F^(k-1) G for k = 1..count."""
    out = []
    col = G
    for _ in range(count):
        out.append(_entry(matmul(H, col)))
        col = matmul(F, col)
    return out


# -- spectra ---------------------------------------------------------------

def adjoint(P):
    a, b = P
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


def right_eig_classes(P):
    """Multiset of right-eigenvalue classes (re, |im|), each listed once,
    sorted.  The adjoint spectrum holds every class twice (as a conjugate
    pair, or a doubled real value), so the sorted list is halved."""
    lam = np.linalg.eigvals(adjoint(P))
    keys = sorted((float(v.real), float(abs(v.imag))) for v in lam)
    return keys[0::2]


def class_of(z):
    """Similarity class (re, |im|) of a complex-pair scalar."""
    a, b = z
    return float(a.real), float(np.sqrt(a.imag ** 2 + abs(b) ** 2))


def class_distance(got, want):
    """Largest distance between matched classes of two multisets, each
    relative to max(1, |class|); infinite when the counts differ.  Each
    class of ``got`` takes the nearest class of ``want`` still free."""
    if len(got) != len(want):
        return float("inf")
    left = list(want)
    worst = 0.0
    for re, im in got:
        dist = [max(abs(re - wre), abs(im - wim))
                / max(1.0, np.hypot(re, im), np.hypot(wre, wim))
                for wre, wim in left]
        i = int(np.argmin(dist))
        worst = max(worst, dist[i])
        left.pop(i)
    return worst


# -- simulation ------------------------------------------------------------

def simulate(F, G, H, J, x0, u, steps):
    """Outputs of x+ = F x + G u, y = H x + J u with the input held as a
    complex-pair sequence (None for zero input)."""
    x = x0
    ys = []
    for k in range(steps):
        uk = (0j, 0j) if u is None or k >= len(u[0]) else index(u, k)
        ys.append(add(_entry(matmul(H, x)), mul(J, uk)))
        x = add(matmul(F, x), mul(G, uk))
    return _stack(ys)


def simulate_feedback(plant, ctrl, xp, xc, steps, v):
    """Outputs of y = plant u, u = v - ctrl y from the given states under
    the constant real reference v, with the static loop 1 + Jp Jc solved
    each step.  plant and ctrl are (F, G, H, J) complex-pair tuples."""
    Fp, Gp, Hp, Jp = plant
    Fc, Gc, Hc, Jc = ctrl
    vq = (v + 0j, 0j)
    gain_inv = inv(add((1.0 + 0j, 0j), mul(Jp, Jc)))
    ys = []
    for _ in range(steps):
        yc = _entry(matmul(Hc, xc))
        y = mul(gain_inv, add(_entry(matmul(Hp, xp)), mul(Jp, sub(vq, yc))))
        u = sub(vq, add(yc, mul(Jc, y)))
        xp = add(matmul(Fp, xp), mul(Gp, u))
        xc = add(matmul(Fc, xc), mul(Gc, y))
        ys.append(y)
    return _stack(ys)
