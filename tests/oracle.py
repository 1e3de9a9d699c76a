"""Reference arithmetic for the Diophantine, simulation and design
tests, sharing no code with qctl.

A quaternion w + x i + y j + z k is held as the complex pair (a, b) with
a = w + x i and b = y + z i, so that q = a + b j.  Because j c = conj(c) j
for complex c, the Cayley-Dickson product is

    (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j

and polynomial products are the same formula with np.convolve.  The
dense solve assembles the real matrix of (x, y) -> a x + b y column by
column, one column per unknown real component, and calls
np.linalg.solve.  The simulators step x(k+1) = F x(k) + G u(k),
y(k) = H x(k) + J u(k) one entry product at a time.  Right-eigenvalue
classes come from numpy's eigenvalues of the complex adjoint built here.
qctl polynomials, matrices and quaternions are read only through their
float components.
"""

import numpy as np

# 1, i, j, k as complex pairs
UNITS = ((1.0 + 0j, 0j), (1j, 0j), (0j, 1.0 + 0j), (0j, 1j))


def poly_pair(qpoly):
    """Ascending coefficients of a qctl QPoly as a complex pair."""
    c = np.array([(q.w, q.x, q.y, q.z) for q in qpoly.coeffs],
                 dtype=float).reshape(-1, 4)
    return c[:, 0] + 1j * c[:, 1], c[:, 2] + 1j * c[:, 3]


def _components(p):
    a, b = p
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def _from_components(v):
    v = np.asarray(v, dtype=float).reshape(-1, 4)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def mul(p, q):
    """Elementwise (broadcast) quaternion product p q."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def polymul(p, q):
    """Skew-polynomial product (p q)_k = sum_{i+j=k} p_i q_j."""
    if not len(p[0]) or not len(q[0]):
        return np.zeros(0, complex), np.zeros(0, complex)
    a1, b1 = p
    a2, b2 = q
    return (np.convolve(a1, a2) - np.convolve(b1, np.conj(b2)),
            np.convolve(a1, b2) + np.convolve(b1, np.conj(a2)))


def polyadd(p, q, sign=1.0):
    """p + sign q, padding the shorter one."""
    n = max(len(p[0]), len(q[0]))
    out = [np.zeros(n, complex), np.zeros(n, complex)]
    for s, part in ((1.0, p), (sign, q)):
        out[0][:len(part[0])] += s * part[0]
        out[1][:len(part[1])] += s * part[1]
    return out[0], out[1]


def polysub(p, q):
    return polyadd(p, q, -1.0)


def coeff_norm_max(p):
    if not len(p[0]):
        return 0.0
    return float(np.max(np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)))


def residual(a, b, c, x, y):
    """Forward residual |a x + b y - c| / |c|, norms over coefficients."""
    lhs = polyadd(polymul(a, x), polymul(b, y))
    return coeff_norm_max(polysub(lhs, c)) / coeff_norm_max(c)


def rel_diff(p, q):
    """|p - q| / |q| over coefficients."""
    return coeff_norm_max(polysub(p, q)) / coeff_norm_max(q)


def solve_minimal_x(a, b, c):
    """The solution of a x + b y = c with deg x < deg b and
    deg y <= deg c - deg b, from one dense real solve.  The system is
    square, so deg c must be at least deg a + deg b - 1."""
    rows = len(c[0])
    nx, ny = len(b[0]) - 1, rows - len(b[0]) + 1
    if len(a[0]) + nx - 1 > rows:
        raise ValueError("deg c is below deg a + deg b - 1")
    cols = []
    for p, count in ((a, nx), (b, ny)):
        for j in range(count):
            for e in UNITS:
                col = np.zeros((rows, 4))
                pe = _components(mul(p, e))
                col[j:j + len(pe)] = pe
                cols.append(col.ravel())
    M = np.array(cols).T
    v = np.linalg.solve(M, _components(c).ravel())
    return _from_components(v[:4 * nx]), _from_components(v[4 * nx:])


# -- zeros ------------------------------------------------------------------

def linear_product(zeros):
    """(d - z_1)(d - z_2)...(d - z_m), left to right, for scalar pairs."""
    out = (np.array([1.0 + 0j]), np.array([0j]))
    for a, b in zeros:
        out = polymul(out, (np.array([-a, 1.0 + 0j]), np.array([-b, 0j])))
    return out


def eval_right(p, z):
    """|sum_i p_i z^i| and its conditioning scale sum_i |p_i| |z|^i."""
    acc = (0j, 0j)
    for k in range(len(p[0]) - 1, -1, -1):
        acc = add(mul(acc, z), (p[0][k], p[1][k]))
    zn = np.sqrt(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    coeff = np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)
    return (float(np.sqrt(abs(acc[0]) ** 2 + abs(acc[1]) ** 2)),
            float(np.sum(coeff * zn ** np.arange(len(coeff)))))


def rem_real_quadratic(p, p1, p0):
    """Remainder r_0 + r_1 d of p modulo the real d^2 + p1 d + p0; a real
    divisor commutes with everything, so the sides do not matter."""
    a, b = p[0].copy(), p[1].copy()
    for top in range(len(a) - 1, 1, -1):
        for part in (a, b):
            part[top - 1] -= p1 * part[top]
            part[top - 2] -= p0 * part[top]
    return a[:2], b[:2]


# -- simulation -------------------------------------------------------------

def quat_pair(q):
    """A qctl Quaternion as a complex-pair scalar."""
    return complex(q.w, q.x), complex(q.y, q.z)


def matrix_pair(m):
    """A qctl QuatMatrix as a complex pair of (rows, cols) arrays."""
    c = np.array([[(q.w, q.x, q.y, q.z) for q in row] for row in m.data],
                 dtype=float).reshape(m.rows, m.cols, 4)
    return c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3]


def system_pair(ss):
    """(F, G, H, J) of a qctl StateSpace as complex pairs."""
    return (matrix_pair(ss.F), matrix_pair(ss.G), matrix_pair(ss.H),
            quat_pair(ss.J))


def quats_pair(qs):
    """A list of qctl Quaternions as a complex pair of arrays."""
    return (np.array([complex(q.w, q.x) for q in qs]),
            np.array([complex(q.y, q.z) for q in qs]))


def add(p, q, sign=1.0):
    return p[0] + sign * q[0], p[1] + sign * q[1]


def inv(q):
    """q^-1 = conj(q) / |q|^2 with conj(a + b j) = conj(a) - b j."""
    a, b = q
    n2 = abs(a) ** 2 + abs(b) ** 2
    return np.conj(a) / n2, -b / n2


def matvec(A, x):
    """A x for a matrix pair A and a vector pair x."""
    a, b = mul(A, (x[0][None, :], x[1][None, :]))
    return a.sum(axis=1), b.sum(axis=1)


def _entry(v):
    return v[0][0], v[1][0]


def _scaled(col, s):
    """The column G (a matrix pair with one column) times the scalar s."""
    return mul((col[0][:, 0], col[1][:, 0]), s)


def _at(seq, k):
    return seq[k] if k < len(seq) else (0j, 0j)


def simulate(system, x, inputs, steps):
    """Outputs y(0..steps-1) from state pair x under the scalar pairs
    ``inputs``, zero-extended past their end."""
    F, G, H, J = system
    ys = []
    for k in range(steps):
        u = _at(inputs, k)
        ys.append(add(_entry(matvec(H, x)), mul(J, u)))
        x = add(matvec(F, x), _scaled(G, u))
    return ys


def simulate_feedback(plant, ctrl, xp, xc, v, w, steps):
    """Outputs of y = plant u + w, u = v - ctrl y, solving the static
    loop (1 + Jp Jc) y = Hp xp + Jp (v - Hc xc) + w at every step."""
    Fp, Gp, Hp, Jp = plant
    Fc, Gc, Hc, Jc = ctrl
    gain_inv = inv(add((1.0 + 0j, 0j), mul(Jp, Jc)))
    ys = []
    for k in range(steps):
        vk, wk = _at(v, k), _at(w, k)
        yc = _entry(matvec(Hc, xc))
        rhs = add(add(_entry(matvec(Hp, xp)), mul(Jp, add(vk, yc, -1.0))),
                  wk)
        y = mul(gain_inv, rhs)
        u = add(vk, add(yc, mul(Jc, y)), -1.0)
        xp = add(matvec(Fp, xp), _scaled(Gp, u))
        xc = add(matvec(Fc, xc), _scaled(Gc, y))
        ys.append(y)
    return ys


def markov(system, count):
    """J, H G, H F G, ..., H F^(count-2) G."""
    F, G, H, J = system
    out = [J]
    col = (G[0][:, 0], G[1][:, 0])
    for _ in range(count - 1):
        out.append(_entry(matvec(H, col)))
        col = matvec(F, col)
    return out[:count]


def seq_rel_err(got, want):
    """max_k |got_k - want_k| / max(1, max_k |want_k|) for a list of qctl
    Quaternions against a list of scalar pairs."""
    g = quats_pair(got)
    wa = np.array([p[0] for p in want], dtype=complex)
    wb = np.array([p[1] for p in want], dtype=complex)
    if len(g[0]) != len(wa):
        return float("inf")
    if not len(wa):
        return 0.0
    err = np.sqrt(np.abs(g[0] - wa) ** 2 + np.abs(g[1] - wb) ** 2)
    scale = max(1.0, float(np.max(np.sqrt(np.abs(wa) ** 2
                                          + np.abs(wb) ** 2))))
    return float(np.max(err)) / scale


# -- right eigenvalues ------------------------------------------------------

def right_eig_classes(A):
    """Right-eigenvalue classes (re, |im|) of a square matrix pair, from
    the eigenvalues of its complex adjoint [[a, b], [-conj b, conj a]].
    The adjoint holds every class twice, so the sorted list is halved."""
    a, b = A
    lam = np.linalg.eigvals(np.block([[a, b], [-np.conj(b), np.conj(a)]]))
    keys = sorted((float(v.real), float(abs(v.imag))) for v in lam)
    return keys[0::2]


def inverse_class(z):
    """Class (re, |im|) of the inverse of the scalar pair z."""
    a, b = z
    im = np.sqrt(a.imag ** 2 + abs(b) ** 2)
    n2 = a.real ** 2 + im ** 2
    return float(a.real / n2), float(im / n2)


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
