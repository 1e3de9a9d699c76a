"""Reference arithmetic for the Diophantine tests, sharing no code with
qctl.

A quaternion w + x i + y j + z k is held as the complex pair (a, b) with
a = w + x i and b = y + z i, so that q = a + b j.  Because j c = conj(c) j
for complex c, the Cayley-Dickson product is

    (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j

and polynomial products are the same formula with np.convolve.  The
dense solve assembles the real matrix of (x, y) -> a x + b y column by
column, one column per unknown real component, and calls
np.linalg.solve.  qctl polynomials are read only through their float
components.
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
