import numpy as np
import pytest

from qctl import (ONE, ZERO, I, J, K, DimensionMismatch, Quaternion,
                  QuatMatrix, complex_adjoint, mat_add, matmul,
                  matvec, place_poles, right_eigenvalues,
                  solve_left_linear, spectral_radius_stable)
from qctl.qmat import identity
import gen
import oracle


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        QuatMatrix([[ONE, I], [J]])
    A = QuatMatrix([[ONE, I]])
    B = QuatMatrix([[ONE, I]])
    with pytest.raises(DimensionMismatch):
        matmul(A, B)
    with pytest.raises(DimensionMismatch):
        mat_add(A, QuatMatrix([[ONE], [I]]))


def test_matmul_order():
    A = QuatMatrix([[I]])
    B = QuatMatrix([[J]])
    assert matmul(A, B)[0, 0] == K
    assert matmul(B, A)[0, 0] == -K


def test_identity_and_matvec():
    rng = gen.rng_for(11)
    A = gen.rand_matrix(rng, 3, 3)
    assert matmul(identity(3), A) == A
    assert matmul(A, identity(3)) == A
    v = gen.rand_matrix(rng, 3, 1)
    assert matvec(A, v) == matmul(A, v)


def test_zero_dimension_matrices():
    empty = QuatMatrix([], cols=0)
    assert empty.rows == 0 and empty.cols == 0
    assert matmul(empty, empty).rows == 0
    assert len(right_eigenvalues(empty).classes) == 0
    assert spectral_radius_stable(empty)


def test_complex_adjoint_is_homomorphism():
    rng = gen.rng_for(12)
    for trial in range(41):
        n = 16 if trial == 40 else int(rng.integers(1, 5))
        A = gen.rand_matrix(rng, n, n)
        B = gen.rand_matrix(rng, n, n)
        lhs = complex_adjoint(matmul(A, B))
        rhs = complex_adjoint(A) @ complex_adjoint(B)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale
        lhs = complex_adjoint(mat_add(A, B))
        rhs = complex_adjoint(A) + complex_adjoint(B)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def _matrix(rng, rows, cols):
    """A random rows x cols matrix; the column count is kept when there
    are no rows."""
    return QuatMatrix([[gen.rand_quat(rng) for _ in range(cols)]
                       for _ in range(rows)], cols=cols)


def _oracle_err(got, want, scale):
    a, b = oracle.matrix_pair(got)
    assert a.shape == want[0].shape
    if not a.size:
        return 0.0
    return float(np.max(np.sqrt(np.abs(a - want[0]) ** 2
                                + np.abs(b - want[1]) ** 2))) / scale


@pytest.mark.parametrize("r, k, c", [(0, 3, 2), (3, 0, 2), (1, 1, 1),
                                     (3, 5, 2), (16, 16, 16)])
def test_packed_kernels_match_oracle(r, k, c):
    rng = gen.rng_for(16, 100 * r + 10 * k + c)
    A, B, A2 = _matrix(rng, r, k), _matrix(rng, k, c), _matrix(rng, r, k)
    P, Q, P2 = (oracle.matrix_pair(m) for m in (A, B, A2))
    # each entry of A B sums k products of entries of norm at most 2
    scale = max(1.0, 4.0 * k)
    prod = matmul(A, B)
    assert (prod.rows, prod.cols) == (r, c)
    assert _oracle_err(prod, oracle.matmul(P, Q), scale) <= 1e-15
    assert _oracle_err(mat_add(A, A2), oracle.add(P, P2), 1.0) == 0.0
    v = _matrix(rng, k, 1)
    vp = oracle.matrix_pair(v)
    want = oracle.matvec(P, (vp[0][:, 0], vp[1][:, 0]))
    assert _oracle_err(matvec(A, v), (want[0][:, None], want[1][:, None]),
                       scale) <= 1e-15


def test_entries_round_trip_bit_for_bit():
    vals = (0.0, -0.0, 1.5, -2.25, 1e-300, -7.0e12, 0.1)
    rows = [[Quaternion(*(vals[(3 * i + 5 * j + t) % len(vals)]
                          for t in range(4))) for j in range(3)]
            for i in range(2)]
    A = QuatMatrix(rows)

    def bits(q):
        return np.array(q.components()).view(np.uint64).tolist()

    for i in range(2):
        for j in range(3):
            assert bits(A.data[i][j]) == bits(rows[i][j])
            assert bits(A[i, j]) == bits(rows[i][j])
    assert A == QuatMatrix(rows) and A == QuatMatrix(A.data)
    assert A != QuatMatrix([[Quaternion(0.5)] * 3] * 2)
    # -0.0 equals 0.0, as it does entrywise for Quaternion
    assert QuatMatrix([[Quaternion(-0.0)]]) == QuatMatrix([[ZERO]])


def test_adjoint_block_structure():
    A = QuatMatrix([[Quaternion(1.0, 2.0, 3.0, 4.0)]])
    M = complex_adjoint(A)
    assert M.shape == (2, 2)
    assert M[0, 0] == 1.0 + 2.0j
    assert M[0, 1] == 3.0 + 4.0j
    assert M[1, 0] == -(3.0 - 4.0j)
    assert M[1, 1] == 1.0 - 2.0j


def test_right_eigenvalues_of_reference_matrix():
    A = QuatMatrix([[ONE, I], [J, K]])
    classes = right_eigenvalues(A).classes
    assert len(classes) == 2
    gold = ((1.3660254037844386, 0.3660254037844386),
            (-0.3660254037844386, 1.3660254037844386))
    for cls, (re, im) in zip(classes, gold):
        assert abs(cls.re - re) <= 1e-9
        assert abs(cls.im_norm - im) <= 1e-9
        assert abs(cls.norm() - np.sqrt(2.0)) <= 1e-9


def test_right_eigenvalues_real_diagonal():
    A = QuatMatrix([[Quaternion(2.0), ZERO], [ZERO, Quaternion(-0.5)]])
    classes = right_eigenvalues(A).classes
    assert [(c.re, c.im_norm) for c in classes] == [(2.0, 0.0), (-0.5, 0.0)]


def _paired_or_raise(A, pair_tol=1e-8):
    """The classes of A by the pairing that raised on mates further
    apart than ``pair_tol``: sort (re, |im|, im), pair neighbours,
    average."""
    lam = np.linalg.eigvals(complex_adjoint(A))
    order = sorted(range(len(lam)), key=lambda t: (
        lam[t].real, abs(lam[t].imag), lam[t].imag))
    out = []
    for t in range(0, len(lam), 2):
        a, b = lam[order[t]], lam[order[t + 1]]
        scale = max(1.0, abs(a), abs(b))
        assert abs(a.real - b.real) <= pair_tol * scale
        assert abs(abs(a.imag) - abs(b.imag)) <= pair_tol * scale
        out.append((0.5 * (a.real + b.real),
                    0.5 * (abs(a.imag) + abs(b.imag))))
    return sorted(out, key=lambda c: (-c[0], -c[1]))


def test_well_paired_spectra_keep_their_classes_bit_for_bit():
    rng = gen.rng_for(15)
    mats = [gen.rand_matrix(rng, n, n, 10.0 ** rng.integers(-3, 4))
            for n in (1, 2, 3, 4, 6, 8, 12) for _ in range(4)]
    mats.append(QuatMatrix([[Quaternion(2.0), ZERO],
                            [ZERO, Quaternion(-0.5)]]))
    for A in mats:
        spectrum = right_eigenvalues(A)
        assert spectrum.warnings == []
        got = np.array([(c.re, c.im_norm) for c in spectrum], dtype=float)
        want = np.array(_paired_or_raise(A), dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_mates_apart_are_averaged_and_noted():
    # the 39-state closed loop of a 20-state design: its adjoint mates
    # differ by about 5e-8, above the pairing tolerance
    n = 20
    plant = gen.plant_system(gen.rng_for(1, 100 + n), n)
    targets = gen.spaced_nonreal(gen.rng_for(1, 200 + n), n)
    F = place_poles(plant, targets).closed_loop.F
    spectrum = right_eigenvalues(F)
    assert len(spectrum) == 2 * n - 1
    (note,) = spectrum.warnings
    assert note.startswith("conjugate eigenvalue mates differ by ")
    assert note.endswith(" relative, above 1e-08")
    worst = float(note.split()[5])
    assert 1e-8 < worst < 1e-6
    got = sorted((c.re, c.im_norm) for c in spectrum)
    # the oracle keeps one mate of each pair, the average lies halfway
    want = oracle.right_eig_classes(oracle.matrix_pair(F))
    assert oracle.class_distance(got, want) <= worst
    # a looser tolerance takes the note away and keeps the classes
    looser = right_eigenvalues(F, tol=1e-6)
    assert looser.warnings == [] and looser.classes == spectrum.classes


def test_right_eigenvalue_classes_solve_adjoint():
    rng = gen.rng_for(13)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = gen.rand_matrix(rng, n, n)
        M = complex_adjoint(A)
        scale = max(1.0, np.abs(M).max())
        classes = right_eigenvalues(A).classes
        assert len(classes) == n
        for cls in classes:
            lam = cls.re + 1j * cls.im_norm
            sigma = np.linalg.svd(M - lam * np.eye(2 * n),
                                  compute_uv=False)
            assert sigma[-1] <= 1e-6 * scale


def test_eigenvalues_invariant_under_unit_similarity():
    rng = gen.rng_for(14)
    u = gen.rand_nonzero_quat(rng)
    u = (1.0 / u.norm()) * u
    A = gen.rand_matrix(rng, 3, 3)
    U = QuatMatrix([[u if i == j else ZERO for j in range(3)]
                    for i in range(3)])
    Uinv = QuatMatrix([[u.inverse() if i == j else ZERO for j in range(3)]
                       for i in range(3)])
    B = matmul(U, matmul(A, Uinv))
    ca = right_eigenvalues(A).classes
    cb = right_eigenvalues(B).classes
    for x, y in zip(ca, cb):
        assert x.matches(y, 1e-8)


def test_spectral_radius_boundary():
    assert spectral_radius_stable(QuatMatrix([[0.5 * I]]))
    assert not spectral_radius_stable(QuatMatrix([[I]]))
    assert not spectral_radius_stable(QuatMatrix([[Quaternion(1.2)]]))
    # inside the guard band counts as not stable
    assert not spectral_radius_stable(QuatMatrix([[Quaternion(0.9999999999)]]))


def test_spectral_radius_stable_on_hidden_jordan_blocks():
    # F = T J T^-1 for the 3 x 3 Jordan block J at 0.5: the adjoint
    # eigenvalues split by about eps^(1/3), too far apart to pair into
    # conjugates, yet every one has norm near 0.5
    jordan = np.kron(np.eye(2), 0.5 * np.eye(3) + np.eye(3, k=1))
    for seed in range(20):
        T = complex_adjoint(gen.rand_matrix(gen.rng_for(seed, 31), 3, 3))
        M = T @ jordan @ np.linalg.inv(T)
        F = QuatMatrix([[Quaternion(M[i, j].real, M[i, j].imag,
                                    M[i, 3 + j].real, M[i, 3 + j].imag)
                         for j in range(3)] for i in range(3)])
        assert spectral_radius_stable(F) is True, seed


def test_solve_left_linear_exact():
    # one equation, one unknown: p * s = r with known p
    p = Quaternion(1.0, -2.0, 0.5, 3.0)
    s = Quaternion(0.5, 1.0, -1.0, 2.0)
    sol = solve_left_linear([[s]], [p * s])
    assert (sol[0] - p).norm() <= 1e-10


def test_solve_left_linear_random_consistency():
    rng = gen.rng_for(15)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        k = m + int(rng.integers(0, 3))
        xs = [gen.rand_quat(rng) for _ in range(m)]
        rows = [[gen.rand_quat(rng) for _ in range(m)] for _ in range(k)]
        rhs = []
        for row in rows:
            acc = Quaternion()
            for xj, s in zip(xs, row):
                acc = acc + xj * s
            rhs.append(acc)
        sol = solve_left_linear(rows, rhs)
        for row, want in zip(rows, rhs):
            acc = Quaternion()
            for xj, s in zip(sol, row):
                acc = acc + xj * s
            assert (acc - want).norm() <= 1e-8 * max(1.0, want.norm())


def test_solve_left_linear_validation():
    with pytest.raises(DimensionMismatch):
        solve_left_linear([[ONE], [ONE, I]], [ONE, ONE])
    with pytest.raises(DimensionMismatch):
        solve_left_linear([[ONE]], [ONE, ONE])
