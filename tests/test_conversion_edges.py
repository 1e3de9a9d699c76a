"""The conversions at the edges of a simulation, bit for bit.

simulate, simulate_feedback and markov read their inputs through
QuatMatrix and hand their outputs back as Quaternions built straight
from the floats of a pair array.  They are compared here with a frozen
reference of the plain conversions: per-entry ``_coerce(e).components()``
into ``np.array`` for the inputs, ``Quaternion(*c)`` over ``.tolist()``
for the outputs, and the step and loop matrices assembled with
``np.ix_``, ``hstack`` and ``vstack``.  Every component must match in
its bits (signed zeros, inf and nan included) and be a Python float.
"""

import numpy as np
import pytest

from qctl import (DimensionMismatch, QuatMatrix, Quaternion, StateSpace,
                  markov, place_poles, realize, simulate, simulate_feedback)
from qctl.qmat import _adjoint
from qctl.quat import _coerce

import gen


# -- frozen reference --------------------------------------------------------

def _ref_matrix(entries, cols=None):
    """The (r, c, 2) pair array of a matrix built entry by entry."""
    rows = [[_coerce(e).components() for e in row] for row in entries]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        if cols is not None and cols != width:
            raise DimensionMismatch("cols does not match row width")
        cols = width
    comps = np.array(rows, dtype=float).reshape(len(rows), cols or 0, 4)
    return comps.view(complex)


def _ref_quaternions(pairs):
    return [Quaternion(*c) for c in pairs.view(float).tolist()]


def _ref_state(x, n):
    z = x._z if isinstance(x, QuatMatrix) else _ref_matrix(
        [[v] for v in x] if n else [], cols=1)
    assert z.shape == (n, 1, 2)
    return _adjoint(z)[:, 0]


def _ref_inputs(seq, steps):
    head = _ref_matrix([[] if seq is None else seq[:steps]])[0]
    cols = np.zeros((steps, 2), dtype=complex)
    cols[:len(head)] = head
    cols[:, 1] = -cols[:, 1].conj()
    return cols


def _ref_step_matrix(ss):
    n = ss.n
    z = np.empty((n + 1, n + 1, 2), dtype=complex)
    z[:n, :n] = ss.F._z
    z[:n, n:] = ss.G._z
    z[n:, :n] = ss.H._z
    z[n, n] = _ref_matrix([[ss.J]])[0, 0]
    order = np.r_[0:n, n + 1:2 * n + 1, n, 2 * n + 1]
    return _adjoint(z)[np.ix_(order, order)]


def _ref_propagate(step, x, inputs):
    n2, steps = len(x), len(inputs)
    cols = np.empty((steps, n2 + inputs.shape[1]), dtype=complex)
    cols[:, n2:] = inputs
    if steps:
        cols[0, :n2] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1):
            step[:n2].dot(cols[k], out=cols[k + 1, :n2])
        out = cols @ step[n2:].T
    out[:, 1] = -out[:, 1].conj()
    return out


def _ref_loop_matrix(plant, controller, gain_inv):
    sp, sc = _ref_step_matrix(plant), _ref_step_matrix(controller)
    p, c = 2 * plant.n, 2 * controller.n
    Fp, Gp, Hp, Jp = sp[:p, :p], sp[:p, p:], sp[p:, :p], sp[p:, p:]
    Fc, Gc, Hc, Jc = sc[:c, :c], sc[:c, c:], sc[c:, :c], sc[c:, c:]
    g = _adjoint(_ref_matrix([[gain_inv]]))
    gJp = g @ Jp
    y = np.hstack([g @ Hp, -gJp @ Hc, gJp, g])
    u = np.hstack([np.zeros((2, p)), -Hc, np.eye(2), np.zeros((2, 2))])
    u -= Jc @ y
    xp = Gp @ u
    xp[:, :p] += Fp
    xc = Gc @ y
    xc[:, p:p + c] += Fc
    return np.vstack([xp, xc, y])


def ref_simulate(ss, x0, u, steps):
    return _ref_quaternions(_ref_propagate(
        _ref_step_matrix(ss), _ref_state(x0, ss.n), _ref_inputs(u, steps)))


def ref_simulate_feedback(plant, controller, xp, xc, v, w, steps):
    gain = Quaternion(1.0) + plant.J * controller.J
    x = np.concatenate([_ref_state(xp, plant.n),
                        _ref_state(xc, controller.n)])
    inputs = np.hstack([_ref_inputs(v, steps), _ref_inputs(w, steps)])
    return _ref_quaternions(_ref_propagate(
        _ref_loop_matrix(plant, controller, gain.inverse()), x, inputs))


def ref_markov(ss, count):
    steps = max(count, 0)
    inputs = np.zeros((steps, 2), dtype=complex)
    inputs[:1, 0] = 1.0
    return _ref_quaternions(_ref_propagate(
        _ref_step_matrix(ss), np.zeros(2 * ss.n, complex), inputs))


# -- helpers ----------------------------------------------------------------

class _Sub(Quaternion):
    __slots__ = ()


MIXED = [Quaternion(0.5, -0.25, 0.125, -0.0), _Sub(1.0, 2.0, -3.0, 0.5),
         0.75, -2, True, False, np.float64(-1.5), np.int64(3),
         np.float32(0.1), -0.0, Quaternion(-0.0, -0.0, 0.0, -0.0)]


def _mixed(rng, count):
    return [MIXED[i] for i in rng.integers(len(MIXED), size=count)]


def _bits(quats):
    for q in quats:
        assert type(q) is Quaternion
        assert all(type(c) is float for c in q.components())
    return np.array([q.components() for q in quats],
                    dtype=float).reshape(-1, 4).view(np.int64)


def _assert_same(got, want):
    assert len(got) == len(want)
    g, w = _bits(got), _bits(want)
    assert np.array_equal(g.view(float), w.view(float), equal_nan=True)
    assert np.array_equal(g, w)


def _empty_system(J):
    return StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                      QuatMatrix.zeros(1, 0), J)


def _systems():
    out = [gen.rand_system(gen.rng_for(seed, 700 + n), n, 0.9)
           for n in (1, 2, 4, 8) for seed in (1, 2, 3)]
    out += [_empty_system(Quaternion(0.5, -0.0, 0.25, -1.0)),
            _empty_system(Quaternion(-0.0))]
    return out


def _inputs(rng, steps):
    # None, a short sequence, one past the end, and a plain float list
    return [None, _mixed(rng, steps // 2), _mixed(rng, steps + 3),
            [float(v) for v in rng.standard_normal(steps)]]


def _state(rng, ss, as_list):
    if as_list:
        return _mixed(rng, ss.n)
    return gen.rand_matrix(rng, ss.n, 1)


# -- simulations --------------------------------------------------------------

@pytest.mark.parametrize("steps", [0, 1, 2, 37])
def test_simulate_matches_the_plain_edges(steps):
    rng = gen.rng_for(steps, 710)
    for ss in _systems():
        for as_list in (False, True):
            x0 = _state(rng, ss, as_list)
            for u in _inputs(rng, steps):
                _assert_same(simulate(ss, x0, u, steps),
                             ref_simulate(ss, x0, u, steps))


def _loops():
    """Plant/controller pairs: designed loops (J_c nonzero, J_p = 0),
    random pairs with both direct terms nonzero, and state-free ends."""
    out = []
    for seed in (1, 2):
        for n in (1, 2, 4):
            rng = gen.rng_for(seed, 720 + n)
            plant = gen.plant_system(rng, n)
            targets = gen.spaced_nonreal(rng, n)
            ctrl = realize(place_poles(plant, targets).controller)
            out.append((plant, ctrl))
        rng = gen.rng_for(seed, 730)
        out.append((gen.rand_system(rng, 3, 0.9), gen.rand_system(rng, 2)))
    empty = _empty_system(Quaternion(0.25, -0.0, 0.5, 0.125))
    out += [(empty, out[0][1]), (out[0][0], empty), (empty, empty)]
    return out


@pytest.mark.parametrize("steps", [0, 1, 2, 41])
def test_simulate_feedback_matches_the_plain_edges(steps):
    rng = gen.rng_for(steps, 740)
    for plant, ctrl in _loops():
        for as_list in (False, True):
            xp, xc = _state(rng, plant, as_list), _state(rng, ctrl, as_list)
            vs, ws = _inputs(rng, steps), _inputs(rng, steps)
            for v, w in zip(vs, ws[1:] + ws[:1]):
                _assert_same(
                    simulate_feedback(plant, ctrl, xp, xc, v, w, steps),
                    ref_simulate_feedback(plant, ctrl, xp, xc, v, w, steps))


def test_diverging_runs_match_inf_and_nan_patterns():
    rng = gen.rng_for(1, 750)
    plant = gen.rand_system(rng, 3, 40.0)
    ctrl = gen.rand_system(rng, 2, 30.0)
    xp, xc = gen.rand_matrix(rng, 3, 1), gen.rand_matrix(rng, 2, 1)
    u = _mixed(rng, 150)
    open_loop = simulate(plant, xp, u, 300)
    loop = simulate_feedback(plant, ctrl, xp, xc, u, None, 300)
    for ys in (open_loop, loop):
        comps = _bits(ys).view(float)
        assert np.isfinite(comps[:100]).all()
        assert not np.isfinite(comps[-100:]).any()
    _assert_same(open_loop, ref_simulate(plant, xp, u, 300))
    _assert_same(loop, ref_simulate_feedback(plant, ctrl, xp, xc, u, None,
                                             300))
    # a real scalar run passes 1e308 with zero imaginary parts
    ss = StateSpace([[10.0]], [[1.0]], [[1.0]], 0.0)
    _assert_same(simulate(ss, [1.0], None, 320),
                 ref_simulate(ss, [1.0], None, 320))


def _first_non_finite(ys):
    comps = _bits(ys).view(float).reshape(-1, 4)
    return int(np.flatnonzero(~np.isfinite(comps).all(axis=1))[0])


@pytest.mark.parametrize("radius, steps, lift", [(3.0, 1000, 8),
                                                 (1.3, 3000, 32)])
def test_lifted_runs_that_diverge_inside_a_block_match_the_loop(
        radius, steps, lift):
    # runs this long are lifted, L steps per product; one whose outputs
    # are not all finite is rerun step by step, bit for bit
    rng = gen.rng_for(1, 755)
    plant = gen.rand_system(rng, 4, radius)
    xp = gen.rand_matrix(rng, 4, 1)
    u = _mixed(rng, steps)
    ctrl = gen.rand_system(rng, 2, 0.5)
    xc = gen.rand_matrix(rng, 2, 1)
    open_loop = simulate(plant, xp, u, steps)
    loop = simulate_feedback(plant, ctrl, xp, xc, u, u[::-1], steps)
    for ys in (open_loop, loop):
        first = _first_non_finite(ys)
        assert 64 < first < steps - lift and first % lift
    _assert_same(open_loop, ref_simulate(plant, xp, u, steps))
    _assert_same(loop, ref_simulate_feedback(plant, ctrl, xp, xc, u,
                                             u[::-1], steps))


def test_signed_zeros_pass_through():
    # y = J u on a state-free system keeps the signs of zero products
    ss = _empty_system(Quaternion(-0.0, 0.0, -0.0, 1.0))
    u = [Quaternion(-0.0, -0.0, 0.0, 0.0), -0.0, 0.0, False,
         Quaternion(0.0, -0.0, -0.0, -0.0)]
    ys = simulate(ss, [], u, 6)
    _assert_same(ys, ref_simulate(ss, [], u, 6))
    assert np.signbit(_bits(ys).view(float)).any()


@pytest.mark.parametrize("count", [-1, 0, 1, 2, 30])
def test_markov_matches_the_plain_edges(count):
    for ss in _systems():
        _assert_same(markov(ss, count), ref_markov(ss, count))


# -- QuatMatrix construction ---------------------------------------------------

@pytest.mark.parametrize("bad", [1 + 2j, np.complex128(1.0), "1", None,
                                 [1.0]])
def test_matrix_rejects_what_coerce_rejects(bad):
    for entries in ([[bad]], [[1.0, bad]], [[1.0], [bad]]):
        with pytest.raises(TypeError):
            QuatMatrix(entries)
    # an entry is checked before the row widths
    with pytest.raises(TypeError):
        QuatMatrix([[1.0, 2.0], [bad]])


def test_matrix_shape_errors_and_empty_rows():
    with pytest.raises(DimensionMismatch):
        QuatMatrix([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch):
        QuatMatrix([[1.0], [2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        QuatMatrix([[1.0, 2.0]], cols=3)
    with pytest.raises(DimensionMismatch):
        QuatMatrix([[], []], cols=1)
    for entries, cols, shape in (([], 3, (0, 3)), ([], None, (0, 0)),
                                 ([[], []], None, (2, 0)),
                                 ([[], []], 0, (2, 0)),
                                 ([[1.0, 2.0]], 2, (1, 2))):
        m = QuatMatrix(entries, cols)
        assert (m.rows, m.cols) == shape
        assert m._z.shape == (*shape, 2) and m._z.dtype == complex
        assert [len(row) for row in m.data] == [shape[1]] * shape[0]


def test_matrix_index_picks_one_entry():
    m = QuatMatrix([[1.0, Quaternion(0.0, 2.0)], [3.0, 4.0]])
    assert m[0, 1] == Quaternion(0.0, 2.0) and m[-1, -1] == 4.0
    for key in (0, (slice(None), 0), (0, slice(None))):
        with pytest.raises(TypeError):
            m[key]


def test_matrix_build_matches_the_plain_build():
    rng = gen.rng_for(1, 760)
    for _ in range(200):
        r, c = rng.integers(0, 6, size=2)
        entries = [_mixed(rng, c) for _ in range(r)]
        for e in rng.integers(max(r * c, 1), size=min(r * c, 3)):
            entries[e // c][e % c] = gen.rand_quat(rng, 10.0 ** rng.integers(
                -300, 300))
        rows = [tuple(row) if rng.random() < 0.5 else row for row in entries]
        m = QuatMatrix(rows, cols=int(c))
        want = _ref_matrix(entries, cols=int(c))
        assert m._z.shape == want.shape
        assert np.array_equal(m._z.view(np.int64), want.view(np.int64))
        got = [q for row in m.data for q in row]
        _assert_same(got, _ref_quaternions(want.reshape(-1, 2)))
        if r and c:
            i, j = rng.integers(r), rng.integers(c)
            _assert_same([m[i, j]], _ref_quaternions(want[i, j][None]))
