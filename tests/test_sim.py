import pytest

from qctl import (ONE, ZERO, I, J, K, DimensionMismatch, IllPosedLoop,
                  Lcg, QuatMatrix, Quaternion, StateSpace, markov,
                  place_poles, random_state, realize, series, simulate,
                  simulate_feedback, tf_left)

PLANT = StateSpace(QuatMatrix([[ONE, I], [J, K]]),
                   QuatMatrix([[I], [ZERO]]),
                   QuatMatrix([[ONE, ZERO]]),
                   ZERO)

_MUL = 6364136223846793005
_INC = 1442695040888963407


def test_lcg_recurrence_and_range():
    gen = Lcg(42)
    state = 42
    for _ in range(10):
        state = (_MUL * state + _INC) & ((1 << 64) - 1)
        want = (state >> 11) / float(1 << 53)
        got = gen.next_unit()
        assert got == want
        assert 0.0 <= got < 1.0


def test_lcg_determinism_and_component_range():
    a = Lcg(7)
    b = Lcg(7)
    for _ in range(20):
        x = a.next_component()
        assert x == b.next_component()
        assert -1.0 <= x < 1.0
    assert Lcg(7).next_unit() != Lcg(8).next_unit()


def test_random_state_layout():
    x = random_state(2, 11)
    gen = Lcg(11)
    for i in range(2):
        comps = [gen.next_component() for _ in range(4)]
        assert x[i, 0] == Quaternion(*comps)
    assert x.rows == 2 and x.cols == 1
    again = random_state(2, 11)
    assert x == again


def test_random_state_rejects_negative_size():
    with pytest.raises(ValueError):
        random_state(-1, 11)
    empty = random_state(0, 11)
    assert (empty.rows, empty.cols) == (0, 1)


def test_simulate_zero_everything():
    ys = simulate(PLANT, QuatMatrix.zeros(2, 1), None, 5)
    assert ys == [ZERO] * 5


def test_simulate_impulse_reproduces_markov():
    ys = simulate(PLANT, QuatMatrix.zeros(2, 1), [1.0], 8)
    assert ys == markov(PLANT, 8)


def test_simulate_accepts_state_list_and_checks_shape():
    ys = simulate(PLANT, [I, J], None, 1)
    assert ys[0] == I
    with pytest.raises(DimensionMismatch):
        simulate(PLANT, [I], None, 1)


def test_simulate_feedthrough_and_input_extension():
    ss = StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                    QuatMatrix.zeros(1, 0), K)
    ys = simulate(ss, QuatMatrix.zeros(0, 1), [I, J], 4)
    assert ys == [K * I, K * J, ZERO, ZERO]


def _zero_controller():
    return StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                      QuatMatrix.zeros(1, 0), ZERO)


def test_feedback_with_zero_controller_is_open_loop():
    zeros2 = QuatMatrix.zeros(2, 1)
    zeros0 = QuatMatrix.zeros(0, 1)
    ys = simulate_feedback(PLANT, _zero_controller(), zeros2, zeros0,
                           [1.0], None, 8)
    assert ys == markov(PLANT, 8)


def test_feedback_impulses_match_designed_responses():
    res = place_poles(PLANT, [3.0, 4.0])
    ctrl = realize(res.controller)
    zeros_p = QuatMatrix.zeros(PLANT.n, 1)
    zeros_c = QuatMatrix.zeros(ctrl.n, 1)
    count = 25
    ys = simulate_feedback(PLANT, ctrl, zeros_p, zeros_c,
                           [1.0], None, count)
    want = series(res.t_v, count)
    for got, ref in zip(ys, want):
        assert (got - ref).norm() <= 1e-6 * max(1.0, ref.norm())
    ys = simulate_feedback(PLANT, ctrl, zeros_p, zeros_c,
                           None, [1.0], count)
    want = series(res.t_w, count)
    for got, ref in zip(ys, want):
        assert (got - ref).norm() <= 1e-6 * max(1.0, ref.norm())


def test_feedback_decays_from_random_state():
    res = place_poles(PLANT, [3.0, 4.0])
    ctrl = realize(res.controller)
    xp = random_state(PLANT.n, 3)
    xc = random_state(ctrl.n, 4)
    ys = simulate_feedback(PLANT, ctrl, xp, xc, None, None, 60)
    norms = [y.norm() for y in ys]
    assert norms[-1] <= 1e-6 * max(norms)


def test_feedback_ill_posed_loop():
    plant = StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                       QuatMatrix.zeros(1, 0), I)
    ctrl = StateSpace(QuatMatrix.zeros(0, 0), QuatMatrix.zeros(0, 1),
                      QuatMatrix.zeros(1, 0), I)
    with pytest.raises(IllPosedLoop):
        simulate_feedback(plant, ctrl, QuatMatrix.zeros(0, 1),
                          QuatMatrix.zeros(0, 1), [1.0], None, 3)


def test_negative_steps_raise_and_zero_steps_are_empty():
    zeros2 = QuatMatrix.zeros(2, 1)
    zeros0 = QuatMatrix.zeros(0, 1)
    with pytest.raises(ValueError):
        simulate(PLANT, zeros2, None, -3)
    with pytest.raises(ValueError):
        simulate_feedback(PLANT, _zero_controller(), zeros2, zeros0,
                          None, None, -3)
    assert simulate(PLANT, zeros2, None, 0) == []
    assert simulate_feedback(PLANT, _zero_controller(), zeros2, zeros0,
                             None, None, 0) == []
