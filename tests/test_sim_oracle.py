"""simulate, simulate_feedback and markov against the stepwise
complex-pair simulator of oracle.py, which shares no arithmetic with
qctl."""

import pytest

from qctl import markov, simulate, simulate_feedback
import gen
import oracle

TOL = 1e-12


def _state(rng, n):
    return gen.rand_matrix(rng, n, 1)


@pytest.mark.parametrize("n", [0, 1, 4, 16])
def test_simulate_matches_oracle(n):
    rng = gen.rng_for(700 + n)
    ss = gen.rand_system(rng, n, radius=0.9)
    assert ss.J.norm() > 0.0
    x0 = _state(rng, n)
    u = [gen.rand_quat(rng) for _ in range(17)]
    steps = 60
    ys = simulate(ss, x0, u, steps)
    x = oracle.matrix_pair(x0)
    want = oracle.simulate(oracle.system_pair(ss), (x[0][:, 0], x[1][:, 0]),
                           [oracle.quat_pair(q) for q in u], steps)
    assert oracle.seq_rel_err(ys, want) <= TOL


def test_simulate_feedback_matches_oracle():
    rng = gen.rng_for(720)
    plant = gen.rand_system(rng, 4, radius=0.8)
    ctrl = gen.rand_system(rng, 3, radius=0.8)
    assert (plant.J * ctrl.J).norm() > 0.1
    xp, xc = _state(rng, 4), _state(rng, 3)
    v = [gen.rand_quat(rng) for _ in range(11)]
    w = [gen.rand_quat(rng) for _ in range(23)]
    steps = 40
    ys = simulate_feedback(plant, ctrl, xp, xc, v, w, steps)
    xp_, xc_ = oracle.matrix_pair(xp), oracle.matrix_pair(xc)
    want = oracle.simulate_feedback(
        oracle.system_pair(plant), oracle.system_pair(ctrl),
        (xp_[0][:, 0], xp_[1][:, 0]), (xc_[0][:, 0], xc_[1][:, 0]),
        [oracle.quat_pair(q) for q in v], [oracle.quat_pair(q) for q in w],
        steps)
    assert oracle.seq_rel_err(ys, want) <= TOL


def test_markov_matches_oracle_at_16_states():
    ss = gen.rand_system(gen.rng_for(730), 16)
    count = 4 * 16 + 5
    assert oracle.seq_rel_err(markov(ss, count),
                              oracle.markov(oracle.system_pair(ss),
                                            count)) <= TOL
