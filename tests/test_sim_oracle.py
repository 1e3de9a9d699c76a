"""simulate, simulate_feedback and markov against the stepwise
complex-pair simulator of oracle.py, which shares no arithmetic with
qctl."""

import pytest

from qctl import (Quaternion, markov, place_poles, realize, simulate,
                  simulate_feedback)
from qctl import sim
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


# -- lifted runs: 64 steps or more advance several steps per product ----------

def _col(x):
    pair = oracle.matrix_pair(x)
    return pair[0][:, 0], pair[1][:, 0]


def _design_loops(ns=(1, 2, 4, 6, 8), seeds=range(1, 11)):
    """Plant, controller and random states of designed closed loops, by
    default at n = 1, 2, 4, 6 and 8 and seeds 1-10.  These loops are far
    from normal: |F^j| grows to about 100 before it decays."""
    for n in ns:
        for seed in seeds:
            rng = gen.rng_for(seed, 720 + n)
            plant = gen.plant_system(rng, n)
            ctrl = realize(place_poles(plant,
                                       gen.spaced_nonreal(rng, n)).controller)
            yield plant, ctrl, _state(rng, plant.n), _state(rng, ctrl.n)


def test_lifted_feedback_runs_match_oracle_on_design_loops():
    steps = 200
    v = [Quaternion(1.0)] * steps
    for plant, ctrl, xp, xc in _design_loops():
        ys = simulate_feedback(plant, ctrl, xp, xc, v, None, steps)
        want = oracle.simulate_feedback(
            oracle.system_pair(plant), oracle.system_pair(ctrl), _col(xp),
            _col(xc), [oracle.quat_pair(q) for q in v], [], steps)
        assert oracle.seq_rel_err(ys, want) <= TOL


@pytest.mark.parametrize("n", [4, 16])
def test_lifted_runs_match_oracle_at_2000_steps(n):
    rng = gen.rng_for(770 + n)
    ss = gen.rand_system(rng, n, radius=0.9)
    x0 = _state(rng, n)
    u = [gen.rand_quat(rng) for _ in range(1500)]
    steps = 2000
    want = oracle.simulate(oracle.system_pair(ss), _col(x0),
                           [oracle.quat_pair(q) for q in u], steps)
    assert oracle.seq_rel_err(simulate(ss, x0, u, steps), want) <= TOL


def _same_to_tol(got, want):
    assert len(got) == len(want)
    return oracle.seq_rel_err(got, [oracle.quat_pair(q) for q in want])


@pytest.mark.parametrize("n", [4, 16])
def test_lifted_runs_match_the_stepwise_loop_at_10k_steps(n, monkeypatch):
    rng = gen.rng_for(780 + n)
    ss = gen.rand_system(rng, n, radius=0.9)
    x0 = _state(rng, n)
    u = [gen.rand_quat(rng) for _ in range(9999)]
    steps = 10 ** 4
    lifted = simulate(ss, x0, u, steps)
    monkeypatch.setattr(sim, "_LIFT_FROM", steps + 1)
    assert _same_to_tol(lifted, simulate(ss, x0, u, steps)) <= TOL


def test_lifted_feedback_runs_match_the_stepwise_loop_at_10k_steps(
        monkeypatch):
    # Under random reference and disturbance inputs a lifted design loop
    # rounds up to about 1.5e-12 of its scale away from the stepwise
    # loop (1e-13 and below is typical): F^L and H F^j are formed by
    # products whose factors carry the loops' transient growth, |F^4|
    # about 100 at spectral radius 0.56.  The bound states that cost.
    steps = 10 ** 4
    rng = gen.rng_for(785)
    v = [gen.rand_quat(rng) for _ in range(steps)]
    w = v[::-1]
    loops = list(_design_loops(ns=(4, 8), seeds=(1, 2, 3, 4)))
    lifted = [simulate_feedback(*loop, v, w, steps) for loop in loops]
    monkeypatch.setattr(sim, "_LIFT_FROM", steps + 1)
    for loop, got in zip(loops, lifted):
        assert _same_to_tol(
            got, simulate_feedback(*loop, v, w, steps)) <= 1e-11


def test_markov_matches_oracle_at_200_parameters():
    ss = gen.rand_system(gen.rng_for(790), 6)
    assert oracle.seq_rel_err(markov(ss, 200),
                              oracle.markov(oracle.system_pair(ss),
                                            200)) <= TOL
