"""place_poles on n-state plants with spaced non-real targets, judged
by the complex-pair arithmetic of oracle.py.

Plants and targets are those of the benchmark's design workload, drawn
from the streams 100 + n and 200 + n of seeds 1-10.  At n = 12 the
closed loop depends on a target polynomial whose coefficients span
about |target|^n, which is where a loop read back through fraction
conversions loses the target classes.
"""

import numpy as np
import pytest

from qctl import markov, place_poles, realize, series
import gen
import oracle

SEEDS = range(1, 11)
CLASS_TOL = 1e-6
MARKOV_TOL = 1e-10


def _design(n, seed):
    plant = gen.plant_system(gen.rng_for(seed, 100 + n), n)
    targets = gen.spaced_nonreal(gen.rng_for(seed, 200 + n), n)
    return plant, targets, place_poles(plant, targets)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
def test_closed_loop_classes_are_the_inverse_targets(n):
    misses = []
    for seed in SEEDS:
        _, targets, res = _design(n, seed)
        classes = oracle.right_eig_classes(
            oracle.matrix_pair(res.closed_loop.F))
        assert len(classes) == 2 * n - 1, seed
        moving = [cl for cl in classes if np.hypot(*cl) > CLASS_TOL]
        want = [oracle.inverse_class(oracle.quat_pair(z)) for z in targets]
        err = oracle.class_distance(moving, want)
        if not (err <= CLASS_TOL and res.stable is True):
            misses.append((seed, err, res.stable))
    assert not misses


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
def test_closed_loop_markov_matches_feedback_simulation(n):
    # t_w is the map from an output disturbance w to y, so its Markov
    # parameters are the loop's response to a unit impulse in w
    count = 3 * n + 3
    for seed in SEEDS:
        plant, _, res = _design(n, seed)
        ctrl = realize(res.controller)
        want = oracle.simulate_feedback(
            oracle.system_pair(plant), oracle.system_pair(ctrl),
            (np.zeros(plant.n, complex), np.zeros(plant.n, complex)),
            (np.zeros(ctrl.n, complex), np.zeros(ctrl.n, complex)),
            [], [(1.0 + 0j, 0j)], count)
        err = oracle.seq_rel_err(markov(res.closed_loop, count), want)
        assert err <= MARKOV_TOL, (seed, err)


def test_sixteen_state_design_decides_stability():
    # the adjoint spectrum of this closed loop does not pair into
    # conjugates at 1e-8; the verdict needs only its norms
    _, _, res = _design(16, 7)
    assert res.stable is True


def test_lazy_t_w_series_matches_the_closed_loop():
    # t_w is read back through right_to_left(p, c) and the cancellation of
    # LeftFraction, which the design itself never runs
    n, count = 12, 36
    misses = []
    for seed in SEEDS:
        _, _, res = _design(n, seed)
        want = oracle.markov(oracle.system_pair(res.closed_loop), count)
        err = oracle.seq_rel_err(series(res.t_w, count), want)
        if not err <= 1e-6:
            misses.append((seed, err))
    assert not misses
