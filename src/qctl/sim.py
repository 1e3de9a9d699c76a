"""Time-domain simulation of quaternionic state-space systems.

Every simulation, xfer.markov and tf_left run on one propagation kernel
over the complex adjoint (see qmat.complex_adjoint).  A system is packed
once per call into the adjoint of its block pair array [[F, G], [H, J]]
(see _blocks and qmat), with rows and columns regrouped block by block:

    [[adj F, adj G],
     [adj H, adj J]]

A quaternion column x = x1 + x2 j (x1, x2 complex) is carried as the
first column of its adjoint, the complex vector (x1; -conj x2).  The
adjoint is a ring homomorphism, so adj(F) times that column is the
column of F x, and each step is one complex matrix-vector product;
the outputs of all steps come from one matrix product at the end.
A state stacked from several blocks (plant and controller in a loop)
and an input of several scalars (reference and disturbance) are the
concatenations of the blocks' columns.  The library keeps IEEE
semantics: a diverging run returns inf or nan outputs.

A run of 64 steps or more is lifted (Khargonekar, Poolla & Tannenbaum,
IEEE TAC 30, 1985): the same loop runs on the step matrix of L steps,

    [[F^L,        F^(L-1) G,   ...,  F G,  G],
     [H,          J,           0,    ...,  0],
     [H F,        H G,         J,    ...,  0],
     ...
     [H F^(L-1),  H F^(L-2) G, ...,  H G,  J]]

built by log2 L doublings, so one product advances L steps and one
row of the final product holds L outputs.  The inputs are padded with
zeros to a multiple of L and the outputs cut back to the run's length.
L is 8 below 2,048 steps and 32 from there on.  Shorter runs and
state-free systems keep the step-by-step loop.  A lifted run whose
outputs are not all finite is rerun step by step, so a diverging run
keeps its inf and nan pattern and its first non-finite step.  A lifted
run rounds differently from the step-by-step loop: its outputs agree
to about 1e-15 of their scale on well-conditioned systems and to about
1e-12 on strongly non-normal loops, whose rows H F^j and F^L carry the
transient growth of |F^j|.

A call converts once at each edge.  Each input sequence's coerced
entries are read component by component into one array, written side
by side into one array of adjoint input columns.  The step matrix is
regrouped by index lists, and the loop matrix is filled block by block
into one array.  The outputs come back as Quaternions built straight
from the Python floats of the output array's .tolist(), with no second
coercion.  So the edges are those of the plain per-entry conversions,
bit for bit.

Random initial states come from a self-contained 64-bit linear
congruential generator so runs are reproducible across platforms:

    s <- (6364136223846793005 s + 1442695040888963407) mod 2^64

advanced once per draw, with the top 53 bits mapped to [0, 1) and then
to [-1, 1).  Components are drawn in w, x, y, z order, states in row
order.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DimensionMismatch, IllPosedLoop
from .quat import Quaternion, _coerce, _from_floats
from .qmat import QuatMatrix, _adjoint, _wrap

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

# runs this long or longer advance several steps per product
_LIFT_FROM = 64


class Lcg:
    """Deterministic 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_unit(self) -> float:
        """Advance and return a float in [0, 1) from the top 53 bits."""
        self.state = (_LCG_MUL * self.state + _LCG_INC) & _MASK64
        return (self.state >> 11) / float(1 << 53)

    def next_component(self) -> float:
        """Uniform on [-1, 1)."""
        return 2.0 * self.next_unit() - 1.0


def random_state(n: int, seed: int) -> QuatMatrix:
    """Seeded random n x 1 state with components uniform on [-1, 1).
    Raises ValueError when ``n`` is negative."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    gen = Lcg(seed)
    comps = np.array([gen.next_component() for _ in range(4 * n)])
    return _wrap(comps.reshape(n, 1, 4).view(complex))


def _state_column(x, n: int) -> np.ndarray:
    """The adjoint column (x1; -conj x2) of an n x 1 state given as a
    QuatMatrix or a sequence of entries."""
    col = x if isinstance(x, QuatMatrix) else QuatMatrix(
        [[v] for v in x] if n else [], cols=1)
    if col.rows != n or col.cols != 1:
        raise DimensionMismatch(f"state must be {n} x 1")
    return _adjoint(col._z)[:, 0]


def _input_columns(seqs, steps: int) -> np.ndarray:
    """The adjoint columns (u1, -conj u2) of u(0..steps-1) for each input
    sequence u in ``seqs``, side by side, one row per step; a sequence
    may be None (zero input) and is zero-extended past its end."""
    cols = np.zeros((steps, 2 * len(seqs)), dtype=complex)
    for i, seq in enumerate(seqs):
        if seq is None:
            continue
        head = seq[:steps]
        comps = np.fromiter(chain.from_iterable(map(
            Quaternion.components, map(_coerce, head))), float, 4 * len(head))
        cols[:len(head), 2 * i:2 * i + 2] = comps.view(complex).reshape(-1, 2)
    # -conj flips the sign of the real part only
    np.negative(cols[:, 1::2].real, out=cols[:, 1::2].real)
    return cols


def _blocks(ss) -> np.ndarray:
    """The (n + 1, n + 1, 2) pair array of [[F, G], [H, J]]."""
    n = ss.n
    z = np.empty((n + 1, n + 1, 2), dtype=complex)
    z[:n, :n] = ss.F._z
    z[:n, n:] = ss.G._z
    z[n:, :n] = ss.H._z
    z[n, n] = complex(ss.J.w, ss.J.x), complex(ss.J.y, ss.J.z)
    return z


def _step_matrix(ss) -> np.ndarray:
    """[[adj F, adj G], [adj H, adj J]] of a system, from the adjoint of
    its block pair array."""
    n = ss.n
    # the adjoint lists the F, G rows and columns first and the H, J
    # ones last in each half; regroup the halves block by block
    order = [*range(n), *range(n + 1, 2 * n + 1), n, 2 * n + 1]
    return _adjoint(_blocks(ss)).take(order, 0).take(order, 1)


def _propagate(step, x: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The (steps, 2) pair array of the outputs y(0..steps-1) of the
    adjoint step matrix ``step`` from the adjoint state ``x`` under the
    adjoint inputs, one row per step.

    Row k of ``cols`` holds the state and input columns of step k.  A
    run of at least _LIFT_FROM steps with a state runs on the lifted
    step matrix of L steps instead: row b holds the state of step b L
    and the inputs of steps b L to b L + L - 1, zero past the run's end.
    It is rerun step by step when any of its outputs is not finite."""
    n2, steps = len(x), len(inputs)
    if n2 and steps >= _LIFT_FROM:
        lift = 8 if steps < 2048 else 32
        width = lift * inputs.shape[1]
        full, rest = divmod(inputs.size, width)
        cols = np.zeros((full + bool(rest), n2 + width), dtype=complex)
        flat = inputs.reshape(-1)
        cols[:full, n2:] = flat[:full * width].reshape(full, width)
        cols[full:, n2:n2 + rest] = flat[full * width:]
        cols[0, :n2] = x
        out = _run(_lifted(step, n2, lift), cols, n2)
        out = out.reshape(-1, 2)[:steps]
        if np.isfinite(out).all():
            return _pairs(out)
    cols = np.empty((steps, n2 + inputs.shape[1]), dtype=complex)
    cols[:, n2:] = inputs
    if steps:
        cols[0, :n2] = x
    return _pairs(_run(step, cols, n2))


def _run(step, cols: np.ndarray, n2: int) -> np.ndarray:
    """The output columns of ``step``, one row per row of ``cols``: the
    state part (the first n2 columns) of each row after the first is
    written here, one matrix-vector product of the row before."""
    advance = step[:n2].dot
    # IEEE semantics, as in scalar arithmetic: a diverging run yields
    # inf and nan without numpy's floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for now, state in zip(cols, cols[1:, :n2]):
            advance(now, out=state)
        return cols @ step[n2:].T


def _pairs(out: np.ndarray) -> np.ndarray:
    """y = y1 + y2 j back from its output column (y1, -conj y2), in
    place: -conj flips the sign of the real part only."""
    np.negative(out[:, 1].real, out=out[:, 1].real)
    return out


def _lifted(step, n2: int, lift: int) -> np.ndarray:
    """The step matrix of ``lift`` steps of ``step`` (a power of two),
    by doublings: state rows [F^L | F^(L-1) G, ..., F G, G] and output
    row block i [H F^i | H F^(i-1) G, ..., H G, J, 0, ..., 0], in the
    blocks F, G, H, J of ``step``; the input columns of each step follow
    those of the step before."""
    s = step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(lift.bit_length() - 1):
            rows, cols = s.shape
            # the rows of the later half: each row's state part carried
            # through the first half
            head = s[:, :n2] @ s[:n2]
            out = np.empty((2 * rows - n2, 2 * cols - n2), dtype=complex)
            out[:n2, :cols] = head[:n2]
            out[:n2, cols:] = s[:n2, n2:]
            out[n2:rows, :cols] = s[n2:]
            out[n2:rows, cols:] = 0.0
            out[rows:, :cols] = head[n2:]
            out[rows:, cols:] = s[n2:, n2:]
            s = out
    return s


def _quaternions(pairs: np.ndarray):
    """The rows of a pair array as a list of Quaternions."""
    return list(map(_from_floats, pairs.view(float).tolist()))


def _impulse_response(step, steps: int) -> np.ndarray:
    """y(0..steps-1) of the adjoint step matrix ``step`` from x = 0 under
    a unit impulse: J, H G, H F G, ..."""
    inputs = np.zeros((steps, 2), dtype=complex)
    inputs[:1, 0] = 1.0
    return _propagate(step, np.zeros(len(step) - 2, complex), inputs)


def _check_steps(steps: int):
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")


def simulate(ss, x0, u, steps: int):
    """Outputs y(0..steps-1) of x(k+1) = F x(k) + G u(k),
    y(k) = H x(k) + J u(k).

    ``u`` may be None (zero input) or a sequence, zero-extended past
    its end.  Raises ValueError when ``steps`` is negative.
    """
    _check_steps(steps)
    x = _state_column(x0, ss.n)
    return _quaternions(_propagate(_step_matrix(ss), x,
                                   _input_columns([u], steps)))


def simulate_feedback(plant, controller, x0_plant, x0_ctrl, v, w,
                      steps: int):
    """Outputs of the loop y = (plant) u + w with u = v - (controller) y.

    The static part
        (1 + J_p J_c) y = H_p x_p + J_p (v(k) - H_c x_c) + w(k)
    is solved for y once, as a row of the closed-loop step matrix with
    state (x_p, x_c) and inputs (v, w); u(k) = v(k) - (H_c x_c + J_c y)
    feeds the plant and y the controller.  Raises IllPosedLoop when
    1 + J_p J_c is not invertible and ValueError when ``steps`` is
    negative.
    """
    gain = Quaternion(1.0) + plant.J * controller.J
    if gain.norm() <= 1e-12 * (1.0 + plant.J.norm() * controller.J.norm()):
        raise IllPosedLoop("1 + J_plant J_ctrl is not invertible")
    _check_steps(steps)
    x = np.concatenate([_state_column(x0_plant, plant.n),
                        _state_column(x0_ctrl, controller.n)])
    return _quaternions(_propagate(
        _loop_matrix(plant, controller, gain.inverse()), x,
        _input_columns([v, w], steps)))


def _loop_matrix(plant, controller, gain_inv: Quaternion) -> np.ndarray:
    """Adjoint step matrix of the closed loop, state (x_p, x_c), inputs
    (v, w), output y; products of adjoints are adjoints of products."""
    sp, sc = _step_matrix(plant), _step_matrix(controller)
    p, c = 2 * plant.n, 2 * controller.n
    Fp, Gp, Hp, Jp = sp[:p, :p], sp[:p, p:], sp[p:, :p], sp[p:, p:]
    Fc, Gc, Hc, Jc = sc[:c, :c], sc[:c, c:], sc[c:, :c], sc[c:, c:]
    g1, g2 = complex(gain_inv.w, gain_inv.x), complex(gain_inv.y, gain_inv.z)
    g = np.array([[g1, g2], [-g2.conjugate(), g1.conjugate()]])
    # rows x_p(k+1), x_c(k+1), y(k); columns x_p, x_c, v, w
    out = np.empty((p + c + 2, p + c + 4), dtype=complex)
    xp, xc, y = out[:p], out[p:p + c], out[p + c:]
    gJp = g @ Jp
    y[:, :p] = g @ Hp
    y[:, p:p + c] = -gJp @ Hc
    y[:, p + c:p + c + 2] = gJp
    y[:, p + c + 2:] = g
    u = np.zeros((2, p + c + 4), dtype=complex)
    u[:, p:p + c] = -Hc
    u[:, p + c:p + c + 2] = np.eye(2)
    u -= Jc @ y
    xp[:] = Gp @ u
    xp[:, :p] += Fp
    xc[:] = Gc @ y
    xc[:, p:p + c] += Fc
    return out
