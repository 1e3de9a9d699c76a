"""Interleaved in-process A/B timing of two qctl trees on the bench's ops.

    python3 tools/ab_inprocess.py --base ../parent --workload design \
        --seconds 10

Copies the src/qctl of another checkout (``--base``) and of this one
(head) into a temporary directory as the packages qctl_base and
qctl_head, and builds the ``design``, ``simulate`` or ``poly`` ops of
bench/workloads.py once per side, from the same bench/inputs.py
component arrays (this checkout's bench/, which is only read); the
simulate ops run the loops each side designs at set-up.  Every round
calls each op once on each side, in a random order, until ``--seconds``
have passed.  It prints each op's median time per side and their ratio;
each kind's rate per side, as the bench reads it (steps of the kind's
ops over the sum of their medians: simulation steps, designs or
polynomial calls per second); each side's round time (the sum of its op
medians); and, on the last line, the speed-up: base round over head
round.

An op may raise (the bench counts known faults); each call's outcome,
the exception type or none, is recorded.  An op whose outcomes differ
between the sides is flagged ``DIFFERS`` and left out of the round
sums, so a head that fails early is not read as a speed-up.

Both sides share one process, one machine state and one stretch of
time, so a drift in the host's speed moves both alike.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SIDES = ("base", "head")


def load_side(name, checkout, tmp):
    """The bench ops module of one side: workloads and inputs imported
    afresh with ``qctl`` bound to that side's copy of src/qctl."""
    shutil.copytree(os.path.join(checkout, "src", "qctl"),
                    os.path.join(tmp, f"qctl_{name}"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(f"qctl_{name}")
    for mod in ("qctl", "inputs", "workloads"):
        sys.modules.pop(mod, None)
    sys.modules["qctl"] = pkg
    try:
        return importlib.import_module("workloads")
    finally:
        for mod in ("qctl", "inputs", "workloads"):
            sys.modules.pop(mod, None)


def timed(call):
    """(seconds, outcome) of one call: the type name of the exception it
    raised, or None when it returned."""
    start = time.perf_counter()
    try:
        call()
    except Exception as exc:  # known-fault ops raise; their time counts
        return time.perf_counter() - start, type(exc).__name__
    return time.perf_counter() - start, None


def _outcomes(seen):
    return ", ".join(sorted(name or "returned" for name in seen))


def run(args):
    sys.path.insert(0, BENCH)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        ops = {}
        for side, checkout in zip(SIDES, (args.base, ROOT)):
            workloads = load_side(side, os.path.abspath(checkout), tmp)
            if args.workload == "simulate":
                ops[side] = workloads.simulate_ops(
                    args.seed, workloads.feedback_pairs(args.seed))
            else:
                ops[side] = getattr(workloads, f"{args.workload}_ops")(
                    args.seed)
        labels = [op.label for op in ops["base"]]
        assert labels == [op.label for op in ops["head"]]
        calls = [(side, i) for side in SIDES for i in range(len(labels))]
        times = {call: [] for call in calls}
        outcomes = {call: {timed(ops[call[0]][call[1]].call)[1]}
                    for call in calls}  # the warm-up call
        order = random.Random(0)
        end = time.perf_counter() + args.seconds
        rounds = 0
        while not rounds or time.perf_counter() < end:
            order.shuffle(calls)
            for side, i in calls:
                seconds, outcome = timed(ops[side][i].call)
                times[side, i].append(seconds)
                outcomes[side, i].add(outcome)
            rounds += 1
    medians = {call: statistics.median(t) for call, t in times.items()}
    same = [outcomes["base", i] == outcomes["head", i]
            for i in range(len(labels))]
    print(f"{args.workload}, seed {args.seed}, {rounds} rounds")
    print(f"{'op':32s} {'base ms':>10s} {'head ms':>10s} {'head/base':>10s}")
    for i, label in enumerate(labels):
        b, h = medians["base", i], medians["head", i]
        flag = "" if same[i] else (
            f"  DIFFERS: base {_outcomes(outcomes['base', i])}, "
            f"head {_outcomes(outcomes['head', i])}")
        print(f"{label:32s} {1e3 * b:10.4f} {1e3 * h:10.4f} {h / b:10.4f}"
              f"{flag}")
    kinds = {}
    for i, op in enumerate(ops["base"]):
        if same[i]:
            kinds.setdefault(op.kind, []).append(i)
    for kind, idx in kinds.items():
        steps = sum(ops["base"][i].steps for i in idx)
        b, h = (steps / sum(medians[side, i] for i in idx) for side in SIDES)
        print(f"{kind} per s: base {b:,.0f}, head {h:,.0f}, "
              f"head/base {h / b:.4f}")
    base, head = (sum(medians[side, i] for i in range(len(labels))
                      if same[i]) for side in SIDES)
    print(f"round ms ({sum(same)} of {len(labels)} ops whose outcomes "
          f"agree): base {1e3 * base:.4f}, head {1e3 * head:.4f}")
    print(f"speed-up (base round / head round): {base / head:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--workload", default="design",
                        choices=("design", "simulate", "poly"))
    parser.add_argument("--seed", type=int, default=1,
                        help="the bench's input seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
