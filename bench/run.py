"""qctl benchmark: one workload per process, checked outputs, JSON result.

    python3 bench/run.py --workload design --seed 1 --seconds 10 --trace 0

Workloads are design, simulate, poly and cli (README.md says what each
one exercises), or ``all``, which runs the four in their own processes,
at most as many at a time as the machine has cores.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer figures of a traced run, and the
tracing overhead against an untraced run of the same rounds is printed
above it.

Run from the root of a checkout: qctl is imported from ./src and from
nowhere else.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

# One thread per workload process: every BLAS pool is pinned before numpy
# is imported, and child qctl processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("design", "simulate", "poly", "cli")

# The main loop is cut into segments.  After each one the companion pass
# runs the passing operations of the other workloads once, and a share of
# COMPANION_CLI_PASSES rounds of qctl processes, so that every run reports
# every end-to-end metric and no one stretch of machine speed decides a
# figure.
SEGMENTS = 10
COMPANION_CLI_PASSES = 2
WARM_UP_S = 0.02

SETUP_PROBES = 4
STARTUP_PROBES = 5

END_TO_END = (("setup_s", "s"), ("design_median_s", "s"),
              ("designs_per_s", "1/s"), ("feedback_steps_per_s", "steps/s"),
              ("open_steps_per_s", "steps/s"), ("zeros_median_s", "s"),
              ("solve_median_s", "s"), ("poly_ops_per_s", "1/s"),
              ("cli_s", "s"), ("peak_rss_mb", "MB"))


def import_qctl():
    """Import qctl from this checkout's src/ only; None when it is not
    there (a directory holding just the benchmark)."""
    if not os.path.isfile(os.path.join(SRC, "qctl", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import qctl
    if os.path.dirname(os.path.dirname(os.path.abspath(qctl.__file__))) \
            != SRC:
        return None
    return qctl


def build(seed, workdir):
    """Every workload's operations for this seed.  All four are built in
    every run because the companion pass uses them."""
    import workloads as wl
    return {"design": wl.design_ops(seed),
            "simulate": wl.simulate_ops(seed, wl.feedback_pairs(seed)),
            "poly": wl.poly_ops(seed),
            "cli": wl.cli_ops(seed, workdir, SRC)}


# -- running operations ----------------------------------------------------

class KindStats:
    """Per operation kind: call times by operation label, steps per call,
    and steps attempted and failed."""

    __slots__ = ("times", "steps", "attempted", "failed", "errors")

    def __init__(self):
        self.times = {}
        self.steps = {}
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def all_times(self):
        return [t for ts in self.times.values() for t in ts]


class Stats:
    """Timings, counts and check results of the operations run."""

    def __init__(self):
        self.kinds = {}
        self.unexpected = []
        self.accuracy = {}

    def record(self, op, seconds, error, verdicts):
        ks = self.kinds.setdefault(op.kind, KindStats())
        ks.times.setdefault(op.label, []).append(seconds)
        ks.steps[op.label] = op.steps
        ks.attempted += op.steps
        bad = [v for v in verdicts if v.bad]
        if error is not None or bad:
            ks.failed += op.steps
            why = (type(error).__name__ if error is not None
                   else ",".join(v.name for v in bad))
            key = f"{op.label}: {why}"
            ks.errors[key] = ks.errors.get(key, 0) + 1
            if not op.known_fault and len(self.unexpected) < 20:
                self.unexpected.append(
                    f"{op.label}: {error!r}" if error is not None
                    else f"{op.label}: {bad}")
            return
        for v in verdicts:
            if v.value > self.accuracy.get(v.name, 0.0):
                self.accuracy[v.name] = v.value

    @property
    def op_seconds(self):
        return sum(sum(k.all_times()) for k in self.kinds.values())

    @property
    def attempted(self):
        return sum(k.attempted for k in self.kinds.values())

    @property
    def failed(self):
        return sum(k.failed for k in self.kinds.values())


def run_op(op, stats, call=None):
    """Time one call, then check its result outside the timed region."""
    call = call or op.call
    error, result = None, None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    seconds = time.perf_counter() - t0
    verdicts = op.check(result) if error is None else []
    stats.record(op, seconds, error, verdicts)


def run_rounds(ops, stats, rounds, call_for=None):
    for _ in range(rounds):
        for op in ops:
            run_op(op, stats, call_for(op) if call_for else None)


def run_for(ops, stats, seconds, call_for=None):
    """Whole rounds until ``seconds`` have passed; returns the count."""
    t0 = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - t0 < seconds:
        run_rounds(ops, stats, 1, call_for)
        done += 1
    return done


def warm_up(ops):
    """Untimed calls of ``ops`` for WARM_UP_S.  Right after other work (in
    the cli workload, child processes) the next milliseconds of calls
    sometimes ran twice as slow, most likely from evicted caches."""
    t0 = time.perf_counter()
    for op in ops:
        run_op(op, Stats())
        if time.perf_counter() - t0 >= WARM_UP_S:
            break


def run_inprocess(argv):
    """qctl.cli.main(argv) in this process, stdout captured; same result
    shape as a qctl process."""
    import qctl.cli
    csv_path = argv[argv.index("--csv") + 1] if "--csv" in argv else None
    if csv_path and os.path.exists(csv_path):
        os.remove(csv_path)
    buf = io.StringIO()
    saved, sys.stdout = sys.stdout, buf
    try:
        code = qctl.cli.main(argv)
    finally:
        sys.stdout = saved
    csv_bytes = None
    if csv_path and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
    return code, buf.getvalue(), csv_bytes


def startup_seconds():
    """Time to import qctl.cli in a fresh interpreter, measured inside it."""
    import workloads as wl
    code = ("import time; t = time.perf_counter(); import qctl.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=wl.cli_env(SRC),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def setup_probe_seconds(seed):
    """Set-up time of fresh processes: interpreter start to inputs built."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--seed", str(seed)], capture_output=True, text=True,
            timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


# -- metrics ---------------------------------------------------------------

def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(kinds, setup_s):
    """Each operation's median call time, then the median over the
    operations of a kind; rates are steps per second of a round in which
    every operation takes its median time.  qctl processes all cost about
    the same, so cli_s is the median over every call."""
    def op_medians(*names):
        return [statistics.median(ts) for n in names
                for ts in kinds[n].times.values()]

    def rate(*names):
        steps = sum(sum(kinds[n].steps.values()) for n in names)
        return steps / sum(op_medians(*names))

    values = {
        "setup_s": setup_s,
        "design_median_s": statistics.median(op_medians("design")),
        "designs_per_s": rate("design"),
        "feedback_steps_per_s": rate("feedback"),
        "open_steps_per_s": rate("open"),
        "zeros_median_s": statistics.median(op_medians("zeros")),
        "solve_median_s": statistics.median(op_medians("solve")),
        "poly_ops_per_s": rate("zeros", "gcld", "solve"),
        "cli_s": statistics.median(kinds["process"].all_times()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def print_kinds(stats, title):
    print(f"{title}: operation kind, attempted, failed; median ms per call")
    for name, ks in stats.kinds.items():
        print(f"  {name:9s} {ks.attempted:8d} {ks.failed:8d}")
        for label, ts in ks.times.items():
            print(f"      {label:32s} {1e3 * statistics.median(ts):9.3f}")
        for why, count in sorted(ks.errors.items()):
            print(f"      {count:6d} x {why}")


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")


# -- modes -----------------------------------------------------------------

def untraced(workload, all_ops, seconds, setup_times):
    stats, companion = Stats(), Stats()
    passing = {other: [op for op in all_ops[other] if not op.known_fault]
               for other in WORKLOADS if other != workload}
    processes = passing.pop("cli", []) * COMPANION_CLI_PASSES
    rounds = 0
    t0 = time.perf_counter()
    for segment in range(SEGMENTS):
        rounds += run_for(all_ops[workload], stats, seconds / SEGMENTS)
        for ops in passing.values():
            warm_up(ops)
            run_rounds(ops, companion, 1)
        run_rounds(processes[segment::SEGMENTS], companion, 1)
    print(f"{workload}: {rounds} rounds, {time.perf_counter() - t0:.2f} s "
          "with the companion pass")
    print_kinds(stats, "main loop")
    print_kinds(companion, "companion pass")
    kinds = dict(companion.kinds)
    kinds.update(stats.kinds)
    metrics = end_to_end(kinds, statistics.median(setup_times))
    print_metrics(metrics)
    return stats, stats.unexpected + companion.unexpected, metrics


def traced(workload, all_ops, seconds, spans_path):
    from tracing import Tracer
    import workloads as wl
    ops = all_ops[workload]
    call_for = None
    if workload == "cli":
        def call_for(op):
            return lambda: run_inprocess(op.argv)
    base = Stats()
    rounds = run_for(ops, base, seconds / 2, call_for)
    tracer = Tracer()
    stats = Stats()
    with tracer.patch():
        run_rounds(ops, stats, rounds, call_for)
    if workload == "cli":
        # every cli operation is one process, so each pays one start-up
        tracer.cli_startup = stats.attempted * statistics.median(
            startup_seconds() for _ in range(STARTUP_PROBES))
    tracer.write(spans_path)
    untraced_s, traced_s = base.op_seconds, stats.op_seconds
    print(f"{workload}: {rounds} rounds; operations took {untraced_s:.3f} s "
          f"untraced, {traced_s:.3f} s traced")
    print(f"tracing overhead: {traced_s - untraced_s:.3f} s "
          f"({100.0 * (traced_s / untraced_s - 1.0):.1f}%)")
    print(f"spans: {len(tracer.span_start)} written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    print_kinds(stats, "traced rounds")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in tracer.per_layer(stats.attempted).items()}
    for name in wl.ACCURACY_METRICS:
        metrics[name] = {"value": stats.accuracy.get(name, 0.0),
                         "unit": "ratio"}
    print_metrics(metrics)
    for kind, ks in stats.kinds.items():
        base.kinds[kind].attempted += ks.attempted
        base.kinds[kind].failed += ks.failed
    return base, base.unexpected + stats.unexpected, metrics


def pin_to_one_cpu():
    """Keep this process and its children on the lowest CPU it may use.
    The cli workload sleeps while each child process runs and was moved
    between cores around them: its in-process figures spread by up to 0.2
    between runs, pinned by 0.14.  The in-process workloads stay busy and
    are left to the scheduler, which can move them off a loaded core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_all(args):
    """Each workload in its own process, at most one per CPU at a time."""
    def one(workload):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        return workload, proc

    jobs = max(1, min(len(os.sched_getaffinity(0)), len(WORKLOADS)))
    results = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for workload, proc in pool.map(one, WORKLOADS):
            print(f"== {workload} (exit {proc.returncode})")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                continue
            results[workload] = json.loads(proc.stdout.splitlines()[-1])
    if len(results) != len(WORKLOADS):
        return 1
    metrics = {f"{w}.{name}": m for w, r in results.items()
               for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if import_qctl() is None:
        print(f"error: no qctl package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload == "cli":
        pin_to_one_cpu()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        all_ops = build(args.seed, workdir)
        setup_self = time.perf_counter() - T_START
        if args.setup_probe:
            print(setup_self)
            return 0
        if args.trace:
            spans = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.npz")
            stats, unexpected, metrics = traced(args.workload, all_ops,
                                                args.seconds, spans)
        else:
            setup_times = [setup_self] + setup_probe_seconds(args.seed)
            stats, unexpected, metrics = untraced(
                args.workload, all_ops, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in unexpected:
        print(f"unexpected failure: {line}")
    print(json.dumps({"correct": not unexpected,
                      "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
