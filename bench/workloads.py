"""The operations of each workload and the checks of their outputs.

An Op is one timed call into qctl (or one qctl process) plus a check
that judges its result with ref.py alone.  A check returns Verdicts
(name, value, limit); the operation fails when any value exceeds its
limit or the call raised.  Verdict names that are listed in
ACCURACY_METRICS double as the accuracy figures of the traced run.

A round is the fixed list of operations of a workload.  A run repeats
whole rounds, so the share of failed operations does not depend on the
run length.  Operations marked known_fault use fixed inputs that show a
fault named in README.md; any other failure makes the run incorrect.
"""

import functools
import os
import re
import subprocess
import sys

import numpy as np

import inputs as gen
import ref

# Timed calls go through the qctl namespace at call time, so that the
# traced run sees them.
import qctl

ACCURACY_METRICS = ("xfer.markov_err", "design.residual", "design.pole_err",
                    "qpoly.zero_residual", "sim.output_err")

# Relative tolerances of the checks.  Passing outputs sit several orders
# of magnitude below them (see README.md, "Checks").
MARKOV_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# Euclid on degree-64 pairs keeps fewer digits: up to 8e-10 seen over 300
# seeded pairs.
SOLVE_TOL = 1e-7
CLASS_TOL = 1e-6
SIM_TOL = 1e-9
CLI_DIGITS_TOL = 1e-4


class Verdict:
    __slots__ = ("name", "value", "limit")

    def __init__(self, name, value, limit):
        self.name = name
        self.value = float(value)
        self.limit = limit

    @property
    def bad(self):
        return not self.value <= self.limit

    def __repr__(self):
        return f"{self.name}={self.value:.3g} (limit {self.limit:g})"


def flag(name, ok):
    return Verdict(name, 0.0 if ok else 1.0, 0.0)


class Op:
    """One operation: ``call()`` is timed, ``check(result)`` is not.

    ``steps`` is the number of top-level operations the call stands for
    (simulation steps for the simulate workload, 1 otherwise).  ``argv``
    is set for qctl processes, which the traced run replays in-process.
    """

    __slots__ = ("kind", "label", "call", "check", "steps", "known_fault",
                 "argv")

    def __init__(self, kind, label, call, check, steps=1, known_fault=False,
                 argv=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.steps = steps
        self.known_fault = known_fault
        self.argv = argv


# -- design ----------------------------------------------------------------

def check_design(plant_comps, target_comps, res):
    """Plant fraction vs H F^(k-1) G, c vs prod (z_i - d), a p + b q = c,
    closed-loop classes vs inverse targets, and the stable verdict."""
    F, G, H, J = gen.system_pairs(plant_comps)
    n = F[0].shape[0]
    count = 3 * n + 3
    want = [(J[0], J[1])] + ref.markov(F, G, H, count - 1)
    a, b = ref.poly_pair(res.plant.den), ref.poly_pair(res.plant.num)
    got = ref.left_series(a, b, count)
    scale = max(1.0, max(float(ref.norm(m)) for m in want))
    markov_err = max(float(ref.norm(ref.sub(x, y)))
                     for x, y in zip(got, want)) / scale

    zs = [ref.pair(z) for z in target_comps]
    c_ref = ref.linear_factor_product(zs)
    c = ref.poly_pair(res.c)
    c_err = (ref.coeff_norm_max(ref.polysub(c, c_ref))
             / max(1.0, ref.coeff_norm_max(c_ref)))

    ap = ref.polymul(a, ref.poly_pair(res.p))
    bq = ref.polymul(b, ref.poly_pair(res.q))
    resid = (ref.coeff_norm_max(ref.polysub(ref.polyadd(ap, bq), c_ref))
             / max(1.0, ref.coeff_norm_max(ap), ref.coeff_norm_max(bq),
                   ref.coeff_norm_max(c_ref)))

    classes = ref.right_eig_classes(ref.matrix_pair(res.closed_loop.F))
    moving = [cl for cl in classes if np.hypot(*cl) > CLASS_TOL]
    inverse = []
    for z in zs:
        re_, im = ref.class_of(z)
        n2 = re_ * re_ + im * im
        inverse.append((re_ / n2, im / n2))
    return [Verdict("xfer.markov_err", markov_err, MARKOV_TOL),
            Verdict("design.target_err", c_err, RESIDUAL_TOL),
            Verdict("design.residual", resid, RESIDUAL_TOL),
            Verdict("design.pole_err", ref.class_distance(moving, inverse),
                    CLASS_TOL),
            flag("design.stable", res.stable is True)]


def design_op(label, plant_comps, target_comps, known_fault=False):
    plant = gen.to_system(plant_comps)
    targets = [gen.to_quat(z) for z in target_comps]
    return Op("design", label, lambda: qctl.place_poles(plant, targets),
              lambda res: check_design(plant_comps, target_comps, res),
              known_fault=known_fault)


def plant_and_targets(seed, stream, n, kind):
    """A seeded plant and n spaced targets, real or non-real."""
    rng = gen.rng_for(seed, stream)
    targets = gen.spaced_real if kind == "real" else gen.spaced_nonreal
    return gen.plant_comps(rng, n), targets(rng, n)


def design_ops(seed):
    ops = [design_op("worked", gen.WORKED_PLANT, gen.WORKED_TARGETS)]
    for n, kind in ((2, "real"), (2, "nonreal"), (4, "nonreal"),
                    (8, "nonreal")):
        ops.append(design_op(f"n{n}-{kind}", *plant_and_targets(
            seed, 100 + 10 * n + (kind == "real"), n, kind)))
    # Real targets beyond n = 2 hit the right_zeros class fault (README,
    # fault 1) on about half the seeds at n = 4 and most at n = 8, so
    # they come from the fixed seed.
    for i, n in enumerate((4, 4, 8)):
        ops.append(design_op(f"fixed-n{n}-real-{i}", *plant_and_targets(
            gen.FIXED_SEED, 150 + i, n, "real"), known_fault=True))
    return ops


# -- simulate --------------------------------------------------------------

FEEDBACK_STEPS = 200
OPEN_STEPS = {4: 200, 16: 60}


def feedback_pairs(seed):
    """Plant/controller pairs from passing designs with n <= 4, built at
    set-up: the worked plant and seeded n = 2 and n = 4 plants."""
    pairs = [("worked", gen.WORKED_PLANT, gen.WORKED_TARGETS)]
    for n, kind in ((2, "real"), (4, "nonreal")):
        pairs.append((f"n{n}-{kind}",
                      *plant_and_targets(seed, 200 + n, n, kind)))
    out = []
    for i, (label, plant_comps, target_comps) in enumerate(pairs):
        plant = gen.to_system(plant_comps)
        res = qctl.place_poles(plant,
                               [gen.to_quat(z) for z in target_comps])
        ctrl = qctl.realize(res.controller)
        rng = gen.rng_for(seed, 210 + i)
        out.append((label, plant, ctrl, gen.rand_comps(rng, (plant.n, 1)),
                    gen.rand_comps(rng, (ctrl.n, 1))))
    return out


def check_outputs(ys, want):
    got = ref.quats_pair(ys)
    if len(got[0]) != len(want[0]):
        return [flag("sim.length", False)]
    scale = max(1.0, float(np.max(ref.norm(want))))
    return [Verdict("sim.output_err",
                    float(np.max(ref.norm(ref.sub(got, want)))) / scale,
                    SIM_TOL)]


def _system_pair_of(ss):
    return (ref.matrix_pair(ss.F), ref.matrix_pair(ss.G),
            ref.matrix_pair(ss.H), ref.pair(np.array(ref.qcomps(ss.J))))


def feedback_op(label, plant, ctrl, xp, xc):
    """The loop under a unit step reference v, from states xp and xc."""
    step = [gen.to_quat([1.0, 0, 0, 0])] * FEEDBACK_STEPS
    x0p, x0c = gen.to_matrix(xp), gen.to_matrix(xc)
    want = functools.cache(lambda: ref.simulate_feedback(
        _system_pair_of(plant), _system_pair_of(ctrl), ref.pair(xp),
        ref.pair(xc), FEEDBACK_STEPS, 1.0))
    return Op("feedback", f"feedback-{label}",
              lambda: qctl.simulate_feedback(plant, ctrl, x0p, x0c, step,
                                             None, FEEDBACK_STEPS),
              lambda ys: check_outputs(ys, want()), steps=FEEDBACK_STEPS)


def open_op(rng, n, steps):
    """A stable n-state system under a unit step input."""
    comps = gen.stable_system_comps(rng, n)
    x0 = gen.rand_comps(rng, (n, 1))
    ss, x0q = gen.to_system(comps), gen.to_matrix(x0)
    u = [gen.to_quat([1.0, 0, 0, 0])] * steps
    ones = (np.ones(steps, complex), np.zeros(steps, complex))
    want = functools.cache(lambda: ref.simulate(
        *gen.system_pairs(comps), ref.pair(x0), ones, steps))
    return Op("open", f"open-n{n}", lambda: qctl.simulate(ss, x0q, u, steps),
              lambda ys: check_outputs(ys, want()), steps=steps)


def simulate_ops(seed, pairs):
    """Reference outputs are computed at the first check, not at set-up."""
    ops = [feedback_op(*pair) for pair in pairs]
    ops += [open_op(gen.rng_for(seed, 300 + n), n, steps)
            for n, steps in OPEN_STEPS.items()]
    return ops


# -- poly ------------------------------------------------------------------

def check_zeros(coeffs, report, classes=None):
    """Relative residual of each reported zero (a spherical class is
    checked at its representative re + im i), zero count with
    multiplicity equal to the degree, and, for products of prescribed
    factors, the multiset of classes."""
    p = ref.pair(coeffs)
    points = [ref.pair(np.array(ref.qcomps(z))) for z, _ in report.isolated]
    points += [ref.pair(np.array([cl.re, cl.im_norm, 0.0, 0.0]))
               for cl in report.spherical]
    worst = 0.0
    for z in points:
        resid, scale = ref.eval_right(p, z)
        worst = max(worst, resid / scale)
    count = len(report.isolated) + 2 * len(report.spherical)
    out = [Verdict("qpoly.zero_residual", worst, RESIDUAL_TOL),
           flag("qpoly.zero_count", count == len(coeffs) - 1)]
    if classes is not None:
        got = [(cl.re, cl.im_norm) for _, cl in report.isolated]
        got += [(cl.re, cl.im_norm) for cl in report.spherical]
        want = [ref.class_of(ref.pair(z)) for z in classes]
        out.append(Verdict("qpoly.class_err", ref.class_distance(got, want),
                           CLASS_TOL))
    return out


def zeros_op(label, coeffs, classes=None, known_fault=False):
    poly = gen.to_poly(coeffs)
    return Op("zeros", label, lambda: qctl.right_zeros(poly),
              lambda rep: check_zeros(coeffs, rep, classes),
              known_fault=known_fault)


def product_op(label, zero_comps, known_fault=False):
    coeffs = ref.comps(ref.linear_factor_product(
        [ref.pair(z) for z in zero_comps]))
    return zeros_op(label, coeffs, zero_comps, known_fault)


def check_gcld(a, b, common_deg, data):
    A, B = ref.pair(a), ref.pair(b)
    ap = ref.polymul(A, ref.poly_pair(data.p))
    bq = ref.polymul(B, ref.poly_pair(data.q))
    g = ref.poly_pair(data.g)
    resid = (ref.coeff_norm_max(ref.polysub(ref.polyadd(ap, bq), g))
             / max(1.0, ref.coeff_norm_max(ap), ref.coeff_norm_max(bq)))
    return [flag("qpoly.gcd_degree", data.g.degree() == common_deg),
            Verdict("qpoly.bezout_residual", resid, RESIDUAL_TOL)]


def gcld_op(label, rng, deg, common_deg, known_fault=False):
    g = ref.pair(gen.poly_comps(rng, common_deg))
    a = ref.comps(ref.polymul(g, ref.pair(gen.poly_comps(
        rng, deg - common_deg))))
    b = ref.comps(ref.polymul(g, ref.pair(gen.poly_comps(
        rng, deg - common_deg - 1))))
    pa, pb = gen.to_poly(a), gen.to_poly(b)
    return Op("gcld", label, lambda: qctl.gcld(pa, pb),
              lambda data: check_gcld(a, b, common_deg, data),
              known_fault=known_fault)


def check_solve(a, b, c, sol):
    A, B, C = ref.pair(a), ref.pair(b), ref.pair(c)
    ax = ref.polymul(A, ref.poly_pair(sol.x))
    by = ref.polymul(B, ref.poly_pair(sol.y))
    resid = (ref.coeff_norm_max(ref.polysub(ref.polyadd(ax, by), C))
             / max(1.0, ref.coeff_norm_max(ax), ref.coeff_norm_max(by),
                   ref.coeff_norm_max(C)))
    return [Verdict("design.residual", resid, SOLVE_TOL),
            flag("design.minimal_x", sol.x.degree() < sol.x_step.degree())]


def solve_op(label, rng, deg):
    a, b = gen.poly_comps(rng, deg), gen.poly_comps(rng, deg - 1)
    c = gen.poly_comps(rng, 2 * deg - 1)
    pa, pb, pc = gen.to_poly(a), gen.to_poly(b), gen.to_poly(c)
    return Op("solve", label,
              lambda: qctl.solve_diophantine(pa, pb, pc, mode="minimal_x"),
              lambda sol: check_solve(a, b, c, sol))


def poly_ops(seed):
    ops = []
    for deg in (8, 16, 32, 64):
        ops.append(zeros_op(f"zeros-random-{deg}",
                            gen.poly_comps(gen.rng_for(seed, 400 + deg),
                                           deg)))
    for deg in (4, 8, 12):
        rng = gen.rng_for(seed, 500 + deg)
        ops.append(product_op(f"zeros-nonreal-product-{deg}",
                              gen.spaced_nonreal(rng, deg, 1.2, 0.25)))
    # Products of real factors hit the right_zeros class fault on every
    # seed tried (README, fault 2), so they come from the fixed seed.
    for deg in (4, 8, 12):
        rng = gen.rng_for(gen.FIXED_SEED, 550 + deg)
        ops.append(product_op(f"fixed-zeros-real-product-{deg}",
                              gen.spaced_real(rng, deg, 1.2, 0.4),
                              known_fault=True))
    for deg, common in ((8, 4), (12, 6)):
        ops.append(gcld_op(f"gcld-{deg}-common-{common}",
                           gen.rng_for(seed, 600 + deg), deg, common))
    # From degree 16 on, gcld misses the common factor on some seeds
    # (README, fault 3), so the degree-32 pairs come from the fixed seed.
    for i in range(5):
        ops.append(gcld_op(f"fixed-gcld-32-common-8-{i}",
                           gen.rng_for(gen.FIXED_SEED, 650 + i), 32, 8,
                           known_fault=True))
    for deg in (8, 16, 32, 64):
        ops.append(solve_op(f"solve-{deg}", gen.rng_for(seed, 700 + deg),
                            deg))
    return ops


# -- cli -------------------------------------------------------------------

CLI_SIM_STEPS = 200
CLI_TF_N = 4
CLI_ZEROS_DEG = 16

_TERM = re.compile(r"([-+]?)(\d+\.?\d*(?:e[-+]?\d+)?|\.\d+(?:e[-+]?\d+)?)"
                   r"([ijk]?)")


def parse_quat(text):
    """Inverse of qctl's report format, e.g. '3' or '-1.5 + 2i - 0.3k'."""
    comps = [0.0, 0.0, 0.0, 0.0]
    for sign, value, unit in _TERM.findall(text.replace(" ", "")):
        comps[" ijk".index(unit or " ")] += (
            -float(value) if sign == "-" else float(value))
    return comps


def section(stdout, header):
    """Indented lines following a header line of a qctl report."""
    lines = stdout.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith(header):
            for follow in lines[i + 1:]:
                if not follow.startswith("  "):
                    break
                out.append(follow.strip())
            break
    return out


def check_cli_design(result):
    code, stdout, _ = result
    zeros = []
    for line in section(stdout, "closed-loop denominator zeros"):
        label, _, value = line.partition(": ")
        if label.isdigit():
            zeros.append(parse_quat(value))
    got = sorted(z[0] for z in zeros if max(map(abs, z[1:])) == 0.0)
    listed = (len(zeros) == 2 and len(got) == 2
              and abs(got[0] - 3.0) <= 3.0 * CLI_DIGITS_TOL
              and abs(got[1] - 4.0) <= 4.0 * CLI_DIGITS_TOL)
    return [flag("cli.exit", code == 0), flag("cli.zeros_3_and_4", listed),
            flag("design.stable", "stability: PASS" in stdout)]


def check_cli_tf(n, result):
    code, stdout, _ = result
    degrees = []
    for line in stdout.splitlines():
        if line.startswith("  den: "):
            body = line[len("  den: "):]
            powers = [int(p) for p in re.findall(r"d\^(\d+)", body)]
            powers += [1] if re.search(r"d(?!\^)", body) else [0]
            degrees.append(max(powers))
    return [flag("cli.exit", code == 0),
            flag("cli.fraction_degree", degrees == [n, n])]


def check_cli_zeros(deg, result):
    code, stdout, _ = result
    m_iso = re.search(r"^isolated zeros \((\d+)\)", stdout, re.M)
    m_sph = re.search(r"^spherical classes \((\d+)\)", stdout, re.M)
    count = (int(m_iso.group(1)) + 2 * int(m_sph.group(1))
             if m_iso and m_sph else -1)
    return [flag("cli.exit", code == 0),
            flag("qpoly.zero_count", count == deg)]


def csv_outputs(csv_bytes):
    rows = csv_bytes.decode().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")[1:5]] for r in rows])
    return ref.pair(vals.reshape(-1, 4))


def check_cli_simulate(want, first, result):
    """CSV against the reference simulation, and byte-identical to the
    round's first invocation (``first`` holds its bytes)."""
    code, _, csv_bytes = result
    if code != 0 or csv_bytes is None:
        return [flag("cli.exit", False)]
    out = [flag("cli.exit", True)]
    try:
        got = csv_outputs(csv_bytes)
    except ValueError:
        return out + [flag("cli.csv_parse", False)]
    if len(got[0]) != len(want[0]):
        return out + [flag("sim.length", False)]
    scale = max(1.0, float(np.max(ref.norm(want))))
    out.append(Verdict("sim.output_err",
                       float(np.max(ref.norm(ref.sub(got, want)))) / scale,
                       SIM_TOL))
    if "csv" in first:
        out.append(flag("cli.csv_identical", csv_bytes == first["csv"]))
    else:
        first["csv"] = csv_bytes
    return out


def cli_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_process(argv, env, csv_path=None):
    """One qctl process; returns (exit code, stdout, CSV bytes or None)."""
    if csv_path is not None and os.path.exists(csv_path):
        os.remove(csv_path)
    proc = subprocess.run([sys.executable, "-m", "qctl.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    csv_bytes = None
    if csv_path is not None and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
    return proc.returncode, proc.stdout, csv_bytes


def cli_ops(seed, workdir, src_dir):
    """qctl processes on JSON documents written here, at set-up."""
    env = cli_env(src_dir)
    worked = os.path.join(workdir, "worked.json")
    qctl.dump_document(gen.to_system(gen.WORKED_PLANT), worked)
    tf_plant = os.path.join(workdir, "tf.json")
    qctl.dump_document(gen.to_system(gen.plant_comps(
        gen.rng_for(seed, 800), CLI_TF_N)), tf_plant)
    poly_path = os.path.join(workdir, "poly.json")
    qctl.dump_document(gen.to_poly(gen.poly_comps(
        gen.rng_for(seed, 801), CLI_ZEROS_DEG)), poly_path)
    sim_comps = gen.stable_system_comps(gen.rng_for(seed, 802), 4)
    sim_path = os.path.join(workdir, "sim.json")
    qctl.dump_document(gen.to_system(sim_comps), sim_path)
    sim_seed = 1000 + seed
    F, G, H, J = gen.system_pairs(sim_comps)
    want = ref.simulate(F, G, H, J, ref.pair(gen.lcg_state(4, sim_seed)),
                        None, CLI_SIM_STEPS)

    ops = []

    def add(label, argv, check, csv_path=None):
        ops.append(Op("process", label,
                      lambda: run_process(argv, env, csv_path), check,
                      argv=argv))

    add("design", ["design", "--plant", worked, "--roots", "3,4"],
        check_cli_design)
    add("tf", ["tf", "--system", tf_plant],
        lambda r: check_cli_tf(CLI_TF_N, r))
    add("zeros", ["zeros", "--poly", poly_path],
        lambda r: check_cli_zeros(CLI_ZEROS_DEG, r))
    first = {}
    for name in ("a", "b"):
        csv_path = os.path.join(workdir, f"sim-{name}.csv")
        argv = ["simulate", "--system", sim_path, "--steps",
                str(CLI_SIM_STEPS), "--seed", str(sim_seed),
                "--csv", csv_path]
        add(f"simulate-{name}", argv,
            lambda r: check_cli_simulate(want, first, r), csv_path)
    return ops
