"""Self-test of the output checks: each must flag a corrupted result.

    python3 bench/selftest.py [--seed N]

For every passing operation of the four workloads it checks the genuine
result (which must pass), then a copy with one deliberate fault:

- design: the largest coefficient of the controller denominator p nudged
  by 1e-6 of its norm;
- simulate: one simulated output altered by 1e-6;
- poly: one reported zero moved off its class by 1e-5 of its norm;
- cli: one row of the simulate CSV changed.

Exits 0 when every genuine result passes and every corrupted one is
flagged, 1 otherwise.
"""

import argparse
import copy
import os
import shutil
import sys
import tempfile

import run


def nudged_design(res):
    from qctl import QPoly, Quaternion
    bad = copy.copy(res)
    cs = list(res.p.coeffs)
    k = max(range(len(cs)), key=lambda i: cs[i].norm())
    c = cs[k]
    cs[k] = Quaternion(c.w + 1e-6 * c.norm(), c.x, c.y, c.z)
    bad.p = QPoly(cs)
    return bad


def altered_outputs(ys):
    from qctl import Quaternion
    bad = list(ys)
    k = len(bad) // 2
    y = bad[k]
    bad[k] = Quaternion(y.w, y.x + 1e-6, y.y, y.z)
    return bad


def moved_zero(report):
    from qctl import Quaternion, ZeroReport
    if not report.isolated:
        return None
    isolated = list(report.isolated)
    z, cls = isolated[0]
    shift = 1e-5 * max(1.0, z.norm())
    isolated[0] = (Quaternion(z.w + shift, z.x, z.y, z.z), cls)
    return ZeroReport(isolated, report.spherical, report.warnings)


def changed_csv_row(result):
    code, stdout, csv_bytes = result
    lines = csv_bytes.decode().splitlines()
    k = len(lines) // 2
    fields = lines[k].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[k] = ",".join(fields)
    return code, stdout, ("\n".join(lines) + "\n").encode()


CORRUPT = {"design": nudged_design, "feedback": altered_outputs,
           "open": altered_outputs, "zeros": moved_zero}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if run.import_qctl() is None:
        print(f"error: no qctl package under {run.SRC}", file=sys.stderr)
        return 2
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    failures = []
    counts = {}
    try:
        all_ops = run.build(args.seed, workdir)
        for workload in run.WORKLOADS:
            for op in all_ops[workload]:
                if op.known_fault:
                    continue
                result = op.call()
                genuine = [v for v in op.check(result) if v.bad]
                if genuine:
                    failures.append(f"{op.label}: genuine result flagged "
                                    f"{genuine}")
                if op.kind == "process":
                    if not op.label.startswith("simulate"):
                        continue
                    corrupt = changed_csv_row
                elif op.kind in CORRUPT:
                    corrupt = CORRUPT[op.kind]
                else:
                    continue
                bad = corrupt(result)
                if bad is None:
                    continue
                flagged = [v.name for v in op.check(bad) if v.bad]
                tested, caught = counts.get(op.kind, (0, 0))
                counts[op.kind] = (tested + 1, caught + bool(flagged))
                print(f"  {op.label:32s} corrupted -> "
                      f"{', '.join(flagged) or 'NOT FLAGGED'}")
                if not flagged:
                    failures.append(f"{op.label}: corruption not flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, (tested, caught) in counts.items():
        print(f"{kind}: {caught} of {tested} corrupted results flagged")
    for line in failures:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
