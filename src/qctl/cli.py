"""Command-line front end.

Subcommands wrap one library operation each: eig, tf, zeros, stable,
solve, design, simulate.  Reports go to stdout with 5 significant
digits (override with --digits); simulate can additionally write a CSV
table and a static SVG chart.  Exit codes: 0 success, 2 domain errors,
1 I/O or parse errors (including bad usage).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import IllConditioned, ParseError, QctlError, SimulationDiverged
from .quat import Quaternion
from .qmat import (QuatMatrix, _wrap as _wrap_matrix, right_eigenvalues,
                   spectral_radius_stable)
from .qpoly import QPoly, mul, right_zeros
from .xfer import (LeftFraction, RightFraction, StateSpace,
                   as_left_fraction, is_stable, tf_left, tf_right)
from .design import place_poles, solve_diophantine
from .errors import DegenerateKernel
from .sim import random_state, simulate, simulate_feedback
from .serialize import load_document, quat_from_doc

CSV_HEADER = "k,yw,yx,yy,yz,ynorm"

_SVG_COLORS = (("w", "#1f77b4"), ("x", "#d62728"), ("y", "#2ca02c"),
               ("z", "#9467bd"), ("|y|", "#000000"))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route that to exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def fmt_num(v: float, digits: int) -> str:
    s = f"{v:.{digits}g}"
    return "0" if s in ("-0", "-0.0") else s


def fmt_quat(q: Quaternion, digits: int) -> str:
    # components swamped by the rest of the quaternion are float dust;
    # dropping them is display-only; hypot keeps huge norms finite
    cut = 1e-12 * math.hypot(*q.components())
    parts = []
    for value, suffix in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if abs(value) <= cut:
            continue
        body = fmt_num(abs(value), digits) + suffix
        if not parts:
            parts.append(body if value > 0 else "-" + body)
        else:
            parts.append(("+ " if value > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def fmt_poly(p: QPoly, digits: int) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        body = fmt_quat(c, digits)
        if " " in body:
            body = f"({body})"
        power = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
        if i > 0 and body == "1":
            terms.append(power)
        else:
            terms.append(f"{body}{' ' if power else ''}{power}")
    out = ""
    for idx, term in enumerate(terms):
        if idx == 0:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out if terms else "0"


def fmt_class(cls, digits: int) -> str:
    cut = 1e-12 * cls.norm()
    re = 0.0 if abs(cls.re) <= cut else cls.re
    im = 0.0 if cls.im_norm <= cut else cls.im_norm
    return (f"re {fmt_num(re, digits)}, "
            f"imag norm {fmt_num(im, digits)}, "
            f"norm {fmt_num(cls.norm(), digits)}")


def _print_fraction(frac, digits, out):
    shape = "den^-1 num" if frac.kind == "left" else "num den^-1"
    out.write(f"{frac.kind} fraction ({shape}):\n")
    out.write(f"  den: {fmt_poly(frac.den, digits)}\n")
    out.write(f"  num: {fmt_poly(frac.num, digits)}\n")


def parse_roots(text: str):
    """Parse a comma-separated root list; quaternion roots are
    (w,x,y,z) quadruples, anything else a real number."""
    tokens = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", field="--roots")
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses", field="--roots")
    tokens.append(cur)
    roots = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            raise ParseError("empty root entry", field="--roots")
        try:
            if tok.startswith("(") and tok.endswith(")"):
                comps = [float(v) for v in tok[1:-1].split(",")]
                if len(comps) != 4:
                    raise ValueError("need four components")
            else:
                comps = [float(tok), 0.0, 0.0, 0.0]
        except ValueError as exc:
            raise ParseError(f"bad root {tok!r}: {exc}",
                             field="--roots") from exc
        roots.append(quat_from_doc(comps, field="--roots"))
    return roots


def _tol(args):
    """--tol as a keyword when given, so each call keeps its own default."""
    return {} if args.tol is None else {"tol": args.tol}


def _write_notes(out, *results):
    """One "warning: <note>" line per note of each result, in order."""
    for result in results:
        for note in result.warnings:
            out.write(f"warning: {note}\n")


def _load_system(path: str) -> StateSpace:
    doc = load_document(path)
    if isinstance(doc, StateSpace):
        return doc
    if isinstance(doc, QuatMatrix):
        if doc.rows != doc.cols:
            raise ParseError("bare matrix must be square", field=path)
        n = doc.rows
        return StateSpace(doc, QuatMatrix.zeros(n, 1),
                          QuatMatrix.zeros(1, n), Quaternion())
    raise ParseError("expected a system or matrix document", field=path)


def _load_poly(path: str) -> QPoly:
    doc = load_document(path)
    if not isinstance(doc, QPoly):
        raise ParseError("expected a polynomial document", field=path)
    return doc


def _cmd_eig(args, out):
    sys_ = _load_system(args.system)
    spectrum = right_eigenvalues(sys_.F, **_tol(args))
    out.write(f"right eigenvalue classes ({len(spectrum)}):\n")
    for idx, cls in enumerate(spectrum, 1):
        out.write(f"  {idx}: {fmt_class(cls, args.digits)}\n")
    if len(spectrum):
        top = max(cls.norm() for cls in spectrum)
        out.write(f"largest class norm: {fmt_num(top, args.digits)}\n")
    _write_notes(out, spectrum)
    return 0


def _cmd_tf(args, out):
    sys_ = _load_system(args.system)
    _print_fraction(tf_left(sys_, **_tol(args)), args.digits, out)
    _print_fraction(tf_right(sys_, **_tol(args)), args.digits, out)
    return 0


def _cmd_zeros(args, out):
    poly = _load_poly(args.poly)
    report = right_zeros(poly, **_tol(args))
    out.write(f"isolated zeros ({len(report.isolated)}):\n")
    for idx, (z, cls) in enumerate(report.isolated, 1):
        out.write(f"  {idx}: {fmt_quat(z, args.digits)}  "
                  f"[{fmt_class(cls, args.digits)}]\n")
    out.write(f"spherical classes ({len(report.spherical)}):\n")
    for idx, cls in enumerate(report.spherical, 1):
        out.write(f"  {idx}: {fmt_class(cls, args.digits)}\n")
    _write_notes(out, report)
    return 0


def _cmd_stable(args, out):
    if bool(args.poly) == bool(args.system):
        raise _UsageError("stable: give exactly one of --poly/--system")
    if args.poly:
        verdict = is_stable(_load_poly(args.poly), **_tol(args))
        reason = "all zeros outside the unit circle" if verdict \
            else "a zero lies on or inside the unit circle"
    else:
        verdict = spectral_radius_stable(_load_system(args.system).F,
                                         **_tol(args))
        reason = "right spectrum inside the unit circle" if verdict \
            else "a right-eigenvalue class reaches the unit circle"
    out.write(f"stable: {'yes' if verdict else 'no'} ({reason})\n")
    return 0


def _cmd_solve(args, out):
    polys = [(_load_poly(p)) for p in (args.poly or [])]
    if args.plant:
        doc = load_document(args.plant)
        if not isinstance(doc, (StateSpace, LeftFraction, RightFraction)):
            raise ParseError("--plant must be a system or fraction document",
                             field=args.plant)
        doc = as_left_fraction(doc)
        if len(polys) != 1:
            raise _UsageError(
                "solve: with --plant give exactly one --poly (the target)")
        a, b, c = doc.den, doc.num, polys[0]
    else:
        if len(polys) != 3:
            raise _UsageError(
                "solve: give three --poly files (a, b, c) or --plant + c")
        a, b, c = polys
    try:
        sol = solve_diophantine(a, b, c, mode="minimal_x", **_tol(args))
    except DegenerateKernel:
        sol = solve_diophantine(a, b, c, mode="particular", **_tol(args))
    resid = (mul(a, sol.x) + mul(b, sol.y) - c).norm_inf()
    out.write(f"mode: {sol.mode}\n")
    out.write(f"gcld: {fmt_poly(sol.g, args.digits)}\n")
    out.write(f"x: {fmt_poly(sol.x, args.digits)}\n")
    out.write(f"y: {fmt_poly(sol.y, args.digits)}\n")
    out.write(f"residual: {fmt_num(resid, 3)}\n")
    return 0


def _cmd_design(args, out):
    doc = load_document(args.plant)
    if isinstance(doc, QuatMatrix):
        raise ParseError("--plant must be a system or fraction document",
                         field=args.plant)
    if bool(args.roots) == bool(args.poly):
        raise _UsageError("design: give exactly one of --roots/--poly")
    targets = (parse_roots(args.roots) if args.roots
               else _load_poly(args.poly[0]))
    result = place_poles(doc, targets, **_tol(args))
    out.write("plant ")
    _print_fraction(result.plant, args.digits, out)
    out.write(f"target c: {fmt_poly(result.c, args.digits)}\n")
    out.write(f"controller p: {fmt_poly(result.p, args.digits)}\n")
    out.write(f"controller q: {fmt_poly(result.q, args.digits)}\n")
    out.write("closed-loop denominator zeros:\n")
    listed = []
    try:
        report = right_zeros(result.t_w.den, **_tol(args))
    except IllConditioned as exc:
        # the listing only illustrates a design that place_poles has
        # already checked, so it must not turn that design into a failure
        out.write(f"  not resolved: {exc}\n")
    else:
        listed.append(report)
        for idx, (z, cls) in enumerate(report.isolated, 1):
            out.write(f"  {idx}: {fmt_quat(z, args.digits)}\n")
        for idx, cls in enumerate(report.spherical, 1):
            out.write(f"  sphere: {fmt_class(cls, args.digits)}\n")
        found = len(report.isolated) + 2 * len(report.spherical)
        if found != result.c.degree():
            out.write(f"  not resolved: {found} zeros listed (a sphere "
                      f"counts 2) for deg c = {result.c.degree()}\n")
    spectrum = right_eigenvalues(result.closed_loop.F)
    out.write(f"closed-loop spectrum ({len(spectrum)}):\n")
    for idx, cls in enumerate(spectrum, 1):
        out.write(f"  {idx}: {fmt_class(cls, args.digits)}\n")
    _write_notes(out, *listed, spectrum, result)
    out.write(f"stability: {'PASS' if result.stable else 'FAIL'}\n")
    return 0


def _csv_text(ys) -> str:
    lines = [CSV_HEADER]
    for k, (y, norm) in enumerate(zip(ys, _norms(ys))):
        comps = [y.w, y.x, y.y, y.z, norm]
        lines.append(str(k) + "," + ",".join(f"{v:.17g}" for v in comps))
    return "\n".join(lines) + "\n"


def _norms(ys):
    """|y| of each output, with no overflow below the float range (the
    squares of Quaternion.norm pass it above ~1.3e154)."""
    return [math.hypot(*y.components()) for y in ys]


def _svg_text(ys) -> str:
    width, height = 800, 480
    ml, mr, mt, mb = 60, 150, 20, 40
    plot_w, plot_h = width - ml - mr, height - mt - mb
    series = [[y.w for y in ys], [y.x for y in ys], [y.y for y in ys],
              [y.z for y in ys], _norms(ys)]
    lo = min((min(s) for s in series if s), default=-1.0)
    hi = max((max(s) for s in series if s), default=1.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    nx = max(1, len(ys) - 1)

    def px(k):
        return ml + plot_w * (k / nx)

    def py(v):
        return mt + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" '
        f'y2="{mt + plot_h}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if lo < 0.0 < hi:
        zy = py(0.0)
        parts.append(f'<line x1="{ml}" y1="{zy:.2f}" x2="{ml + plot_w}" '
                     f'y2="{zy:.2f}" stroke="#bbb" stroke-width="1" '
                     'stroke-dasharray="4 3"/>')
    for (label, color), values in zip(_SVG_COLORS, series):
        pts = " ".join(f"{px(k):.2f},{py(v):.2f}"
                       for k, v in enumerate(values))
        swidth = 2 if label == "|y|" else 1
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{swidth}" points="{pts}"/>')
    for idx, (label, color) in enumerate(_SVG_COLORS):
        ly = mt + 16 + 18 * idx
        lx = ml + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif"'
                     f' font-size="13">{label}</text>')
    parts.append(f'<text x="{ml + plot_w // 2}" y="{height - 10}" '
                 'font-family="sans-serif" font-size="13" '
                 'text-anchor="middle">k</text>')
    parts.append(f'<text x="{ml - 8}" y="{mt + 12}" '
                 'font-family="sans-serif" font-size="12" '
                 f'text-anchor="end">{hi:.3g}</text>')
    parts.append(f'<text x="{ml - 8}" y="{mt + plot_h}" '
                 'font-family="sans-serif" font-size="12" '
                 f'text-anchor="end">{lo:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_simulate(args, out):
    systems = [_load_system(p) for p in args.system]
    if len(systems) not in (1, 2):
        raise _UsageError("simulate: give one or two --system files")
    if args.steps < 1:
        raise _UsageError("simulate: --steps must be >= 1")
    if len(systems) == 1:
        sys_ = systems[0]
        x0 = random_state(sys_.n, args.seed)
        ys = simulate(sys_, x0, None, args.steps)
    else:
        plant, ctrl = systems
        both = random_state(plant.n + ctrl.n, args.seed)
        x0p = _wrap_matrix(both._z[:plant.n])
        x0c = _wrap_matrix(both._z[plant.n:])
        ys = simulate_feedback(plant, ctrl, x0p, x0c, None, None,
                               args.steps)
    norms = _norms(ys)
    bad = next((k for k, y in enumerate(ys)
                if not all(map(math.isfinite, y.components()))), None)
    if bad is not None:
        raise SimulationDiverged(
            f"output at step k={bad} is not finite (|y| = {norms[bad]})")
    peak = max(norms)
    peak_k = norms.index(peak)
    out.write(f"steps: {args.steps}, seed: {args.seed}\n")
    out.write(f"peak |y|: {fmt_num(peak, args.digits)} at k={peak_k}\n")
    out.write(f"final |y|: {fmt_num(norms[-1], args.digits)}\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(ys))
        out.write(f"wrote {args.csv}\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(_svg_text(ys))
        out.write(f"wrote {args.svg}\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, poly_multi=False, tol_help=None):
        p.add_argument("--tol", type=float, default=None, help=tol_help)
        p.add_argument("--digits", type=int, default=5)
        if poly_multi:
            p.add_argument("--poly", action="append", metavar="PATH")

    p = sub.add_parser("eig", help="right eigenvalue classes of a system")
    p.add_argument("--system", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("tf", help="minimal left and right fractions")
    p.add_argument("--system", required=True, metavar="PATH")
    common(p, tol_help="relative residual at which a row H F^m depends "
           "on the earlier ones, fixing deg den (default 1e-7)")

    p = sub.add_parser("zeros", help="right zeros of a polynomial")
    p.add_argument("--poly", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("stable", help="stability verdict")
    p.add_argument("--poly", metavar="PATH")
    p.add_argument("--system", metavar="PATH")
    common(p)

    p = sub.add_parser("solve", help="solve a x + b y = c")
    p.add_argument("--plant", metavar="PATH")
    common(p, poly_multi=True)

    p = sub.add_parser("design", help="pole placement")
    p.add_argument("--plant", required=True, metavar="PATH")
    p.add_argument("--roots", metavar="LIST")
    common(p, poly_multi=True)

    p = sub.add_parser("simulate", help="closed- or open-loop response")
    p.add_argument("--system", action="append", required=True,
                   metavar="PATH")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--digits", type=int, default=5)
    return parser


_DISPATCH = {
    "eig": _cmd_eig,
    "tf": _cmd_tf,
    "zeros": _cmd_zeros,
    "stable": _cmd_stable,
    "solve": _cmd_solve,
    "design": _cmd_design,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if hasattr(args, "digits") and args.digits < 1:
            raise _UsageError("--digits must be >= 1")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0.0 < tol < math.inf:
            raise _UsageError("--tol must be positive and finite")
        return _DISPATCH[args.command](args, sys.stdout)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (QctlError, ZeroDivisionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
