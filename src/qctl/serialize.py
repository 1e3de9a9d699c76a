"""JSON document layer for the CLI and for on-disk plant files.

Layouts (all numbers are plain, finite JSON floats):

- quaternion: [w, x, y, z]
- matrix: [[q, ...], ...] nested rows of quaternions
- polynomial: {"coeffs": [q, ...]} ascending in the shift variable
- fraction: {"kind": "left"|"right", "den": poly, "num": poly}
- system: {"F": matrix, "G": matrix, "H": matrix, "J": q}
- design result: {"c", "p", "q", "controller", "t_v", "t_w",
  "closed_loop", "stable", "warnings"}

Round trips are bit-exact: floats pass through json unchanged.
"""

from __future__ import annotations

import json
import math

from .errors import ParseError
from .quat import Quaternion
from .qmat import QuatMatrix
from .qpoly import QPoly
from .xfer import LeftFraction, RightFraction, StateSpace
from .design import DesignResult


def quat_to_doc(q: Quaternion):
    return [q.w, q.x, q.y, q.z]


def poly_to_doc(p: QPoly):
    return {"coeffs": [quat_to_doc(c) for c in p.coeffs]}


def matrix_to_doc(m: QuatMatrix):
    return m._z.view(float).tolist()


def fraction_to_doc(f):
    return {"kind": f.kind, "den": poly_to_doc(f.den),
            "num": poly_to_doc(f.num)}


def system_to_doc(s: StateSpace):
    return {"F": matrix_to_doc(s.F), "G": matrix_to_doc(s.G),
            "H": matrix_to_doc(s.H), "J": quat_to_doc(s.J)}


def design_to_doc(r: DesignResult):
    return {
        "plant": fraction_to_doc(r.plant),
        "c": poly_to_doc(r.c),
        "p": poly_to_doc(r.p),
        "q": poly_to_doc(r.q),
        "controller": fraction_to_doc(r.controller),
        "t_v": fraction_to_doc(r.t_v),
        "t_w": fraction_to_doc(r.t_w),
        "closed_loop": system_to_doc(r.closed_loop),
        "stable": r.stable,
        "warnings": list(r.warnings),
    }


def to_doc(obj):
    if isinstance(obj, Quaternion):
        return quat_to_doc(obj)
    if isinstance(obj, QPoly):
        return poly_to_doc(obj)
    if isinstance(obj, QuatMatrix):
        return matrix_to_doc(obj)
    if isinstance(obj, (LeftFraction, RightFraction)):
        return fraction_to_doc(obj)
    if isinstance(obj, StateSpace):
        return system_to_doc(obj)
    if isinstance(obj, DesignResult):
        return design_to_doc(obj)
    raise TypeError(f"no document form for {type(obj).__name__}")


def _require(cond, message, field):
    if not cond:
        raise ParseError(message, field=field)


def quat_from_doc(doc, field="quaternion"):
    _require(isinstance(doc, list) and len(doc) == 4
             and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                     for v in doc),
             "expected [w, x, y, z] with four numbers", field)
    try:
        comps = [float(v) for v in doc]
    except OverflowError:  # an integer beyond the float range
        comps = [math.inf]
    # json.loads accepts NaN and Infinity, which no computation survives
    _require(all(math.isfinite(v) for v in comps),
             "quaternion components must be finite", field)
    return Quaternion(*comps)


def poly_from_doc(doc, field="poly"):
    _require(isinstance(doc, dict) and "coeffs" in doc,
             'expected {"coeffs": [...]}', field)
    cs = doc["coeffs"]
    _require(isinstance(cs, list), "coeffs must be a list",
             f"{field}.coeffs")
    return QPoly([quat_from_doc(c, f"{field}.coeffs[{i}]")
                  for i, c in enumerate(cs)])


def matrix_from_doc(doc, field="matrix"):
    _require(isinstance(doc, list), "expected a list of rows", field)
    rows = []
    width = None
    for i, row in enumerate(doc):
        _require(isinstance(row, list), "row must be a list",
                 f"{field}[{i}]")
        if width is None:
            width = len(row)
        _require(len(row) == width, "ragged rows", f"{field}[{i}]")
        rows.append([quat_from_doc(q, f"{field}[{i}][{j}]")
                     for j, q in enumerate(row)])
    return QuatMatrix(rows, cols=width if width is not None else 0)


def fraction_from_doc(doc, field="fraction"):
    _require(isinstance(doc, dict) and "kind" in doc
             and "den" in doc and "num" in doc,
             'expected {"kind", "den", "num"}', field)
    kind = doc["kind"]
    _require(kind in ("left", "right"), 'kind must be "left" or "right"',
             f"{field}.kind")
    den = poly_from_doc(doc["den"], f"{field}.den")
    num = poly_from_doc(doc["num"], f"{field}.num")
    if kind == "left":
        return LeftFraction(den, num)
    return RightFraction(num, den)


def system_from_doc(doc, field="system"):
    _require(isinstance(doc, dict)
             and all(k in doc for k in ("F", "G", "H", "J")),
             'expected {"F", "G", "H", "J"}', field)
    return StateSpace(matrix_from_doc(doc["F"], f"{field}.F"),
                      matrix_from_doc(doc["G"], f"{field}.G"),
                      matrix_from_doc(doc["H"], f"{field}.H"),
                      quat_from_doc(doc["J"], f"{field}.J"))


def detect(doc, field="document"):
    """Parse a document of any supported layout by its shape."""
    if isinstance(doc, dict):
        if "F" in doc:
            return system_from_doc(doc, field)
        if "kind" in doc:
            return fraction_from_doc(doc, field)
        if "coeffs" in doc:
            return poly_from_doc(doc, field)
        raise ParseError("dict matches no known layout "
                         "(need F/kind/coeffs)", field=field)
    if isinstance(doc, list):
        if doc and isinstance(doc[0], list):
            return matrix_from_doc(doc, field)
        return quat_from_doc(doc, field)
    raise ParseError("expected a JSON object or array", field=field)


def load_document(path: str):
    """Read and detect a JSON document from a file.

    I/O errors propagate as OSError; malformed content raises
    ParseError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", field=path) from exc
    return detect(doc, field=path)


def dump_document(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_doc(obj), fh, indent=2)
        fh.write("\n")
