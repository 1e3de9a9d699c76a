"""Span tracing of qctl from outside the package.

Tracer.patch() wraps every public function of the qctl modules in every
qctl.* namespace that binds it (``from .xfer import tf_left`` copies the
name into qctl.design, so patching only the defining module would miss
those calls).  It wraps the __init__ methods of LeftFraction and
RightFraction, never the classes, so that isinstance checks still hold,
and it counts Quaternion.__mul__.  Leaving the context restores every
original.

A span is (name, start, end, parent).  Spans stay in memory in compact
arrays and are written once, when the run ends.  A span's self time is
its duration minus the time covered by its child spans.
"""

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("quat", "qmat", "qpoly", "xfer", "design", "sim", "serialize",
           "cli")

# Per-layer time metrics: the span names whose self time each one sums.
TIME_METRICS = {
    "qmat.matmul_s": ("qmat.matmul", "qmat.matvec"),
    "qmat.right_eigenvalues_s": ("qmat.right_eigenvalues",
                                 "qmat.complex_adjoint",
                                 "qmat.spectral_radius_stable"),
    "qmat.solve_left_linear_s": ("qmat.solve_left_linear",),
    "qpoly.mul_s": ("qpoly.mul",),
    "qpoly.div_s": ("qpoly.div_quotient_left", "qpoly.div_quotient_right"),
    "qpoly.gcd_s": ("qpoly.gcld", "qpoly.gcrd"),
    "qpoly.right_zeros_s": ("qpoly.right_zeros", "qpoly.companion_polynomial",
                            "qpoly.eval_right", "qpoly.is_stable"),
    "qpoly.convert_s": ("qpoly.left_to_right", "qpoly.right_to_left"),
    "xfer.markov_s": ("xfer.markov",),
    "xfer.tf_left_s": ("xfer.tf_left", "xfer.tf_right"),
    "xfer.reduce_s": ("xfer.LeftFraction", "xfer.RightFraction"),
    "xfer.realize_s": ("xfer.realize",),
    "design.solve_diophantine_s": ("design.solve_diophantine",),
    "design.closed_loop_s": ("design.closed_loop_response_tfs",),
    "sim.step_s": ("sim.simulate", "sim.simulate_feedback"),
}

# Per-layer count metrics: the span names whose calls each one counts.
CALL_METRICS = {
    "qmat.matmul_calls": ("qmat.matmul", "qmat.matvec"),
    "qmat.solve_left_linear_calls": ("qmat.solve_left_linear",),
    "qpoly.mul_calls": ("qpoly.mul",),
    "qpoly.div_calls": ("qpoly.div_quotient_left",
                        "qpoly.div_quotient_right"),
}

_DIVISIONS = ("qpoly.div_quotient_left", "qpoly.div_quotient_right")
_EUCLID = ("qpoly.gcld", "qpoly.gcrd")


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = []          # [span index, name, child time]
        self.self_time = {}
        self.calls = {}
        self.products = 0
        self.euclid_steps = 0
        self.cli_startup = 0.0   # measured in fresh processes, not spans

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        idx = len(self.span_start)
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        parent = self.stack[-1] if self.stack else None
        if name in _DIVISIONS and parent is not None and parent[1] in _EUCLID:
            self.euclid_steps += 1
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(0.0)
        self.stack.append([idx, name, 0.0])
        self.span_start.append(perf_counter())

    def exit(self):
        end = perf_counter()
        idx, name, child = self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def patch(self):
        from qctl.quat import Quaternion
        from qctl.xfer import LeftFraction, RightFraction

        targets = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"qctl.{mod_name}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{mod_name}.{name}")
        wrappers = {key: self._wrap(label, fn)
                    for key, (fn, label) in targets.items()}
        saved = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qctl"
                                   or mod_name.startswith("qctl.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

        for cls in (LeftFraction, RightFraction):
            saved.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(f"xfer.{cls.__name__}", cls.__init__)

        mul = Quaternion.__mul__

        def counted_mul(a, b):
            self.products += 1
            return mul(a, b)

        saved.append((Quaternion, "__mul__", mul))
        Quaternion.__mul__ = counted_mul
        try:
            yield self
        finally:
            for owner, name, obj in reversed(saved):
                setattr(owner, name, obj)

    # -- results -----------------------------------------------------------

    def per_layer(self, ops):
        """Per-layer figures divided by ``ops`` top-level operations."""
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = (sum(self.self_time.get(n, 0.0) for n in names)
                           / ops, "s")
        for metric, names in CALL_METRICS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in names) / ops, \
                "count"
        out["quat.products"] = self.products / ops, "count"
        out["qpoly.euclid_steps"] = self.euclid_steps / ops, "count"
        out["serialize.load_s"] = (sum(t for n, t in self.self_time.items()
                                       if n.startswith("serialize."))
                                   / ops, "s")
        out["cli.main_s"] = (sum(t for n, t in self.self_time.items()
                                 if n.startswith("cli.")) / ops, "s")
        out["cli.startup_s"] = self.cli_startup / ops, "s"
        return out

    def write(self, path):
        """Write the spans as arrays: name id, start, end, parent index."""
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, np.int32),
                            start=np.frombuffer(self.span_start),
                            end=np.frombuffer(self.span_end),
                            parent=np.frombuffer(self.span_parent, np.int32))
