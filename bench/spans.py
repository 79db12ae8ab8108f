"""Span recording around residuum's public functions, installed from outside.

`install` replaces every public module-level function of each residuum
module with a timing wrapper at every place the function object is bound
(a name imported with `from .periods import contour_integral` is a second
binding of the same object), and wraps the methods listed in METHODS on
their classes.  A span's self time is its duration minus the time its
child spans cover; since the root span is `cli.main`, the self times of
all spans add up to the time spent inside `main`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List

import numpy as np

MODULES = (
    "cech", "chern", "cli", "divisor", "exact", "linalg", "models",
    "periods", "pluriharmonic", "rational", "sphere", "torus",
)

# (module, class, attribute) -> span name; "points" spans also count the
# size of their first argument after self.
METHODS = {
    ("torus", "Torus", "__init__"): "torus.Torus",
    ("torus", "Torus", "zeta"): "torus.zeta",
    ("torus", "Torus", "wp_deriv"): "torus.wp_deriv",
    ("torus", "EllipticForm", "eval_complex"): "torus.form_eval",
    ("sphere", "RationalForm", "eval_complex"): "sphere.form_eval",
    ("rational", "Polynomial", "divmod"): "rational.divmod",
    ("rational", "RationalFunction", "__init__"): "rational.RationalFunction",
    ("cech", "CohomologySpace", "__init__"): "cech.CohomologySpace",
    ("pluriharmonic", "Pair", "build"): "pluriharmonic.Pair.build",
    ("pluriharmonic", "Pair", "invariant_defects"): "pluriharmonic.invariant_defects",
    ("pluriharmonic", "PluriharmonicField", "real_value"): "pluriharmonic.real_value",
}
METHODS.update({
    ("exact", "ExactComplex", op): "exact.arith"
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__")
})
POINT_SPANS = {"torus.zeta", "torus.wp_deriv", "torus.form_eval", "sphere.form_eval"}


class Recorder:
    """Per-span totals: calls, self time in ns, points; plus the contour
    integrand points and quadrature failures seen by contour_integral."""

    def __init__(self):
        self.stats: Dict[str, List[int]] = {}
        self.stack: List[List[int]] = []
        self.contour_points = 0
        self.quadrature_errors = 0

    def wrap(self, fn: Callable, name: str, points: bool = False) -> Callable:
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[0]
                if points:
                    stat[2] += int(np.size(args[1]))
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def wrap_contour(self, fn: Callable, name: str) -> Callable:
        """contour_integral: count integrand points through a proxy for its
        integrand, and count QuadratureErrors passing through."""
        inner = self.wrap(fn, name)
        rec = self

        @functools.wraps(fn)
        def wrapper(form_or_func, *args, **kwargs):
            func = getattr(form_or_func, "eval_complex", form_or_func)

            def counted(z):
                rec.contour_points += int(np.size(z))
                return func(z)

            try:
                return inner(counted, *args, **kwargs)
            except Exception as e:
                if type(e).__name__ == "QuadratureError":
                    rec.quadrature_errors += 1
                raise

        return wrapper

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9


def install(rec: Recorder) -> None:
    mods = {m: sys.modules[f"residuum.{m}"] for m in MODULES}
    bindings = [sys.modules["residuum"], *mods.values()]
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = rec.wrap_contour(obj, name) if name == "periods.contour_integral" else rec.wrap(obj, name)
            for site in bindings:
                for key, val in list(vars(site).items()):
                    if val is obj:
                        setattr(site, key, wrapped)
    for (short, cls_name, attr), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, rec.wrap(raw, name, points=name in POINT_SPANS))
