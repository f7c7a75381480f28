"""Spans and counts around zeonalg's public functions, installed from outside.

Each traced function is replaced, in every zeonalg module namespace that
holds it (or on its class), by a wrapper that records a span: calls and
self time, which is the span's duration minus its child spans and minus
the tracer's own bookkeeping inside it. Nothing under src/ changes.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

# span name -> (module, attribute) for functions looked up in module namespaces
FUNCTIONS = {
    "linalg.eliminate": ("zeonalg.linalg", "eliminate"),
    "linalg.normalize": ("zeonalg.linalg", "normalize"),
    "linalg.determinant": ("zeonalg.linalg", "determinant"),
    "poly.complex_roots": ("zeonalg.poly", "complex_roots"),
    "poly.lift": ("zeonalg.poly", "lift_simple_zero"),
    "spectral.char_poly": ("zeonalg.spectral", "char_poly"),
    "spectral.eigenvector": ("zeonalg.spectral", "eigenvector"),
    "spectral.decompose": ("zeonalg.spectral", "spectral_decompose"),
}
# span name -> (module, class, method) for methods looked up on instances
METHODS = {
    "algebra.mul": ("zeonalg.algebra", "ZeonElement", "mul"),
    "algebra.inverse": ("zeonalg.algebra", "ZeonElement", "inverse"),
    "algebra.kth_root": ("zeonalg.algebra", "ZeonElement", "kth_root"),
    "linalg.matmul": ("zeonalg.linalg", "ZeonMatrix", "mul"),
}


def _disjoint_pairs(a: dict, b: dict) -> int:
    ma = np.fromiter(a, dtype=np.int64, count=len(a))
    mb = np.fromiter(b, dtype=np.int64, count=len(b))
    return int(np.count_nonzero((ma[:, None] & mb[None, :]) == 0))


class Tracer:
    """Per-span call counts and self seconds, plus the layer counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"mul_pairs": 0, "mul_disjoint": 0, "aberth_iterations": 0,
                       "lift_evals": 0}
        self._stack: list[list] = []   # [child seconds, overhead seconds, name]
        self._undo: list[tuple] = []

    def _span(self, name: str, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            frame = [0.0, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = (t1 - t0) - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                    parent[1] += frame[1] + (t0 - t_enter)
            if after is not None:
                after(args, result)
            if parent is not None:
                parent[1] += perf_counter() - t1
            return result

        return wrapper

    def _after_mul(self, args, result):
        a, b = args[0].terms, args[1].terms
        self.counts["mul_pairs"] += len(a) * len(b)
        self.counts["mul_disjoint"] += _disjoint_pairs(a, b)

    def _after_roots(self, args, report):
        self.counts["aberth_iterations"] += report.iterations

    def _count_evaluate(self, fn):
        """Count evaluate() calls made directly by a lift; no span of its own."""
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            if stack:
                if stack[-1][2] == "poly.lift":
                    counts["lift_evals"] += 1
                stack[-1][1] += (t0 - t_enter) + (perf_counter() - t1)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function where zeonalg's modules look it up."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "zeonalg" or name.startswith("zeonalg.")]
        after = {"algebra.mul": self._after_mul, "poly.complex_roots": self._after_roots}
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._span(name, original, after.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original, after.get(name)))
        poly_cls = sys.modules["zeonalg.poly"].ZeonPolynomial
        original = poly_cls.__dict__["evaluate"]
        self._undo.append((poly_cls, "evaluate", original))
        poly_cls.evaluate = self._count_evaluate(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
