"""Spans and counters around padiclab's public functions, from outside.

``Tracer.install()`` replaces every binding through which a traced
function is reached: the class attribute for methods, and for module
functions the defining module's attribute together with every
``from ... import`` copy in any loaded ``padiclab`` module.  Nothing in
the package is edited; the wrappers live only in the process that
installed them.

A span records calls, total time (outermost activation only, so
recursion is not double counted) and self time (its duration minus the
time its child spans cover).  A counter records calls only; its time is
part of the enclosing span's self time.  ``terms`` is a work count
computed from operand sizes at the call boundary, not measured inside
the kernel.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

LAYERS = ("core", "series", "cyclotomic", "honda", "points", "coleman", "tate", "runner")

# Lazily built construction stages; their time is also charged to the
# suite that first needed them.
STAGES = (
    "honda.build_ell",
    "honda.build_iota",
    "honda.solve_epsilon",
    "points.build_points",
    "points.lattice",
    "points.solve_h90",
)

SUITE_FUNCS = {
    "honda": "_run_honda",
    "points": "_run_points",
    "prop2": "_run_prop2",
    "coleman": "_run_coleman",
    "coleman-negative-control": "_run_negative_control",
    "tate": "_run_tate",
    "mtt": "_run_mtt",
}


def compose_terms(f, g):
    """Coefficient products in f.compose(g): a Horner pass of f.order
    truncated convolutions of the accumulator with g, zero skips ignored."""
    order = max(f.order, g.order)
    lg = min(len(g.coeffs), order + 1)
    la = 1
    total = 0
    for _ in range(f.order):
        n = min(order + 1, la + lg - 1)
        k = min(la, n)
        # sum over i < k of min(lg, n - i): full rows first, then the taper
        full = max(0, min(k, n - lg + 1))
        total += full * lg + (k - full) * n - (k * (k - 1) - full * (full - 1)) // 2
        la = n
    return total


def cyclo_mul_terms(a, b):
    """Coefficient products in a * b before reduction: degree times degree."""
    db = len(b.coords) if hasattr(b, "coords") else a.field.degree
    return len(a.coords) * db


# (span name, module, attribute path, kind, terms function)
# kind: "span" times the call, "count" only counts it, "hits" counts it
# and the calls that return something other than None.
TARGETS = [
    ("core.scalar_mul", "padiclab.core", "PadicScalar.__mul__", "count", None),
    ("core.scalar_add", "padiclab.core", "PadicScalar.__add__", "count", None),
    ("core.scalar_inverse", "padiclab.core", "PadicScalar.inverse", "count", None),
    ("core.iwasawa_log", "padiclab.core", "iwasawa_log", "span", None),
    ("core.hensel_root", "padiclab.core", "hensel_root", "span", None),
    ("series.mul", "padiclab.series", "TruncatedSeries.__mul__", "span", None),
    ("series.compose", "padiclab.series", "TruncatedSeries.compose", "span", compose_terms),
    ("series.reversion", "padiclab.series", "TruncatedSeries.reversion", "span", None),
    ("series.reciprocal", "padiclab.series", "TruncatedSeries.reciprocal", "span", None),
    ("series.eval_scalar", "padiclab.series", "TruncatedSeries.eval_scalar", "span", None),
    ("series.frobenius_substitute", "padiclab.series", "frobenius_substitute", "span", None),
    ("cyclotomic.mul", "padiclab.cyclotomic", "CycloElement.__mul__", "span", cyclo_mul_terms),
    ("cyclotomic.galois", "padiclab.cyclotomic", "CycloElement.galois", "span", None),
    ("cyclotomic.inverse", "padiclab.cyclotomic", "CycloElement.inverse", "span", None),
    ("cyclotomic.valuation", "padiclab.cyclotomic", "CycloElement.valuation", "span", None),
    ("cyclotomic.log_element", "padiclab.cyclotomic", "CycloTower.log_element", "span", None),
    ("cyclotomic.eval_series", "padiclab.cyclotomic", "CycloTower.eval_series", "span", None),
    ("cyclotomic.gamma_solve", "padiclab.cyclotomic", "CycloTower.gamma_solve", "span", None),
    ("cyclotomic.solve_columns", "padiclab.cyclotomic", "solve_columns", "span", None),
    ("honda.build_ell", "padiclab.honda", "build_ell", "span", None),
    ("honda.check_honda", "padiclab.honda", "check_honda", "span", None),
    ("honda.build_iota", "padiclab.honda", "build_iota", "span", None),
    ("honda.solve_epsilon", "padiclab.honda", "solve_epsilon", "span", None),
    ("points.build_points", "padiclab.points", "build_points", "span", None),
    ("points.lattice", "padiclab.points", "UnitLogLattice.__init__", "span", None),
    ("points.membership", "padiclab.points", "UnitLogLattice.membership", "hits", None),
    ("points.solve_h90", "padiclab.points", "solve_h90", "span", None),
    ("points.verify_generation", "padiclab.points", "verify_generation", "span", None),
    ("coleman.coleman_level", "padiclab.coleman", "coleman_level", "span", None),
    ("coleman.derivative_rep", "padiclab.coleman", "derivative_rep", "span", None),
    ("coleman.gauss_sum", "padiclab.coleman", "gauss_sum", "span", None),
    ("coleman.negative_control", "padiclab.coleman", "negative_control", "span", None),
    ("tate.verify_formal_iso", "padiclab.tate", "verify_formal_iso", "span", None),
    (
        "tate.multiplicative_parameter_series",
        "padiclab.tate",
        "multiplicative_parameter_series",
        "span",
        None,
    ),
    ("tate.uniformize_point", "padiclab.tate", "uniformize_point", "span", None),
    ("tate.a_invariants", "padiclab.tate", "a_invariants", "span", None),
    ("runner.run_suite", "padiclab.runner", "run_suite", "span", None),
    ("runner.emit_report", "padiclab.runner", "emit_report", "span", None),
] + [
    (f"runner.suite.{suite}", "padiclab.runner", func, "span", None)
    for suite, func in SUITE_FUNCS.items()
]


@dataclass
class Stat:
    calls: int = 0
    hits: int = 0
    terms: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


class Tracer:
    """In-memory spans for one process; read ``stats`` after the pass."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.errors = dict.fromkeys(LAYERS, 0)
        # stage time charged to the suite span that was open when it ran
        self.stage_by_suite = dict.fromkeys(SUITE_FUNCS, 0.0)
        # open spans, innermost last: [name, layer, child seconds]
        self._stack = []

    def install(self):
        """Wrap every binding of every target (padiclab must be imported)."""
        from padiclab.core import PadicError

        self._padic_error = PadicError
        for name, module, path, kind, terms in TARGETS:
            owner = sys.modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(name, kind, terms, original)
            if len(parts) > 1:  # a method: the class attribute is the only binding
                setattr(owner, parts[-1], wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "padiclab" and not mod_name.startswith("padiclab."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, kind, terms, fn):
        stat = self.stats[name]
        layer = name.split(".", 1)[0]
        stack = self._stack
        errors = self.errors
        padic_error = self._padic_error

        def escaped(parent):
            # an error counts once per layer it leaves, not per nested span
            if parent is None or parent[1] != layer:
                errors[layer] += 1

        if kind == "count":

            def counted(*args, **kwargs):
                stat.calls += 1
                try:
                    return fn(*args, **kwargs)
                except padic_error:
                    escaped(stack[-1] if stack else None)
                    raise

            return counted

        stage = name in STAGES
        perf_counter = time.perf_counter

        def spanned(*args, **kwargs):
            stat.calls += 1
            if terms is not None:
                stat.terms += terms(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, layer, 0.0]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except padic_error:
                escaped(parent)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                stat.self_s += dt - frame[2]
                if not stat.active:
                    stat.total_s += dt
                if stack:
                    stack[-1][2] += dt
                if stage:
                    self._charge_stage(dt)
            if kind == "hits" and result is not None:
                stat.hits += 1
            return result

        return spanned

    def _charge_stage(self, dt):
        # only the outermost stage activation counts, inside the open suite
        suite = None
        for frame_name, _, _ in self._stack:
            if frame_name in STAGES:
                return
            if frame_name.startswith("runner.suite."):
                suite = frame_name[len("runner.suite."):]
        if suite is not None:
            self.stage_by_suite[suite] += dt

    def snapshot(self) -> dict:
        return {
            "stats": {
                name: {
                    "calls": s.calls,
                    "hits": s.hits,
                    "terms": s.terms,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                }
                for name, s in self.stats.items()
            },
            "errors": dict(self.errors),
            "stage_by_suite": dict(self.stage_by_suite),
        }
