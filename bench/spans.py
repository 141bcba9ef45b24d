"""Spans around the package's public entry points, recorded from outside.

`Tracer.install` wraps each traced function and method and rebinds the
wrapper under every name the package looks it up by: a module that did
`from .geometry import parameterize_annulus` holds its own binding, so
patching only the defining module would miss its calls.  `Tracer.remove`
puts every original back.

A call to a traced name while a span of the same name is open passes
straight through (recursion, or `__sub__` calling `__add__`), so each name
counts the outermost call only.  Self time is a span's duration minus the
time its child spans cover; with one thread, children never overlap.

Spans carry name, start, end, parent span and item id, are kept in memory
and written out by `write`.  The hottest names (p-adic arithmetic, rational
polynomial products, evaluations of f) run up to millions of times per
item, so they are kept as per-name totals instead of span records; their
time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (traced name, module, owner attribute path, hot)
# An owner path "Class.method" wraps a method on the class itself, so every
# instance and every operator dispatch sees the wrapper.
TRACED: tuple[tuple[str, str, str, bool], ...] = (
    ("padic.arith", "superchab.padic", "PadicNumber.__add__", True),
    ("padic.arith", "superchab.padic", "PadicNumber.__sub__", True),
    ("padic.arith", "superchab.padic", "PadicNumber.__mul__", True),
    ("padic.arith", "superchab.padic", "PadicNumber.__truediv__", True),
    ("padic.arith", "superchab.padic", "PadicNumber.__pow__", True),
    ("padic.power_tests", "superchab.padic", "is_mth_power", False),
    ("padic.power_tests", "superchab.padic", "mth_root", False),
    ("padic.power_tests", "superchab.padic", "primitive_root_of_unity", False),
    ("series.mul", "superchab.series", "LaurentSeries.__mul__", False),
    ("series.pow", "superchab.series", "LaurentSeries.__pow__", False),
    ("series.compose", "superchab.series", "LaurentSeries.compose_monomial", False),
    ("series.compose", "superchab.series", "LaurentSeries.compose", False),
    ("series.clip", "superchab.series", "LaurentSeries.window_clipped", False),
    ("ratpoly.mul", "superchab.ratpoly", "mul", True),
    ("curve.build", "superchab.curve", "SuperellipticCurve.from_branch_points", False),
    ("curve.build", "superchab.curve", "SuperellipticCurve.__init__", False),
    ("curve.validate", "superchab.curve", "validate", False),
    ("curve.genus", "superchab.curve", "genus", False),
    ("curve.evaluate_f", "superchab.curve", "SuperellipticCurve.evaluate_f", True),
    ("geometry.branch_points", "superchab.geometry", "curve_branch_points", False),
    ("geometry.cluster_tree", "superchab.geometry", "build_cluster_tree", False),
    ("geometry.annuli", "superchab.geometry", "enumerate_maximal_annuli", False),
    ("geometry.annulus_chart", "superchab.geometry", "parameterize_annulus", False),
    ("geometry.disc_chart", "superchab.geometry", "parameterize_disc", False),
    ("bounds.report", "superchab.bounds", "bound_report", False),
    ("search.enumerate", "superchab.search", "enumerate_points", False),
    ("search.verify", "superchab.search", "verify_bound", False),
    ("cli.parse", "superchab.cli", "parse_curve_input", False),
    ("cli.run", "superchab.cli", "run", False),
    ("cli.dump", "superchab.cli", "_dump", False),
)

_SEARCH_SPANS = ("search.enumerate", "search.verify")


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[tuple] = field(default_factory=list)
    totals: dict[str, Totals] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    item: Any = None
    _stack: list[list] = field(default_factory=lambda: [[0.0, None]])
    _open: set[str] = field(default_factory=set)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Start new per-pass totals; spans are kept until `write`."""
        self.totals.clear()
        self.counters.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, hot: bool, after: Callable | None = None) -> Callable:
        stack, open_names, clock, spans = self._stack, self._open, self.clock, self.spans
        totals = self.totals

        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            parent = stack[-1][1]
            frame = [0.0, parent if hot else len(spans)]
            stack.append(frame)
            if not hot:
                spans.append(None)  # placeholder keeps span ids in start order
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
                duration = end - start
                stack[-1][0] += duration
                agg = totals.get(name)
                if agg is None:
                    agg = totals[name] = Totals()
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[0]
                if not hot:
                    spans[frame[1]] = (name, start, end, parent, self.item)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, item: Any, fn: Callable, *args):
        """Run fn(*args) as the root span of one item."""
        self.item = item
        try:
            return self.wrap(name, fn, hot=False)(*args)
        finally:
            self.item = None

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, hot in TRACED:
            module = sys.modules[module_name]
            after = _AFTER.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self.wrap(name, original.__func__, hot, after))
                else:
                    wrapped = self.wrap(name, original, hot, after)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, hot, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "superchab" and not mod_name.startswith("superchab."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- counters taken from arguments and results at the span boundary ------------


def _after_series_mul(tracer: Tracer, args, result) -> None:
    a, b = args
    tracer.count("series.mul_coeff_pairs", len(a.coefficients) * len(b.coefficients))


def _after_chart(tracer: Tracer, args, result) -> None:
    tracer.count("geometry.chart_attempts")
    if result.status == "charts":
        tracer.count("geometry.charts_built")
        low = tracer.counters.get("geometry.attained_min")
        if low is None or result.attained < low:
            tracer.counters["geometry.attained_min"] = result.attained


def _after_evaluate_f(tracer: Tracer, args, result) -> None:
    if any(name in tracer._open for name in _SEARCH_SPANS):
        tracer.count("search.f_evals")


def _after_enumerate(tracer: Tracer, args, result) -> None:
    tracer.count("search.points", result.count)


_AFTER = {
    "series.mul": _after_series_mul,
    "geometry.annulus_chart": _after_chart,
    "geometry.disc_chart": _after_chart,
    "curve.evaluate_f": _after_evaluate_f,
    "search.enumerate": _after_enumerate,
}
