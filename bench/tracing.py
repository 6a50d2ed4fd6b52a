"""In-memory spans around calls into critickit's modules, for traced runs.

Tracing is done entirely from the benchmark: :func:`instrument` swaps each
listed public function, in every critickit module that holds a reference to
it, for a wrapper that records a span (layer, name, start, end, parent), and
swaps ``SearchLimits`` for a subclass whose budgets count ``spend`` calls and
units before passing them on unchanged.  A call from one layer into the same
layer records no new span, so a span's children are always other layers and
its self time is the time its own layer spent.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function, extractor of span attributes from the result)
TRACED = {
    "graphs": [
        ("graphs", "parse_graph6", None),
        ("graphs", "encode_graph6", None),
        ("graphs", "parse_edgelist", None),
        ("graphs", "format_edgelist", None),
    ],
    "coloring": [
        ("coloring", "classify_criticality", None),
        ("coloring", "chromatic_number", None),
        ("coloring", "count_proper_colorings", None),
        ("coloring", "chromatic_polynomial", None),
    ],
    "listcoloring": [
        ("listcoloring", "list_chromatic_number", None),
        ("listcoloring", "strong_criticality_verdict", None),
        ("listcoloring", "find_bad_nonconstant_assignment", None),
    ],
    "covers": [
        (
            "covers",
            "robust_criticality_verdict",
            lambda r: {"decision": r.decision, "covers": r.covers_scanned},
        ),
        ("covers", "dp_chromatic_number", None),
        ("covers", "pdp_value", lambda r: {"covers": r.covers_scanned}),
        ("covers", "count_transversals", None),
    ],
    "lemmas": [
        (
            "lemmas",
            name,
            lambda r: {"checked": r.checked, "mode": r.mode, "outcome": r.outcome},
        )
        for name in (
            "check_excess_lemma",
            "check_full_extension_lemma",
            "check_induction_lemma",
            "check_pair_reduction",
            "check_join_preserves",
        )
    ],
    "jsonio": [("jsonio", "dumps", lambda r: {"bytes": len(r.encode())})]
    + [
        ("jsonio", name, None)
        for name in (
            "assignment_to_doc",
            "cover_to_doc",
            "witness_to_doc",
            "criticality_to_doc",
            "robust_verdict_to_doc",
            "strong_verdict_to_doc",
            "polynomial_to_doc",
        )
    ],
    "cli": [("cli", "run_command", None)],
}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "attrs", "events", "units", "child_s")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.attrs = {}
        self.events = 0  # budget.spend calls made while this span was innermost
        self.units = 0
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Spans of one traced pass, kept in memory until the run writes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    @contextmanager
    def span(self, layer: str, name: str):
        s = Span(layer, name, self.stack[-1] if self.stack else None)
        self.stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.seconds
            self.spans.append(s)

    def wrap(self, layer: str, name: str, fn, extract):
        def traced(*args, **kwargs):
            if self.stack and self.stack[-1].layer == layer:
                return fn(*args, **kwargs)
            with self.span(layer, name) as s:
                result = fn(*args, **kwargs)
                if extract is not None:
                    s.attrs.update(extract(result))
            return result

        return traced

    def charge(self, units: int) -> None:
        if self.stack:
            top = self.stack[-1]
            top.events += 1
            top.units += units

    def records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": index[id(s)],
                "parent": None if s.parent is None else index[id(s.parent)],
                "layer": s.layer,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
                "spend_calls": s.events,
                "spend_units": s.units,
            }
            for s in self.spans
        ]


class CountingBudget:
    """Wraps a real ``Budget``: counts each ``spend`` call and its units on
    the innermost open span, then forwards the call unchanged."""

    __slots__ = ("_budget", "_tracer")

    def __init__(self, budget, tracer: Tracer):
        self._budget = budget
        self._tracer = tracer

    def spend(self, units: int = 1) -> None:
        self._tracer.charge(units)
        self._budget.spend(units)

    def __getattr__(self, name):
        return getattr(self._budget, name)


def counting_limits(search_limits, tracer: Tracer):
    """A ``SearchLimits`` subclass whose ``start()`` returns a counting
    budget around the real one."""

    class CountingLimits(search_limits):
        def start(self):
            return CountingBudget(super().start(), tracer)

    return CountingLimits


def _critickit_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "critickit" or name.startswith("critickit."))
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers and the counting limits in every loaded
    critickit module; restore the originals on exit."""
    replacements = {}
    for layer, entries in TRACED.items():
        for module, name, extract in entries:
            fn = getattr(sys.modules[f"critickit.{module}"], name)
            replacements[id(fn)] = (fn, tracer.wrap(layer, name, fn, extract))
    limits_cls = sys.modules["critickit.limits"].SearchLimits
    replacements[id(limits_cls)] = (limits_cls, counting_limits(limits_cls, tracer))
    patched = []
    for module in _critickit_modules():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
