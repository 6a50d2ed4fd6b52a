"""Resource limits for exhaustive searches.

Every potentially explosive search in the package accounts its work against
a budget and raises :class:`~critickit.errors.BudgetExceeded` instead of
silently truncating.  Work units are search-specific and documented on the
operations.  Cover scans charge one unit per cover decided (covers dismissed
in bulk by the survivor bound or by symmetry, as not the lex-leader of their
relabeling orbit, are still charged): one per gauge-fixed cover on the
gauge-fixed scans, the lemma checks' near-full and full covers among them,
and on an oversized profile's gauge-fixed table, per gauge-fixed cover the
maximal covers it stands for.  Every scan is sized by one rule before it
builds anything: its kill table takes a bit per row and option
(``covers._GaugeScan``).  A table over its cap stops the scan having
charged nothing: the node budget alone on an oversized profile, both the
node budget and the default one on every other scan.  Assignment searches
charge one unit per enumeration node, and the coloring and transversal
counts one unit per backtrack and one per coloring or transversal counted,
4096 at a time.
The robust verdict decides a join g = h + a, a dominating vertex, from a
robustly critical h with one charge of every gauge-fixed cover of g, after
the levels below have charged the same budget.  A level that is K2 or an
odd cycle is decided by theorem, with no scan, and so is a level h from a
robustly critical h - x - y by the pair rule; each charges its gauge-fixed
covers as its scan would, spending what fits before it trips.
Work that is not metered checks the deadline with zero-unit charges:
building a cover scan's kill masks, its leader tables (every 4096
permutations listed) and their root step, and the bad-assignment search's
deferral certificate (which also decides every complete block system).
"""

from __future__ import annotations

import time

from .base import Record
from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 10_000_000


class SearchLimits(Record):
    """Caps for one bounded search: node budget and optional wall-clock cap."""

    __slots__ = ("max_nodes", "max_millis")

    def __init__(self, max_nodes: int = DEFAULT_NODE_BUDGET, max_millis: int | None = None):
        if max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if max_millis is not None and max_millis <= 0:
            raise ValueError("max_millis must be positive")
        object.__setattr__(self, "max_nodes", max_nodes)
        object.__setattr__(self, "max_millis", max_millis)

    def start(self) -> "Budget":
        return Budget(self)


class Budget:
    """Mutable spend counter for one search run."""

    __slots__ = ("max_nodes", "deadline", "spent")

    def __init__(self, limits: SearchLimits):
        self.max_nodes = limits.max_nodes
        self.deadline = (
            None
            if limits.max_millis is None
            else time.monotonic() + limits.max_millis / 1000.0
        )
        self.spent = 0

    def spend(self, units: int = 1) -> None:
        if self.spent + units > self.max_nodes:
            raise BudgetExceeded(
                f"node budget {self.max_nodes} exhausted", spent=self.spent
            )
        self.spent += units
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted", spent=self.spent)
