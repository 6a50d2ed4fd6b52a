"""Executable checks of the structural facts behind robust criticality, run
exhaustively (or by seeded sampling when too large) on concrete small graphs.

Adding matched pairs to a cover only removes transversals, so every partial
cover extends to a *maximal* one (each edge matches min(a, b) pairs) that is
bad whenever it is.  The excess check therefore decides profiles with a list
larger than k-1 over maximal covers only; the all-(k-1) profile, where the
lemmas quantify over non-full covers, keeps every partial cover.

Covers are decided by survivor bitsets rather than by one transversal search
per cover: every candidate transversal is one bit, each edge option has a
kill mask of the candidates it rules out, and a cover is bad iff its masks
cover every bit.  The excess and full-extension checks build such a table
over the index tuples of a size profile (:class:`_ProfileCovers`); the
induction check reuses the kill masks of the gauge-fixed full-cover scan.
All three find their bad covers with :func:`_bad_picks`, which runs the
gauge-fixed scan's survivor walk without symmetry, so that every bad cover
is visited in ``product`` order.  Only bad covers are materialized as
:class:`Cover` objects.  Every cover decided is charged one unit to a budget
started from the check's limits; when it trips, the check is ``truncated``.

Each check returns a :class:`LemmaReport`; counterexample payloads carry
enough data to replay the violation through the cover and list modules.
"""

from __future__ import annotations

import random
import zlib
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from math import prod
from operator import getitem, or_

from .base import (
    ALL_PASS,
    COUNTEREXAMPLE,
    NO,
    ROBUSTLY_CRITICAL,
    SKIPPED_PRECONDITION,
    TRUNCATED,
    UNKNOWN,
    Record,
)
from .coloring import classify_criticality
from .covers import (
    Cover,
    _GaugeScan,
    _kill_masks,
    _robust_verdict,
    _survivor_walk,
    canonical_labeling,
    find_transversal,
    full_extensions,
    robust_criticality_verdict,
)
from .errors import BudgetExceeded, DisconnectedError, GraphError
from .graphs import Graph, clique, encode_graph6, induced_subgraph, join
from .jsonio import SCHEMA_LEMMA, assignment_to_doc, cover_to_doc
from .limits import SearchLimits

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


class LemmaReport(Record):
    __slots__ = ("lemma", "graph6", "checked", "outcome", "mode", "counterexample", "detail")

    def __init__(
        self,
        lemma: str,
        graph6: str,
        checked: int,
        outcome: str,
        mode: str,
        counterexample: dict | None = None,
        detail: str | None = None,
    ):
        object.__setattr__(self, "lemma", lemma)
        object.__setattr__(self, "graph6", graph6)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "detail", detail)

    def to_doc(self) -> dict:
        return {
            "schema": SCHEMA_LEMMA,
            "lemma": self.lemma,
            "graph6": self.graph6,
            "checked": self.checked,
            "outcome": self.outcome,
            "mode": self.mode,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


@lru_cache(maxsize=None)
def partial_injections(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All partial injections from indices 0..a-1 into 0..b-1, as sorted pair
    tuples, ordered ascending by their pair set."""
    out = []
    for size in range(min(a, b) + 1):
        for sources in combinations(range(a), size):
            for targets in permutations(range(b), size):
                out.append(tuple(zip(sources, targets)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def maximal_injections(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The partial injections of size min(a, b), in
    :func:`partial_injections` order."""
    return tuple(p for p in partial_injections(a, b) if len(p) == min(a, b))


def _seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def _bad_picks(full: int, kill: list[list[int]], spend):
    """Every bad pick tuple over a kill table, in ``product`` order, charging
    ``spend`` one unit per cover.  The survivor walk charges the subtrees in
    which every completion keeps a survivor; every completion of a prefix
    with no survivor left is bad, and is enumerated here."""
    keep = [[full ^ mask for mask in masks] for masks in kill]
    picks = [0] * len(kill)
    for depth, survivors in _survivor_walk(kill, keep, full, picks, spend):
        if survivors:
            spend(1)
            continue
        head = tuple(picks[:depth])
        for rest in product(*(range(len(masks)) for masks in kill[depth:])):
            spend(1)
            yield head + rest


class _ProfileCovers:
    """Covers with a fixed size profile, as one partial-injection pick per
    edge; ``options[e]`` lists edge e's injections in
    :func:`partial_injections` order, only the maximal ones if ``maximal``."""

    def __init__(self, g: Graph, sizes, maximal: bool = False):
        self.g = g
        self.sizes = tuple(sizes)
        self.edges = g.edges()
        injections = maximal_injections if maximal else partial_injections
        self.options = [
            injections(self.sizes[u], self.sizes[v]) for u, v in self.edges
        ]
        self.total = prod(map(len, self.options))

    def cover_at(self, picks) -> Cover:
        entries = tuple(
            (u, v, self.options[e][picks[e]]) for e, (u, v) in enumerate(self.edges)
        )
        return Cover(self.g, self.sizes, entries)

    def _kill_table(self, spend) -> tuple[int, list[list[int]]]:
        """(mask of every index tuple of the profile, per edge and option the
        tuples whose endpoint indices form one of the option's pairs), from
        :func:`~critickit.covers._kill_masks`, which checks the deadline on
        ``spend``."""
        universe = product(*(range(s) for s in self.sizes))
        return _kill_masks(universe, self.sizes, self.edges, self.options, spend)

    def iter_bad(self, limits: SearchLimits, seed_parts) -> tuple[str, int, object]:
        """(mode, covers to decide in all, iterator of (covers decided so
        far, picks) over the bad covers).  The covers are those of
        ``options``: every partial cover of the profile, or only the maximal
        ones.  The iterator charges one unit per cover decided to a budget
        started from ``limits`` now, and raises :class:`BudgetExceeded` when
        it trips; the mode rule keeps the covers within the node budget, so
        only the time cap can trip it.  The kill table is built on the
        iterator's first step, so a cap that trips while the table is read
        is raised there too.

        The mode rule: exhaustive when the estimated search nodes, covers
        times (n+1), fit the node budget; otherwise a seeded sample, drawn
        with replacement, of budget/(n+1) covers.  Covers are decided by the
        profile's kill table when its size in bits, tuples times options,
        fits the node budget, and otherwise one at a time by
        :func:`find_transversal`."""
        budget = limits.start()
        table = prod(self.sizes) * sum(map(len, self.options)) <= limits.max_nodes
        draws = None
        if self.total * (self.g.n + 1) <= limits.max_nodes:
            mode, count = EXHAUSTIVE, self.total
            if not table:
                draws = product(*(range(len(opts)) for opts in self.options))
        else:
            count = max(1, limits.max_nodes // (self.g.n + 1))
            mode = f"{SAMPLED}:{count}"
            randrange = random.Random(_seed(*seed_parts)).randrange
            lengths = [len(opts) for opts in self.options]
            draws = (tuple(map(randrange, lengths)) for _ in range(count))

        def decide():
            if table:
                full, kill = self._kill_table(budget.spend)
                if draws is None:
                    for picks in _bad_picks(full, kill, budget.spend):
                        yield budget.spent, picks
                    return

                def is_bad(picks) -> bool:
                    return reduce(or_, map(getitem, kill, picks), 0) == full

            else:

                def is_bad(picks) -> bool:
                    return find_transversal(self.cover_at(picks)) is None

            for picks in draws:
                budget.spend()
                if is_bad(picks):
                    yield budget.spent, picks

        return mode, count, decide()


def check_excess_lemma(
    g: Graph, sizes, limits: SearchLimits | None = None
) -> LemmaReport:
    """On a robustly critical graph, a bad cover with every list of size at
    least k-1 must be a canonical (k-1)-fold cover; in particular no bad
    cover exists once some list is strictly larger.

    Such an oversized profile is decided over its maximal covers, and
    ``checked`` counts those: a bad cover extends to a bad maximal cover, and
    any bad cover of it is a counterexample.  The all-(k-1) profile is
    decided over every partial cover."""
    limits = limits or SearchLimits()
    word = encode_graph6(g)
    sizes = tuple(sizes)
    if len(sizes) != g.n:
        raise GraphError(f"size profile has {len(sizes)} entries for {g.n} vertices")
    try:
        rv = robust_criticality_verdict(g, limits)
    except DisconnectedError:
        return LemmaReport(
            "excess", word, 0, SKIPPED_PRECONDITION, "-", detail="graph is disconnected"
        )
    if rv.decision != ROBUSTLY_CRITICAL:
        return LemmaReport(
            "excess", word, 0, SKIPPED_PRECONDITION, "-",
            detail=f"graph not verified robustly critical (got {rv.decision})",
        )
    k = rv.k
    if any(s < k - 1 for s in sizes):
        return LemmaReport(
            "excess", word, 0, SKIPPED_PRECONDITION, "-",
            detail=f"profile {sizes} has a list smaller than k-1={k - 1}",
        )
    oversized = any(s != k - 1 for s in sizes)
    profile = _ProfileCovers(g, sizes, maximal=oversized)
    mode, total, bad = profile.iter_bad(limits, ("excess", word, sizes, k))
    try:
        for checked, picks in bad:
            cover = profile.cover_at(picks)
            if oversized or canonical_labeling(cover) is None:
                return LemmaReport(
                    "excess", word, checked, COUNTEREXAMPLE, mode,
                    counterexample={"cover": cover_to_doc(cover)},
                    detail="bad cover that is not a canonical (k-1)-fold cover",
                )
    except BudgetExceeded as exc:
        return LemmaReport(
            "excess", word, exc.spent, TRUNCATED, mode,
            detail="budget exhausted during the cover scan",
        )
    return LemmaReport("excess", word, total, ALL_PASS, mode)


def check_full_extension_lemma(
    g: Graph, limits: SearchLimits | None = None
) -> LemmaReport:
    """On a critical graph, a bad non-full (k-1)-fold cover has no canonical
    full extension."""
    limits = limits or SearchLimits()
    word = encode_graph6(g)
    cv = classify_criticality(g)
    if not cv.is_critical:
        return LemmaReport(
            "full-extension", word, 0, SKIPPED_PRECONDITION, "-",
            detail="graph is not critical",
        )
    k = cv.chromatic_number
    fold = k - 1
    sizes = (fold,) * g.n
    profile = _ProfileCovers(g, sizes)
    mode, total, bad = profile.iter_bad(limits, ("full-extension", word, k))
    extensions = 0
    try:
        for decided, picks in bad:
            if all(len(profile.options[e][p]) == fold for e, p in enumerate(picks)):
                continue  # full covers are outside the lemma's hypothesis
            cover = profile.cover_at(picks)
            for extension in full_extensions(cover):
                extensions += 1
                if canonical_labeling(extension) is not None:
                    return LemmaReport(
                        "full-extension", word, decided + extensions, COUNTEREXAMPLE,
                        mode,
                        counterexample={
                            "cover": cover_to_doc(cover),
                            "canonical_extension": cover_to_doc(extension),
                        },
                        detail="bad non-full cover with a canonical full extension",
                    )
    except BudgetExceeded as exc:
        return LemmaReport(
            "full-extension", word, exc.spent + extensions, TRUNCATED, mode,
            detail="budget exhausted during the cover scan",
        )
    return LemmaReport("full-extension", word, total + extensions, ALL_PASS, mode)


def check_pair_reduction(
    g: Graph, x: int, y: int, limits: SearchLimits | None = None
) -> LemmaReport:
    """If two non-adjacent vertices with at most one common neighbor can be
    removed from a critical graph leaving a robustly critical one, the graph
    itself is robustly critical."""
    limits = limits or SearchLimits()
    word = encode_graph6(g)

    def skipped(reason: str) -> LemmaReport:
        return LemmaReport("pair", word, 0, SKIPPED_PRECONDITION, "-", detail=reason)

    if not (0 <= x < g.n and 0 <= y < g.n) or x == y:
        return skipped(f"need two distinct vertices, got x={x}, y={y}")
    if g.has_edge(x, y):
        return skipped(f"vertices {x} and {y} are adjacent")
    common = g.adj[x] & g.adj[y]
    if len(common) > 1:
        return skipped(f"vertices {x} and {y} have {len(common)} common neighbors")
    cv = classify_criticality(g)
    if not cv.is_critical:
        return skipped("graph is not critical")
    reduced = induced_subgraph(g, set(range(g.n)) - {x, y})
    try:
        rv_reduced = robust_criticality_verdict(reduced, limits)
    except DisconnectedError:
        return skipped(f"graph minus {{{x}, {y}}} is disconnected")
    if rv_reduced.decision != ROBUSTLY_CRITICAL:
        return skipped(
            f"graph minus {{{x}, {y}}} is not verified robustly critical "
            f"(got {rv_reduced.decision})"
        )
    rv = _robust_verdict(g, limits, cv)
    if rv.decision == ROBUSTLY_CRITICAL:
        return LemmaReport("pair", word, rv.covers_scanned, ALL_PASS, EXHAUSTIVE)
    if rv.decision == UNKNOWN:
        return LemmaReport(
            "pair", word, rv.covers_scanned, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted during the full-cover scan",
        )
    return LemmaReport(
        "pair", word, rv.covers_scanned, COUNTEREXAMPLE, EXHAUSTIVE,
        counterexample={"cover": cover_to_doc(rv.witness)}
        if isinstance(rv.witness, Cover)
        else {"witness": str(rv.witness)},
        detail=f"expected robustly critical, got {rv.decision}",
    )


def _labeling_constraints(cover: Cover, members: list[int], fold: int):
    """Equal-label constraints between list indices of distinct members that
    share a matched neighbor color."""
    forward = {(u, v): dict(pairs) for u, v, pairs in cover.matchings}

    def edge_map(a: int, b: int) -> dict[int, int]:
        if (a, b) in forward:
            return forward[(a, b)]
        return {j: i for i, j in forward[(b, a)].items()}

    g = cover.graph
    constraints = []
    for xi in range(len(members)):
        for yi in range(xi + 1, len(members)):
            x, y = members[xi], members[yi]
            for w in sorted(g.adj[x] & g.adj[y]):
                mx = edge_map(x, w)
                my_inv = edge_map(w, y)
                for i in range(fold):
                    l = mx.get(i)
                    if l is None:
                        continue
                    j = my_inv.get(l)
                    if j is not None:
                        constraints.append((xi, i, yi, j))
    return constraints


def check_induction_lemma(
    g: Graph, independent_set, limits: SearchLimits | None = None
) -> LemmaReport:
    """If removing an independent set leaves a robustly (k-1)-critical graph,
    then every bad full (k-1)-fold cover admitting a compatible labeling of
    the set's lists is canonical."""
    limits = limits or SearchLimits()
    word = encode_graph6(g)
    members = sorted(set(independent_set))

    def skipped(reason: str) -> LemmaReport:
        return LemmaReport("induction", word, 0, SKIPPED_PRECONDITION, "-", detail=reason)

    if any(not 0 <= v < g.n for v in members):
        return skipped("independent set contains out-of-range vertices")
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if g.has_edge(u, v):
                return skipped(f"set is not independent: edge ({u}, {v})")
    rest = induced_subgraph(g, set(range(g.n)) - set(members))
    if rest.n == 0:
        return skipped("removing the set leaves no vertices")
    try:
        rv_rest = robust_criticality_verdict(rest, limits)
    except DisconnectedError:
        return skipped("graph minus the set is disconnected")
    if rv_rest.decision != ROBUSTLY_CRITICAL:
        return skipped(
            f"graph minus the set is not verified robustly critical "
            f"(got {rv_rest.decision})"
        )
    fold = rv_rest.k  # covers of g are scanned at (k-1) = fold
    if fold < 1:
        return skipped("reduced graph has chromatic number 0")
    # the covers of enumerate_full_covers, in its order and with its
    # metering, walked without symmetry: a labeling is checked on every bad
    # cover, not only on its orbit's leader
    budget = limits.start()
    labelings = 0
    label_perms = list(permutations(range(fold)))
    try:
        scan = _GaugeScan(g, fold, budget)
        for combo in _bad_picks(scan.full_mask, scan.kill, budget.spend):
            cover = scan.cover_at(combo)
            constraints = _labeling_constraints(cover, members, fold)
            is_canonical = canonical_labeling(cover) is not None
            for assignment in product(label_perms, repeat=len(members)):
                if any(
                    assignment[xi][i] != assignment[yi][j]
                    for xi, i, yi, j in constraints
                ):
                    continue
                labelings += 1
                if not is_canonical:
                    return LemmaReport(
                        "induction", word, budget.spent + labelings, COUNTEREXAMPLE,
                        EXHAUSTIVE,
                        counterexample={
                            "cover": cover_to_doc(cover),
                            "labeling": {
                                str(v): list(assignment[xi])
                                for xi, v in enumerate(members)
                            },
                        },
                        detail="bad full cover with a compatible labeling is not canonical",
                    )
    except BudgetExceeded:
        return LemmaReport(
            "induction", word, budget.spent + labelings, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted during cover enumeration",
        )
    return LemmaReport("induction", word, budget.spent + labelings, ALL_PASS, EXHAUSTIVE)


def check_join_preserves(
    g: Graph, t: int, limits: SearchLimits | None = None
) -> LemmaReport:
    """Joining a robustly critical graph with a clique preserves robust
    criticality (and strong criticality)."""
    limits = limits or SearchLimits()
    if t < 1:
        raise GraphError(f"join size must be positive, got {t}")
    joined = join(g, clique(t))
    word = encode_graph6(joined)
    try:
        rv_g = robust_criticality_verdict(g, limits)
    except DisconnectedError:
        return LemmaReport(
            "join", word, 0, SKIPPED_PRECONDITION, "-", detail="base graph is disconnected"
        )
    if rv_g.decision != ROBUSTLY_CRITICAL:
        return LemmaReport(
            "join", word, 0, SKIPPED_PRECONDITION, "-",
            detail=f"base graph not verified robustly critical (got {rv_g.decision})",
        )
    rv = robust_criticality_verdict(joined, limits)
    if rv.decision == UNKNOWN:
        return LemmaReport(
            "join", word, rv.covers_scanned, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted scanning the join",
        )
    if rv.decision != ROBUSTLY_CRITICAL:
        return LemmaReport(
            "join", word, rv.covers_scanned, COUNTEREXAMPLE, EXHAUSTIVE,
            counterexample={"cover": cover_to_doc(rv.witness)}
            if isinstance(rv.witness, Cover)
            else {"witness": str(rv.witness)},
            detail=f"join verdict: {rv.decision}",
        )
    # a robustly critical join is critical, so only the list part is left
    from .listcoloring import find_bad_nonconstant_assignment

    try:
        bad = find_bad_nonconstant_assignment(joined, rv.k - 1, limits)
    except BudgetExceeded:
        return LemmaReport(
            "join", word, rv.covers_scanned, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted during the strong-criticality search",
        )
    if bad is not None:
        return LemmaReport(
            "join", word, rv.covers_scanned, COUNTEREXAMPLE, EXHAUSTIVE,
            counterexample={"assignment": assignment_to_doc(bad)},
            detail=f"strong criticality verdict: {NO}",
        )
    return LemmaReport("join", word, rv.covers_scanned, ALL_PASS, EXHAUSTIVE)
