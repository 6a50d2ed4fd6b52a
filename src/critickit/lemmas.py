"""Executable checks of the structural facts behind robust criticality, run
exhaustively on concrete small graphs.

Adding matched pairs to a cover only removes transversals, so every partial
cover extends to a *maximal* one (each edge matches min(a, b) pairs) that is
bad whenever it is.  The excess check therefore decides profiles with a list
larger than k-1 over their maximal covers, on the gauge-fixed scan of the
profile's sizes (:class:`~critickit.covers._GaugeScan`): a forest edge into
a list at least as long as its parent's is relabeled to the identity, every
other edge keeps its options, and a kill table over the index tuples that
avoid the identity's pairs decides them.

On the all-(k-1) profile the checks decide *near-full* covers instead: one
edge one pair short of a permutation, every other edge a permutation.  A bad
non-full cover C with a full extension F gives one: F less any pair not in C
is a bad near-full cover N containing C, and F is N's only full extension.
So the full-extension check decides the near-full covers alone, and the
excess check the near-full covers and then the full ones.  Both run on the
gauge-fixed scan (:class:`~critickit.covers._GaugeScan`): per short edge,
the matchings on a spanning forest of the graph less that edge are relabeled
to the identity, and the short edge takes every near-full injection.

Covers are decided by survivor bitsets rather than by one transversal search
per cover: every candidate transversal is one bit, each edge option has a
kill mask of the candidates it rules out, and a cover is bad iff its masks
cover every bit.  The checks find their bad covers with :func:`_bad_picks`,
the survivor walk (on lex-leaders alone for the induction check), or with
the full-cover scan's own walk.  Only bad covers are materialized as
:class:`Cover` objects.  Every cover decided is charged to a budget started
from the check's limits: on an oversized profile each gauge-fixed cover
charges the ``unit`` maximal covers it stands for, on the (k-1)-fold scans
one unit per gauge-fixed cover.  When it trips, the check is ``truncated``,
and so is a check whose kill table, a bit per survivor and option, is over
its cap before the table or any option is built: the node budget alone on
an oversized profile, the node budget or the default one if larger on the
(k-1)-fold scans.  A pass reports every cover of the profile checked,
counted by formula.

Each check returns a :class:`LemmaReport`; counterexample payloads carry
enough data to replay the violation through the cover and list modules.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb, perm

from .base import (
    ALL_PASS,
    COUNTEREXAMPLE,
    NOT_CRITICAL,
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
    _scan_verdict,
    _survivor_walk,
    canonical_labeling,
    complete_to_full,
    robust_criticality_verdict,
)
from .errors import BudgetExceeded, DisconnectedError, GraphError
from .graphs import Graph, clique, encode_graph6, induced_subgraph, join, spanning_tree
from .jsonio import SCHEMA_LEMMA, cover_to_doc
from .limits import SearchLimits

EXHAUSTIVE = "exhaustive"


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


def _partial_covers(g: Graph, fold: int) -> int:
    """The number of partial ``fold``-fold covers of g: per edge, the
    injections of every size from one list into the other."""
    return sum(comb(fold, pairs) * perm(fold, pairs) for pairs in range(fold + 1)) ** g.m


def _bad_picks(full: int, kill: list[list[int]], keep: list[list[int]], spend, leader_step=None):
    """Every bad pick tuple over a kill table and its ``keep`` masks, in
    ``product`` order, charging ``spend`` one unit per cover.  The survivor
    walk charges the subtrees in which every completion keeps a survivor;
    every completion of a prefix with no survivor left is bad, and is
    enumerated here.  With ``leader_step``
    (:meth:`~critickit.covers._LeaderTables.leader_step`), only the tuples
    that are their conjugation orbit's lex-leader are given."""
    picks = [0] * len(kill)
    for depth, survivors in _survivor_walk(kill, keep, full, picks, spend, leader_step=leader_step):
        if survivors:
            spend(1)
            continue
        head = tuple(picks[:depth])
        for rest in product(*(range(len(masks)) for masks in kill[depth:])):
            spend(1)
            if leader_step is None or _is_leader(head + rest, leader_step, spend):
                yield head + rest


def _is_leader(picks, leader_step, spend) -> bool:
    """No step of ``picks`` from the root is refused by ``leader_step``."""
    stab = None
    for p in picks:
        stab = leader_step(stab, spend)[p]
        if stab is False:
            return False
    return True


def _bad_near_full(g: Graph, fold: int, budget):
    """Every bad near-full ``fold``-fold cover of g up to relabeling, short
    edge by short edge in canonical order, each the gauge-fixed scan's
    (:class:`~critickit.covers._GaugeScan` given ``short``); every cover
    decided is charged to ``budget``."""
    for short in g.edges():
        scan = _GaugeScan(g, (fold,) * g.n, budget, short)
        for picks in _bad_picks(scan.full_mask, scan.kill, scan.keep, budget.spend):
            yield scan.cover_at(picks)


def _bad_noncanonical(g: Graph, fold: int, budget):
    """The bad ``fold``-fold covers of g that are not canonical, as (covers
    decided, cover): every bad near-full one, then the first bad full one
    of the gauge-fixed scan but the canonical cover."""
    for cover in _bad_near_full(g, fold, budget):
        yield budget.spent, cover
    scan = _GaugeScan(g, (fold,) * g.n, budget)
    combo = scan.find_bad(True, scan.order)
    if combo is not None:
        yield budget.spent, scan.cover_at(combo)


def _bad_maximal(scan: _GaugeScan):
    """Every bad gauge-fixed cover of an oversized profile's scan in
    ``product`` order, as (maximal covers charged up to and including it,
    cover): each gauge-fixed cover decided charges the ``scan.unit`` maximal
    covers it stands for to ``scan.budget``."""
    budget = scan.budget

    def spend(units=1):
        budget.spend(units * scan.unit)

    for picks in _bad_picks(scan.full_mask, scan.kill, scan.keep, spend):
        yield budget.spent, scan.cover_at(picks)


def check_excess_lemma(
    g: Graph, sizes, limits: SearchLimits | None = None
) -> LemmaReport:
    """On a robustly critical graph, a bad cover with every list of size at
    least k-1 must be a canonical (k-1)-fold cover; in particular no bad
    cover exists once some list is strictly larger.

    Such an oversized profile is decided over its maximal covers up to
    relabeling (:func:`_bad_maximal`): a bad cover extends to a bad
    maximal cover, and any bad cover of it is a counterexample.  The
    all-(k-1) profile is decided over its near-full covers, any bad one a
    counterexample, then its full covers by the gauge-fixed scan, any bad
    one but the canonical a counterexample.  A pass reports every cover of
    the profile (maximal or partial) checked; a counterexample, the maximal
    covers charged up to it (each gauge-fixed cover charging its class) or
    the gauge-fixed covers decided up to it."""
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
    fold = rv.k - 1
    if any(s < fold for s in sizes):
        return LemmaReport(
            "excess", word, 0, SKIPPED_PRECONDITION, "-",
            detail=f"profile {sizes} has a list smaller than k-1={fold}",
        )
    budget = limits.start()
    try:
        if any(s != fold for s in sizes):
            scan = _GaugeScan(g, sizes, budget, cap=budget.max_nodes)
            total, bad = scan.total, _bad_maximal(scan)
        else:
            total, bad = _partial_covers(g, fold), _bad_noncanonical(g, fold, budget)
        found = next(bad, None)
    except BudgetExceeded as exc:
        return LemmaReport(
            "excess", word, exc.spent, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted during the cover scan",
        )
    if found is None:
        return LemmaReport("excess", word, total, ALL_PASS, EXHAUSTIVE)
    return LemmaReport(
        "excess", word, found[0], COUNTEREXAMPLE, EXHAUSTIVE,
        counterexample={"cover": cover_to_doc(found[1])},
        detail="bad cover that is not a canonical (k-1)-fold cover",
    )


def check_full_extension_lemma(
    g: Graph, limits: SearchLimits | None = None
) -> LemmaReport:
    """On a critical graph, a bad non-full (k-1)-fold cover has no canonical
    full extension.

    Only the near-full covers are decided.  A bad non-full cover C with a
    full extension F gives one: F less any pair not in C is a bad near-full
    cover, and F is its only full extension (:func:`complete_to_full`).  A
    pass reports every partial (k-1)-fold cover checked; a counterexample,
    the gauge-fixed covers decided up to it."""
    limits = limits or SearchLimits()
    word = encode_graph6(g)
    cv = classify_criticality(g)
    if not cv.is_critical:
        return LemmaReport(
            "full-extension", word, 0, SKIPPED_PRECONDITION, "-",
            detail="graph is not critical",
        )
    fold = cv.chromatic_number - 1
    budget = limits.start()
    try:
        for cover in _bad_near_full(g, fold, budget):
            extension = complete_to_full(cover)
            if canonical_labeling(extension) is not None:
                return LemmaReport(
                    "full-extension", word, budget.spent, COUNTEREXAMPLE, EXHAUSTIVE,
                    counterexample={
                        "cover": cover_to_doc(cover),
                        "canonical_extension": cover_to_doc(extension),
                    },
                    detail="bad non-full cover with a canonical full extension",
                )
    except BudgetExceeded as exc:
        return LemmaReport(
            "full-extension", word, exc.spent, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted during the cover scan",
        )
    return LemmaReport("full-extension", word, _partial_covers(g, fold), ALL_PASS, EXHAUSTIVE)


def check_pair_reduction(
    g: Graph, x: int, y: int, limits: SearchLimits | None = None
) -> LemmaReport:
    """If two non-adjacent vertices with at most one common neighbor can be
    removed from a critical graph leaving a robustly critical one, the graph
    itself is robustly critical, checked by the graph's own scan (never by
    the pair rule of :func:`robust_criticality_verdict`, the lemma itself)."""
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
    rv = _scan_verdict(g, cv.chromatic_number, limits.start())
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
    # metering, each orbit of the relabelings that keep the tree at the
    # identity looked at on its lex-leader alone: badness, canonicity and a
    # compatible labeling's existence are invariant under them, and only
    # the all-identity cover is canonical, so the first counterexample, and
    # the labelings counted up to it, are those of a walk over every cover
    spanning_tree(g)  # connectivity precondition
    budget = limits.start()
    labelings = 0
    label_perms = list(permutations(range(fold)))
    try:
        scan = _GaugeScan(g, (fold,) * g.n, budget)
        for combo in _bad_picks(
            scan.full_mask, scan.kill, scan.keep, budget.spend, scan._leader_step
        ):
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
    criticality, checked by the join's own scan at its fold (never by the
    join rule of :func:`robust_criticality_verdict`, the lemma itself).

    Strong criticality follows.  Let G be robustly critical with chi(G) = k
    and L a bad (k-1)-assignment.  Its cover H_L
    (:func:`~critickit.covers.cover_from_assignment`) is bad, so every full
    completion of H_L is bad, hence canonical: after one relabeling, H_L is
    the canonical cover less some pairs.  If it lacked (i, i) on an edge uv,
    a (k-1)-coloring of G - uv, which gives u and v one color since
    chi(G) = k, renamed to i would be a transversal of H_L.  So H_L is full,
    L agrees along every edge, and L is constant on connected G."""
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
    cv = classify_criticality(joined)
    if not cv.is_critical:
        return LemmaReport(
            "join", word, 0, COUNTEREXAMPLE, EXHAUSTIVE,
            counterexample={"witness": str(cv.witness)},
            detail=f"join verdict: {NOT_CRITICAL}",
        )
    rv = _scan_verdict(joined, cv.chromatic_number, limits.start())
    if rv.decision == UNKNOWN:
        return LemmaReport(
            "join", word, rv.covers_scanned, TRUNCATED, EXHAUSTIVE,
            detail="budget exhausted scanning the join",
        )
    if rv.decision != ROBUSTLY_CRITICAL:
        return LemmaReport(
            "join", word, rv.covers_scanned, COUNTEREXAMPLE, EXHAUSTIVE,
            counterexample={"cover": cover_to_doc(rv.witness)},
            detail=f"join verdict: {rv.decision}",
        )
    return LemmaReport("join", word, rv.covers_scanned, ALL_PASS, EXHAUSTIVE)
