"""DP-coloring engine: covers, transversals, canonicity, symmetry-reduced
full-cover scans, DP-chromatic number, robust criticality and minimum
transversal counts.

Colors of a cover are (vertex, index) pairs; the auxiliary color graph is
never materialized.  Each host edge carries a partial injection between the
two index ranges, stored once per edge with ``u < v``.

Full covers of a connected host are scanned up to per-vertex index
relabeling by gauge fixing on a spanning tree: tree matchings are forced to
the identity, non-tree matchings range over all permutations.  Every full
cover is relabel-equivalent to a gauge-fixed cover, unique only up to the
relabelings that keep the tree matchings at the identity: the same sigma in
Sym(k) at every vertex, which conjugates each non-tree permutation.  The
scans further quotient by that conjugation (see :class:`_GaugeScan`).  In
the gauge-fixed picture a cover is canonical iff every non-tree permutation
is the identity.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice, permutations, product, repeat
from operator import and_, or_
from typing import TYPE_CHECKING, Iterator

from .base import NONCANONICAL_BAD_COVER_FOUND, NOT_CRITICAL, ROBUSTLY_CRITICAL, UNKNOWN, Record
from .coloring import (
    ColoringVerdict,
    _choices,
    _color_matchings,
    chromatic_number,
    classify_criticality,
)
from .errors import BudgetExceeded, CoverError, GraphError
from .graphs import Graph, degeneracy, spanning_forest, spanning_tree
from .limits import Budget, SearchLimits

if TYPE_CHECKING:
    from .listcoloring import ListAssignment

Matching = tuple[int, int, tuple[tuple[int, int], ...]]


class Cover(Record):
    """A cover of ``graph``: list sizes per vertex plus one partial injection
    per host edge.

    ``matchings`` holds one entry ``(u, v, pairs)`` per host edge with
    ``u < v``, entries sorted by edge and pairs sorted ascending; ``(i, j)``
    in pairs means index i of u is matched to index j of v.  The record
    itself is a plain container; use :func:`validate_cover` to check the
    cover invariants.
    """

    __slots__ = ("graph", "sizes", "matchings")

    def __init__(self, graph: Graph, sizes: tuple[int, ...], matchings: tuple[Matching, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "matchings", matchings)

    def is_uniform(self) -> bool:
        return len(set(self.sizes)) <= 1

    @property
    def fold(self) -> int:
        """Common list size of a uniform cover."""
        if not self.is_uniform():
            raise CoverError("cover has unequal list sizes")
        return self.sizes[0] if self.sizes else 0


def make_cover(graph: Graph, sizes, matchings) -> Cover:
    """Normalize raw parts into a Cover: ``matchings`` maps edge pairs (either
    orientation) to ``{source_index: target_index}``."""
    normalized = {}
    for (u, v), mapping in matchings.items():
        if u > v:
            u, v = v, u
            mapping = {j: i for i, j in mapping.items()}
        normalized[(u, v)] = tuple(sorted(mapping.items()))
    entries = tuple(
        (u, v, normalized.get((u, v), ())) for u, v in graph.edges()
    )
    extra = set(normalized) - {(u, v) for u, v in graph.edges()}
    if extra:
        raise CoverError(f"matching stored on non-edge {sorted(extra)[0]}")
    return Cover(graph, tuple(sizes), entries)


def make_canonical_cover(graph: Graph, k: int) -> Cover:
    """The cover encoding ordinary k-coloring: identity matching everywhere."""
    if k < 0:
        raise CoverError(f"k must be non-negative, got {k}")
    identity = tuple((i, i) for i in range(k))
    return Cover(
        graph,
        (k,) * graph.n,
        tuple((u, v, identity) for u, v in graph.edges()),
    )


def make_near_canonical(graph: Graph, k: int, edge: tuple[int, int]) -> Cover:
    """Canonical k-fold cover with one edge's matching emptied."""
    if k < 1:
        raise CoverError(f"near-canonical cover needs k >= 1, got {k}")
    u, v = min(edge), max(edge)
    if not graph.has_edge(u, v):
        raise CoverError(f"({edge[0]}, {edge[1]}) is not an edge")
    identity = tuple((i, i) for i in range(k))
    return Cover(
        graph,
        (k,) * graph.n,
        tuple(
            (a, b, () if (a, b) == (u, v) else identity) for a, b in graph.edges()
        ),
    )


def cover_from_assignment(graph: Graph, assignment: ListAssignment) -> Cover:
    """The cover whose transversals correspond one-to-one to proper colorings
    from the assignment.  Index i of vertex v stands for the i-th smallest
    color of its list; same-color indices across an edge are matched."""
    if assignment.n != graph.n:
        raise CoverError(
            f"assignment covers {assignment.n} vertices, graph has {graph.n}"
        )
    ordered = [sorted(assignment.lists[v]) for v in range(graph.n)]
    return Cover(
        graph,
        tuple(len(colors) for colors in ordered),
        tuple(_color_matchings(graph, ordered)),
    )


def cover_violation(cover: Cover) -> str | None:
    """The first violated cover invariant with its location, or None."""
    g = cover.graph
    if len(cover.sizes) != g.n:
        return f"sizes has {len(cover.sizes)} entries for {g.n} vertices"
    for v, s in enumerate(cover.sizes):
        if s < 0:
            return f"negative list size at vertex {v}"
    seen = set()
    for u, v, pairs in cover.matchings:
        if not (0 <= u < v < g.n):
            return f"matching endpoint order/range violated at ({u}, {v})"
        if not g.has_edge(u, v):
            return f"matching stored on non-edge ({u}, {v})"
        if (u, v) in seen:
            return f"duplicate matching entry for edge ({u}, {v})"
        seen.add((u, v))
        sources = [i for i, _ in pairs]
        targets = [j for _, j in pairs]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            return f"matching on edge ({u}, {v}) is not injective"
        if any(not 0 <= i < cover.sizes[u] for i in sources) or any(
            not 0 <= j < cover.sizes[v] for j in targets
        ):
            return f"matching on edge ({u}, {v}) uses out-of-range indices"
    missing = {(u, v) for u, v in g.edges()} - seen
    if missing:
        return f"no matching entry for edge {sorted(missing)[0]}"
    return None


def validate_cover(cover: Cover) -> bool:
    return cover_violation(cover) is None


def is_full(cover: Cover) -> bool:
    """True iff every edge matching is a perfect bijection; requires equal
    list sizes."""
    k = cover.fold
    return all(len(pairs) == k for _, _, pairs in cover.matchings)


def full_extensions(cover: Cover) -> Iterator[Cover]:
    """All full covers extending a uniform partial cover, pairing the
    unmatched indices of each edge in every injective way; existing pairs
    are preserved.  Each edge's free sources, ascending, go to every
    permutation of its free targets in lexicographic order, the last edge
    varying fastest."""
    k = cover.fold
    per_edge = []
    for u, v, pairs in cover.matchings:
        free_src = sorted(set(range(k)) - {i for i, _ in pairs})
        free_dst = sorted(set(range(k)) - {j for _, j in pairs})
        per_edge.append(
            [
                (u, v, tuple(sorted(pairs + tuple(zip(free_src, perm)))))
                for perm in permutations(free_dst)
            ]
        )
    for entries in product(*per_edge):
        yield Cover(cover.graph, cover.sizes, entries)


def complete_to_full(cover: Cover) -> Cover:
    """The first of :func:`full_extensions`: unmatched indices paired in
    ascending order (idempotent on full covers)."""
    return next(full_extensions(cover))


def find_transversal(cover: Cover) -> tuple[int, ...] | None:
    """The lexicographically first index choice per vertex with no matched
    pair selected, or None after exhausting the search."""
    for choice in _choices(cover.sizes, cover.matchings):
        return tuple(choice)
    return None


def count_transversals(cover: Cover, limits: SearchLimits | None = None) -> int:
    """Exact number of transversals (no early exit).  The count charges
    nothing, but checks the deadline of a budget started from ``limits`` and
    raises :class:`~critickit.errors.BudgetExceeded` once it passes."""
    spend = (limits or SearchLimits()).start().spend
    return sum(1 for _ in _choices(cover.sizes, cover.matchings, spend))


def is_bad(cover: Cover) -> bool:
    """A cover is bad when it admits no transversal."""
    return find_transversal(cover) is None


def _forest_labels(cover: Cover, forest: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Per-vertex index bijections of a full cover under which every matching
    on ``forest`` (edges (parent, child), each parent before its children)
    is the identity.  Each root keeps its indices; the child's index matched
    to the parent's index i takes i's label."""
    k = cover.fold
    forward = {(u, v): pairs for u, v, pairs in cover.matchings}
    labels = [tuple(range(k))] * cover.graph.n
    for parent, child in forest:
        at_parent = labels[parent]
        s = [0] * k
        if parent < child:
            for i, j in forward[(parent, child)]:
                s[j] = at_parent[i]
        else:
            for j, i in forward[(child, parent)]:
                s[j] = at_parent[i]
        labels[child] = tuple(s)
    return labels


def canonical_labeling(cover: Cover) -> tuple[tuple[int, ...], ...] | None:
    """Per-vertex bijections of list indices to ``0..k-1`` under which
    matched means equal labels, or None when no such labeling exists.

    Requires all lists of one size and all matchings perfect (otherwise
    None).  The labels make every matching on the host's
    :func:`~critickit.graphs.spanning_forest` the identity
    (:func:`_forest_labels`), which fixes them up to one relabeling per
    component; every edge is then checked.
    """
    if not cover.is_uniform() or not is_full(cover):
        return None
    labels = _forest_labels(cover, spanning_forest(cover.graph))
    for u, v, pairs in cover.matchings:
        for i, j in pairs:
            if labels[u][i] != labels[v][j]:
                return None
    return tuple(labels)


def relabel_cover(cover: Cover, relabelings) -> Cover:
    """Apply per-vertex index bijections: ``relabelings[v][i]`` is the new
    index of old index i.  Preserves transversal counts, badness and
    canonicity."""
    entries = []
    for u, v, pairs in cover.matchings:
        entries.append(
            (u, v, tuple(sorted((relabelings[u][i], relabelings[v][j]) for i, j in pairs)))
        )
    return Cover(cover.graph, cover.sizes, tuple(entries))


def normalize_cover(cover: Cover, tree: list[tuple[int, int]] | None = None) -> Cover:
    """Relabel list indices so every spanning-tree matching is the identity.

    Requires a full cover on a connected host.  The result is
    relabel-equivalent to the input.
    """
    if not is_full(cover):
        raise CoverError("normalize_cover requires a full cover")
    if tree is None:
        tree = spanning_tree(cover.graph)
    return relabel_cover(cover, _forest_labels(cover, tree))


# ---------------------------------------------------------------------------
# Gauge-fixed full-cover enumeration and scans
# ---------------------------------------------------------------------------


def _gauge_edges(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    tree = spanning_tree(g)
    in_tree = {frozenset(e) for e in tree}
    nontree = [e for e in g.edges() if frozenset(e) not in in_tree]
    return tree, nontree


def _gauge_cover(
    g: Graph,
    k: int,
    tree: list[tuple[int, int]],
    nontree: list[tuple[int, int]],
    perms: list[tuple[int, ...]],
    combo: tuple[int, ...],
) -> Cover:
    identity = tuple((i, i) for i in range(k))
    entries = {}
    for u, v in tree:
        entries[(min(u, v), max(u, v))] = identity
    for (u, v), p in zip(nontree, combo):
        entries[(u, v)] = tuple((i, perms[p][i]) for i in range(k))
    return Cover(
        g,
        (k,) * g.n,
        tuple((u, v, tuple(sorted(entries[(u, v)]))) for u, v in g.edges()),
    )


def enumerate_full_covers(
    g: Graph, k: int, limits: SearchLimits | None = None
) -> Iterator[Cover]:
    """All gauge-fixed full k-fold covers, in lexicographic permutation order
    over the sorted non-tree edges (last edge varies fastest).  Every full
    k-fold cover of a connected g is relabel-equivalent to an emitted cover,
    and two emitted covers are equivalent iff relabeling every vertex by one
    sigma in Sym(k) maps one onto the other, so for k >= 3 most equivalence
    classes are emitted several times.  Raises :class:`BudgetExceeded` as an
    explicit truncation signal."""
    if k < 1:
        raise CoverError(f"enumerate_full_covers needs k >= 1, got {k}")
    tree, nontree = _gauge_edges(g)
    perms = list(permutations(range(k)))
    budget = (limits or SearchLimits()).start()
    for combo in product(range(len(perms)), repeat=len(nontree)):
        budget.spend()
        yield _gauge_cover(g, k, tree, nontree, perms, combo)


_ZEROS = b"0" * 256


def _kill_masks(tuples, sizes, edges, options, spend) -> tuple[int, list[list[int]]]:
    """(the mask of every tuple, ``kill``) over the index tuples
    ``tuples``, one index per vertex and ``0..sizes[v]-1`` at vertex v: bit
    i stands for the i-th tuple, and ``kill[e][o]`` holds the tuples whose
    indices at the endpoints of ``edges[e]`` form one of the pairs of
    option ``options[e][o]``.

    The per-(vertex, index) masks are built column by column: the tuples'
    bytes are laid end to end, each vertex's column is sliced out, last
    tuple first, and ``translate`` turns it into a string of binary digits
    for ``int(..., 2)`` (base 2 is exempt from the int-string digit limit).
    Reading the tuples is most of the set-up time, so the deadline is
    checked every 4096 tuples, charging nothing."""
    n = len(sizes)
    rows = map(bytes, tuples)
    data = bytearray()
    count = 0
    while True:
        chunk = list(islice(rows, 4096))
        if not chunk:
            break
        spend(0)
        count += len(chunk)
        data += b"".join(chunk)
    at = []  # at[v][a]: the tuples with index a at v
    for v, size in enumerate(sizes):
        column = data[v::n][::-1]
        at.append([
            int(column.translate(_ZEROS[:a] + b"1" + _ZEROS[a + 1 :]) or b"0", 2)
            for a in range(size)
        ])
    kill = []
    for (u, v), opts in zip(edges, options):
        at_u, at_v = at[u], at[v]
        kill.append([reduce(or_, [at_u[a] & at_v[b] for a, b in pairs], 0) for pairs in opts])
    return (1 << count) - 1, kill


def _survivor_walk(kill, keep, survivors, picks, spend, need=1, leader_step=None):
    """Walk every pick tuple over a kill table (one option per edge,
    ``len(kill[e])`` options at edge e) in ``product`` order on an explicit
    stack, starting from the root's ``survivors``; a prefix's survivors are
    those its picks keep.

    Yields (depth, survivors) at each node with no survivor or no edge left,
    with ``picks`` holding its prefix, for the caller to decide and charge;
    a value sent back replaces ``need``.  Every other cover is charged to
    ``spend`` here: subtrees in which every completion keeps ``need``
    survivors and, with ``leader_step`` (:meth:`_LeaderTables.leader_step`),
    children that are not their orbit's lex-leader.  Without it every child
    is live.

    The survivor bound is computed in place.  Each edge after the node's own
    removes at most as many survivors as its most destructive option; when
    those maxima (the tail) plus the node's own edge's maximum (the head)
    sum to at most ``popcount - need`` (the cap), every completion keeps
    ``need`` survivors.  At the last edge the test is containment: every
    option keeps ``need`` survivors.  At the second-to-last edge the tail is
    one maximum.  The tail stops summing once it exceeds the cap, and the
    head is then never computed; nor is it when the parent's maximum on this
    node's edge, which bounds the head, already passes the test.

    A child's survivors are a subset of its parent's, so the parent's tail
    dismisses a child whose popcount reaches ``tail + need``.  That popcount
    is the parent's popcount less the survivors the child's option kills,
    counted once per option on the parent's edge; a child that is not
    dismissed takes its own cap from it.  A tail that stopped summing before
    the last edge bounds nothing, and one of at least the parent's popcount
    can dismiss no child, so both are dropped.  While ``need`` is 1 the tail is
    of use to a child only within the cap; for a larger ``need``, which may
    fall later, a node sums its tail past its own cap when it has at least
    as many live children as edges left, a rule that depends only on the
    input."""
    bc = int.bit_count
    total = len(kill)
    last = total - 1
    below = [1] * (total + 1)  # below[d]: the covers under a node at depth d
    for d in range(total - 1, -1, -1):
        below[d] = below[d + 1] * len(kill[d])
    # per open node: survivors, leader step, tail, popcount, the survivors
    # each option of its edge kills, and its maximum on the next edge
    frames = [None] * total
    free = None if leader_step else [[()] * len(masks) for masks in kill]
    depth, stab, count = 0, None, None
    while True:
        if survivors == 0 or depth == total:
            sent = yield depth, survivors
            if sent is not None:
                need = sent
        else:
            step = leader_step(stab) if free is None else free[depth]
            heads = first = None
            if depth == last:
                if need == 1:
                    dismissed = all(map(and_, repeat(survivors), keep[last]))
                else:
                    dismissed = min([bc(survivors & m) for m in keep[last]]) >= need
                tail = 0
            else:
                if count is None:
                    count = bc(survivors)
                cap = count - need
                first = tail = max([bc(survivors & m) for m in kill[depth + 1]])
                e = depth + 2
                if e < total:
                    stop = cap
                    if need > 1 and len(step) - step.count(False) >= total - depth:
                        stop = count - 1
                    while tail <= stop and e < total:
                        tail += max([bc(survivors & m) for m in kill[e]])
                        e += 1
                dismissed = tail <= cap
                if dismissed and (depth == 0 or tail + frames[depth - 1][5] > cap):
                    heads = [bc(survivors & m) for m in kill[depth]]
                    dismissed = tail + max(heads) <= cap
                if e < total or tail >= count:
                    tail = None
            if dismissed:
                spend(below[depth])
            else:
                if tail is not None and heads is None:
                    heads = [bc(survivors & m) for m in kill[depth]]
                    if count is None:
                        count = bc(survivors)
                frames[depth] = (survivors, step, tail, count, heads, first)
                picks[depth] = -1
                depth += 1
        # enter the next child of the deepest open node
        while True:
            depth -= 1
            if depth < 0:
                return
            parent, step, tail, before, heads, _ = frames[depth]
            options, size = keep[depth], below[depth + 1]
            for p in range(picks[depth] + 1, len(options)):
                stab = step[p]
                if stab is False:
                    spend(size)
                    continue
                if tail is None:
                    count = None
                else:
                    count = before - heads[p]
                    if tail + need <= count:
                        spend(size)
                        continue
                survivors = parent & options[p]
                picks[depth] = p
                break
            else:
                continue
            break
        depth += 1


class _LeaderTables:
    """Lex-leader tables of Sym(k) acting on permutations by conjugation:
    the permutations in lexicographic order, their index, the conjugation
    rows and the leader steps, each built on first use.  They depend only on
    k, so every scan at k shares one set (:func:`_leader_tables`)."""

    def __init__(self, k: int):
        self.k = k
        self.perms = list(permutations(range(k)))
        self.nperm = len(self.perms)
        self.pairs = [tuple(enumerate(p)) for p in self.perms]
        self._index = {p: i for i, p in enumerate(self.perms)}
        self._conj_rows: dict[int, list[int]] = {}
        self._steps: dict[tuple[int, ...] | None, list] = {(): [()] * self.nperm}

    def _conj_row(self, s: int) -> list[int]:
        """``row[p]`` is the index of sigma p sigma^-1 for sigma = perms[s]."""
        row = self._conj_rows.get(s)
        if row is None:
            sigma = self.perms[s]
            q = [0] * self.k
            row = []
            for p in self.perms:
                for i in range(self.k):
                    q[sigma[i]] = sigma[p[i]]
                row.append(self._index[tuple(q)])
            self._conj_rows[s] = row
        return row

    def _full_group_step(self) -> list:
        """Children of a prefix fixed by all of Sym(k): p is a leader iff it
        is the first permutation of its conjugacy class (cycle type), and the
        child's stabilizer is the centralizer of p."""
        seen = set()
        step: list = []
        for p in self.perms:
            cycle_type = []
            done = [False] * self.k
            for start in range(self.k):
                length, i = 0, start
                while not done[i]:
                    done[i] = True
                    i = p[i]
                    length += 1
                if length:
                    cycle_type.append(length)
            cycle_type = tuple(sorted(cycle_type))
            if cycle_type in seen:
                step.append(False)
                continue
            seen.add(cycle_type)
            centralizer = tuple(
                s
                for s, sigma in enumerate(self.perms)
                if s and all(sigma[p[i]] == p[sigma[i]] for i in range(self.k))
            )
            step.append(None if len(centralizer) == self.nperm - 1 else centralizer)
        return step

    def leader_step(self, stab: tuple[int, ...] | None) -> list:
        """Per child permutation p of a node whose prefix has stabilizer
        ``stab``: the child's stabilizer, or False when some sigma in
        ``stab`` conjugates p to an earlier permutation, so that no cover
        below the child is its orbit's lex-leader."""
        step = self._steps.get(stab)
        if step is not None:
            return step
        if stab is None:
            step = self._full_group_step()
        else:
            rows = [(s, self._conj_row(s)) for s in stab]
            step = []
            for p in range(self.nperm):
                kept: tuple[int, ...] | bool = ()
                for s, row in rows:
                    if row[p] < p:
                        kept = False
                        break
                    if row[p] == p:
                        kept += (s,)
                step.append(kept)
        self._steps[stab] = step
        return step


@lru_cache(maxsize=None)
def _leader_tables(k: int) -> _LeaderTables:
    return _LeaderTables(k)


class _GaugeScan:
    """Gauge-fixed full k-fold covers, walked by :func:`_survivor_walk`.

    Each non-tree edge's options are the k! permutations.  A survivor is a
    transversal of the tree-only cover, one bit of a bitset; permutation p
    on a non-tree edge kills the transversals it matches (``kill``) and
    keeps the rest (``keep``).  The survivors of a prefix are the
    transversals compatible with every permutation chosen so far, so a
    cover is bad iff it has none, and its transversal count is the number
    left after the last edge.  The kill table comes from :func:`_kill_masks`
    over the tree-only transversals, built column by column.

    Relabeling every vertex by the same sigma keeps the tree matchings at the
    identity and conjugates each non-tree permutation, so both scans visit
    only prefixes that are the lexicographic leader of their conjugation
    orbit (lex-leader symmetry breaking, :meth:`_LeaderTables.leader_step`).
    A node carries the stabilizer of its prefix: None for all of Sym(k),
    else a tuple of the non-identity elements.  Badness, canonicity and
    transversal counts are invariant under the relabeling, so the
    lexicographically first bad cover or minimizer is always a leader and
    the witnesses are unchanged.  The permutations and leader tables depend
    only on k and are shared by every scan at k.

    Work is accounted per cover decided; subtrees dismissed by the survivor
    bound or by symmetry are charged in full.
    """

    def __init__(self, g: Graph, k: int, budget: Budget):
        self.g = g
        self.k = k
        self.budget = budget
        self.tree, self.nontree = _gauge_edges(g)
        tables = _leader_tables(k)
        self.perms = tables.perms
        self.nperm = tables.nperm
        self._leader_step = tables.leader_step
        self.depth_total = len(self.nontree)
        identity = tuple((i, i) for i in range(k))
        tree_only = [(min(u, v), max(u, v), identity) for u, v in self.tree]
        self.full_mask, self.kill = _kill_masks(
            _choices((k,) * g.n, tree_only), (k,) * g.n, self.nontree,
            [tables.pairs] * self.depth_total, budget.spend,
        )
        self.keep = [[self.full_mask ^ mask for mask in masks] for masks in self.kill]

    def cover_at(self, combo: tuple[int, ...]) -> Cover:
        return _gauge_cover(self.g, self.k, self.tree, self.nontree, self.perms, combo)

    def find_bad(self, skip_canonical: bool):
        """Lexicographically first bad gauge-fixed cover (skipping the
        all-identity one when ``skip_canonical``), as its combo, or None after
        deciding the whole space."""
        total = self.depth_total
        picks = [0] * total
        for depth, survivors in _survivor_walk(
            self.kill, self.keep, self.full_mask, picks, self.budget.spend,
            leader_step=self._leader_step,
        ):
            if survivors == 0:
                rest = total - depth
                if not skip_canonical or any(picks[:depth]):
                    return tuple(picks[:depth]) + (0,) * rest
                if rest and self.nperm > 1:
                    # lexicographically first non-identity completion
                    return (0,) * (total - 1) + (1,)
            self.budget.spend(1)  # colorable, or the canonical cover skipped
        return None

    # -- minimize the transversal count -----------------------------------

    def min_transversals(self):
        """(min count, lexicographically first minimizing combo).  Progress is
        kept on ``self.best_value``/``self.best_combo`` so callers can report
        a best-so-far upper bound when the budget trips.  The walk's bound
        asks every completion to keep ``best_value`` survivors; until there
        is a first value it asks for more than there are, so it dismisses
        nothing.  The first prefix with no survivor ends the walk: nothing
        can beat 0."""
        self.best_value: int | None = None
        self.best_combo: tuple[int, ...] | None = None
        total, spend = self.depth_total, self.budget.spend
        picks = [0] * total
        walk = _survivor_walk(
            self.kill, self.keep, self.full_mask, picks, spend,
            self.full_mask.bit_count() + 1, self._leader_step,
        )
        try:
            depth, survivors = next(walk)
            while survivors:  # a whole cover that keeps transversals
                spend(1)
                count = survivors.bit_count()
                if self.best_value is None or count < self.best_value:
                    self.best_value = count
                    self.best_combo = tuple(picks)
                depth, survivors = walk.send(self.best_value)
        except StopIteration:
            return self.best_value, self.best_combo
        spend(self.nperm ** (total - depth))
        self.best_value = 0
        self.best_combo = tuple(picks[:depth]) + (0,) * (total - depth)
        return self.best_value, self.best_combo


class RobustVerdict(Record):
    """Outcome of the robust-criticality scan.

    ``witness`` is a deletion witness (edge/vertex) for ``not_critical`` or a
    verified bad non-canonical full cover for
    ``noncanonical_bad_cover_found``.  ``covers_scanned`` counts gauge-fixed
    covers decided (all of them on a completed scan).
    """

    __slots__ = ("decision", "k", "witness", "covers_scanned")

    def __init__(
        self,
        decision: str,
        k: int,
        witness: Cover | tuple[int, int] | int | None,
        covers_scanned: int,
    ):
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "covers_scanned", covers_scanned)


def robust_criticality_verdict(g: Graph, limits: SearchLimits | None = None) -> RobustVerdict:
    """Decide robust criticality by scanning all gauge-fixed full covers at
    one below the chromatic number.

    Completing a partial cover only removes transversals, so a bad cover of a
    critical graph always has a bad full extension and scanning full covers
    is enough; gauge fixing makes "canonical" synonymous with "all non-tree
    permutations are the identity".
    """
    return _robust_verdict(g, limits, None)


def _robust_verdict(
    g: Graph, limits: SearchLimits | None, verdict: ColoringVerdict | None
) -> RobustVerdict:
    """:func:`robust_criticality_verdict`, taking g's classification as
    ``verdict`` when the caller already has it (None: classify here)."""
    if g.n < 1:
        raise GraphError("robust criticality needs at least one vertex")
    spanning_tree(g)  # connectivity precondition
    if verdict is None:
        verdict = classify_criticality(g)
    k = verdict.chromatic_number
    if not verdict.is_critical:
        return RobustVerdict(NOT_CRITICAL, k, verdict.witness, 0)
    budget = (limits or SearchLimits()).start()
    try:
        scan = _GaugeScan(g, k - 1, budget)
        combo = scan.find_bad(skip_canonical=True)
    except BudgetExceeded as exc:
        return RobustVerdict(UNKNOWN, k, None, exc.spent)
    if combo is None:
        return RobustVerdict(ROBUSTLY_CRITICAL, k, None, budget.spent)
    witness = scan.cover_at(combo)
    if find_transversal(witness) is not None or canonical_labeling(witness) is not None:
        raise CoverError("internal error: witness failed re-verification")
    return RobustVerdict(NONCANONICAL_BAD_COVER_FOUND, k, witness, budget.spent)


def dp_chromatic_number(g: Graph, limits: SearchLimits | None = None) -> int:
    """Least k with every full k-fold cover colorable (equivalently, every
    k-fold cover: completing a cover never adds transversals).

    Once k exceeds the degeneracy, every cover is colorable by greedy choice
    along a peeling order (each earlier neighbor forbids at most one index),
    so scanning is only needed below that.  On budget exhaustion raises
    :class:`BudgetExceeded` with ``lower_bound`` set to the best proven bound.
    """
    if g.n == 0:
        return 0
    spanning_tree(g)
    greedy_cap = degeneracy(g) + 1
    k = chromatic_number(g)
    while k < greedy_cap:
        budget = (limits or SearchLimits()).start()
        try:
            combo = _GaugeScan(g, k, budget).find_bad(skip_canonical=False)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"dp_chromatic_number undecided at k={k}",
                spent=exc.spent,
                lower_bound=k,
            ) from exc
        if combo is None:
            return k
        k += 1
    return k


class PdpResult(Record):
    __slots__ = ("value", "cover", "covers_scanned")

    def __init__(self, value: int, cover: Cover, covers_scanned: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "covers_scanned", covers_scanned)


def pdp_value(g: Graph, k: int, limits: SearchLimits | None = None) -> PdpResult:
    """Minimum transversal count over all gauge-fixed full k-fold covers,
    with a minimizing cover (relabeling preserves counts and completing a
    cover never increases them, so this is the minimum over all k-fold
    covers).  Ties resolve to the lexicographically first cover, so the
    canonical cover is returned whenever it attains the minimum.  The scan
    stops at the first cover with no transversal, so ``covers_scanned``
    counts the covers decided up to it rather than all of them."""
    if g.n < 1:
        raise GraphError("pdp_value needs at least one vertex")
    if k < 1:
        raise CoverError(f"pdp_value needs k >= 1, got {k}")
    spanning_tree(g)
    budget = (limits or SearchLimits()).start()
    scan = None  # no best value when the budget trips building the scan
    try:
        scan = _GaugeScan(g, k, budget)
        value, combo = scan.min_transversals()
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            "pdp_value undecided",
            spent=exc.spent,
            best_upper_bound=getattr(scan, "best_value", None),
        ) from exc
    return PdpResult(value, scan.cover_at(combo), budget.spent)
