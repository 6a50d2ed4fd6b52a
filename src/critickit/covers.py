"""DP-coloring engine: covers, transversals, canonicity, symmetry-reduced
full-cover scans, DP-chromatic number, robust criticality and minimum
transversal counts.

Colors of a cover are (vertex, index) pairs; the auxiliary color graph is
never materialized.  Each host edge carries a partial injection between the
two index ranges, stored once per edge with ``u < v``.

Covers with any list sizes are scanned up to per-vertex index relabeling by
gauge fixing on a spanning forest (:class:`_GaugeScan`): a forest matching
into a list at least as long as its parent's is forced to the identity, and
every other edge ranges over its maximal injections (near-full covers
likewise, with one edge off the forest one pair short).  On k-fold covers
the tree matchings are the identity and the others range over all
permutations.  Every full cover is relabel-equivalent to a gauge-fixed
cover, unique only up to the relabelings that keep the tree matchings at
the identity: the same sigma in Sym(k) at every vertex, which conjugates
each non-tree permutation.  The full-cover scans further quotient by that
conjugation.  In the gauge-fixed picture a cover is canonical iff every
non-tree permutation is the identity.  A kill table is sized before it is
built, against the node budget or the default one if larger, or the node
budget alone on the lemma checks' oversized profiles.

Scans decide whether a bad cover exists walking the non-tree edges most
destructive first (:func:`_decision_order`); a witness is the first bad
cover in canonical edge order, found by walking again in that order.

A join is robustly critical when the level below is (the join rule of
:func:`robust_criticality_verdict`), decided with no scan; so is a graph
less two non-adjacent vertices with at most one common neighbor (the pair
rule), and so are K2 and the odd cycles, the critical graphs of chromatic
number 2 and 3.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations, islice, permutations, product, repeat
from math import comb, factorial, perm, prod
from operator import and_, or_
from typing import TYPE_CHECKING, Iterator

from .base import NONCANONICAL_BAD_COVER_FOUND, NOT_CRITICAL, ROBUSTLY_CRITICAL, UNKNOWN, Record
from .coloring import (
    ColoringVerdict,
    _apex_levels,
    _choices,
    _color_matchings,
    _is_odd_cycle,
    chromatic_number,
    classify_criticality,
)
from .errors import BudgetExceeded, CoverError, GraphError
from .graphs import Graph, build_graph, degeneracy, induced_subgraph, spanning_forest, spanning_tree
from .limits import DEFAULT_NODE_BUDGET, Budget, SearchLimits

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
    """The cover encoding ordinary k-coloring: identity matching everywhere
    (listed only if there is an edge to carry it)."""
    if k < 0:
        raise CoverError(f"k must be non-negative, got {k}")
    edges = graph.edges()
    identity = tuple((i, i) for i in range(k)) if edges else ()
    return Cover(graph, (k,) * graph.n, tuple((u, v, identity) for u, v in edges))


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
    """Exact number of transversals (no early exit).  The walk charges its
    backtracks and transversals to a budget started from ``limits`` (see
    :func:`coloring._walk`), which raises
    :class:`~critickit.errors.BudgetExceeded` when it trips."""
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


def enumerate_full_covers(
    g: Graph, k: int, limits: SearchLimits | None = None
) -> Iterator[Cover]:
    """All gauge-fixed full k-fold covers, in lexicographic permutation order
    over the sorted non-tree edges (last edge varies fastest).  Every full
    k-fold cover of a connected g is relabel-equivalent to an emitted cover,
    and for k >= 3 most equivalence classes are emitted several times (see
    the module docstring).  Raises :class:`BudgetExceeded` as an
    explicit truncation signal."""
    if k < 1:
        raise CoverError(f"enumerate_full_covers needs k >= 1, got {k}")
    tree = {(min(e), max(e)) for e in spanning_tree(g)}  # connectivity precondition
    identity = tuple((i, i) for i in range(k))
    pairs = [tuple(enumerate(p)) for p in permutations(range(k))]
    budget = (limits or SearchLimits()).start()
    for entries in product(*[[identity] if e in tree else pairs for e in g.edges()]):
        budget.spend()
        yield Cover(g, (k,) * g.n, tuple((u, v, m) for (u, v), m in zip(g.edges(), entries)))


@lru_cache(maxsize=None)
def maximal_injections(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The injections of size min(a, b) from indices 0..a-1 into 0..b-1, as
    sorted pair tuples, ordered ascending by their pair set."""
    low = min(a, b)
    return tuple(sorted(
        tuple(zip(sources, targets))
        for sources in combinations(range(a), low)
        for targets in permutations(range(b), low)
    ))


_ZEROS = b"0" * 256
_BLOCK_ROWS = 1 << 16


def _product_blocks(sizes):
    """``product(*map(range, sizes))`` as blocks of (rows, one bytes column
    per position) written by byte repetition, each running through the
    trailing positions that fit in ``_BLOCK_ROWS`` rows."""
    if 0 in sizes:
        return
    h, tail = len(sizes), 1
    while h and tail * sizes[h - 1] <= _BLOCK_ROWS:
        h -= 1
        tail *= sizes[h]
    columns, inner, outer = [], tail, 1
    for s in sizes[h:]:
        inner //= s
        columns.append(b"".join([bytes([d]) * inner for d in range(s)]) * outer)
        outer *= s
    for head in product(*map(range, sizes[:h])):
        yield tail, [bytes([d]) * tail for d in head] + columns


def _tree_colorings(sizes, forest):
    """The index tuples of a forest's vertices, ``0..sizes[v]-1`` at v, with
    no edge's ends equal, (parent, child) edges with every parent before its
    children, in :func:`_product_blocks` of one column per vertex: each
    root's index, then per edge a digit d < sizes[child] - 1, the child's
    index d + (d >= parent's).  Every column is one big int of byte lanes:
    the low seven bits of d and the parent's are compared with the borrow
    kept in each lane's top bit, and the top bits decide where they differ.
    Indices are bytes, so a list of more than 256 is refused."""
    if max(sizes, default=0) > 256:
        raise CoverError("lists of more than 256 indices are not supported")
    children = {child for _, child in forest}
    roots = [v for v in range(len(sizes)) if v not in children]
    digits = [sizes[v] for v in roots] + [sizes[child] - 1 for _, child in forest]
    for rows, columns in _product_blocks(digits):
        colors = [b""] * len(sizes)
        for root, column in zip(roots, columns):
            colors[root] = column
        top = int.from_bytes(b"\x80" * rows, "big")
        low = top - (top >> 7)
        for (parent, child), column in zip(forest, columns[len(roots) :]):
            d, c = int.from_bytes(column, "big"), int.from_bytes(colors[parent], "big")
            ge = (d & (c ^ top) | (d ^ c ^ top) & ((d & low | top) - (c & low))) & top
            colors[child] = (d + (ge >> 7)).to_bytes(rows, "big")
        yield rows, colors


def _kill_masks(blocks, sizes, edges, options, spend) -> tuple[int, list[list[int]]]:
    """(the mask of every row, ``kill``) over the index tuples in
    ``blocks`` of (rows, one bytes column per vertex), ``0..sizes[v]-1`` at
    v: bit i stands for row i, and ``kill[e][o]`` holds the rows whose
    indices at ``edges[e]``'s ends form a pair of option ``options[e][o]``.
    ``translate`` turns a column, last row first, into binary digits for
    ``int(..., 2)``, which has no digit limit.  The deadline is checked at
    every block and every 256 options of an edge, charging nothing."""
    parts = [[] for _ in sizes]
    count = 0
    for rows, columns in blocks:
        spend(0)
        count += rows
        for part, column in zip(parts, columns):
            part.append(column)
    at = []  # at[v][a]: the rows with index a at v
    for part, size in zip(parts, sizes):
        column = b"".join(part)[::-1]
        at.append([
            int(column.translate(_ZEROS[:a] + b"1" + _ZEROS[a + 1 :]) or b"0", 2)
            for a in range(size)
        ])
    kill = []
    for (u, v), opts in zip(edges, options):
        both = [[a & b for b in at[v]] for a in at[u]]
        masks = []
        for start in range(0, len(opts), 256):
            spend(0)
            masks += [
                reduce(or_, [both[a][b] for a, b in pairs], 0)
                for pairs in opts[start : start + 256]
            ]
        kill.append(masks)
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
            step = leader_step(stab, spend) if free is None else free[depth]
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

    def __init__(self, k: int, spend=None):
        """Lists the permutations, their pairs and index; given ``spend``,
        the deadline is checked with a zero-unit charge after every 4096."""
        self.k = k
        self.perms, self.pairs, self._index = [], [], {}
        source = permutations(range(k))
        while chunk := list(islice(source, 4096)):
            start = len(self.perms)
            self._index.update(zip(chunk, range(start, start + len(chunk))))
            self.perms += chunk
            self.pairs += map(tuple, map(enumerate, chunk))
            if len(chunk) == 4096 and spend is not None:
                spend(0)
        self.nperm = len(self.perms)
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

    def _full_group_step(self, spend) -> list:
        """Children of a prefix fixed by all of Sym(k): p is a leader iff it
        is the first permutation of its conjugacy class (cycle type), and the
        child's stabilizer is the centralizer of p.  Given ``spend``, the
        deadline is checked with a zero-unit charge every 4096 permutations
        examined, counting k! per centralizer."""
        seen = set()
        step: list = []
        examined = 0
        for p in self.perms:
            examined += 1
            if examined >= 4096 and spend is not None:
                examined = 0
                spend(0)
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
            examined += self.nperm
            centralizer = tuple(
                s
                for s, sigma in enumerate(self.perms)
                if s and all(sigma[p[i]] == p[sigma[i]] for i in range(self.k))
            )
            step.append(None if len(centralizer) == self.nperm - 1 else centralizer)
        return step

    def leader_step(self, stab: tuple[int, ...] | None, spend=None) -> list:
        """Per child permutation p of a node whose prefix has stabilizer
        ``stab``: the child's stabilizer, or False when some sigma in
        ``stab`` conjugates p to an earlier permutation, so that no cover
        below the child is its orbit's lex-leader.  A step is cached once
        built; a trip of ``spend`` while the root's is built caches none."""
        step = self._steps.get(stab)
        if step is not None:
            return step
        if stab is None:
            step = self._full_group_step(spend)
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


_LEADER_TABLES: dict[int, _LeaderTables] = {}


def _leader_tables(k: int, spend=None) -> _LeaderTables:
    """The tables at k, built on first use with ``spend``; a trip while
    they are built leaves none cached."""
    tables = _LEADER_TABLES.get(k)
    if tables is None:
        tables = _LEADER_TABLES[k] = _LeaderTables(k, spend)
    return tables


def _decision_order(kill) -> list[int]:
    """The non-tree edges by descending root max kill (the most survivors
    one option kills), ties in canonical order."""
    return sorted(range(len(kill)), key=lambda e: -max(map(int.bit_count, kill[e])))


class _GaugeScan:
    """Gauge-fixed covers with list sizes ``sizes``, walked by
    :func:`_survivor_walk`.

    On the spanning forest of g less ``short`` (if given), an edge (p, c)
    with ``sizes[p] <= sizes[c]`` is fixed to the identity on p's indices
    (``tree``), which relabeling c makes of any of its perm(sizes[c],
    sizes[p]) maximal injections.  Every other edge (``nontree``, canonical
    order) is walked: a forest edge into a shorter list over its
    comb(sizes[p], sizes[c]) order-preserving matchings, each standing for
    sizes[c]! injections; ``short`` over its k * k! near-full injections;
    any other over its :func:`maximal_injections`, the leader tables' k!
    permutations when both ends have k.  Every maximal cover, and every
    near-full one short on ``short``, relabels to one of these; without
    ``short`` each stands for ``unit`` maximal covers, ``total`` in all.  A
    survivor is an index tuple that avoids the fixed pairs, one bit of a
    bitset (:func:`_tree_colorings`); an option kills the tuples it matches
    (``kill``) and keeps the rest (``keep``).  A cover is bad iff its
    options keep no survivor; its transversal count is how many they keep.
    ``order`` is the decision order, computed on first use.

    On uniform sizes k without ``short``, relabeling every vertex by the same
    sigma keeps the forest at the identity and conjugates each permutation,
    so :meth:`find_bad` and :meth:`min_transversals`, in any edge order,
    visit only prefixes that are the lexicographic leader of their
    conjugation orbit (:meth:`_LeaderTables.leader_step`).  A node carries
    the stabilizer of its prefix: None for all of Sym(k), else a tuple of the
    non-identity elements.  Badness, canonicity and transversal counts are
    invariant under the relabeling, so the first bad cover or minimizer is
    always a leader.  Scans at one k share its leader tables.

    ``unit``, ``total`` and the table's bits, one per survivor and option,
    are counted before any option is listed.  A table over ``cap``, or if
    None over both the node budget and the default one, raises
    :class:`BudgetExceeded` before anything is built.  Work is accounted per
    cover decided; subtrees dismissed by the survivor bound or by symmetry
    are charged in full.
    """

    def __init__(self, g: Graph, sizes, budget: Budget, short=None, cap=None):
        self.g = g
        self.sizes = sizes = tuple(sizes)
        self.budget = budget
        forest = spanning_forest(g if short is None else build_graph(g.n, set(g.edges()) - {short}))
        self.tree, loose, fixed, self.unit = [], {}, set(), 1
        rows = list(sizes)  # choices per vertex: a fixed child avoids its parent's index
        for p, c in forest:
            e = (p, c) if p < c else (c, p)
            if sizes[p] <= sizes[c]:
                self.tree.append((p, c))
                fixed.add(e)
                self.unit *= perm(sizes[c], sizes[p])
                rows[c] -= 1
            else:
                loose[e] = p
        self.nontree = [e for e in g.edges() if e not in fixed]
        self.depth_total = len(self.nontree)
        counts = []
        for u, v in self.nontree:
            low = min(sizes[u], sizes[v])
            if (u, v) in loose:
                counts.append(comb(max(sizes[u], sizes[v]), low))
                self.unit *= factorial(low)
            else:
                near = low if (u, v) == short else 1  # which of the k pairs is missing
                counts.append(comb(sizes[u], low) * perm(sizes[v], low) * near)
        self.total = self.unit * prod(counts)
        bits = prod(rows) * max(sum(counts), 1)
        if bits > (max(budget.max_nodes, DEFAULT_NODE_BUDGET) if cap is None else cap):
            raise BudgetExceeded(
                f"kill table of {bits} bits exceeds the node budget", spent=budget.spent
            )
        self.options, self._leader_step = [], None
        leaders = short is None and len(set(sizes)) == 1
        for u, v in self.nontree:
            a, b = sizes[u], sizes[v]
            if (u, v) in loose:
                if loose[(u, v)] == u:
                    self.options.append([tuple(zip(s, range(b))) for s in combinations(range(a), b)])
                else:
                    self.options.append([tuple(zip(range(a), s)) for s in combinations(range(b), a)])
            elif a != b:
                self.options.append(maximal_injections(a, b))
            else:
                tables = _leader_tables(a, budget.spend)
                if (u, v) == short:
                    self.options.append([p[:i] + p[i + 1 :] for p in tables.pairs for i in range(a)])
                else:
                    self.options.append(tables.pairs)
                if leaders:
                    self._leader_step = tables.leader_step
        self.full_mask, self.kill = _kill_masks(
            _tree_colorings(sizes, self.tree), sizes, self.nontree, self.options, budget.spend
        )
        self.keep = [[self.full_mask ^ mask for mask in masks] for masks in self.kill]

    @cached_property
    def order(self) -> list[int]:
        """The decision order (:func:`_decision_order`), sorted on first use."""
        return _decision_order(self.kill)

    def cover_at(self, combo: tuple[int, ...]) -> Cover:
        """The cover of option ``combo[e]`` on ``nontree[e]`` and the
        identity on p's indices on each fixed (p, c)."""
        entries = {
            (min(p, c), max(p, c)): tuple((i, i) for i in range(self.sizes[p])) for p, c in self.tree
        }
        entries.update((e, opts[pick]) for e, opts, pick in zip(self.nontree, self.options, combo))
        return Cover(self.g, self.sizes, tuple((u, v, entries[(u, v)]) for u, v in self.g.edges()))

    def find_bad(self, skip_canonical: bool, order=None):
        """The first bad gauge-fixed cover (not the all-identity one if
        ``skip_canonical``) walking the non-tree edges in ``order``, as its
        combo in canonical edge order, or None after deciding the whole
        space; the lexicographically first in canonical order (None)."""
        total = self.depth_total
        order = range(total) if order is None else order
        picks = [0] * total
        for depth, survivors in _survivor_walk(
            [self.kill[e] for e in order], [self.keep[e] for e in order],
            self.full_mask, picks, self.budget.spend, leader_step=self._leader_step,
        ):
            if survivors == 0:
                picks[depth:] = [0] * (total - depth)  # the walk reopens them
                if not skip_canonical or any(picks):
                    break
                if depth < total and len(self.kill[order[-1]]) > 1:
                    picks[-1] = 1  # the first non-identity completion
                    break
            self.budget.spend(1)  # colorable, or the canonical cover skipped
        else:
            return None
        return tuple(p for _, p in sorted(zip(order, picks)))

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
        spend(prod(map(len, self.kill[depth:])))
        self.best_value = 0
        self.best_combo = tuple(picks[:depth]) + (0,) * (total - depth)
        return self.best_value, self.best_combo


class RobustVerdict(Record):
    """Outcome of the robust-criticality scan.

    ``witness`` is a deletion witness (edge/vertex) for ``not_critical`` or a
    verified bad non-canonical full cover for
    ``noncanonical_bad_cover_found``.  ``covers_scanned`` counts gauge-fixed
    covers decided (all of them on a completed scan), at the graph's own
    level only (see :func:`robust_criticality_verdict`).
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
    """Decide robust criticality by deciding all gauge-fixed full covers at
    m, one below the chromatic number.

    Completing a partial cover only removes transversals, so a bad cover of a
    critical graph always has a bad full extension and scanning full covers
    is enough.

    The verdict runs down a chain of levels, each critical with the fold one
    less than the level above, built from the top (:func:`_chain`): while
    the fold is at least 2 and a level has a dominating vertex, the least
    one is peeled, in the peel g's classification runs on
    (:func:`~critickit.coloring.classify_criticality`); at a level h with
    none and fold f >= 3, the first pair x < y of the pair rule's kind is
    removed (:func:`_pair_below`), and the chain goes on from h - x - y.  The chain is then decided from the bottom: a
    K2 or odd-cycle bottom by theorem, any other by its scan; a level above
    a robustly critical one by the join or pair rule, charged
    fold!^(|E| - |V| + 1), the scan's count; a level above one that is not
    robustly critical by its own scan.

    A level at fold 1 or 2 is not scanned.  Being critical with chromatic
    number 2 or 3 it is K2 or an odd cycle, and robustly critical: K2's one
    full 1-fold cover is canonical, and a full 2-fold cover of an odd cycle
    is, relabeled along a spanning path, the identity there and on the
    closing edge either the identity, which is canonical, or the swap,
    under which indices alternating along the path are a transversal (the
    path's ends, at even distance, take the same index, which the swap
    does not match).  Such a level charges the scan's count,
    fold!^(|E| - |V| + 1) (1 or 2), spending what fits before it trips.

    The join rule: g = h + a critical, a dominating, chi(g) = m + 1, and h
    robustly critical make g robustly critical.  In the star gauge at a, a
    full m-fold cover sigma of g is one permutation p_e per edge e of h.
    sigma is bad only if each restriction R_c (color c at a, the other
    indices at h) is a bad partial (m-1)-fold cover of h.  Completing R_c
    gives a bad, hence canonical, full cover; if R_c lacked its pair (l, l)
    on an edge uv, an (m-1)-coloring of h - uv (u, v one color, as chi(h) =
    m) renamed to l would be a transversal.  So each R_c is full: each p_e
    fixes every c, and sigma is the identity.

    The pair rule: let x, y be non-adjacent vertices of h with at most one
    common neighbor, every vertex of h' = h - x - y adjacent to x or y, and
    h' robustly critical with chi(h') = f.  Then every bad full f-fold
    cover of h is canonical, in two steps.

    (i) The excess step: a cover of h' whose lists all have at least f - 1
    indices, and one list, at v, at least f, is colorable.  If it were bad,
    trim every list to f - 1 indices in two ways that differ only at v.
    Both trims are bad, so both are canonical and full (as for R_c above),
    and at a neighbor u of v the f indices of v the two trims keep then
    inject into u's f - 1 indices, which is impossible.

    (ii) The pair step: let H be a bad full f-fold cover of h.  Pick a at x
    and b at y with the same image at the common neighbor, if any, and
    delete their images.  The rest of H on h' is bad: a transversal of it
    with a at x and b at y would be one of H.  Every list of h' keeps at
    least f - 1 indices, so by (i) each keeps exactly f - 1, and the rest
    is a bad (f-1)-fold cover of h', full and canonical.  So each matching
    of h' is a bijection that carries the rest onto the rest, and the
    deleted indices form one more sheet, R_a, of H on h'.  Then H
    restricted to h' is canonical, and labeling a and b by R_a's sheet
    makes every edge at x and y the identity: H is canonical.

    The pair step never reads h's classification, so one handed in by the
    caller cannot make it disagree with h's scan; h's criticality is needed
    only to reduce partial covers to full ones, as for the join rule.

    The chain runs on one budget from ``limits``; a trip gives ``unknown``.
    ``covers_scanned`` counts g's own level only: the charge of the join
    rule, of the pair rule or of the theorem when g is K2 or an odd cycle,
    or the last walk of g's scan (:func:`_scan_verdict`).  On a trip it is
    what the pair rule or the theorem charged at g before tripping (both
    spend what fits), and 0 when a lower level or the join rule's charge
    trips.
    """
    return _robust_verdict(g, limits, None)


_JOIN, _PAIR, _THEOREM = "join", "pair", "theorem"


def _robust_verdict(
    g: Graph, limits: SearchLimits | None, verdict: ColoringVerdict | None
) -> RobustVerdict:
    """:func:`robust_criticality_verdict`, taking g's classification as
    ``verdict`` when the caller already has it (None: classify here)."""
    if g.n < 1:
        raise GraphError("robust criticality needs at least one vertex")
    spanning_tree(g)  # connectivity precondition
    levels = _apex_levels(g)
    if verdict is None:
        verdict = classify_criticality(g, levels)
    k = verdict.chromatic_number
    if not verdict.is_critical:
        return RobustVerdict(NOT_CRITICAL, k, verdict.witness, 0)
    budget = (limits or SearchLimits()).start()
    chain = _chain(levels, k - 1)
    robust = False  # the verdict of the level below, none at the bottom
    try:
        for i in range(len(chain) - 1, -1, -1):
            h, fold, step = chain[i]
            start = budget.spent
            if robust or step == _THEOREM:  # every level above the bottom has a step
                charge = factorial(fold) ** (h.m - h.n + 1)
                if step == _JOIN:
                    budget.spend(charge)
                else:
                    _charge(budget, charge)
                robust = True
            elif i:
                scan = _GaugeScan(h, (fold,) * h.n, budget)
                robust = scan.find_bad(True, scan.order) is None
    except BudgetExceeded as exc:
        # only g's own level counts what it charged: K2, an odd cycle or a
        # pair step spend what fits, a join's charge trips whole
        own = i == 0 and step != _JOIN
        return RobustVerdict(UNKNOWN, k, None, exc.spent - start if own else 0)
    if robust:
        return RobustVerdict(ROBUSTLY_CRITICAL, k, None, charge)
    return _scan_verdict(g, k, budget)


def _charge(budget: Budget, units: int) -> None:
    """Spend ``units`` on ``budget`` as far as they fit, then trip."""
    fits = min(units, budget.max_nodes - budget.spent)
    budget.spend(fits)
    if fits < units:
        raise BudgetExceeded(f"node budget {budget.max_nodes} exhausted", spent=budget.spent)


def _chain(levels: list[Graph], fold: int) -> list[tuple[Graph, int, str | None]]:
    """The levels of :func:`robust_criticality_verdict` from g, at ``fold``,
    down, as (level, fold, step): ``levels`` is g's
    :func:`~critickit.coloring._apex_levels`.  A level's step is how it is
    decided from the level below, by the join or the pair rule; the bottom's
    is the theorem if it is K2 or an odd cycle, else None (its scan).  The
    shapes are tested with the fold, so a classification handed in by the
    caller cannot route a level it does not fit."""
    chain = []
    while levels := levels[:fold]:  # the fold one less per level, down to 1
        chain += [(h, fold - i, _JOIN) for i, h in enumerate(levels)]
        h, fold, _ = chain[-1]
        if (fold, h.n, h.m) == (1, 2, 1) or fold == 2 and _is_odd_cycle(h):
            chain[-1] = (h, fold, _THEOREM)
            break
        levels = _pair_below(h, fold) if fold >= 3 else None
        if levels is None:
            chain[-1] = (h, fold, None)
            break
        chain[-1] = (h, fold, _PAIR)
        fold -= 1
    return chain


def _pair_below(h: Graph, fold: int) -> list[Graph] | None:
    """The apex levels of h less the first pair x < y of the pair rule
    (:func:`robust_criticality_verdict`), or None: x and y non-adjacent,
    with at most one common neighbor and every other vertex adjacent to one
    of them, and what is left critical with chromatic number ``fold``.  Its
    degrees are tested first, against the fold - 1 of every critical graph
    of chromatic number ``fold``; being critical, what is left is
    connected."""
    for x, y in combinations(range(h.n), 2):
        near_x, near_y = h.adj[x], h.adj[y]
        if y in near_x or len(near_x & near_y) > 1 or len(near_x | near_y) < h.n - 2:
            continue
        rest = [v for v in range(h.n) if v != x and v != y]
        if any(len(h.adj[v]) - (v in near_x) - (v in near_y) < fold - 1 for v in rest):
            continue
        below = induced_subgraph(h, rest)
        levels = _apex_levels(below)
        verdict = classify_criticality(below, levels)
        if verdict.is_critical and verdict.chromatic_number == fold:
            return levels
    return None


def _scan_verdict(g: Graph, k: int, budget: Budget) -> RobustVerdict:
    """Critical g's verdict at chromatic number k by its own scan.  A bad
    cover found out of canonical order is found again in it, so the witness
    is the scan's lexicographically first; it is re-verified."""
    start = budget.spent
    try:
        scan = _GaugeScan(g, (k - 1,) * g.n, budget)
        combo = scan.find_bad(True, scan.order)
        if combo is not None and scan.order != sorted(scan.order):
            start = budget.spent  # the witness's walk counts its own covers
            combo = scan.find_bad(True)
    except BudgetExceeded as exc:
        return RobustVerdict(UNKNOWN, k, None, exc.spent - start)
    if combo is None:
        return RobustVerdict(ROBUSTLY_CRITICAL, k, None, budget.spent - start)
    witness = scan.cover_at(combo)
    if find_transversal(witness) is not None or canonical_labeling(witness) is not None:
        raise CoverError("internal error: witness failed re-verification")
    return RobustVerdict(NONCANONICAL_BAD_COVER_FOUND, k, witness, budget.spent - start)


def dp_chromatic_number(g: Graph, limits: SearchLimits | None = None) -> int:
    """Least k with every full k-fold cover colorable (equivalently, every
    k-fold cover: completing a cover never adds transversals).

    Once k exceeds the degeneracy, every cover is colorable by greedy choice
    along a peeling order (each earlier neighbor forbids at most one index),
    so scanning is only needed below that.  By the DP version of Brooks'
    theorem (Bernshteyn, Kostochka and Pron, Sib. Math. J. 2017), a
    connected graph of maximum degree D >= 3 other than K_{D+1} has
    DP-chromatic number at most D, so there scanning stops below D too.  On
    budget exhaustion raises :class:`BudgetExceeded` with ``lower_bound``
    set to the best proven bound.
    """
    if g.n == 0:
        return 0
    spanning_tree(g)
    cap = degeneracy(g) + 1
    top = max(map(len, g.adj))
    if top >= 3 and g.m < g.n * (g.n - 1) // 2:  # DP Brooks
        cap = min(cap, top)
    k = chromatic_number(g)
    while k < cap:
        budget = (limits or SearchLimits()).start()
        try:
            scan = _GaugeScan(g, (k,) * g.n, budget)
            combo = scan.find_bad(False, scan.order)
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
        scan = _GaugeScan(g, (k,) * g.n, budget)
        value, combo = scan.min_transversals()
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            "pdp_value undecided",
            spent=exc.spent,
            best_upper_bound=getattr(scan, "best_value", None),
        ) from exc
    return PdpResult(value, scan.cover_at(combo), budget.spent)
