"""The apex step: robust criticality of a join decided through its
dominating vertex.

Let g have a dominating vertex a, h = g - a connected, and m the fold.  In
the star gauge at a every a-v matching is the identity, so a full m-fold
cover of g is one permutation sigma per edge of h, unique up to one global
conjugation, and canonical iff every permutation is the identity.  sigma is
bad iff for every color c at a, the restriction of sigma to the indices
other than c has no transversal of h.  That restriction misses at most one
pair per edge and completes to the (m-1)-fold cover splice_c(sigma): on an
edge with permutation p, i -> p(i), except p^-1(c) -> p(c).  Completing
removes transversals, so a bad sigma has every splice bad.  When h has no
bad non-canonical full (m-1)-fold cover, every splice of a bad sigma is
therefore of trivial holonomy: there are labels f_v^c in Sym(m) fixing c
with splice_c(p) = (f_v^c)^-1 f_u^c on every edge (u, v), u < v.  That is
the prune of :func:`apex_step`.  The argument uses no lemma of the paper.

:func:`critickit.covers.robust_criticality_verdict` routes through the step.
The step lives apart from :mod:`critickit.covers`, which imports it:
compiled separately from source, the two need less peak memory than one
module holding both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .coloring import _choices
from .graphs import Graph, spanning_forest
from .limits import Budget

if TYPE_CHECKING:
    from .covers import _LeaderTables


class _SpliceTables:
    """Tables over the permutations of ``leader``
    (:class:`~critickit.covers._LeaderTables`), by index: the inverses,
    ``splices[p][c]`` (the splice at c of p), the inverse splices, the
    permutations with each splice tuple (``by_splices``: one for m >= 4, up
    to two at m = 3), and composition rows, ``row(a)[b]`` the index of a
    after b, built on first use."""

    def __init__(self, leader: _LeaderTables):
        self.leader = leader
        perms, index, m = leader.perms, leader._index, leader.k
        self.inverse = [index[tuple(sorted(range(m), key=p.__getitem__))] for p in perms]
        self.splices = []
        self.by_splices: dict[tuple[int, ...], tuple[int, ...]] = {}
        for i, p in enumerate(perms):
            row = []
            for c in range(m):
                q = list(p)
                q[p.index(c)], q[c] = p[c], c  # p^-1(c) -> p(c), c fixed
                row.append(index[tuple(q)])
            key = tuple(row)
            self.splices.append(key)
            self.by_splices[key] = self.by_splices.get(key, ()) + (i,)
        self.inverse_splices = [tuple(self.inverse[s] for s in row) for row in self.splices]
        self._rows: list[list[int] | None] = [None] * len(perms)

    def row(self, a: int) -> list[int]:
        row = self._rows[a]
        if row is None:
            perms, index = self.leader.perms, self.leader._index
            outer = perms[a]
            row = self._rows[a] = [index[tuple(map(outer.__getitem__, p))] for p in perms]
        return row


@lru_cache(maxsize=None)
def _splice_tables(leader: _LeaderTables) -> _SpliceTables:
    return _SpliceTables(leader)


def apex_step(h: Graph, leader: _LeaderTables, budget: Budget) -> tuple[bool, int]:
    """(whether the identity is the only bad sigma, leaves decided) for the
    full m-fold covers of g = h + a in the star gauge at a, m =
    ``leader.k``.  Sound when h is connected and
    ``_GaugeScan(h, m - 1, ...).find_bad(True)`` is None (module docstring).

    The walk takes h's vertices breadth-first (:func:`graphs.spanning_forest`),
    each one's tree edge and then its edges back to vertices already placed,
    on an explicit stack.  A tree edge tries all m! permutations and sets
    the child's labels; a closing edge tries only the p whose splice tuple
    is the one its labels force.  Non-leaders under the global conjugation
    are skipped through ``leader.leader_step``.  Every option not tried has
    its subtree charged in full, and each leaf one unit, so a completed walk
    charges m!^|E(h)|, the gauge-fixed covers of g.  A leaf other than the
    identity is decided exactly by :func:`coloring._choices` on g, a as
    vertex 0 and h's vertex v as v + 1; the first bad one ends the walk with
    False."""
    tables = _splice_tables(leader)
    m, nperm, pairs, leader_step = leader.k, leader.nperm, leader.pairs, leader.leader_step
    row, inverse, by_splices = tables.row, tables.inverse, tables.by_splices
    placed = [True] * h.n
    forest = spanning_forest(h)
    for _, y in forest:
        placed[y] = False
    walk = []  # (u, v, the vertex it labels, None on a closing edge), u < v
    for x, y in forest:
        walk.append((min(x, y), max(x, y), y))
        placed[y] = True
        walk += [(min(w, y), max(w, y), None) for w in sorted(h.adj[y]) if placed[w] and w != x]
    total = len(walk)
    below = [nperm ** (total - d) for d in range(1, total + 1)]
    sizes = (m,) * (h.n + 1)
    identity = tuple((i, i) for i in range(m))
    star = [(0, v + 1, identity) for v in range(h.n)]
    labels = [(0,) * m] * h.n  # per vertex, f_v^c for each c; 0 is the identity
    frames = [None] * total
    picks = [0] * total
    every: dict = {}  # a tree edge's options per stabilizer
    spend, getitem = budget.spend, list.__getitem__
    depth, stab, leaves = 0, None, 0
    while True:
        if depth == total:
            spend(1)
            if any(picks):
                leaves += 1
                entries = star + [(u + 1, v + 1, pairs[p]) for (u, v, _), p in zip(walk, picks)]
                if next(_choices(sizes, entries), None) is None:
                    return False, leaves
        else:
            u, v, child = walk[depth]
            step = leader_step(stab)
            rows = None
            if child is None:
                key = tuple(map(getitem, [row(inverse[f]) for f in labels[v]], labels[u]))
                options = [p for p in by_splices.get(key, ()) if step[p] is not False]
            else:
                options = every.get(stab)
                if options is None:
                    options = every[stab] = [p for p in range(nperm) if step[p] is not False]
                # f_child = f_parent after splice^-1 below a lower parent, else after splice
                at_parent = [row(f) for f in labels[u if child == v else v]]
                rows = (at_parent, tables.inverse_splices if child == v else tables.splices)
            if len(options) < nperm:
                spend((nperm - len(options)) * below[depth])
            frames[depth] = (iter(options), step, rows)
            depth += 1
        while True:  # enter the next child of the deepest open node
            depth -= 1
            if depth < 0:
                return True, leaves
            options, step, rows = frames[depth]
            p = next(options, None)
            if p is not None:
                break
        picks[depth] = p
        stab = step[p]
        if rows is not None:
            at_parent, splices = rows
            labels[walk[depth][2]] = tuple(map(getitem, at_parent, splices[p]))
        depth += 1
