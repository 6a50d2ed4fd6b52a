"""Exact ordinary coloring: colorability, chromatic number, criticality,
coloring counts and the chromatic polynomial.

Everything here is exact and intended for small graphs (roughly up to 12
vertices); counts are arbitrary-precision integers.

:func:`_walk` is the package's one coloring walker, and :func:`_choices`
its entry for cover-style matchings.  Ordinary colorings, list colorings
and the transversals of a cover are all choices of one index per vertex
that select no matched pair, so colorability, the chromatic number,
criticality, the coloring counts here, list coloring and the cover module's
transversal searches all run on it.

Every yes-or-no question shares one search set-up per graph, with each
vertex's neighbors and degree, and first peels, on a stack of degree
counts, each vertex of remaining degree below k.  Colored after the
vertices still there when it goes, it always finds a free color, so only
the k-core is searched, every walk sharing the graph's one identity map.  In
criticality, a vertex on an edge whose deletion drops the chromatic number
needs no search (deleting it deletes the edge), so when every edge drops
it only isolated vertices are asked about, and each is a witness iff n >=
2.  A join with a critical level below is critical with no question about
the join itself, and K1 and the odd cycles, the 1- and 3-critical graphs,
need no question at all (:func:`classify_criticality`).
"""

from __future__ import annotations

import heapq
from math import comb
from operator import index
from typing import Iterator

from .base import Record
from .errors import GraphError
from .graphs import Graph, build_graph, connected_components
from .limits import SearchLimits


def _choices(sizes, matchings, spend=None) -> Iterator[list[int]]:
    """:func:`_walk` with constraints given as cover-style entries ``(u, v,
    pairs)``, ``u < v``; ``(i, j)`` in pairs forbids index i at u together
    with index j at v."""
    incoming: list[list[tuple[int, dict[int, int]]]] = [[] for _ in sizes]
    for u, v, pairs in matchings:
        incoming[v].append((u, dict(pairs)))
    return _walk(sizes, incoming, spend)


def _walk(sizes, incoming, spend=None) -> Iterator[list[int]]:
    """Every choice of one index per vertex, ``0..sizes[v]-1`` at vertex v,
    that selects no matched pair, in lexicographic order.  ``incoming[v]``
    lists ``(u, mapping)`` for u < v: index i at u forbids index
    ``mapping[i]`` at v.

    Yields one shared choice list that the caller must copy before
    advancing.  Vertices are assigned in order 0..n-1 on an explicit stack,
    so input size is not limited by the interpreter's recursion limit.
    Given ``spend``, the walk charges one unit per backtrack and one per
    choice yielded, 4096 at a time, which also checks the deadline."""
    n = len(sizes)
    if n == 0:
        yield []
        return
    if 0 in sizes:
        return
    choice = [-1] * n
    forbidden = [0] * n
    last = n - 1
    steps = v = 0
    while v >= 0:
        size, blocked = sizes[v], forbidden[v]
        i = choice[v] + 1
        while i < size and blocked >> i & 1:
            i += 1
        if i == size:
            choice[v] = -1
            v -= 1
        elif v < last:
            choice[v] = i
            v += 1
            blocked = 0
            for u, mapping in incoming[v]:
                j = mapping.get(choice[u])
                if j is not None:
                    blocked |= 1 << j
            forbidden[v] = blocked
            continue
        else:
            choice[v] = i
            yield choice
        if spend is not None:
            steps += 1
            if not steps & 4095:
                spend(4096)


def _color_matchings(g: Graph, ordered: list[list[int]]) -> list[tuple]:
    """One cover-style entry ``(u, v, pairs)`` per edge, ``u < v``: index i
    of u is matched to index j of v when ``ordered[u][i]`` and
    ``ordered[v][j]`` are the same color.  ``ordered[v]`` is vertex v's list,
    sorted, so the pairs come out sorted."""
    position = [{c: i for i, c in enumerate(colors)} for colors in ordered]
    entries = []
    for u, v in g.edges():
        at_v = position[v]
        entries.append(
            (u, v, tuple((i, at_v[c]) for c, i in position[u].items() if c in at_v))
        )
    return entries


def _greedy_clique(g: Graph) -> list[int]:
    """Deterministic maximal clique: seed with a max-degree vertex, extend by
    degree.  A lower bound for the chromatic number, not a maximum clique."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []
    for seed in order[: min(g.n, 4)]:
        cliq = [seed]
        for v in order:
            if v != seed and g.adj[v].issuperset(cliq):
                cliq.append(v)
        if len(cliq) > len(best):
            best = cliq
    return best


def _search_order(g: Graph, cliq: list[int]) -> list[int]:
    """The order in which every search here assigns vertices: ``cliq``,
    then always a vertex with the most neighbors placed (ties: higher
    degree, then lower label), so that a conflict near the clique is met
    before the search branches over loosely attached vertices."""
    order: list[int] = []
    placed = [0] * g.n  # placed neighbors; -1 once the vertex is placed
    heap = [(0, -g.degree(v), v) for v in range(g.n)]
    heapq.heapify(heap)
    pending = cliq[::-1]
    while len(order) < g.n:
        if pending:
            v = pending.pop()
        else:
            count, _, v = heapq.heappop(heap)
            if placed[v] != -count:  # placed already, or a stale count
                continue
        placed[v] = -1
        order.append(v)
        for u in g.adj[v]:
            if placed[u] >= 0:
                placed[u] += 1
                heapq.heappush(heap, (-placed[u], -g.degree(u), u))
    return order


def _questions(g: Graph):
    """One search set-up for g (greedy clique, :func:`_search_order`,
    neighbors and degrees by search position) for every colorability
    question about g and its single deletions.  Returns the positions and
    ``first(k, edge=None, vertex=None, peel=True)``: the first proper
    k-coloring, one color per searched position, of g less that edge or
    vertex, or None.  Searched position p's colors are capped at ``min(k, p
    + 1)``, which is exact: swapping color names shows that the first
    coloring never uses a color above 1 + the largest one before it."""
    cliq = _greedy_clique(g)
    order = _search_order(g, cliq)
    n, size = g.n, len(cliq)
    position = {v: p for p, v in enumerate(order)}
    near: list[list[int]] = [[] for _ in range(n)]  # near[p]: p's neighbors
    lower: list[list[int]] = [[] for _ in range(n)]  # lower[p]: those below p
    for p, v in enumerate(order):
        for u in g.adj[v]:
            q = position[u]
            near[p].append(q)
            if q < p:
                lower[p].append(q)
    degree = list(map(len, near))
    same = {c: c for c in range(n)}  # the identity map, for every k

    def first(k: int, edge=None, vertex=None, peel=True) -> list[int] | None:
        if k < 0:
            raise GraphError(f"k must be non-negative, got {k}")
        a, b = (position[edge[0]], position[edge[1]]) if edge else (n, n)
        x = n if vertex is None else position[vertex]
        if size > k and x >= size and max(a, b) >= size:
            return None  # what is left keeps the clique
        # a position is kept while its remaining degree is at least floor;
        # each one dropped is on the stack once, when it falls below
        deg, floor = degree[:], k if peel else 0
        if edge:
            deg[a] -= 1
            deg[b] -= 1
        if x < n:
            deg[x] = -1
        drop = [p for p in range(n) if deg[p] < floor]
        if n - len(drop) <= floor:
            return []  # a core needs floor + 1 positions
        while drop:
            p = drop.pop()
            cut = b if p == a else a if p == b else n
            for q in near[p]:
                d = deg[q]
                if d >= floor and q != cut:
                    deg[q] = d - 1
                    if d == floor:
                        drop.append(q)
        core = [p for p in range(n) if deg[p] >= floor]
        if not core:
            return []  # the empty coloring of an empty core
        index = [0] * n
        for i, p in enumerate(core):
            index[p] = i
        incoming = [[(index[q], same) for q in lower[p] if deg[q] >= floor] for p in core]
        if edge and deg[a] >= floor and deg[b] >= floor:
            hi, lo = index[max(a, b)], index[min(a, b)]
            incoming[hi] = [pair for pair in incoming[hi] if pair[0] != lo]
        for choice in _walk([min(k, i + 1) for i in range(len(core))], incoming):
            return choice[:]
        return None

    return position, first


def find_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """The lexicographically first proper coloring with colors ``0..k-1``,
    vertices read in :func:`_search_order`, or None if none exists.  It
    searches the whole graph, unpeeled, for callers that want a coloring."""
    position, first = _questions(g)
    choice = first(k, peel=False)
    return None if choice is None else tuple(choice[position[v]] for v in range(g.n))


def is_k_colorable(g: Graph, k: int) -> bool:
    """Whether g is k-colorable, searching only its k-core (module docstring)."""
    return _questions(g)[1](k) is not None


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring; 0 for the empty vertex set.
    Every k shares one search set-up and searches only the k-core (module
    docstring); each k below the greedy clique's size is rejected at once."""
    first = _questions(g)[1]
    return next(k for k in range(g.n + 1) if first(k) is not None)


class ColoringVerdict(Record):
    """Criticality classification of a graph.

    ``witness`` is an edge ``(u, v)`` or vertex ``v`` whose deletion keeps
    the chromatic number unchanged, populated exactly when the corresponding
    criticality fails.
    """

    __slots__ = ("chromatic_number", "is_critical", "is_vertex_critical", "witness")

    def __init__(
        self,
        chromatic_number: int,
        is_critical: bool,
        is_vertex_critical: bool,
        witness: tuple[int, int] | int | None,
    ):
        object.__setattr__(self, "chromatic_number", chromatic_number)
        object.__setattr__(self, "is_critical", is_critical)
        object.__setattr__(self, "is_vertex_critical", is_vertex_critical)
        object.__setattr__(self, "witness", witness)


def _apex_levels(g: Graph) -> list[Graph]:
    """g, then each level less its least dominating vertex (the vertices
    above it shift down by one), while the level has one and at least two
    vertices."""
    levels = [g]
    while g.n >= 2:
        a = next((v for v in range(g.n) if len(g.adj[v]) == g.n - 1), None)
        if a is None:
            break
        g = Graph(g.n - 1, tuple(
            frozenset(w - (w > a) for w in near if w != a) for v, near in enumerate(g.adj) if v != a
        ))
        levels.append(g)
    return levels


def classify_criticality(g: Graph, levels: list[Graph] | None = None) -> ColoringVerdict:
    """Check chromatic-number drop under every single edge and vertex deletion.

    Both deletion kinds are checked: edge deletions alone miss graphs whose
    only redundancy is an isolated or irrelevant vertex.  A deletion keeps
    the chromatic number k iff what is left is not (k-1)-colorable, asked
    on its (k-1)-core; vertex answers are derived where possible (module
    docstring).

    A join is classified by its level below.  Only the bottom of
    :func:`_apex_levels` (``levels``, when the caller has them) is asked
    about; if it is critical, so is g, with the peeled vertices added to its
    chromatic number.  Otherwise g itself is asked about, so the witness is
    g's first.  The lift: let g = H + a with a dominating and H k-critical,
    so chi(g) = k + 1.  Deleting an edge av leaves g k-colorable: H - v is
    (k-1)-colorable and a, v share a new color.  Deleting an edge or vertex
    of H, or a itself, leaves a graph whose chromatic number is that of the
    rest of H, at most k - 1, plus 1.

    A bottom that is K1 or an odd cycle is critical with no question asked.
    K1 is the one 1-critical graph.  The 3-critical graphs are exactly the
    odd cycles: an odd cycle is not 2-colorable, and deleting any edge or
    vertex leaves paths; a 3-critical graph is not bipartite, so it has an
    odd cycle, and being critical it is that cycle.
    """
    if g.n < 1:
        raise GraphError("criticality is defined for graphs with at least one vertex")
    levels = levels or _apex_levels(g)
    h = levels[-1]
    if h.n == 1 or _is_odd_cycle(h):
        bottom = ColoringVerdict(1 if h.n == 1 else 3, True, True, None)
    else:
        bottom = _deletion_verdict(h)
    if len(levels) == 1:
        return bottom
    if bottom.is_critical:
        return ColoringVerdict(bottom.chromatic_number + len(levels) - 1, True, True, None)
    return _deletion_verdict(g)


def _is_odd_cycle(g: Graph) -> bool:
    """Whether g is connected, 2-regular and of odd order: an odd cycle, and
    so one of the 3-critical graphs, which are exactly the odd cycles."""
    if g.n % 2 == 0 or any(len(near) != 2 for near in g.adj):
        return False
    return len(connected_components(g)) == 1


def _deletion_verdict(g: Graph) -> ColoringVerdict:
    """g's verdict from the questions about each of its deletions."""
    first = _questions(g)[1]
    k = next(k for k in range(g.n + 1) if first(k) is not None)
    settled = [False] * g.n  # endpoints of edges whose deletion drops k
    edge_witness = None
    for u, v in g.edges():
        if first(k - 1, edge=(u, v)) is None:
            edge_witness = (u, v)
            break
        settled[u] = settled[v] = True
    vertex_witness = next(
        (v for v in range(g.n) if not settled[v] and first(k - 1, vertex=v) is None), None
    )
    is_vertex_critical = vertex_witness is None
    is_critical = is_vertex_critical and edge_witness is None
    witness = edge_witness if edge_witness is not None else vertex_witness
    return ColoringVerdict(k, is_critical, is_vertex_critical, witness)


class _Same:
    """The identity map on every color, never listed: ``get`` is
    :func:`operator.index`, which returns a color as it is."""

    __slots__ = ()
    get = index


def count_proper_colorings(g: Graph, k: int, limits: SearchLimits | None = None) -> int:
    """Exact number of proper colorings with color set ``0..k-1``.

    Counts the choices of :func:`_walk` under the identity map on every
    edge, one by one, independently of the chromatic polynomial so the two
    can be cross-checked.  The walk charges its backtracks and colorings to
    a budget started from ``limits``, which raises
    :class:`~critickit.errors.BudgetExceeded` when it trips; nothing of
    size k is listed before it starts.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    spend = (limits or SearchLimits()).start().spend
    same = _Same()
    incoming: list[list[tuple[int, _Same]]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        incoming[v].append((u, same))
    return sum(1 for _ in _walk((k,) * g.n, incoming, spend))


class Polynomial(Record):
    """Integer polynomial, coefficients in the monomial basis, ascending degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def __call__(self, x: int) -> int:
        return self.evaluate(x)


def _poly_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    size = max(len(a), len(b))
    out = [0] * size
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return tuple(out)


def _contract_least(edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The edge set after contracting the least edge (u, v): v merges into
    u, every w > v is relabeled w - 1, and parallel edges collapse."""
    u, v = min(edges)
    contracted = set()
    for a, b in edges:
        a = u if a == v else a
        b = u if b == v else b
        if a == b:
            continue
        a = a if a < v else a - 1
        b = b if b < v else b - 1
        contracted.add((min(a, b), max(a, b)))
    return frozenset(contracted)


def _peel_leaves(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """(vertices peeled, edges left) after removing, on a stack, each vertex
    of remaining degree 1; a tree peels down to one isolated vertex."""
    degree = [len(neighbors) for neighbors in g.adj]
    gone = [False] * g.n
    stack = [v for v in range(g.n) if degree[v] == 1]
    peeled = 0
    while stack:
        v = stack.pop()
        if degree[v] != 1:
            continue  # its last neighbor went first
        gone[v] = True
        degree[v] = 0
        peeled += 1
        w = next(w for w in g.adj[v] if not gone[w])
        degree[w] -= 1
        if degree[w] == 1:
            stack.append(w)
    return peeled, frozenset((u, v) for u, v in g.edges() if not gone[u] and not gone[v])


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def chromatic_polynomial(g: Graph, limits: SearchLimits | None = None) -> Polynomial:
    """Chromatic polynomial via deletion-contraction on the least edge, run
    on an explicit stack.

    Before branching, every vertex of degree 1 is peeled, repeatedly:
    P(G) = (x - 1) P(G - v), so a tree costs linear time and no branching.
    Each connected component left with an edge is solved apart and the
    results multiplied, each isolated vertex left being a factor x: a
    disjoint union is colored part by part.  Intermediate results are
    memoized by exact (n, edge set) key, which is enough at these sizes.
    Each memo miss charges one unit to a budget started from ``limits``,
    which raises :class:`~critickit.errors.BudgetExceeded` when it trips.
    """
    budget = (limits or SearchLimits()).start()
    peeled, core = _peel_leaves(g)
    parts = [part for part in connected_components(build_graph(g.n, core)) if len(part) > 1]
    memo: dict[tuple[int, frozenset[tuple[int, int]]], tuple[int, ...]] = {}
    results: list[tuple[int, ...]] = []  # solved subproblems not yet combined
    # frames (n, edges, stage): stage 0 is unsolved, 1 has the deletion on
    # ``results``, 2 has the deletion and then the contraction there
    stack = []
    for part in parts:
        index = {v: i for i, v in enumerate(part)}
        stack.append((len(part), frozenset((index[u], index[v]) for u, v in core if u in index), 0))
    while stack:
        n, edges, stage = stack.pop()
        if stage == 0:
            if not edges:
                results.append((0,) * n + (1,))
                continue
            cached = memo.get((n, edges))
            if cached is not None:
                results.append(cached)
                continue
            budget.spend()
            stack.append((n, edges, 1))
            stack.append((n, edges - {min(edges)}, 0))
        elif stage == 1:
            stack.append((n, edges, 2))
            stack.append((n - 1, _contract_least(edges), 0))
        else:
            contracted = results.pop()
            result = memo[(n, edges)] = _poly_sub(results.pop(), contracted)
            results.append(result)
    # one result per part, times x per isolated vertex, times (x - 1)^peeled
    coefficients = (0,) * (g.n - peeled - sum(map(len, parts))) + (1,)
    results.append(tuple(comb(peeled, i) * (-1) ** (peeled - i) for i in range(peeled + 1)))
    for result in results:
        coefficients = _poly_mul(coefficients, result)
    return Polynomial(coefficients)
