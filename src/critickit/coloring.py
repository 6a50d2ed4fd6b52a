"""Exact ordinary coloring: colorability, chromatic number, criticality,
coloring counts and the chromatic polynomial.

Everything here is exact and intended for small graphs (roughly up to 12
vertices); counts are arbitrary-precision integers.

:func:`_choices` is the package's one coloring walker.  Ordinary colorings,
list colorings and the transversals of a cover are all choices of one index
per vertex that select no matched pair, so colorability, the chromatic
number, criticality, the coloring counts here, list coloring and the cover
module's transversal searches all run on it.

Every yes-or-no question shares one search set-up per graph and first
peels, on an explicit stack, each vertex of remaining degree below k.
Colored after the vertices still there when it goes, it always finds a free
color, so only the k-core is searched.  In criticality, a vertex on an edge whose
deletion drops the chromatic number needs no search (deleting it deletes
the edge), so when every edge drops it only isolated vertices are asked
about, and each is a witness iff n >= 2.
"""

from __future__ import annotations

import heapq
from math import comb
from typing import Iterator

from .base import Record
from .errors import GraphError
from .graphs import Graph
from .limits import SearchLimits


def _choices(sizes, matchings, spend=None) -> Iterator[list[int]]:
    """Every choice of one index per vertex, ``0..sizes[v]-1`` at vertex v,
    that selects no matched pair, in lexicographic order.  ``matchings``
    holds cover-style entries ``(u, v, pairs)`` with ``u < v``; ``(i, j)``
    in pairs forbids index i at u together with index j at v.

    Yields one shared choice list that the caller must copy before
    advancing.  Vertices are assigned in order 0..n-1 on an explicit stack,
    so input size is not limited by the interpreter's recursion limit.
    Given ``spend``, the walk checks the deadline every 4096 backtracks
    with a zero-unit charge."""
    n = len(sizes)
    if n == 0:
        yield []
        return
    if 0 in sizes:
        return
    # incoming[v]: (u, map from u-indices to forbidden v-indices) for u < v
    incoming: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(n)]
    for u, v, pairs in matchings:
        incoming[v].append((u, dict(pairs)))
    choice = [-1] * n
    forbidden = [0] * n
    backtracks = 0
    v = 0
    while v >= 0:
        size, blocked = sizes[v], forbidden[v]
        i = choice[v] + 1
        while i < size and blocked >> i & 1:
            i += 1
        if i == size:
            choice[v] = -1
            v -= 1
            if spend is not None:
                backtracks += 1
                if not backtracks & 4095:
                    spend(0)
            continue
        choice[v] = i
        if v == n - 1:
            yield choice
            continue
        v += 1
        blocked = 0
        for u, mapping in incoming[v]:
            j = mapping.get(choice[u])
            if j is not None:
                blocked |= 1 << j
        forbidden[v] = blocked


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
    neighbors by search position) for every colorability question about g
    and its single deletions.  Returns the positions and ``first(k,
    edge=None, vertex=None, peel=True)``: the first proper k-coloring, one
    color per searched position, of g less that edge or vertex, or None.
    Searched position p's colors are capped at ``min(k, p + 1)``, which is
    exact: swapping color names shows that the first coloring never uses a
    color above 1 + the largest one before it."""
    cliq = _greedy_clique(g)
    order = _search_order(g, cliq)
    n, size = g.n, len(cliq)
    position = {v: p for p, v in enumerate(order)}
    adj = [[position[u] for u in g.adj[v]] for v in order]
    degree = [len(near) for near in adj]

    def first(k: int, edge=None, vertex=None, peel=True) -> list[int] | None:
        if k < 0:
            raise GraphError(f"k must be non-negative, got {k}")
        a, b = (position[edge[0]], position[edge[1]]) if edge else (n, n)
        x = n if vertex is None else position[vertex]
        if size > k and x >= size and max(a, b) >= size:
            return None  # what is left keeps the clique
        gone, floor = {a: b, b: a}, k if peel else 0
        deg = degree[:]
        if edge:
            deg[a] -= 1
            deg[b] -= 1
        kept = [p != x and deg[p] >= floor for p in range(n)]
        stack = [p for p in range(n) if not kept[p]]
        while stack:
            p = stack.pop()
            skip = gone.get(p)
            for q in adj[p]:
                if kept[q] and q != skip:
                    deg[q] -= 1
                    if deg[q] < floor:
                        kept[q] = False
                        stack.append(q)
        core = [p for p in range(n) if kept[p]]
        index = {p: i for i, p in enumerate(core)}
        identity = tuple((i, i) for i in range(k))
        matchings = [
            (index[q], i, identity)
            for i, p in enumerate(core)
            for q in adj[p]
            if q < p and kept[q] and gone.get(p) != q
        ]
        for choice in _choices([min(k, i + 1) for i in range(len(core))], matchings):
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


def classify_criticality(g: Graph) -> ColoringVerdict:
    """Check chromatic-number drop under every single edge and vertex deletion.

    Both deletion kinds are checked: edge deletions alone miss graphs whose
    only redundancy is an isolated or irrelevant vertex.  A deletion keeps
    the chromatic number k iff what is left is not (k-1)-colorable, asked
    on its (k-1)-core; vertex answers are derived where possible (module
    docstring).
    """
    if g.n < 1:
        raise GraphError("criticality is defined for graphs with at least one vertex")
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


def count_proper_colorings(g: Graph, k: int, limits: SearchLimits | None = None) -> int:
    """Exact number of proper colorings with color set ``0..k-1``.

    Counts the choices of :func:`_choices` under identity matchings, one by
    one, independently of the chromatic polynomial so the two can be
    cross-checked.  The count charges nothing, but checks the deadline of a
    budget started from ``limits`` and raises
    :class:`~critickit.errors.BudgetExceeded` once it passes.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    spend = (limits or SearchLimits()).start().spend
    identity = tuple((i, i) for i in range(k))
    matchings = [(u, v, identity) for u, v in g.edges()]
    return sum(1 for _ in _choices((k,) * g.n, matchings, spend))


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


def chromatic_polynomial(g: Graph, limits: SearchLimits | None = None) -> Polynomial:
    """Chromatic polynomial via deletion-contraction on the least edge, run
    on an explicit stack.

    Before branching, every vertex of degree 1 is peeled, repeatedly:
    P(G) = (x - 1) P(G - v), so a tree costs linear time and no branching.
    Intermediate results are memoized by exact (n, edge set) key, which is
    enough at these sizes.  Each memo miss charges one unit to a budget
    started from ``limits``, which raises
    :class:`~critickit.errors.BudgetExceeded` when it trips.
    """
    budget = (limits or SearchLimits()).start()
    peeled, core = _peel_leaves(g)
    memo: dict[tuple[int, frozenset[tuple[int, int]]], tuple[int, ...]] = {}
    results: list[tuple[int, ...]] = []  # solved subproblems not yet combined
    # frames (n, edges, stage): stage 0 is unsolved, 1 has the deletion on
    # ``results``, 2 has the deletion and then the contraction there
    stack = [(g.n - peeled, core, 0)]
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
    coefficients = results.pop()
    if peeled:  # times (x - 1)^peeled
        factor = [comb(peeled, i) * (-1) ** (peeled - i) for i in range(peeled + 1)]
        out = [0] * (len(coefficients) + peeled)
        for i, a in enumerate(coefficients):
            if a:
                for j, b in enumerate(factor):
                    out[i + j] += a * b
        coefficients = tuple(out)
    return Polynomial(coefficients)
