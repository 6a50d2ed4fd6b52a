"""Exact ordinary coloring: colorability, chromatic number, criticality,
coloring counts and the chromatic polynomial.

Everything here is exact and intended for small graphs (roughly up to 12
vertices); counts are arbitrary-precision integers.

:func:`_choices` is the package's one coloring walker.  Ordinary colorings,
list colorings and the transversals of a cover are all choices of one index
per vertex that select no matched pair, so the coloring counts here, list
coloring and the cover module's transversal searches all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import GraphError
from .graphs import Graph, edge_deleted, vertex_deleted


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _choices(sizes, matchings) -> Iterator[list[int]]:
    """Every choice of one index per vertex, ``0..sizes[v]-1`` at vertex v,
    that selects no matched pair, in lexicographic order.  ``matchings``
    holds cover-style entries ``(u, v, pairs)`` with ``u < v``; ``(i, j)``
    in pairs forbids index i at u together with index j at v.

    Yields one shared choice list that the caller must copy before
    advancing.  Vertices are assigned in order 0..n-1 on an explicit stack,
    so input size is not limited by the interpreter's recursion limit."""
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
    v = 0
    while v >= 0:
        size, blocked = sizes[v], forbidden[v]
        i = choice[v] + 1
        while i < size and blocked >> i & 1:
            i += 1
        if i == size:
            choice[v] = -1
            v -= 1
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


def _greedy_clique(g: Graph) -> list[int]:
    """Deterministic maximal clique: seed with a max-degree vertex, extend by
    degree.  A lower bound for the chromatic number, not a maximum clique."""
    if g.n == 0:
        return []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []
    for seed in order[: min(g.n, 4)]:
        cliq = [seed]
        for v in order:
            if v != seed and all(g.has_edge(v, u) for u in cliq):
                cliq.append(v)
        if len(cliq) > len(best):
            best = cliq
    return best


def find_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """A proper coloring with colors ``0..k-1``, or None if none exists.

    Backtracking with forward checking; a greedily found clique is precolored
    first, which is sound for the decision and keeps the returned witness
    verifiable.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    if g.n == 0:
        return ()
    if k == 0:
        return None
    masks = _adjacency_masks(g)
    cliq = _greedy_clique(g)
    if len(cliq) > k:
        return None
    domain_full = (1 << k) - 1
    domains = [domain_full] * g.n
    color = [-1] * g.n

    def assign(v: int, c: int, trail: list[tuple[int, int]]) -> bool:
        color[v] = c
        bit = 1 << c
        rest = masks[v]
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if color[u] == -1 and domains[u] & bit:
                trail.append((u, domains[u]))
                domains[u] &= ~bit
                if domains[u] == 0:
                    return False
        return True

    def undo(v: int, trail: list[tuple[int, int]]) -> None:
        color[v] = -1
        for u, old in reversed(trail):
            domains[u] = old

    for i, v in enumerate(cliq):
        trail: list[tuple[int, int]] = []
        if not assign(v, i, trail):
            undo(v, trail)
            return None

    def rec() -> bool:
        v = -1
        best_size = k + 1
        for u in range(g.n):
            if color[u] == -1:
                size = domains[u].bit_count()
                if size < best_size:
                    best_size = size
                    v = u
        if v == -1:
            return True
        rest = domains[v]
        while rest:
            c = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            trail: list[tuple[int, int]] = []
            if assign(v, c, trail) and rec():
                return True
            undo(v, trail)
        return False

    if not rec():
        return None
    return tuple(color)


def is_k_colorable(g: Graph, k: int) -> bool:
    return find_coloring(g, k) is not None


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring; 0 for the empty vertex set."""
    if g.n == 0:
        return 0
    lower = max(1, len(_greedy_clique(g)))
    for k in range(lower, g.n + 1):
        if is_k_colorable(g, k):
            return k
    return g.n


@dataclass(frozen=True)
class ColoringVerdict:
    """Criticality classification of a graph.

    ``witness`` is an edge ``(u, v)`` or vertex ``v`` whose deletion keeps
    the chromatic number unchanged, populated exactly when the corresponding
    criticality fails.
    """

    chromatic_number: int
    is_critical: bool
    is_vertex_critical: bool
    witness: tuple[int, int] | int | None


def classify_criticality(g: Graph) -> ColoringVerdict:
    """Check chromatic-number drop under every single edge and vertex deletion.

    Both deletion kinds are checked: edge deletions alone miss graphs whose
    only redundancy is an isolated or irrelevant vertex.
    """
    if g.n < 1:
        raise GraphError("criticality is defined for graphs with at least one vertex")
    k = chromatic_number(g)
    edge_witness = None
    for u, v in g.edges():
        if chromatic_number(edge_deleted(g, u, v)) >= k:
            edge_witness = (u, v)
            break
    vertex_witness = None
    for v in range(g.n):
        if chromatic_number(vertex_deleted(g, v)) >= k:
            vertex_witness = v
            break
    is_vertex_critical = vertex_witness is None
    is_critical = is_vertex_critical and edge_witness is None
    witness = edge_witness if edge_witness is not None else vertex_witness
    return ColoringVerdict(k, is_critical, is_vertex_critical, witness)


def count_proper_colorings(g: Graph, k: int) -> int:
    """Exact number of proper colorings with color set ``0..k-1``.

    Counts the choices of :func:`_choices` under identity matchings, one by
    one, independently of the chromatic polynomial so the two can be
    cross-checked.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    identity = tuple((i, i) for i in range(k))
    return sum(1 for _ in _choices((k,) * g.n, [(u, v, identity) for u, v in g.edges()]))


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial, coefficients in the monomial basis, ascending degree."""

    coefficients: tuple[int, ...]

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


def chromatic_polynomial(g: Graph) -> Polynomial:
    """Chromatic polynomial via deletion-contraction.

    Contractions collapse parallel edges; intermediate results are memoized
    by exact (n, edge set) key, which is enough at these sizes.
    """
    memo: dict[tuple[int, frozenset[tuple[int, int]]], tuple[int, ...]] = {}

    def solve(n: int, edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
        if not edges:
            return (0,) * n + (1,)
        key = (n, edges)
        cached = memo.get(key)
        if cached is not None:
            return cached
        u, v = min(edges)
        deleted = edges - {(u, v)}
        # contract v into u, relabel w > v down by one, drop parallels
        contracted = set()
        for a, b in deleted:
            a = u if a == v else a
            b = u if b == v else b
            if a == b:
                continue
            a = a if a < v else a - 1
            b = b if b < v else b - 1
            contracted.add((min(a, b), max(a, b)))
        result = _poly_sub(solve(n, deleted), solve(n - 1, frozenset(contracted)))
        memo[key] = result
        return result

    return Polynomial(solve(g.n, frozenset(g.edges())))
