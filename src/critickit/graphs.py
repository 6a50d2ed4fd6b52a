"""Simple undirected graphs: construction, named families, graph6 and edge-list I/O.

Vertices are dense integers ``0..n-1``.  Every generator documents its vertex
layout so downstream witnesses are reproducible.
"""

from __future__ import annotations

from collections import deque

from .base import Record
from .errors import DisconnectedError, Graph6Error, GraphError

GRAPH6_HEADER = ">>graph6<<"


class Graph(Record):
    """Immutable simple graph given by vertex count and neighbor sets.

    Invariants (enforced by the constructors in this module): adjacency is
    symmetric, there are no self-loops, and all neighbor ids lie in
    ``[0, n)``.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def build_graph(n: int, edges) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse silently.

    Raises :class:`GraphError` for out-of-range ids or self-loops, naming the
    offending pair.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(a) for a in adj))


def clique(n: int) -> Graph:
    """Complete graph on vertices ``0..n-1``."""
    if n < 1:
        raise GraphError(f"clique needs n >= 1, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    """Cycle ``0-1-...-(n-1)-0``."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph; part A is ``0..a-1``, part B is ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise GraphError(f"complete_bipartite needs both parts >= 1, got ({a}, {b})")
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def generate_named(kind: str, *params: int) -> Graph:
    """Dispatch to a named family: clique, cycle or complete_bipartite."""
    makers = {"clique": clique, "cycle": cycle, "complete_bipartite": complete_bipartite}
    if kind not in makers:
        raise GraphError(f"unknown graph family {kind!r}")
    return makers[kind](*params)


class EkabParams(Record):
    """Parameters of the two-cliques-plus-apex family.

    Constraints: ``k >= 3``, ``1 <= a <= k-2``, ``1 <= b <= k-2`` and
    ``a + b >= k-1``; violations are rejected naming the failed inequality.
    """

    __slots__ = ("k", "a", "b")

    def __init__(self, k: int, a: int, b: int):
        if k < 3:
            raise GraphError(f"ekab requires k >= 3, got k={k}")
        if not 1 <= a <= k - 2:
            raise GraphError(f"ekab requires 1 <= a <= k-2, got a={a}, k={k}")
        if not 1 <= b <= k - 2:
            raise GraphError(f"ekab requires 1 <= b <= k-2, got b={b}, k={k}")
        if a + b < k - 1:
            raise GraphError(f"ekab requires a + b >= k-1, got a+b={a + b}, k={k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def generate_ekab(k: int, a: int, b: int) -> Graph:
    """Two (k-1)-cliques X and Y plus an apex z, on ``2k-1`` vertices.

    Vertex layout: X1 = ``0..a-1``, X2 = ``a..k-2``, Y1 = ``k-1..k-2+b``,
    Y2 = the rest of Y, and z = ``2k-2``.  X = X1+X2 and Y = Y1+Y2 are
    cliques, z is adjacent exactly to X1 and Y1, and X2 is completely joined
    to Y2.
    """
    p = EkabParams(k, a, b)
    x = list(range(0, k - 1))
    y = list(range(k - 1, 2 * k - 2))
    z = 2 * k - 2
    x1, x2 = x[: p.a], x[p.a :]
    y1, y2 = y[: p.b], y[p.b :]
    edges = []
    for part in (x, y):
        edges.extend((part[i], part[j]) for i in range(len(part)) for j in range(i + 1, len(part)))
    edges.extend((v, z) for v in x1 + y1)
    edges.extend((u, v) for u in x2 for v in y2)
    return build_graph(2 * k - 1, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union with every cross edge added; h's ids are offset by g.n."""
    edges = g.edges()
    edges += [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return build_graph(g.n + h.n, edges)


def induced_subgraph(g: Graph, keep) -> Graph:
    """Induced subgraph on ``keep``, relabeled to 0..len(keep)-1 in sorted order."""
    keep = sorted(set(keep))
    if any(not 0 <= v < g.n for v in keep):
        raise GraphError("induced_subgraph: vertex out of range")
    relabel = {v: i for i, v in enumerate(keep)}
    kept = set(keep)
    return build_graph(
        len(keep),
        [(relabel[a], relabel[b]) for a, b in g.edges() if a in kept and b in kept],
    )


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(g.adj[u]):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def degeneracy(g: Graph) -> int:
    """Smallest d such that every subgraph has a vertex of degree at most d
    (computed by min-degree peeling)."""
    degrees = {v: g.degree(v) for v in range(g.n)}
    best = 0
    while degrees:
        v = min(degrees, key=lambda u: (degrees[u], u))
        best = max(best, degrees[v])
        for w in g.adj[v]:
            if w in degrees:
                degrees[w] -= 1
        del degrees[v]
    return best


def spanning_tree(g: Graph) -> list[tuple[int, int]]:
    """Deterministic spanning tree: breadth-first from vertex 0, neighbors in
    ascending id order.  Edges are returned as (parent, child) in discovery
    order.  Raises :class:`DisconnectedError` naming two components.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        raise DisconnectedError(
            f"graph is disconnected: components {comps[0]} and {comps[1]}",
            (comps[0], comps[1]),
        )
    tree = []
    if g.n == 0:
        return tree
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(g.adj[u]):
            if not seen[w]:
                seen[w] = True
                tree.append((u, w))
                queue.append(w)
    return tree


# ---------------------------------------------------------------------------
# graph6 codec
#
# Implemented bit-exactly against the published format: N(n) is one byte
# chr(n+63) for n <= 62, or chr(126) plus 3 bytes (18 bits big-endian) for
# n <= 258047; R(x) packs the upper triangle column by column, 6 bits per
# byte, most significant bit first, zero-padded.
# ---------------------------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    elif g.n <= 258047:
        head = chr(126) + "".join(
            chr(((g.n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    else:
        raise GraphError(f"graph6 encoding supports n <= 258047, got {g.n}")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = (value << 1) | bit
        chars.append(chr(value + 63))
    return head + "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word (optional ``>>graph6<<`` header allowed)."""
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER) :]
    text = text.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 input", 0)
    for offset, ch in enumerate(text):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 byte {ch!r}", offset)
    if text[0] != chr(126):
        n = ord(text[0]) - 63
        body = text[1:]
        body_offset = 1
    else:
        if len(text) >= 2 and text[1] == chr(126):
            raise Graph6Error("graphs beyond 258047 vertices not supported", 1)
        if len(text) < 4:
            raise Graph6Error("truncated long-form vertex count", len(text))
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = text[4:]
        body_offset = 4
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"expected {expected} data bytes for n={n}, got {len(body)}",
            body_offset + min(len(body), expected),
        )
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6Error("nonzero padding bits", body_offset + i // 6)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then one "u v" line per edge.
# ---------------------------------------------------------------------------


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphError(f"bad edge-list header {lines[0]!r}") from exc
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise GraphError(f"bad edge-list line {line!r}") from exc
        edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"edge-list header promises {m} edges, got {len(edges)}")
    return build_graph(n, edges)
