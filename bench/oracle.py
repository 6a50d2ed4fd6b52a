"""Brute-force oracles the benchmark checks answers against.

Nothing here imports critickit: graphs are ``(n, edges)`` pairs with sorted
``(u, v)`` edges, ``u < v``, and every answer is found by plain enumeration,
so a defect in the library cannot hide in its own checker.  The inputs are
small (at most 8 vertices), which keeps every check well under a second.
"""

from __future__ import annotations

import random
from itertools import product


def normalize(edges) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def relabel(n: int, edges, perm) -> list[tuple[int, int]]:
    """Edges of the graph with vertex v renamed ``perm[v]``."""
    return normalize((perm[u], perm[v]) for u, v in edges)


def encode_graph6(n: int, edges) -> str:
    """graph6 word for ``n <= 62``: one size byte, then the upper triangle
    column by column, six bits per byte."""
    if not 0 <= n <= 62:
        raise ValueError("encoder limited to n <= 62")
    present = set(normalize(edges))
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def decode_graph6(word: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of :func:`encode_graph6` for the short form."""
    n = ord(word[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 word: {word!r}")
    bits = [(ord(ch) - 63) >> s & 1 for ch in word[1:] for s in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(word) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"wrong length for n={n}: {word!r}")
    return n, normalize(pair for pair, bit in zip(pairs, bits) if bit)


def _neighbours(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def count_colorings(n: int, edges, k: int) -> int:
    """Proper colourings with colours ``0..k-1``, by vertex-order backtracking."""
    earlier = [[u for u in _neighbours(n, edges)[v] if u < v] for v in range(n)]
    colour = [0] * n

    def rec(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for c in range(k):
            if all(colour[u] != c for u in earlier[v]):
                colour[v] = c
                total += rec(v + 1)
        return total

    return rec(0)


def chromatic_number(n: int, edges) -> int:
    k = 0
    while n and not _colourable(n, edges, k):
        k += 1
    return k


def _colourable(n: int, edges, k: int) -> bool:
    earlier = [[u for u in _neighbours(n, edges)[v] if u < v] for v in range(n)]
    colour = [0] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if all(colour[u] != c for u in earlier[v]):
                colour[v] = c
                if rec(v + 1):
                    return True
        return False

    return rec(0)


def criticality(n: int, edges) -> tuple[int, bool, bool]:
    """(chi, every edge deletion lowers chi, every vertex deletion lowers chi)."""
    chi = chromatic_number(n, edges)
    edge_critical = all(
        chromatic_number(n, [f for f in edges if f != e]) < chi for e in edges
    )
    vertex_critical = all(
        chromatic_number(
            n - 1,
            [(u - (u > v), w - (w > v)) for u, w in edges if v not in (u, w)],
        )
        < chi
        for v in range(n)
    )
    return chi, edge_critical, vertex_critical


def chromatic_polynomial(n: int, edges) -> list[int]:
    """Ascending coefficients, from P(x) = sum_j a_j x(x-1)...(x-j+1) where
    a_j counts partitions of the vertices into j independent sets."""
    adj = _neighbours(n, edges)
    counts = [0] * (n + 1)
    blocks: list[set[int]] = []

    def rec(v: int) -> None:
        if v == n:
            counts[len(blocks)] += 1
            return
        for block in blocks:
            if not adj[v] & block:
                block.add(v)
                rec(v + 1)
                block.remove(v)
        blocks.append({v})
        rec(v + 1)
        blocks.pop()

    rec(0)
    coeffs = [0] * (n + 1)
    falling = [1]  # coefficients of x(x-1)...(x-j+1), ascending
    for j in range(n + 1):
        for i, c in enumerate(falling):
            coeffs[i] += counts[j] * c
        falling = [0] + falling
        for i in range(len(falling) - 1):
            falling[i] -= j * falling[i + 1]
    return coeffs


def random_connected_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random spanning tree plus each other pair with probability 1/2."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {
        (min(order[i], order[j]), max(order[i], order[j]))
        for i in range(1, n)
        for j in [rng.randrange(i)]
    }
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
    return normalize(edges)


def cover_problem(n: int, edges, sizes, matchings) -> str | None:
    """Why ``matchings`` (``(u, v, pairs)`` per edge) is not a cover of the
    graph with list sizes ``sizes``, or None."""
    if len(sizes) != n:
        return "wrong number of list sizes"
    if sorted((u, v) for u, v, _ in matchings) != normalize(edges):
        return "matchings do not sit on exactly the graph's edges"
    for u, v, pairs in matchings:
        src = [i for i, _ in pairs]
        dst = [j for _, j in pairs]
        if len(set(src)) != len(src) or len(set(dst)) != len(dst):
            return f"matching on ({u}, {v}) is not injective"
        if not all(0 <= i < sizes[u] for i in src) or not all(0 <= j < sizes[v] for j in dst):
            return f"matching on ({u}, {v}) leaves the lists"
    return None


def count_transversals(sizes, matchings) -> int:
    """Choices of one index per vertex that pick no matched pair."""
    conflicts = [(u, i, v, j) for u, v, pairs in matchings for i, j in pairs]
    return sum(
        all(not (c[u] == i and c[v] == j) for u, i, v, j in conflicts)
        for c in product(*(range(s) for s in sizes))
    )
