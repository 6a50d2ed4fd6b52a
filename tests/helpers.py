"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates raw search spaces directly and stays independent
of the library's search paths, so a library bug cannot hide in its own test.
The exceptions are :func:`per_deletion_criticality`, the criticality
classifier as it was before its deletions shared one search set-up, and the
references at the end: a plain recursive copy of the gauge-fixed scan's walk
that reads the scan's tables, which pins the walk's decisions and charges,
not the tables; the induction check's cover loop run on every cover one by
one, which pins what the survivor walk may skip; plain recursive copies of
the block-system enumeration and of the bad-assignment search, which pin the
shared block walk's systems, charges and witnesses, not the search's
certificate; a plain recursive copy of that certificate, which pins its
answers; and the covers' index relabeling and completion as they were
before they shared one spanning-forest walk and one extension enumerator.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from math import prod

from critickit import BudgetExceeded, Cover, Graph, ListAssignment, SearchLimits, build_graph
from critickit.coloring import ColoringVerdict, find_coloring
from critickit.covers import full_extensions
from critickit.graphs import encode_graph6, induced_subgraph
from critickit.jsonio import cover_to_doc
from critickit.lemmas import LemmaReport
from critickit.limits import Budget


def vertex_deleted(g: Graph, v: int) -> Graph:
    """g less vertex v; the vertices above v shift down by one."""
    return induced_subgraph(g, set(range(g.n)) - {v})


def edge_deleted(g: Graph, u: int, v: int) -> Graph:
    assert g.has_edge(u, v), (u, v)
    return build_graph(g.n, [e for e in g.edges() if set(e) != {u, v}])


def brute_is_k_colorable(g: Graph, k: int) -> bool:
    edges = g.edges()
    return any(
        all(c[u] != c[v] for u, v in edges)
        for c in product(range(k), repeat=g.n)
    )


def brute_first_coloring(g: Graph, k: int, order):
    """The first proper coloring, or None, when colorings are listed as
    ``product(range(k), repeat=n)`` over the colors of ``order[0]``,
    ``order[1]``, ... in turn."""
    edges = g.edges()
    for colors in product(range(k), repeat=g.n):
        c = [0] * g.n
        for v, color in zip(order, colors):
            c[v] = color
        if all(c[u] != c[v] for u, v in edges):
            return tuple(c)
    return None


def brute_criticality(g: Graph) -> ColoringVerdict:
    """Criticality by exhaustion: the chromatic number, then the first edge
    and the first vertex whose deletion leaves it unchanged."""

    def chi(h: Graph) -> int:
        return next(k for k in range(h.n + 1) if brute_is_k_colorable(h, k))

    k = chi(g)
    edge = next((e for e in g.edges() if chi(edge_deleted(g, *e)) == k), None)
    vertex = next((v for v in range(g.n) if chi(vertex_deleted(g, v)) == k), None)
    return ColoringVerdict(
        k, edge is None and vertex is None, vertex is None, edge if edge is not None else vertex
    )


def per_deletion_criticality(g: Graph) -> ColoringVerdict:
    """The classifier as it was before deletions shared one search set-up:
    a new graph per deletion, each asked in full through ``find_coloring``
    (itself pinned to :func:`brute_first_coloring`), with no peeling and no
    derived vertex answers.  Fast enough for the n <= 8 comparisons."""

    def colorable(h: Graph, k: int) -> bool:
        return find_coloring(h, k) is not None

    k = next(k for k in range(g.n + 1) if colorable(g, k))
    edge = next((e for e in g.edges() if not colorable(edge_deleted(g, *e), k - 1)), None)
    vertex = next((v for v in range(g.n) if not colorable(vertex_deleted(g, v), k - 1)), None)
    return ColoringVerdict(
        k, edge is None and vertex is None, vertex is None, edge if edge is not None else vertex
    )


def brute_count_colorings(g: Graph, k: int) -> int:
    edges = g.edges()
    return sum(
        1
        for c in product(range(k), repeat=g.n)
        if all(c[u] != c[v] for u, v in edges)
    )


def brute_is_list_colorable(g: Graph, assignment: ListAssignment) -> bool:
    edges = g.edges()
    domains = [sorted(l) for l in assignment.lists]
    if any(not d for d in domains) and g.n >= 1:
        return False
    return any(
        all(c[u] != c[v] for u, v in edges) for c in product(*domains)
    )


def brute_count_list_colorings(g: Graph, assignment: ListAssignment) -> int:
    edges = g.edges()
    domains = [sorted(l) for l in assignment.lists]
    return sum(
        1 for c in product(*domains) if all(c[u] != c[v] for u, v in edges)
    )


def _cover_conflicts(cover: Cover):
    conflicts = []
    for u, v, pairs in cover.matchings:
        for i, j in pairs:
            conflicts.append((u, i, v, j))
    return conflicts


def brute_find_transversal(cover: Cover):
    conflicts = _cover_conflicts(cover)
    for choice in product(*(range(s) for s in cover.sizes)):
        if all(not (choice[u] == i and choice[v] == j) for u, i, v, j in conflicts):
            return choice
    return None


def brute_count_transversals(cover: Cover) -> int:
    conflicts = _cover_conflicts(cover)
    return sum(
        1
        for choice in product(*(range(s) for s in cover.sizes))
        if all(not (choice[u] == i and choice[v] == j) for u, i, v, j in conflicts)
    )


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism with degree pruning; fine up to ~9 vertices."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for w in range(h.n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            if any(
                mapping[u] != -1 and g.has_edge(u, v) != h.has_edge(mapping[u], w)
                for u in range(v)
            ):
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


def hub_with_pendant_paths(m: int) -> Graph:
    """Hub 0 in the triangle 0, 1, 2, m pendant 2-paths on the hub, and a
    wheel W5 (rim, then centre) hung off the hub through the next vertex."""
    edges = [(0, 1), (0, 2), (1, 2)]
    for i in range(m):
        edges += [(0, 3 + 2 * i), (3 + 2 * i, 4 + 2 * i)]
    link = 3 + 2 * m
    rim = [link + 1 + i for i in range(5)]
    edges += [(0, link), (link, rim[0])]
    edges += [(rim[i], rim[(i + 1) % 5]) for i in range(5)] + [(r, link + 6) for r in rim]
    return build_graph(link + 7, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.5, connected: bool = False) -> Graph:
    edges = set()
    if connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            j = rng.randrange(i)
            edges.add((min(order[i], order[j]), max(order[i], order[j])))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def grid_graph(width: int) -> Graph:
    """The width x width grid, vertices numbered row by row."""
    edges = []
    for v in range(width * width):
        if v % width + 1 < width:
            edges.append((v, v + 1))
        if v + width < width * width:
            edges.append((v, v + width))
    return build_graph(width * width, edges)


def random_assignment(rng: random.Random, n: int, k: int, pool: int) -> ListAssignment:
    pool = max(pool, k)
    return ListAssignment.of(
        [rng.sample(range(pool), k) for _ in range(n)]
    )


def random_cover(rng: random.Random, g: Graph, max_size: int = 3) -> Cover:
    sizes = [rng.randint(1, max_size) for _ in range(g.n)]
    matchings = {}
    for u, v in g.edges():
        count = rng.randint(0, min(sizes[u], sizes[v]))
        sources = rng.sample(range(sizes[u]), count)
        targets = rng.sample(range(sizes[v]), count)
        matchings[(u, v)] = dict(zip(sources, targets))
    from critickit import make_cover

    return make_cover(g, sizes, matchings)


def random_relabeling(rng: random.Random, cover: Cover):
    out = []
    for s in cover.sizes:
        perm = list(range(s))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def _partial_injections(a: int, b: int):
    out = []
    for size in range(min(a, b) + 1):
        for sources in combinations(range(a), size):
            for targets in permutations(range(b), size):
                out.append(tuple(zip(sources, targets)))
    return sorted(out)


def _transversal_exists(n: int, sizes, incoming) -> bool:
    """Recursive backtracking; ``incoming[v]`` lists (u, mapping) with u < v."""
    choice = [0] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        forbidden = {mapping[choice[u]] for u, mapping in incoming[v] if choice[u] in mapping}
        for i in range(sizes[v]):
            if i not in forbidden:
                choice[v] = i
                if rec(v + 1):
                    return True
        return False

    return rec(0)


def oracle_profile_bad_picks(g: Graph, sizes, max_nodes: int, first, maximal: bool = False):
    """Per-cover reference for the lemma checks' profile scans: (covers in
    all, the first ``first`` bad covers, or all of them if ``first`` is
    None, as (covers up to and including it, picks)), or (covers in all,
    None) when the kill table, index tuples times options, would take more
    bits than ``max_nodes``.  Every cover is built as one dict per edge and
    decided by its own transversal search, in ``product`` order.  With
    ``maximal``, each edge's options are only its injections of size
    min(a, b)."""
    n, edges = g.n, g.edges()
    options = [
        [
            dict(pairs)
            for pairs in _partial_injections(sizes[u], sizes[v])
            if not maximal or len(pairs) == min(sizes[u], sizes[v])
        ]
        for u, v in edges
    ]
    total = tuples = 1
    for opts in options:
        total *= len(opts)
    for size in sizes:
        tuples *= size
    if tuples * sum(map(len, options)) > max_nodes:
        return total, None
    bad = []
    for decided, picks in enumerate(product(*(range(len(opts)) for opts in options)), 1):
        incoming = [[] for _ in range(n)]
        for (u, v), opts, pick in zip(edges, options, picks):
            incoming[v].append((u, opts[pick]))
        if not _transversal_exists(n, sizes, incoming):
            bad.append((decided, picks))
            if len(bad) == first:
                break
    return total, bad


def oracle_partial_cover_report(lemma: str, g: Graph, fold: int, max_nodes: int):
    """Per-cover reference for the two checks over every partial ``fold``-fold
    cover, ``check_excess_lemma`` on the all-``fold`` profile (``lemma``
    "excess") and ``check_full_extension_lemma`` ("full-extension"), their
    preconditions granted at k = fold + 1: the bad covers in ``product``
    order from :func:`oracle_profile_bad_picks`, each counterexample looked
    for on every bad cover, full or not, and every full extension from the
    library's enumerator.  A pass reports every partial cover checked, a
    counterexample its position among them."""
    sizes, word, edges = (fold,) * g.n, encode_graph6(g), g.edges()
    total, bad = oracle_profile_bad_picks(g, sizes, max_nodes, None)
    if bad is None:
        return LemmaReport(
            lemma, word, 0, "truncated", "exhaustive",
            detail="budget exhausted during the cover scan",
        )
    options = _partial_injections(fold, fold)
    for decided, picks in bad:
        cover = Cover(g, sizes, tuple((u, v, options[p]) for (u, v), p in zip(edges, picks)))
        if lemma == "excess":
            if oracle_canonical_labeling(cover) is None:
                return LemmaReport(
                    lemma, word, decided, "counterexample", "exhaustive",
                    counterexample={"cover": cover_to_doc(cover)},
                    detail="bad cover that is not a canonical (k-1)-fold cover",
                )
            continue
        if all(len(options[p]) == fold for p in picks):
            continue
        for extension in full_extensions(cover):
            if oracle_canonical_labeling(extension) is not None:
                return LemmaReport(
                    lemma, word, decided, "counterexample", "exhaustive",
                    counterexample={
                        "cover": cover_to_doc(cover),
                        "canonical_extension": cover_to_doc(extension),
                    },
                    detail="bad non-full cover with a canonical full extension",
                )
    return LemmaReport(lemma, word, total, "all_pass", "exhaustive")


class RecordingBudget(Budget):
    """A budget that records the units of every ``spend`` call, including
    the one that trips it."""

    def __init__(self, limits: SearchLimits):
        super().__init__(limits)
        self.calls: list[int] = []

    def spend(self, units: int = 1) -> None:
        self.calls.append(units)
        super().spend(units)


def oracle_tree_colorings(sizes, forest):
    """The index tuples, ``0..sizes[v]-1`` at v, with no edge of a forest on
    ``len(sizes)`` vertices matching equal indices, (parent, child) edges
    with each parent before its children, as the scans number their
    survivors: each root's index, roots ascending, then one digit d <
    sizes[child] - 1 per forest edge, the child taking the d-th index other
    than its parent's, in ``product`` order over the digits."""
    children = {child for _, child in forest}
    roots = [v for v in range(len(sizes)) if v not in children]
    out = []
    for digits in product(
        *[range(sizes[v]) for v in roots], *[range(sizes[c] - 1) for _, c in forest]
    ):
        colors = [0] * len(sizes)
        for root, color in zip(roots, digits):
            colors[root] = color
        for (parent, child), d in zip(forest, digits[len(roots) :]):
            colors[child] = [c for c in range(sizes[child]) if c != colors[parent]][d]
        out.append(tuple(colors))
    return out


def oracle_kill_masks(transversals, edges, options):
    """Per edge (u, v) and option, the mask of transversals t with (t[u],
    t[v]) among the option's pairs, built pair by pair."""
    kill = []
    for (u, v), opts in zip(edges, options):
        by_pair: dict[tuple[int, int], int] = {}
        for idx, t in enumerate(transversals):
            key = (t[u], t[v])
            by_pair[key] = by_pair.get(key, 0) | (1 << idx)
        kill.append([sum(by_pair.get(pair, 0) for pair in pairs) for pairs in opts])
    return kill


def _oracle_kills_at_most(kill, depth: int, survivors: int, cap: int) -> bool:
    bound = 0
    for masks in kill[depth:]:
        bound += max(map(int.bit_count, map(survivors.__and__, masks)))
        if bound > cap:
            return False
    return bound <= cap


def oracle_find_bad(scan, skip_canonical: bool, order=None):
    """The gauge-fixed scan's bad-cover walk as a plain recursion over the
    non-tree edges in ``order`` (canonical when None): every node evaluates
    its own survivor bound from scratch.  Same results, in canonical edge
    order, and the same ``spend`` calls as ``scan.find_bad``."""
    total = scan.depth_total
    order = range(total) if order is None else order
    kills = [scan.kill[e] for e in order]

    def size(depth):
        return prod(map(len, kills[depth:]))

    def dfs(depth, survivors, prefix, identity, stab):
        if survivors == 0:
            rest = total - depth
            if skip_canonical and identity:
                if size(depth) == 1:
                    scan.budget.spend(1)
                    return None
                return prefix + (0,) * (rest - 1) + (1,)
            return prefix + (0,) * rest
        if depth == total:
            scan.budget.spend(1)
            return None
        cap = survivors.bit_count() - 1
        if _oracle_kills_at_most(kills, depth, survivors, cap):
            scan.budget.spend(size(depth))
            return None
        kill = kills[depth]
        for p, child in enumerate(scan._leader_step(stab)):
            if child is False:
                scan.budget.spend(size(depth + 1))
                continue
            found = dfs(
                depth + 1,
                survivors & ~kill[p],
                prefix + (p,),
                identity and p == 0,
                child,
            )
            if found is not None:
                return found
        return None

    found = dfs(0, scan.full_mask, (), True, None)
    if found is None:
        return None
    combo = [0] * total
    for e, p in zip(order, found):
        combo[e] = p
    return tuple(combo)


def oracle_min_transversals(scan):
    """The gauge-fixed scan's minimizing walk as a plain recursion, keeping
    progress on ``scan.best_value``/``scan.best_combo`` like
    ``scan.min_transversals``, and stopping at the first cover with no
    transversal."""
    total = scan.depth_total
    scan.best_value = scan.best_combo = None

    def size(depth):
        return prod(map(len, scan.kill[depth:]))

    def dfs(depth, survivors, prefix, stab):
        """True once a cover with no transversal is found."""
        if survivors == 0:
            scan.budget.spend(size(depth))
            scan.best_value = 0
            scan.best_combo = prefix + (0,) * (total - depth)
            return True
        if depth == total:
            scan.budget.spend(1)
            count = survivors.bit_count()
            if scan.best_value is None or count < scan.best_value:
                scan.best_value = count
                scan.best_combo = prefix
            return False
        if scan.best_value is not None and _oracle_kills_at_most(
            scan.kill, depth, survivors, survivors.bit_count() - scan.best_value
        ):
            scan.budget.spend(size(depth))
            return False
        kill = scan.kill[depth]
        for p, child in enumerate(scan._leader_step(stab)):
            if child is False:
                scan.budget.spend(size(depth + 1))
            elif dfs(depth + 1, survivors & ~kill[p], prefix + (p,), child):
                return True
        return False

    dfs(0, scan.full_mask, (), None)
    return scan.best_value, scan.best_combo


def oracle_induction_report(g: Graph, members, fold: int, limits: SearchLimits):
    """The induction check past its precondition, with ``fold`` as the
    scanned list size, deciding every gauge-fixed cover of ``g`` in
    ``product`` order with one ``spend`` and one union of kill masks per
    cover."""
    from critickit import canonical_labeling, encode_graph6
    from critickit.covers import _GaugeScan
    from critickit.jsonio import cover_to_doc
    from critickit.lemmas import LemmaReport, _labeling_constraints

    word = encode_graph6(g)
    budget = limits.start()
    scan = _GaugeScan(g, (fold,) * g.n, budget)
    checked = 0
    label_perms = list(permutations(range(fold)))
    try:
        for combo in product(*(range(len(masks)) for masks in scan.kill)):
            budget.spend()
            checked += 1
            killed = 0
            for masks, p in zip(scan.kill, combo):
                killed |= masks[p]
            if killed != scan.full_mask:
                continue
            cover = scan.cover_at(combo)
            constraints = _labeling_constraints(cover, members, fold)
            is_canonical = canonical_labeling(cover) is not None
            for assignment in product(label_perms, repeat=len(members)):
                if any(
                    assignment[xi][i] != assignment[yi][j]
                    for xi, i, yi, j in constraints
                ):
                    continue
                checked += 1
                if not is_canonical:
                    return LemmaReport(
                        "induction", word, checked, "counterexample", "exhaustive",
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
            "induction", word, checked, "truncated", "exhaustive",
            detail="budget exhausted during cover enumeration",
        )
    return LemmaReport("induction", word, checked, "all_pass", "exhaustive")


def _block_positives(rem) -> int:
    return sum(1 << v for v, r in enumerate(rem) if r)


def oracle_block_systems(n: int, k: int):
    """Block systems with multiplicity k on n vertices as the plain
    recursion enumerates them: the blocks of each, in canonical order."""
    from critickit.listcoloring import _submasks_ascending

    rem = [k] * n
    blocks: list[int] = []

    def rec(min_mask: int):
        pos = _block_positives(rem)
        if pos == 0:
            yield tuple(blocks)
            return
        if pos < min_mask:
            return
        for mask in _submasks_ascending(pos, min_mask):
            for v in range(n):
                if mask >> v & 1:
                    rem[v] -= 1
            blocks.append(mask)
            yield from rec(mask)
            blocks.pop()
            for v in range(n):
                if mask >> v & 1:
                    rem[v] += 1

    yield from rec(1)


def oracle_bad_assignment(search):
    """The bad-assignment search as a plain recursion over block systems,
    charging ``search.budget`` one unit per node and asking the search's own
    ``_all_completions_colorable``, at complete systems too.  Same witness
    and the same ``spend`` calls as ``search.run()``.  Every complete
    system it finds bad, and on at most 5 vertices every one it finds
    colorable, is checked against :func:`brute_is_list_colorable`."""
    from critickit.listcoloring import BlockSystem, _submasks_ascending

    n, k = search.n, search.k
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u) if search.adj[u] >> v & 1])
    rem = [k] * n
    blocks: list[int] = []

    def rec(min_mask: int, lists):
        search.budget.spend()
        pos = _block_positives(rem)
        if pos == 0:
            if all(b == search.full for b in blocks):
                return None  # the constant assignment, never a witness
            colorable = search._all_completions_colorable(rem, lists)
            if not colorable or n <= 5:
                assert colorable == brute_is_list_colorable(g, ListAssignment.of(lists)), blocks
            return None if colorable else BlockSystem(n, k, tuple(blocks))
        if pos < min_mask:
            return None
        if search._all_completions_colorable(rem, lists):
            return None
        index = len(blocks)
        for mask in _submasks_ascending(pos, min_mask):
            for v in range(n):
                if mask >> v & 1:
                    rem[v] -= 1
            blocks.append(mask)
            found = rec(
                mask, [lists[v] + (index,) if mask >> v & 1 else lists[v] for v in range(n)]
            )
            blocks.pop()
            for v in range(n):
                if mask >> v & 1:
                    rem[v] += 1
            if found is not None:
                return found
        return None

    return rec(1, [()] * n)


def oracle_all_completions_colorable(search, rem, lists) -> bool:
    """The bad-assignment search's deferral certificate as a plain
    recursion: defer a vertex with pending blocks first, then try each of
    its colors that no colored neighbor holds; at the end the deferred set
    must be peelable.  Reads the search's adjacency masks and
    ``_peelable``."""
    n, adj = search.n, search.adj
    order = sorted(range(n), key=lambda v: (len(lists[v]) + (rem[v] > 0), v))
    color: list[int | None] = [None] * n

    def rec(i: int, deferred: int) -> bool:
        if i == n:
            return search._peelable(deferred, rem)
        v = order[i]
        if rem[v] > 0 and rec(i + 1, deferred | (1 << v)):
            return True
        for c in lists[v]:
            if all(color[u] != c for u in range(n) if adj[v] >> u & 1):
                color[v] = c
                if rec(i + 1, deferred):
                    color[v] = None
                    return True
                color[v] = None
        return False

    return rec(0, 0)


def oracle_canonical_labeling(cover: Cover):
    """:func:`critickit.canonical_labeling` as a per-component breadth-first
    walk of its own: labels go from each component's least vertex along the
    first edge that reaches a vertex, then every edge is checked."""
    g = cover.graph
    if g.n == 0:
        return ()
    if not cover.is_uniform():
        return None
    k = cover.fold
    if any(len(pairs) != k for _, _, pairs in cover.matchings):
        return None
    forward = {(u, v): dict(pairs) for u, v, pairs in cover.matchings}
    labels = [None] * g.n
    for root in range(g.n):
        if labels[root] is not None:
            continue
        labels[root] = tuple(range(k))
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in sorted(g.adj[u]):
                if labels[w] is not None:
                    continue
                lw = [0] * k
                if (u, w) in forward:
                    for i, j in forward[(u, w)].items():
                        lw[j] = labels[u][i]
                else:
                    for i, j in forward[(w, u)].items():
                        lw[i] = labels[u][j]
                labels[w] = tuple(lw)
                queue.append(w)
    for u, v, pairs in cover.matchings:
        for i, j in pairs:
            if labels[u][i] != labels[v][j]:
                return None
    return tuple(labels)


def oracle_normalize_cover(cover: Cover, tree) -> Cover:
    """:func:`critickit.normalize_cover` on a full cover and a spanning tree
    of (parent, child) edges rooted at vertex 0, parents first."""
    from critickit import relabel_cover

    k = cover.fold
    forward = {(u, v): dict(pairs) for u, v, pairs in cover.matchings}
    sigma = [None] * cover.graph.n
    if cover.graph.n:
        sigma[0] = tuple(range(k))
    for parent, child in tree:
        if (parent, child) in forward:
            mapping = forward[(parent, child)]
        else:
            mapping = {j: i for i, j in forward[(child, parent)].items()}
        s = [0] * k
        for i, j in mapping.items():
            s[j] = sigma[parent][i]
        sigma[child] = tuple(s)
    return relabel_cover(cover, sigma)


def oracle_complete_to_full(cover: Cover) -> Cover:
    """:func:`critickit.complete_to_full`: each edge's unmatched indices
    paired in ascending order."""
    k = cover.fold
    entries = []
    for u, v, pairs in cover.matchings:
        free_src = sorted(set(range(k)) - {i for i, _ in pairs})
        free_dst = sorted(set(range(k)) - {j for _, j in pairs})
        entries.append((u, v, tuple(sorted(pairs + tuple(zip(free_src, free_dst))))))
    return Cover(cover.graph, cover.sizes, tuple(entries))


def random_uniform_cover(rng: random.Random, g: Graph, k: int) -> Cover:
    """A k-fold cover of g of one of three kinds, drawn evenly: a random
    partial cover, a random full cover, or the canonical cover relabeled at
    random (which has a canonical labeling)."""
    from critickit import make_canonical_cover, make_cover, relabel_cover

    kind = rng.randrange(3)
    if kind == 2:
        canonical = make_canonical_cover(g, k)
        return relabel_cover(canonical, random_relabeling(rng, canonical))
    matchings = {}
    for u, v in g.edges():
        count = k if kind == 1 else rng.randint(0, k)
        matchings[(u, v)] = dict(zip(rng.sample(range(k), count), rng.sample(range(k), count)))
    return make_cover(g, [k] * g.n, matchings)


def oracle_questions(g: Graph):
    """``coloring._questions`` as it was before its walks shared one
    identity map: the same greedy clique and search order, the k-core
    peeled on a stack of degree counts, and one ``_choices`` walk over
    identity matchings of the core.  Returns ``first(k, edge=None,
    vertex=None, peel=True)``."""
    from critickit.coloring import _choices, _greedy_clique, _search_order

    cliq = _greedy_clique(g)
    order = _search_order(g, cliq)
    n, size = g.n, len(cliq)
    position = {v: p for p, v in enumerate(order)}
    adj = [[position[u] for u in g.adj[v]] for v in order]
    degree = [len(near) for near in adj]

    def first(k: int, edge=None, vertex=None, peel=True):
        a, b = (position[edge[0]], position[edge[1]]) if edge else (n, n)
        x = n if vertex is None else position[vertex]
        if size > k and x >= size and max(a, b) >= size:
            return None
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

    return first


def single_pass_chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients of g's chromatic polynomial, ascending, by plain
    memoized deletion-contraction of the whole graph at once: no peeling and
    no split into components."""
    memo = {}

    def solve(n, edges):
        if not edges:
            return (0,) * n + (1,)
        if (n, edges) not in memo:
            u, v = min(edges)
            merged = frozenset(
                (min(a, b), max(a, b))
                for a, b in (
                    (a - (a > v) if a != v else u, b - (b > v) if b != v else u) for a, b in edges
                )
                if a != b
            )
            deleted, contracted = solve(n, edges - {(u, v)}), solve(n - 1, merged)
            out = list(deleted)
            for i, c in enumerate(contracted):
                out[i] -= c
            memo[(n, edges)] = tuple(out)
        return memo[(n, edges)]

    return solve(g.n, frozenset(g.edges()))
