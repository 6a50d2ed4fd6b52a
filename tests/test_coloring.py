from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critickit import (
    BudgetExceeded,
    SearchLimits,
    build_graph,
    chromatic_number,
    chromatic_polynomial,
    classify_criticality,
    clique,
    count_proper_colorings,
    cycle,
    find_coloring,
    generate_ekab,
    is_k_colorable,
    join,
)
from critickit.coloring import _deletion_verdict, _greedy_clique, _questions, _search_order
from critickit.graphs import connected_components
from helpers import (
    brute_count_colorings,
    brute_criticality,
    brute_first_coloring,
    brute_is_k_colorable,
    oracle_questions,
    per_deletion_criticality,
    random_graph,
    single_pass_chromatic_polynomial,
)

K3_PLUS_PENDANT = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


# -------------------------------------------------------------- colorability


def test_c5_not_2_colorable():
    assert not is_k_colorable(cycle(5), 2)


def test_c5_3_colorable_with_verifying_witness():
    coloring = find_coloring(cycle(5), 3)
    assert coloring is not None
    for u, v in cycle(5).edges():
        assert coloring[u] != coloring[v]


def test_k4_not_3_colorable():
    assert not is_k_colorable(clique(4), 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 4), st.randoms(use_true_random=False))
def test_colorability_matches_brute_force(n, k, rng):
    g = random_graph(rng, n)
    assert is_k_colorable(g, k) == brute_is_k_colorable(g, k)
    cliq = _greedy_clique(g)
    order = _search_order(g, cliq)
    assert order[: len(cliq)] == cliq and sorted(order) == list(range(g.n))
    for p in range(len(cliq), g.n):
        counts = [len(g.adj[v].intersection(order[:p])) for v in order[p:]]
        assert counts[0] == max(counts)
    assert find_coloring(g, k) == brute_first_coloring(g, k, order)


# ---------------------------------------------------------- chromatic number


@pytest.mark.parametrize(
    "graph,expected",
    [
        (cycle(5), 3),
        (cycle(4), 2),
        (clique(4), 4),
        (generate_ekab(6, 2, 3), 6),
        (join(cycle(5), clique(1)), 4),
        (build_graph(0, []), 0),
        (build_graph(3, []), 1),
    ],
)
def test_chromatic_number(graph, expected):
    assert chromatic_number(graph) == expected


def test_chi_wheel_by_exhaustion():
    wheel = join(cycle(5), clique(1))
    assert not brute_is_k_colorable(wheel, 3)
    assert brute_is_k_colorable(wheel, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_chi_of_join_with_clique(n, t, rng):
    g = random_graph(rng, n)
    assert chromatic_number(join(g, clique(t))) == chromatic_number(g) + t


# -------------------------------------------------------------- criticality


def test_k4_is_critical():
    verdict = classify_criticality(clique(4))
    assert verdict.chromatic_number == 4
    assert verdict.is_critical and verdict.is_vertex_critical
    assert verdict.witness is None


def test_c4_not_critical_edge_witness():
    verdict = classify_criticality(cycle(4))
    assert not verdict.is_critical
    u, v = verdict.witness
    from helpers import edge_deleted

    assert chromatic_number(edge_deleted(cycle(4), u, v)) == verdict.chromatic_number


def test_e422_is_critical():
    verdict = classify_criticality(generate_ekab(4, 2, 2))
    assert verdict.chromatic_number == 4
    assert verdict.is_critical


def test_k3_plus_pendant_not_critical():
    verdict = classify_criticality(K3_PLUS_PENDANT)
    assert verdict.chromatic_number == 3
    assert not verdict.is_critical and not verdict.is_vertex_critical


def test_k1_is_1_critical():
    verdict = classify_criticality(clique(1))
    assert verdict.chromatic_number == 1 and verdict.is_critical


def test_critical_implies_vertex_critical_and_classic_bounds():
    # necessary conditions: connected, min degree >= chi - 1
    import random

    rng = random.Random(20240817)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 6))
        verdict = classify_criticality(g)
        if verdict.is_critical:
            assert verdict.is_vertex_critical
            assert len(connected_components(g)) == 1
            assert all(
                g.degree(v) >= verdict.chromatic_number - 1 for v in range(g.n)
            )
        if verdict.witness is not None:
            assert not verdict.is_critical


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_criticality_matches_brute_force(n, rng):
    # the chromatic number, both flags and the first deletion witness
    g = random_graph(rng, n, p=rng.uniform(0.2, 1))
    assert classify_criticality(g) == brute_criticality(g), g.edges()


def _brute_chi(g):
    return next(k for k in range(g.n + 1) if brute_is_k_colorable(g, k))


def test_every_graph_on_at_most_five_vertices():
    # every labelled graph, so every witness position is met
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            chi = _brute_chi(g)
            assert chromatic_number(g) == chi, g.edges()
            assert [is_k_colorable(g, k) for k in range(n + 2)] == [k >= chi for k in range(n + 2)]
            if n:
                assert classify_criticality(g) == brute_criticality(g), g.edges()


def test_criticality_matches_per_deletion_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=rng.uniform(0.1, 1))
        verdict = classify_criticality(g)
        assert verdict == per_deletion_criticality(g), g.edges()
        assert chromatic_number(g) == verdict.chromatic_number
        k = verdict.chromatic_number
        assert is_k_colorable(g, k) and not is_k_colorable(g, k - 1)


def _disjoint(*parts):
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    return build_graph(n, edges)


def test_theorem_bottoms_match_the_deletion_search():
    # K1 and the odd cycles are classified with no deletion search; the
    # verdict and witness are still the search's on networkx's atlas, on
    # C3 to C15 and their joins with K1 and K2, on every cycle with one
    # chord, and on disjoint odd cycles, 2-regular but not connected, of
    # even order (C3 + C5) and of odd order (C3 + C3 + C3)
    from networkx.generators.atlas import graph_atlas_g

    hosts = [build_graph(a.number_of_nodes(), list(a.edges())) for a in graph_atlas_g()[1:]]
    for n in range(3, 16):
        hosts += [cycle(n), join(cycle(n), clique(1)), join(cycle(n), clique(2))]
        hosts += [build_graph(n, cycle(n).edges() + [(0, j)]) for j in range(2, n - 1)]
    hosts += [_disjoint(cycle(3), cycle(5)), _disjoint(cycle(3), cycle(3), cycle(3))]
    for g in hosts:
        assert classify_criticality(g) == _deletion_verdict(g), g.edges()
    assert not classify_criticality(hosts[-1]).is_critical


def _relabeled(g, rng):
    """g under a seeded relabeling that moves its last vertex (n >= 2)."""
    perm = list(range(g.n))
    while perm[-1:] == [g.n - 1] and g.n > 1:
        rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_join_lift_matches_per_deletion_reference():
    # H + K1 and H + K2 for every labelled H on <= 5 vertices, relabeled so
    # the apices move: a join classified from its level below must give the
    # verdict and the first witness that asking every deletion of the join
    # gives
    rng = random.Random(2408)
    lifted = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            h = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for t in (1, 2):
                g = _relabeled(join(h, clique(t)), rng)
                verdict = classify_criticality(g)
                assert verdict == per_deletion_criticality(g), (h.edges(), t)
                lifted += verdict.is_critical
    assert lifted == 2 * 18  # H empty, K1 to K5 and the 12 labelled C5s


def test_questions_match_the_stack_peel_reference():
    # every (k, edge, vertex, peel) question on random graphs with n <= 8:
    # the prebuilt core walk and the shared identity map give the first
    # coloring that a matchings walk gives
    rng = random.Random(20261019)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.uniform(0.2, 0.9))
        first, reference = _questions(g)[1], oracle_questions(g)
        for k in range(g.n + 2):
            for edge in [None] + g.edges():
                for vertex in [None] + list(range(g.n)):
                    for peel in (True, False):
                        got = first(k, edge=edge, vertex=vertex, peel=peel)
                        want = reference(k, edge=edge, vertex=vertex, peel=peel)
                        assert got == want, (g.edges(), k, edge, vertex, peel)


TWO_K3 = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


@pytest.mark.parametrize(
    "graph,expected",
    [
        (clique(1), (1, True, True, None)),
        (build_graph(2, []), (1, False, False, 0)),
        (build_graph(4, []), (1, False, False, 0)),
        # the pendant edge is the witness, and its end 3 must still be asked
        # about: deleting 3 leaves the triangle
        (K3_PLUS_PENDANT, (3, False, False, (0, 3))),
        (TWO_K3, (3, False, False, (0, 1))),
        # every edge drops chi; the isolated vertex does not
        (build_graph(4, [(0, 1), (0, 2), (1, 2)]), (3, False, False, 3)),
        (build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), (3, False, False, 0)),
        (build_graph(3, [(1, 2)]), (2, False, False, 0)),
    ],
    ids=["K1", "2K1", "4K1", "K3+pendant", "2K3", "K3+K1", "K1+C5", "K1+K2"],
)
def test_criticality_of_small_named_graphs(graph, expected):
    verdict = classify_criticality(graph)
    assert verdict == brute_criticality(graph)
    got = (verdict.chromatic_number, verdict.is_critical, verdict.is_vertex_critical)
    assert got + (verdict.witness,) == expected


# ------------------------------------------------------------------ counting


def test_count_k3_triangle():
    assert count_proper_colorings(clique(3), 3) == 6


def test_count_c5_3_colors():
    assert count_proper_colorings(cycle(5), 3) == 30 == brute_count_colorings(cycle(5), 3)


def test_count_zero_colors():
    assert count_proper_colorings(clique(2), 0) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 4), st.randoms(use_true_random=False))
def test_count_matches_brute_force(n, k, rng):
    g = random_graph(rng, n)
    assert count_proper_colorings(g, k) == brute_count_colorings(g, k)


# ---------------------------------------------------------------- polynomial


def test_polynomial_k3_falling_factorial():
    poly = chromatic_polynomial(clique(3))
    # k(k-1)(k-2) = k^3 - 3k^2 + 2k
    assert poly.coefficients == (0, 2, -3, 1)


def test_polynomial_c5_closed_form():
    poly = chromatic_polynomial(cycle(5))
    # (k-1)^5 - (k-1)
    assert poly.coefficients == (0, 4, -10, 10, -5, 1)
    for k in (2, 3, 4):
        assert poly(k) == (k - 1) ** 5 - (k - 1) == brute_count_colorings(cycle(5), k)


def test_polynomial_edgeless():
    assert chromatic_polynomial(build_graph(3, [])).coefficients == (0, 0, 0, 1)


def test_polynomial_charges_one_unit_per_memo_miss():
    # C5's memoized deletion-contraction meets 13 distinct subproblems that
    # still have an edge
    poly = chromatic_polynomial(cycle(5), SearchLimits(max_nodes=13))
    assert poly.coefficients == (0, 4, -10, 10, -5, 1)
    with pytest.raises(BudgetExceeded):
        chromatic_polynomial(cycle(5), SearchLimits(max_nodes=12))


def test_polynomial_multiplies_over_components():
    # seeded disjoint unions of random parts, isolated vertices and pendant
    # paths: the product over components is the single-pass polynomial, and
    # two C5s charge the 13 memo misses of one, the second meeting the memo
    rng = random.Random(5)
    for _ in range(30):
        parts = [random_graph(rng, rng.randint(1, 5), p=0.6) for _ in range(rng.randint(1, 3))]
        parts.append(build_graph(rng.randint(1, 3), []))
        n, edges = 0, []
        for part in parts:
            edges += [(u + n, v + n) for u, v in part.edges()]
            n += part.n
        edges += [(0, n), (n, n + 1)]
        g = _relabeled(build_graph(n + 2, edges), rng)
        assert chromatic_polynomial(g).coefficients == single_pass_chromatic_polynomial(g)
    two_c5 = build_graph(10, cycle(5).edges() + [(u + 5, v + 5) for u, v in cycle(5).edges()])
    poly = chromatic_polynomial(two_c5, SearchLimits(max_nodes=13))
    assert poly(3) == 30 * 30


def test_polynomial_peels_a_long_path():
    # every vertex of a 1500-vertex path peels before branching, so with no
    # time cap the answer x (x - 1)^1499 is exact, quick and charges nothing
    from math import comb

    g = build_graph(1500, [(v, v + 1) for v in range(1499)])
    start = time.monotonic()
    poly = chromatic_polynomial(g, SearchLimits(max_nodes=1))
    assert time.monotonic() - start < 5.0
    assert poly.coefficients == (0,) + tuple(
        comb(1499, i) * (-1) ** (1499 - i) for i in range(1500)
    )


def test_polynomial_shape_invariants():
    import random

    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        poly = chromatic_polynomial(g)
        assert poly.degree == g.n
        assert poly.coefficients[-1] == 1
        assert poly(0) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.randoms(use_true_random=False))
def test_polynomial_evaluates_to_counts(n, rng):
    g = random_graph(rng, n)
    poly = chromatic_polynomial(g)
    for k in range(5):
        assert poly(k) == count_proper_colorings(g, k)
