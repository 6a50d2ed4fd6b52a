from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critickit import (
    DisconnectedError,
    EkabParams,
    Graph6Error,
    GraphError,
    build_graph,
    clique,
    complete_bipartite,
    cycle,
    encode_graph6,
    format_edgelist,
    generate_ekab,
    generate_named,
    join,
    parse_edgelist,
    parse_graph6,
    spanning_tree,
)
from critickit.graphs import spanning_forest
from helpers import are_isomorphic, random_graph


# ----------------------------------------------------------------- building


def test_build_single_edge():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1 and g.has_edge(0, 1) and g.has_edge(1, 0)


def test_build_cycle_by_hand():
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert g == cycle(5)


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 7\)"):
        build_graph(3, [(0, 7)])


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_named_families():
    assert clique(4).m == 6
    assert cycle(5).m == 5
    assert complete_bipartite(2, 4).m == 8
    assert generate_named("clique", 4) == clique(4)
    assert generate_named("cycle", 5) == cycle(5)
    assert generate_named("complete_bipartite", 2, 4) == complete_bipartite(2, 4)


def test_cycle_needs_three_vertices():
    with pytest.raises(GraphError):
        cycle(2)


def test_unknown_family_rejected():
    with pytest.raises(GraphError):
        generate_named("petersen", 10)


# --------------------------------------------------------------------- ekab


def ekab_edge_count(k: int, a: int, b: int) -> int:
    # two (k-1)-cliques + apex degree (a+b) + the bipartite block
    return (k - 1) * (k - 2) + (a + b) + (k - 1 - a) * (k - 1 - b)


def test_ekab_623_counts():
    g = generate_ekab(6, 2, 3)
    assert g.n == 11
    assert g.m == 31 == ekab_edge_count(6, 2, 3)


def test_ekab_422_counts():
    g = generate_ekab(4, 2, 2)
    assert g.n == 7
    assert g.m == 11 == ekab_edge_count(4, 2, 2)


def test_ekab_311_is_c5():
    assert are_isomorphic(generate_ekab(3, 1, 1), cycle(5))


def test_ekab_layout():
    # (4,1,2): X1={0}, X2={1,2}, Y1={3,4}, Y2={5}, z=6
    g = generate_ekab(4, 1, 2)
    assert g.adj[6] == frozenset({0, 3, 4})
    assert g.has_edge(1, 5) and g.has_edge(2, 5) and not g.has_edge(0, 5)


@pytest.mark.parametrize(
    "k,a,b",
    [(2, 1, 1), (4, 0, 2), (4, 3, 2), (4, 1, 1), (5, 1, 2)],
)
def test_ekab_invalid_params(k, a, b):
    with pytest.raises(GraphError):
        EkabParams(k, a, b)


def test_ekab_symmetric_in_a_b():
    for k in range(3, 6):
        for a in range(1, k - 1):
            for b in range(1, k - 1):
                if a + b >= k - 1:
                    assert are_isomorphic(
                        generate_ekab(k, a, b), generate_ekab(k, b, a)
                    ), (k, a, b)


# --------------------------------------------------------------------- join


def test_join_wheel():
    w = join(cycle(5), clique(1))
    assert w.n == 6 and w.m == 10
    assert w.adj[5] == frozenset(range(5))


def test_join_k2_k2_is_k4():
    assert join(clique(2), clique(2)) == clique(4)


def test_join_k1_k1_is_k2():
    assert join(clique(1), clique(1)) == clique(2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_join_edge_count_formula(n1, n2, rng):
    g = random_graph(rng, n1)
    h = random_graph(rng, n2)
    assert join(g, h).m == g.m + h.m + g.n * h.n


# ------------------------------------------------------------------- graph6


def test_graph6_known_words():
    assert encode_graph6(clique(2)) == "A_"
    assert encode_graph6(build_graph(1, [])) == "@"
    assert parse_graph6("@") == build_graph(1, [])


def test_graph6_d_brace_is_5_vertex_star():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_c5_word_roundtrip():
    word = encode_graph6(cycle(5))
    assert len(word) == 3
    assert parse_graph6(word) == cycle(5)


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<Dhc") == cycle(5)


def test_graph6_invalid_header_byte():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("#")
    assert err.value.offset == 0


def test_graph6_truncated_body():
    with pytest.raises(Graph6Error):
        parse_graph6("D?")


def test_graph6_nonzero_padding_rejected():
    # C_5's word with the final padding bits forced on
    word = encode_graph6(cycle(5))
    corrupted = word[:-1] + chr(((ord(word[-1]) - 63) | 0b11) + 63)
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6(corrupted)


def test_graph6_long_form_roundtrip():
    g = cycle(70)
    word = encode_graph6(g)
    assert word.startswith(chr(126))
    assert parse_graph6(word) == g


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_graph6_roundtrip_random(n, rng):
    g = random_graph(rng, n)
    assert parse_graph6(encode_graph6(g)) == g


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_graph6_agrees_with_networkx(n, rng):
    g = random_graph(rng, n)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    reference = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert encode_graph6(g) == reference
    decoded = nx.from_graph6_bytes(encode_graph6(g).encode())
    assert sorted(decoded.edges()) == g.edges()


def test_graph6_exhaustive_small():
    # every graph on up to 4 vertices round-trips
    from itertools import combinations

    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert parse_graph6(encode_graph6(g)) == g


# ------------------------------------------------------------ spanning tree


def test_spanning_tree_c5_bfs_order():
    assert spanning_tree(cycle(5)) == [(0, 1), (0, 4), (1, 2), (4, 3)]


def test_spanning_forest_roots_every_component():
    # breadth-first from each component's least vertex, in that order
    g = build_graph(7, [(0, 4), (1, 6), (3, 6), (4, 5), (2, 5)])
    assert spanning_forest(g) == [(0, 4), (4, 5), (5, 2), (1, 6), (6, 3)]
    assert spanning_forest(cycle(5)) == spanning_tree(cycle(5))


def test_spanning_tree_k2():
    assert spanning_tree(clique(2)) == [(0, 1)]


def test_spanning_tree_disconnected_names_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError) as err:
        spanning_tree(g)
    assert err.value.components == ([0, 1], [2, 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_spanning_tree_is_tree(n, rng):
    g = random_graph(rng, n, connected=True)
    tree = spanning_tree(g)
    assert len(tree) == g.n - 1
    assert all(g.has_edge(u, v) for u, v in tree)


# ---------------------------------------------------------------- edge list


def test_edgelist_roundtrip():
    g = generate_ekab(4, 2, 2)
    assert parse_edgelist(format_edgelist(g)) == g


def test_edgelist_header_mismatch():
    with pytest.raises(GraphError):
        parse_edgelist("3 2\n0 1\n")
