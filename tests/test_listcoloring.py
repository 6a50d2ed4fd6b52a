from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critickit import (
    AssignmentError,
    BlockSystem,
    BudgetExceeded,
    ListAssignment,
    SearchLimits,
    assignment_from_blocks,
    block_systems,
    build_graph,
    chromatic_number,
    clique,
    complete_bipartite,
    cycle,
    find_bad_nonconstant_assignment,
    find_list_coloring,
    generate_ekab,
    is_constant_assignment,
    is_list_colorable,
    join,
    list_chromatic_number,
    strong_criticality_verdict,
)
from helpers import (
    RecordingBudget,
    brute_is_list_colorable,
    oracle_all_completions_colorable,
    oracle_bad_assignment,
    oracle_block_systems,
    random_assignment,
    random_graph,
)


# ---------------------------------------------------------- list colorability


def test_c5_uniform_three_colors():
    assert is_list_colorable(cycle(5), ListAssignment.uniform(5, {1, 2, 3}))


def test_k2_identical_singletons():
    assert not is_list_colorable(clique(2), ListAssignment.of([{1}, {1}]))


def test_c5_uniform_two_colors():
    assert not is_list_colorable(cycle(5), ListAssignment.uniform(5, {1, 2}))


def test_missing_list_rejected():
    with pytest.raises(AssignmentError):
        is_list_colorable(clique(2), ListAssignment.of([{1}]))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_list_colorable_matches_brute(n, k, rng):
    g = random_graph(rng, n)
    assignment = random_assignment(rng, n, k, pool=n * k)
    assert is_list_colorable(g, assignment) == brute_is_list_colorable(g, assignment)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_renaming_invariance(n, k, rng):
    g = random_graph(rng, n)
    assignment = random_assignment(rng, n, k, pool=n * k)
    colors = sorted(set().union(*assignment.lists))
    images = rng.sample(range(100, 200), len(colors))
    recode = dict(zip(colors, images))
    renamed = ListAssignment.of(
        [{recode[c] for c in l} for l in assignment.lists]
    )
    assert is_list_colorable(g, assignment) == is_list_colorable(g, renamed)


def test_find_list_coloring_is_lexicographically_first():
    # unequal lists: the first coloring in product order over the sorted
    # lists, vertices in order
    rng = random.Random(2408)
    for _ in range(200):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        assignment = ListAssignment.of(
            [rng.sample(range(6), rng.randint(1, 3)) for _ in range(n)]
        )
        expected = next(
            (
                c
                for c in product(*(sorted(l) for l in assignment.lists))
                if all(c[u] != c[v] for u, v in g.edges())
            ),
            None,
        )
        assert find_list_coloring(g, assignment) == expected, (g.edges(), assignment)


def test_find_list_coloring_on_a_long_path():
    # 3000 vertices, deeper than the default recursion limit
    g = build_graph(3000, [(v, v + 1) for v in range(2999)])
    coloring = find_list_coloring(g, ListAssignment.uniform(3000, {0, 1}))
    assert coloring == tuple(v % 2 for v in range(3000))


# ----------------------------------------------------------------- constants


def test_constant_detection():
    assert is_constant_assignment(ListAssignment.uniform(4, {1, 2}))
    assert not is_constant_assignment(ListAssignment.of([{1, 2}, {1, 3}]))
    assert is_constant_assignment(ListAssignment.of([{5}]))


# ------------------------------------------------------------- block systems


def test_blocks_constant_case():
    full = (1 << 5) - 1
    system = BlockSystem(5, 2, (full, full))
    assignment = assignment_from_blocks(system)
    assert is_constant_assignment(assignment)
    assert all(l == frozenset({0, 1}) for l in assignment.lists)


def test_blocks_triangle_readout():
    # blocks {0,1}, {0,2}, {1,2} in canonical mask order
    system = BlockSystem(3, 2, (0b011, 0b101, 0b110))
    assignment = assignment_from_blocks(system)
    assert assignment.lists == (
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    )


def test_blocks_coverage_violation_names_vertex():
    system = BlockSystem(4, 2, (0b0011, 0b0011))  # vertices 2,3 uncovered
    with pytest.raises(AssignmentError, match="vertex 2"):
        assignment_from_blocks(system)


def test_blocks_must_be_sorted():
    with pytest.raises(AssignmentError):
        BlockSystem(3, 1, (0b110, 0b001))


def test_block_systems_match_recursive_reference():
    for n in range(6):
        for k in range(4):
            if n * k <= 12:
                assert [s.blocks for s in block_systems(n, k)] == list(
                    oracle_block_systems(n, k)
                ), (n, k)


def test_block_systems_reject_negative_multiplicity():
    with pytest.raises(AssignmentError):
        list(block_systems(2, -1))


def test_block_systems_small_count():
    # multiplicity 1 on 2 vertices: {01} or {0},{1}
    systems = list(block_systems(2, 1))
    assert [s.blocks for s in systems] == [(1, 2), (3,)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.randoms(use_true_random=False))
def test_block_enumeration_complete_up_to_renaming(n, k, rng):
    # the support multiset of any assignment appears in the enumeration
    assignment = random_assignment(rng, n, k, pool=n * k)
    colors = sorted(set().union(*assignment.lists))
    supports = tuple(
        sorted(
            sum(1 << v for v in range(n) if c in assignment.lists[v])
            for c in colors
        )
    )
    enumerated = {s.blocks for s in block_systems(n, k)}
    assert supports in enumerated
    # and the induced assignment is the original up to a color bijection
    system = BlockSystem(n, k, supports)
    induced = assignment_from_blocks(system)
    g = random_graph(rng, n)
    assert is_list_colorable(g, induced) == is_list_colorable(g, assignment)


# ------------------------------------------------------- bad-assignment search


def test_c5_has_no_bad_nonconstant_2_assignment():
    assert find_bad_nonconstant_assignment(cycle(5), 2) is None


def test_k24_bad_2_assignment_found_and_replays():
    g = complete_bipartite(2, 4)
    bad = find_bad_nonconstant_assignment(g, 2)
    assert bad is not None
    assert not is_constant_assignment(bad)
    assert all(len(l) == 2 for l in bad.lists)
    assert not is_list_colorable(g, bad)
    assert not brute_is_list_colorable(g, bad)


def test_k2_one_assignment_none():
    assert find_bad_nonconstant_assignment(clique(2), 1) is None


def test_c4_bad_nonconstant_1_assignment_exists():
    bad = find_bad_nonconstant_assignment(cycle(4), 1)
    assert bad is not None and not is_list_colorable(cycle(4), bad)


def test_budget_exhaustion_is_loud():
    with pytest.raises(BudgetExceeded):
        find_bad_nonconstant_assignment(
            generate_ekab(4, 2, 2), 3, SearchLimits(max_nodes=5)
        )


def test_list_chromatic_number_budget_carries_lower_bound():
    with pytest.raises(BudgetExceeded) as info:
        list_chromatic_number(complete_bipartite(2, 4), SearchLimits(max_nodes=5))
    assert info.value.lower_bound == 2 and info.value.spent <= 5


def test_search_agrees_with_plain_enumeration():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 2)
        g = random_graph(rng, n)
        full = (1 << n) - 1
        naive = None
        for blocks in oracle_block_systems(n, k):
            if all(b == full for b in blocks):
                continue
            assignment = assignment_from_blocks(BlockSystem(n, k, blocks))
            if not is_list_colorable(g, assignment):
                naive = blocks
                break
        found = find_bad_nonconstant_assignment(g, k)
        if naive is None:
            assert found is None
        else:
            assert found is not None
            assert not is_list_colorable(g, found)


def _recorded_search(g, k, max_nodes, call):
    """(outcome, spend calls) of ``call(search)`` on a fresh search whose
    budget records every charge."""
    from critickit.listcoloring import _BadAssignmentSearch

    search = _BadAssignmentSearch(g, k, None)
    search.budget = RecordingBudget(SearchLimits(max_nodes=max_nodes))
    try:
        outcome = call(search)
    except BudgetExceeded as exc:
        outcome = ("budget", exc.spent)
    return outcome, search.budget.calls


def test_search_matches_recursive_reference():
    # the explicit-stack block walk must make every decision and every
    # charge as the plain recursion makes them, including where the budget
    # trips; k is the chromatic number or one below it, where the search
    # has the most nodes
    from critickit.listcoloring import _BadAssignmentSearch

    rng = random.Random(2408)
    for _ in range(100):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p=rng.uniform(0.2, 1))
        k = min(3, chromatic_number(g) - rng.randint(0, 1))
        for max_nodes in (10, 100, 10**6):
            assert _recorded_search(
                g, k, max_nodes, _BadAssignmentSearch.run
            ) == _recorded_search(g, k, max_nodes, oracle_bad_assignment), (
                g.edges(), k, max_nodes,
            )


def test_certificate_matches_recursive_reference():
    # on every state the block walk asks about, the explicit-stack deferral
    # certificate must answer as the plain recursion does
    from critickit.listcoloring import _BadAssignmentSearch, _block_walk

    rng = random.Random(4538)
    answers = set()
    for _ in range(100):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p=rng.uniform(0.2, 1))
        k = min(3, chromatic_number(g) - rng.randint(0, 1))
        search = _BadAssignmentSearch(g, k, SearchLimits(max_nodes=1000))

        def prune(rem, lists):
            answer = search._all_completions_colorable(rem, lists)
            assert answer == oracle_all_completions_colorable(search, rem, lists), (
                g.edges(), rem, lists,
            )
            answers.add(answer)
            return answer

        try:
            for _ in _block_walk(n, k, search.budget.spend, prune):
                pass
        except BudgetExceeded:
            pass
    assert answers == {False, True}


def test_submasks_ascending_matches_brute_force():
    # block_systems and the bad-assignment search share this walk, so the
    # comparison above cannot catch a fault in it
    from critickit.listcoloring import _submasks_ascending

    for pos in range(2**6):
        for lo in range(2**6 + 1):
            expected = [s for s in range(1, 2**6) if s & ~pos == 0 and s >= lo]
            assert list(_submasks_ascending(pos, lo)) == expected, (pos, lo)


# ------------------------------------------------------------- choosability


@pytest.mark.parametrize(
    "graph,expected",
    [
        (cycle(4), 2),
        (complete_bipartite(2, 4), 3),
        (clique(4), 4),
        (cycle(5), 3),
        (build_graph(3, []), 1),
        (build_graph(0, []), 0),
    ],
)
def test_list_chromatic_number(graph, expected):
    assert list_chromatic_number(graph) == expected


def test_chi_le_chi_list():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5))
        assert chromatic_number(g) <= list_chromatic_number(g)


# ------------------------------------------------------ strong criticality


def test_c5_strongly_critical():
    verdict = strong_criticality_verdict(cycle(5))
    assert verdict.decision == "yes" and verdict.k == 3


def test_e422_strongly_critical():
    verdict = strong_criticality_verdict(generate_ekab(4, 2, 2))
    assert verdict.decision == "yes" and verdict.k == 4


def test_c4_not_strongly_critical_with_edge_witness():
    verdict = strong_criticality_verdict(cycle(4))
    assert verdict.decision == "no"
    assert isinstance(verdict.witness, tuple)


def test_strong_cc_mode_on_vertex_critical_graph():
    verdict = strong_criticality_verdict(clique(3), "vertex_critical")
    assert verdict.decision == "yes" and verdict.k == 3


def test_strong_unknown_on_tiny_budget():
    verdict = strong_criticality_verdict(
        generate_ekab(4, 2, 2), "critical", SearchLimits(max_nodes=5)
    )
    assert verdict.decision == "unknown"


def test_k1_strongly_1_critical():
    verdict = strong_criticality_verdict(clique(1))
    assert verdict.decision == "yes" and verdict.k == 1
