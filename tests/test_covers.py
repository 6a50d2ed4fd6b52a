from __future__ import annotations

import math
import random
import time

import pytest

from critickit import (
    BudgetExceeded,
    Cover,
    CoverError,
    DisconnectedError,
    ListAssignment,
    SearchLimits,
    build_graph,
    canonical_labeling,
    chromatic_number,
    classify_criticality,
    clique,
    complete_bipartite,
    complete_to_full,
    count_proper_colorings,
    count_transversals,
    cover_from_assignment,
    cover_violation,
    cycle,
    dp_chromatic_number,
    enumerate_full_covers,
    find_transversal,
    generate_ekab,
    is_bad,
    is_full,
    join,
    list_chromatic_number,
    make_canonical_cover,
    make_cover,
    make_near_canonical,
    normalize_cover,
    pdp_value,
    relabel_cover,
    robust_criticality_verdict,
    spanning_tree,
    strong_criticality_verdict,
    validate_cover,
)
from critickit.coloring import ColoringVerdict
from critickit.graphs import connected_components, parse_graph6
from helpers import (
    RecordingBudget,
    _partial_injections,
    brute_count_list_colorings,
    brute_count_transversals,
    brute_find_transversal,
    grid_graph,
    oracle_canonical_labeling,
    oracle_complete_to_full,
    oracle_find_bad,
    oracle_kill_masks,
    oracle_min_transversals,
    oracle_normalize_cover,
    oracle_tree_colorings,
    random_assignment,
    random_cover,
    random_graph,
    random_relabeling,
    random_uniform_cover,
)

K3_PLUS_PENDANT = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


# ------------------------------------------------------------- construction


def test_canonical_k3_2_is_bad():
    cover = make_canonical_cover(clique(3), 2)
    assert validate_cover(cover)
    assert find_transversal(cover) is None


def test_canonical_c5_3_counts_colorings():
    cover = make_canonical_cover(cycle(5), 3)
    assert count_transversals(cover) == 30 == count_proper_colorings(cycle(5), 3)


def test_zero_fold_cover_is_bad_and_canonical():
    cover = make_canonical_cover(cycle(5), 0)
    assert find_transversal(cover) is None
    assert canonical_labeling(cover) is not None


def test_near_canonical_pendant_bad_noncanonical():
    cover = make_near_canonical(K3_PLUS_PENDANT, 2, (0, 3))
    assert find_transversal(cover) is None
    assert brute_find_transversal(cover) is None
    assert canonical_labeling(cover) is None


def test_near_canonical_c5_2_colorable():
    cover = make_near_canonical(cycle(5), 2, (0, 1))
    t = find_transversal(cover)
    assert t is not None and brute_find_transversal(cover) is not None


def test_near_canonical_k2_1_colorable():
    cover = make_near_canonical(clique(2), 1, (0, 1))
    assert find_transversal(cover) is not None


def test_near_canonical_rejects_non_edge():
    with pytest.raises(CoverError):
        make_near_canonical(cycle(4), 2, (0, 2))


def test_cover_from_constant_assignment_is_canonical():
    assignment = ListAssignment.uniform(4, {1, 2, 3})
    assert cover_from_assignment(cycle(4), assignment) == make_canonical_cover(
        cycle(4), 3
    )


def test_cover_from_assignment_k2_bridge():
    cover = cover_from_assignment(
        clique(2), ListAssignment.of([{1, 2}, {2, 3}])
    )
    assert cover.matchings == ((0, 1, ((1, 0),)),)
    assert count_transversals(cover) == 3


def test_cover_from_disjoint_lists_all_empty():
    cover = cover_from_assignment(
        clique(3), ListAssignment.of([{1}, {2}, {3, 4}])
    )
    assert all(pairs == () for _, _, pairs in cover.matchings)
    assert count_transversals(cover) == 1 * 1 * 2


# ---------------------------------------------------------------- validation


def test_validate_canonical():
    assert cover_violation(make_canonical_cover(cycle(5), 2)) is None


def test_validate_rejects_non_injective():
    cover = Cover(clique(2), (2, 2), ((0, 1, ((0, 0), (1, 0))),))
    assert "injective" in cover_violation(cover)


def test_validate_rejects_matching_on_non_edge():
    cover = Cover(
        cycle(4),
        (1,) * 4,
        tuple((u, v, ()) for u, v in cycle(4).edges()) + ((0, 2, ((0, 0),)),),
    )
    assert "non-edge" in cover_violation(cover)


def test_validate_rejects_out_of_range_index():
    cover = Cover(clique(2), (1, 1), ((0, 1, ((0, 5),)),))
    assert "out-of-range" in cover_violation(cover)


# ------------------------------------------------------------------ fullness


def test_canonical_is_full_near_canonical_is_not():
    assert is_full(make_canonical_cover(cycle(5), 2))
    nc = make_near_canonical(cycle(5), 2, (0, 1))
    assert not is_full(nc)
    full = complete_to_full(nc)
    assert is_full(full)
    # the emptied edge re-filled with the ascending pairing
    assert dict(full.matchings[0][2]) == {0: 0, 1: 1}


def test_complete_to_full_idempotent():
    cover = make_canonical_cover(clique(4), 3)
    assert complete_to_full(cover) == cover


def test_fullness_rejects_ragged_sizes():
    cover = cover_from_assignment(clique(2), ListAssignment.of([{1}, {1, 2}]))
    with pytest.raises(CoverError):
        is_full(cover)


# ------------------------------------------------------------- transversals


def test_c5_one_swap_cover_has_transversal():
    covers = list(enumerate_full_covers(cycle(5), 2))
    assert len(covers) == 2
    identity, swapped = covers
    assert find_transversal(identity) is None  # odd cycle parity
    assert find_transversal(swapped) is not None


def test_c4_swap_cover_certifies_dp_separation():
    covers = list(enumerate_full_covers(cycle(4), 2))
    assert find_transversal(covers[0]) is not None
    assert find_transversal(covers[1]) is None
    assert brute_find_transversal(covers[1]) is None


def test_count_canonical_k4():
    assert count_transversals(make_canonical_cover(clique(4), 4)) == 24


def test_transversal_search_on_a_long_path():
    # deeper than the interpreter's recursion limit
    path = build_graph(3000, [(v, v + 1) for v in range(2999)])
    cover = make_canonical_cover(path, 2)
    assert find_transversal(cover) == tuple(v % 2 for v in range(3000))
    assert count_transversals(cover) == 2


def test_counts_match_brute_force_on_random_covers():
    rng = random.Random(12)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 5))
        cover = random_cover(rng, g)
        assert count_transversals(cover) == brute_count_transversals(cover)
        found = find_transversal(cover)
        if found is None:
            assert brute_find_transversal(cover) is None
        else:
            assert all(
                not (found[u] == i and found[v] == j)
                for u, v, pairs in cover.matchings
                for i, j in pairs
            )


# --------------------------------------------------------- canonical labeling


def test_identity_labeling_of_canonical_cover():
    labeling = canonical_labeling(make_canonical_cover(cycle(5), 3))
    assert labeling == tuple(tuple(range(3)) for _ in range(5))


def test_swapped_cycle_cover_not_canonical():
    covers = list(enumerate_full_covers(cycle(5), 2))
    assert canonical_labeling(covers[1]) is None


def test_near_canonical_labeling_none():
    assert canonical_labeling(make_near_canonical(cycle(5), 2, (1, 2))) is None


def test_labeling_soundness_on_enumerated_covers():
    # a labeling exists iff relabeling by it reproduces the canonical cover;
    # in gauge-fixed enumeration that happens exactly for the first cover
    for g, k in [(cycle(5), 2), (clique(4), 2), (clique(4), 3)]:
        for index, cover in enumerate(enumerate_full_covers(g, k)):
            labeling = canonical_labeling(cover)
            if labeling is not None:
                assert relabel_cover(cover, labeling) == make_canonical_cover(g, k)
                assert index == 0
            else:
                assert index > 0


# ---------------------------------------------------------- relabel/normalize


def test_relabel_invariance():
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 6))
        cover = random_cover(rng, g)
        sigma = random_relabeling(rng, cover)
        relabeled = relabel_cover(cover, sigma)
        assert validate_cover(relabeled)
        assert count_transversals(relabeled) == count_transversals(cover)
        assert (find_transversal(relabeled) is None) == (
            find_transversal(cover) is None
        )
        assert (canonical_labeling(relabeled) is None) == (
            canonical_labeling(cover) is None
        )


def test_edge_monotonicity():
    rng = random.Random(32)
    checked = 0
    while checked < 150:
        g = random_graph(rng, rng.randint(2, 5), connected=True)
        cover = random_cover(rng, g)
        extendable = []
        for idx, (u, v, pairs) in enumerate(cover.matchings):
            free_src = set(range(cover.sizes[u])) - {i for i, _ in pairs}
            free_dst = set(range(cover.sizes[v])) - {j for _, j in pairs}
            if free_src and free_dst:
                extendable.append((idx, min(free_src), min(free_dst)))
        if not extendable:
            continue
        idx, i, j = extendable[rng.randrange(len(extendable))]
        entries = list(cover.matchings)
        u, v, pairs = entries[idx]
        entries[idx] = (u, v, tuple(sorted(pairs + ((i, j),))))
        bigger = Cover(cover.graph, cover.sizes, tuple(entries))
        assert count_transversals(bigger) <= count_transversals(cover)
        checked += 1


def test_normalize_canonical_fixed_point():
    cover = make_canonical_cover(cycle(5), 2)
    assert normalize_cover(cover) == cover


def test_normalize_requires_full():
    with pytest.raises(CoverError):
        normalize_cover(make_near_canonical(cycle(5), 2, (0, 1)))


def test_normalize_maps_into_enumeration():
    # every relabeling of an enumerated cover normalizes back to it
    rng = random.Random(5)
    covers = list(enumerate_full_covers(cycle(5), 2))
    tree = spanning_tree(cycle(5))
    for cover in covers:
        for _ in range(10):
            sigma = random_relabeling(rng, cover)
            shuffled = relabel_cover(cover, sigma)
            assert normalize_cover(shuffled, tree) == cover


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_relabeling_and_completion_match_reference():
    # labels, normal forms and completions of random covers, error types
    # included: partial, full and relabeled canonical covers, on hosts
    # that may be disconnected, plus covers with unequal list sizes
    rng = random.Random(2024)
    kinds = set()
    for _ in range(3000):
        g = random_graph(rng, rng.randint(0, 7), p=rng.uniform(0.1, 0.9))
        if rng.random() < 0.1:
            cover = random_cover(rng, g, max_size=3)
        else:
            cover = random_uniform_cover(rng, g, rng.randint(1, 4))
        labels = oracle_canonical_labeling(cover)
        assert canonical_labeling(cover) == labels, cover
        completed = _outcome(oracle_complete_to_full, cover)
        assert _outcome(complete_to_full, cover) == completed, cover
        try:
            tree = spanning_tree(g)
        except DisconnectedError:
            tree = None
        if isinstance(completed, Cover):
            normal = DisconnectedError if tree is None else oracle_normalize_cover(completed, tree)
            assert _outcome(normalize_cover, completed) == normal, completed
        kinds.add((labels is not None, tree is None))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_c5_two_normal_forms():
    rng = random.Random(6)
    tree = spanning_tree(cycle(5))
    forms = set()
    for _ in range(60):
        cover = complete_to_full(
            make_cover(
                cycle(5),
                (2,) * 5,
                {e: {} for e in cycle(5).edges()},
            )
        )
        sigma = random_relabeling(rng, cover)
        # random full cover: random permutation per edge
        entries = {}
        for u, v in cycle(5).edges():
            perm = [0, 1] if rng.random() < 0.5 else [1, 0]
            entries[(u, v)] = {i: perm[i] for i in range(2)}
        cover = make_cover(cycle(5), (2,) * 5, entries)
        forms.add(normalize_cover(cover, tree))
    assert len(forms) == 2


# -------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "graph,k,expected",
    [(cycle(5), 2, 2), (cycle(5), 3, 6), (generate_ekab(4, 2, 2), 3, 7776)],
)
def test_enumeration_counts(graph, k, expected):
    assert sum(1 for _ in enumerate_full_covers(graph, k)) == expected


def test_enumeration_truncation_signal():
    with pytest.raises(BudgetExceeded):
        list(enumerate_full_covers(clique(4), 3, SearchLimits(max_nodes=10)))


def test_enumerated_covers_are_full_and_valid():
    for cover in enumerate_full_covers(clique(4), 2):
        assert validate_cover(cover) and is_full(cover)


# ------------------------------------------------------------------ bridges


def test_assignment_bridge_counts():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 5)
        g = random_graph(rng, n)
        assignment = random_assignment(rng, n, rng.randint(1, 3), pool=2 * n)
        cover = cover_from_assignment(g, assignment)
        assert count_transversals(cover) == brute_count_list_colorings(g, assignment)


def test_canonical_bridge_counts():
    rng = random.Random(78)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        for k in range(5):
            assert count_transversals(
                make_canonical_cover(g, k)
            ) == count_proper_colorings(g, k)


# --------------------------------------------------------------- dp chromatic


@pytest.mark.parametrize(
    "graph,expected",
    [
        (cycle(4), 3),
        (cycle(5), 3),
        (clique(4), 4),
        (clique(5), 5),
        (join(cycle(5), clique(1)), 4),
        (clique(1), 1),
    ],
)
def test_dp_chromatic_number(graph, expected):
    assert dp_chromatic_number(graph) == expected


def test_dp_requires_connected():
    with pytest.raises(DisconnectedError):
        dp_chromatic_number(build_graph(4, [(0, 1), (2, 3)]))


def test_dp_matches_plain_enumeration():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5), connected=True)
        value = dp_chromatic_number(g)
        # every smaller k has a bad full cover; value itself has none
        assert all(
            any(is_bad(c) for c in enumerate_full_covers(g, k))
            for k in range(max(1, chromatic_number(g)), value)
        )
        assert not any(is_bad(c) for c in enumerate_full_covers(g, value))


def _plain_dp(g, limits):
    """The DP-chromatic number by scanning every k from chi up to the
    degeneracy + 1 bound, with no theorem route."""
    from critickit.covers import _GaugeScan
    from critickit.graphs import degeneracy

    k = chromatic_number(g)
    while k < degeneracy(g) + 1:
        try:
            if _GaugeScan(g, (k,) * g.n, limits.start()).find_bad(False) is None:
                return k
        except BudgetExceeded as exc:
            raise BudgetExceeded("undecided", spent=exc.spent, lower_bound=k) from exc
        k += 1
    return k


def test_dp_brooks_matches_the_plain_scan():
    # every connected graph of networkx's atlas at 10**5 covers: where the
    # plain scan decides, DP Brooks gives its value; where it stops at
    # lower bound b, a decided value is at least b and is the maximum degree
    # of a regular graph other than a clique
    from networkx.generators.atlas import graph_atlas_g

    limits = SearchLimits(max_nodes=10**5)
    decided = []
    for a in graph_atlas_g()[1:]:
        g = build_graph(a.number_of_nodes(), list(a.edges()))
        if len(connected_components(g)) > 1:
            continue
        try:
            value = dp_chromatic_number(g, limits)
        except BudgetExceeded:
            value = None
        try:
            assert value == _plain_dp(g, limits), g.edges()
        except BudgetExceeded as exc:
            if value is not None:
                degrees = set(map(len, g.adj))
                assert value >= exc.lower_bound and degrees == {value} and g.m < math.comb(g.n, 2)
                decided.append((g.n, g.m))
    # the octahedron and two 4-regular graphs on 7 vertices, C7(2,3) among them
    assert decided == [(6, 12), (7, 14), (7, 14)]


def test_dp_brooks_decides_c13_1_5():
    # 4-regular, not K5 and chi = 4: no scan is needed
    assert dp_chromatic_number(parse_graph6("LhEIHEPQHGaPaP"), SearchLimits(max_nodes=1)) == 4


# ------------------------------------------------------------------- robust


# (decision, k, covers_scanned) at budgets 1, 2, 3, 7775, 7776 and 10**7:
# each odd cycle, K2 and the bottoms of the joins below are decided by
# theorem, every other level by its scan or the join rule
_U, _R = "unknown", "robustly_critical"
LOW_FOLD_PINS = {
    "K2": (clique(2), [(_R, 2, 1)] * 6),
    "K3": (clique(3), [(_U, 3, 0)] * 2 + [(_R, 3, 2)] * 4),
    "C5": (cycle(5), [(_U, 3, 1)] + [(_R, 3, 2)] * 5),
    "C7": (cycle(7), [(_U, 3, 1)] + [(_R, 3, 2)] * 5),
    "C15": (cycle(15), [(_U, 3, 1)] + [(_R, 3, 2)] * 5),
    "C5+K1": (join(cycle(5), clique(1)), [(_U, 4, 0)] * 5 + [(_R, 4, 7776)]),
    "C7+K2": (join(cycle(7), clique(2)), [(_U, 5, 0)] * 6),
    "K4": (clique(4), [(_U, 4, 0)] * 3 + [(_R, 4, 216)] * 3),
    # fold 3: E(4,2,2) is robust by the pair rule from C5, charged its
    # scan's 6**5 covers after C5's 2, and C13(1,5), with no pair, keeps
    # its scan's bad non-canonical cover
    "E(4,2,2)": (generate_ekab(4, 2, 2), [
        (_U, 4, 0), (_U, 4, 0), (_U, 4, 1), (_U, 4, 7773), (_U, 4, 7774), (_R, 4, 7776),
    ]),
    "C13(1,5)": (parse_graph6("LhEIHEPQHGaPaP"), [
        (_U, 4, 1), (_U, 4, 2), (_U, 4, 3), (_U, 4, 6480), (_U, 4, 7776),
        ("noncanonical_bad_cover_found", 4, 876_963),
    ]),
}


@pytest.mark.parametrize("name", list(LOW_FOLD_PINS))
def test_low_fold_verdicts_keep_the_scans_counts(name):
    g, want = LOW_FOLD_PINS[name]
    got = []
    for budget in (1, 2, 3, 7775, 7776, 10**7):
        verdict = robust_criticality_verdict(g, SearchLimits(max_nodes=budget))
        got.append((verdict.decision, verdict.k, verdict.covers_scanned))
    assert got == want


def test_c5_robustly_critical():
    verdict = robust_criticality_verdict(cycle(5))
    assert verdict.decision == "robustly_critical"
    assert verdict.k == 3 and verdict.covers_scanned == 2


def test_e422_robustly_critical_full_scan():
    verdict = robust_criticality_verdict(generate_ekab(4, 2, 2))
    assert verdict.decision == "robustly_critical"
    assert verdict.k == 4 and verdict.covers_scanned == 6**5


def test_c4_not_critical():
    verdict = robust_criticality_verdict(cycle(4))
    assert verdict.decision == "not_critical"
    assert verdict.witness is not None


def test_robust_unknown_on_budget():
    verdict = robust_criticality_verdict(
        generate_ekab(4, 2, 2), SearchLimits(max_nodes=100)
    )
    assert verdict.decision == "unknown"
    assert 0 < verdict.covers_scanned <= 100


def test_robust_scan_agrees_with_plain_enumeration():
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 5), connected=True)
        verdict = robust_criticality_verdict(g)
        cv = classify_criticality(g)
        if not cv.is_critical:
            assert verdict.decision == "not_critical"
            continue
        k = cv.chromatic_number
        naive = None
        if k >= 2:
            for cover in enumerate_full_covers(g, k - 1):
                if is_bad(cover) and canonical_labeling(cover) is None:
                    naive = cover
                    break
        if naive is None:
            assert verdict.decision == "robustly_critical"
        else:
            assert verdict.decision == "noncanonical_bad_cover_found"
            assert verdict.witness == naive  # lexicographically first witness


def test_gauge_scan_witness_matches_naive():
    # Critical graphs this small are all robustly critical, so the public op
    # never produces a cover witness here; drive the scan engine directly at
    # sub-critical fold counts, where bad non-canonical covers abound, and
    # require the lexicographically first one.
    from critickit.covers import _GaugeScan

    rng = random.Random(43)
    seen = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 5), connected=True)
        for k in (1, 2):
            naive = None
            for cover in enumerate_full_covers(g, k):
                if is_bad(cover) and canonical_labeling(cover) is None:
                    naive = cover
                    break
            scan = _GaugeScan(g, (k,) * g.n, SearchLimits().start())
            combo = scan.find_bad(skip_canonical=True)
            if naive is None:
                assert combo is None
            else:
                seen += 1
                witness = scan.cover_at(combo)
                assert witness == naive
                assert is_bad(witness) and canonical_labeling(witness) is None
                assert is_full(witness)
    assert seen > 20


def _first_naive(g, k, key):
    """The first plainly enumerated full cover minimizing ``key``."""
    best = None
    for cover in enumerate_full_covers(g, k):
        value = key(cover)
        if best is None or value < best[0]:
            best = (value, cover)
    return best


def test_gauge_scan_leaders_match_naive_at_k3():
    # Sym(3) conjugation is non-trivial, so lex-leader pruning skips covers
    # here; witnesses and minimizers must still be the plain enumeration's
    # lexicographically first ones.
    from critickit.covers import _GaugeScan

    rng = random.Random(45)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randint(2, 5), connected=True)
        if g.m - g.n + 1 > 3:
            continue
        checked += 1
        for skip_canonical in (True, False):
            naive = None
            for index, cover in enumerate(enumerate_full_covers(g, 3)):
                if is_bad(cover) and not (skip_canonical and index == 0):
                    naive = cover
                    break
            scan = _GaugeScan(g, (3,) * g.n, SearchLimits().start())
            combo = scan.find_bad(skip_canonical)
            assert (None if combo is None else scan.cover_at(combo)) == naive
        value, minimizer = _first_naive(g, 3, count_transversals)
        scan = _GaugeScan(g, (3,) * g.n, SearchLimits().start())
        assert scan.min_transversals()[0] == value
        assert scan.cover_at(scan.best_combo) == minimizer


@pytest.mark.parametrize("k,length", [(2, 3), (3, 3), (4, 2)])
def test_leader_steps_keep_exactly_orbit_leaders(k, length):
    # a prefix survives the leader steps iff no simultaneous conjugation
    # p -> sigma p sigma^-1 makes it lexicographically smaller
    from itertools import product

    from critickit.covers import _leader_tables

    tables = _leader_tables(k)
    perms = tables.perms

    def conj(sigma, p):
        inverse = [sigma.index(i) for i in range(k)]
        return perms.index(tuple(sigma[p[inverse[i]]] for i in range(k)))

    leaders = 0
    for combo in product(range(len(perms)), repeat=length):
        stab, kept = None, True
        for p in combo:
            stab = tables.leader_step(stab)[p]
            if stab is False:
                kept = False
                break
        orbit = {
            tuple(conj(sigma, perms[p]) for p in combo) for sigma in perms
        }
        assert kept == (min(orbit) == combo), combo
        leaders += kept
    assert leaders < len(perms) ** length or k <= 2


def test_tripped_root_step_caches_nothing():
    # the root leader step at k = 6 examines 720 permutations and 11
    # centralizers of 720 each, so its build checks the deadline twice; a
    # trip there leaves no step cached, and the next scan at k = 6 builds
    # the whole step and decides
    from critickit import covers
    from critickit.limits import Budget

    class TripAtZeroCharges(Budget):
        armed = False

        def spend(self, units=1):
            if units == 0 and self.armed:
                raise BudgetExceeded("time budget exhausted", spent=self.spent)
            super().spend(units)

    covers._LEADER_TABLES.clear()
    budget = TripAtZeroCharges(SearchLimits())
    scan = covers._GaugeScan(clique(3), (6,) * 3, budget)
    budget.armed = True
    with pytest.raises(BudgetExceeded):
        scan.find_bad(False)
    assert budget.spent == 0
    tables = covers._leader_tables(6)
    assert tables is scan._leader_step.__self__ and None not in tables._steps
    budget = SearchLimits().start()
    assert covers._GaugeScan(clique(3), (6,) * 3, budget).find_bad(False) is None
    assert tables._steps[None] == covers._LeaderTables(6).leader_step(None)
    assert budget.spent == 720


def test_leader_tables_check_the_deadline_while_listed():
    # the tables list k! permutations, with a zero-unit charge after every
    # 4096: none at k = 6, one at k = 7; a scan at 7 tripped there caches
    # no tables, and the next scan at 7 builds and keeps them (K3: a scan
    # with no non-tree edge builds none)
    from itertools import permutations

    from critickit import covers
    from critickit.limits import Budget

    for k, want in ((6, []), (7, [0])):
        calls = []
        tables = covers._LeaderTables(k, calls.append)
        assert calls == want
        assert tables.perms == list(permutations(range(k)))
        assert tables.pairs == [tuple(enumerate(p)) for p in tables.perms]
        assert all(tables._index[p] == i for i, p in enumerate(tables.perms))

    class TripAtFirstCharge(Budget):
        def spend(self, units=1):
            raise BudgetExceeded("time budget exhausted", spent=self.spent)

    covers._LEADER_TABLES.pop(7, None)
    with pytest.raises(BudgetExceeded):
        covers._GaugeScan(clique(3), (7,) * 3, TripAtFirstCharge(SearchLimits()))
    assert 7 not in covers._LEADER_TABLES
    budget = RecordingBudget(SearchLimits())
    assert covers._GaugeScan(clique(3), (7,) * 3, budget).find_bad(True) is None
    assert budget.calls[0] == 0 and 7 in covers._LEADER_TABLES


def test_k5_full_scan_decided():
    from critickit.covers import _GaugeScan

    budget = SearchLimits(max_nodes=2 * 10**8).start()
    assert _GaugeScan(clique(5), (4,) * 5, budget).find_bad(True) is None
    assert budget.spent == 191_102_976
    # the verdict decides K5 from K4 by the join rule and reports the same count
    verdict = robust_criticality_verdict(clique(5), SearchLimits(max_nodes=2 * 10**8))
    assert verdict.decision == "robustly_critical"
    assert verdict.covers_scanned == 191_102_976


def test_robust_scan_keeps_the_time_budget():
    # the Groetzsch graph has no dominating vertex and its scan takes
    # seconds; the node budget is out of reach, so only the deadline can stop
    # the verdict
    limits = SearchLimits(max_nodes=10**15, max_millis=200)
    start = time.monotonic()
    verdict = robust_criticality_verdict(parse_graph6("JhdLA_gc?N_"), limits)
    assert verdict.decision == "unknown"
    assert time.monotonic() - start < 10.0


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _scan_matches(verdict, g, k):
    """Whether ``verdict(g, limits)`` equals g's own scan's at 2e8 covers, and
    at 50 wherever it decides: the levels below charge the same budget first,
    so the route may stop where the scan decides, never the other way round."""
    from critickit import covers

    for max_nodes in (2 * 10**8, 50):
        limits = SearchLimits(max_nodes=max_nodes)
        got = verdict(g, limits)
        if max_nodes == 50 and got.decision == "unknown":
            continue
        if got != covers._scan_verdict(g, k, limits.start()):
            return False
    return True


def test_join_verdicts_match_the_scan():
    # K3, K4, K5, C5+K1, C7+K1, every critical graph with a dominating vertex
    # on <= 6 vertices (networkx's atlas) whose scan fits 6**6 covers, and
    # seeded relabelings: verdict and count are the whole-graph scan's
    from networkx.generators.atlas import graph_atlas_g

    hosts = [clique(3), clique(4), clique(5), join(cycle(5), clique(1)), join(cycle(7), clique(1))]
    for a in graph_atlas_g():
        g = build_graph(a.number_of_nodes(), list(a.edges()))
        if 0 < g.n <= 6 and any(len(g.adj[v]) == g.n - 1 for v in range(g.n)):
            cv = classify_criticality(g)
            if cv.is_critical and math.factorial(cv.chromatic_number - 1) ** (g.m - g.n + 1) <= 6**6:
                hosts.append(g)
    rng = random.Random(17)
    hosts += [_relabeled(g, rng) for g in hosts]
    ks = set()
    for g in hosts:
        k = chromatic_number(g)
        ks.add(k)
        assert _scan_matches(robust_criticality_verdict, g, k), g.edges()
    assert ks == {1, 2, 3, 4, 5}


def test_routed_verdict_matches_the_scan():
    # where the level below is not robustly critical, g is scanned: with a
    # forced classification, K2,3 + K1 and random H + K1 at fold 3, H with no
    # dominating vertex and a bad twisted 2-fold cover, give the scan's
    # verdict, witness and count
    from critickit import covers
    from critickit.covers import _GaugeScan

    def forced(g, limits):
        return covers._robust_verdict(g, limits, ColoringVerdict(4, True, True, None))

    g = join(complete_bipartite(2, 3), clique(1))
    verdict = forced(g, SearchLimits())
    assert (verdict.decision, verdict.covers_scanned) == ("noncanonical_bad_cover_found", 4554)
    rng = random.Random(1504)
    hosts = [g]
    while len(hosts) < 30:
        h = random_graph(rng, rng.randint(3, 5), p=rng.uniform(0.3, 1), connected=True)
        if (
            any(len(h.adj[v]) == h.n - 1 for v in range(h.n))
            or h.m > 6
            or _GaugeScan(h, (2,) * h.n, SearchLimits().start()).find_bad(True) is None
        ):
            continue
        hosts.append(_relabeled(join(h, clique(1)), rng))
    decided = set()
    for g in hosts:
        assert _scan_matches(forced, g, 4), g.edges()
        decided.add(forced(g, SearchLimits()).decision)
    assert decided == {"robustly_critical", "noncanonical_bad_cover_found"}


HAJOS_C9 = "J^?GIE?AK^_"  # the rank-9 Hajos graph, one pair above C9


def test_pair_verdicts_match_the_scan():
    # every critical graph with chi >= 4 on <= 7 vertices (networkx's atlas)
    # whose scan fits 2e8 covers, E(4,a,b) under seeded relabelings, C7 with
    # two seeded vertices x, y added whose neighborhoods cover it and meet in
    # at most one vertex, and the rank-9 Hajos graph: verdict and count are
    # the whole-graph scan's, most of them decided by the pair rule
    from networkx.generators.atlas import graph_atlas_g

    from critickit import covers
    from critickit.coloring import _apex_levels

    hosts = []
    for a in graph_atlas_g():
        g = build_graph(a.number_of_nodes(), list(a.edges()))
        if g.n <= 7 and (k := chromatic_number(g)) >= 4 and classify_criticality(g).is_critical:
            if math.factorial(k - 1) ** (g.m - g.n + 1) <= 2 * 10**8:
                hosts.append(g)
    assert len(hosts) == 5
    rng = random.Random(25)
    hosts += [_relabeled(generate_ekab(4, a, b), rng) for a, b in [(2, 2), (1, 2), (2, 1)] for _ in range(3)]
    extended = 0
    while extended < 6:
        near_x = {v for v in range(7) if rng.random() < 0.5}
        near_y = set(range(7)) - near_x | set(rng.sample(sorted(near_x), min(len(near_x), rng.randrange(2))))
        g = build_graph(9, cycle(7).edges() + [(7, v) for v in near_x] + [(8, v) for v in near_y])
        cv = classify_criticality(g)
        if cv.is_critical and cv.chromatic_number == 4:
            hosts.append(_relabeled(g, rng))
            extended += 1
    hosts.append(parse_graph6(HAJOS_C9))
    paired = 0
    for g in hosts:
        k = chromatic_number(g)
        paired += any(step == "pair" for _, _, step in covers._chain(_apex_levels(g), k - 1))
        assert _scan_matches(robust_criticality_verdict, g, k), g.edges()
    assert paired == 17


@pytest.mark.parametrize(
    "name,g,budget",
    [
        ("E(5,2,3)", generate_ekab(5, 2, 3), 10**16),
        ("E(5,3,3)", generate_ekab(5, 3, 3), 10**16),
        ("E(5,1,3)", generate_ekab(5, 1, 3), 10**16),
        ("Hajos C9", parse_graph6(HAJOS_C9), 10**8),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_pair_rule_decides_what_the_scan_cannot_finish(name, g, budget):
    # E(5,a,b) reaches C5 by two pairs, the Hajos graph C9 by one: each is
    # decided at once, charged its scan's count (m-1)!^(|E| - |V| + 1)
    start = time.monotonic()
    verdict = robust_criticality_verdict(g, SearchLimits(max_nodes=budget))
    assert time.monotonic() - start < 1.0
    k = chromatic_number(g)
    assert (verdict.decision, verdict.k, verdict.covers_scanned) == (
        "robustly_critical", k, math.factorial(k - 1) ** (g.m - g.n + 1),
    )
    assert verdict.covers_scanned == {5: 24**11, 4: 6**9}[k]


def test_join_rule_charges_the_scans_count():
    # the join rule decides C5+K2 and C5+K3 at once, charging m!^|E(h)|;
    # a charge past the budget trips before anything is counted
    for t, m, covers, budget in [(2, 4, 24**10, 10**14), (3, 5, 120**16, 10**40)]:
        g = join(cycle(5), clique(t))
        verdict = robust_criticality_verdict(g, SearchLimits(max_nodes=budget))
        assert (verdict.decision, verdict.k, verdict.covers_scanned) == (
            "robustly_critical", m + 1, covers,
        )
        assert covers == math.factorial(m) ** (g.m - g.n + 1)
        verdict = robust_criticality_verdict(g, SearchLimits(max_nodes=covers - 1))
        assert (verdict.decision, verdict.covers_scanned) == ("unknown", 0)
    verdict = robust_criticality_verdict(join(cycle(7), clique(1)), SearchLimits(max_nodes=1000))
    assert (verdict.decision, verdict.covers_scanned) == ("unknown", 0)


def test_gauge_scan_setup_keeps_the_time_budget():
    # E(5,2,3) at k = 4 has 26,244 tree-only transversals; building the kill
    # masks over them takes several milliseconds, and checks the deadline
    from critickit.covers import _GaugeScan

    with pytest.raises(BudgetExceeded):
        _GaugeScan(generate_ekab(5, 2, 3), (4,) * 9, SearchLimits(max_millis=1).start())


def _walk_cases():
    """Random connected hosts with n <= 7 and k in 1..4, with the node
    budgets to run them at: every host at 5000 and 37 nodes, and at 10**9
    those whose gauge-fixed space has at most 10**6 covers, so that the
    reference walk finishes in well under a second."""
    rng = random.Random(2408)
    cases = []
    while len(cases) < 70:
        g = random_graph(rng, rng.randint(1, 7), p=rng.uniform(0.2, 1), connected=True)
        k = len(cases) % 4 + 1
        space = math.factorial(k) ** (g.m - g.n + 1)
        cases.append((g, k, (10**9, 5000, 37) if space <= 10**6 else (5000, 37)))
    return cases


def _recorded(g, k, max_nodes, call):
    """(outcome, spend calls, best value so far) of ``call(scan)`` on a fresh
    scan whose budget records every charge."""
    from critickit.covers import _GaugeScan

    budget = RecordingBudget(SearchLimits(max_nodes=max_nodes))
    scan = _GaugeScan(g, (k,) * g.n, budget)
    try:
        outcome = call(scan)
    except BudgetExceeded as exc:
        outcome = ("budget", exc.spent)
    return outcome, budget.calls, getattr(scan, "best_value", None)


def _decide_then_witness(find, skip_canonical):
    """``find(scan, skip_canonical, order)`` walked in the scan's decision
    order and, once that reordered walk finds a bad cover, again in
    canonical order for the witness: the walks of a verdict's own level.
    Returns both walks' combos."""

    def call(scan):
        found = find(scan, skip_canonical, scan.order)
        if found is not None and scan.order != sorted(scan.order):
            return found, find(scan, skip_canonical, None)
        return found, found

    return call


def test_survivor_walk_matches_recursive_reference():
    # reusing the parent's bound, the containment test at the last edge and
    # the explicit stack must leave every decision and every charge as the
    # plain recursion makes them, including where the budget trips, in the
    # decision order and in the canonical order of the witness's walk
    from critickit.covers import _GaugeScan

    for g, k, budgets in _walk_cases():
        for max_nodes in budgets:
            calls = [
                (_decide_then_witness(_GaugeScan.find_bad, skip),
                 _decide_then_witness(oracle_find_bad, skip))
                for skip in (True, False)
            ]
            calls.append((_GaugeScan.min_transversals, oracle_min_transversals))
            for new, reference in calls:
                assert _recorded(g, k, max_nodes, new) == _recorded(
                    g, k, max_nodes, reference
                ), (g.edges(), k, max_nodes)


def test_scans_share_leader_tables_per_k(monkeypatch):
    # scans at k = 3, 4, 3 in one process share each k's leader tables, the
    # second k = 3 scan finding them already built; every scan must decide
    # and charge exactly as one whose tables are its own
    from critickit import covers

    cases = [(join(cycle(7), clique(1)), 3), (clique(5), 4), (generate_ekab(4, 2, 2), 3)]
    limits = SearchLimits(max_nodes=2 * 10**8)

    def run(g, k):
        recorded = _recorded(g, k, limits.max_nodes, lambda s: s.find_bad(True))
        return robust_criticality_verdict(g, limits), recorded

    covers._LEADER_TABLES.clear()
    shared = [run(g, k) for g, k in cases]
    monkeypatch.setattr(covers, "_leader_tables", covers._LeaderTables)
    private = [run(g, k) for g, k in cases]
    assert shared == private
    assert [verdict.k - 1 for verdict, _ in shared] == [3, 4, 3]
    assert shared[1][0].covers_scanned == 191_102_976


def test_survivor_walk_matches_recursive_reference_on_dense_joins():
    from critickit.covers import _GaugeScan

    # deeper walks than the random hosts reach, where the parent's maximum on
    # a node's edge often settles the node's bound without its own head
    for g, k, max_nodes in [
        (join(cycle(7), clique(1)), 3, 10**7),
        (join(cycle(5), clique(2)), 4, 3 * 10**6),
        (clique(5), 4, 2 * 10**8),
    ]:
        new = _decide_then_witness(_GaugeScan.find_bad, True)
        reference = _decide_then_witness(oracle_find_bad, True)
        assert _recorded(g, k, max_nodes, new) == _recorded(
            g, k, max_nodes, reference
        ), (g.edges(), k, max_nodes)
    # the minimizing walk asks for more than one survivor, so a node may keep
    # a tail of maxima summed past its own cap for its children; a sum that
    # stopped before the last edge is no bound, and using one loses the
    # minimum on all three of the first hosts
    for g, k in [
        (complete_bipartite(3, 3), 3),
        (complete_bipartite(3, 4), 3),
        (join(cycle(4), clique(1)), 3),
        (join(cycle(5), clique(2)), 4),
        (clique(4), 4),
    ]:
        for max_nodes in (10**9, 300, 37):
            assert _recorded(g, k, max_nodes, _GaugeScan.min_transversals) == _recorded(
                g, k, max_nodes, oracle_min_transversals
            ), (g.edges(), k, max_nodes)


def test_kill_masks_match_pair_construction(monkeypatch):
    # bit i of a mask stands for the i-th proper coloring of the spanning
    # forest in digit order (helpers.oracle_tree_colorings), and those rows
    # are every proper coloring of the forest once; blocks of 7 rows, where
    # the columns are built in many pieces, give the same tables.  The
    # options are the permutations, and on a short edge, whose forest is
    # that of the host less the edge, the permutations less one pair; hosts
    # that fall apart, or do without the short edge, have several roots
    from itertools import permutations, product

    from critickit import covers

    rng = random.Random(2410)
    hosts = [(g, k) for g, k, _ in _walk_cases()]
    hosts += [(random_graph(rng, rng.randint(2, 6), p=0.4), rng.randint(1, 3)) for _ in range(12)]
    for rows in (1 << 16, 7):
        monkeypatch.setattr(covers, "_BLOCK_ROWS", rows)
        for g, k in hosts:
            full = [tuple(enumerate(p)) for p in permutations(range(k))]
            near = sorted(p for p in _partial_injections(k, k) if len(p) == k - 1)
            for short in [None] + g.edges()[:2]:
                scan = covers._GaugeScan(g, (k,) * g.n, SearchLimits().start(), short)
                colorings = oracle_tree_colorings((k,) * g.n, scan.tree)
                assert sorted(colorings) == [
                    t
                    for t in product(range(k), repeat=g.n)
                    if all(t[u] != t[v] for u, v in scan.tree)
                ]
                assert len(scan.tree) + len(scan.nontree) == g.m
                assert short is None or short in scan.nontree
                assert [
                    sorted(opts) if e == short else opts for e, opts in zip(scan.nontree, scan.options)
                ] == [near if e == short else full for e in scan.nontree]
                assert scan.full_mask == (1 << len(colorings)) - 1
                assert scan.kill == oracle_kill_masks(colorings, scan.nontree, scan.options)
                assert scan.keep == [
                    [scan.full_mask & ~mask for mask in masks] for masks in scan.kill
                ]


def test_tree_colorings_hold_lists_of_any_length_a_byte_holds(monkeypatch):
    # rows over per-vertex list lengths, each forest edge into a list at
    # least as long as its parent's, as the profile tables take them: past
    # 16 colors a child's index and its parent's do not fit one byte
    # together, and past 127 the comparison needs the lanes' top bits
    from critickit import covers

    cases = [
        ((17, 17), [(0, 1)]),
        ((20, 20, 20), [(0, 1), (1, 2)]),
        ((20, 17, 20), [(1, 0), (1, 2)]),
        ((3, 17, 20, 2), [(0, 1), (1, 2)]),
        ((129, 200), [(0, 1)]),
    ]
    for rows in (1 << 16, 7):
        monkeypatch.setattr(covers, "_BLOCK_ROWS", rows)
        for sizes, forest in cases if rows > 7 else cases[:4]:
            got = []
            for count, columns in covers._tree_colorings(sizes, forest):
                got += zip(*columns)
            want = oracle_tree_colorings(sizes, forest)
            assert got == want, (sizes, forest, rows)
            assert len(set(got)) == len(got) == math.prod(sizes) // math.prod(
                sizes[c] for _, c in forest
            ) * math.prod(sizes[c] - 1 for _, c in forest)
            assert all(t[p] != t[c] for t in got for p, c in forest)
    with pytest.raises(CoverError):
        next(covers._tree_colorings((257, 257), [(0, 1)]))


def test_product_blocks_list_the_product(monkeypatch):
    # whatever the block size, the blocks' columns read row by row are the
    # index tuples of product(...) in order
    from itertools import product

    from critickit import covers

    for sizes in [(), (1,), (3,), (2, 3, 4), (4, 1, 3, 2), (2, 0, 3)]:
        for rows in (1, 5, 6, 1 << 16):
            monkeypatch.setattr(covers, "_BLOCK_ROWS", rows)
            got = []
            for count, columns in covers._product_blocks(sizes):
                assert all(len(column) == count for column in columns)
                got += zip(*columns) if columns else [()] * count
            assert got == list(product(*map(range, sizes))), (sizes, rows)


def test_decision_order_changes_no_record(monkeypatch):
    # the decision order only decides which covers the walk settles first:
    # forced to the canonical order or its reverse, every verdict, witness
    # and count stays the same.  C13(1,5)'s own order is all ties, so only
    # the reversed order makes its verdict walk again for the witness; its
    # DP scan at k = 4 (2,125,764 survivors) is left out for its size
    from critickit import covers

    e422 = generate_ekab(4, 2, 2)
    perm = list(range(e422.n))
    random.Random(16).shuffle(perm)
    c13 = parse_graph6("LhEIHEPQHGaPaP")
    hosts = [g for g, _, _ in _walk_cases()] + [
        join(cycle(7), clique(1)),
        build_graph(e422.n, [(perm[u], perm[v]) for u, v in e422.edges()]),
        c13,
    ]
    find_bad = covers._GaugeScan.find_bad
    rewalked = []

    def recording(scan, skip_canonical, order=None):
        if order is None:
            rewalked.append(scan.g)
        combo = find_bad(scan, skip_canonical, order)
        if combo is not None:  # a real bad cover, in canonical edge order
            assert is_bad(scan.cover_at(combo))
            assert any(combo) or not skip_canonical
        return combo

    monkeypatch.setattr(covers._GaugeScan, "find_bad", recording)

    def dp(g):
        try:
            return dp_chromatic_number(g, SearchLimits(max_nodes=10**6))
        except BudgetExceeded as exc:
            return "undecided", exc.lower_bound

    def records():
        rewalked.clear()
        return [robust_criticality_verdict(g) for g in hosts] + [dp(g) for g in hosts[:-1]]

    own = records()
    assert rewalked.count(c13) == 0
    assert own[len(hosts) - 1].decision == "noncanonical_bad_cover_found"
    for order in (lambda kill: list(range(len(kill))), lambda kill: list(range(len(kill)))[::-1]):
        monkeypatch.setattr(covers, "_decision_order", order)
        assert records() == own
    assert rewalked.count(c13) == 1


def test_c13_1_5_has_a_noncanonical_bad_cover():
    # the circulant C13(1,5) is 4-critical with no dominating vertex, so its
    # verdict is the m = 3 scan alone; its bad cover is real and not canonical
    verdict = robust_criticality_verdict(parse_graph6("LhEIHEPQHGaPaP"))
    assert (verdict.decision, verdict.k, verdict.covers_scanned) == (
        "noncanonical_bad_cover_found", 4, 876_963,
    )
    assert brute_find_transversal(verdict.witness) is None
    assert oracle_canonical_labeling(verdict.witness) is None


def test_deep_scan_needs_no_recursion():
    # the 33 x 33 grid has 1024 non-tree edges, deeper than the default
    # recursion limit; at k = 2 a single twisted non-tree edge is bad
    from critickit.covers import _GaugeScan

    g = grid_graph(33)
    scan = _GaugeScan(g, (2,) * g.n, SearchLimits().start())
    assert scan.depth_total == 1024
    combo = scan.find_bad(False)
    assert combo == (0,) * 1023 + (1,)
    assert is_bad(scan.cover_at(combo))
    try:
        result = pdp_value(g, 2, SearchLimits(max_nodes=10**5))
    except BudgetExceeded as exc:
        assert exc.spent <= 10**5
    else:
        assert result.value == count_transversals(result.cover)


# ---------------------------------------------------------------------- pdp


def test_pdp_c5_3():
    result = pdp_value(cycle(5), 3)
    assert result.value == 30
    assert result.cover == make_canonical_cover(cycle(5), 3)


def test_pdp_k4_4():
    result = pdp_value(clique(4), 4)
    assert result.value == 24
    assert result.cover == make_canonical_cover(clique(4), 4)


def test_pdp_c4_2_is_zero():
    result = pdp_value(cycle(4), 2)
    assert result.value == 0
    assert is_bad(result.cover)


def test_pdp_matches_plain_enumeration():
    rng = random.Random(44)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 4), connected=True)
        for k in (1, 2, 3):
            result = pdp_value(g, k)
            naive = min(
                count_transversals(c) for c in enumerate_full_covers(g, k)
            )
            assert result.value == naive
            assert count_transversals(result.cover) == naive


# ----------------------------------------------------------- chain and order


CORPUS = [
    clique(1),
    clique(2),
    clique(3),
    clique(4),
    clique(5),
    cycle(4),
    cycle(5),
    cycle(7),
    complete_bipartite(2, 4),
    generate_ekab(4, 2, 2),
    generate_ekab(4, 1, 2),
    join(cycle(5), clique(1)),
    K3_PLUS_PENDANT,
]


def test_chi_chain_on_corpus():
    for g in CORPUS:
        chi = chromatic_number(g)
        chi_list = list_chromatic_number(g)
        chi_dp = dp_chromatic_number(g)
        assert chi <= chi_list <= chi_dp, (g, chi, chi_list, chi_dp)


def test_robust_implies_strong_on_corpus():
    limits = SearchLimits(max_nodes=2 * 10**8)
    for g in CORPUS:
        rv = robust_criticality_verdict(g, limits)
        if rv.decision == "robustly_critical":
            sv = strong_criticality_verdict(g, "critical", limits)
            assert sv.decision == "yes", g
