"""Acceptance suite.

One test per criterion; each prints a single pass line (run with ``-s`` to
see them).  Time limits are asserted with ``time.perf_counter`` around the
decisive calls; tolerances are exact unless stated otherwise.
"""

from __future__ import annotations

import json
import random
import time
from itertools import product

import pytest

from critickit import (
    ListAssignment,
    SearchLimits,
    build_graph,
    canonical_labeling,
    chromatic_number,
    chromatic_polynomial,
    classify_criticality,
    clique,
    complete_bipartite,
    count_proper_colorings,
    count_transversals,
    cover_from_assignment,
    cycle,
    dp_chromatic_number,
    encode_graph6,
    enumerate_full_covers,
    find_bad_nonconstant_assignment,
    find_transversal,
    generate_ekab,
    is_bad,
    is_constant_assignment,
    is_full,
    is_list_colorable,
    join,
    list_chromatic_number,
    make_canonical_cover,
    parse_graph6,
    pdp_value,
    relabel_cover,
    robust_criticality_verdict,
    strong_criticality_verdict,
)
from critickit.cli import run_command
from critickit.jsonio import (
    assignment_from_doc,
    assignment_to_doc,
    cover_from_doc,
    cover_to_doc,
    dumps,
)
from critickit.lemmas import (
    check_excess_lemma,
    check_full_extension_lemma,
    check_induction_lemma,
    check_pair_reduction,
)
from helpers import (
    brute_count_list_colorings,
    brute_count_colorings,
    brute_find_transversal,
    brute_is_list_colorable,
    edge_deleted,
    random_assignment,
    random_cover,
    random_graph,
    random_relabeling,
    vertex_deleted,
)

K3_PLUS_PENDANT = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
WHEEL = join(cycle(5), clique(1))

POSITIVE_GRAPHS = [
    ("C5", cycle(5), 3),
    ("C7", cycle(7), 3),
    ("K1", clique(1), 1),
    ("K2", clique(2), 2),
    ("K3", clique(3), 3),
    ("K4", clique(4), 4),
    ("K5", clique(5), 5),
    ("E_4_2_2", generate_ekab(4, 2, 2), 4),
    ("E_4_1_2", generate_ekab(4, 1, 2), 4),
    ("C5_join_K1", WHEEL, 4),
]

CORPUS = [g for _, g, _ in POSITIVE_GRAPHS] + [
    cycle(4),
    K3_PLUS_PENDANT,
    complete_bipartite(2, 4),
]

BIG_BUDGET = SearchLimits(max_nodes=2 * 10**8)  # K_5 decides 24**6 covers


def report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS — {detail}")


def test_criterion_1_robust_cycles_and_cliques():
    timings = []
    for name, graph, k in POSITIVE_GRAPHS[:7]:  # C5, C7, K1..K5
        start = time.perf_counter()
        verdict = robust_criticality_verdict(graph, BIG_BUDGET)
        elapsed = time.perf_counter() - start
        assert verdict.decision == "robustly_critical", name
        assert verdict.k == k, name
        assert elapsed < 5.0, (name, elapsed)
        timings.append(f"{name} {elapsed:.2f}s")
    report(1, "robustly critical: " + ", ".join(timings))


def test_criterion_2_robust_ekab_full_scans():
    timings = []
    for name, graph in [("E_4_2_2", generate_ekab(4, 2, 2)), ("E_4_1_2", generate_ekab(4, 1, 2))]:
        start = time.perf_counter()
        verdict = robust_criticality_verdict(graph)
        elapsed = time.perf_counter() - start
        assert verdict.decision == "robustly_critical" and verdict.k == 4, name
        assert verdict.covers_scanned == 6**5 == 7776, name
        assert elapsed < 60.0, (name, elapsed)
        timings.append(f"{name} {elapsed:.2f}s")
    report(2, "7776-cover scans: " + ", ".join(timings))


def test_criterion_3_robust_wheel():
    start = time.perf_counter()
    verdict = robust_criticality_verdict(WHEEL)
    elapsed = time.perf_counter() - start
    assert verdict.decision == "robustly_critical" and verdict.k == 4
    assert verdict.covers_scanned == 7776
    assert elapsed < 60.0
    report(3, f"C5 v K1 robustly 4-critical in {elapsed:.2f}s")


def test_criterion_4_strong_agreement_and_implication():
    for name, graph, k in POSITIVE_GRAPHS:
        verdict = strong_criticality_verdict(graph, "critical", BIG_BUDGET)
        assert verdict.decision == "yes" and verdict.k == k, name
    exceptions = []
    for graph in CORPUS:
        rv = robust_criticality_verdict(graph, BIG_BUDGET)
        if rv.decision == "robustly_critical":
            sv = strong_criticality_verdict(graph, "critical", BIG_BUDGET)
            if sv.decision != "yes":
                exceptions.append(encode_graph6(graph))
    assert exceptions == []
    report(4, f"strong==yes on all {len(POSITIVE_GRAPHS)} positives; "
              f"robust=>strong holds on {len(CORPUS)} corpus graphs")


def test_criterion_5_negative_controls():
    for name, graph in [("C4", cycle(4)), ("K3_plus_pendant", K3_PLUS_PENDANT)]:
        cv = classify_criticality(graph)
        assert not cv.is_critical, name
        witness = cv.witness
        if isinstance(witness, tuple):
            survived = edge_deleted(graph, *witness)
        else:
            survived = vertex_deleted(graph, witness)
        assert chromatic_number(survived) == cv.chromatic_number, name
        rv = robust_criticality_verdict(graph)
        sv = strong_criticality_verdict(graph)
        assert rv.decision == "not_critical" and sv.decision == "no", name
    bad = find_bad_nonconstant_assignment(complete_bipartite(2, 4), 2)
    assert bad is not None and not is_constant_assignment(bad)
    assert not is_list_colorable(complete_bipartite(2, 4), bad)
    assert not brute_is_list_colorable(complete_bipartite(2, 4), bad)
    report(5, "C4 and K3+pendant rejected with verifying witnesses; "
              "K_{2,4} bad non-constant 2-assignment replays uncolorable")


def test_criterion_6_dp_separation_and_chain():
    assert dp_chromatic_number(cycle(4)) == 3
    swap_covers = [c for c in enumerate_full_covers(cycle(4), 2) if is_bad(c)]
    assert len(swap_covers) == 1
    witness = swap_covers[0]
    assert is_full(witness)
    assert brute_find_transversal(witness) is None  # exhaustive re-verification
    assert canonical_labeling(witness) is None
    assert list_chromatic_number(cycle(4)) == 2
    for graph in CORPUS:
        chi = chromatic_number(graph)
        chi_list = list_chromatic_number(graph)
        chi_dp = dp_chromatic_number(graph)
        assert chi <= chi_list <= chi_dp, encode_graph6(graph)
    report(6, "chi_DP(C4)=3 via re-verified one-swap bad cover, chi_list(C4)=2, "
              f"chain holds on {len(CORPUS)} corpus graphs")


def test_criterion_7_counting():
    start = time.perf_counter()
    r5 = pdp_value(cycle(5), 3)
    r4 = pdp_value(clique(4), 4)
    elapsed = time.perf_counter() - start
    p5 = count_proper_colorings(cycle(5), 3)
    p4 = count_proper_colorings(clique(4), 4)
    assert r5.value == 30 == p5
    assert r4.value == 24 == p4
    assert r5.cover == make_canonical_cover(cycle(5), 3)
    assert r4.cover == make_canonical_cover(clique(4), 4)
    assert elapsed < 10.0
    report(7, f"P_DP(C5,3)=30 and P_DP(K4,4)=24, canonical minimizers, {elapsed:.2f}s")


def test_criterion_8_lemma_suites():
    budget = SearchLimits(max_nodes=2_000_000)  # 6**5 maximal covers fit it
    start = time.perf_counter()
    r = check_full_extension_lemma(cycle(5))
    assert r.outcome == "all_pass" and r.mode == "exhaustive" and r.checked >= 7**5
    r = check_full_extension_lemma(clique(3))
    assert r.outcome == "all_pass" and r.mode == "exhaustive" and r.checked >= 7**3
    t_full = time.perf_counter() - start
    assert t_full < 300.0

    start = time.perf_counter()
    profiles = [p for p in product((2, 3), repeat=5) if 3 in p]
    assert len(profiles) == 31
    for profile in profiles:
        r = check_excess_lemma(cycle(5), profile, budget)
        assert (r.outcome, r.mode) == ("all_pass", "exhaustive"), profile
    t_excess = time.perf_counter() - start
    assert t_excess < 300.0

    start = time.perf_counter()
    r = check_induction_lemma(WHEEL, [5])
    assert r.outcome == "all_pass"
    t_ind = time.perf_counter() - start
    assert t_ind < 300.0

    start = time.perf_counter()
    r = check_pair_reduction(generate_ekab(4, 2, 2), 0, 3)
    assert r.outcome == "all_pass" and r.checked == 7776
    t_pair = time.perf_counter() - start
    assert t_pair < 300.0
    report(8, f"full-extension {t_full:.1f}s; excess 31 profiles, all exhaustive, "
              f"{t_excess:.1f}s; induction {t_ind:.1f}s; pair {t_pair:.1f}s")


def test_criterion_9_bridges_and_invariants():
    rng = random.Random(0xACCE97)
    for _ in range(200):
        n = rng.randint(1, 5)
        g = random_graph(rng, n)
        assignment = random_assignment(rng, n, rng.randint(1, 3), pool=2 * n)
        cover = cover_from_assignment(g, assignment)
        assert is_list_colorable(g, assignment) == (find_transversal(cover) is not None)
        assert count_transversals(cover) == brute_count_list_colorings(g, assignment)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5))
        cover = random_cover(rng, g)
        relabeled = relabel_cover(cover, random_relabeling(rng, cover))
        assert count_transversals(relabeled) == count_transversals(cover)
        assert (find_transversal(relabeled) is None) == (find_transversal(cover) is None)
        assert (canonical_labeling(relabeled) is None) == (
            canonical_labeling(cover) is None
        )
        # edge-monotonicity: add one matched pair wherever possible
        for idx, (u, v, pairs) in enumerate(cover.matchings):
            free_src = sorted(set(range(cover.sizes[u])) - {i for i, _ in pairs})
            free_dst = sorted(set(range(cover.sizes[v])) - {j for _, j in pairs})
            if free_src and free_dst:
                from critickit import Cover

                entries = list(cover.matchings)
                entries[idx] = (u, v, tuple(sorted(pairs + ((free_src[0], free_dst[0]),))))
                bigger = Cover(cover.graph, cover.sizes, tuple(entries))
                assert count_transversals(bigger) <= count_transversals(cover)
                break
    polys = 0
    for g in CORPUS:
        if g.n > 7:
            continue
        poly = chromatic_polynomial(g)
        for k in range(5):
            assert poly(k) == brute_count_colorings(g, k)
        polys += 1
    report(9, f"200 assignment bridges, 200 cover invariants, "
              f"{polys} chromatic polynomials vs brute force")


def test_criterion_10_formats_and_exit_contract():
    for g in CORPUS:
        assert parse_graph6(encode_graph6(g)) == g
    rng = random.Random(0xF0F0)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 8), p=rng.random())
        assert parse_graph6(encode_graph6(g)) == g
    cover = cover_from_assignment(
        cycle(5), ListAssignment.of([{1, 2}, {2, 3}, {1, 3}, {3, 4}, {1, 4}])
    )
    text = dumps(cover_to_doc(cover))
    assert dumps(cover_to_doc(cover_from_doc(json.loads(text)))) == text
    assignment = random_assignment(rng, 5, 2, pool=6)
    text = dumps(assignment_to_doc(assignment))
    assert dumps(assignment_to_doc(assignment_from_doc(json.loads(text)))) == text
    expectations = [
        (["check", "robust", "--cycle", "5"], 0),
        (["check", "robust", "--cycle", "4"], 1),
        (["--node-budget", "50", "check", "robust", "--ekab", "4", "2", "2"], 2),
        (["gen", "--graph6", "#"], 64),
        (["chi", "dp", "--cycle", "4"], 0),
        (["check", "strong", "--complete-bipartite", "2", "4"], 1),
        (["lemma", "join", "--cycle", "5", "-t", "2"], 2),
        (["chi", "plain"], 64),
    ]
    for argv, expected in expectations:
        status, _ = run_command(argv)
        assert status == expected, argv
    report(10, "graph6 round-trips (corpus + 1000 random), bit-exact JSON, "
               f"{len(expectations)} CLI exit statuses")
