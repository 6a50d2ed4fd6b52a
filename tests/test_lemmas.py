from __future__ import annotations

import random
import time
from itertools import permutations, product
from math import factorial, prod
from types import SimpleNamespace

import pytest

from critickit import (
    SearchLimits,
    build_graph,
    check_excess_lemma,
    check_full_extension_lemma,
    check_induction_lemma,
    check_join_preserves,
    check_pair_reduction,
    chromatic_number,
    clique,
    cycle,
    generate_ekab,
    join,
)
from critickit import covers, lemmas
from critickit.covers import (
    ROBUSTLY_CRITICAL,
    _GaugeScan,
    cover_violation,
    find_transversal,
    is_full,
    maximal_injections,
    relabel_cover,
)
from critickit.errors import BudgetExceeded
from critickit.graphs import connected_components, spanning_forest
from critickit.jsonio import cover_from_doc
from critickit.lemmas import LemmaReport
from helpers import (
    _partial_injections,
    brute_find_transversal,
    oracle_canonical_labeling,
    oracle_induction_report,
    oracle_kill_masks,
    oracle_partial_cover_report,
    oracle_profile_bad_picks,
    oracle_tree_colorings,
    random_graph,
)

HUGE = 10**15


def test_partial_injection_counts():
    assert len(_partial_injections(2, 2)) == 7
    assert len(_partial_injections(3, 2)) == 13
    assert len(_partial_injections(3, 3)) == 34
    assert _partial_injections(2, 2)[0] == ()
    # a pass reports every partial cover checked, counted without listing one
    for fold in range(5):
        assert lemmas._partial_covers(clique(3), fold) == len(_partial_injections(fold, fold)) ** 3


# ------------------------------------------------------------------- excess


def test_excess_c5_oversized_profile():
    # decided over maximal covers: 6 injections 3 -> 2 or 2 -> 3, 2 of 2 -> 2
    report = check_excess_lemma(cycle(5), (3, 2, 2, 2, 2))
    assert report.outcome == "all_pass"
    assert report.mode == "exhaustive"
    assert report.checked == 6 * 2 * 2 * 2 * 6


def test_excess_c5_flat_profile():
    report = check_excess_lemma(cycle(5), (2, 2, 2, 2, 2))
    assert report.outcome == "all_pass"
    assert report.checked == 7**5


def test_excess_k3_flat_profile():
    report = check_excess_lemma(clique(3), (2, 2, 2))
    assert report.outcome == "all_pass"
    assert report.checked == 7**3


def test_excess_skips_non_robust_graph():
    report = check_excess_lemma(cycle(4), (1, 1, 1, 1))
    assert report.outcome == "skipped_precondition"


def test_excess_skips_undersized_profile():
    report = check_excess_lemma(cycle(5), (1, 2, 2, 2, 2))
    assert report.outcome == "skipped_precondition"


def test_excess_c5_at_fold_3_is_exhaustive_or_truncated(monkeypatch):
    # every forest edge is fixed to the identity: 48 index tuples avoid its
    # pairs, times 6 options on the one other edge make a 288-bit kill
    # table; each of the 6 gauge-fixed covers stands for 6**4 maximal ones
    report = check_excess_lemma(cycle(5), (3, 3, 3, 3, 3), SearchLimits(max_nodes=20_000))
    assert report == LemmaReport("excess", "Dhc", 7776, "all_pass", "exhaustive")
    # a budget of exactly the table's size fits it but not the covers: the
    # table is built, and the walk trips on the root's one charge of all
    # 7776 covers (the precondition's scan of C5 at fold 2 builds its own)
    built = []
    build = covers._kill_masks

    def recording_build(blocks, sizes, *args):
        if sizes == (3,) * 5:
            built.append(1)
        return build(blocks, sizes, *args)

    monkeypatch.setattr(covers, "_kill_masks", recording_build)
    report = check_excess_lemma(cycle(5), (3, 3, 3, 3, 3), SearchLimits(max_nodes=288))
    assert (report.outcome, report.mode, report.checked) == ("truncated", "exhaustive", 0)
    assert built == [1]


def test_excess_stops_before_a_kill_table_over_budget(monkeypatch):
    # the 288-bit table exceeds 287: neither it nor any option is built,
    # while the precondition's scan of C5 at fold 2 builds its own
    def unreachable(*args):
        raise AssertionError("built over budget")

    build, tables = covers._kill_masks, covers._leader_tables
    monkeypatch.setattr(
        covers, "_kill_masks",
        lambda blocks, sizes, *args: unreachable() if sizes == (3,) * 5 else build(blocks, sizes, *args),
    )
    monkeypatch.setattr(
        covers, "_leader_tables", lambda k, spend=None: unreachable() if k == 3 else tables(k, spend)
    )
    monkeypatch.setattr(covers, "maximal_injections", unreachable)
    report = check_excess_lemma(cycle(5), (3, 3, 3, 3, 3), SearchLimits(max_nodes=287))
    assert report == LemmaReport(
        "excess", "Dhc", 0, "truncated", "exhaustive",
        detail="budget exhausted during the cover scan",
    )


def test_excess_counterexample_is_a_bad_maximal_cover(monkeypatch):
    # the precondition is faked so that an oversized profile has bad covers:
    # K4 with lists of sizes 2, 2, 2, 3 is not always colorable
    fake = SimpleNamespace(decision=ROBUSTLY_CRITICAL, k=3)
    monkeypatch.setattr(lemmas, "robust_criticality_verdict", lambda g, limits: fake)
    report = check_excess_lemma(clique(4), (2, 2, 2, 3))
    assert report.outcome == "counterexample" and report.mode == "exhaustive"
    cover = cover_from_doc(report.counterexample["cover"])
    assert find_transversal(cover) is None
    sizes = cover.sizes
    assert all(len(pairs) == min(sizes[u], sizes[v]) for u, v, pairs in cover.matchings)


def test_excess_keeps_the_time_budget():
    # C7+K1 with the hub's list one longer has 1.28e15 maximal covers and
    # over 10**9 gauge-fixed ones, which take the walk seconds: at a node
    # budget above the total only the deadline can stop it early
    start = time.monotonic()
    report = check_excess_lemma(
        join(cycle(7), clique(1)), (3,) * 7 + (4,),
        SearchLimits(max_nodes=10 * HUGE, max_millis=100),
    )
    assert report.outcome == "truncated"
    assert time.monotonic() - start < 5.0


def test_time_cap_tripping_in_the_kill_table_build_truncates(monkeypatch):
    # the 5 * 4**8 index tuples of C9 at (5, ..., 5) that avoid its forest's
    # pairs, over a faked fold of 2, and the 26,244 colorings of E(5,2,3)'s
    # spanning forest at fold 4 take far longer than 1 ms to read into a
    # kill table, whose deadline check must end in a truncated report, not
    # an exception out of the lemma check
    tripped = []
    build = covers._kill_masks

    def recording_build(blocks, sizes, *args):
        try:
            return build(blocks, sizes, *args)
        except BudgetExceeded:
            tripped.append(sizes)
            raise

    monkeypatch.setattr(covers, "_kill_masks", recording_build)
    monkeypatch.setattr(
        lemmas, "robust_criticality_verdict",
        lambda g, limits: SimpleNamespace(decision=ROBUSTLY_CRITICAL, k=3),
    )
    monkeypatch.setattr(
        lemmas, "classify_criticality",
        lambda g: SimpleNamespace(is_critical=True, chromatic_number=5),
    )
    limits = SearchLimits(max_nodes=10**9, max_millis=1)
    for check, sizes in (
        (lambda: check_excess_lemma(cycle(9), (5,) * 9, limits), (5,) * 9),
        (lambda: check_full_extension_lemma(generate_ekab(5, 2, 3), limits), (4,) * 9),
    ):
        tripped.clear()
        report = check()
        assert (report.outcome, report.checked) == ("truncated", 0)
        assert tripped == [sizes]


NON_ROBUST_HOSTS = [
    cycle(4),
    build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),  # K4 minus an edge
    build_graph(4, [(0, 1), (1, 2), (1, 3)]),  # a tree
    build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # a path
]


def test_profile_scan_matches_per_cover_oracle():
    # every maximal cover relabels to exactly one gauge-fixed cover, each
    # standing for ``unit`` of them, and relabeling keeps badness: so the
    # walk finds unit times fewer bad covers than the walk over every
    # maximal cover, each a bad maximal cover, and a walk with none charges
    # exactly every maximal cover; a walk that trips on the node budget has
    # charged no more than the budget.  Uniform profiles, every list one
    # longer than a (k-1)-fold cover's, are given leader tables by the scan,
    # which the walk over maximal covers must not use
    rng = random.Random(6)
    paths = set()

    def bad_maximal(g, sizes, max_nodes):
        budget = SearchLimits(max_nodes=max_nodes).start()
        return list(lemmas._bad_maximal(_GaugeScan(g, sizes, budget, cap=max_nodes)))

    for max_nodes in (40, 300, HUGE):
        hosts = NON_ROBUST_HOSTS + [
            random_graph(rng, rng.randint(1, 5), connected=True) for _ in range(16)
        ]
        profiles = [(g, tuple(rng.choice((1, 2, 3)) for _ in range(g.n))) for g in hosts]
        profiles += [(g, (chromatic_number(g),) * g.n) for g in hosts]
        for g, sizes in profiles:
            profile = _GaugeScan(g, sizes, SearchLimits().start(), cap=HUGE)
            if profile.total > 20_000:
                continue  # too many covers for the oracle
            total, want = oracle_profile_bad_picks(g, sizes, HUGE, None, True)
            case = (g.edges(), sizes, max_nodes)
            assert profile.total == total, case
            bits = profile.full_mask.bit_length() * max(sum(map(len, profile.kill)), 1)
            try:
                got = bad_maximal(g, sizes, max_nodes)
            except BudgetExceeded as exc:
                assert exc.spent <= max_nodes, case
                paths.add("table" if bits > max_nodes else "walk")
                continue
            assert len(want) == profile.unit * len(got), case
            charged = 0
            for checked, cover in got:
                assert charged < checked <= total, case
                charged = checked
                assert cover_violation(cover) is None, case
                assert brute_find_transversal(cover) is None, case
                assert all(
                    len(pairs) == min(sizes[u], sizes[v]) for u, v, pairs in cover.matchings
                ), case
            if not got and total > 1:
                with pytest.raises(BudgetExceeded):
                    bad_maximal(g, sizes, total - 1)
            paths.add(bool(got))
    # exhaustive walks with and without a bad cover, and truncations before
    # the kill table and in the walk
    assert paths == {True, False, "table", "walk"}
    # no uniform profile within the oracle's reach has a bad cover at k >= 3
    # but the canonical one, its own conjugation orbit, so a walk on leaders
    # alone would pass the loop above.  K4 with a vertex joined to two of its
    # vertices has 6 bad gauge-fixed covers at (3, ..., 3), 3 of them
    # leaders: the walk gives all 6 in product order, as a per-cover search
    # over the scan's options does
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    scan = _GaugeScan(g, (3,) * 5, SearchLimits().start(), cap=HUGE)
    want = [
        scan.cover_at(combo)
        for combo in product(*(range(len(options)) for options in scan.options))
        if brute_find_transversal(scan.cover_at(combo)) is None
    ]
    assert len(want) == 6 and scan._leader_step is not None
    assert [cover for _, cover in bad_maximal(g, (3,) * 5, HUGE)] == want


def test_maximal_injections_are_the_maximal_partial_ones():
    for a in range(5):
        for b in range(5):
            assert maximal_injections(a, b) == tuple(
                p for p in _partial_injections(a, b) if len(p) == min(a, b)
            ), (a, b)


def _near_full(cover, fold) -> bool:
    """One edge matches fold - 1 pairs, every other edge fold."""
    short = [len(pairs) for _, _, pairs in cover.matchings if len(pairs) != fold]
    return short == [fold - 1]


def test_partial_cover_checks_match_per_cover_reference(monkeypatch):
    # the preconditions are faked, so that hosts with bad non-full covers are
    # checked as well as hosts whose bad covers are all full; both checks
    # must reach the outcome of a walk over every partial cover, count every
    # partial cover on a pass, and give a counterexample that re-verifies
    rng = random.Random(19)
    seen = set()
    # a triangle with a pendant edge, first or last in edge order: at fold 2
    # only the pendant edge one pair short makes a near-full cover bad
    pendants = [
        build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
        build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ]
    hosts = [clique(1), clique(2)] + NON_ROBUST_HOSTS + pendants + [
        random_graph(rng, rng.randint(1, 6), p=rng.uniform(0.2, 0.8)) for _ in range(60)
    ]
    limits = SearchLimits(max_nodes=10**9)
    for g in hosts:
        for fold in (1, 2, 3):
            if len(_partial_injections(fold, fold)) ** g.m > 3000:
                continue
            monkeypatch.setattr(
                lemmas, "robust_criticality_verdict",
                lambda h, limits: SimpleNamespace(decision=ROBUSTLY_CRITICAL, k=fold + 1),
            )
            monkeypatch.setattr(
                lemmas, "classify_criticality",
                lambda h: SimpleNamespace(is_critical=True, chromatic_number=fold + 1),
            )
            for lemma, check in (
                ("excess", lambda: check_excess_lemma(g, (fold,) * g.n, limits)),
                ("full-extension", lambda: check_full_extension_lemma(g, limits)),
            ):
                want = oracle_partial_cover_report(lemma, g, fold, limits.max_nodes)
                got = check()
                case = (lemma, g.edges(), fold)
                assert got.outcome == want.outcome, case
                if got.outcome == "all_pass":
                    assert got == want, case
                    seen.add((lemma, "all_pass"))
                    continue
                cover = cover_from_doc(got.counterexample["cover"])
                assert brute_find_transversal(cover) is None, case
                if lemma == "excess":
                    assert oracle_canonical_labeling(cover) is None, case
                    seen.add((lemma, "counterexample", is_full(cover)))
                    continue
                extension = cover_from_doc(got.counterexample["canonical_extension"])
                assert not is_full(cover) and is_full(extension), case
                assert oracle_canonical_labeling(extension) is not None, case
                assert all(
                    set(pairs) <= set(whole)
                    for (_, _, pairs), (_, _, whole) in zip(cover.matchings, extension.matchings)
                ), case
                seen.add((lemma, "counterexample", False))
    # excess counterexamples from a bad near-full cover and from the scan
    # of the full covers
    assert seen == {
        ("excess", "all_pass"),
        ("excess", "counterexample", False),
        ("excess", "counterexample", True),
        ("full-extension", "all_pass"),
        ("full-extension", "counterexample", False),
    }


def test_near_full_scan_matches_per_cover_oracle():
    # the per-edge scans find a bad near-full cover exactly where the walk
    # over every partial cover does, on connected and disconnected hosts,
    # and every cover they give is a bad near-full cover
    rng = random.Random(21)
    hosts = NON_ROBUST_HOSTS + [
        random_graph(rng, rng.randint(1, 6), p=rng.uniform(0.2, 0.8)) for _ in range(80)
    ]
    outcomes = set()
    for g in hosts:
        for fold in (1, 2, 3):
            options = _partial_injections(fold, fold)
            if len(options) ** g.m > 3000:
                continue
            _, bad = oracle_profile_bad_picks(g, (fold,) * g.n, HUGE, None)
            want = any(
                sorted(len(options[p]) for p in picks) == [fold - 1] + [fold] * (g.m - 1)
                for _, picks in bad
            )
            got = list(lemmas._bad_near_full(g, fold, SearchLimits(max_nodes=HUGE).start()))
            case = (g.edges(), fold)
            assert bool(got) == want, case
            for cover in got:
                assert _near_full(cover, fold) and brute_find_transversal(cover) is None, case
            outcomes.add((want, len(connected_components(g)) > 1))
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}


def test_profile_kill_table_matches_pair_construction():
    # a forest edge into a list at least as long as its parent's is fixed to
    # the identity, and bit i stands for the i-th index tuple that avoids
    # the fixed pairs in digit order (helpers.oracle_tree_colorings); every
    # other edge is walked, a forest edge into a shorter list over its
    # order-preserving matchings, and an option kills the tuples whose
    # endpoint indices form one of its pairs
    from itertools import combinations

    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 5), connected=True)
        sizes = tuple(rng.randint(1, 4) for _ in range(g.n))
        scan = _GaugeScan(g, sizes, SearchLimits().start(), cap=HUGE)
        case = (g.edges(), sizes)
        forest = spanning_forest(g)
        assert scan.tree == [(p, c) for p, c in forest if sizes[p] <= sizes[c]], case
        loose = {tuple(sorted(e)): e for e in forest if sizes[e[0]] > sizes[e[1]]}
        assert sorted(scan.nontree + [tuple(sorted(e)) for e in scan.tree]) == g.edges()
        for (u, v), options in zip(scan.nontree, scan.options):
            if (u, v) not in loose:
                assert tuple(options) == maximal_injections(sizes[u], sizes[v]), case
                continue
            p, c = loose[(u, v)]
            normal = [tuple(zip(s, range(sizes[c]))) for s in combinations(range(sizes[p]), sizes[c])]
            assert tuple(options) == tuple(
                pairs if p == u else tuple((j, i) for i, j in pairs) for pairs in normal
            ), case
        rows = oracle_tree_colorings(sizes, scan.tree)
        assert scan.full_mask == (1 << len(rows)) - 1, case
        assert scan.kill == oracle_kill_masks(rows, scan.nontree, scan.options), case
        # the table's size is counted before it is built: it fits a cap of
        # its own bits, and one less stops the scan
        bits = len(rows) * max(sum(map(len, scan.kill)), 1)
        assert _GaugeScan(g, sizes, SearchLimits().start(), cap=bits).kill == scan.kill, case
        with pytest.raises(BudgetExceeded):
            _GaugeScan(g, sizes, SearchLimits().start(), cap=bits - 1)


def test_bad_cover_exists_iff_bad_maximal_cover_exists():
    # completing a cover only removes transversals, the fact that lets the
    # excess check decide oversized profiles over maximal covers alone
    rng = random.Random(11)
    hosts = NON_ROBUST_HOSTS + [
        random_graph(rng, rng.randint(1, 5), connected=True) for _ in range(40)
    ]
    outcomes = set()
    for g in hosts:
        for _ in range(3):
            sizes = tuple(rng.choice((1, 2, 3)) for _ in range(g.n))
            if prod(len(_partial_injections(sizes[u], sizes[v])) for u, v in g.edges()) > 20_000:
                continue  # too many covers for the oracle
            exists = {
                maximal: bool(oracle_profile_bad_picks(g, sizes, HUGE, 1, maximal)[1])
                for maximal in (False, True)
            }
            assert exists[False] == exists[True], (g.edges(), sizes)
            outcomes.add(exists[False])
    assert outcomes == {False, True}


# ----------------------------------------------------------- full extension


def test_full_extension_c5():
    report = check_full_extension_lemma(cycle(5))
    assert report.outcome == "all_pass"
    assert report.checked == 7**5


def test_full_extension_k3():
    report = check_full_extension_lemma(clique(3))
    assert report.outcome == "all_pass"
    assert report.checked == 7**3


def test_full_extension_skips_non_critical():
    report = check_full_extension_lemma(cycle(4))
    assert report.outcome == "skipped_precondition"


# --------------------------------------------------------------------- pair


def test_pair_e422():
    # X1 vertex 0 and Y1 vertex 3 share only the apex; the reduced graph is
    # the 5-cycle in disguise
    report = check_pair_reduction(generate_ekab(4, 2, 2), 0, 3)
    assert report.outcome == "all_pass"
    assert report.checked == 6**5


def test_pair_classifies_each_graph_once(monkeypatch):
    # the precondition's classification of the graph gives its own scan the
    # chromatic number, so only the graph and the reduced graph are classified
    from critickit import coloring, covers

    sizes = []

    def counting(g, *levels):
        sizes.append(g.n)
        return coloring.classify_criticality(g, *levels)

    monkeypatch.setattr(lemmas, "classify_criticality", counting)
    monkeypatch.setattr(covers, "classify_criticality", counting)
    report = check_pair_reduction(generate_ekab(4, 2, 2), 0, 3)
    assert report.outcome == "all_pass"
    assert sizes == [7, 5]


def test_pair_scans_the_graph_itself(monkeypatch):
    # the check must not decide g by the pair rule, the lemma it checks:
    # C5 is decided by theorem, and g by its own 7-vertex scan
    from critickit import covers

    hosts = []

    class Recording(covers._GaugeScan):
        def __init__(self, g, *args, **kwargs):
            hosts.append(g.n)
            super().__init__(g, *args, **kwargs)

    monkeypatch.setattr(covers, "_GaugeScan", Recording)
    report = check_pair_reduction(generate_ekab(4, 2, 2), 0, 3)
    assert (report.outcome, report.checked) == ("all_pass", 6**5)
    assert hosts == [7]


def test_pair_c5_antipodal_skips():
    report = check_pair_reduction(cycle(5), 0, 2)
    assert report.outcome == "skipped_precondition"


def test_pair_adjacent_skips():
    report = check_pair_reduction(cycle(5), 0, 1)
    assert report.outcome == "skipped_precondition"
    assert "adjacent" in report.detail


def test_pair_two_common_neighbors_skips():
    report = check_pair_reduction(cycle(4), 0, 2)
    assert report.outcome == "skipped_precondition"
    assert "common neighbors" in report.detail


# ---------------------------------------------------------------- induction


def test_induction_wheel_apex():
    report = check_induction_lemma(join(cycle(5), clique(1)), [5])
    assert report.outcome == "all_pass"
    assert report.checked == 7782  # 6**5 covers plus the labelings of the bad ones


def test_induction_c5_single_vertex_skips():
    report = check_induction_lemma(cycle(5), [0])
    assert report.outcome == "skipped_precondition"


def test_induction_dependent_set_skips():
    report = check_induction_lemma(cycle(5), [0, 1])
    assert report.outcome == "skipped_precondition"
    assert "independent" in report.detail


def _random_independent_set(rng, g):
    """A random independent set that leaves at least one vertex."""
    members = []
    for v in rng.sample(range(g.n), g.n - 1):
        if rng.random() < 0.5 and not any(g.has_edge(u, v) for u in members):
            members.append(v)
    return sorted(members)


def _conjugation_leader(cover) -> bool:
    """No relabeling of every vertex by one sigma, which keeps the tree at
    the identity and conjugates every other matching, gives a cover whose
    matchings come first in canonical edge order."""
    return all(
        relabel_cover(cover, [sigma] * cover.graph.n).matchings >= cover.matchings
        for sigma in permutations(range(cover.fold))
    )


def test_induction_matches_per_cover_reference(monkeypatch):
    # the precondition is faked, so that hosts with bad non-canonical covers
    # are checked as well as hosts whose bad covers are all canonical; the
    # labelings are looked for on the reference's bad covers that are the
    # lex-leaders of their conjugation orbits, in the reference's order,
    # and the reports are the reference's
    rng = random.Random(12)
    outcomes, truncations = set(), 0
    looked_at = []
    constraints = lemmas._labeling_constraints

    def recording_constraints(cover, members, fold):
        looked_at.append(cover)
        return constraints(cover, members, fold)

    monkeypatch.setattr(lemmas, "_labeling_constraints", recording_constraints)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), p=rng.uniform(0.3, 1), connected=True)
        fold = rng.randint(2, 3)
        if factorial(fold) ** (g.m - g.n + 1) > 20_000:
            continue
        members = _random_independent_set(rng, g)
        fake = SimpleNamespace(decision=ROBUSTLY_CRITICAL, k=fold)
        monkeypatch.setattr(lemmas, "robust_criticality_verdict", lambda h, limits: fake)
        case = (g.edges(), fold, members)
        unlimited = SearchLimits(max_nodes=10**9)
        looked_at.clear()
        report = oracle_induction_report(g, members, fold, unlimited)
        want_covers = [cover for cover in looked_at if _conjugation_leader(cover)]
        looked_at.clear()
        assert check_induction_lemma(g, members, unlimited) == report, case
        assert looked_at == want_covers, case
        outcomes.add(report.outcome)
        for max_nodes in (1, 5, 40, 300):
            limits = SearchLimits(max_nodes=max_nodes)
            want = oracle_induction_report(g, members, fold, limits)
            got = check_induction_lemma(g, members, limits)
            if want.outcome != "truncated":
                assert got == want, case
                continue
            # subtrees without a bad cover are charged in bulk, so the walk
            # may trip sooner: the reference's checked is max_nodes plus the
            # labelings it counted
            truncations += 1
            assert got.outcome == "truncated", case
            assert got.checked <= want.checked, case
    assert outcomes == {"all_pass", "counterexample"}
    assert truncations


# --------------------------------------------------------------------- join


def test_join_c5_t1():
    report = check_join_preserves(cycle(5), 1)
    assert report.outcome == "all_pass"
    assert report.checked == 6**5


def test_join_k2_t1():
    report = check_join_preserves(clique(2), 1)
    assert report.outcome == "all_pass"


def test_join_c5_t2_truncates():
    report = check_join_preserves(cycle(5), 2)
    assert report.outcome == "truncated"


def test_join_skips_non_robust_base():
    report = check_join_preserves(cycle(4), 1)
    assert report.outcome == "skipped_precondition"


# ------------------------------------------------------------------ reports


def test_report_document_shape():
    report = check_full_extension_lemma(clique(3))
    doc = report.to_doc()
    assert doc["schema"] == "critickit/lemma-report/1"
    assert doc["outcome"] == "all_pass"
    assert doc["counterexample"] is None
    assert doc["lemma"] == "full-extension"


def test_reports_are_deterministic():
    a = check_full_extension_lemma(cycle(5))
    b = check_full_extension_lemma(cycle(5))
    assert a == b
