from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import critickit
from critickit import (
    AssignmentError,
    clique,
    CoverError,
    cover_from_assignment,
    cycle,
    find_transversal,
    join,
    ListAssignment,
    make_canonical_cover,
)
from critickit.cli import run_command
from critickit.jsonio import (
    assignment_from_doc,
    assignment_to_doc,
    cover_from_doc,
    cover_to_doc,
    dumps,
)


def run(*argv):
    return run_command(list(argv))


# ------------------------------------------------------------- exit statuses


def test_check_robust_c5_yes():
    status, out = run("check", "robust", "--cycle", "5")
    assert status == 0
    assert "robustly_critical" in out and "k=3" in out


def test_check_robust_c4_no_with_witness():
    status, out = run("check", "robust", "--cycle", "4")
    assert status == 1
    assert "not_critical" in out and "witness" in out


def test_check_robust_budget_unknown():
    status, out = run(
        "--node-budget", "50", "check", "robust", "--ekab", "4", "2", "2"
    )
    assert status == 2
    assert "unknown" in out


def test_usage_error_no_source():
    status, out = run("chi", "plain")
    assert status == 64


def test_usage_error_bad_graph6():
    status, out = run("gen", "--graph6", "#")
    assert status == 64
    assert "byte 0" in out


def test_usage_error_unknown_command():
    status, _ = run("frobnicate")
    assert status == 64


# ------------------------------------------------------------------ commands


def test_gen_graph6_and_edgelist():
    status, out = run("gen", "--cycle", "5")
    assert status == 0 and out.strip() == "Dhc"
    status, out = run("gen", "--cycle", "5", "--edgelist")
    assert out.splitlines()[0] == "5 5"


def test_gen_join_sources():
    status, out = run("gen", "--cycle", "5", "--clique", "1", "--join")
    assert status == 0
    status2, out2 = run("chi", "plain", "--graph6", out.strip())
    assert out2.strip() == "4"


def test_multiple_sources_require_join_flag():
    status, _ = run("gen", "--cycle", "5", "--clique", "1")
    assert status == 64


def test_chi_variants():
    assert run("chi", "plain", "--cycle", "4") == (0, "2\n")
    assert run("chi", "list", "--cycle", "4") == (0, "2\n")
    assert run("chi", "dp", "--cycle", "4") == (0, "3\n")


def test_chi_plain_ekab():
    assert run("chi", "plain", "--ekab", "6", "2", "3") == (0, "6\n")


def test_check_strong_modes():
    status, _ = run("check", "strong", "--cycle", "5")
    assert status == 0
    status, _ = run("check", "strong-cc", "--cycle", "5")
    assert status == 0
    status, out = run("check", "strong", "--complete-bipartite", "2", "4")
    assert status == 1


def test_check_critical_variants():
    assert run("check", "critical", "--clique", "4")[0] == 0
    assert run("check", "vertex-critical", "--clique", "4")[0] == 0
    assert run("check", "critical", "--cycle", "4")[0] == 1


def test_count_commands():
    assert run("count", "colorings", "--cycle", "5", "-k", "3") == (0, "30\n")
    assert run("count", "transversals", "--cycle", "5", "-k", "3") == (0, "30\n")
    assert run("count", "pdp", "--clique", "4", "-k", "4") == (0, "24\n")
    status, out = run("count", "chromatic-poly", "--cycle", "5")
    assert out == "0 4 -10 10 -5 1\n"


def test_count_requires_k():
    status, _ = run("count", "colorings", "--cycle", "5")
    assert status == 64


def test_lemma_commands():
    status, out = run("lemma", "full-extension", "--clique", "3")
    assert status == 0 and "all_pass" in out
    status, out = run("lemma", "pair", "--ekab", "4", "2", "2", "-x", "0", "-y", "3")
    assert status == 0
    status, out = run("lemma", "excess", "--cycle", "5", "--sizes", "3,2,2,2,2")
    assert status == 0
    status, out = run(
        "lemma", "induction", "--cycle", "5", "--clique", "1", "--join",
        "--independent-set", "5",
    )
    assert status == 0
    status, out = run("lemma", "join", "--cycle", "5", "-t", "2")
    assert status == 2 and "truncated" in out


def test_edgelist_input(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    status, out = run("chi", "plain", "--edges", str(path))
    assert (status, out) == (0, "3\n")


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CRITICKIT_BUDGET", "50")
    status, _ = run("check", "robust", "--ekab", "4", "2", "2")
    assert status == 2
    monkeypatch.setenv("CRITICKIT_BUDGET", "10000000")
    status, _ = run("check", "robust", "--ekab", "4", "2", "2")
    assert status == 0


def test_node_budget_holds_for_the_whole_scan():
    status, out = run("--json", "--node-budget", "100", "check", "robust", "--ekab", "4", "2", "2")
    assert status == 2
    doc = json.loads(out)
    assert doc["decision"] == "unknown" and doc["covers_scanned"] <= 100


@pytest.mark.parametrize("flags", [["--workers", "2"], ["--deterministic"]])
def test_removed_flags_are_usage_errors(flags):
    status, out = run("--json", *flags, "check", "robust", "--cycle", "5")
    assert status == 64
    assert json.loads(out)["schema"] == "critickit/error/1"


# ---------------------------------------------------------------- JSON mode


def test_json_single_document():
    status, out = run("--json", "check", "robust", "--cycle", "5")
    assert status == 0
    doc = json.loads(out)
    assert doc["decision"] == "robustly_critical"
    assert doc["k"] == 3 and doc["covers_scanned"] == 2
    assert out.count("\n") == 1


@pytest.mark.parametrize(
    "argv,statuses",
    [(["count", "pdp", "-k", "2"], (0, 2)), (["chi", "dp"], (0,))],
    ids=["count pdp", "chi dp"],
)
def test_json_pdp_on_a_deep_grid(tmp_path, argv, statuses):
    # 1024 non-tree edges: the scan must not hit the recursion limit
    from critickit import format_edgelist
    from helpers import grid_graph

    path = tmp_path / "grid.txt"
    path.write_text(format_edgelist(grid_graph(33)))
    status, out = run("--json", *argv, "--edges", str(path))
    assert status in statuses
    doc = json.loads(out)
    assert out.count("\n") == 1
    if argv[0] == "chi":
        assert doc["schema"] == "critickit/chi/1" and doc["value"] == 3
    else:
        assert doc["schema"] == "critickit/count/1"


def test_exit_status_table_covers_every_decision():
    from critickit import covers, lemmas, listcoloring
    from critickit.cli import EXIT_STATUS

    assert EXIT_STATUS == {
        covers.ROBUSTLY_CRITICAL: 0,
        covers.NOT_CRITICAL: 1,
        covers.NONCANONICAL_BAD_COVER_FOUND: 1,
        covers.UNKNOWN: 2,
        listcoloring.YES: 0,
        listcoloring.NO: 1,
        listcoloring.UNKNOWN: 2,
        lemmas.ALL_PASS: 0,
        lemmas.COUNTEREXAMPLE: 1,
        lemmas.TRUNCATED: 2,
        lemmas.SKIPPED_PRECONDITION: 2,
    }


def test_json_witness_replays():
    status, out = run("--json", "check", "robust", "--cycle", "4")
    assert status == 1
    doc = json.loads(out)
    assert doc["witness"]["kind"] == "edge"


def test_json_vertex_witness():
    # K2 plus an isolated vertex: every edge deletion lowers chi, deleting
    # vertex 2 does not
    status, out = run("--json", "check", "critical", "--graph6", "B_")
    assert status == 1
    assert json.loads(out)["witness"] == {"kind": "vertex", "vertex": 2}


def test_json_lemma_report():
    status, out = run("--json", "lemma", "full-extension", "--clique", "3")
    doc = json.loads(out)
    assert doc["schema"] == "critickit/lemma-report/1"
    assert doc["outcome"] == "all_pass"


def test_json_usage_error_is_json():
    status, out = run("--json", "gen", "--graph6", "#")
    assert status == 64
    assert json.loads(out)["schema"] == "critickit/error/1"


def test_deterministic_runs_byte_identical():
    first = run("--json", "check", "robust", "--ekab", "4", "2", "2")
    second = run("--json", "check", "robust", "--ekab", "4", "2", "2")
    assert first == second


def test_count_transversals_from_cover_file(tmp_path):
    cover = make_canonical_cover(cycle(5), 3)
    path = tmp_path / "cover.json"
    path.write_text(dumps(cover_to_doc(cover)))
    status, out = run("count", "transversals", "--cover", str(path))
    assert (status, out) == (0, "30\n")


def _bad_cover_texts():
    out_of_range = cover_to_doc(make_canonical_cover(cycle(5), 2))
    out_of_range["matchings"].append({"u": 0, "v": 8, "pairs": [[0, 0]]})
    return {
        "missing": None,
        "malformed": '{"schema": "critickit/cover/1", "graph6": "Dhc"',
        "not_a_cover": "[1, 2]",
        "edge_out_of_range": dumps(out_of_range),
    }


@pytest.mark.parametrize("name", sorted(_bad_cover_texts()))
def test_count_transversals_bad_cover_file(tmp_path, name):
    text = _bad_cover_texts()[name]
    path = tmp_path / "cover.json"
    if text is not None:
        path.write_text(text)
    status, out = run("--json", "count", "transversals", "--cover", str(path))
    assert status == 64 and out.count("\n") == 1
    assert json.loads(out)["schema"] == "critickit/error/1"
    status, out = run("count", "transversals", "--cover", str(path))
    assert status == 64 and out.startswith("error: ")


def test_lists_longer_than_a_byte_are_refused():
    # list indices are bytes in the scans' tables: 256 colors fit, and 257
    # is a documented error with one document, not a traceback
    status, out = run("--json", "count", "pdp", "-k", "17", "--clique", "2")
    assert (status, json.loads(out)["value"]) == (0, 17 * 16)
    status, out = run("--json", "count", "pdp", "-k", "257", "--clique", "2")
    assert status == 64 and out.count("\n") == 1
    assert json.loads(out)["schema"] == "critickit/error/1"


def test_json_flag_read_from_parsed_args(tmp_path):
    # argparse accepts the unambiguous prefix --js for --json
    missing = str(tmp_path / "missing.json")
    status, out = run("--js", "count", "transversals", "--cover", missing)
    assert status == 64
    assert json.loads(out)["schema"] == "critickit/error/1"


def test_chi_list_unknown_reports_lower_bound():
    status, out = run(
        "--json", "--node-budget", "5", "chi", "list", "--complete-bipartite", "2", "4"
    )
    assert status == 2
    doc = json.loads(out)
    assert doc["status"] == "unknown" and doc["lower_bound"] == 2


def test_json_pdp_stops_at_a_cover_without_transversals():
    # K7's canonical 4-fold cover has none, and nothing can beat 0
    status, out = run("--json", "count", "pdp", "-k", "4", "--clique", "7")
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == 0
    assert find_transversal(cover_from_doc(doc["cover"])) is None


# Every command that takes --time-budget-ms, each on an input that takes over
# 2 s without it; where the default node budget would stop it sooner, a
# larger one is given, so that only the deadline can.
HUGE = ["--node-budget", str(10**15)]
# C5+K3 has about 1.8e33 gauge-fixed covers at fold 5; its join lemma scans
# them, which only the deadline stops
BEYOND_C5_K3 = ["--node-budget", str(10**40)]
GRID_6X6 = (
    "chCKAC`CGO_`?_?O_CG?`?AC?CG?C??AC??`??CG??O_??`???_???O_??CG???`"
    "???AC???CG???C????AC????`????CG????O_????`"
)
GRID_5X5 = "XhEAHCPAGG?P?P?G_AG?O?@C?AG?AG?@C??O??AG??G_??P???P"
PATH_THEN_K4 = "YhCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???B???B_"
TIME_CAPPED = {
    # the Groetzsch graph has no dominating vertex: its scan takes seconds
    "check robust": HUGE + ["check", "robust", "--graph6", "JhdLA_gc?N_"],
    "check strong": ["check", "strong", "--graph6", "JhdLA_gc?N_"],  # Groetzsch
    "chi list": ["chi", "list", "--complete-bipartite", "5", "5"],
    # the 6x6 grid: the block walk's root has 2**36 - 1 children
    "chi list grid": ["chi", "list", "--graph6", GRID_6X6],
    # K5,5: DP Brooks caps it at 5, and its scan at k = 4 takes seconds
    "chi dp": HUGE + ["chi", "dp", "--complete-bipartite", "5", "5"],
    "count pdp": HUGE + ["count", "pdp", "-k", "5", "--clique", "5"],
    # C7+K1 with the hub's list one longer: 1.28e15 maximal covers, 10**9
    # gauge-fixed ones walked for seconds; the budget is above the total
    "lemma excess": ["--node-budget", str(10**16)] + [
        "lemma", "excess", "--cycle", "7", "--clique", "1", "--join",
        "--sizes", "3,3,3,3,3,3,3,4",
    ],
    # Groetzsch: its near-full scans run for seconds
    "lemma full-extension": HUGE + ["lemma", "full-extension", "--graph6", "JhdLA_gc?N_"],
    "lemma pair": HUGE + ["lemma", "pair", "--ekab", "5", "2", "3", "-x", "0", "-y", "4"],
    "lemma induction": HUGE + [
        "lemma", "induction", "--cycle", "5", "--clique", "2", "--join",
        "--independent-set", "6",
    ],
    "lemma join": BEYOND_C5_K3 + ["lemma", "join", "--cycle", "5", "-t", "3"],
    "count chromatic-poly": ["count", "chromatic-poly", "--graph6", GRID_5X5],
    # a K4 hung off the end of a 22-vertex path: each of the 3 * 2**21
    # colorings of the path dies at the K4, so the count is 0; the count's
    # backtracks would trip the default node budget after about 10 s
    "count colorings": HUGE + ["count", "colorings", "-k", "3", "--graph6", PATH_THEN_K4],
    "count transversals": HUGE + ["count", "transversals", "-k", "3", "--graph6", PATH_THEN_K4],
}


@pytest.mark.parametrize("argv", TIME_CAPPED.values(), ids=list(TIME_CAPPED))
def test_time_budget_holds(argv):
    start = time.monotonic()
    status, out = run("--json", "--time-budget-ms", "100", *argv)
    assert time.monotonic() - start < 5.0
    assert status == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert "unknown" in (doc.get("status"), doc.get("decision")) or (
        doc.get("outcome") == "truncated"
    ), doc


@pytest.mark.parametrize("what", ["colorings", "transversals"])
def test_counts_charge_the_node_budget(what):
    # the count charges its backtracks and what it counts, so the node
    # budget alone stops it: on the path every coloring dies at the K4, and
    # K1 has one coloring per color and no backtrack; K2's count lists
    # nothing of size k before it starts
    for source in (
        ["-k", "3", "--graph6", PATH_THEN_K4],
        ["-k", "30000000", "--clique", "1"],
        ["-k", "30000000", "--clique", "2"],
    ):
        start = time.monotonic()
        status, out = run("--json", "--node-budget", "1000", "count", what, *source)
        assert time.monotonic() - start < 2.0
        assert status == 2
        assert json.loads(out)["status"] == "unknown"


def test_lemma_sizes_the_kill_table_before_listing_options():
    # K2 at (8, 8): its edge is fixed to the identity, so 56 index tuples
    # and no option fit the default budget, and the one gauge-fixed cover
    # stands for 8! maximal ones; at (30, 15), 450 index tuples times the
    # edge's C(30, 15) order-preserving matchings do not, and none of them,
    # which would take minutes, is listed
    for sizes, status, checked in (("8,8", 0, 40320), ("30,15", 2, 0)):
        start = time.monotonic()
        got, out = run("--json", "lemma", "excess", "--clique", "2", "--sizes", sizes)
        assert time.monotonic() - start < 5.0
        doc = json.loads(out)
        assert (got, doc["mode"], doc["checked"]) == (status, "exhaustive", checked), doc


def test_scans_size_their_tables_before_building_them():
    # C13(1,5)+K1 at k = 5: 5 * 4**13 forest colorings times 26 * 5! options
    # are far over the default budget, so chi dp stops before building any;
    # K2 at k = 10 has no non-tree edge, so no leader table over 10! is built
    start = time.monotonic()
    status, out = run("--json", "chi", "dp", "--graph6", "MhEIHEPQHGaPaP~~_")
    assert time.monotonic() - start < 5.0
    assert status == 2
    assert json.loads(out) == {
        "lower_bound": 5, "schema": "critickit/chi/1", "status": "unknown", "value": None,
        "variant": "dp",
    }
    from critickit import covers

    covers._LEADER_TABLES.pop(10, None)
    start = time.monotonic()
    status, out = run("--json", "count", "pdp", "-k", "10", "--clique", "2")
    assert time.monotonic() - start < 1.0
    assert status == 0
    assert json.loads(out)["value"] == 90
    assert 10 not in covers._LEADER_TABLES


def test_joins_decide_from_the_level_below():
    # K5 from K4, C5+K2 from C5+K1 and C5+K3 from C5+K2: covers_scanned counts
    # the join's own gauge-fixed covers, (k-1)!^|E(H)|, not the level below
    status, out = run("--json", "--node-budget", "200000000", "check", "robust", "--clique", "5")
    assert status == 0
    assert out == (
        '{"covers_scanned":191102976,"decision":"robustly_critical","k":5,'
        '"schema":"critickit/robust-verdict/1","witness":null}\n'
    )
    start = time.monotonic()
    status, out = run("--json", "--node-budget", str(10**14),
                      "check", "robust", "--cycle", "5", "--clique", "2", "--join")
    assert time.monotonic() - start < 2.0
    assert status == 0
    doc = json.loads(out)
    assert doc["decision"] == "robustly_critical" and doc["covers_scanned"] == 24**10
    status, out = run("--json", *BEYOND_C5_K3, "check", "robust", "--cycle", "5", "--clique", "3",
                      "--join")
    assert status == 0
    assert out == (
        '{"covers_scanned":1848842588950364160000000000000000,"decision":"robustly_critical",'
        '"k":6,"schema":"critickit/robust-verdict/1","witness":null}\n'
    )


def test_time_budget_holds_on_a_long_cycle_polynomial(tmp_path):
    # 1500 vertices and no vertex of degree 1 to peel: deeper than the
    # default recursion limit, and far more deletion-contraction subproblems
    # than 100 ms allows
    from critickit import cycle, format_edgelist

    path = tmp_path / "cycle.txt"
    path.write_text(format_edgelist(cycle(1500)))
    start = time.monotonic()
    status, out = run(
        "--json", "--time-budget-ms", "100", "count", "chromatic-poly", "--edges", str(path)
    )
    assert time.monotonic() - start < 5.0
    assert status == 2
    assert json.loads(out) == {
        "schema": "critickit/polynomial/1", "coefficients_ascending": None, "status": "unknown",
    }


def test_time_budget_holds_while_the_scan_is_built():
    # the 1 ms cap trips while the kill masks are built, before any cover;
    # E(5,2,2) has no pair of the pair rule, so it is scanned
    status, out = run("--json", "--time-budget-ms", "1", "check", "robust", "--ekab", "5", "2", "2")
    assert status == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["schema"] == "critickit/robust-verdict/1"
    assert doc["decision"] == "unknown" and doc["covers_scanned"] == 0


@pytest.mark.parametrize(
    "argv,status,field,expected",
    [
        (["count", "colorings", "-k", "2"], 0, "value", 2),
        (["chi", "plain"], 0, "value", 2),
        (["check", "critical"], 1, "witness", {"kind": "edge", "edge": [0, 1]}),
        (["chi", "list"], 0, "value", 2),
    ],
    ids=["count colorings", "chi plain", "check critical", "chi list"],
)
def test_count_colorings_on_a_long_path(tmp_path, argv, status, field, expected):
    # 3000 vertices, deeper than the default recursion limit
    from critickit import build_graph, format_edgelist

    path = tmp_path / "path.txt"
    path.write_text(format_edgelist(build_graph(3000, [(v, v + 1) for v in range(2999)])))
    got_status, out = run("--json", *argv, "--edges", str(path))
    assert got_status == status
    assert json.loads(out)[field] == expected


@pytest.mark.parametrize(
    "argv,graph,status,field,expected",
    [
        (["check", "critical"], clique(4), 1, "witness", {"kind": "edge", "edge": [0, 1]}),
        (["chi", "plain"], join(cycle(5), clique(1)), 0, "value", 4),
    ],
    ids=["check critical path+K4", "chi plain path+W5"],
)
def test_conflict_labelled_after_a_long_path(tmp_path, argv, graph, status, field, expected):
    # the path takes labels 0..39, so a search in label order would try
    # about 2**38 path colorings before each refutation of the conflict
    from critickit import build_graph, format_edgelist

    edges = [(v, v + 1) for v in range(39)] + [(u + 40, v + 40) for u, v in graph.edges()]
    path = tmp_path / "g.txt"
    path.write_text(format_edgelist(build_graph(40 + graph.n, edges)))
    start = time.monotonic()
    got_status, out = run("--json", *argv, "--edges", str(path))
    assert time.monotonic() - start < 2.0
    assert got_status == status
    assert json.loads(out)[field] == expected


@pytest.mark.parametrize(
    "argv,status,field,expected",
    [
        (["check", "critical"], 1, "witness", {"kind": "edge", "edge": [0, 1]}),
        (["chi", "plain"], 0, "value", 4),
    ],
    ids=["check critical", "chi plain"],
)
def test_hub_with_pendant_paths_and_a_far_wheel(tmp_path, argv, status, field, expected):
    # 24 pendant 2-paths sit in the search order between the hub's triangle
    # and the wheel; a whole-graph search doubles its work with each of them
    from critickit import format_edgelist
    from helpers import hub_with_pendant_paths

    path = tmp_path / "g.txt"
    path.write_text(format_edgelist(hub_with_pendant_paths(24)))
    start = time.monotonic()
    got_status, out = run("--json", *argv, "--edges", str(path))
    assert time.monotonic() - start < 2.0
    assert got_status == status
    assert json.loads(out)[field] == expected


# ----------------------------------------------------------- JSON roundtrips


def test_cover_json_roundtrip_bit_exact():
    cover = cover_from_assignment(
        cycle(5), ListAssignment.of([{1, 2}, {2, 3}, {1, 3}, {1, 2}, {4, 5}])
    )
    text = dumps(cover_to_doc(cover))
    again = cover_from_doc(json.loads(text))
    assert again == cover
    assert dumps(cover_to_doc(again)) == text


def test_assignment_json_roundtrip_bit_exact():
    assignment = ListAssignment.of([{1, 2}, {3}, {2, 9}])
    text = dumps(assignment_to_doc(assignment))
    again = assignment_from_doc(json.loads(text))
    assert again == assignment
    assert dumps(assignment_to_doc(again)) == text


def test_malformed_documents_raise_package_errors():
    with pytest.raises(AssignmentError):
        assignment_from_doc({"lists": {"0": [1], "1": ["x"]}})
    with pytest.raises(AssignmentError):
        assignment_from_doc({"lists": [[1]]})
    with pytest.raises(CoverError):
        cover_from_doc({"graph6": "A_", "k": 2, "matchings": [{"u": 0, "v": 1, "pairs": [[0, 0, 1]]}]})
    with pytest.raises(CoverError):
        cover_from_doc({"graph6": "A_", "k": 1, "matchings": []})


# ------------------------------------------------------------------ imports


def test_cli_import_skips_process_pools():
    # the CLI's start-up must not import process pools: every call pays
    # for what it imports, and no command runs a pool
    src = str(Path(critickit.__file__).resolve().parents[1])
    probe = (
        "import sys, critickit.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
