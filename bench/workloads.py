"""The three workloads: their inputs, drawn from the seed, and their checks.

Every answer is checked against ``expected.json`` (values that relabelling
does not change) and, where a witness or a random graph is involved, against
the brute-force oracles in ``oracle.py``.  A check returns None when the
answer is right and a one-line reason otherwise.

The seed draws a vertex relabelling of each named instance (moving pair and
induction vertices and excess size profiles along), the order of the
in-process operations in a pass, and the random graphs of ``cli-mix``.  Two
instances keep the labelling their named generator gives, because the work
of their scan depends on the labelling far more than on anything a change
to the program would do: the C5+K2 probe (0.10 s to 1.5 s at its fixed
budget over twelve labellings) and C7+K1 (5.8x in spend calls over ten).
Their answers would still be checkable; their times would not be
comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
WORKLOADS = ("robust-scan", "lemma-suite", "cli-mix")
CLI_TAIL = 50  # processes per run on the in-process workloads: p80 leaves 10 beyond


# -- named graphs, as (n, edges), built here rather than by critickit ---------


def clique(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def cycle(n):
    return n, oracle.normalize((i, (i + 1) % n) for i in range(n))


def complete_bipartite(a, b):
    return a + b, [(u, a + v) for u in range(a) for v in range(b)]


def ekab(k, a, b):
    """Cliques X = 0..k-2 and Y = k-1..2k-3, apex z = 2k-2 joined to the
    first a of X and the first b of Y, rest of X joined to rest of Y."""
    x, y, z = list(range(k - 1)), list(range(k - 1, 2 * k - 2)), 2 * k - 2
    edges = clique(k - 1)[1] + [(u + k - 1, v + k - 1) for u, v in clique(k - 1)[1]]
    edges += [(v, z) for v in x[:a] + y[:b]]
    edges += [(u, v) for u in x[a:] for v in y[b:]]
    return 2 * k - 1, oracle.normalize(edges)


def join(g, h):
    (n, e), (m, f) = g, h
    edges = e + [(u + n, v + n) for u, v in f] + [(u, n + v) for u in range(n) for v in range(m)]
    return n + m, oracle.normalize(edges)


NAMED = {
    "K3": clique(3),
    "K4": clique(4),
    "K5": clique(5),
    "C5": cycle(5),
    "C6": cycle(6),
    "C7": cycle(7),
    "K2,4": complete_bipartite(2, 4),
    "E(4,2,2)": ekab(4, 2, 2),
    "E(4,1,2)": ekab(4, 1, 2),
    "C5+K1": join(cycle(5), clique(1)),
    "C7+K1": join(cycle(7), clique(1)),
    "C5+K2": join(cycle(5), clique(2)),
    "K4-e": (4, clique(4)[1][1:]),
}


@dataclass
class Labelled:
    """A named graph after relabelling; ``perm[v]`` is the new name of v."""

    name: str
    n: int
    edges: list
    perm: list

    def vertex(self, v):
        return self.perm[v]

    def profile(self, sizes):
        out = [0] * self.n
        for v, s in enumerate(sizes):
            out[self.perm[v]] = s
        return out

    @property
    def graph6(self):
        return oracle.encode_graph6(self.n, self.edges)


def labelled(name: str, rng: random.Random | None) -> Labelled:
    n, edges = NAMED[name]
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return Labelled(name, n, oracle.relabel(n, edges, perm), perm)


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One in-process call into critickit, with its inputs already built."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Command:
    """One ``critickit --json`` invocation and the check of its outcome."""

    id: str
    argv: list
    check: Callable
    known: str | None = None  # why it fails at the recorded baseline


@dataclass
class Inputs:
    ops: list = field(default_factory=list)
    commands: list = field(default_factory=list)


def _memo(check):
    """Checks repeat on identical answers every pass; run each once."""
    seen = {}

    def cached(*answer):
        key = repr(answer)
        if key not in seen:
            seen[key] = check(*answer)
        return seen[key]

    return cached


def _cover_check(g: Labelled, k: int, cover, value: int):
    matchings = [(u, v, tuple(map(tuple, pairs))) for u, v, pairs in cover]
    problem = oracle.cover_problem(g.n, g.edges, (k,) * g.n, matchings)
    if problem:
        return f"minimiser is not a cover: {problem}"
    if any(len(pairs) != k for _, _, pairs in matchings):
        return "minimiser is not a full cover"
    count = oracle.count_transversals((k,) * g.n, matchings)
    if count != value:
        return f"minimiser has {count} transversals, reported {value}"
    return None


def _robust_op(ck, g: Labelled, budget: int | None, probe: bool = False) -> Op:
    want = EXPECTED["robust"][g.name]
    graph = ck.build_graph(g.n, g.edges)

    def run():
        limits = None if budget is None else ck.SearchLimits(max_nodes=budget)
        return ck.robust_criticality_verdict(graph, limits)

    def check(r):
        cap = budget or EXPECTED["default_budget"]
        if r.decision == "unknown":
            if r.covers_scanned > cap:
                return f"unknown after {r.covers_scanned} covers, budget {cap}"
            return None if probe else "unknown where a decision is expected"
        got = (r.decision, r.k, r.covers_scanned, r.witness)
        exp = (want["decision"], want["k"], want["covers_scanned"], None)
        return None if got == exp else f"got {got[:3]}, expected {exp[:3]}"

    return Op(f"robust {g.name}", run, check)


def robust_scan(seed: int, ck) -> Inputs:
    rng = random.Random(f"robust-scan/{seed}")
    ops = [_robust_op(ck, labelled(name, rng), None) for name in ("E(4,2,2)", "E(4,1,2)", "C5+K1")]
    ops.append(_robust_op(ck, labelled("C7+K1", None), None))
    ops.append(_robust_op(ck, labelled("K5", rng), 200_000_000))
    ops.append(_robust_op(ck, labelled("C5+K2", None), 3_000_000, probe=True))
    rng.shuffle(ops)
    tail = [
        _cli_robust(labelled(name, rng), f"tail robust {name}")
        for name in ("E(4,2,2)", "E(4,1,2)", "C5+K1", "C5", "C6")
    ]
    return Inputs(ops, _cycle(tail))


def _lemma_op(name: str, call, modes=("exhaustive",)) -> Op:
    def check(r):
        if r.outcome != "all_pass":
            return f"outcome {r.outcome}: {r.detail}"
        if r.checked < 1:
            return f"checked {r.checked}"
        if not any(r.mode.startswith(m) for m in modes):
            return f"mode {r.mode}, expected one of {modes}"
        return None

    return Op(name, call, check)


def lemma_suite(seed: int, ck) -> Inputs:
    rng = random.Random(f"lemma-suite/{seed}")
    c5, k3 = labelled("C5", rng), labelled("K3", rng)
    c5k1, e422 = labelled("C5+K1", rng), labelled("E(4,2,2)", rng)
    gc5, gk3, gc5k1, ge422 = (ck.build_graph(g.n, g.edges) for g in (c5, k3, c5k1, e422))

    def excess(sizes, budget):
        prof = c5.profile(sizes)
        return lambda: ck.check_excess_lemma(gc5, prof, ck.SearchLimits(max_nodes=budget))

    ops = [
        _lemma_op("full-extension C5", lambda: ck.check_full_extension_lemma(gc5)),
        _lemma_op("full-extension K3", lambda: ck.check_full_extension_lemma(gk3)),
        _lemma_op(
            "induction C5+K1 {5}",
            lambda: ck.check_induction_lemma(gc5k1, [c5k1.vertex(5)]),
        ),
        _lemma_op(
            "pair E(4,2,2) 0 3",
            lambda: ck.check_pair_reduction(ge422, e422.vertex(0), e422.vertex(3)),
        ),
        _lemma_op("join C5 1", lambda: ck.check_join_preserves(gc5, 1)),
        _lemma_op("excess C5 22223", excess((2, 2, 2, 2, 3), 2_000_000)),
        _lemma_op("excess C5 22323", excess((2, 2, 3, 2, 3), 2_000_000)),
        # sampled today; a change that makes it exhaustive still passes
        _lemma_op("excess C5 33333", excess((3, 3, 3, 3, 3), 600_000), ("sampled", "exhaustive")),
    ]
    rng.shuffle(ops)
    t_k3, t_e, t_c5 = labelled("K3", rng), labelled("E(4,2,2)", rng), labelled("C5", rng)
    tail = [
        _cli_lemma("tail full-extension K3", ["full-extension", "--graph6", t_k3.graph6]),
        _cli_lemma(
            "tail pair E(4,2,2)",
            ["pair", "--graph6", t_e.graph6, "-x", str(t_e.vertex(0)), "-y", str(t_e.vertex(3))],
        ),
        _cli_lemma("tail join C5 1", ["join", "--graph6", t_c5.graph6, "-t", "1"]),
        _cli_lemma(
            "tail excess K3 223",
            ["excess", "--graph6", t_k3.graph6, "--sizes", ",".join(map(str, t_k3.profile((2, 2, 3))))],
        ),
    ]
    return Inputs(ops, _cycle(tail))


def _cycle(commands):
    return [commands[i % len(commands)] for i in range(CLI_TAIL)]


# -- CLI commands and their checks ------------------------------------------


def _json_check(exit_code: int, check_doc=None):
    """Exit status must match and the fields ``check_doc`` reads must agree."""

    def check(status, doc):
        if doc is None:
            return f"exit {status} without exactly one JSON document"
        if status != exit_code:
            return f"exit {status}, expected {exit_code}: {str(doc)[:120]}"
        return None if check_doc is None else check_doc(doc)

    return check


def _fields(**want):
    def check_doc(doc):
        got = {k: doc.get(k) for k in want}
        return None if got == want else f"got {got}, expected {want}"

    return check_doc


def _deletion_keeps_chi(n, edges, chi):
    """A not-critical verdict's witness must be a deletion keeping chi."""

    def check_doc(doc):
        w = doc.get("witness") or {}
        if w.get("kind") == "edge":
            e = tuple(sorted(w["edge"]))
            if e not in edges:
                return f"witness {e} is not an edge"
            kept = oracle.chromatic_number(n, [f for f in edges if f != e])
        elif w.get("kind") == "vertex":
            v = w["vertex"]
            kept = oracle.chromatic_number(
                n - 1, [(a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)]
            )
        else:
            return f"no deletion witness: {w}"
        return None if kept == chi else f"deleting {w} drops chi to {kept}"

    return check_doc


def _cli_robust(g: Labelled, cid: str) -> Command:
    want = EXPECTED["robust"][g.name]
    if want["decision"] == "not_critical":
        return Command(
            cid,
            ["check", "robust", "--graph6", g.graph6],
            _json_check(1, _all(_fields(decision="not_critical", k=want["k"]), _deletion_keeps_chi(g.n, g.edges, want["k"]))),
        )
    return Command(
        cid,
        ["check", "robust", "--graph6", g.graph6],
        _json_check(0, _fields(decision=want["decision"], k=want["k"], covers_scanned=want["covers_scanned"], witness=None)),
    )


def _cli_lemma(cid, argv, exit_code=0, outcome="all_pass", budget=None) -> Command:
    def check_doc(doc):
        if doc.get("outcome") != outcome:
            return f"outcome {doc.get('outcome')}, expected {outcome}"
        if budget is not None and doc.get("checked", 0) > budget:
            return f"checked {doc.get('checked')} over budget {budget}"
        return None

    prefix = [] if budget is None else ["--node-budget", str(budget)]
    return Command(cid, prefix + ["lemma"] + argv, _json_check(exit_code, check_doc))


def _cli_value(cid, argv, value) -> Command:
    return Command(cid, argv, _json_check(0, _fields(status="decided", value=value)))


def _cli_strong(cid, prop, g: Labelled, k) -> Command:
    return Command(cid, ["check", prop, "--graph6", g.graph6], _json_check(0, _fields(decision="yes", k=k)))


def _cli_pdp(cid, g: Labelled, k, argv=None) -> Command:
    want = EXPECTED["pdp"][f"{g.name} k={k}"]

    @_memo
    def witness(cover, value):
        return _cover_check(g, k, cover, value)

    def check_doc(doc):
        if (doc.get("value"), doc.get("covers_scanned")) != (want["value"], want["covers_scanned"]):
            return f"got {doc.get('value')} over {doc.get('covers_scanned')} covers, expected {want}"
        cover = doc["cover"]
        if oracle.decode_graph6(cover["graph6"]) != (g.n, g.edges):
            return "minimiser is on another graph"
        return witness(
            tuple((m["u"], m["v"], tuple(map(tuple, m["pairs"]))) for m in cover["matchings"]),
            doc["value"],
        )

    argv = argv or ["--graph6", g.graph6]
    return Command(cid, ["count", "pdp", "-k", str(k)] + argv, _json_check(0, check_doc))


def _all(*checks):
    def check_doc(doc):
        for c in checks:
            problem = c(doc)
            if problem:
                return problem
        return None

    return check_doc


def _usage_error(cid, argv, known=None) -> Command:
    return Command(cid, argv, _json_check(64, _fields(schema="critickit/error/1")), known)


def _random_graph_commands(i: int, n: int, edges) -> list:
    word = oracle.encode_graph6(n, edges)
    src = ["--graph6", word]
    facts = {}

    def fact(key):
        # oracle answers are computed on first use, outside the timed calls
        if not facts:
            facts["chi"], facts["critical"], facts["vertex_critical"] = oracle.criticality(n, edges)
            facts["colorings3"] = oracle.count_colorings(n, edges, 3)
            facts["poly"] = oracle.chromatic_polynomial(n, edges)
        return facts[key]

    def gen(doc):
        return None if oracle.decode_graph6(doc.get("graph6", "?")) == (n, edges) else "graph6 differs"

    def chi(doc):
        return _fields(status="decided", value=fact("chi"))(doc)

    def critical(doc):
        got = (doc.get("chromatic_number"), doc.get("is_critical"), doc.get("is_vertex_critical"))
        want = (fact("chi"), fact("critical"), fact("vertex_critical"))
        if got != want:
            return f"got {got}, expected {want}"
        if not fact("critical"):
            return _deletion_keeps_chi(n, edges, fact("chi"))(doc)
        return None

    def count(doc):
        return _fields(value=fact("colorings3"))(doc)

    def poly(doc):
        return _fields(coefficients_ascending=fact("poly"))(doc)

    def check_critical(status, doc):
        return _json_check(0 if fact("critical") else 1, critical)(status, doc)

    tag = f"random{i} n={n}"
    return [
        Command(f"gen {tag}", ["gen"] + src, _json_check(0, gen)),
        Command(f"chi plain {tag}", ["chi", "plain"] + src, _json_check(0, chi)),
        Command(f"check critical {tag}", ["check", "critical"] + src, check_critical),
        Command(f"count colorings {tag}", ["count", "colorings", "-k", "3"] + src, _json_check(0, count)),
        Command(f"count transversals {tag}", ["count", "transversals", "-k", "3"] + src, _json_check(0, count)),
        Command(f"count chromatic-poly {tag}", ["count", "chromatic-poly"] + src, _json_check(0, poly)),
    ]


def cli_mix(seed: int, work: Path, root: Path) -> Inputs:
    """About fifty commands over every subcommand; ``work`` receives the
    files the commands read, named relative to ``root``."""
    rng = random.Random(f"cli-mix/{seed}")
    rel = lambda p: str(p.relative_to(root))  # noqa: E731
    commands = []
    for i, n in enumerate((4, 5, 6, 7)):
        commands += _random_graph_commands(i, n, oracle.random_connected_graph(rng, n))

    # a random partial cover on a random graph, for count transversals --cover
    cn, ce = 5, oracle.random_connected_graph(rng, 5)
    sizes = [rng.randint(1, 3) for _ in range(cn)]
    matchings = []
    for u, v in ce:
        size = rng.randint(0, min(sizes[u], sizes[v]))
        matchings.append((u, v, tuple(sorted(zip(rng.sample(range(sizes[u]), size), rng.sample(range(sizes[v]), size))))))
    cover_doc = {
        "schema": "critickit/cover/1",
        "graph6": oracle.encode_graph6(cn, ce),
        "sizes": sizes,
        "matchings": [{"u": u, "v": v, "pairs": [list(p) for p in pairs]} for u, v, pairs in matchings],
    }
    bad_edge = dict(cover_doc, matchings=cover_doc["matchings"] + [{"u": 0, "v": cn + 3, "pairs": [[0, 0]]}])
    files = {
        "cover.json": json.dumps(cover_doc),
        "cover_bad_edge.json": json.dumps(bad_edge),
        "cover_malformed.json": json.dumps(cover_doc)[:-7],
        "path3000.txt": "3000 2999\n" + "".join(f"{v} {v + 1}\n" for v in range(2999)),
    }
    for name, text in files.items():
        (work / name).write_text(text)
    transversals = oracle.count_transversals(sizes, matchings)

    g = {name: labelled(name, rng) for name in ("E(4,2,2)", "C5+K1", "C6", "K4", "C5", "K4-e", "C7", "K2,4")}
    c5_prof = g["C5"].profile((2, 2, 2, 2, 2))
    e = g["E(4,2,2)"]
    known = EXPECTED["known_failures"]
    commands += [
        Command("gen ekab 4 2 2 edgelist", ["gen", "--ekab", "4", "2", "2", "--edgelist"],
                _json_check(0, lambda d: None if oracle.decode_graph6(d.get("graph6", "?")) == NAMED["E(4,2,2)"] else "graph6 differs")),
        Command("gen join C5 K1", ["gen", "--cycle", "5", "--clique", "1", "--join"],
                _json_check(0, lambda d: None if oracle.decode_graph6(d.get("graph6", "?")) == NAMED["C5+K1"] else "graph6 differs")),
        _cli_value("chi list C5", ["chi", "list", "--cycle", "5"], 3),
        _cli_value("chi list K2,4", ["chi", "list", "--graph6", g["K2,4"].graph6], 3),
        _cli_value("chi dp C6", ["chi", "dp", "--graph6", g["C6"].graph6], 3),
        _cli_value("chi dp K3,3", ["chi", "dp", "--complete-bipartite", "3", "3"], 3),
        Command("check robust ekab 4 2 2", ["check", "robust", "--ekab", "4", "2", "2"],
                _json_check(0, _fields(decision="robustly_critical", k=4, covers_scanned=7776))),
        _cli_robust(g["C5+K1"], "check robust C5+K1"),
        _cli_robust(g["C6"], "check robust C6"),
        Command("check robust K5 budget 1000", ["--node-budget", "1000", "check", "robust", "--clique", "5"],
                _json_check(2, lambda d: None if d.get("decision") == "unknown" and d.get("covers_scanned", 1001) <= 1000 else f"got {d}")),
        _cli_strong("check strong C7", "strong", g["C7"], 3),
        _cli_strong("check strong-cc C5", "strong-cc", g["C5"], 3),
        Command("check strong K4-e", ["check", "strong", "--graph6", g["K4-e"].graph6],
                _json_check(1, _all(_fields(decision="no", k=3), _deletion_keeps_chi(4, g["K4-e"].edges, 3)))),
        _cli_pdp("count pdp C5+K1 k=4", labelled("C5+K1", None), 4, ["--cycle", "5", "--clique", "1", "--join"]),
        _cli_pdp("count pdp K4 k=5", g["K4"], 5),
        Command("count transversals cover", ["count", "transversals", "--cover", rel(work / "cover.json")],
                _json_check(0, _fields(value=transversals))),
        _cli_lemma("lemma excess C5 22222", ["excess", "--graph6", g["C5"].graph6, "--sizes", ",".join(map(str, c5_prof))]),
        _cli_lemma("lemma full-extension K3", ["full-extension", "--clique", "3"]),
        _cli_lemma("lemma pair E(4,2,2)", ["pair", "--graph6", e.graph6, "-x", str(e.vertex(0)), "-y", str(e.vertex(3))]),
        _cli_lemma("lemma induction C5+K1", ["induction", "--graph6", g["C5+K1"].graph6, "--independent-set", str(g["C5+K1"].vertex(5))]),
        _cli_lemma("lemma join C5 1", ["join", "--cycle", "5", "-t", "1"]),
        _cli_lemma("lemma join C5 2 budget", ["join", "--cycle", "5", "-t", "2"], exit_code=2, outcome="truncated", budget=100_000),
        _usage_error("error bad graph6", ["chi", "plain", "--graph6", "D!!"]),
        _usage_error("error missing source", ["chi", "plain"]),
        _usage_error("error missing -k", ["count", "pdp", "--cycle", "5"]),
        _usage_error("error missing cover file", ["count", "transversals", "--cover", rel(work / "no_such_cover.json")],
                     known["error missing cover file"]),
        _usage_error("error malformed cover json", ["count", "transversals", "--cover", rel(work / "cover_malformed.json")],
                     known["error malformed cover json"]),
        _usage_error("error cover edge out of range", ["count", "transversals", "--cover", rel(work / "cover_bad_edge.json")],
                     known["error cover edge out of range"]),
        Command("chi plain path 3000", ["chi", "plain", "--edges", rel(work / "path3000.txt")],
                _json_check(0, _fields(status="decided", value=2)), known["chi plain path 3000"]),
    ]
    return Inputs([], commands)
