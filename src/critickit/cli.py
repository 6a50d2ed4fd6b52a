"""Command-line interface.

Exit status contract: 0 = decided yes (or value computed), 1 = decided no
(witness emitted), 2 = unknown within limits, 64 = usage error.  With
``--json`` exactly one JSON document is written to standard output.

A command imports only the modules it runs, once its arguments and inputs
have been checked, so that small commands and usage errors start quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .base import EXIT_NO, EXIT_STATUS, EXIT_UNKNOWN, EXIT_USAGE, EXIT_YES
from .errors import BudgetExceeded, CritickitError
from .graphs import (
    Graph,
    encode_graph6,
    format_edgelist,
    generate_ekab,
    generate_named,
    join,
    parse_edgelist,
    parse_graph6,
)
from .limits import DEFAULT_NODE_BUDGET, SearchLimits

BUDGET_ENV = "CRITICKIT_BUDGET"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


class _SourceAction(argparse.Action):
    """Collect graph sources in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        sources = getattr(namespace, "sources", None)
        if sources is None:
            sources = []
            namespace.sources = sources
        sources.append((self.dest, values))


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph6", action=_SourceAction, metavar="WORD")
    parser.add_argument(
        "--edges", action=_SourceAction, metavar="PATH",
        help="edge-list file ('n m' header then 'u v' lines); '-' reads stdin",
    )
    parser.add_argument("--clique", action=_SourceAction, type=int, metavar="N")
    parser.add_argument("--cycle", action=_SourceAction, type=int, metavar="N")
    parser.add_argument(
        "--complete-bipartite", action=_SourceAction, type=int, nargs=2,
        metavar=("A", "B"),
    )
    parser.add_argument(
        "--ekab", action=_SourceAction, type=int, nargs=3, metavar=("K", "A", "B")
    )
    parser.add_argument(
        "--join", action="store_true",
        help="join the listed graph sources left to right",
    )


def _read_input(path: str) -> str:
    """The text of a file, or of standard input for '-'."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CritickitError(f"cannot read {path}: {exc}") from None


def _build_source(kind: str, value) -> Graph:
    if kind == "graph6":
        return parse_graph6(value)
    if kind == "edges":
        return parse_edgelist(_read_input(value))
    if kind == "ekab":
        return generate_ekab(*value)
    # --clique, --cycle and --complete-bipartite name a family
    return generate_named(kind, *(value if isinstance(value, list) else [value]))


def _resolve_graph(args) -> Graph:
    sources = getattr(args, "sources", None) or []
    if not sources:
        raise UsageError("no graph source given")
    graphs = [_build_source(kind, value) for kind, value in sources]
    if len(graphs) == 1:
        return graphs[0]
    if not args.join:
        raise UsageError("several graph sources given; use --join to combine them")
    combined = graphs[0]
    for g in graphs[1:]:
        combined = join(combined, g)
    return combined


def build_parser() -> _Parser:
    parser = _Parser(prog="critickit", description=__doc__)
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document, byte-identical from run to run",
    )
    parser.add_argument(
        "--node-budget", type=int, default=None,
        help=f"search budget (default {DEFAULT_NODE_BUDGET}; env {BUDGET_ENV})",
    )
    parser.add_argument(
        "--time-budget-ms", type=int, default=None,
        help="wall-clock cap; a search or count that reaches it answers "
        "unknown (exit 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a graph")
    _add_source_args(p_gen)
    p_gen.add_argument("--edgelist", action="store_true", help="emit edge-list format")

    p_chi = sub.add_parser("chi", help="chromatic numbers")
    p_chi.add_argument("variant", choices=["plain", "list", "dp"])
    _add_source_args(p_chi)

    p_check = sub.add_parser("check", help="criticality decisions")
    p_check.add_argument(
        "property",
        choices=["critical", "vertex-critical", "strong", "strong-cc", "robust"],
    )
    _add_source_args(p_check)

    p_count = sub.add_parser("count", help="exact counts")
    p_count.add_argument(
        "what", choices=["colorings", "transversals", "pdp", "chromatic-poly"]
    )
    _add_source_args(p_count)
    p_count.add_argument("-k", type=int, default=None)
    p_count.add_argument(
        "--cover", metavar="PATH",
        help="count transversals of a cover JSON document ('-' reads stdin)",
    )

    p_lemma = sub.add_parser("lemma", help="structural lemma suites")
    p_lemma.add_argument(
        "which", choices=["excess", "full-extension", "pair", "induction", "join"]
    )
    _add_source_args(p_lemma)
    p_lemma.add_argument("--sizes", help="comma-separated list sizes (excess)")
    p_lemma.add_argument("-x", type=int, help="first vertex (pair)")
    p_lemma.add_argument("-y", type=int, help="second vertex (pair)")
    p_lemma.add_argument(
        "--independent-set", help="comma-separated vertices (induction)"
    )
    p_lemma.add_argument("-t", type=int, help="clique size to join (join)")
    return parser


def _config_from_args(args) -> tuple[SearchLimits, str]:
    """The search limits and the output mode ("json" or "human")."""
    budget = args.node_budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                raise UsageError(f"{BUDGET_ENV} must be an integer, got {env!r}")
        else:
            budget = DEFAULT_NODE_BUDGET
    if budget <= 0:
        raise UsageError("node budget must be positive")
    if args.time_budget_ms is not None and args.time_budget_ms <= 0:
        raise UsageError("--time-budget-ms must be positive")
    limits = SearchLimits(max_nodes=budget, max_millis=args.time_budget_ms)
    return limits, "json" if args.json else "human"


def _cmd_gen(args, limits) -> tuple[int, dict, str]:
    g = _resolve_graph(args)
    word = encode_graph6(g)
    if args.edgelist:
        return EXIT_YES, {"schema": jsonio.SCHEMA_GRAPH, "graph6": word,
                          "edgelist": format_edgelist(g)}, format_edgelist(g).rstrip("\n")
    return EXIT_YES, {"schema": jsonio.SCHEMA_GRAPH, "graph6": word}, word


def _cmd_chi(args, limits) -> tuple[int, dict, str]:
    g = _resolve_graph(args)
    doc = {"schema": jsonio.SCHEMA_CHI, "variant": args.variant}
    try:
        if args.variant == "plain":
            from .coloring import chromatic_number

            value = chromatic_number(g)
        elif args.variant == "list":
            from .listcoloring import list_chromatic_number

            value = list_chromatic_number(g, limits)
        else:
            from .covers import dp_chromatic_number

            value = dp_chromatic_number(g, limits)
    except BudgetExceeded as exc:
        lower = getattr(exc, "lower_bound", None)
        doc.update({"value": None, "status": "unknown", "lower_bound": lower})
        text = f"unknown (budget exhausted{f'; >= {lower}' if lower else ''})"
        return EXIT_UNKNOWN, doc, text
    doc.update({"value": value, "status": "decided"})
    return EXIT_YES, doc, str(value)


def _cmd_check(args, limits) -> tuple[int, dict, str]:
    g = _resolve_graph(args)
    prop = args.property
    if prop in ("critical", "vertex-critical"):
        from .coloring import classify_criticality

        verdict = classify_criticality(g)
        ok = verdict.is_critical if prop == "critical" else verdict.is_vertex_critical
        doc = jsonio.criticality_to_doc(verdict)
        text = (
            f"{prop}: {'yes' if ok else 'no'} (chi={verdict.chromatic_number})"
        )
        if not ok:
            text += f", witness deletion: {verdict.witness}"
        return (EXIT_YES if ok else EXIT_NO), doc, text
    if prop in ("strong", "strong-cc"):
        from .listcoloring import strong_criticality_verdict

        mode = "critical" if prop == "strong" else "vertex_critical"
        verdict = strong_criticality_verdict(g, mode, limits)
        doc = jsonio.strong_verdict_to_doc(verdict)
        text = f"{prop}: {verdict.decision} (k={verdict.k})"
        if verdict.witness is not None:
            text += f"\nwitness: {jsonio.dumps(jsonio.witness_to_doc(verdict.witness)).rstrip()}"
        return EXIT_STATUS[verdict.decision], doc, text
    from .covers import robust_criticality_verdict

    verdict = robust_criticality_verdict(g, limits)
    doc = jsonio.robust_verdict_to_doc(verdict)
    text = (
        f"robust: {verdict.decision} (k={verdict.k}, "
        f"covers_scanned={verdict.covers_scanned})"
    )
    if verdict.witness is not None:
        text += f"\nwitness: {jsonio.dumps(jsonio.witness_to_doc(verdict.witness)).rstrip()}"
    return EXIT_STATUS[verdict.decision], doc, text


def _count(count, fields: dict) -> tuple[int, dict, str]:
    """The count document for ``fields``, with the value of ``count()``, or
    with ``"value": null, "status": "unknown"`` when it runs out of time."""
    doc = {"schema": jsonio.SCHEMA_COUNT, **fields}
    try:
        value = count()
    except BudgetExceeded:
        doc.update({"value": None, "status": "unknown"})
        return EXIT_UNKNOWN, doc, "unknown (budget exhausted)"
    doc["value"] = value
    return EXIT_YES, doc, str(value)


def _cmd_count(args, limits) -> tuple[int, dict, str]:
    what = args.what
    if what == "transversals" and args.cover is not None:
        try:
            document = json.loads(_read_input(args.cover))
        except json.JSONDecodeError as exc:
            raise CritickitError(f"{args.cover} is not JSON: {exc}") from None
        cover = jsonio.cover_from_doc(document)
        from .covers import count_transversals

        return _count(lambda: count_transversals(cover, limits), {"what": what})
    g = _resolve_graph(args)
    if what == "chromatic-poly":
        from .coloring import chromatic_polynomial

        try:
            poly = chromatic_polynomial(g, limits)
        except BudgetExceeded:
            doc = {
                "schema": jsonio.SCHEMA_POLYNOMIAL, "coefficients_ascending": None,
                "status": "unknown",
            }
            return EXIT_UNKNOWN, doc, "unknown (budget exhausted)"
        doc = jsonio.polynomial_to_doc(poly)
        return EXIT_YES, doc, " ".join(str(c) for c in poly.coefficients)
    if args.k is None:
        raise UsageError(f"count {what} requires -k")
    if what == "colorings":
        from .coloring import count_proper_colorings

        return _count(lambda: count_proper_colorings(g, args.k, limits), {"what": what, "k": args.k})
    if what == "transversals":
        from .covers import count_transversals, make_canonical_cover

        cover = make_canonical_cover(g, args.k)
        return _count(lambda: count_transversals(cover, limits), {"what": what, "k": args.k})
    from .covers import pdp_value

    try:
        result = pdp_value(g, args.k, limits)
    except BudgetExceeded as exc:
        upper = getattr(exc, "best_upper_bound", None)
        doc = {
            "schema": jsonio.SCHEMA_COUNT, "what": "pdp", "k": args.k,
            "value": None, "status": "unknown", "best_upper_bound": upper,
        }
        return EXIT_UNKNOWN, doc, f"unknown (budget exhausted; <= {upper})"
    doc = {
        "schema": jsonio.SCHEMA_COUNT, "what": "pdp", "k": args.k,
        "value": result.value, "covers_scanned": result.covers_scanned,
        "cover": jsonio.cover_to_doc(result.cover),
    }
    return EXIT_YES, doc, str(result.value)


def _parse_int_list(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{option} expects comma-separated integers, got {text!r}")


def _cmd_lemma(args, limits) -> tuple[int, dict, str]:
    g = _resolve_graph(args)
    which = args.which
    if which == "excess":
        if args.sizes is None:
            raise UsageError("lemma excess requires --sizes")
        sizes = _parse_int_list(args.sizes, "--sizes")
        from .lemmas import check_excess_lemma

        report = check_excess_lemma(g, sizes, limits)
    elif which == "full-extension":
        from .lemmas import check_full_extension_lemma

        report = check_full_extension_lemma(g, limits)
    elif which == "pair":
        if args.x is None or args.y is None:
            raise UsageError("lemma pair requires -x and -y")
        from .lemmas import check_pair_reduction

        report = check_pair_reduction(g, args.x, args.y, limits)
    elif which == "induction":
        if args.independent_set is None:
            raise UsageError("lemma induction requires --independent-set")
        members = _parse_int_list(args.independent_set, "--independent-set")
        from .lemmas import check_induction_lemma

        report = check_induction_lemma(g, members, limits)
    else:
        if args.t is None:
            raise UsageError("lemma join requires -t")
        from .lemmas import check_join_preserves

        report = check_join_preserves(g, args.t, limits)
    doc = report.to_doc()
    text = (
        f"lemma {report.lemma}: {report.outcome} "
        f"(checked={report.checked}, mode={report.mode})"
    )
    if report.detail:
        text += f"\n{report.detail}"
    return EXIT_STATUS[report.outcome], doc, text


_COMMANDS = {
    "gen": _cmd_gen,
    "chi": _cmd_chi,
    "check": _cmd_check,
    "count": _cmd_count,
    "lemma": _cmd_lemma,
}


def _wants_json(argv: list[str]) -> bool:
    """Whether ``--json`` was given, for arguments that failed to parse."""
    probe = _Parser(add_help=False)
    probe.add_argument("--json", action="store_true")
    try:
        return probe.parse_known_args(argv)[0].json
    except UsageError:
        return False


def run_command(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit status, stdout text)."""
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        limits, output_mode = _config_from_args(args)
        status, doc, text = _COMMANDS[args.command](args, limits)
    except UsageError as exc:
        status, error = EXIT_USAGE, {"error": f"usage error: {exc}"}
    except BudgetExceeded as exc:
        status, error = EXIT_UNKNOWN, {"error": f"unknown: {exc}", "spent": exc.spent}
    except CritickitError as exc:
        status, error = EXIT_USAGE, {"error": f"error: {exc}"}
    else:
        if output_mode == "json":
            return status, jsonio.dumps(doc)
        return status, text + "\n"
    if args.json if args is not None else _wants_json(argv):
        return status, jsonio.dumps({"schema": jsonio.SCHEMA_ERROR, **error})
    return status, error["error"] + "\n"


def main() -> None:
    status, output = run_command(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
