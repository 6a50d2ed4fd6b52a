"""Witness and report (de)serialization.

Every document carries a versioned ``schema`` field.  Emission is canonical
(sorted keys, fixed separators, trailing newline) so that deterministic runs
are byte-identical and serialize/parse/serialize round-trips exactly.
"""

from __future__ import annotations

import json

from .errors import AssignmentError, CoverError
from .graphs import parse_graph6, encode_graph6

# The cover, assignment and verdict types appear here in annotations only:
# the functions that build one import its module, so that a command loads
# only the modules it runs.

SCHEMA_ASSIGNMENT = "critickit/assignment/1"
SCHEMA_COVER = "critickit/cover/1"
SCHEMA_ROBUST = "critickit/robust-verdict/1"
SCHEMA_STRONG = "critickit/strong-verdict/1"
SCHEMA_CRITICALITY = "critickit/criticality/1"
SCHEMA_LEMMA = "critickit/lemma-report/1"
SCHEMA_ERROR = "critickit/error/1"
SCHEMA_GRAPH = "critickit/graph/1"
SCHEMA_CHI = "critickit/chi/1"
SCHEMA_COUNT = "critickit/count/1"
SCHEMA_POLYNOMIAL = "critickit/polynomial/1"


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def assignment_to_doc(assignment: ListAssignment) -> dict:
    return {
        "schema": SCHEMA_ASSIGNMENT,
        "lists": {str(v): sorted(l) for v, l in enumerate(assignment.lists)},
    }


def _ints(values, what: str, error: type, length: int | None = None) -> tuple[int, ...]:
    values = tuple(values)
    if any(type(x) is not int for x in values) or length not in (None, len(values)):
        raise error(f"bad {what} {list(values)!r}")
    return values


def assignment_from_doc(document: dict) -> ListAssignment:
    """Parse an assignment document; raises :class:`AssignmentError` when it
    is malformed or a color is negative."""
    try:
        lists = document["lists"]
        lists = [_ints(lists[str(v)], "colors", AssignmentError) for v in range(len(lists))]
    except (KeyError, TypeError) as exc:
        raise AssignmentError(f"malformed assignment document ({exc!r})") from None
    if any(c < 0 for colors in lists for c in colors):
        raise AssignmentError("colors must be non-negative")
    from .listcoloring import ListAssignment

    return ListAssignment.of(lists)


def cover_to_doc(cover: Cover) -> dict:
    document = {
        "schema": SCHEMA_COVER,
        "graph6": encode_graph6(cover.graph),
        "matchings": [
            {"u": u, "v": v, "pairs": [list(p) for p in pairs]}
            for u, v, pairs in cover.matchings
        ],
    }
    if cover.is_uniform():
        document["k"] = cover.sizes[0] if cover.sizes else 0
    else:
        document["sizes"] = list(cover.sizes)
    return document


def cover_from_doc(document: dict) -> Cover:
    """Parse a cover document; raises :class:`CoverError` when it is
    malformed or violates a cover invariant (see :func:`cover_violation`)."""
    try:
        graph = parse_graph6(document["graph6"])
        if "k" in document:
            sizes = _ints((document["k"],), "k", CoverError) * graph.n
        elif "sizes" in document:
            sizes = _ints(document["sizes"], "sizes", CoverError)
        else:
            raise CoverError("cover document needs 'k' or 'sizes'")
        matchings = tuple(
            _ints((entry["u"], entry["v"]), "matching endpoints", CoverError)
            + (
                tuple(
                    sorted(
                        _ints(pair, "matched pair", CoverError, length=2)
                        for pair in entry.get("pairs", [])
                    )
                ),
            )
            for entry in document["matchings"]
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise CoverError(f"malformed cover document ({exc!r})") from None
    from .covers import Cover, cover_violation

    cover = Cover(graph, sizes, matchings)
    problem = cover_violation(cover)
    if problem is not None:
        raise CoverError(problem)
    return cover


def witness_to_doc(witness) -> dict | None:
    """The document of a witness: a deleted edge ``(u, v)`` or vertex, a
    :class:`~critickit.covers.Cover` or a
    :class:`~critickit.listcoloring.ListAssignment`."""
    if witness is None:
        return None
    if isinstance(witness, tuple):
        return {"kind": "edge", "edge": list(witness)}
    if isinstance(witness, int):
        return {"kind": "vertex", "vertex": witness}
    # told apart by attribute: an isinstance test would import the module
    # of a type that the running command may not use
    if hasattr(witness, "matchings"):
        return {"kind": "cover", "cover": cover_to_doc(witness)}
    return {"kind": "assignment", "assignment": assignment_to_doc(witness)}


def witness_from_doc(document: dict | None):
    if document is None:
        return None
    kind = document["kind"]
    if kind == "cover":
        return cover_from_doc(document["cover"])
    if kind == "assignment":
        return assignment_from_doc(document["assignment"])
    if kind == "edge":
        return tuple(document["edge"])
    if kind == "vertex":
        return document["vertex"]
    raise ValueError(f"unknown witness kind {kind!r}")


def criticality_to_doc(verdict: ColoringVerdict) -> dict:
    return {
        "schema": SCHEMA_CRITICALITY,
        "chromatic_number": verdict.chromatic_number,
        "is_critical": verdict.is_critical,
        "is_vertex_critical": verdict.is_vertex_critical,
        "witness": witness_to_doc(verdict.witness),
    }


def robust_verdict_to_doc(verdict: RobustVerdict) -> dict:
    return {
        "schema": SCHEMA_ROBUST,
        "decision": verdict.decision,
        "k": verdict.k,
        "covers_scanned": verdict.covers_scanned,
        "witness": witness_to_doc(verdict.witness),
    }


def strong_verdict_to_doc(verdict: StrongVerdict) -> dict:
    return {
        "schema": SCHEMA_STRONG,
        "decision": verdict.decision,
        "k": verdict.k,
        "mode": verdict.mode,
        "witness": witness_to_doc(verdict.witness),
    }


def polynomial_to_doc(poly: Polynomial) -> dict:
    return {
        "schema": SCHEMA_POLYNOMIAL,
        "coefficients_ascending": list(poly.coefficients),
    }
