"""critickit: exact verification of graph-coloring criticality.

Decides, with machine-checkable witnesses, whether small graphs are
critical, vertex-critical, strongly critical, strongly chromatic-choosable
or robustly critical, and computes chromatic, list-chromatic and DP-chromatic
numbers plus coloring and transversal counts.

Importing the package loads none of its modules.  The first time any name
in :data:`_EXPORTS` is read from the package, every module listed there is
imported and all of their exported names become package attributes, so a
library user sees the whole API at once while ``python -m critickit.cli``
pays only for the modules its command runs.  Any other name raises
:class:`AttributeError` without importing anything.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "coloring": (
        "ColoringVerdict",
        "Polynomial",
        "chromatic_number",
        "chromatic_polynomial",
        "classify_criticality",
        "count_proper_colorings",
        "find_coloring",
        "is_k_colorable",
    ),
    "covers": (
        "Cover",
        "PdpResult",
        "RobustVerdict",
        "canonical_labeling",
        "complete_to_full",
        "count_transversals",
        "cover_from_assignment",
        "cover_violation",
        "dp_chromatic_number",
        "enumerate_full_covers",
        "find_transversal",
        "is_bad",
        "is_full",
        "make_canonical_cover",
        "make_cover",
        "make_near_canonical",
        "normalize_cover",
        "pdp_value",
        "relabel_cover",
        "robust_criticality_verdict",
        "validate_cover",
    ),
    "errors": (
        "AssignmentError",
        "BudgetExceeded",
        "CoverError",
        "CritickitError",
        "DisconnectedError",
        "Graph6Error",
        "GraphError",
    ),
    "graphs": (
        "EkabParams",
        "Graph",
        "build_graph",
        "clique",
        "complete_bipartite",
        "cycle",
        "encode_graph6",
        "generate_ekab",
        "generate_named",
        "join",
        "parse_edgelist",
        "parse_graph6",
        "format_edgelist",
        "spanning_tree",
    ),
    "lemmas": (
        "LemmaReport",
        "check_excess_lemma",
        "check_full_extension_lemma",
        "check_induction_lemma",
        "check_join_preserves",
        "check_pair_reduction",
    ),
    "limits": ("DEFAULT_NODE_BUDGET", "SearchLimits"),
    "listcoloring": (
        "BlockSystem",
        "ListAssignment",
        "StrongVerdict",
        "assignment_from_blocks",
        "block_systems",
        "find_bad_nonconstant_assignment",
        "find_list_coloring",
        "is_constant_assignment",
        "is_list_colorable",
        "list_chromatic_number",
        "strong_criticality_verdict",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    api = globals()
    for module, names in _EXPORTS.items():
        loaded = import_module(f"{__name__}.{module}")
        for exported in names:
            api[exported] = getattr(loaded, exported)
    return api[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
