"""List assignments, choosability, and strong-criticality decisions.

Bad-assignment search never picks colors from an unbounded universe: an
assignment is identified, up to renaming of colors, with the multiset of its
color support sets (one vertex subset per color).  Enumerating those block
systems in a canonical order removes the renaming symmetry exactly.
"""

from __future__ import annotations

from typing import Iterator

from .base import NO, UNKNOWN, YES, Record
from .coloring import (
    ColoringVerdict,
    _choices,
    _color_matchings,
    chromatic_number,
    classify_criticality,
)
from .errors import AssignmentError, BudgetExceeded, GraphError
from .graphs import Graph
from .limits import SearchLimits


class ListAssignment(Record):
    """Per-vertex finite color sets; color ids are non-negative integers."""

    __slots__ = ("lists",)

    def __init__(self, lists: tuple[frozenset[int], ...]):
        object.__setattr__(self, "lists", lists)

    @classmethod
    def uniform(cls, n: int, colors) -> "ListAssignment":
        return cls(tuple(frozenset(colors) for _ in range(n)))

    @classmethod
    def of(cls, lists) -> "ListAssignment":
        return cls(tuple(frozenset(l) for l in lists))

    @property
    def n(self) -> int:
        return len(self.lists)


def is_constant_assignment(assignment: ListAssignment) -> bool:
    """True iff all lists are equal as sets (vacuously true when empty)."""
    lists = assignment.lists
    return all(l == lists[0] for l in lists)


def find_list_coloring(g: Graph, assignment: ListAssignment) -> tuple[int, ...] | None:
    """The lexicographically first proper coloring choosing each vertex's
    color from its list (vertices in order, each list ascending), or None.
    Runs :func:`~critickit.coloring._choices` over the same-color
    matchings."""
    if assignment.n != g.n:
        raise AssignmentError(
            f"assignment covers {assignment.n} vertices, graph has {g.n}"
        )
    ordered = [sorted(colors) for colors in assignment.lists]
    sizes = [len(colors) for colors in ordered]
    for choice in _choices(sizes, _color_matchings(g, ordered)):
        return tuple(colors[i] for colors, i in zip(ordered, choice))
    return None


def is_list_colorable(g: Graph, assignment: ListAssignment) -> bool:
    return find_list_coloring(g, assignment) is not None


class BlockSystem(Record):
    """A multiset of vertex subsets (one block per color), as sorted bitmasks.

    ``blocks[i]`` has bit v set iff vertex v carries color i.  Sorting the
    masks non-decreasingly makes the encoding canonical: two assignments
    related by a color bijection yield the same system.
    """

    __slots__ = ("n", "multiplicity", "blocks")

    def __init__(self, n: int, multiplicity: int, blocks: tuple[int, ...]):
        full = (1 << n) - 1
        for i, b in enumerate(blocks):
            if b == 0:
                raise AssignmentError(f"block {i} is empty")
            if b & ~full:
                raise AssignmentError(f"block {i} uses vertices outside 0..{n - 1}")
        if list(blocks) != sorted(blocks):
            raise AssignmentError("blocks must be sorted non-decreasingly")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "blocks", blocks)


def assignment_from_blocks(system: BlockSystem) -> ListAssignment:
    """Read the assignment off a block system: block i gives color i to its
    vertices.  Rejects systems whose coverage is not exactly the multiplicity,
    naming the first offending vertex."""
    lists = []
    for v in range(system.n):
        lst = frozenset(i for i, b in enumerate(system.blocks) if b >> v & 1)
        if len(lst) != system.multiplicity:
            raise AssignmentError(
                f"vertex {v} lies in {len(lst)} blocks, expected {system.multiplicity}"
            )
        lists.append(lst)
    return ListAssignment(tuple(lists))


def _submasks_ascending(pos: int, lo: int) -> Iterator[int]:
    """The nonzero submasks of ``pos`` that are at least ``lo``, ascending,
    generated one at a time."""
    s = max(lo, 1) - 1
    outside = s & ~pos
    if outside:
        # a submask above s must exceed it at a bit above its highest bit
        # outside pos, so step on from s with every bit up to that one set
        s |= (1 << outside.bit_length()) - 1
    while True:
        s = ((s | ~pos) + 1) & pos  # the next submask above s
        if not s:
            return
        yield s


def _block_walk(n: int, k: int, spend, prune=None):
    """Every block system with multiplicity k on n vertices, in canonical
    (lexicographic, non-decreasing mask) order, on an explicit stack.

    Yields ``(blocks, rem, lists)`` at each complete system: the blocks
    placed, every vertex's pending block count (all 0 there) and the tuple
    of block indices covering each vertex.  All three are shared and change
    as the walk advances.  Each node, complete or not, is charged one unit
    to ``spend``.  A node whose pending vertices no admissible block can
    cover is a dead end; at every other internal node ``prune(rem, lists)``
    is asked, and a true answer skips the node's subtree."""
    rem = [k] * n
    lists: list[tuple[int, ...]] = [()] * n
    blocks: list[int] = []
    stack: list[Iterator[int]] = []  # per open node, its children's masks
    lo = 1
    while True:
        spend()
        pos = 0
        for v in range(n):
            if rem[v]:
                pos |= 1 << v
        if pos == 0:
            yield blocks, rem, lists
        elif pos >= lo and (prune is None or not prune(rem, lists)):
            stack.append(_submasks_ascending(pos, lo))
        # leave the entered child of the deepest open node, enter the next one
        while stack:
            if len(blocks) == len(stack):
                mask = blocks.pop()
                for v in range(n):
                    if mask >> v & 1:
                        rem[v] += 1
                        lists[v] = lists[v][:-1]
            lo = next(stack[-1], 0)
            if lo:
                for v in range(n):
                    if lo >> v & 1:
                        rem[v] -= 1
                        lists[v] += (len(blocks),)
                blocks.append(lo)
                break
            stack.pop()
        else:
            return


def block_systems(n: int, k: int, limits: SearchLimits | None = None) -> Iterator[BlockSystem]:
    """All block systems with multiplicity k on n vertices, in canonical
    (lexicographic, non-decreasing mask) order.  Unpruned; intended for small
    instances and cross-checks."""
    if k < 0:
        raise AssignmentError(f"k must be non-negative, got {k}")
    budget = (limits or SearchLimits()).start()
    for blocks, _, _ in _block_walk(n, k, budget.spend):
        yield BlockSystem(n, k, tuple(blocks))


class _BadAssignmentSearch:
    """Exhaustive-up-to-renaming search for a bad non-constant k-assignment.

    Walks the block systems with :func:`_block_walk`, placing blocks in
    non-decreasing mask order, and returns the first complete non-constant
    system that is not colorable.  A branch is abandoned as soon as every
    completion of the current partial system is colorable, which is
    certified as follows: pick a proper partial coloring that colors each
    vertex either with one of its current colors or defers it, where the
    deferred set D must be peelable (every nonempty subset of D has a vertex
    with fewer neighbors inside D than pending blocks).  Any completion hands
    each deferred vertex one fresh color per pending block, fresh colors
    never clash with current ones, and peelability lets a reverse-peel greedy
    pick pairwise-compatible fresh colors inside D.
    """

    def __init__(self, g: Graph, k: int, limits: SearchLimits | None):
        self.g = g
        self.n = g.n
        self.k = k
        self.adj = [0] * g.n
        for u, v in g.edges():
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        self.full = (1 << g.n) - 1
        self.budget = (limits or SearchLimits()).start()

    def _peelable(self, d_mask: int, rem: list[int]) -> bool:
        while d_mask:
            for v in range(self.n):
                if d_mask >> v & 1 and (self.adj[v] & d_mask).bit_count() < rem[v]:
                    d_mask &= ~(1 << v)
                    break
            else:
                return False
        return True

    def _all_completions_colorable(
        self, rem: list[int], lists: list[tuple[int, ...]]
    ) -> bool:
        """Is there a partial coloring with a peelable deferred set, as in
        the class docstring?  Vertices are tried in order of fewest options,
        each deferred first (if it has pending blocks) and then given each
        of its colors that no colored neighbor holds, on an explicit stack;
        the deadline is checked every 4096 nodes."""
        n, adj = self.n, self.adj
        order = sorted(range(n), key=lambda v: (len(lists[v]) + (rem[v] > 0), v))
        holders: dict[int, int] = {}  # color -> mask of the vertices holding it
        tried = [0] * n  # per depth: colors tried, or -1 while deferred
        deferred = 0
        i = 0
        nodes = 0
        entering = True
        while True:
            if entering:
                nodes += 1
                if not nodes & 4095:
                    self.budget.spend(0)
                if i == n:
                    if self._peelable(deferred, rem):
                        return True
                    i -= 1
                    entering = False
                    continue
                v = order[i]
                if rem[v] > 0:
                    tried[i] = -1
                    deferred |= 1 << v
                    i += 1
                    continue
                tried[i] = 0
            else:
                if i < 0:
                    return False
                v = order[i]
                if tried[i] < 0:
                    tried[i] = 0
                    deferred &= ~(1 << v)
                else:
                    holders[lists[v][tried[i] - 1]] &= ~(1 << v)
            colors = lists[v]
            j = tried[i]
            while j < len(colors) and holders.get(colors[j], 0) & adj[v]:
                j += 1
            if j == len(colors):
                i -= 1
                entering = False
                continue
            tried[i] = j + 1
            holders[colors[j]] = holders.get(colors[j], 0) | 1 << v
            i += 1
            entering = True

    def _colorable(self, lists: list[tuple[int, ...]]) -> bool:
        return is_list_colorable(
            self.g, ListAssignment(tuple(frozenset(l) for l in lists))
        )

    def run(self) -> BlockSystem | None:
        walk = _block_walk(
            self.n, self.k, self.budget.spend, self._all_completions_colorable
        )
        for blocks, _, lists in walk:
            # the constant assignment is never a witness
            if any(b != self.full for b in blocks) and not self._colorable(lists):
                return BlockSystem(self.n, self.k, tuple(blocks))
        return None


def find_bad_nonconstant_assignment(
    g: Graph, k: int, limits: SearchLimits | None = None
) -> ListAssignment | None:
    """A non-constant k-assignment admitting no proper coloring, or None if
    none exists.  The search is exhaustive up to color renaming; raises
    :class:`~critickit.errors.BudgetExceeded` when limits trip, which is an
    explicit unknown, never a silent "none"."""
    if k < 0:
        raise AssignmentError(f"k must be non-negative, got {k}")
    system = _BadAssignmentSearch(g, k, limits).run()
    if system is None:
        return None
    return assignment_from_blocks(system)


def list_chromatic_number(g: Graph, limits: SearchLimits | None = None) -> int:
    """Least k such that no bad k-assignment exists.

    Starts at the chromatic number (below it the constant assignment is
    already bad) and grows k until the block-system search finds nothing.
    On budget exhaustion raises :class:`BudgetExceeded` with ``lower_bound``
    set to the best proven bound.
    """
    if g.n == 0:
        return 0
    k = chromatic_number(g)
    try:
        while find_bad_nonconstant_assignment(g, k, limits) is not None:
            k += 1
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"list_chromatic_number undecided at k={k}",
            spent=exc.spent,
            lower_bound=k,
        ) from exc
    return k


class StrongVerdict(Record):
    """Decision for strong criticality / strong chromatic-choosability.

    ``witness``: a deletion witness (edge tuple or vertex id) when the
    criticality part fails, or a bad non-constant assignment when the list
    part fails; None on yes.
    """

    __slots__ = ("decision", "k", "mode", "witness", "criticality")

    def __init__(
        self,
        decision: str,
        k: int,
        mode: str,
        witness: tuple[int, int] | int | ListAssignment | None,
        criticality: ColoringVerdict,
    ):
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "criticality", criticality)


def strong_criticality_verdict(
    g: Graph, mode: str = "critical", limits: SearchLimits | None = None
) -> StrongVerdict:
    """Is every bad (chi-1)-assignment constant, on top of the criticality
    requirement selected by ``mode`` ("critical" or "vertex_critical")?
    Budget exhaustion yields decision "unknown"."""
    if mode not in ("critical", "vertex_critical"):
        raise GraphError(f"unknown mode {mode!r}")
    if g.n < 1:
        raise GraphError("strong criticality needs at least one vertex")
    verdict = classify_criticality(g)
    k = verdict.chromatic_number
    ok = verdict.is_critical if mode == "critical" else verdict.is_vertex_critical
    if not ok:
        return StrongVerdict(NO, k, mode, verdict.witness, verdict)
    try:
        bad = find_bad_nonconstant_assignment(g, k - 1, limits)
    except BudgetExceeded:
        return StrongVerdict(UNKNOWN, k, mode, None, verdict)
    if bad is not None:
        return StrongVerdict(NO, k, mode, bad, verdict)
    return StrongVerdict(YES, k, mode, None, verdict)
