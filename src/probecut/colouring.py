"""Red-blue d-colouring machinery: validation, the forcing-rule closure
and its one-vertex branch step, and exact completion of colourings whose
uncoloured remainder is an independent set, all over int bitmasks.

A red-blue d-colouring assigns every vertex red or blue so that both
colours occur and every vertex has at most d neighbours of the opposite
colour; the bichromatic edges then form a d-cut.  The perfect variant
requires exactly d opposite-coloured neighbours everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .errors import PartialColouring, PreconditionViolation
from .graph import Graph, iter_bits

RED = "red"
BLUE = "blue"

Colour = Optional[str]
Colouring = Sequence[Colour]


@dataclass(frozen=True)
class CutCertificate:
    """A validated d-cut: the total colouring, its bichromatic edge set,
    the budget d, whether it is perfect, and the cut size."""

    colouring: tuple[str, ...]
    cut: frozenset[tuple[int, int]]
    d: int
    perfect: bool
    size: int


@dataclass(frozen=True)
class Violation:
    """Why a colouring was not accepted; ``vertex`` is None for
    whole-colouring failures such as a monochromatic assignment."""

    vertex: Optional[int]
    reason: str


def masks_of(colouring: Colouring) -> tuple[int, int]:
    """(red mask, blue mask) of a total colouring."""
    x = y = 0
    for v, c in enumerate(colouring):
        if c == RED:
            x |= 1 << v
        elif c == BLUE:
            y |= 1 << v
    return x, y


def colouring_of(n: int, x: int, y: int) -> tuple[Colour, ...]:
    """Per-vertex colours from red/blue masks; None where uncoloured."""
    return tuple(
        RED if (x >> v) & 1 else BLUE if (y >> v) & 1 else None
        for v in range(n)
    )


def _certify(
    g: Graph, x: int, y: int, d: int, perfect: bool = False
) -> Optional[CutCertificate]:
    """The certificate of the total colouring with red mask x and blue mask
    y, or None when it is not a valid d-cut.  A vertex in neither mask
    raises, red wins where they overlap, and only an accepted colouring
    builds its tuple and cut."""
    y &= ~x
    unc = ((1 << g.n) - 1) & ~(x | y)
    if unc:
        v = (unc & -unc).bit_length() - 1
        raise PartialColouring(f"vertex {v} is uncoloured")
    adj = g.adj_bits
    lo = d if perfect else 0
    if not (x and y and _within_budget(adj, x, y, d, lo)
            and _within_budget(adj, y, x, d, lo)):
        return None
    cut = frozenset(
        (u, v) if u < v else (v, u)
        for u in iter_bits(x) for v in iter_bits(adj[u] & y)
    )
    return CutCertificate(colouring_of(g.n, x, y), cut, d, perfect, len(cut))


def _check_d(d: int) -> None:
    """Refuse a d below 1, which is no budget at all."""
    if d < 1:
        raise ValueError("d must be >= 1")


def validate_colouring(
    g: Graph, colouring: Colouring, d: int, require_perfect: bool = False
) -> Union[CutCertificate, Violation]:
    """Check a total colouring against the d-cut conditions.

    Accepts iff every vertex has at most d (exactly d when perfect is
    required) opposite-coloured neighbours and both colours occur, by
    :func:`_certify`'s check on the masks.  On failure the report names
    the first offending vertex in id order.
    """
    _check_d(d)
    if len(colouring) != g.n:
        raise PartialColouring(
            f"colouring has {len(colouring)} entries for n={g.n}"
        )
    x, y = masks_of(colouring)
    cert = _certify(g, x, y, d, require_perfect)
    if cert:
        return cert
    for v, av in enumerate(g.adj_bits):
        k = (av & (y if (x >> v) & 1 else x)).bit_count()
        if k > d:
            return Violation(
                v, f"vertex {v} has {k} opposite-coloured neighbours (max {d})"
            )
        if require_perfect and k != d:
            return Violation(
                v, f"vertex {v} has {k} != {d} opposite-coloured neighbours"
            )
    return Violation(None, "colouring is monochromatic")


def process_masks(
    adj_bits: Sequence[int], n: int, x: int, y: int, d: int
) -> Optional[tuple[int, int]]:
    """The branch start: red/blue masks grown to their forcing fixpoint
    and checked; None means rejected.

    Rule: an uncoloured vertex with more than d neighbours in one colour
    class joins that class.  Every uncoloured vertex is examined, and each
    vertex coloured queues its uncoloured neighbours again.  A vertex
    forced into both classes rejects at once; the fixpoint is then kept
    only when :func:`local_masks_valid` accepts it.  Counts only grow, so
    the outcome is independent of rule order, the closure is inflationary
    and idempotent, and a total colouring is a valid extension of the
    input masks iff it is one of the result.  Branch steps run
    :func:`extend_masks`.
    """
    dirty = ((1 << n) - 1) & ~(x | y)
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        av = adj_bits[low.bit_length() - 1]
        if (av & x).bit_count() > d:
            if (av & y).bit_count() > d:
                return None
            x |= low
        elif (av & y).bit_count() > d:
            y |= low
        else:
            continue
        dirty |= av & ~(x | y)
    return (x, y) if local_masks_valid(adj_bits, x, y, d) else None


def extend_masks(
    adj_bits: Sequence[int], own: int, opposite: int, v: int, d: int
) -> Optional[int]:
    """Colour the uncoloured vertex v into class ``own`` of a state that
    :func:`process_masks` accepts; the grown class of the closed, checked
    result, or None.  An opposite neighbour of v already at budget rejects
    before any forcing; the rest forces into ``own`` alone and checks the
    opposite neighbours of the vertices coloured."""
    av = adj_bits[v]
    if not _within_budget(adj_bits, av & opposite, own, d - 1):
        return None
    own |= 1 << v
    gained = av
    todo = av & ~(own | opposite)
    while todo:
        low = todo & -todo
        todo ^= low
        au = adj_bits[low.bit_length() - 1]
        if (au & own).bit_count() > d:
            own |= low
            gained |= au
            todo |= au & ~(own | opposite)
    return own if _within_budget(adj_bits, gained & opposite, own, d) else None


def _within_budget(
    adj_bits: Sequence[int], m: int, opposite: int, d: int, lo: int = 0
) -> bool:
    """Every vertex of m has lo to d neighbours in ``opposite``."""
    while m:
        low = m & -m
        m ^= low
        k = (adj_bits[low.bit_length() - 1] & opposite).bit_count()
        if k > d or k < lo:
            return False
    return True


def local_masks_valid(
    adj_bits: Sequence[int], x: int, y: int, d: int
) -> bool:
    """No coloured vertex exceeds d opposite neighbours among coloured ones."""
    return _within_budget(adj_bits, x, y, d) and _within_budget(adj_bits, y, x, d)


def max_bipartite_matching(nbrs: dict[int, int]) -> dict[int, int]:
    """Maximum-cardinality bipartite matching as a left -> right dict.

    ``nbrs`` maps each left vertex to the bitmask of right vertices it may
    take.  Left vertices are augmented in the mapping's order and right
    vertices tried in ascending order, so the result is deterministic.  A
    left vertex that fails to augment in its turn stays unmatched: later
    augmenting paths only pass through matched left vertices.

    The depth-first augmenting search runs on an explicit stack of
    [left vertex, untried rights, right taken], so a path of any length
    needs no recursion; on reaching a free right vertex every entry takes
    its right.
    """
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    for root in nbrs:
        visited = 0
        stack = [[root, nbrs[root], 0]]
        while stack:
            top = stack[-1]
            untried = top[1] & ~visited
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            visited |= low
            w = low.bit_length() - 1
            top[1], top[2] = untried ^ low, w
            if w in match_right:
                u = match_right[w]
                stack.append([u, nbrs[u], 0])
                continue
            for u, _, w in stack:
                match_left[u] = w
                match_right[w] = u
            break
    return match_left


def complete_independent_max_cut(
    g: Graph, x: int, y: int
) -> Optional[CutCertificate]:
    """Extend processed red/blue masks over an independent uncoloured set,
    maximising the number of bichromatic edges (d=1).

    Every uncoloured vertex has at most one red and at most one blue
    neighbour, all coloured.  Giving it the colour opposite to a neighbour
    gains one cut edge and consumes that neighbour's unit budget, so the
    optimum is a maximum matching between uncoloured vertices and the
    coloured neighbours whose budget is still free.  Vertices seeing both
    colours gain one edge either way and must be matched; they are
    augmented first, and if they cannot all be matched no valid extension
    exists.  Returns None when no extension passes validation.  Nothing
    needs connectivity: an uncoloured vertex with no neighbour gains no
    edge and takes red, or blue when no other vertex is blue.
    """
    if x & y:
        raise PreconditionViolation("red and blue masks must be disjoint")
    u_mask = ((1 << g.n) - 1) & ~(x | y)
    adj = g.adj_bits
    forced: list[int] = []
    optional: list[int] = []
    for u in iter_bits(u_mask):
        rx = adj[u] & x
        ry = adj[u] & y
        if adj[u] & u_mask:
            raise PreconditionViolation(
                "uncoloured vertices are not independent"
            )
        if rx.bit_count() > 1 or ry.bit_count() > 1:
            raise PreconditionViolation(
                f"vertex {u} has more than one coloured neighbour per colour;"
                " pair is not colour-processed for d=1"
            )
        if rx and ry:
            forced.append(u)
        elif rx or ry:
            optional.append(u)
    free = 0
    for w in iter_bits(x | y):
        if not adj[w] & (y if (x >> w) & 1 else x):
            free |= 1 << w
    matched = max_bipartite_matching({u: adj[u] & free for u in forced + optional})
    if any(u not in matched for u in forced):
        return None
    for u in iter_bits(u_mask):
        w = matched.get(u)
        if w is not None:
            # take the colour opposite to the matched neighbour
            if (x >> w) & 1:
                y |= 1 << u
            else:
                x |= 1 << u
        else:
            nbrs = adj[u] & (x | y)
            if nbrs and nbrs & x == 0:
                y |= 1 << u
            else:
                x |= 1 << u
    lone = next((1 << u for u in iter_bits(u_mask) if not adj[u]), 0)
    if lone and not y:  # a vertex without neighbours may be the blue one
        x, y = x ^ lone, lone
    return _certify(g, x, y, 1)


def complete_independent_perfect(
    g: Graph, x: int, y: int
) -> Optional[CutCertificate]:
    """Extend processed red/blue masks over an independent uncoloured set
    to a perfect cut (every vertex exactly one opposite neighbour), or None.

    That is the maximum completion when it has n/2 edges.  A perfect
    extension is a matching-cut extension with n/2 edges and no matching
    cut has more, so the maximum reaches n/2.  Conversely, a valid 1-cut
    gives each vertex at most one cut edge, and n/2 edges have n ends, so
    every vertex has exactly one opposite neighbour.
    """
    cert = complete_independent_max_cut(g, x, y)
    if cert is None or 2 * cert.size != g.n:
        return None
    return replace(cert, perfect=True)
