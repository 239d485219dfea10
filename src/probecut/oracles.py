"""Exhaustive reference solvers.

These stay deliberately simple: counter-order scans over colourings,
assignments or candidate edge sets, guarded by hard scale limits.  The
scans jump over each block of counters that one failed vertex, clause or
pattern test rules out (every counter in it agrees with the failing one
on all bits that test reads), so they yield what full enumeration
yields, in the same order: the first answer and the maximum kept on ties
do not change.  The one exception is :func:`backtrack_dcut`,
an exhaustive depth-first decision procedure with forced-move
propagation; it exists because the reduction outputs checked by the
acceptance suite are far beyond the 2^(n-1) enumeration guard, and it is
itself cross-validated against the plain enumerators on every input small
enough for both.

A vertex of the colouring scan with more than d opposite neighbours
rules out more than the bits it reads: every counter that keeps its own
bit and those of d+1 of those neighbours fails too, vertex 0 (whose
colour never varies) counted first and then the highest.  So the block
it rules out starts at the lowest of those bits.
"""

from __future__ import annotations

import os
from bisect import insort
from itertools import combinations
from typing import Iterator, Optional

from .errors import OracleScaleExceeded
from .graph import (
    Graph,
    Pattern,
    PartitionedProbeGraph,
    ProbeCertificate,
    _free,
    _nbhd,
    find_induced,
    iter_bits,
)
from .colouring import CutCertificate, _certify, _check_d
from .reductions import SatInstance

DEFAULT_COLOURING_LIMIT = 24
DEFAULT_CERTIFICATE_LIMIT = 8

_ENV_LIMIT = "PROBECUT_ORACLE_MAX_N"


def _check_scale(
    size: int, label: str = "n", default: int = DEFAULT_COLOURING_LIMIT
) -> None:
    """Refuse an oracle input whose ``label`` count exceeds the limit: the
    environment override if set, else ``default``.  An override that is
    not a non-negative integer is a ValueError."""
    env = os.environ.get(_ENV_LIMIT)
    if env and not env.isdecimal():
        raise ValueError(
            f"{_ENV_LIMIT} must be a non-negative integer, got {env!r}"
        )
    limit = int(env) if env else default
    if size > limit:
        raise OracleScaleExceeded(f"{label}={size} exceeds oracle limit {limit}")


def _colourings(g: Graph, d: int, lo: int) -> Iterator[int]:
    """Blue masks of the colourings in which every vertex has between lo
    and d opposite-coloured neighbours, in counter order.

    Vertex 0 is pinned red (a colour swap preserves validity).  Bit v-1 of
    the counter holds vertex v's colour (set = blue), so low counters keep
    low-id vertices red and the scan order is deterministic.  The scale
    guard runs on the first step.

    Instead of testing every counter, the scan skips blocks that cannot
    yield.  Vertex v's test reads only the colours of N[v], whose lowest
    varying counter bit is that of ``low``, the least vertex other than 0
    in N[v].  When v fails, every counter up to ``counter | below`` agrees
    with this one on bits ``low - 1`` and up, so v fails there too and the
    scan jumps past them.

    A vertex with too many opposite neighbours (k > d) allows a longer
    jump.  It fails on every counter that keeps its own colour and d+1 of
    those neighbours opposite, so only the bits of v and of d+1 of them
    need to stay.  Vertex 0 never varies, so it is one of the d+1 for free
    whenever it is opposite; the rest are the highest, which puts p, the
    lowest bit kept, as high as it goes.  The scan jumps to
    ``(counter | ((1 << p) - 1)) + 1``: every counter skipped agrees with
    this one on bits p and up.  All those bits belong to N[v] - {0}, so p
    is never below ``low - 1`` and no jump gets shorter.  p can beat
    ``low - 1`` only when v is not the least vertex of N[v] - {0}, so only
    those vertices do the extra bit work.  A vertex with too few
    (k < lo) keeps the block jump: its test reads every bit of N[v].

    Only invalid colourings are skipped, so the valid ones come in the
    same order as from the plain counter loop, and the first one found
    (what ``brute_*`` return) stays the same.  Vertices are tested in
    descending ``low``, least id on ties, and the first that fails sets
    the jump; a vertex that cannot fail (lo = 0 and degree at most d) is
    not tested.
    """
    _check_scale(g.n)
    adj = g.adj_bits
    n = g.n
    full = (1 << n) - 1
    end = 1 << max(n - 1, 0)
    order = []  # (-low, v, below, own) for each vertex that can fail
    for v in range(n):
        if lo > 0 or adj[v].bit_count() > d:
            near = (adj[v] | 1 << v) & ~1  # vertex 0's colour never varies
            low = (near & -near).bit_length() - 1 if near else n
            # own: v's counter bit (for vertex 0, one above them all), or
            # 0 when v is the least of N[v] - {0}: the block jump is as far
            own = 0 if low == v else 1 << v >> 1 if v else end
            order.append((-low, v, (1 << max(low - 1, 0)) - 1, own))
    order.sort()
    checks = [(adj[v], 1 << v, below, own) for _, v, below, own in order]
    d1 = d + 1
    counter = 1
    while counter < end:
        blue = counter << 1
        red = full & ~blue
        for av, bit, below, own in checks:
            opp = av & (blue if red & bit else red)
            k = opp.bit_count()
            if k > d:
                if own:
                    # keep v's bit and d+1 opposite neighbours: vertex 0
                    # (bit 0 of opp, no counter bit) if opposite, then the
                    # highest; so strip the k - d - 1 lowest of the rest
                    # and p is the least of their lowest and v's own bit
                    top = opp >> 1
                    while k > d1:
                        top &= top - 1
                        k -= 1
                    keep = top & -top  # 0 if vertex 0 alone is kept
                    below = (keep if 0 < keep < own else own) - 1
                counter = (counter | below) + 1
                break
            if k < lo:
                counter = (counter | below) + 1
                break
        else:
            yield blue
            counter += 1


def _certificate(g: Graph, blue: int, d: int, perfect: bool) -> CutCertificate:
    cert = _certify(g, ((1 << g.n) - 1) & ~blue, blue, d, perfect)
    assert cert is not None  # the scan yields only valid colourings
    return cert


def brute_dcut(g: Graph, d: int) -> Optional[CutCertificate]:
    """First red-blue d-colouring in counter order, or None."""
    _check_d(d)
    blue = next(_colourings(g, d, 0), None)
    return None if blue is None else _certificate(g, blue, d, False)


def brute_pmc(g: Graph) -> Optional[CutCertificate]:
    """First perfect matching cut (perfect 1-colouring) in counter order."""
    blue = next(_colourings(g, 1, 1), None)
    return None if blue is None else _certificate(g, blue, 1, True)


def brute_mmc(g: Graph) -> Optional[tuple[int, CutCertificate]]:
    """Maximum matching cut size with a witness, or None if no matching
    cut; the first maximum in counter order wins."""
    adj = g.adj_bits
    best: Optional[tuple[int, int]] = None  # (size, blue mask)
    for blue in _colourings(g, 1, 0):
        size = sum((adj[v] & ~blue).bit_count() for v in iter_bits(blue))
        if best is None or size > best[0]:
            best = (size, blue)
    if best is None:
        return None
    size, blue = best
    result = _certificate(g, blue, 1, False)
    assert result.size == size
    return size, result


def brute_sat(inst: SatInstance) -> Optional[tuple[bool, ...]]:
    """First satisfying assignment in counter order, or None.

    A positive clause needs a true member, a negative clause a false one.
    Shape conditions are not checked here; any clause sizes are accepted.
    """
    n = inst.n_vars
    _check_scale(n, "n_vars")
    # a clause fails when its variables read `bad`: all false for a
    # positive clause, all true for a negative one; an empty clause always
    # fails.  Assignments that agree with a failing one on the clause's
    # variables (bits min(c) and up) fail too, so the loop jumps past them,
    # testing clauses in descending least variable as _colourings does.
    checks = []
    for clauses, positive in (
        (inst.positive_clauses, True),
        (inst.negative_clauses, False),
    ):
        for c in clauses:
            m = sum(1 << v for v in c)
            low = min(c, default=n)
            checks.append((-low, m, 0 if positive else m, (1 << low) - 1))
    checks.sort(key=lambda t: t[0])
    end = 1 << n
    assignment = 0
    while assignment < end:
        for _, m, bad, below in checks:
            if assignment & m == bad:
                assignment = (assignment | below) + 1
                break
        else:
            return tuple(bool((assignment >> v) & 1) for v in range(n))
    return None


def brute_probe_certificate(
    ppg: PartitionedProbeGraph, h: Pattern
) -> Optional[ProbeCertificate]:
    """First candidate edge set inside the non-probe side, in counter
    order, whose addition makes the graph pattern-free, or None.

    Bit i of the counter chooses the i-th non-probe pair.  An
    occurrence of the pattern on a vertex set S depends only on the pairs
    inside S, so every counter that agrees with this one on their bits
    fails too: a nogood.  Let i be its least bit.  If bit i is clear, the
    scan jumps to ``(counter | ((1 << i) - 1)) + 1``, past every counter
    that agrees with this one on bits i and up, and keeps the nogood's
    other bits as ``why0[i]``, the reason the counters with bit i clear
    failed.  If bit i is set, ``why0[i]`` ruled out those counters under
    the same higher bits; joined, the two rule out both values of bit i
    on their higher bits alone, and the scan goes on from the next least
    bit.  A nogood with no bits left (S holds no candidate pair, or every
    branch is ruled out) means no edge set works.  Nogoods found are
    tested before each ``find_induced`` call, largest jump first.  Only
    failing counters are skipped, so the result is the plain loop's.
    A probe side that holds the pattern by itself answers "no" at once.
    """
    nonprobes = sorted(ppg.nonprobes)
    _check_scale(len(nonprobes), "|N|", DEFAULT_CERTIFICATE_LIMIT)
    g = ppg.graph
    if not _free(g, h, sum(1 << v for v in ppg.probes)):
        return None
    pairs = list(combinations(nonprobes, 2))
    ends = [1 << u | 1 << v for u, v in pairs]
    nogoods: list[tuple[int, int, int]] = []  # (-least bit, bits, values)
    why0 = [0] * len(pairs)
    counter = 0
    while True:
        for _, mask, values in nogoods:
            if counter & mask == values:
                break
        else:
            chosen = [p for i, p in enumerate(pairs) if (counter >> i) & 1]
            candidate = g.with_edges(chosen) if chosen else g
            occurrence = find_induced(candidate, h)
            if occurrence is None:
                return ProbeCertificate.of(chosen)
            s = sum(1 << v for v in occurrence.values())
            mask = sum(1 << i for i, m in enumerate(ends) if m & s == m)
            least = (mask & -mask).bit_length()
            insort(nogoods, (-least, mask, counter & mask))
        # every counter that agrees with this one on the bits of mask fails
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            if counter & bit:
                mask |= why0[i]
            else:
                why0[i] = mask
                counter = (counter | (bit - 1)) + 1
                break
        else:
            return None


def backtrack_dcut(
    g: Graph, d: int, require_perfect: bool = False
) -> Optional[CutCertificate]:
    """Exact d-cut (or perfect matching cut) decision by exhaustive
    depth-first search with forced-move propagation.

    Vertex 0 is pinned red.  A partial colouring is abandoned as soon as a
    vertex exceeds d opposite-coloured neighbours, or, in the perfect case,
    can no longer reach exactly d.  A vertex whose budget is exhausted
    forces its uncoloured neighbours to its own colour; in the perfect case
    a vertex that needs all its remaining neighbours forces them opposite.
    Every leaf is validated, so the result is exactly that of the plain
    enumeration oracles (checked by tests on shared scales).

    Propagation runs a work queue holding only the vertices whose counts
    just changed: the newly coloured ones and their coloured neighbours.
    The order in which rules fire does not matter.  Colours are only
    added, so a vertex's opposite count only grows and its count of
    neighbours not sharing its colour only shrinks; a rule that applies,
    or a failure that shows, in one state does so in every larger one.
    Every forced colour is thus shared by all valid completions, and the
    closure is one state, or a failure, in every firing order.

    The search runs on an explicit stack, so deep inputs need no
    recursion.  It branches on the uncoloured vertex with most coloured
    neighbours, least id on ties; only vertices in ``reach`` (neighbours
    of coloured vertices) can have any, so the rest are looked at only
    when none is left.  The red child is pushed last and so expanded
    first: the first valid leaf is that of the red-first depth-first
    search.
    """
    _check_d(d)
    n = g.n
    if n < 2:
        return None
    adj = g.adj_bits
    full = (1 << n) - 1

    def propagate(
        x: int, y: int, dirty: int, reach: int
    ) -> Optional[tuple[int, int, int]]:
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            av = adj[low.bit_length() - 1]
            red = x & low
            opp = (av & (y if red else x)).bit_count()
            if opp > d:
                return None
            unc = av & ~(x | y)
            free = opp + unc.bit_count()
            if require_perfect and free < d:
                return None
            if not unc:
                continue
            if opp == d:
                # no budget left: uncoloured neighbours take my colour
                to_red = bool(red)
            elif require_perfect and free == d:
                # every remaining neighbour must be opposite
                to_red = not red
            else:
                continue
            if to_red:
                x |= unc
            else:
                y |= unc
            touched = unc | _nbhd(adj, unc)
            dirty |= touched & (x | y)
            reach |= touched
        return x, y, reach

    stack = [(1, 0, 1, adj[0])]
    while stack:
        state = propagate(*stack.pop())
        if state is None:
            continue
        x, y, reach = state
        coloured = x | y
        uncoloured = full & ~coloured
        if not uncoloured:
            cert = _certify(g, x, y, d, require_perfect)
            if cert:
                return cert
            continue
        # branch on the uncoloured vertex with most coloured neighbours
        cand = reach & uncoloured or uncoloured & -uncoloured
        best_v, best_k = -1, -1
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            k = (adj[v] & coloured).bit_count()
            if k > best_k:
                best_v, best_k = v, k
        bit = 1 << best_v
        dirty = bit | (adj[best_v] & coloured)
        reach |= adj[best_v]
        stack.append((x, y | bit, dirty, reach))
        stack.append((x | bit, y, dirty, reach))
    return None
