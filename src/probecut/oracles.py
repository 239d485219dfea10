"""Exhaustive reference solvers.

These stay deliberately simple: full enumeration over colourings,
assignments or candidate edge sets, guarded by hard scale limits.  The one
exception is :func:`backtrack_dcut`, an exhaustive depth-first decision
procedure with forced-move propagation; it exists because the reduction
outputs checked by the acceptance suite are far beyond the 2^(n-1)
enumeration guard, and it is itself cross-validated against the plain
enumerators on every input small enough for both.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .errors import OracleScaleExceeded
from .graph import (
    Graph,
    Pattern,
    PartitionedProbeGraph,
    ProbeCertificate,
    find_induced,
    iter_bits,
)
from .colouring import (
    CutCertificate,
    colouring_of,
    validate_colouring,
)
from .reductions import SatInstance

DEFAULT_COLOURING_LIMIT = 24
DEFAULT_CERTIFICATE_LIMIT = 8

_ENV_LIMIT = "PROBECUT_ORACLE_MAX_N"


def _limit(default: int, override: Optional[int]) -> int:
    if override is not None:
        return override
    env = os.environ.get(_ENV_LIMIT)
    if env:
        return int(env)
    return default


def _colourings(
    g: Graph, d: int, lo: int, max_n: Optional[int]
) -> Iterator[int]:
    """Blue masks of the colourings in which every vertex has between lo
    and d opposite-coloured neighbours, in counter order.

    Vertex 0 is pinned red (a colour swap preserves validity).  Bit v-1 of
    the counter holds vertex v's colour (set = blue), so low counters keep
    low-id vertices red and the scan order is deterministic.  The scale
    guard runs on the first step.
    """
    limit = _limit(DEFAULT_COLOURING_LIMIT, max_n)
    if g.n > limit:
        raise OracleScaleExceeded(f"n={g.n} exceeds oracle limit {limit}")
    adj = g.adj_bits
    n = g.n
    full = (1 << n) - 1
    for counter in range(1, 1 << max(n - 1, 0)):
        blue = counter << 1
        red = full & ~blue
        for v in range(n):
            opposite = blue if (red >> v) & 1 else red
            k = (adj[v] & opposite).bit_count()
            if k > d or k < lo:
                break
        else:
            yield blue


def _certificate(g: Graph, blue: int, d: int, perfect: bool) -> CutCertificate:
    result = validate_colouring(
        g, colouring_of(g.n, ((1 << g.n) - 1) & ~blue, blue), d, perfect
    )
    assert isinstance(result, CutCertificate)
    return result


def brute_dcut(
    g: Graph, d: int, *, max_n: Optional[int] = None
) -> Optional[CutCertificate]:
    """First red-blue d-colouring in counter order, or None."""
    blue = next(_colourings(g, d, 0, max_n), None)
    return None if blue is None else _certificate(g, blue, d, False)


def brute_pmc(
    g: Graph, *, max_n: Optional[int] = None
) -> Optional[CutCertificate]:
    """First perfect matching cut (perfect 1-colouring) in counter order."""
    blue = next(_colourings(g, 1, 1, max_n), None)
    return None if blue is None else _certificate(g, blue, 1, True)


def brute_mmc(
    g: Graph, *, max_n: Optional[int] = None
) -> Optional[tuple[int, CutCertificate]]:
    """Maximum matching cut size with a witness, or None if no matching
    cut; the first maximum in counter order wins."""
    adj = g.adj_bits
    best: Optional[tuple[int, int]] = None  # (size, blue mask)
    for blue in _colourings(g, 1, 0, max_n):
        size = sum((adj[v] & ~blue).bit_count() for v in iter_bits(blue))
        if best is None or size > best[0]:
            best = (size, blue)
    if best is None:
        return None
    size, blue = best
    result = _certificate(g, blue, 1, False)
    assert result.size == size
    return size, result


def brute_sat(
    inst: SatInstance, *, max_n: Optional[int] = None
) -> Optional[tuple[bool, ...]]:
    """First satisfying assignment in counter order, or None.

    A positive clause needs a true member, a negative clause a false one.
    Shape conditions are not checked here; any clause sizes are accepted.
    """
    limit = _limit(DEFAULT_COLOURING_LIMIT, max_n)
    n = inst.n_vars
    if n > limit:
        raise OracleScaleExceeded(f"{n} variables exceed oracle limit {limit}")
    pos_masks = [sum(1 << v for v in c) for c in inst.positive_clauses]
    neg_masks = [sum(1 << v for v in c) for c in inst.negative_clauses]
    for assignment in range(1 << n):
        if all(assignment & m for m in pos_masks) and all(
            assignment & m != m for m in neg_masks
        ):
            return tuple(bool((assignment >> v) & 1) for v in range(n))
    return None


def brute_probe_certificate(
    ppg: PartitionedProbeGraph, h: Pattern, *, max_n: Optional[int] = None
) -> Optional[ProbeCertificate]:
    """Search all candidate edge sets inside the non-probe side for one
    whose addition makes the graph pattern-free."""
    limit = _limit(DEFAULT_CERTIFICATE_LIMIT, max_n)
    nonprobes = sorted(ppg.nonprobes)
    if len(nonprobes) > limit:
        raise OracleScaleExceeded(
            f"|N|={len(nonprobes)} exceeds certificate search limit {limit}"
        )
    g = ppg.graph
    pairs = [
        (u, v)
        for i, u in enumerate(nonprobes)
        for v in nonprobes[i + 1 :]
        if not g.has_edge(u, v)
    ]
    for counter in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if (counter >> i) & 1]
        candidate = g.with_edges(chosen) if chosen else g
        if find_induced(candidate, h) is None:
            return ProbeCertificate.of(chosen)
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
    """
    n = g.n
    if n < 2:
        return None
    adj = g.adj_bits
    full = (1 << n) - 1

    def propagate(x: int, y: int) -> Optional[tuple[int, int]]:
        while True:
            changed = False
            coloured = x | y
            for v in iter_bits(coloured):
                mine, other = (x, y) if (x >> v) & 1 else (y, x)
                av = adj[v]
                opp = (av & other).bit_count()
                unc = av & ~coloured
                if opp > d:
                    return None
                if require_perfect and opp + unc.bit_count() < d:
                    return None
                if opp == d and unc:
                    # no budget left: uncoloured neighbours take my colour
                    if (x >> v) & 1:
                        x |= unc
                    else:
                        y |= unc
                    changed = True
                    break
                if require_perfect and unc and opp + unc.bit_count() == d:
                    # every remaining neighbour must be opposite
                    if (x >> v) & 1:
                        y |= unc
                    else:
                        x |= unc
                    changed = True
                    break
            if not changed:
                return x, y

    def search(x: int, y: int) -> Optional[tuple[int, int]]:
        state = propagate(x, y)
        if state is None:
            return None
        x, y = state
        uncoloured = full & ~(x | y)
        if not uncoloured:
            result = validate_colouring(
                g, colouring_of(n, x, y), d, require_perfect
            )
            return (x, y) if isinstance(result, CutCertificate) else None
        # branch on the uncoloured vertex with most coloured neighbours
        best_v, best_key = -1, (-1, 0)
        for v in iter_bits(uncoloured):
            key = ((adj[v] & (x | y)).bit_count(), -v)
            if key > best_key:
                best_key, best_v = key, v
        bit = 1 << best_v
        return search(x | bit, y) or search(x, y | bit)

    found = search(1, 0)
    if found is None:
        return None
    result = validate_colouring(
        g, colouring_of(n, found[0], found[1]), d, require_perfect
    )
    assert isinstance(result, CutCertificate)
    return result
