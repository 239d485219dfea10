"""Shared fixtures and small graph builders for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import HealthCheck, settings

from probecut import (
    Graph,
    PartitionedProbeGraph,
    build_graph,
    is_connected,
)
from probecut.colouring import _certify
from probecut.graph import _nbhd

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def path_graph(t: int) -> Graph:
    return build_graph(t, [(i, i + 1) for i in range(t - 1)])


def cycle_graph(r: int) -> Graph:
    return build_graph(r, [(i, (i + 1) % r) for i in range(r)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cube_graph() -> Graph:
    edges = [
        (u, v)
        for u in range(8)
        for v in range(u + 1, 8)
        if bin(u ^ v).count("1") == 1
    ]
    return build_graph(8, edges)


def all_probes(g: Graph) -> PartitionedProbeGraph:
    return PartitionedProbeGraph(g, frozenset(range(g.n)), frozenset())


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    for step in range(200):
        g = random_graph(n, p, seed * 1000 + step)
        if is_connected(g):
            return g
    raise AssertionError(f"no connected graph found for n={n}, p={p}")


def random_cubic_graph(n: int, seed: int) -> Graph | None:
    """Connected 3-regular graph on n vertices via stub pairing, or None."""
    rng = random.Random(seed)
    for _ in range(500):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in pairs:
                ok = False
                break
            pairs.add((min(a, b), max(a, b)))
        if not ok:
            continue
        g = build_graph(n, sorted(pairs))
        if is_connected(g):
            return g
    return None


def exhaustive_induced(g: Graph, h) -> bool:
    """Reference check: scan every injective placement of the pattern."""
    k = h.graph.n
    if k > g.n:
        return False
    for placed in itertools.permutations(range(g.n), k):
        if all(
            h.graph.has_edge(i, j) == g.has_edge(placed[i], placed[j])
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return True
    return False


def reference_closure(adj, n, x, y, d):
    """Reference forcing closure on red/blue masks, kept apart from
    ``probecut.colouring``: the forcing fixpoint (None when a vertex is
    forced into both classes), then the overload scan rejecting any
    coloured vertex with more than d neighbours in each class.  It runs no
    budget check of its own."""
    dirty = ((1 << n) - 1) & ~(x | y)
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        av = adj[low.bit_length() - 1]
        if (av & x).bit_count() > d:
            if (av & y).bit_count() > d:
                return None
            x |= low
        elif (av & y).bit_count() > d:
            y |= low
        else:
            continue
        dirty |= av & ~(x | y)
    for v in range(n):
        if (x | y) >> v & 1:
            if (adj[v] & x).bit_count() > d and (adj[v] & y).bit_count() > d:
                return None
    return x, y


def reference_backtrack_dcut(g: Graph, d: int, require_perfect: bool = False):
    """Reference copy of ``oracles.backtrack_dcut`` with its closure in a
    nested ``propagate`` that rechecks every coloured neighbour of a newly
    coloured vertex, whatever its colour.  Same branch rule, red-first
    order and leaf validation, so the oracle must return the same result,
    certificate for certificate."""
    n = g.n
    if n < 2:
        return None
    adj = g.adj_bits
    full = (1 << n) - 1

    def propagate(x, y, dirty, reach):
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
                to_red = bool(red)
            elif require_perfect and free == d:
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
