"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data; the
solve-workload instances come with the certificate that makes them
probe (P1+P4)-free, which setup checks with the program's own
``verify_probe_certificate``.

The ``solve`` variants all start from a cograph G* (P4-free, hence
P1+P4-free) and delete every edge inside the chosen non-probe side; the
deleted edges are the certificate.

* ``cotree``: a random cotree with a join at the root, n/2 + 1 non-probes,
  the probe side connected and every non-probe of degree >= 4.
  No non-probe can stand alone on its side for d <= 3, so ``solve_dcut``
  skips the ``mono-probe`` shortcut and runs the exhaustive
  ``cograph-1comp`` case.
* ``p4-join``: an induced P4 on probes joined to a random cograph.  An
  induced P4 of a join lies inside one side, so G* stays P1+P4-free, and
  the probe-side P4 sends the solver to ``p4-dominating``.
* ``hub``: a non-probe hub joined to three to five connected cographs,
  every other non-probe of degree >= 4: the hub is complete to a probe
  side with three or more components (``multi-comp/type-a``).
* ``hub-leaf``: the same shape with some non-probe of degree <= 2, so the
  lone-non-probe step answers yes (``mono-probe``).

Each variant keeps its edge density inside a window around its typical
value: parsing, building and solving costs grow with the edge count, and
the free density of a random cotree varies by about +-25 % from instance
to instance, which would make the cost of a run depend on the seed.
"""

from __future__ import annotations

import random

from probecut.graph import (
    PartitionedProbeGraph,
    ProbeCertificate,
    build_graph,
    is_connected,
)

VARIANTS = ("cotree", "p4-join", "hub", "hub-leaf")
DENSITY = {
    "cotree": (0.48, 0.60),
    "p4-join": (0.44, 0.56),
    "hub": (0.28, 0.40),
    "hub-leaf": (0.17, 0.27),
}


def cotree_edges(verts: list[int], rng: random.Random, join: bool) -> list[tuple[int, int]]:
    """Edges of a random cograph on ``verts``: the root is a join (or a
    union) of 2-4 random parts, and node types alternate below it."""
    edges: list[tuple[int, int]] = []
    stack = [(list(verts), join)]
    while stack:
        part, is_join = stack.pop()
        if len(part) < 2:
            continue
        rng.shuffle(part)
        k = rng.randint(2, min(4, len(part)))
        cuts = sorted(rng.sample(range(1, len(part)), k - 1))
        kids = [part[a:b] for a, b in zip([0] + cuts, cuts + [len(part)])]
        if is_join:
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    edges += [(u, v) for u in a for v in b]
        stack += [(kid, not is_join) for kid in kids]
    return edges


def _split(n: int, edges, nonprobes: frozenset[int]):
    """Delete the non-probe edges; return the instance and its certificate."""
    kept = [(u, v) for u, v in edges if not (u in nonprobes and v in nonprobes)]
    deleted = [(u, v) for u, v in edges if u in nonprobes and v in nonprobes]
    g = build_graph(n, kept)
    ppg = PartitionedProbeGraph(g, frozenset(range(n)) - nonprobes, nonprobes)
    return ppg, ProbeCertificate.of(deleted)


def _probe_side_connected(ppg: PartitionedProbeGraph) -> bool:
    probes = sorted(ppg.probes)
    mask = sum(1 << v for v in probes)
    seen = 1 << probes[0]
    frontier = seen
    adj = ppg.graph.adj_bits
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adj[v] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def _min_nonprobe_degree(ppg: PartitionedProbeGraph) -> int:
    return min(ppg.graph.degree(v) for v in ppg.nonprobes)


def _cotree(n: int, rng: random.Random):
    edges = cotree_edges(list(range(n)), rng, True)
    ppg, cert = _split(n, edges, frozenset(rng.sample(range(n), n // 2 + 1)))
    ok = (
        is_connected(ppg.graph)
        and _probe_side_connected(ppg)
        and _min_nonprobe_degree(ppg) >= 4
    )
    return (ppg, cert) if ok else None


def _p4_join(n: int, rng: random.Random):
    rest = list(range(4, n))
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += cotree_edges(rest, rng, rng.random() < 0.5)
    edges += [(u, v) for u in range(4) for v in rest]
    return _split(n, edges, frozenset(rng.sample(rest, n // 2)))


def _hub(n: int, rng: random.Random, leaf: bool):
    rest = list(range(1, n))
    rng.shuffle(rest)
    k = rng.randint(3, 5)
    cuts = sorted(rng.sample(range(1, len(rest)), k - 1))
    groups = [rest[a:b] for a, b in zip([0] + cuts, cuts + [len(rest)])]
    edges = [(0, v) for v in rest]
    for group in groups:
        edges += cotree_edges(group, rng, True)
    # every group keeps a probe, so the probe side has >= 3 components
    nonprobes = {0}
    for group in groups:
        nonprobes.update(rng.sample(group, (len(group) - 1) // 2))
    ppg, cert = _split(n, edges, frozenset(nonprobes))
    if not is_connected(ppg.graph):
        return None
    low = _min_nonprobe_degree(ppg)
    return (ppg, cert) if (low <= 2 if leaf else low >= 4) else None


def probe_instance(variant: str, n: int, rng: random.Random, attempts: int = 2000):
    """A certified partitioned probe instance of the named variant."""
    low, high = DENSITY[variant]
    for _ in range(attempts):
        if variant == "cotree":
            made = _cotree(n, rng)
        elif variant == "p4-join":
            made = _p4_join(n, rng)
        else:
            made = _hub(n, rng, variant == "hub-leaf")
        if made is not None and low <= made[0].graph.edge_count() / (n * (n - 1) / 2) <= high:
            return made
    raise RuntimeError(f"no {variant} instance with n={n} in {attempts} attempts")


def connected_graph(n: int, p: float, rng: random.Random):
    """A connected G(n, p) graph."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        if edges and is_connected(g):
            return g


def cubic_graph(n: int, rng: random.Random):
    """A connected 3-regular graph on n vertices by stub pairing."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) * 2 != len(stubs) or any(a == b for a, b in pairs):
            continue
        g = build_graph(n, sorted(pairs))
        if is_connected(g):
            return g
