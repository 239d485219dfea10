"""Graph representation, induced-pattern search, cograph decomposition,
probe partitions and certified random instance generation.

Vertices are dense integers ``0..n-1``.  Adjacency is exposed both as
frozensets (``Graph.adj``) and as int bitmasks (``Graph.adj_bits``); the
bitmasks are what every hot loop in the package runs on.

The cograph decomposition is one frontier BFS that splits a vertex mask
into its components or those of its complement, ordered by least vertex;
:func:`cograph_split`, :func:`is_connected`, :func:`connected_components`
and :func:`is_p4_free` (a worklist, so no recursion) all run on it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import (
    GenerationTimeout,
    InvalidCertificate,
    InvalidEdge,
    InvalidInstance,
    UnsupportedPattern,
)


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj", "adj_bits")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...]):
        self.n = n
        self.adj = adj
        self.adj_bits = tuple(
            sum(1 << u for u in neighbours) for neighbours in adj
        )

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [
            (u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v
        ]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """Copy of the graph with the given edges added."""
        return build_graph(self.n, self.edges() + [tuple(e) for e in extra])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, deduplicating as needed.

    Raises :class:`InvalidEdge` for out-of-range endpoints or self-loops.
    """
    if n < 0:
        raise InvalidEdge(f"vertex count must be non-negative, got {n}")
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge {(u, v)} out of range for n={n}")
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        neighbours[u].add(v)
        neighbours[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in neighbours))


@dataclass(frozen=True)
class PartitionedProbeGraph:
    """A graph together with its probe / non-probe bipartition.

    ``nonprobes`` must be an independent set and the two sides must
    partition the vertex set.
    """

    graph: Graph
    probes: frozenset[int]
    nonprobes: frozenset[int]

    def __post_init__(self):
        g = self.graph
        all_v = frozenset(range(g.n))
        if self.probes & self.nonprobes:
            raise InvalidInstance("probes and nonprobes overlap")
        if self.probes | self.nonprobes != all_v:
            raise InvalidInstance("probes and nonprobes do not cover V")
        for v in self.nonprobes:
            if g.adj[v] & self.nonprobes:
                raise InvalidInstance(
                    f"nonprobe set is not independent (edge at vertex {v})"
                )


@dataclass(frozen=True)
class ProbeCertificate:
    """A set of candidate edges inside the non-probe side.

    Adding these edges should put the graph in the target pattern-free
    class; :func:`verify_probe_certificate` checks exactly that.
    """

    f_edges: frozenset[tuple[int, int]]

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "ProbeCertificate":
        return ProbeCertificate(
            frozenset((min(u, v), max(u, v)) for u, v in pairs)
        )


@dataclass(frozen=True)
class Pattern:
    """A named small graph searched for as an induced subgraph."""

    name: str
    graph: Graph


def path_pattern(t: int) -> Pattern:
    return Pattern(f"P{t}", build_graph(t, [(i, i + 1) for i in range(t - 1)]))


def cycle_pattern(r: int) -> Pattern:
    edges = [(i, (i + 1) % r) for i in range(r)]
    return Pattern(f"C{r}", build_graph(r, edges))


def star_pattern(leaves: int) -> Pattern:
    """K_{1,leaves}: centre is vertex 0."""
    return Pattern(
        f"K1,{leaves}",
        build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)]),
    )


def independent_pattern(s: int) -> Pattern:
    return Pattern(f"{s}P1", build_graph(s, []))


def sp1_p4_pattern(s: int) -> Pattern:
    """s isolated vertices (ids 0..s-1) plus a path on ids s..s+3."""
    edges = [(s + i, s + i + 1) for i in range(3)]
    name = "P4" if s == 0 else "P1+P4" if s == 1 else f"{s}P1+P4"
    return Pattern(name, build_graph(s + 4, edges))


def diamond_pattern() -> Pattern:
    """K4 minus one edge; the missing edge is (2, 3)."""
    return Pattern(
        "diamond", build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    )


def two_p2_pattern() -> Pattern:
    return Pattern("2P2", build_graph(4, [(0, 1), (2, 3)]))


def split_forbidden_patterns() -> tuple[Pattern, Pattern, Pattern]:
    """The three patterns whose absence characterises split graphs."""
    return (two_p2_pattern(), cycle_pattern(4), cycle_pattern(5))


def parse_pattern(name: str) -> Pattern:
    """Parse a pattern name such as P4, C5, K1,3, 2P2, 4P1, 2P1+P4, diamond."""
    text = name.strip()
    if text == "diamond":
        return diamond_pattern()
    if text == "2P2":
        return two_p2_pattern()
    m = re.fullmatch(r"(?:(\d*)P1\+)?P4", text)
    if m:
        digits = m.group(1)
        if digits is None:
            return sp1_p4_pattern(0)
        return sp1_p4_pattern(int(digits) if digits else 1)
    m = re.fullmatch(r"P(\d+)", text)
    if m:
        return path_pattern(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", text)
    if m:
        return cycle_pattern(int(m.group(1)))
    m = re.fullmatch(r"K1,(\d+)", text)
    if m:
        return star_pattern(int(m.group(1)))
    m = re.fullmatch(r"(\d+)P1", text)
    if m:
        return independent_pattern(int(m.group(1)))
    raise UnsupportedPattern(f"unknown pattern name {name!r}")


def _parts(adj: tuple[int, ...], mask: int, flip: int) -> list[int]:
    """Components of the vertex mask in the graph (``flip = 0``) or in its
    complement (``flip = -1``: XOR with -1 complements a row), as masks
    ordered by least vertex; a frontier BFS, no recursion."""
    parts = []
    while mask:
        frontier = mask & -mask
        rest = mask ^ frontier  # not reached yet
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1] ^ flip
                frontier ^= low
            frontier = reach & rest
            rest ^= frontier
        parts.append(mask ^ rest)
        mask = rest
    return parts


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component.

    The empty graph is not connected; a single vertex is.
    """
    return g.n > 0 and len(_parts(g.adj_bits, (1 << g.n) - 1, 0)) == 1


def connected_components(
    g: Graph, within: Optional[Iterable[int]] = None
) -> list[list[int]]:
    """Connected components (of the induced subgraph on ``within`` if given),
    each sorted, ordered by smallest member."""
    mask = (1 << g.n) - 1 if within is None else sum(1 << v for v in set(within))
    return [list(iter_bits(p)) for p in _parts(g.adj_bits, mask, 0)]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on the given vertices, relabelled densely.

    Returns the subgraph and a mapping list: new id -> original id.
    """
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u in verts
        for v in g.adj[u]
        if v in index and u < v
    ]
    return build_graph(len(verts), edges), verts


def find_induced(g: Graph, h: Pattern) -> Optional[dict[int, int]]:
    """Find an induced occurrence of the pattern in ``g``.

    Returns an injective map pattern-vertex -> graph-vertex preserving both
    edges and non-edges, or None if the graph is pattern-free.  The result
    is the lexicographically least occurrence: pattern vertices are assigned
    in id order, candidates tried in ascending order.

    The search runs on an explicit stack with forward checking: placing
    pattern vertex j narrows the candidates of every later vertex, and a
    placement that leaves one of them none is dropped at once.  Only dead
    branches are cut, so the first occurrence found is still the least.

    Twin pattern vertices (the same neighbours apart from each other, such
    as the leaves of a claw, the vertices of sP1 or the ends of each edge
    of 2P2) take increasing images: for twins i < j only candidates above
    ``image[i]`` are kept at j.  Swapping the images of two twins gives
    another occurrence, which is lexicographically smaller when
    ``image[j] < image[i]``; so the least occurrence meets every such
    constraint, and the search only skips reordered copies of occurrences.
    """
    k = h.graph.n
    if k > 8:
        raise UnsupportedPattern(
            f"pattern {h.name} has {k} > 8 vertices"
        )
    if k > g.n:
        return None
    if k == 0:
        return {}
    pat_adj = h.graph.adj_bits
    # plan[j]: (l, adjacent, twin) for each later pattern vertex l
    plan = [
        [
            (
                l,
                (pat_adj[l] >> j) & 1,
                pat_adj[j] & ~(1 << l) == pat_adj[l] & ~(1 << j),
            )
            for l in range(j + 1, k)
        ]
        for j in range(k)
    ]
    adj = g.adj_bits
    # at_least[t]: vertices of degree >= t, for pattern degrees t < k
    at_least = [0] * (k + 1)
    for v, av in enumerate(adj):
        at_least[min(av.bit_count(), k)] |= 1 << v
    for t in range(k - 1, -1, -1):
        at_least[t] |= at_least[t + 1]
    image = [0] * k
    # cands[j][l]: candidates for pattern vertex l >= j given images[:j];
    # left[j]: candidates for j not tried yet
    cands = [[at_least[a.bit_count()] for a in pat_adj]] + [[]] * k
    left = [0] * k
    left[0] = cands[0][0]
    j = 0
    while True:
        cand = left[j]
        if not cand:
            if j == 0:
                return None
            j -= 1
            continue
        low = cand & -cand
        left[j] = cand ^ low
        w = low.bit_length() - 1
        image[j] = w
        mine = cands[j]
        nxt = mine[:]
        aw = adj[w]
        for l, adjacent, twin in plan[j]:
            m = mine[l] & ~low & (aw if adjacent else ~aw)
            if twin:
                m &= -2 << w
            if not m:
                break
            nxt[l] = m
        else:
            if j + 1 == k:
                return {i: image[i] for i in range(k)}
            j += 1
            cands[j] = nxt
            left[j] = nxt[j]


def verify_probe_certificate(
    ppg: PartitionedProbeGraph, cert: ProbeCertificate, h: Pattern
) -> bool:
    """True iff adding the certificate edges makes the graph pattern-free.

    Raises :class:`InvalidCertificate` if the certificate breaks its
    invariants against the instance (endpoints outside the non-probe side,
    or pairs that are already edges).
    """
    g = ppg.graph
    for u, v in cert.f_edges:
        if u == v or u not in ppg.nonprobes or v not in ppg.nonprobes:
            raise InvalidCertificate(
                f"certificate pair {(u, v)} not inside the non-probe side"
            )
        if g.has_edge(u, v):
            raise InvalidCertificate(
                f"certificate pair {(u, v)} is already an edge"
            )
    return find_induced(g.with_edges(cert.f_edges), h) is None


def cograph_split(g: Graph, mask: int) -> tuple[bool, list[int]]:
    """One level of the cograph decomposition of the vertex mask ``mask``.

    Returns ``(False, components)`` if the induced subgraph is empty or
    disconnected, else ``(True, co_components)``: the components of its
    complement, every two of which are complete to one another (the
    top-level join).  Parts are vertex masks ordered by least vertex.  A
    single part of two or more vertices means the subgraph is connected
    and co-connected, so it holds an induced P4.
    """
    parts = _parts(g.adj_bits, mask, 0)
    if len(parts) != 1:
        return False, parts
    return True, _parts(g.adj_bits, mask, -1)


def is_p4_free(g: Graph):
    """True if the graph is a cograph, else a witness induced path.

    A graph is P4-free iff every induced subgraph on two or more vertices
    is disconnected or co-disconnected, so :func:`cograph_split` runs on a
    worklist of vertex masks, without recursion.  Vertices isolated or
    universal inside a mask lie on no induced P4 and are dropped in bulk
    first, which keeps long cotree chains such as threshold graphs to a
    few mask operations per level.  The witness for the negative case is
    the lexicographically least induced P4, as a 4-tuple in path order.
    """
    # In every part the worklist holds, a vertex's degree inside the part
    # is its degree in g minus the part's offset: components keep their
    # degrees, and a co-component loses the vertices it is joined to.
    by_degree = [0] * g.n
    for v, av in enumerate(g.adj_bits):
        by_degree[av.bit_count()] |= 1 << v
    work = [((1 << g.n) - 1, 0)]
    while work:
        mask, offset = work.pop()
        size = mask.bit_count()
        while size >= 4:
            drop = mask & by_degree[offset]  # isolated inside the mask
            if not drop:
                drop = mask & by_degree[offset + size - 1]  # universal
                offset += drop.bit_count()
            if not drop:
                break
            mask ^= drop
            size = mask.bit_count()
        if size < 4:
            continue
        joined, parts = cograph_split(g, mask)
        if len(parts) == 1:
            occurrence = find_induced(g, path_pattern(4))
            assert occurrence is not None
            return tuple(occurrence[i] for i in range(4))
        work += [
            (p, offset + size - p.bit_count() if joined else offset)
            for p in parts
        ]
    return True


def random_probe_hfree(
    n: int,
    h: Pattern,
    density: float,
    seed: int,
    attempts: int = 10_000,
) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Generate a certified partitioned probe pattern-free instance.

    Rejection-samples a pattern-free graph with the given edge probability,
    removes the edges inside a random vertex subset to form the non-probe
    side, and retries until the remaining graph is connected.  The deleted
    edges are returned as the certificate.  Deterministic in ``seed``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be a probability")
    rng = random.Random(seed)
    for _ in range(attempts):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        gstar = build_graph(n, edges)
        if find_induced(gstar, h) is not None:
            continue
        nprime = frozenset(v for v in range(n) if rng.random() < 0.5)
        deleted = {(u, v) for (u, v) in edges if u in nprime and v in nprime}
        kept = [e for e in edges if e not in deleted]
        g = build_graph(n, kept)
        if not is_connected(g):
            continue
        ppg = PartitionedProbeGraph(
            g, frozenset(range(n)) - nprime, nprime
        )
        return ppg, ProbeCertificate.of(deleted)
    raise GenerationTimeout(
        f"no connected {h.name}-free instance in {attempts} attempts"
    )


def iter_bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
