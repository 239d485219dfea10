"""Graph representation, induced-pattern search, cograph decomposition,
probe partitions and certified random instance generation.

Vertices are dense integers ``0..n-1``, and a vertex set is an int
bitmask.  ``Graph`` holds only the vertex count and one neighbour mask per
vertex (``Graph.adj_bits``); edge lists and frozensets appear only where
the API takes or returns them.  Subgraphs are vertex masks of one graph,
never relabelled copies.

The cograph decomposition is one frontier BFS that splits a vertex mask
into its components or those of its complement, ordered by least vertex;
:func:`cograph_split`, :func:`is_connected`, :func:`connected_components`
and :func:`_cograph` (a worklist, so no recursion) all run on it.  The
yes/no check :func:`_free` peels universal and isolated pattern vertices
off to a core, and decides an edgeless core by clique covers and a P4 core
by cograph tests, leaving only any other core to the search.
"""

from __future__ import annotations

import functools
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


_MAX_PATTERN_VERTICES = 8
"""Largest pattern the induced-pattern search accepts."""


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``; bit u of
    ``adj_bits[v]`` is set iff uv is an edge."""

    __slots__ = ("n", "adj_bits")

    def __init__(self, n: int, adj_bits: tuple[int, ...]):
        self.n = n
        self.adj_bits = adj_bits

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [
            (u, v)
            for u, row in enumerate(self.adj_bits)
            for v in iter_bits(row & (-2 << u))
        ]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_bits) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj_bits[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """Copy of the graph with the given edges added; raises
        :class:`InvalidEdge` for out-of-range endpoints or self-loops."""
        n, rows = self.n, list(self.adj_bits)
        for u, v in extra:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidEdge(f"edge {(u, v)} out of range for n={n}")
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj_bits == other.adj_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, deduplicating as needed.

    Raises :class:`InvalidEdge` for a negative vertex count, out-of-range
    endpoints or self-loops.
    """
    if n < 0:
        raise InvalidEdge(f"vertex count must be non-negative, got {n}")
    return Graph(n, (0,) * n).with_edges(edges)


@dataclass(frozen=True)
class PartitionedProbeGraph:
    """A graph together with its probe / non-probe bipartition.

    ``nonprobes`` must be an independent set and the two sides must
    partition the vertex set; otherwise :class:`InvalidInstance` is raised.
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
        non = sum(1 << v for v in self.nonprobes)
        for v in self.nonprobes:
            if g.adj_bits[v] & non:
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
            frozenset((u, v) if u < v else (v, u) for u, v in pairs)
        )


@dataclass(frozen=True)
class Pattern:
    """A named small graph searched for as an induced subgraph."""

    name: str
    graph: Graph


def path_pattern(t: int) -> Pattern:
    return Pattern(f"P{t}", build_graph(t, [(i, i + 1) for i in range(t - 1)]))


def cycle_pattern(r: int) -> Pattern:
    if r < 3:
        raise UnsupportedPattern(f"cycle C{r} needs at least 3 vertices")
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
    """Parse a pattern name such as P4, C5, K1,3, 2P2, 4P1, 2P1+P4, diamond.

    The vertex count is read off the name and checked against the pattern
    search's limit before any graph is built."""
    text = name.strip()
    if text == "diamond":
        return diamond_pattern()
    if text == "2P2":
        return two_p2_pattern()
    m = re.fullmatch(r"(?:(\d*)P1\+)?P4", text)
    if m:
        digits = m.group(1)
        s = 0 if digits is None else int(digits) if digits else 1
        _check_pattern_size(text, s + 4)
        return sp1_p4_pattern(s)
    for form, build, extra in (
        (r"P(\d+)", path_pattern, 0),
        (r"C(\d+)", cycle_pattern, 0),
        (r"K1,(\d+)", star_pattern, 1),
        (r"(\d+)P1", independent_pattern, 0),
    ):
        m = re.fullmatch(form, text)
        if m:
            size = int(m.group(1))
            _check_pattern_size(text, size + extra)
            return build(size)
    raise UnsupportedPattern(f"unknown pattern name {name!r}")


def _check_pattern_size(name: str, k: int) -> None:
    """Refuse a pattern on more vertices than the pattern search handles."""
    if k > _MAX_PATTERN_VERTICES:
        raise UnsupportedPattern(
            f"pattern {name} has {k} > {_MAX_PATTERN_VERTICES} vertices"
        )


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


def connected_components(g: Graph, mask: Optional[int] = None) -> list[int]:
    """Connected components of the subgraph induced by the vertex mask
    (default: all of ``g``), as masks ordered by least vertex."""
    mask = (1 << g.n) - 1 if mask is None else mask
    return _parts(g.adj_bits, mask, 0)


def find_induced(
    g: Graph, h: Pattern, mask: Optional[int] = None
) -> Optional[dict[int, int]]:
    """Find an induced occurrence of the pattern in ``g``, or inside the
    vertex mask (default: all of ``g``), in the ids of ``g``.

    Returns an injective map pattern-vertex -> graph-vertex preserving both
    edges and non-edges, or None if the graph is pattern-free.  The result
    is the lexicographically least occurrence: pattern vertices are assigned
    in id order, candidates tried in ascending order.

    The search runs on an explicit stack with forward checking: placing
    pattern vertex j narrows the candidates of every later vertex, and a
    placement that leaves one of them none is dropped at once.  Only dead
    branches are cut, so the first occurrence found is still the least.

    The last three levels leave the stack.  Vertex k-3 runs as one loop
    that builds, for each of its images, the candidate masks (Ca, Cb) of
    the last two vertices a and b; a pair scan then takes the least x in
    Ca that has a fitting partner in Cb (adjacent to x or not, as a and b
    are) and its least partner y, which is the least completion.  Whether
    (Ca, Cb) has a fitting pair depends only on the two masks, so pairs
    shown to have none are kept for the rest of the call and not scanned
    again: on pattern-free proofs such as the claw check of a
    construction's output, many images of k-3 leave the same two masks.

    Twin pattern vertices (the same neighbours apart from each other, such
    as the leaves of a claw, the vertices of sP1 or the ends of each edge
    of 2P2) take increasing images: for twins i < j only candidates above
    ``image[i]`` are kept at j.  Swapping the images of two twins gives
    another occurrence, which is lexicographically smaller when
    ``image[j] < image[i]``; so the least occurrence meets every such
    constraint, and the search only skips reordered copies of occurrences.

    The per-pattern plan (adjacency and twin flags, degrees) is cached on
    the pattern's rows.  Candidates start as the vertices of at least the
    pattern vertex's degree, a filter skipped when it would keep them all.
    """
    within = (1 << g.n) - 1 if mask is None else mask
    k = h.graph.n
    _check_pattern_size(h.name, k)
    if k > within.bit_count():
        return None
    if k == 0:
        return {}
    plan, degrees, top, _ = _pattern_plan(h.graph.adj_bits)
    adj = g.adj_bits
    if min(map(int.bit_count, adj)) >= top:
        start = [within] * k
    else:
        # at_least[t]: vertices of degree >= t, for pattern degrees t < k; a
        # degree in g bounds the degree inside ``within``, so this is sound
        at_least = [0] * (k + 1)
        for v, av in enumerate(adj):
            at_least[min(av.bit_count(), k)] |= 1 << v
        for t in range(k - 1, -1, -1):
            at_least[t] |= at_least[t + 1]
        start = [at_least[t] & within for t in degrees]
    if not all(start):
        return None
    if k == 1:
        return {0: (start[0] & -start[0]).bit_length() - 1}
    # the last two pattern vertices a = k-2 and b = k-1
    ab_adjacent = plan[k - 2][0][1]

    def pair(ca: int, cb: int) -> Optional[tuple[int, int]]:
        """Least x in ``ca`` with a fitting partner in ``cb``, and its
        least partner y, or None.  Twins a and b need no cut here: every
        earlier vertex treats both alike, so ``ca == cb``, and a partner
        y < x of x would have made y the least x."""
        while ca:
            low = ca & -ca
            x = low.bit_length() - 1
            m = cb & (adj[x] if ab_adjacent else ~adj[x] ^ low)
            if m:
                return x, (m & -m).bit_length() - 1
            ca ^= low
        return None

    if k == 2:
        found = pair(start[0], start[1])
        return None if found is None else dict(enumerate(found))
    c = k - 3
    (_, ca_adjacent, ca_twin), (_, cb_adjacent, cb_twin) = plan[c][-2:]
    dead = set()  # (Ca, Cb) pairs already shown to hold no fitting pair
    image = [0] * k
    # cands[j][l]: candidates for pattern vertex l >= j given images[:j];
    # left[j]: candidates for j not tried yet
    cands = [start] + [[]] * k
    left = [0] * k
    left[0] = start[0]
    j = 0
    while j >= 0:
        if j == c:
            # level k-3 as one loop: build (Ca, Cb) for each image of c
            mine = cands[c]
            cc, ca0, cb0 = mine[c], mine[c + 1], mine[c + 2]
            while cc:
                low = cc & -cc
                cc ^= low
                w = low.bit_length() - 1
                aw = adj[w]
                ca = ca0 & (aw if ca_adjacent else ~aw ^ low)
                if ca_twin:
                    ca &= -2 << w
                cb = cb0 & (aw if cb_adjacent else ~aw ^ low)
                if cb_twin:
                    cb &= -2 << w
                if ca and cb and (ca, cb) not in dead:
                    found = pair(ca, cb)
                    if found is not None:
                        image[c] = w
                        image[c + 1 :] = found
                        return dict(enumerate(image))
                    dead.add((ca, cb))
            j -= 1
            continue
        cand = left[j]
        if not cand:
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
            j += 1
            cands[j] = nxt
            left[j] = nxt[j]
    return None


@functools.lru_cache(maxsize=256)
def _pattern_plan(pat_adj: tuple[int, ...]) -> tuple:
    """``plan[j]``, (l, adjacent, twin) for each later pattern vertex l,
    the pattern degrees and the largest, for :func:`find_induced`, and the
    peel plan ``(steps, kind, core)`` for :func:`_free`.

    Peeling takes a vertex universal in what is left of the pattern, else
    an isolated one, least id first; each step is (universal, twin), where
    twin marks a step of the same kind as the one before, whose vertex is
    then a twin of it in what was left.  It stops at a core: an edgeless
    one (``kind`` "cover"), a P4 ("cograph"), or one with no universal or
    isolated vertex ("search"), which is the pattern itself when nothing
    was peeled.  ``core`` is the core as a pattern, for the search."""
    k = len(pat_adj)
    plan = tuple(
        tuple(
            (
                l,
                (pat_adj[l] >> j) & 1,
                pat_adj[j] & ~(1 << l) == pat_adj[l] & ~(1 << j),
            )
            for l in range(j + 1, k)
        )
        for j in range(k)
    )
    degrees = tuple(a.bit_count() for a in pat_adj)
    steps: list[tuple[bool, bool]] = []
    alive = (1 << k) - 1
    while True:
        left = list(iter_bits(alive))
        inner = [(pat_adj[v] & alive).bit_count() for v in left]
        if not any(inner):
            kind = "cover" if left else "search"  # the empty pattern: search
            break
        if sorted(inner) == [1, 1, 2, 2]:  # only P4 has these degrees
            kind = "cograph"
            break
        for universal, want in ((True, len(left) - 1), (False, 0)):
            if want in inner:
                twin = bool(steps) and steps[-1][0] == universal
                steps.append((universal, twin))
                alive ^= 1 << left[inner.index(want)]
                break
        else:
            kind = "search"
            break
    index = {v: i for i, v in enumerate(left)}
    core = Pattern(
        f"{len(left)}P1" if kind == "cover" else "core",
        build_graph(len(left), [
            (index[u], index[v])
            for u in left for v in iter_bits(pat_adj[u] & alive)
        ]),
    )
    return plan, degrees, max(degrees, default=0), (tuple(steps), kind, core)


def verify_probe_certificate(
    ppg: PartitionedProbeGraph, cert: ProbeCertificate, h: Pattern
) -> bool:
    """True iff adding the certificate edges makes the graph pattern-free;
    the pairs are checked first by :func:`_check_pairs`."""
    _check_pairs(ppg, cert)
    return _free(ppg.graph.with_edges(cert.f_edges), h)


def _check_pairs(ppg: PartitionedProbeGraph, cert: ProbeCertificate) -> None:
    """Raise :class:`InvalidCertificate` unless every certificate pair
    joins two distinct non-probes.  No such pair is an edge already, since
    :class:`PartitionedProbeGraph` refuses edges between non-probes."""
    for u, v in cert.f_edges:
        if u == v:
            raise InvalidCertificate(f"certificate pair {(u, v)} is a loop")
        if u not in ppg.nonprobes or v not in ppg.nonprobes:
            raise InvalidCertificate(
                f"certificate pair {(u, v)} leaves the non-probe side"
            )


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


def is_p4_free(g: Graph, mask: Optional[int] = None):
    """True if the subgraph on the vertex mask (default: all of ``g``) is a
    cograph (:func:`_cograph`), else the lexicographically least induced
    P4 inside the mask, as a 4-tuple in path order."""
    mask = (1 << g.n) - 1 if mask is None else mask
    if _cograph(g, mask):
        return True
    return tuple(find_induced(g, path_pattern(4), mask).values())


def _cograph(g: Graph, mask: int) -> bool:
    """True iff the subgraph on the vertex mask is P4-free, that is, every
    induced subgraph on two or more vertices is disconnected or
    co-disconnected: :func:`cograph_split` runs on a worklist of vertex
    masks, without recursion.  Vertices isolated or universal inside a
    mask lie on no induced P4 and are dropped in bulk first, which keeps
    long cotree chains such as threshold graphs to a few mask operations
    per level."""
    adj = g.adj_bits
    # In every part the worklist holds, a vertex's degree inside the part
    # is its degree inside the start mask minus the part's offset: parts
    # keep their degrees, and a co-component loses those joined to it.
    by_degree = [0] * mask.bit_count()
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        by_degree[(adj[low.bit_length() - 1] & mask).bit_count()] |= low
    work = [(mask, 0)]
    while work:
        part, offset = work.pop()
        size = part.bit_count()
        while size >= 4:
            drop = part & by_degree[offset]  # isolated inside the part
            if not drop:
                drop = part & by_degree[offset + size - 1]  # universal
                offset += drop.bit_count()
            if not drop:
                break
            part ^= drop
            size = part.bit_count()
        if size == 4 and (part & by_degree[offset + 1]).bit_count() == 2:
            return False  # degrees 1 and 2 only: a P4, not 2K2 or C4
        if size <= 4:
            continue
        joined, parts = cograph_split(g, part)
        if len(parts) == 1:
            return False
        work += [
            (p, offset + size - p.bit_count() if joined else offset)
            for p in parts
        ]
    return True


def _free(g: Graph, h: Pattern, mask: Optional[int] = None) -> bool:
    """True iff the graph, or its subgraph on the vertex mask, holds no
    induced copy of the pattern, by the peel plan of :func:`_pattern_plan`.

    A universal pattern vertex must map to some v with the rest of the
    pattern inside N(v), an isolated one to some v with the rest outside
    N[v]; twins take increasing images.  At the core, an edgeless kP1 is
    absent if :func:`_covered` covers the mask by k - 1 cliques (a claw at
    v is an independent triple in N(v)), a P4 is decided by
    :func:`_cograph`, and the search decides the rest: a core with no
    universal or isolated vertex, or a mask the greedy cover fails on.
    So sP1+P4 takes at most n^s cograph tests, one per non-neighbourhood
    of an independent s-set."""
    _check_pattern_size(h.name, h.graph.n)
    steps, kind, core = _pattern_plan(h.graph.adj_bits)[3]
    if kind == "search" and not steps:
        return find_induced(g, h, mask) is None
    within = (1 << g.n) - 1 if mask is None else mask
    return _absent(g, within, steps, kind, core, 0)


def _absent(
    g: Graph, mask: int, steps: tuple, kind: str, core: Pattern, lo: int
) -> bool:
    """True iff the mask holds no induced copy of the peel steps and core,
    where a first step marked twin takes its image at ``lo`` or above; a
    nested mask (``lo`` > 0) that is a cograph holds no P4 core at all."""
    if not steps:
        if kind == "cograph":
            return _cograph(g, mask)
        if kind == "cover" and _covered(g.adj_bits, mask, core.graph.n - 1):
            return True
        return find_induced(g, core, mask) is None
    if lo and kind == "cograph" and _cograph(g, mask):
        return True
    (universal, twin), rest = steps[0], steps[1:]
    need = len(rest) + core.graph.n
    adj = g.adj_bits
    todo = mask & (-1 << lo) if twin else mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        sub = mask & adj[v] if universal else mask & ~(adj[v] | low)
        if sub.bit_count() >= need and not _absent(
            g, sub, rest, kind, core, v + 1
        ):
            return False
    return True


def _covered(adj: tuple[int, ...], mask: int, cliques: int) -> bool:
    """True if a greedy cover of the mask by at most ``cliques`` cliques
    succeeds, which proves that it has no independent set of cliques + 1
    vertices: each clique grows from the least vertex left, taking the
    least common neighbour each time."""
    while mask and cliques > 0:
        low = mask & -mask
        mask ^= low
        common = adj[low.bit_length() - 1] & mask
        while common:
            low = common & -common
            mask ^= low
            common &= adj[low.bit_length() - 1]
        cliques -= 1
    return not mask


_ATTEMPTS = 10_000


def random_probe_hfree(
    n: int, h: Pattern, density: float, seed: int
) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Generate a certified partitioned probe pattern-free instance.

    Rejection-samples a pattern-free graph with the given edge probability,
    removes the edges inside a random vertex subset to form the non-probe
    side, and retries until the remaining graph is connected.  The deleted
    edges are returned as the certificate.  Deterministic in ``seed``:
    each attempt draws one number per pair u < v in lexicographic order
    into adjacency masks, then, only if they are pattern-free, one per
    vertex in order to pick the non-probes.

    It makes ``_ATTEMPTS`` = 10,000 attempts, and above n = 63 only as
    many as fit in the pair draws of 10,000 attempts at n = 63 (1,953
    pairs each), before it raises ``GenerationTimeout``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be a probability")
    attempts = max(1, min(_ATTEMPTS, _ATTEMPTS * 1953 // (n * (n - 1) // 2)))
    draw = random.Random(seed).random
    for _ in range(attempts):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if draw() < density:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        if not _free(Graph(n, tuple(rows)), h):
            continue
        non = sum(1 << v for v in range(n) if draw() < 0.5)
        g = Graph(n, tuple(
            row & ~non if non >> u & 1 else row for u, row in enumerate(rows)
        ))
        if not is_connected(g):
            continue
        nprime = frozenset(iter_bits(non))
        deleted = [
            (u, v)
            for u in iter_bits(non)
            for v in iter_bits(rows[u] & non & (-2 << u))
        ]
        ppg = PartitionedProbeGraph(g, frozenset(range(n)) - nprime, nprime)
        return ppg, ProbeCertificate.of(deleted)
    raise GenerationTimeout(
        f"no connected {h.name}-free instance in {attempts} attempts"
    )


def _nbhd(adj: tuple[int, ...], mask: int) -> int:
    """Union of the neighbour masks of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
