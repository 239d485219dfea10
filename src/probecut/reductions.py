"""Constructive hardness-reduction generators, each emitting a partitioned
probe graph together with its certificate edge set.

All four constructions are deterministic: new vertices are appended after
the originals, and per-edge gadgets follow the lexicographic edge order of
the input graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    GenerationTimeout,
    InvalidSatInstance,
    NoEdges,
    NotBipartite,
    NotConnected,
    NotCubic,
    UnsupportedD,
)
from .graph import (
    Graph,
    PartitionedProbeGraph,
    ProbeCertificate,
    _nbhd,
    build_graph,
    is_connected,
    iter_bits,
)


@dataclass(frozen=True)
class SatInstance:
    """A monotone 3-SAT instance split into all-positive and all-negative
    clauses, over variables 0..n_vars-1.

    The restricted shape used by the clique reduction additionally wants
    each clause to hold 3 distinct variables and each variable to occur in
    exactly two positive and exactly two negative clauses; see
    :func:`validate_sat_shape`.
    """

    n_vars: int
    positive_clauses: tuple[tuple[int, ...], ...]
    negative_clauses: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(n_vars, positive, negative) -> "SatInstance":
        return SatInstance(
            n_vars,
            tuple(tuple(sorted(c)) for c in positive),
            tuple(tuple(sorted(c)) for c in negative),
        )


def validate_sat_shape(inst: SatInstance) -> tuple[bool, list[str]]:
    """Check the restricted occurrence/shape conditions.

    Returns (ok, violations); the violation strings name the offending
    clause or variable.
    """
    violations: list[str] = []
    pos_count = [0] * inst.n_vars
    neg_count = [0] * inst.n_vars
    for label, clauses, counts in (
        ("positive", inst.positive_clauses, pos_count),
        ("negative", inst.negative_clauses, neg_count),
    ):
        for i, clause in enumerate(clauses):
            if len(set(clause)) != 3 or len(clause) != 3:
                violations.append(
                    f"{label} clause {i} must have 3 distinct variables: {clause}"
                )
                continue
            for v in clause:
                if not 0 <= v < inst.n_vars:
                    violations.append(
                        f"{label} clause {i} references unknown variable {v}"
                    )
                else:
                    counts[v] += 1
    for v in range(inst.n_vars):
        if pos_count[v] != 2:
            violations.append(
                f"variable {v} occurs in {pos_count[v]} positive clauses, expected 2"
            )
        if neg_count[v] != 2:
            violations.append(
                f"variable {v} occurs in {neg_count[v]} negative clauses, expected 2"
            )
    if inst.n_vars <= 0:
        violations.append("instance has no variables")
    if 3 * len(inst.positive_clauses) != 2 * inst.n_vars:
        violations.append("positive clause count inconsistent with variable count")
    if 3 * len(inst.negative_clauses) != 2 * inst.n_vars:
        violations.append("negative clause count inconsistent with variable count")
    return (not violations, violations)


_SAT_ATTEMPTS = 10_000


def random_sat_instance(n_vars: int, seed: int) -> SatInstance:
    """Random instance meeting the restricted shape, deterministic in seed.

    Configuration-model sampling: two stubs per variable per polarity are
    shuffled and cut into clause triples; draws with a repeated variable in
    a clause are rejected, and ``GenerationTimeout`` is raised after
    ``_SAT_ATTEMPTS`` = 10,000 draws.  n_vars must be a multiple of 3 so
    the clause counts come out integral; an accepted draw then meets the
    shape of :func:`validate_sat_shape` by construction.
    """
    if n_vars <= 0 or n_vars % 3 != 0:
        raise InvalidSatInstance("n_vars must be a positive multiple of 3")
    rng = random.Random(seed)

    def draw() -> list[tuple[int, ...]] | None:
        stubs = [v for v in range(n_vars) for _ in range(2)]
        rng.shuffle(stubs)
        clauses = []
        for i in range(0, len(stubs), 3):
            triple = stubs[i : i + 3]
            if len(set(triple)) != 3:
                return None
            clauses.append(tuple(sorted(triple)))
        return clauses

    for _ in range(_SAT_ATTEMPTS):
        pos = draw()
        if pos is None:
            continue
        neg = draw()
        if neg is None:
            continue
        return SatInstance.of(n_vars, pos, neg)
    raise GenerationTimeout(
        f"no valid-shape SAT instance with {n_vars} variables"
        f" in {_SAT_ATTEMPTS} draws"
    )


def moshi_double(g: Graph) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Replace every edge uv by two intermediate vertices adjacent to both
    u and v.

    Intermediates for the k-th edge (lexicographic order) get ids n+2k and
    n+2k+1, and together form the non-probe side.  The certificate joins
    every two intermediates that share an original neighbour, which kills
    all induced claws in the completed graph.  Matching-cut existence is
    preserved in both directions.
    """
    if not is_connected(g):
        raise NotConnected("edge doubling needs a connected input")
    edges = g.edges()
    if not edges:
        raise NoEdges("edge doubling needs at least one edge")
    n = g.n
    new_edges: list[tuple[int, int]] = []
    for k, (u, v) in enumerate(edges):
        x1, x2 = n + 2 * k, n + 2 * k + 1
        new_edges += [(u, x1), (u, x2), (v, x1), (v, x2)]
    total = n + 2 * len(edges)
    gprime = build_graph(total, new_edges)
    # two intermediates share an end u exactly when both neighbour u
    f_pairs = [
        pair
        for u in range(n)
        for pair in combinations(iter_bits(gprime.adj_bits[u]), 2)
    ]
    ppg = PartitionedProbeGraph(
        gprime, frozenset(range(n)), frozenset(range(n, total))
    )
    return ppg, ProbeCertificate.of(f_pairs)


def subdivide4(g: Graph) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Subdivide every edge of a connected cubic graph four times.

    The k-th edge uv (lexicographic) becomes the path
    u, n+4k, n+4k+1, n+4k+2, n+4k+3, v.  The subdivision points next to an
    original vertex form the non-probe side; for each original vertex the
    certificate joins the two of least id among its three such neighbours.
    The completed graph stays subcubic and is claw- and diamond-free, and
    perfect-matching-cut existence is preserved.
    """
    if not is_connected(g):
        raise NotConnected("subdivision needs a connected input")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubic("subdivision needs a cubic input")
    n = g.n
    edges = g.edges()
    new_edges: list[tuple[int, int]] = []
    for k, (u, v) in enumerate(edges):
        y1, y2, y3, y4 = (n + 4 * k + i for i in range(4))
        new_edges += [(u, y1), (y1, y2), (y2, y3), (y3, y4), (y4, v)]
    total = n + 4 * len(edges)
    gprime = build_graph(total, new_edges)
    # an original vertex neighbours exactly its three subdivision points
    f_pairs = [tuple(iter_bits(gprime.adj_bits[v]))[:2] for v in range(n)]
    nonprobes = frozenset(iter_bits(_nbhd(gprime.adj_bits, (1 << n) - 1)))
    ppg = PartitionedProbeGraph(
        gprime, frozenset(range(total)) - nonprobes, nonprobes
    )
    return ppg, ProbeCertificate.of(f_pairs)


def bipartite_to_split(
    g: Graph, side: frozenset[int] | set[int]
) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Declare one bipartition class the non-probe side and certify with
    all pairs inside it, completing the graph to a split graph."""
    if not is_connected(g):
        raise NotConnected("split construction needs a connected input")
    side = frozenset(side)
    rest = frozenset(range(g.n)) - side
    for u, v in g.edges():
        if (u in side) == (v in side):
            raise NotBipartite(
                f"edge {(u, v)} does not cross the given bipartition"
            )
    ppg = PartitionedProbeGraph(g, rest, side)
    return ppg, ProbeCertificate.of(combinations(sorted(side), 2))


def _check_sat4p1_d(d: int) -> None:
    """Refuse a d that :func:`sat_to_4p1` is not defined for."""
    if d < 2:
        raise UnsupportedD("construction is defined for d >= 2")


def sat_to_4p1(
    inst: SatInstance, d: int
) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Build the clique-clique-independent-set graph whose d-cuts encode
    satisfying assignments of a restricted monotone instance.

    Layout: positive-clause vertices 0..p-1 (a clique), then their d-3
    padding blocks, then negative-clause vertices (a clique) with their
    padding, then one vertex per variable (independent, the non-probe
    side).  A variable vertex is adjacent to the clause vertices it occurs
    in and complete to its own padding blocks.  For d >= 3, cross edges
    K_i ~ K'_{(i+j) mod p} for j = 0..d-3 give every original clique vertex
    exactly d-2 neighbours in the opposite clique (shape forces p = q).
    The certificate joins all variable pairs, turning the graph into three
    cliques, which is 4P1-free.
    """
    _check_sat4p1_d(d)
    ok, violations = validate_sat_shape(inst)
    if not ok:
        raise InvalidSatInstance("; ".join(violations))
    n_vars = inst.n_vars
    pad = max(d - 3, 0)
    sides = (inst.positive_clauses, inst.negative_clauses)
    # each side: its clause vertices, then one padding block per variable
    starts = []
    nxt = 0
    for clauses in sides:
        starts.append(nxt)
        nxt += len(clauses) + n_vars * pad
    i_verts = range(nxt, nxt + n_vars)

    edges: list[tuple[int, int]] = []
    for clauses, start in zip(sides, starts):
        pad0 = start + len(clauses)
        edges += combinations(range(start, pad0 + n_vars * pad), 2)
        for c, clause in enumerate(clauses, start):
            edges += [(i_verts[h], c) for h in clause]
        for h, x in enumerate(i_verts):
            edges += [(x, pad0 + h * pad + i) for i in range(pad)]
    p = len(inst.positive_clauses)
    edges += [
        (i, starts[1] + (i + j) % p) for i in range(p) for j in range(d - 2)
    ]

    g = build_graph(i_verts.stop, edges)
    ppg = PartitionedProbeGraph(
        g, frozenset(range(i_verts.start)), frozenset(i_verts)
    )
    return ppg, ProbeCertificate.of(combinations(i_verts, 2))
