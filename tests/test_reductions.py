"""Reduction generators: shapes, certificates and oracle equivalences."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    BLUE,
    RED,
    CutCertificate,
    GenerationTimeout,
    InvalidSatInstance,
    NoEdges,
    NotBipartite,
    NotConnected,
    NotCubic,
    PartitionedProbeGraph,
    ProbeCertificate,
    SatInstance,
    UnsupportedD,
    backtrack_dcut,
    bipartite_to_split,
    brute_dcut,
    brute_pmc,
    brute_sat,
    build_graph,
    diamond_pattern,
    find_induced,
    independent_pattern,
    moshi_double,
    random_sat_instance,
    sat_to_4p1,
    split_forbidden_patterns,
    star_pattern,
    subdivide4,
    validate_colouring,
    validate_sat_shape,
    verify_probe_certificate,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_cubic_graph,
)

EXAMPLE_SAT = SatInstance.of(
    6,
    [(0, 1, 2), (0, 2, 3), (1, 4, 5), (3, 4, 5)],
    [(0, 1, 3), (0, 2, 4), (1, 3, 5), (2, 4, 5)],
)


class TestValidateSatShape:
    def test_example_instance_valid(self):
        ok, violations = validate_sat_shape(EXAMPLE_SAT)
        assert ok and violations == []

    def test_triple_occurrence_names_variable(self):
        inst = SatInstance.of(
            6,
            [(0, 1, 2), (0, 2, 3), (0, 4, 5), (3, 4, 5)],
            EXAMPLE_SAT.negative_clauses,
        )
        ok, violations = validate_sat_shape(inst)
        assert not ok
        assert any("variable 0" in v for v in violations)

    def test_empty_instance_invalid(self):
        ok, violations = validate_sat_shape(SatInstance.of(0, [], []))
        assert not ok

    def test_negative_variable_count_has_no_variables(self):
        ok, violations = validate_sat_shape(SatInstance.of(-3, [], []))
        assert not ok
        assert violations == [
            "instance has no variables",
            "positive clause count inconsistent with variable count",
            "negative clause count inconsistent with variable count",
        ]

    def test_short_clause_flagged(self):
        inst = SatInstance.of(3, [(0, 1)], [(0, 1, 2)])
        ok, violations = validate_sat_shape(inst)
        assert not ok and any("3 distinct" in v for v in violations)

    def test_random_instances_valid(self):
        """The only guard of the drawn shape: ``random_sat_instance``
        returns its draw unchecked."""
        for seed in range(50):
            for n in range(3, 61, 3):
                ok, violations = validate_sat_shape(random_sat_instance(n, seed))
                assert ok, violations

    def test_random_instance_needs_multiple_of_three(self):
        with pytest.raises(InvalidSatInstance):
            random_sat_instance(7, 0)

    def test_random_instance_times_out(self, monkeypatch):
        monkeypatch.setattr("probecut.reductions._SAT_ATTEMPTS", 0)
        with pytest.raises(GenerationTimeout) as info:
            random_sat_instance(6, 0)
        assert str(info.value) == (
            "no valid-shape SAT instance with 6 variables in 0 draws"
        )


class TestMoshiDouble:
    def test_k2_becomes_diamond(self):
        g = build_graph(2, [(0, 1)])
        ppg, cert = moshi_double(g)
        assert ppg.graph.n == 4 and ppg.graph.edge_count() == 4
        assert ppg.nonprobes == frozenset({2, 3})
        assert cert.f_edges == frozenset({(2, 3)})
        completed = ppg.graph.with_edges(cert.f_edges)
        assert find_induced(completed, star_pattern(3)) is None
        assert completed.edge_count() == 5  # K4 minus the original edge

    def test_p3_counts(self):
        ppg, cert = moshi_double(path_graph(3))
        assert ppg.graph.n == 7 and ppg.graph.edge_count() == 8
        assert len(cert.f_edges) == 6

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_counts_and_certificate(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 7), 0.5, seed)
        if g.edge_count() == 0:
            return
        ppg, cert = moshi_double(g)
        assert ppg.graph.n == g.n + 2 * g.edge_count()
        assert ppg.graph.edge_count() == 4 * g.edge_count()
        assert verify_probe_certificate(ppg, cert, star_pattern(3))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_matching_cut_preserved(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 6), 0.5, seed)
        if g.edge_count() == 0:
            return
        ppg, _ = moshi_double(g)
        assert (brute_dcut(g, 1) is not None) == (
            backtrack_dcut(ppg.graph, 1) is not None
        )

    def test_long_path_is_linear(self):
        # the certificate has a linear number of pairs, 19,991 here; an
        # all-pairs scan over the 7,998 intermediates takes seconds
        g = path_graph(4000)
        began = time.perf_counter()
        ppg, cert = moshi_double(g)
        assert time.perf_counter() - began < 1.0
        assert len(cert.f_edges) == 5 * 3999 - 4
        assert ppg.nonprobes == frozenset(range(4000, 4000 + 2 * 3999))

    def test_requires_connected_with_edges(self):
        with pytest.raises(NotConnected):
            moshi_double(build_graph(2, []))
        with pytest.raises(NoEdges):
            moshi_double(build_graph(1, []))


class TestSubdivide4:
    def test_per_edge_path_shape(self):
        g = complete_graph(4)
        ppg, cert = subdivide4(g)
        gp = ppg.graph
        # first edge (0,1) becomes the path 0,4,5,6,7,1
        assert gp.has_edge(0, 4) and gp.has_edge(4, 5) and gp.has_edge(5, 6)
        assert gp.has_edge(6, 7) and gp.has_edge(7, 1)

    def test_k4_counts(self):
        ppg, cert = subdivide4(complete_graph(4))
        assert ppg.graph.n == 4 + 4 * 6 == 28
        assert len(cert.f_edges) == 4
        assert len(ppg.nonprobes) == 12  # two ends per subdivided edge

    def test_certificate_properties(self):
        for g in (complete_graph(4), complete_bipartite(3, 3)):
            ppg, cert = subdivide4(g)
            assert verify_probe_certificate(ppg, cert, star_pattern(3))
            assert verify_probe_certificate(ppg, cert, diamond_pattern())
            completed = ppg.graph.with_edges(cert.f_edges)
            assert max(completed.degree(v) for v in range(completed.n)) <= 3

    def test_k33_pmc_equivalence(self):
        g = complete_bipartite(3, 3)
        ppg, _ = subdivide4(g)
        assert (brute_pmc(g) is not None) == (
            backtrack_dcut(ppg.graph, 1, require_perfect=True) is not None
        )

    def test_requires_cubic(self):
        with pytest.raises(NotCubic):
            subdivide4(cycle_graph(4))

    def test_requires_connected(self):
        # two disjoint K4s: cubic, not connected
        g = build_graph(8, [
            (u, v) for base in (0, 4)
            for u in range(base, base + 4) for v in range(u + 1, base + 4)
        ])
        with pytest.raises(NotConnected) as info:
            subdivide4(g)
        assert str(info.value) == "subdivision needs a connected input"


class TestBipartiteToSplit:
    def test_p3_to_triangle(self):
        g = path_graph(3)
        ppg, cert = bipartite_to_split(g, {0, 2})
        assert cert.f_edges == frozenset({(0, 2)})
        completed = ppg.graph.with_edges(cert.f_edges)
        assert completed.edge_count() == 3
        for pattern in split_forbidden_patterns():
            assert find_induced(completed, pattern) is None

    def test_k2_unchanged(self):
        g = build_graph(2, [(0, 1)])
        ppg, cert = bipartite_to_split(g, {0})
        assert cert.f_edges == frozenset()
        for pattern in split_forbidden_patterns():
            assert verify_probe_certificate(ppg, cert, pattern)

    def test_c6_class(self):
        g = cycle_graph(6)
        ppg, cert = bipartite_to_split(g, {0, 2, 4})
        for pattern in split_forbidden_patterns():
            assert verify_probe_certificate(ppg, cert, pattern)

    def test_rejects_non_bipartition(self):
        with pytest.raises(NotBipartite):
            bipartite_to_split(cycle_graph(3), {0})

    def test_requires_connected(self):
        with pytest.raises(NotConnected) as info:
            bipartite_to_split(build_graph(2, []), {0})
        assert str(info.value) == "split construction needs a connected input"


class TestSatTo4P1:
    def test_example_instance_layout(self):
        ppg, cert = sat_to_4p1(EXAMPLE_SAT, 2)
        g = ppg.graph
        assert g.n == 14
        assert len(ppg.nonprobes) == 6
        clause_vertices = list(range(8))
        for c in clause_vertices:
            in_i = sum(g.has_edge(c, u) for u in ppg.nonprobes)
            assert in_i == 3
        for x in sorted(ppg.nonprobes):
            assert g.degree(x) == 4  # two positive + two negative clauses

    def test_example_instance_has_2cut(self):
        ppg, _ = sat_to_4p1(EXAMPLE_SAT, 2)
        assert brute_sat(EXAMPLE_SAT) is not None
        assert brute_dcut(ppg.graph, 2) is not None

    def test_certificate_makes_union_of_cliques(self):
        ppg, cert = sat_to_4p1(EXAMPLE_SAT, 2)
        assert verify_probe_certificate(ppg, cert, independent_pattern(4))

    def test_d3_cross_degrees(self):
        ppg, cert = sat_to_4p1(EXAMPLE_SAT, 3)
        g = ppg.graph
        assert g.n == 14  # no padding at d=3
        for i in range(4):  # positive-clause vertices
            cross = sum(g.has_edge(i, u) for u in range(4, 8))
            assert cross == 1
        assert verify_probe_certificate(ppg, cert, independent_pattern(4))

    def test_d4_padding_and_cross_degrees(self):
        ppg, cert = sat_to_4p1(EXAMPLE_SAT, 4)
        g = ppg.graph
        # each variable gains one padding vertex per side
        assert g.n == 14 + 2 * 6
        for i in range(4):
            cross = sum(g.has_edge(i, u) for u in range(10, 14))
            assert cross == 2
        assert verify_probe_certificate(ppg, cert, independent_pattern(4))

    def test_invalid_shape_rejected(self):
        with pytest.raises(InvalidSatInstance):
            sat_to_4p1(SatInstance.of(3, [(0, 1, 2)], [(0, 1, 2)]), 2)

    def test_d1_rejected(self):
        with pytest.raises(UnsupportedD):
            sat_to_4p1(EXAMPLE_SAT, 1)

    def test_equivalence_small(self):
        for seed in range(8):
            inst = random_sat_instance(6, seed)
            sat = brute_sat(inst) is not None
            for d in (2, 3):
                ppg, _ = sat_to_4p1(inst, d)
                assert (brute_dcut(ppg.graph, d) is not None) == sat

    def test_large_cliques_monochromatic(self):
        # smallest valid shape with clique size above the forcing threshold
        inst = random_sat_instance(9, 0)
        assert len(inst.positive_clauses) == 6
        ppg, _ = sat_to_4p1(inst, 2)
        g = ppg.graph
        k_mask = sum(1 << v for v in range(6))
        kp_mask = sum(1 << v for v in range(6, 12))
        full = (1 << g.n) - 1
        for counter in range(1, 1 << (g.n - 1)):
            blue = counter << 1
            red = full & ~blue
            ok = True
            for v in range(g.n):
                opposite = blue if (red >> v) & 1 else red
                if (g.adj_bits[v] & opposite).bit_count() > 2:
                    ok = False
                    break
            if ok:
                for mask in (k_mask, kp_mask):
                    assert mask & blue in (0, mask), (
                        "clique split by a valid 2-colouring"
                    )


# Reference copies of the constructions as first written, each gadget laid
# out by hand; the library builds them in loops and must give identical
# vertex ids, rows, sides and certificates.
def _reference_subdivide4(g):
    n = g.n
    edges = g.edges()
    new_edges = []
    close_at = {v: {} for v in range(n)}
    for k, (u, v) in enumerate(edges):
        y1, y2, y3, y4 = (n + 4 * k + i for i in range(4))
        new_edges += [(u, y1), (y1, y2), (y2, y3), (y3, y4), (y4, v)]
        close_at[u][v] = y1  # y adjacent to u on the edge towards v
        close_at[v][u] = y4
    total = n + 4 * len(edges)
    gprime = build_graph(total, new_edges)
    f_pairs = [tuple(sorted(at.values())[:2]) for at in close_at.values()]
    nonprobes = frozenset(y for at in close_at.values() for y in at.values())
    ppg = PartitionedProbeGraph(
        gprime, frozenset(range(total)) - nonprobes, nonprobes
    )
    return ppg, ProbeCertificate.of(f_pairs)


def _reference_sat_to_4p1(inst, d):
    p = len(inst.positive_clauses)
    q = len(inst.negative_clauses)
    n_vars = inst.n_vars
    pad = max(d - 3, 0)
    k_core = list(range(p))
    k_pad = [[p + h * pad + i for i in range(pad)] for h in range(n_vars)]
    k_all = k_core + [v for block in k_pad for v in block]
    base = p + n_vars * pad
    kp_core = [base + i for i in range(q)]
    kp_pad = [
        [base + q + h * pad + i for i in range(pad)] for h in range(n_vars)
    ]
    kp_all = kp_core + [v for block in kp_pad for v in block]
    base2 = base + q + n_vars * pad
    i_verts = [base2 + h for h in range(n_vars)]
    total = base2 + n_vars
    edges = []
    for clique in (k_all, kp_all):
        edges += [
            (a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]
        ]
    for i, clause in enumerate(inst.positive_clauses):
        edges += [(i_verts[h], k_core[i]) for h in clause]
    for j, clause in enumerate(inst.negative_clauses):
        edges += [(i_verts[h], kp_core[j]) for h in clause]
    for h in range(n_vars):
        edges += [(i_verts[h], w) for w in k_pad[h] + kp_pad[h]]
    if d >= 3:
        for i in range(p):
            for j in range(d - 2):
                edges.append((k_core[i], kp_core[(i + j) % p]))
    g = build_graph(total, edges)
    probes = frozenset(range(total)) - frozenset(i_verts)
    ppg = PartitionedProbeGraph(g, probes, frozenset(i_verts))
    f_pairs = [
        (a, b) for i, a in enumerate(i_verts) for b in i_verts[i + 1 :]
    ]
    return ppg, ProbeCertificate.of(f_pairs)


def _layout(out):
    ppg, cert = out
    return (ppg.graph.n, ppg.graph.adj_bits, ppg.probes, ppg.nonprobes,
            cert.f_edges)


class TestReferenceLayouts:
    """The golden digests reach sat4p1 only at d in {2, 3}, where there is
    no padding; this pins every vertex id of the padded layouts too."""

    def test_sat_to_4p1_matches_reference(self):
        for n_vars in (3, 6, 9, 12, 15):
            for seed in range(3):
                inst = random_sat_instance(n_vars, seed)
                for d in range(2, 9):
                    assert _layout(sat_to_4p1(inst, d)) == _layout(
                        _reference_sat_to_4p1(inst, d)
                    ), (n_vars, seed, d)

    def test_subdivide4_matches_reference(self):
        checked = 0
        for n in range(4, 51, 2):
            for seed in range(2):
                g = random_cubic_graph(n, 320_000 + seed)
                if g is None:
                    continue
                assert _layout(subdivide4(g)) == _layout(
                    _reference_subdivide4(g)
                ), (n, seed)
                checked += 1
        assert checked == 48


def _moshi_lift(g, colouring):
    """Output colouring of ``moshi_double(g)`` from a source colouring:
    both intermediates of an uncut edge take its ends' colour, and the two
    of a cut edge uv take the colours of u and of v."""
    out = list(colouring)
    for u, v in g.edges():
        out += [colouring[u], colouring[v]]
    return out


def _moshi_project(g, colouring):
    """Source colouring of an output colouring: its original vertices."""
    return list(colouring[: g.n])


def _planted_matching_cut(n, seed):
    """Connected graph on n >= 4 vertices with a planted matching cut:
    two connected halves (random tree plus extra edges) joined by a
    non-empty matching, under a random relabelling.  Returns the graph and
    the halves' colouring."""
    rng = random.Random(seed)
    a = rng.randint(2, n - 2)
    halves = (list(range(a)), list(range(a, n)))
    edges = set()
    for half in halves:
        for i in range(1, len(half)):
            edges.add((half[rng.randrange(i)], half[i]))
        for _ in range(len(half)):
            u, v = sorted(rng.sample(half, 2))
            edges.add((u, v))
    k = rng.randint(1, min(a, n - a))
    edges.update(zip(rng.sample(halves[0], k), rng.sample(halves[1], k)))
    label = list(range(n))
    rng.shuffle(label)
    g = build_graph(n, [(label[u], label[v]) for u, v in edges])
    colouring = [None] * n
    for v in range(n):
        colouring[label[v]] = RED if v < a else BLUE
    return g, colouring


class TestMoshiTransport:
    """Certificate transport through edge doubling: a source matching cut
    lifts to an output 1-cut, and an output 1-cut projects to a source
    one."""

    def _check(self, g, colouring):
        assert isinstance(validate_colouring(g, colouring, 1), CutCertificate)
        ppg, _ = moshi_double(g)
        lifted = _moshi_lift(g, colouring)
        assert isinstance(
            validate_colouring(ppg.graph, lifted, 1), CutCertificate
        )
        projected = _moshi_project(g, lifted)
        assert isinstance(validate_colouring(g, projected, 1), CutCertificate)
        return ppg.graph.n

    def test_planted_sources(self):
        began = time.perf_counter()
        for seed in range(100):
            rng = random.Random(seed)
            g, colouring = _planted_matching_cut(rng.randint(30, 200), seed)
            self._check(g, colouring)
        assert time.perf_counter() - began < 10.0

    def test_thousand_vertex_source(self):
        g, colouring = _planted_matching_cut(1000, 7)
        began = time.perf_counter()
        assert self._check(g, colouring) == 1000 + 2 * g.edge_count()
        assert time.perf_counter() - began < 3.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_output_cuts_project(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 6), 0.5, seed)
        if g.edge_count() == 0:
            return
        ppg, _ = moshi_double(g)
        cert = backtrack_dcut(ppg.graph, 1)
        if cert is not None:
            projected = _moshi_project(g, cert.colouring)
            assert isinstance(
                validate_colouring(g, projected, 1), CutCertificate
            )
