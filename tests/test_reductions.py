"""Reduction generators: shapes, certificates and oracle equivalences."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    GenerationTimeout,
    InvalidSatInstance,
    NoEdges,
    NotBipartite,
    NotConnected,
    NotCubic,
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
    validate_sat_shape,
    verify_probe_certificate,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
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
        for seed in range(5):
            for n in (6, 9):
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
