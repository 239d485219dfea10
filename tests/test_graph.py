"""graph module: construction, pattern search, cograph structure,
probe certificates and the random instance generator."""

import itertools
import random
import signal
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    GenerationTimeout,
    InvalidCertificate,
    InvalidEdge,
    InvalidInstance,
    PartitionedProbeGraph,
    Pattern,
    ProbeCertificate,
    UnsupportedPattern,
    build_graph,
    cograph_split,
    connected_components,
    cycle_pattern,
    diamond_pattern,
    find_induced,
    independent_pattern,
    is_connected,
    is_p4_free,
    moshi_double,
    parse_pattern,
    path_pattern,
    random_probe_hfree,
    random_sat_instance,
    sat_to_4p1,
    sp1_p4_pattern,
    star_pattern,
    two_p2_pattern,
    verify_probe_certificate,
)
import probecut.graph as graph_module
from probecut.graph import _free, _nbhd, iter_bits
from probecut.oracles import brute_probe_certificate

from conftest import (
    all_probes,
    complete_graph,
    cycle_graph,
    exhaustive_induced,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)


graphs_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.builds(
        lambda bits: build_graph(
            n,
            [
                e
                for i, e in enumerate(
                    (u, v) for u in range(n) for v in range(u + 1, n)
                )
                if (bits >> i) & 1
            ],
        ),
        st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1),
    )
)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.edges() == [(0, 1)]
        assert g.adj_bits == (0b10, 0b01)

    def test_c3(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count() == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            build_graph(4, [(0, 1), (1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidEdge):
            build_graph(2, [(0, 2)])

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidEdge) as info:
            build_graph(-1, [])
        assert str(info.value) == "vertex count must be non-negative, got -1"

    @given(graphs_strategy)
    def test_adjacency_symmetric_no_loops(self, g):
        for v in range(g.n):
            assert not g.has_edge(v, v)
            assert g.adj_bits[v] >> g.n == 0
            for u in _bits(g.adj_bits[v]):
                assert g.has_edge(u, v)


class TestNbhd:
    def test_empty_mask(self):
        assert _nbhd(path_graph(4).adj_bits, 0) == 0

    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32))
    @settings(max_examples=120)
    def test_matches_bit_loop(self, n, p, seed):
        adj = random_graph(n, p, seed).adj_bits
        mask = random.Random(seed).getrandbits(n)
        out = 0
        for v in iter_bits(mask):
            out |= adj[v]
        assert _nbhd(adj, mask) == out


class TestConnectivity:
    def test_k2(self):
        assert is_connected(build_graph(2, [(0, 1)]))

    def test_two_isolated(self):
        assert not is_connected(build_graph(2, []))

    def test_p4(self):
        assert is_connected(path_graph(4))

    def test_empty_graph(self):
        assert not is_connected(build_graph(0, []))

    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    @given(st.integers(0, 12), st.floats(0.0, 0.6), st.integers(0, 2 ** 32))
    @settings(max_examples=120)
    def test_agrees_with_components(self, n, p, seed):
        g = random_graph(n, p, seed)
        assert is_connected(g) == (len(connected_components(g)) == 1)


class TestFindInduced:
    def test_p4_in_p4_lexicographic(self):
        assert find_induced(path_graph(4), path_pattern(4)) == {
            0: 0, 1: 1, 2: 2, 3: 3,
        }

    def test_no_p4_in_star(self):
        assert find_induced(star_graph(3), path_pattern(4)) is None

    def test_2p2_in_c5_absent(self):
        # any two disjoint edges of a 5-cycle are joined by a third edge,
        # so there is no induced pair; the exhaustive oracle agrees
        assert not exhaustive_induced(cycle_graph(5), two_p2_pattern())
        assert find_induced(cycle_graph(5), two_p2_pattern()) is None

    def test_2p2_in_p5(self):
        g, h = path_graph(5), two_p2_pattern()
        assert exhaustive_induced(g, h)
        occurrence = find_induced(g, h)
        assert occurrence is not None
        placed = [occurrence[i] for i in range(4)]
        assert len(set(placed)) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert h.graph.has_edge(i, j) == g.has_edge(placed[i], placed[j])

    def test_oversized_pattern_rejected(self):
        big = path_pattern(9)
        with pytest.raises(UnsupportedPattern):
            find_induced(complete_graph(10), big)

    @given(graphs_strategy)
    @settings(max_examples=60)
    def test_matches_exhaustive_oracle(self, g):
        for h in (
            path_pattern(4),
            star_pattern(3),
            two_p2_pattern(),
            diamond_pattern(),
            sp1_p4_pattern(1),
            independent_pattern(4),
            cycle_pattern(4),
        ):
            assert (find_induced(g, h) is not None) == exhaustive_induced(g, h)

    @given(graphs_strategy)
    @settings(max_examples=80)
    def test_twin_patterns_give_least_occurrence(self, g):
        # patterns with twin vertices, whose images the search orders
        for name in ("K1,3", "K1,4", "4P1", "diamond", "2P2", "2P1+P4"):
            h = parse_pattern(name)
            k = h.graph.n
            least = next(
                (
                    placed
                    for placed in itertools.permutations(range(g.n), k)
                    if all(
                        h.graph.has_edge(i, j)
                        == g.has_edge(placed[i], placed[j])
                        for i in range(k)
                        for j in range(i + 1, k)
                    )
                ),
                None,
            )
            found = find_induced(g, h)
            image = None if found is None else tuple(found[i] for i in range(k))
            assert image == least, name


# every shape parse_pattern knows, from 0 to 8 vertices: the pair scan has
# its own paths for patterns of one, two and three vertices
PATTERN_NAMES = (
    "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
    "C3", "C4", "C5", "C6", "C7", "C8",
    "K1,1", "K1,2", "K1,3", "K1,4", "K1,5", "K1,6", "K1,7",
    "0P1", "1P1", "2P1", "3P1", "4P1", "5P1", "8P1",
    "2P2", "P1+P4", "2P1+P4", "3P1+P4", "4P1+P4", "diamond",
)


class TestPairScan:
    """The search that decides the last two pattern vertices in one
    memoised mask scan returns what the search with every level on the
    stack returns: the same least occurrence, or None.  Besides every
    named shape, a drawn pattern reaches pairs that are neither adjacent
    nor twins, which no named shape has last."""

    @given(
        st.integers(0, 13), st.floats(0, 1), st.integers(0, 2**32), st.data()
    )
    @settings(max_examples=300)
    def test_same_occurrence_as_stack_search(self, n, p, seed, data):
        g = random_graph(n, p, seed)
        full = (1 << n) - 1
        mask = data.draw(st.none() | st.just(full) | st.integers(0, full))
        within = full if mask is None else mask
        k = data.draw(st.integers(0, 6))
        drawn = random_graph(
            k, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 2**32))
        )
        pattern = Pattern("drawn", drawn)
        for h in [parse_pattern(name) for name in PATTERN_NAMES] + [pattern]:
            assert find_induced(g, h, mask) == stack_find_induced(
                g, h, within
            ), h

    @given(
        st.integers(2, 9), st.floats(0.2, 0.8), st.integers(0, 2**32),
        st.data(),
    )
    @settings(max_examples=40)
    def test_same_occurrence_on_construction_outputs(self, n, p, seed, data):
        # larger sparse graphs, with and without the certificate edges,
        # where many images of vertex k-3 leave the same candidate pair
        ppg, cert = moshi_double(random_connected_graph(n, p, seed))
        for g in (ppg.graph, ppg.graph.with_edges(cert.f_edges)):
            full = (1 << g.n) - 1
            within = data.draw(st.just(full) | st.integers(0, full))
            for name in ("K1,3", "diamond", "4P1", "P1+P4", "2P2", "P4", "C5"):
                h = parse_pattern(name)
                assert find_induced(g, h, within) == stack_find_induced(
                    g, h, within
                ), name

    @given(
        st.integers(9, 14), st.integers(0, 2**32), st.booleans(), st.data()
    )
    @settings(max_examples=60)
    def test_same_occurrence_when_every_vertex_meets_pattern_degrees(
        self, n, seed, full_mask, data
    ):
        # K_n minus a random matching: every degree is at least n - 2 >= 7,
        # the largest degree of any pattern on at most 8 vertices, so the
        # degree filter is skipped for every pattern
        rng = random.Random(seed)
        order = rng.sample(range(n), n)
        matching = {
            tuple(sorted(order[2 * i : 2 * i + 2]))
            for i in range(rng.randrange(n // 2 + 1))
        }
        g = build_graph(n, [
            e for e in itertools.combinations(range(n), 2)
            if e not in matching
        ])
        assert min(map(g.degree, range(n))) >= 7
        full = (1 << n) - 1
        within = full if full_mask else data.draw(st.integers(0, full))
        for h in [parse_pattern(name) for name in PATTERN_NAMES]:
            assert find_induced(g, h, within) == stack_find_induced(
                g, h, within
            ), h.name

    def test_alternating_patterns_of_one_size(self):
        # K1,3 and P4 (and 2P2 and C4) share their vertex count, and here
        # their name too: a plan cached on either would answer for the
        # other pattern
        pairs = [
            (star_pattern(3), sp1_p4_pattern(0)),
            (two_p2_pattern(), cycle_pattern(4)),
        ]
        graphs = [
            path_graph(4), star_graph(3), cycle_graph(4), cycle_graph(5),
            build_graph(4, [(0, 1), (2, 3)]), complete_graph(4),
        ] + [random_graph(9, 0.5, seed) for seed in range(20)]
        for first, second in pairs:
            patterns = [Pattern("H", first.graph), Pattern("H", second.graph)]
            differ = False
            for _ in range(3):
                for g in graphs:
                    found = [find_induced(g, h) for h in patterns]
                    assert found == [
                        stack_find_induced(g, h, (1 << g.n) - 1)
                        for h in patterns
                    ]
                    differ |= found[0] != found[1]
            assert differ

    def test_moshi_claw_check_within_budget(self):
        # a 762-vertex output: the stack search needs about 0.43 s, the
        # pair scan about 0.08 s; best of three, as the host is shared
        ppg, cert = moshi_double(random_connected_graph(60, 0.2, 0))
        assert ppg.graph.n == 762
        times = []
        for _ in range(3):
            began = time.perf_counter()
            assert verify_probe_certificate(ppg, cert, star_pattern(3))
            times.append(time.perf_counter() - began)
        assert min(times) < 0.25


class TestPatterns:
    def test_parse_round_trip(self):
        for name in ("P4", "C5", "K1,3", "2P2", "4P1", "P1+P4", "2P1+P4", "diamond"):
            assert parse_pattern(name).name == name

    def test_parse_unknown(self):
        with pytest.raises(UnsupportedPattern):
            parse_pattern("H17")

    @pytest.mark.parametrize("name, k", [
        ("100000P1", 100000), ("P100000", 100000), ("C100000", 100000),
        ("K1,99999", 100000), ("99996P1+P4", 100000), ("9P1", 9),
        ("5P1+P4", 9), ("K1,8", 9),
    ])
    def test_oversized_name_refused_before_building(
        self, monkeypatch, name, k
    ):
        # the size comes from the name; nothing is allocated for it
        def never(*args, **kwargs):
            raise AssertionError("built a pattern over the limit")

        monkeypatch.setattr("probecut.graph.build_graph", never)
        with pytest.raises(UnsupportedPattern, match=f"has {k} > 8 vertices"):
            parse_pattern(name)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_short_cycles_refused(self, r, monkeypatch):
        """C0, C1 and C2 name no cycle; no graph is built for them."""
        def never(*args, **kwargs):
            raise AssertionError("built a graph for a short cycle")

        monkeypatch.setattr("probecut.graph.build_graph", never)
        message = f"cycle C{r} needs at least 3 vertices"
        for make in (lambda: parse_pattern(f"C{r}"), lambda: cycle_pattern(r)):
            with pytest.raises(UnsupportedPattern) as info:
                make()
            assert str(info.value) == message

    @pytest.mark.parametrize("name", ["P8", "C8", "K1,7", "8P1", "4P1+P4"])
    def test_largest_names_parse(self, name):
        assert parse_pattern(name).graph.n == 8

    def test_diamond_is_k4_minus_edge(self):
        d = diamond_pattern().graph
        assert d.edge_count() == 5 and not d.has_edge(2, 3)


class TestProbeCertificate:
    def test_p3_completed_to_triangle_is_2p2_free(self):
        g = path_graph(3)
        ppg = PartitionedProbeGraph(g, frozenset({1}), frozenset({0, 2}))
        cert = ProbeCertificate.of([(0, 2)])
        assert verify_probe_certificate(ppg, cert, two_p2_pattern())

    def test_empty_certificate_equals_plain_freeness(self):
        g = path_graph(4)
        ppg = all_probes(g)
        cert = ProbeCertificate.of([])
        assert verify_probe_certificate(ppg, cert, star_pattern(3))
        assert not verify_probe_certificate(ppg, cert, path_pattern(4))

    def test_moshi_k2_certificate_claw_free(self):
        ppg, cert = moshi_double(build_graph(2, [(0, 1)]))
        assert verify_probe_certificate(ppg, cert, star_pattern(3))

    def test_invalid_endpoint_rejected(self):
        g = path_graph(3)
        ppg = PartitionedProbeGraph(g, frozenset({1}), frozenset({0, 2}))
        with pytest.raises(InvalidCertificate):
            verify_probe_certificate(
                ppg, ProbeCertificate.of([(0, 1)]), two_p2_pattern()
            )

    def test_outside_pair_message(self):
        g = path_graph(3)
        ppg = PartitionedProbeGraph(g, frozenset({1}), frozenset({0, 2}))
        with pytest.raises(InvalidCertificate) as info:
            verify_probe_certificate(
                ppg, ProbeCertificate.of([(1, 2)]), two_p2_pattern()
            )
        assert str(info.value) == (
            "certificate pair (1, 2) leaves the non-probe side"
        )

    def test_loop_pair_message(self):
        """A pair (v, v) is named as a loop, even with v a non-probe."""
        g = path_graph(3)
        ppg = PartitionedProbeGraph(g, frozenset({1}), frozenset({0, 2}))
        with pytest.raises(InvalidCertificate) as info:
            verify_probe_certificate(
                ppg, ProbeCertificate.of([(2, 2)]), two_p2_pattern()
            )
        assert str(info.value) == "certificate pair (2, 2) is a loop"

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(InvalidInstance) as info:
            PartitionedProbeGraph(path_graph(3), frozenset({1}), frozenset({0}))
        assert str(info.value) == "probes and nonprobes do not cover V"

    def test_existing_edge_rejected(self):
        g = build_graph(4, [(0, 2), (1, 2), (1, 3)])
        ppg = PartitionedProbeGraph(g, frozenset({1, 2}), frozenset({0, 3}))
        with pytest.raises(InvalidCertificate):
            verify_probe_certificate(
                ppg, ProbeCertificate.of([(0, 3), (0, 0)]), two_p2_pattern()
            )

    def test_nonprobe_independence_enforced(self):
        with pytest.raises(InvalidInstance):
            PartitionedProbeGraph(
                path_graph(3), frozenset({1}), frozenset({0, 2}) | {1}
            )
        with pytest.raises(InvalidInstance):
            PartitionedProbeGraph(
                build_graph(2, [(0, 1)]), frozenset(), frozenset({0, 1})
            )


_SHAPES = (
    [f"P{t}" for t in range(1, 9)]
    + [f"C{r}" for r in range(3, 9)]
    + [f"K1,{m}" for m in range(8)]
    + [f"{s}P1" for s in range(1, 9)]
    + ["P1+P4", "2P1+P4", "3P1+P4", "4P1+P4", "diamond", "2P2"]
)
"""Every non-empty shape ``parse_pattern`` accepts; P4 is among the
paths."""


def _line_graph_of_bipartite(seed):
    """The line graph of a random bipartite graph, its vertices shuffled:
    N(e) is two cliques with no edge between them (the edges at each end
    of e), and N(e) & N(f) for adjacent e, f is one clique, so the greedy
    cover proves it claw-, K1,4- and diamond-free."""
    rng = random.Random(seed)
    edges = [
        (a, b) for a in range(5) for b in range(5, 10) if rng.random() < 0.5
    ]
    rng.shuffle(edges)
    return build_graph(len(edges), [
        (i, j)
        for i, j in itertools.combinations(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j])
    ])


def _disjoint_cliques(count, seed):
    """At most ``count`` disjoint cliques on 12 shuffled vertices, which
    the greedy cover splits into exactly those cliques."""
    rng = random.Random(seed)
    group = [rng.randrange(count) for _ in range(12)]
    return build_graph(12, [
        (u, v)
        for u, v in itertools.combinations(range(12), 2)
        if group[u] == group[v]
    ])


class TestFreeness:
    """``_free`` peels universal and isolated pattern vertices off to a
    core and decides an edgeless core by a greedy clique cover, a P4 core
    by cograph tests and any other core by the occurrence search; either
    way its answer is whether the search finds nothing."""

    def test_matches_occurrence_search_on_sp1_p4(self):
        rng = random.Random(30)
        answers = set()
        for _ in range(500):
            n = rng.randint(4, 16)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(2**32))
            masks = [None] + [rng.randrange(1 << n) for _ in range(2)]
            for s in range(5):
                h = sp1_p4_pattern(s)
                for mask in masks:
                    within = (1 << n) - 1 if mask is None else mask
                    expected = find_induced(g, h, within) is None
                    assert _free(g, h, mask) == expected, (g, s, mask)
                    answers.add((s, mask is None, expected))
        assert len(answers) == 20  # both answers for each s, masked or not

    @pytest.mark.parametrize("name", _SHAPES)
    def test_matches_occurrence_search_on_every_shape(self, name):
        """Random graphs on up to 12 vertices, half of them with the
        pattern planted on random vertices; a planted graph's mask keeps
        the planted vertices.  The pattern itself and a graph one vertex
        too small start the list, so both answers are reached, masked and
        unmasked."""
        h = parse_pattern(name)
        k, rows = h.graph.n, h.graph.adj_bits
        rng = random.Random(name)
        cases = [(h.graph, (1 << k) - 1), (random_graph(k - 1, 0.5, 0), 0)]
        for _ in range(40):
            n = rng.randint(k, 12)
            g = random_graph(n, rng.random(), rng.randrange(2**32))
            planted = 0
            if rng.random() < 0.5:
                at = rng.sample(range(n), k)
                planted = sum(1 << v for v in at)
                g = build_graph(n, [
                    (u, v) for u, v in g.edges()
                    if not (planted >> u & 1 and planted >> v & 1)
                ] + [
                    (at[i], at[j]) for i in range(k) for j in iter_bits(rows[i])
                ])
            cases.append((g, planted))
        answers = set()
        for g, planted in cases:
            for mask in (None, planted | rng.randrange(1 << g.n)):
                within = (1 << g.n) - 1 if mask is None else mask
                expected = find_induced(g, h, within) is None
                assert _free(g, h, mask) == expected, (g, mask)
                answers.add((mask is None, expected))
        assert len(answers) == 4

    def test_matches_occurrence_search_on_random_patterns(self):
        """Any pattern, not only a named shape: random graphs on up to 6
        vertices peel to every kind of core."""
        rng = random.Random(33)
        for i in range(150):
            k = rng.randint(1, 6)
            shape = random_graph(k, rng.random(), rng.randrange(2**32))
            h = Pattern(f"R{i}", shape)
            for _ in range(10):
                n = rng.randint(0, 11)
                g = random_graph(n, rng.random(), rng.randrange(2**32))
                for mask in (None, rng.randrange(1 << n)):
                    within = (1 << n) - 1 if mask is None else mask
                    expected = find_induced(g, h, within) is None
                    assert _free(g, h, mask) == expected, (h, g, mask)

    @pytest.mark.parametrize("name", [
        "K1,3", "K1,4", "diamond", "3P1", "4P1", "2P2", "C4", "C5", "P5",
    ])
    def test_other_patterns_use_the_search(self, name, monkeypatch):
        """The search decides what no peel or cover does.  A pattern with
        no universal or isolated vertex (2P2, C4, C5, P5) goes to it once
        per check; one that peels to an edgeless core makes no call where
        the greedy cover proves the core absent: line graphs of bipartite
        graphs for the stars and the diamond, and at most k - 1 disjoint
        cliques for kP1."""
        calls = []

        def counted(g, h, mask=None):
            calls.append(h.name)
            return search(g, h, mask)

        search = graph_module.find_induced
        monkeypatch.setattr(graph_module, "find_induced", counted)
        h = parse_pattern(name)
        for seed in range(20):
            g = random_graph(9, 0.5, seed)
            for mask in (None, 0b110111011):
                expected = search(g, h, mask) is None
                assert _free(g, h, mask) == expected
        if name in ("2P2", "C4", "C5", "P5"):
            assert calls == [name] * 40
        else:
            calls.clear()
            for seed in range(20):
                if name.endswith("P1"):
                    g = _disjoint_cliques(h.graph.n - 1, seed)
                else:
                    g = _line_graph_of_bipartite(seed)
                for mask in (None, random.Random(seed).randrange(1 << g.n)):
                    assert search(g, h, mask) is None
                    assert _free(g, h, mask)
            assert calls == []
        calls.clear()
        _free(random_graph(9, 0.5, 0), sp1_p4_pattern(2))
        assert calls == []

    def test_greedy_cover_failure_falls_back(self, monkeypatch):
        """C5 has no independent triple, but the greedy cover takes {0, 1},
        {2, 3} and then needs a third clique for 4, so the search answers."""
        calls = []

        def counted(g, h, mask=None):
            calls.append(h.name)
            return search(g, h, mask)

        search = graph_module.find_induced
        monkeypatch.setattr(graph_module, "find_induced", counted)
        g = cycle_graph(5)
        assert not graph_module._covered(g.adj_bits, 0b11111, 2)
        assert _free(g, independent_pattern(3))
        assert calls == ["3P1"]
        assert not _free(cycle_graph(6), independent_pattern(3))

    @pytest.mark.parametrize("name", ["diamond", "C3"])
    def test_twin_universal_vertices(self, name):
        """The two universal vertices of the diamond (and all three of C3)
        are twins and take increasing images; every relabelling of the
        pattern, alone or beside extra vertices, is still found; K4 holds
        no diamond and C4 neither pattern."""
        h = parse_pattern(name)
        k = h.graph.n
        for perm in itertools.permutations(range(k + 2)):
            g = build_graph(k + 2, [
                (perm[u], perm[v]) for u, v in h.graph.edges()
            ] + [(perm[k], perm[k + 1]), (perm[0], perm[k])])
            assert not _free(g, h)
            assert not _free(g, h, sum(1 << perm[v] for v in range(k)))
        assert _free(complete_graph(4), diamond_pattern())
        assert _free(cycle_graph(4), h)

    def test_empty_pattern_is_everywhere(self):
        h = parse_pattern("0P1")
        for g in (build_graph(0, []), random_graph(5, 0.5, 0)):
            assert find_induced(g, h) == {}
            assert not _free(g, h)
            assert not _free(g, h, 0)

    def test_oversized_pattern_refused_alike(self):
        g, h = complete_graph(10), sp1_p4_pattern(5)
        with pytest.raises(UnsupportedPattern) as searched:
            find_induced(g, h)
        with pytest.raises(UnsupportedPattern) as decided:
            _free(g, h)
        assert str(decided.value) == str(searched.value)
        assert str(decided.value) == "pattern 5P1+P4 has 9 > 8 vertices"

    @pytest.mark.parametrize("n, s, budget", [(200, 1, 0.3), (400, 2, 1.0)])
    def test_certificate_check_within_budget(self, n, s, budget):
        """A P4 joined to a random cograph on n - 4 vertices: every induced
        P4 of a join lies in one side, and the cograph side is complete to
        the path, so the graph is sP1+P4-free.  On a shared 2-CPU x86 host
        the occurrence search took 0.8 to 1.3 s at n = 200 and over 300 s
        at n = 400 with s = 2; the cograph tests take 0.06 to 0.07 s and
        0.22 s, and 24.5 s at n = 400 if a nested non-neighbourhood that is
        a cograph is not skipped.  Best of three; the alarm ends an overrun
        at 10 s."""
        rng = random.Random(0)
        parts = [[v] for v in range(4, n)]
        edges = [(0, 1), (1, 2), (2, 3)]
        edges += [(u, v) for u in range(4) for v in range(4, n)]
        while len(parts) > 1:
            a = parts.pop(rng.randrange(len(parts)))
            b = parts.pop(rng.randrange(len(parts)))
            if rng.random() < 0.5:
                edges += [(u, v) for u in a for v in b]
            parts.append(a + b)
        ppg = all_probes(build_graph(n, edges))

        def overrun(signum, frame):
            raise AssertionError("verify_probe_certificate over its budget")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(10)
        try:
            times = []
            for _ in range(3):
                began = time.perf_counter()
                assert verify_probe_certificate(
                    ppg, ProbeCertificate.of([]), sp1_p4_pattern(s)
                )
                times.append(time.perf_counter() - began)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert min(times) < budget


    @pytest.mark.parametrize(
        "source", ["sat4p1", "moshi-dense", "moshi-c500"]
    )
    def test_construction_check_within_budget(self, source):
        """The pattern check of a construction's completed output at scale:
        sat4p1 of 300 variables at d = 3 (700 vertices, 4P1-free: three
        cliques), and moshi of a 60-vertex source with 518 edges (1,096
        vertices) and of two C500 joined by three edges (3,006), both
        claw-free.  On a shared 2-CPU x86 host the occurrence search took
        6.0 s, 0.22 s and 0.05 s, and the peel and cover take 0.021 s,
        0.036 s and 0.010 s.  Best of three; the alarm ends an overrun at
        10 s."""
        if source == "sat4p1":
            ppg, cert = sat_to_4p1(random_sat_instance(300, 0), 3)
            h, n = independent_pattern(4), 700
        else:
            if source == "moshi-dense":
                g = random_connected_graph(60, 0.3, 51)
            else:
                g = build_graph(1000, [(v, v + 1) for v in range(499)] + [
                    (v, v + 1) for v in range(500, 999)
                ] + [(0, 499), (500, 999), (0, 500), (100, 600), (200, 700)])
            ppg, cert = moshi_double(g)
            h, n = star_pattern(3), 1096 if source == "moshi-dense" else 3006
        assert ppg.graph.n == n

        def overrun(signum, frame):
            raise AssertionError("verify_probe_certificate over its budget")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(10)
        try:
            times = []
            for _ in range(3):
                began = time.perf_counter()
                assert verify_probe_certificate(ppg, cert, h)
                times.append(time.perf_counter() - began)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert min(times) < 0.5


class TestCographMachinery:
    def test_c4_is_p4_free(self):
        assert is_p4_free(cycle_graph(4)) is True

    def test_p4_witness(self):
        assert is_p4_free(path_graph(4)) == (0, 1, 2, 3)

    def test_k14_is_p4_free(self):
        assert is_p4_free(star_graph(4)) is True
        assert not exhaustive_induced(star_graph(4), path_pattern(4))

    @given(graphs_strategy)
    @settings(max_examples=80)
    def test_agrees_with_pattern_search(self, g):
        assert (is_p4_free(g) is True) == (
            find_induced(g, path_pattern(4)) is None
        )

    @given(
        st.integers(1, 14), st.floats(0, 1), st.integers(0, 2**32), st.data()
    )
    @settings(max_examples=300)
    def test_masked_check_matches_relabelled_copy(self, n, p, seed, data):
        g = random_graph(n, p, seed)
        mask = data.draw(st.integers(0, (1 << n) - 1))
        # reference: the subgraph on the mask, relabelled densely
        verts = _bits(mask)
        index = {v: i for i, v in enumerate(verts)}
        sub = build_graph(len(verts), [
            (index[u], index[v]) for u, v in g.edges()
            if u in index and v in index
        ])
        expected = is_p4_free(sub)
        if expected is not True:
            expected = tuple(verts[i] for i in expected)
        assert is_p4_free(g, mask) == expected

    def test_dominating_edge_k2(self):
        assert _dominating_edge(build_graph(2, [(0, 1)])) == (0, 1)

    def test_dominating_edge_c4(self):
        g = cycle_graph(4)
        u, v = _dominating_edge(g)
        assert g.has_edge(u, v)

    def test_dominating_edge_star_contains_centre(self):
        edge = _dominating_edge(star_graph(3))
        assert 0 in edge
        # only centre-incident edges dominate, and those are all the edges
        assert set(star_graph(3).edges()) == {(0, 1), (0, 2), (0, 3)}

    def test_dominating_edge_postcondition(self):
        for seed in range(40):
            g = _random_connected_cograph(seed)
            if g.n < 2:
                continue
            u, v = _dominating_edge(g)
            assert g.has_edge(u, v)
            for w in range(g.n):
                assert w in (u, v) or g.has_edge(w, u) or g.has_edge(w, v)

    def test_dominating_edge_rejects_p4(self):
        g = path_graph(4)
        assert is_p4_free(g) == (0, 1, 2, 3)
        # connected and co-connected: the split has a single part
        assert cograph_split(g, 0b1111) == (True, [0b1111])

    def test_dominating_edge_rejects_disconnected(self):
        assert cograph_split(build_graph(2, []), 0b11) == (False, [0b01, 0b10])
        g = build_graph(5, [(0, 3), (3, 4)])
        assert cograph_split(g, 0b11111) == (False, [0b11001, 0b10, 0b100])

    def test_join_split_k2(self):
        assert _join_split(build_graph(2, [(0, 1)])) == (
            frozenset({0}), frozenset({1}),
        )

    def test_join_split_c4(self):
        assert _join_split(cycle_graph(4)) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_join_split_star(self):
        assert _join_split(star_graph(3)) == (frozenset({0}), frozenset({1, 2, 3}))

    def test_join_split_postcondition(self):
        for seed in range(40):
            g = _random_connected_cograph(seed)
            if g.n < 2:
                continue
            s1, s2 = _join_split(g)
            assert s1 and s2 and not (s1 & s2)
            assert s1 | s2 == set(range(g.n))
            for a in s1:
                for b in s2:
                    assert g.has_edge(a, b)

    @given(st.integers(1, 40), st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=150)
    def test_random_cotrees(self, n, seed, perturb):
        rng = random.Random(seed)
        g = _random_cotree(n, rng)
        if perturb and n >= 2:
            u, v = rng.sample(range(n), 2)
            edges = set(g.edges()) ^ {(min(u, v), max(u, v))}
            g = build_graph(n, edges)
        assert (is_p4_free(g) is True) == (
            find_induced(g, path_pattern(4)) is None
        )
        within = [v for v in range(n) if rng.random() < 0.7]
        mask = sum(1 << v for v in within)
        assert list(map(_bits, connected_components(g))) == _bfs_components(
            g, range(n)
        )
        assert list(map(_bits, connected_components(g, mask))) == (
            _bfs_components(g, within)
        )
        joined, parts = cograph_split(g, mask)
        assert sorted(v for p in parts for v in _bits(p)) == within
        assert [p & -p for p in parts] == sorted(p & -p for p in parts)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                for u in _bits(a):
                    # a join links every two parts, a union none
                    assert g.adj_bits[u] & b == (b if joined else 0)

    def test_deep_threshold_graph(self):
        # vertex i is joined to every earlier vertex when i is odd and
        # isolated from them when i is even: a cotree of depth 1,499.  The
        # budget holds only if a level costs a few mask operations; a BFS
        # on every level takes about three times as long
        n = 1500
        edges = [(j, i) for i in range(1, n, 2) for j in range(i)]
        perm = list(range(n))
        random.Random(7).shuffle(perm)
        shuffled = [(perm[u], perm[v]) for u, v in edges]
        assert sys.getrecursionlimit() < n
        for g in (build_graph(n, edges), build_graph(n, shuffled)):
            began = time.perf_counter()
            assert is_p4_free(g) is True
            assert time.perf_counter() - began < 0.25
            assert connected_components(g) == [(1 << n) - 1]
        # without the edge 0-3 the bottom of the chain holds the P4 0-1-3-2
        broken = build_graph(n, [e for e in edges if e != (0, 3)])
        assert is_p4_free(broken) == (0, 1, 3, 2)


def stack_find_induced(g, h, within):
    """Reference: the induced-pattern search with every pattern vertex on
    the explicit stack and forward checking at each level."""
    k = h.graph.n
    if k > 8:
        raise UnsupportedPattern(
            f"pattern {h.name} has {k} > 8 vertices"
        )
    if k > within.bit_count():
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
    # at_least[t]: vertices of degree >= t, for pattern degrees t < k; a
    # degree in g bounds the degree inside ``within``, so this stays sound
    at_least = [0] * (k + 1)
    for v, av in enumerate(adj):
        at_least[min(av.bit_count(), k)] |= 1 << v
    for t in range(k - 1, -1, -1):
        at_least[t] |= at_least[t + 1]
    image = [0] * k
    # cands[j][l]: candidates for pattern vertex l >= j given images[:j];
    # left[j]: candidates for j not tried yet
    cands = [[at_least[a.bit_count()] & within for a in pat_adj]] + [[]] * k
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


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _co_split(g):
    """The co-component split of V; the top-level join of a connected
    cograph."""
    joined, parts = cograph_split(g, (1 << g.n) - 1)
    assert joined and len(parts) >= 2
    return parts


def _dominating_edge(g):
    """Least vertices of the first two co-components: every other vertex
    lies in a co-component joined to one of them."""
    parts = _co_split(g)
    return (_bits(parts[0])[0], _bits(parts[1])[0])


def _join_split(g):
    """First co-component against the union of the rest."""
    parts = _co_split(g)
    return frozenset(_bits(parts[0])), frozenset(_bits(sum(parts[1:])))


def _bfs_components(g, within):
    """Reference: plain breadth-first search over ``Graph.has_edge``."""
    allowed = set(within)
    comps = []
    for s in sorted(allowed):
        if any(s in c for c in comps):
            continue
        comp, queue = {s}, [s]
        for v in queue:
            for u in sorted(allowed - comp):
                if g.has_edge(v, u):
                    comp.add(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def _random_cotree(n: int, rng: random.Random):
    """Random cograph on n shuffled vertices: each cotree node splits its
    vertices in two and joins the halves or leaves them apart."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    stack = [labels]
    while stack:
        part = stack.pop()
        if len(part) < 2:
            continue
        k = rng.randint(1, len(part) - 1)
        left, right = part[:k], part[k:]
        if rng.random() < 0.5:
            edges += [(u, v) for u in left for v in right]
        stack += [left, right]
    return build_graph(n, edges)


def _random_connected_cograph(seed: int):
    """Random cograph built by unioning/joining smaller ones, then joined
    once more at the top so the result is connected."""
    import random

    rng = random.Random(seed)

    def grow(labels):
        if len(labels) == 1:
            return []
        k = rng.randint(1, len(labels) - 1)
        left, right = labels[:k], labels[k:]
        edges = grow(left) + grow(right)
        if rng.random() < 0.5:
            edges += [(u, v) for u in left for v in right]
        return edges

    n = rng.randint(2, 8)
    labels = list(range(n))
    k = rng.randint(1, n - 1)
    edges = grow(labels[:k]) + grow(labels[k:])
    edges += [(u, v) for u in labels[:k] for v in labels[k:]]
    return build_graph(n, edges)


def edge_list_random_probe_hfree(
    n: int,
    h: Pattern,
    density: float,
    seed: int,
    attempts: int = 10_000,
) -> tuple[PartitionedProbeGraph, ProbeCertificate]:
    """Reference: the generator that builds an edge list per attempt."""
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


def _generated(generate, *args):
    """The parts of a generator result that must match, or the error."""
    try:
        ppg, cert = generate(*args)
    except GenerationTimeout as exc:
        return type(exc), str(exc)
    return ppg.graph.adj_bits, ppg.probes, ppg.nonprobes, cert.f_edges


class TestGeneratorEquivalence:
    """The generator that draws each attempt into adjacency masks returns
    exactly what the edge-list generator returns, draw for draw."""

    @given(
        st.integers(2, 16),
        st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9, 1.0]) | st.floats(0, 1),
        st.sampled_from(PATTERN_NAMES),
        st.integers(0, 2**32),
        st.integers(1, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_instance_or_error(self, n, density, name, seed, attempts):
        h = parse_pattern(name)
        args = (n, h, density, seed)
        # n <= 16, so the budget is the attempt constant
        with mock.patch.object(graph_module, "_ATTEMPTS", attempts):
            assert _generated(random_probe_hfree, *args) == _generated(
                edge_list_random_probe_hfree, *args, attempts
            )


class TestRandomProbeHfree:
    def test_k2_full_density(self):
        ppg, cert = random_probe_hfree(2, path_pattern(4), 1.0, seed=3)
        assert ppg.graph.edge_count() == 1
        assert len(ppg.nonprobes) <= 1
        assert cert.f_edges == frozenset()

    def test_outputs_always_verify(self):
        for seed in range(25):
            ppg, cert = random_probe_hfree(7, sp1_p4_pattern(1), 0.6, seed=seed)
            assert verify_probe_certificate(ppg, cert, sp1_p4_pattern(1))
            assert is_connected(ppg.graph)

    def test_matches_brute_certificate_search(self):
        ppg, cert = random_probe_hfree(8, sp1_p4_pattern(1), 0.5, seed=1)
        found = brute_probe_certificate(ppg, sp1_p4_pattern(1))
        assert found is not None
        assert verify_probe_certificate(ppg, found, sp1_p4_pattern(1))

    def test_deterministic_in_seed(self):
        a = random_probe_hfree(7, sp1_p4_pattern(2), 0.5, seed=42)
        b = random_probe_hfree(7, sp1_p4_pattern(2), 0.5, seed=42)
        assert a[0].graph == b[0].graph
        assert a[0].nonprobes == b[0].nonprobes
        assert a[1] == b[1]

    def test_default_attempts_shrink_with_pair_count(self):
        """Above n = 63 the default cap is the pair draws of 10,000 attempts
        at n = 63, so a hopeless request at n = 1,414 gives up after 19
        attempts instead of running for most of an hour."""
        start = time.perf_counter()
        with pytest.raises(GenerationTimeout, match=" in 19 attempts$"):
            random_probe_hfree(1414, sp1_p4_pattern(1), 0.5, seed=1)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("n, density, message", [
        (1, 0.5, "need n >= 2"),
        (4, 1.5, "density must be a probability"),
    ], ids=["n1", "density"])
    def test_bad_arguments_rejected(self, n, density, message):
        with pytest.raises(ValueError) as info:
            random_probe_hfree(n, path_pattern(4), density, seed=0)
        assert str(info.value) == message

    def test_timeout_when_impossible(self):
        # a 2P1-free graph is complete; density 0.3 never produces one at n=10
        with pytest.raises(GenerationTimeout):
            random_probe_hfree(10, independent_pattern(2), 0.3, seed=0)
