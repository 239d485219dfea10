"""Probe solvers: seed machinery, non-probe classification and parity with
the brute-force oracles across every dispatch path."""

import random
import time
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    CutCertificate,
    NotConnected,
    PartitionedProbeGraph,
    brute_dcut,
    brute_mmc,
    brute_pmc,
    brute_probe_certificate,
    build_graph,
    connected_components,
    is_connected,
    random_probe_hfree,
    solve_dcut,
    solve_mmc,
    solve_pmc,
    sp1_p4_pattern,
    validate_colouring,
)
from probecut.graph import _nbhd, iter_bits
from probecut.solvers import _DcutSolver, _subsets

from test_golden_solvers import FEATURED, _instance as _golden_instance
from conftest import (
    all_probes,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def _reference_seeds(ppg: PartitionedProbeGraph, k: int):
    """All vertex masks of at most k vertices whose closed neighbourhood
    covers everything except an independent set.

    Ordered by size then lexicographically, so consumers that stop at the
    first hit are deterministic.
    """
    g = ppg.graph
    full = (1 << g.n) - 1
    adj = g.adj_bits
    for sel in _subsets(full, k):
        covered = sel
        for v in iter_bits(sel):
            covered |= adj[v]
        rest = full & ~covered
        if all(not (adj[v] & rest) for v in iter_bits(rest)):
            yield sel


class TestSeedSets:
    """The matching-cut driver branches on the first seed it scans; the
    reference lists every seed, in the order that scan follows."""

    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        out = list(_reference_seeds(all_probes(g), 1))
        assert out == [0b01, 0b10]

    def test_p4_singletons(self):
        out = [
            s for s in _reference_seeds(all_probes(path_graph(4)), 1)
            if s.bit_count() == 1
        ]
        assert out == [0b0010, 0b0100]

    def test_full_set_always_included(self):
        g = cycle_graph(5)
        out = list(_reference_seeds(all_probes(g), 5))
        assert 0b11111 in out

    def test_order_by_size_then_lex(self):
        g = path_graph(4)
        out = list(_reference_seeds(all_probes(g), 2))
        sizes = [s.bit_count() for s in out]
        assert sizes == sorted(sizes)
        for size in set(sizes):
            # ascending vertex lists in lexicographic order
            lists = [
                [v for v in range(4) if s >> v & 1]
                for s in out if s.bit_count() == size
            ]
            assert lists == sorted(lists)

    @pytest.mark.parametrize("solve", [solve_mmc, solve_pmc])
    @pytest.mark.parametrize("g, seed", [
        (build_graph(2, [(0, 1)]), [0]),
        (path_graph(4), [1]),
        (cycle_graph(5), [0, 1]),
    ], ids=["K2", "P4", "C5"])
    def test_driver_traces_first_seed(self, solve, g, seed):
        assert solve(all_probes(g), 0).case_trace == [f"seed {seed}"]

    @given(st.integers(2, 12), st.sampled_from([0.3, 0.5, 0.8]),
           st.integers(0, 10 ** 6), st.sampled_from([0, 1]),
           st.sampled_from([solve_mmc, solve_pmc]))
    @settings(max_examples=100, deadline=None)
    def test_driver_takes_first_reference_seed(self, n, p, seed, s, solve):
        ppg = all_probes(random_connected_graph(n, p, seed))
        first = next(_reference_seeds(ppg, s + 4), None)
        expected = "no-seed" if first is None else f"seed {list(iter_bits(first))}"
        assert solve(ppg, s).case_trace == [expected]


def _many_components_run(ppg, d=2):
    """Run the three-or-more-component case of ``solve_dcut`` directly.

    Returns its case trace, its certificate and the number of colourings
    it validated, plus the answer it gives together with the
    lone-non-probe step that every case relies on."""
    solver = _DcutSolver(ppg, d)
    comps = connected_components(ppg.graph, solver.p_mask)
    assert len(comps) >= 3
    cert = solver._many_components(comps)
    trace, branches = list(solver.trace), solver.branches
    if cert is not None:
        check = validate_colouring(ppg.graph, list(cert.colouring), d)
        assert isinstance(check, CutCertificate)
    answer = cert is not None or solver._lone_nonprobe_step() is not None
    return trace, cert, branches, answer


def _assert_parity_on_promise(ppg, answer, d=2):
    """Where the instance is connected and probe (P1+P4)-free, the case
    must agree with the oracle."""
    if not is_connected(ppg.graph):
        return
    if brute_probe_certificate(ppg, sp1_p4_pattern(1)) is None:
        return
    assert answer == (brute_dcut(ppg.graph, d) is not None)


class TestClassify:
    _NBRS = {
        6: range(6),            # type-A
        7: (0, 2, 3, 4, 5),     # type-B (misses 1)
        8: (0, 1, 2, 3),        # type-C
        9: (4,),                # type-D
    }

    def _three_k2_instance(self, keep=(6, 7, 8, 9)):
        # probe side: three disjoint edges; the kept non-probe profiles
        # are numbered from 6 in the order given
        edges = [(0, 1), (2, 3), (4, 5)]
        for w, v in enumerate(keep, 6):
            edges += [(w, u) for u in self._NBRS[v]]
        n = 6 + len(keep)
        return PartitionedProbeGraph(
            build_graph(n, edges), frozenset(range(6)), frozenset(range(6, n))
        )

    def test_profiles(self):
        ppg = self._three_k2_instance()
        for d in (2, 3):
            trace, _, _, answer = _many_components_run(ppg, d)
            assert trace == ["multi-comp/type-a"]
            _assert_parity_on_promise(ppg, answer, d)

    def test_partition_property(self):
        """Type A goes before type B, which goes before the dominating
        pair; type D never picks the case."""
        for keep, label in [
            ((6, 7, 8, 9), "multi-comp/type-a"),
            ((6, 9), "multi-comp/type-a"),
            ((7, 8, 9), "multi-comp/type-b"),
            ((7,), "multi-comp/type-b"),
            ((8, 9), "multi-comp/dominating-pair"),
            ((9,), "multi-comp/dominating-pair"),
        ]:
            ppg = self._three_k2_instance(keep)
            trace, _, _, answer = _many_components_run(ppg)
            assert trace == [label], keep
            _assert_parity_on_promise(ppg, answer)


class TestDominatingPair:
    def _pair_instance(self):
        # three K2 components; 6 complete to components 0,2; 7 complete to 1,2
        edges = [(0, 1), (2, 3), (4, 5)]
        edges += [(6, v) for v in (0, 1, 4, 5)]
        edges += [(7, v) for v in (2, 3, 4, 5)]
        g = build_graph(8, edges)
        return PartitionedProbeGraph(
            g, frozenset(range(6)), frozenset({6, 7})
        )

    def test_pair_found(self):
        ppg = self._pair_instance()
        for d in (2, 3):
            trace, _, branches, answer = _many_components_run(ppg, d)
            assert trace == ["multi-comp/dominating-pair"]
            assert branches > 0  # the pair (7, 6) drove the guesses
            _assert_parity_on_promise(ppg, answer, d)

    def test_two_product_calls_alike_first(self):
        """The case has no guess loop of its own: it makes two
        ``_classes`` calls, first u and v alike (blue) with the red classes
        of the whole probe side, then u red and v blue with the classes
        inside v's neighbourhood.  Here v = 6 (least id on the tie) and
        u = 7."""
        ppg = self._pair_instance()
        for d in (2, 3):
            solver = _DcutSolver(ppg, d)
            calls = []

            def capture(outer, part, hi, then, polarity=(True, False)):
                calls.append((part, hi, polarity, outer, then))

            solver._classes = capture
            comps = connected_components(ppg.graph, solver.p_mask)
            assert solver._many_components(comps) is None
            assert [call[:3] for call in calls] == [
                (solver.p_mask, 2 * d, (True,)),
                (ppg.graph.adj_bits[6], d, (True,)),
            ]
            assert calls[0][3:] == ([(0, 1 << 6 | 1 << 7, 0)], solver._guess)
            assert next(iter(calls[1][3])) == (1 << 7 | ppg.graph.adj_bits[7], 1 << 6, 0)

    def test_no_type_c_returns_none(self):
        edges = [(0, 1), (2, 3), (4, 5), (6, 0), (7, 2), (7, 3), (8, 4)]
        g = build_graph(9, edges)
        # disconnected overall is fine for the case itself
        ppg = PartitionedProbeGraph(
            g, frozenset(range(6)), frozenset({6, 7, 8})
        )
        trace, cert, branches, _ = _many_components_run(ppg)
        assert trace == ["multi-comp/dominating-pair"]
        assert cert is None and branches == 0

    def test_structure_violation_when_uncoverable(self):
        # two type-C vertices whose complete sets cannot cover component 3
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
        edges += [(8, v) for v in (0, 1, 2, 3)]
        edges += [(9, v) for v in (2, 3, 4, 5)]
        edges += [(10, 6)]
        g = build_graph(11, edges)
        ppg = PartitionedProbeGraph(
            g, frozenset(range(8)), frozenset({8, 9, 10})
        )
        assert brute_probe_certificate(ppg, sp1_p4_pattern(1)) is None
        trace, cert, branches, _ = _many_components_run(ppg)
        # the broken promise ends the case without a guess
        assert trace == ["multi-comp/dominating-pair"]
        assert cert is None and branches == 0


class TestSolveMmc:
    def test_p4(self):
        report = solve_mmc(all_probes(path_graph(4)), 0)
        assert report.answer and report.certificate.size == 2
        assert brute_mmc(path_graph(4))[0] == 2

    def test_k2(self):
        report = solve_mmc(all_probes(build_graph(2, [(0, 1)])), 0)
        assert report.answer and report.certificate.size == 1

    def test_c3_no(self):
        report = solve_mmc(all_probes(cycle_graph(3)), 1)
        assert not report.answer and report.certificate is None
        assert brute_mmc(cycle_graph(3)) is None

    def test_disconnected_raises(self):
        with pytest.raises(NotConnected):
            solve_mmc(all_probes(build_graph(3, [(0, 1)])), 0)

    def test_degenerate_single_vertex(self):
        report = solve_mmc(all_probes(build_graph(1, [])), 0)
        assert not report.answer

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError) as info:
            solve_mmc(all_probes(path_graph(4)), -1)
        assert str(info.value) == "s must be >= 0"

    def test_no_seed_report(self):
        # no four vertices of P18 leave an independent set uncovered
        report = solve_mmc(all_probes(path_graph(18)), 0)
        assert not report.answer and report.certificate is None
        assert report.branches_explored == 0
        assert report.case_trace == ["no-seed"]


class TestSolvePmc:
    def test_p4_yes(self):
        report = solve_pmc(all_probes(path_graph(4)), 0)
        assert report.answer
        assert report.certificate.colouring == ("red", "blue", "blue", "red")

    def test_claw_no(self):
        report = solve_pmc(all_probes(star_graph(3)), 0)
        assert not report.answer
        assert brute_pmc(star_graph(3)) is None

    def test_k2_yes(self):
        assert solve_pmc(all_probes(build_graph(2, [(0, 1)])), 0).answer


class TestSolveDcut:
    def test_k14_d2(self):
        report = solve_dcut(all_probes(star_graph(4)), 2)
        assert report.answer
        assert brute_dcut(star_graph(4), 2) is not None

    def test_c3_d2(self):
        assert solve_dcut(all_probes(cycle_graph(3)), 2).answer

    def test_k5_d2_no(self):
        report = solve_dcut(all_probes(complete_graph(5)), 2)
        assert not report.answer
        assert brute_dcut(complete_graph(5), 2) is None

    def test_d1_answers(self, monkeypatch):
        """d = 1 (matching cut) runs the d-cut case analysis, never the
        matching-cut driver: P4 has a 1-cut, K4 has none."""
        def never(*args, **kwargs):
            raise AssertionError("d = 1 went through the matching-cut driver")

        monkeypatch.setattr("probecut.solvers._matching_cut", never)
        report = solve_dcut(all_probes(path_graph(4)), 1)
        assert report.answer and report.certificate.d == 1
        check = validate_colouring(
            path_graph(4), list(report.certificate.colouring), 1
        )
        assert isinstance(check, CutCertificate)
        assert not solve_dcut(all_probes(complete_graph(4)), 1).answer
        assert brute_dcut(complete_graph(4), 1) is None

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_is_a_value_error(self, d):
        """d < 1 is no budget at all, refused as by the oracles."""
        with pytest.raises(ValueError, match=r"^d must be >= 1$"):
            solve_dcut(all_probes(path_graph(4)), d)

    def test_disconnected_raises(self):
        with pytest.raises(NotConnected):
            solve_dcut(all_probes(build_graph(3, [(0, 1)])), 2)

    def test_answer_yes_certificate_validates(self):
        report = solve_dcut(all_probes(cycle_graph(6)), 2)
        assert report.answer
        check = validate_colouring(
            cycle_graph(6), list(report.certificate.colouring), 2
        )
        assert isinstance(check, CutCertificate)


def _lone_nonprobe_loop(self) -> Optional[CutCertificate]:
    """The lone-non-probe step that validated every one of its 2|N|
    colourings, kept verbatim as the reference for the degree test."""
    self.trace.append("mono-probe")
    lone = [1 << v for v in iter_bits(self.n_mask)]
    for x in lone + [self.full & ~b for b in lone]:
        cert = self._validate_total(x, self.full & ~x)
        if cert:
            return cert
    return None


class TestLoneNonprobeStep:
    @given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=200)
    def test_matches_validation_loop(self, seed, d, low):
        """Deciding the lone tests by degree gives the certificate, branch
        count and trace of validating all 2|N| colourings, on instances
        with (``low``: a pendant non-probe is added) and without a
        non-probe of degree at most d."""
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.choice([0.3, 0.5, 0.8]), seed)
        order = [v for v in range(n) if low or g.degree(v) > d]
        rng.shuffle(order)
        if low:
            g = build_graph(n + 1, list(g.edges()) + [(rng.randrange(n), n)])
            order.insert(0, n)
        nonprobes = 0
        for v in order:
            if not g.adj_bits[v] & nonprobes:
                nonprobes |= 1 << v
        nps = frozenset(iter_bits(nonprobes))
        ppg = PartitionedProbeGraph(g, frozenset(range(g.n)) - nps, nps)
        assert any(g.degree(v) <= d for v in nps) == low
        step, loop = _DcutSolver(ppg, d), _DcutSolver(ppg, d)
        assert step._lone_nonprobe_step() == _lone_nonprobe_loop(loop)
        assert (step.branches, step.trace) == (loop.branches, loop.trace)


def _case_instances():
    """Hand-built certified instances, one per dcut dispatch path."""
    out = []

    # probe side contains a P4 (dominates): plain path, all probes
    out.append(("p4-dominating", all_probes(path_graph(5))))

    # one component: complete graph with a pendant non-probe
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (4, 0)])
    out.append(
        ("cograph-1comp", PartitionedProbeGraph(
            g, frozenset(range(4)), frozenset({4})))
    )

    # two components bridged by two non-probes
    g = build_graph(6, [(0, 1), (2, 3), (4, 0), (4, 2), (5, 1), (5, 3)])
    out.append(
        ("cograph-2comp", PartitionedProbeGraph(
            g, frozenset(range(4)), frozenset({4, 5})))
    )

    # three singleton components joined by a type-A vertex (a star)
    out.append(
        ("multi-comp/type-a", PartitionedProbeGraph(
            star_graph(3),
            frozenset({1, 2, 3}),
            frozenset({0}),
        ))
    )

    # type-B vertex: edge component plus two singletons
    g = build_graph(5, [(0, 1), (4, 0), (4, 2), (4, 3)])
    out.append(
        ("multi-comp/type-b", PartitionedProbeGraph(
            g, frozenset(range(4)), frozenset({4})))
    )

    # dominating pair of type-C vertices: five-vertex path through two
    # non-probes, probe side three singletons
    g = build_graph(5, [(3, 0), (3, 1), (4, 1), (4, 2)])
    out.append(
        ("multi-comp/dominating-pair", PartitionedProbeGraph(
            g, frozenset({0, 1, 2}), frozenset({3, 4})))
    )
    return out


class TestDcutDispatchPaths:
    @pytest.mark.parametrize("label,ppg", _case_instances())
    def test_instance_is_certified(self, label, ppg):
        assert is_connected(ppg.graph)
        cert = brute_probe_certificate(ppg, sp1_p4_pattern(1))
        assert cert is not None, f"{label}: promise does not hold"

    @pytest.mark.parametrize("label,ppg", _case_instances())
    @pytest.mark.parametrize("d", [2, 3])
    def test_parity_with_brute(self, label, ppg, d):
        report = solve_dcut(ppg, d)
        brute = brute_dcut(ppg.graph, d)
        assert report.answer == (brute is not None)

    @pytest.mark.parametrize("label,ppg", _case_instances())
    def test_case_trace_hits_expected_path(self, label, ppg):
        report = solve_dcut(ppg, 2)
        assert report.case_trace[0] == "mono-probe"
        if report.answer and len(report.case_trace) == 1:
            return  # answered by the pre-step before dispatch
        assert label in report.case_trace


def _structured_instance(seed):
    """Random multi-component probe side with patterned non-probes,
    certified against the single-extra-vertex path pattern, or None."""
    rng = random.Random(seed)

    def cograph_edges(verts):
        if len(verts) == 1:
            return []
        k = rng.randint(1, len(verts) - 1)
        left, right = verts[:k], verts[k:]
        e = cograph_edges(left) + cograph_edges(right)
        if rng.random() < 0.6:
            e += [(u, v) for u in left for v in right]
        return e

    r = rng.choice([1, 2, 2, 3, 3])
    sizes = [rng.randint(1, 3) for _ in range(r)]
    n_probe = sum(sizes)
    comps, edges, start = [], [], 0
    for size in sizes:
        verts = list(range(start, start + size))
        comps.append(verts)
        if size == 2:
            edges.append((verts[0], verts[1]))
        elif size > 2:
            k = rng.randint(1, size - 1)
            left, right = verts[:k], verts[k:]
            edges += cograph_edges(left) + cograph_edges(right)
            edges += [(u, v) for u in left for v in right]
        start += size
    n = n_probe + rng.randint(1, 3)
    for v in range(n_probe, n):
        if rng.random() < 0.3:
            special = rng.randrange(r)
            for i, comp in enumerate(comps):
                if i == special:
                    take = [u for u in comp if rng.random() < 0.6] or comp[:1]
                    edges += [(v, u) for u in take]
                else:
                    edges += [(v, u) for u in comp]
        else:
            chosen = [c for c in comps if rng.random() < 0.5] or [rng.choice(comps)]
            for comp in chosen:
                edges += [(v, u) for u in comp]
    g = build_graph(n, sorted({(min(a, b), max(a, b)) for a, b in edges}))
    if not is_connected(g):
        return None
    ppg = PartitionedProbeGraph(
        g, frozenset(range(n_probe)), frozenset(range(n_probe, n))
    )
    if brute_probe_certificate(ppg, sp1_p4_pattern(1)) is None:
        return None
    return ppg


class TestExhaustiveSmallPromise:
    def test_all_probe_promise_graphs_up_to_five(self):
        """Every connected graph on <= 5 vertices that is itself inside the
        promised pattern-free class, taken all-probe, must agree with the
        oracles for every problem."""
        import itertools

        patterns = {s: sp1_p4_pattern(s) for s in (0, 1, 2)}
        from probecut import find_induced

        checked = 0
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
                g = build_graph(n, edges)
                if not is_connected(g):
                    continue
                ppg = all_probes(g)
                if find_induced(g, patterns[1]) is None:
                    checked += 1
                    for d in (2, 3):
                        assert solve_dcut(ppg, d).answer == (
                            brute_dcut(g, d) is not None
                        )
                for s in (0, 1, 2):
                    if find_induced(g, patterns[s]) is not None:
                        continue
                    mine = solve_mmc(ppg, s)
                    brute = brute_mmc(g)
                    assert (
                        mine.certificate.size if mine.answer else None
                    ) == (brute[0] if brute else None)
                    assert solve_pmc(ppg, s).answer == (
                        brute_pmc(g) is not None
                    )
        assert checked > 500


class TestCertifiedStructure:
    def test_type_b_and_c_profiles_on_certified_instances(self):
        """On genuinely probe (P1+P4)-free inputs with three or more probe
        components, a type-B non-probe is complete to all but exactly one
        component and a type-C non-probe is complete or anti-complete to
        every component."""
        checked = 0
        for seed in range(220):
            ppg = _structured_instance(seed)
            if ppg is None:
                continue
            comp_masks = connected_components(
                ppg.graph, sum(1 << v for v in ppg.probes)
            )
            if len(comp_masks) < 3:
                continue
            checked += 1
            for v in ppg.nonprobes:
                av = ppg.graph.adj_bits[v]
                touched = sum(1 for cm in comp_masks if av & cm)
                incomplete = sum(1 for cm in comp_masks if av & cm != cm)
                if touched == len(comp_masks) and incomplete:  # type B
                    assert incomplete == 1
                elif touched >= 2 and touched < len(comp_masks):  # type C
                    for cm in comp_masks:
                        assert av & cm in (0, cm)
        assert checked >= 10


class TestRandomParity:
    def test_dcut_on_certified_generator_instances(self):
        checked = 0
        for seed in range(60):
            n = 4 + seed % 7
            density = [0.55, 0.65, 0.75, 0.8][seed % 4]
            try:
                ppg, _ = random_probe_hfree(
                    n, sp1_p4_pattern(1), density, seed=seed
                )
            except Exception:
                continue
            checked += 1
            for d in (2, 3):
                assert solve_dcut(ppg, d).answer == (
                    brute_dcut(ppg.graph, d) is not None
                )
        assert checked >= 30

    def test_dcut_on_structured_instances(self):
        checked = 0
        for seed in range(160):
            ppg = _structured_instance(seed)
            if ppg is None:
                continue
            checked += 1
            for d in (2, 3):
                assert solve_dcut(ppg, d).answer == (
                    brute_dcut(ppg.graph, d) is not None
                )
        assert checked >= 60

    def test_mmc_pmc_on_certified_instances(self):
        checked = 0
        for seed in range(60):
            s = seed % 3
            n = 4 + seed % 7
            density = [0.6, 0.7, 0.8, 0.9][seed % 4]
            try:
                ppg, _ = random_probe_hfree(
                    n, sp1_p4_pattern(s), density, seed=seed
                )
            except Exception:
                continue
            checked += 1
            mine = solve_mmc(ppg, s)
            brute = brute_mmc(ppg.graph)
            assert (mine.certificate.size if mine.answer else None) == (
                brute[0] if brute else None
            )
            assert solve_pmc(ppg, s).answer == (brute_pmc(ppg.graph) is not None)
        assert checked >= 30

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_soundness_without_promise(self, seed):
        """On arbitrary connected inputs the answer may be incomplete but a
        yes always carries a valid certificate."""
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = build_graph(n, edges)
        if not is_connected(g):
            return
        report = solve_dcut(all_probes(g), 2)
        if report.answer:
            check = validate_colouring(g, list(report.certificate.colouring), 2)
            assert isinstance(check, CutCertificate)
        if brute_dcut(g, 2) is None:
            assert not report.answer


def _cograph_edges(verts, rng, join):
    """Edges of a random cograph on ``verts``; the root is a join when
    ``join`` is set, and node types alternate below it."""
    edges = []
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


def _cograph_probe_instance(seed):
    """A connected instance whose probe side is a cograph of one to three
    connected components (joins at their roots), with non-probes complete,
    anti-complete or partial to each component; not certified."""
    rng = random.Random(seed)
    comps, edges, start = [], [], 0
    for _ in range(rng.randint(1, 3)):
        comp = list(range(start, start + rng.randint(2, 9)))
        comps.append(comp)
        edges += _cograph_edges(comp, rng, True)
        start += len(comp)
    n = start + rng.randint(1, 4)
    for v in range(start, n):
        for comp in comps:
            mode = rng.random()
            if mode < 0.35:
                edges += [(u, v) for u in comp]
            elif mode < 0.7:
                edges += [(u, v) for u in comp if rng.random() < 0.5]
    g = build_graph(n, edges)
    if not is_connected(g):
        return None, comps
    return PartitionedProbeGraph(
        g, frozenset(range(start)), frozenset(range(start, n))
    ), comps


class TestGuessStep:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=200)
    def test_all_red_class_pairs_need_no_second_round(self, seed, d):
        """With a red class guessed in each of two probe components, every
        non-probe the branching leaves uncoloured has only blue neighbours,
        so the fill colours it and the second round is never asked for; on
        every leaf, not only up to the first certificate."""
        from probecut.solvers import _branch_leaves

        ppg, comps = _cograph_probe_instance(seed)
        if ppg is None or len(comps) != 2:
            return
        solver = _DcutSolver(ppg, d)
        solver._dispatch()
        assert solver.trace == ["cograph-2comp"]

        def second(unc):
            raise AssertionError(f"second round asked for {unc:b}")

        c1m, c2m = (sum(1 << v for v in comp) for comp in comps)
        inner = list(solver._small_classes(c2m, 2 * d))
        for x1m in solver._small_classes(c1m, 2 * d):
            for x2m in inner:
                x, y = x1m | x2m, solver.p_mask & ~(x1m | x2m)
                frontier = _nbhd(solver.adj_bits, x) & solver.n_mask
                solver._search(x, y, frontier, second)
                for lx, ly in _branch_leaves(ppg.graph, x, y, frontier, d):
                    unc = solver.full & ~(lx | ly)
                    assert unc & solver.p_mask == 0
                    assert all(
                        solver.adj_bits[v] & lx == 0 for v in range(ppg.graph.n)
                        if unc >> v & 1
                    )


def _star_instance(stars, m):
    """``stars`` copies of the star K1,m as the probe side (centres first)
    plus two non-probes complete to it; a cograph probe side, "no" at
    d = 2."""
    n = stars * (m + 1) + 2
    probes = range(n - 2)
    edges = [(c, c + i) for c in range(0, n - 2, m + 1) for i in range(1, m + 1)]
    edges += [(u, v) for u in probes for v in (n - 2, n - 1)]
    g = build_graph(n, edges)
    return PartitionedProbeGraph(g, frozenset(probes), frozenset({n - 2, n - 1}))


class TestSmallClassPruning:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=200)
    def test_matches_filtered_subsets(self, seed, d):
        """The pruned enumerator yields exactly the subsets that pass the
        start check, in the order of ``_subsets``, on the whole probe side
        (one to three components), on each of its components and on the
        probe neighbourhood of each non-probe, which is no cograph part."""
        from probecut.colouring import local_masks_valid
        from probecut.solvers import _subsets

        ppg, comps = _cograph_probe_instance(seed)
        if ppg is None:
            return
        solver = _DcutSolver(ppg, d)
        adj = ppg.graph.adj_bits
        parts = [solver.p_mask]
        if len(comps) > 1:
            parts += [sum(1 << v for v in comp) for comp in comps]
        ranges = [(part, 2 * d) for part in parts]
        # the opposite-colour pair product guesses inside neighbourhoods
        ranges += [(adj[v] & solver.p_mask, d) for v in iter_bits(solver.n_mask)]
        for part, hi in ranges:
            assert list(solver._small_classes(part, hi)) == [
                s for s in _subsets(part, hi)
                if local_masks_valid(adj, s, part & ~s, d)
            ]

    @pytest.mark.parametrize("stars, m, case, budget", [
        (1, 80, "cograph-1comp", 1.0),
        (2, 20, "cograph-2comp", 2.0),
        (2, 40, "cograph-2comp", 0.5),
    ])
    def test_star_probe_sides(self, stars, m, case, budget, monkeypatch):
        """One star K1,80 (n = 83) or two stars K1,20 and K1,40 (n = 44 and
        84): the centres cap every class at d leaves, so the guesses stay
        quadratic instead of growing as n^(2d), and closing each outer
        guess of the two stars once drops every joint guess under the
        rejected ones.  The counter wraps the branch start process_masks."""
        import probecut.solvers as solvers_mod

        calls = [0]
        closure = solvers_mod.process_masks

        def counted(*args):
            calls[0] += 1
            return closure(*args)

        monkeypatch.setattr(solvers_mod, "process_masks", counted)
        ppg = _star_instance(stars, m)
        start = time.perf_counter()
        report = solve_dcut(ppg, 2)
        elapsed = time.perf_counter() - start
        assert not report.answer
        assert report.branches_explored == 4
        assert report.case_trace == ["mono-probe", case]
        assert elapsed < budget
        assert calls[0] < 10_000

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=40)
    def test_dropped_guesses_yield_no_leaves(self, seed, d):
        """Every subset that the degree bound drops is rejected by the first
        closure in both polarities, and the kept subsets keep their order."""
        from probecut.solvers import _branch_leaves, _DcutSolver, _subsets

        ppg, comps = _cograph_probe_instance(seed)
        if ppg is None:
            return
        solver = _DcutSolver(ppg, d)
        parts = (
            [solver.p_mask] if len(comps) == 1
            else [sum(1 << v for v in comp) for comp in comps]
        )
        for part_mask in parts:
            every = list(_subsets(part_mask, 2 * d))
            kept = list(solver._small_classes(part_mask, 2 * d))
            remaining = iter(every)
            assert all(m in remaining for m in kept)
            for xm in set(every) - set(kept):
                frontier = _nbhd(solver.adj_bits, xm) & solver.n_mask
                rest = part_mask & ~xm
                for x0, y0 in ((xm, rest), (rest, xm)):
                    assert not list(
                        _branch_leaves(ppg.graph, x0, y0, frontier, d)
                    )

    def test_vertex_at_the_bound_stays_guessable(self):
        """The bound is tight: probe 0 of the class {0, 1, 2, 3} has
        probe-degree d + k - 1 = 5 for d = 2 and size k = 4, and that guess
        passes the first closure."""
        from probecut.solvers import _branch_leaves, _DcutSolver

        # probe 0 joined to a triangle and an edge; non-probe 6 hangs off 1
        g = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (4, 5), (0, 4), (0, 5), (1, 6)])
        ppg = PartitionedProbeGraph(g, frozenset(range(6)), frozenset({6}))
        solver = _DcutSolver(ppg, 2)
        assert 0b1111 in solver._small_classes(solver.p_mask, 4)
        assert list(_branch_leaves(g, 0b1111, 0b110000, 1 << 6, 2))

    def test_dense_cotree_needs_few_closures(self, monkeypatch):
        """A 48-vertex dense cograph with a join at the root, its non-probe
        edges deleted: every probe has probe-degree above 3d - 1, so no
        bounded-class guess survives and the solver decides without
        closing one.  The counter wraps the branch start process_masks,
        so on K4, whose two-vertex classes survive, it counts some."""
        import probecut.solvers as solvers_mod
        from probecut.oracles import backtrack_dcut

        n = 48
        rng = random.Random(48)
        while True:
            nonprobes = frozenset(rng.sample(range(n), n // 2 + 1))
            edges = [
                (u, v) for u, v in _cograph_edges(range(n), rng, True)
                if u not in nonprobes or v not in nonprobes
            ]
            g = build_graph(n, edges)
            probes = frozenset(range(n)) - nonprobes
            if not (0.48 <= g.edge_count() / (n * (n - 1) / 2) <= 0.60):
                continue
            if not is_connected(g) or min(g.degree(v) for v in nonprobes) < 4:
                continue
            if len(connected_components(g, sum(1 << v for v in probes))) == 1:
                break
        ppg = PartitionedProbeGraph(g, probes, nonprobes)
        calls = [0]
        closure = solvers_mod.process_masks

        def counted(*args):
            calls[0] += 1
            return closure(*args)

        monkeypatch.setattr(solvers_mod, "process_masks", counted)
        for d in (2, 3):
            calls[0] = 0
            report = solve_dcut(ppg, d)
            assert "cograph-1comp" in report.case_trace
            assert calls[0] == 0
            assert report.answer == (backtrack_dcut(g, d) is not None)
        calls[0] = 0
        report = solve_dcut(all_probes(complete_graph(4)), 2)
        assert report.case_trace == ["mono-probe", "cograph-1comp"]
        assert calls[0] > 0


def _reference_product(outer, part, hi, polarity):
    """The guess product before outer guesses were closed: every outer
    guess, polarity and class of ``part``, with overlapping masks skipped.
    Classes are all subsets; start-closure filtering makes that the pruned
    list."""
    from probecut.solvers import _subsets

    classes = list(_subsets(part, hi))
    for x0, y0, g0 in outer:
        for red in polarity:
            for xm in classes:
                x, y = (xm, part & ~xm) if red else (part & ~xm, xm)
                if not (x0 | x) & (y0 | y):
                    yield x0 | x, y0 | y, g0 | xm


def _pair_reference(adj, bu, bv, d):
    """The opposite-colour double loop of the dominating-pair case before
    it went through the product loop: u red, v blue, at most d blue
    neighbours of u and at most d red neighbours of v."""
    from probecut.solvers import _subsets

    nu, nv = adj[bu.bit_length() - 1], adj[bv.bit_length() - 1]
    for xum in _subsets(nu, d):
        for xvm in _subsets(nv, d):
            x0 = bu | (nu & ~xum) | xvm
            y0 = bv | (nv & ~xvm) | xum
            if not x0 & y0:
                yield x0, y0, xum | xvm


# the polarities each case passes to the product loop
_POLARITIES = {
    "cograph-1comp": (True, False),
    "cograph-2comp": (True, False),
    "multi-comp/type-b": (True, False),
    "multi-comp/dominating-pair": (True,),
}


def _check_guess_products(ppg, d):
    """Capture every ``_classes`` call of one dispatch, then require the
    case's polarities and the joint guesses handed to ``then`` to equal
    the reference, in order, once both keep only the guesses whose start
    closure accepts.  The opposite-colour pair reference is rebuilt from
    u and v, the non-probes of the first outer guess; the pair's alike
    call, on the whole probe side, has the plain product as reference.
    Returns the cases captured."""
    from probecut.colouring import process_masks

    solver = _DcutSolver(ppg, d)
    calls = []

    def capture(outer, part, hi, then, polarity=(True, False)):
        calls.append((solver.trace[-1], list(outer), part, hi, polarity))

    solver._classes = capture
    solver._dispatch()
    adj, n = ppg.graph.adj_bits, ppg.graph.n

    def live(guesses):
        return [t for t in guesses if process_masks(adj, n, t[0], t[1], d)]

    for case, outer, part, hi, polarity in calls:
        assert polarity == _POLARITIES[case]
        got = []
        _DcutSolver._classes(
            solver, outer, part, hi,
            lambda x, y, g: got.append((x, y, g)), polarity,
        )
        if case == "multi-comp/dominating-pair" and part != solver.p_mask:
            bu, bv = (m & solver.n_mask for m in outer[0][:2])
            expected = _pair_reference(adj, bu, bv, d)
        else:
            expected = _reference_product(outer, part, hi, polarity)
        assert live(got) == live(expected)
    return {case for case, *_ in calls}


class TestGuessProduct:
    """The one product loop, closing each outer guess once, hands on the
    same live joint guesses, in the same order, as the plain product."""

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=150)
    def test_matches_reference_on_cograph_instances(self, seed, d):
        ppg, _ = _cograph_probe_instance(seed)
        if ppg is not None:
            _check_guess_products(ppg, d)

    @pytest.mark.parametrize("seed", FEATURED)
    def test_matches_reference_on_featured_seeds(self, seed):
        """The golden seeds that reach the two-component second round, the
        type-B case or the opposite-colour pair guesses."""
        ppg = _golden_instance(seed)
        assert any([_check_guess_products(ppg, d) for d in (2, 3)])


def _star_with_pendant_nonprobes(m=200):
    """The star K1,m (centre 0) as the probe side and three non-probes,
    each adjacent to three leaves (m + 1 to leaves 1, 2, 3, and so on);
    n = m + 4, and "yes" at d = 2 on the first class guess."""
    edges = [(0, i) for i in range(1, m + 1)]
    edges += [(m + 1 + j, 3 * j + t) for j in range(3) for t in (1, 2, 3)]
    g = build_graph(m + 4, edges)
    return PartitionedProbeGraph(
        g, frozenset(range(m + 1)), frozenset(range(m + 1, m + 4))
    )


def _three_stars_with_pair(m=20, copies=1):
    """Three stars K1,m as the probe side and a dominating type-C pair:
    ``copies`` non-probes complete to stars 0 and 1, then as many complete
    to stars 1 and 2; n = 3m + 3 + 2 copies.  With one copy, "yes" at
    d = 2 on the first alike-colour guess; with two, "no" at d = 1 and 2."""
    k = m + 1
    edges = [(c, c + i) for c in range(0, 3 * k, k) for i in range(1, k)]
    for j in range(copies):
        edges += [(3 * k + j, v) for v in range(2 * k)]
        edges += [(3 * k + copies + j, v) for v in range(k, 3 * k)]
    n = 3 * k + 2 * copies
    g = build_graph(n, edges)
    return PartitionedProbeGraph(
        g, frozenset(range(3 * k)), frozenset(range(3 * k, n))
    )


# (instance, case trace, branches, red vertices of the certificate)
_EARLY_YES = {
    "star-200": (_star_with_pendant_nonprobes,
                 ["mono-probe", "cograph-1comp"], 7, [1, 201]),
    "three-stars-pair": (_three_stars_with_pair,
                         ["mono-probe", "multi-comp/dominating-pair"], 5, [1]),
}


class TestLazyClasses:
    """``_classes`` draws its colour classes from one enumerator as the
    guesses need them, so a "yes" on an early guess enumerates no more."""

    @pytest.mark.parametrize("name", sorted(_EARLY_YES))
    def test_draws_up_to_the_class_that_succeeds(self, name, monkeypatch):
        """Each ``_classes`` call starts ``_small_classes`` once and draws
        two classes: the empty one, which leaves the probe side in one
        colour and is skipped, then the one on which the guess succeeds."""
        build, trace, branches, red = _EARLY_YES[name]
        starts, draws = [], [0]
        small_classes = _DcutSolver._small_classes

        def counted(self, part, hi):
            starts.append(part)
            for xm in small_classes(self, part, hi):
                draws[0] += 1
                yield xm

        monkeypatch.setattr(_DcutSolver, "_small_classes", counted)
        ppg = build()
        report = solve_dcut(ppg, 2)
        assert report.case_trace == trace
        assert report.branches_explored == branches
        colours = report.certificate.colouring
        assert [v for v, c in enumerate(colours) if c == "red"] == red
        assert starts == [_DcutSolver(ppg, 2).p_mask]
        assert draws[0] == 2

    @pytest.mark.parametrize("name", sorted(_EARLY_YES))
    def test_early_yes_time_budget(self, name):
        """The star K1,200 (n = 204) listed every class of its probe side
        before the first guess and took about 0.5 s; the three stars
        K1,20 (n = 65) answer on the first alike-colour guess."""
        build, trace, branches, _ = _EARLY_YES[name]
        ppg = build()
        start = time.perf_counter()
        report = solve_dcut(ppg, 2)
        elapsed = time.perf_counter() - start
        assert report.answer and report.case_trace == trace
        assert report.branches_explored == branches
        assert elapsed < 0.05



# at d = 1: (instance, answer, case trace, branches, time budget in s)
_D_ONE = {
    "P1000": (lambda: all_probes(path_graph(1000)), True,
              ["mono-probe", "p4-dominating"], 1, 0.1),
    # 368,930 alike-colour guesses, all rejected, and 2.6 s or more at d = 2
    "three-stars-no": (lambda: _three_stars_with_pair(copies=2), False,
                       ["mono-probe", "multi-comp/dominating-pair"], 8, 0.5),
}

# at d = 1: (n, probes 0 to probes - 1, edges, case, branches, red vertices
# of the certificate); each needs the 2d class cap of its case
_D_ONE_CAPS = {
    "alike-colour-cap": (
        8, 4,
        [(0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 5),
         (2, 7), (3, 4), (3, 7)],
        "multi-comp/dominating-pair", 9, [2, 3, 7]),
    "type-b-cap": (
        12, 10,
        [(0, 10), (0, 11), (1, 10), (1, 11), (2, 10), (2, 11), (3, 10),
         (3, 11), (4, 5), (4, 7), (5, 6), (6, 7), (6, 10), (7, 10), (8, 9),
         (8, 10), (8, 11), (9, 10), (9, 11)],
        "multi-comp/type-b", 5, [4, 5]),
}


class TestDcutAtDOne:
    """d = 1 runs the same case analysis, with at most n^2 guesses, so a
    family that takes seconds at d = 2 answers at once."""

    @pytest.mark.parametrize("name", sorted(_D_ONE))
    def test_time_budget(self, name):
        build, answer, trace, branches, budget = _D_ONE[name]
        ppg = build()
        start = time.perf_counter()
        report = solve_dcut(ppg, 1)
        elapsed = time.perf_counter() - start
        assert report.answer is answer
        assert report.case_trace == trace
        assert report.branches_explored == branches
        if answer:
            check = validate_colouring(
                ppg.graph, list(report.certificate.colouring), 1
            )
            assert isinstance(check, CutCertificate)
        assert elapsed < budget

    @pytest.mark.parametrize("name", sorted(_D_ONE_CAPS))
    def test_class_cap_pinned(self, name):
        """In-class "yes" instances that need a colour class of the full
        2d = 2 vertices: with the named cap cut to 2d - 1 at d = 1, each
        answers "no"."""
        from probecut.oracles import backtrack_dcut

        n, probes, edges, trace, branches, red = _D_ONE_CAPS[name]
        g = build_graph(n, edges)
        ppg = PartitionedProbeGraph(
            g, frozenset(range(probes)), frozenset(range(probes, n))
        )
        assert brute_probe_certificate(ppg, sp1_p4_pattern(1)) is not None
        assert backtrack_dcut(g, 1) is not None
        report = solve_dcut(ppg, 1)
        assert report.answer
        assert report.case_trace == ["mono-probe", trace]
        assert report.branches_explored == branches
        colours = report.certificate.colouring
        assert [v for v, c in enumerate(colours) if c == "red"] == red
