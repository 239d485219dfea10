"""Brute-force oracle behaviour, scale guards and cross-oracle invariants."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    BLUE,
    RED,
    CutCertificate,
    OracleScaleExceeded,
    PartitionedProbeGraph,
    SatInstance,
    backtrack_dcut,
    brute_dcut,
    brute_mmc,
    brute_pmc,
    brute_probe_certificate,
    brute_sat,
    build_graph,
    random_probe_hfree,
    sp1_p4_pattern,
    two_p2_pattern,
    validate_colouring,
    verify_probe_certificate,
)

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)

EXAMPLE_SAT = SatInstance.of(
    6,
    [(0, 1, 2), (0, 2, 3), (1, 4, 5), (3, 4, 5)],
    [(0, 1, 3), (0, 2, 4), (1, 3, 5), (2, 4, 5)],
)


class TestBruteDcut:
    def test_c4_has_matching_cut(self):
        cert = brute_dcut(cycle_graph(4), 1)
        assert cert is not None and cert.size == 2

    def test_c3_has_none(self):
        assert brute_dcut(cycle_graph(3), 1) is None

    def test_k2(self):
        assert brute_dcut(build_graph(2, [(0, 1)]), 1) is not None

    def test_scale_guard(self):
        with pytest.raises(OracleScaleExceeded):
            brute_dcut(build_graph(30, []), 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", "4")
        with pytest.raises(OracleScaleExceeded):
            brute_dcut(path_graph(5), 1)
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", "6")
        assert brute_dcut(path_graph(5), 1) is not None

    def test_explicit_limit_wins(self):
        assert brute_dcut(path_graph(5), 1, max_n=5) is not None


class TestBrutePmc:
    def test_k2(self):
        assert brute_pmc(build_graph(2, [(0, 1)])) is not None

    def test_p4_size_two(self):
        cert = brute_pmc(path_graph(4))
        assert cert is not None and cert.size == 2 and cert.perfect

    def test_p3_none(self):
        assert brute_pmc(path_graph(3)) is None


class TestBruteMmc:
    def test_k2(self):
        assert brute_mmc(build_graph(2, [(0, 1)]))[0] == 1

    def test_p4(self):
        assert brute_mmc(path_graph(4))[0] == 2

    def test_c3(self):
        assert brute_mmc(cycle_graph(3)) is None


class TestBruteSat:
    def test_single_positive_clause(self):
        inst = SatInstance.of(3, [(0, 1, 2)], [])
        assert brute_sat(inst) is not None

    def test_example_instance_satisfiable(self):
        assignment = brute_sat(EXAMPLE_SAT)
        assert assignment is not None
        # the stated witness also works: variables 0 and 4 true
        witness = (True, False, False, False, True, False)
        for clause in EXAMPLE_SAT.positive_clauses:
            assert any(witness[v] for v in clause)
        for clause in EXAMPLE_SAT.negative_clauses:
            assert any(not witness[v] for v in clause)

    def test_contradictory_unit_clauses(self):
        inst = SatInstance.of(1, [(0,)], [(0,)])
        assert brute_sat(inst) is None

    def test_scale_guard(self):
        with pytest.raises(OracleScaleExceeded):
            brute_sat(SatInstance.of(30, [], []))


class TestBruteProbeCertificate:
    def test_empty_nonprobes(self):
        g = path_graph(4)
        ppg = PartitionedProbeGraph(g, frozenset(range(4)), frozenset())
        assert brute_probe_certificate(ppg, two_p2_pattern()) is not None
        from probecut import path_pattern

        assert brute_probe_certificate(ppg, path_pattern(4)) is None

    def test_p3_endpoints(self):
        g = path_graph(3)
        ppg = PartitionedProbeGraph(g, frozenset({1}), frozenset({0, 2}))
        cert = brute_probe_certificate(ppg, two_p2_pattern())
        assert cert is not None
        assert verify_probe_certificate(ppg, cert, two_p2_pattern())

    def test_generator_outputs_always_certifiable(self):
        for seed in range(10):
            ppg, _ = random_probe_hfree(7, sp1_p4_pattern(1), 0.55, seed=seed)
            found = brute_probe_certificate(ppg, sp1_p4_pattern(1))
            assert found is not None

    def test_scale_guard(self):
        g = build_graph(9, [])
        with pytest.raises(OracleScaleExceeded):
            brute_probe_certificate(
                PartitionedProbeGraph(g, frozenset(), frozenset(range(9))),
                two_p2_pattern(),
            )


class TestOracleInvariants:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_mc_mmc_pmc_relations(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 8), 0.5, seed)
        mc = brute_dcut(g, 1)
        mmc = brute_mmc(g)
        pmc = brute_pmc(g)
        assert (mc is not None) == (mmc is not None)
        if pmc is not None:
            assert mc is not None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_monotone_in_d(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 8), 0.6, seed)
        for d in (1, 2, 3):
            if brute_dcut(g, d) is not None:
                assert brute_dcut(g, d + 1) is not None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_swap_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(2, 8), 0.5, seed)
        cert = brute_dcut(g, 2)
        if cert is None:
            return
        swapped = [BLUE if c == RED else RED for c in cert.colouring]
        assert isinstance(validate_colouring(g, swapped, 2), CutCertificate)


class TestBacktrackDcut:
    def test_small_examples(self):
        assert backtrack_dcut(cycle_graph(3), 1) is None
        assert backtrack_dcut(cycle_graph(4), 1) is not None
        assert backtrack_dcut(path_graph(3), 1, require_perfect=True) is None
        assert backtrack_dcut(path_graph(4), 1, require_perfect=True) is not None
        assert backtrack_dcut(complete_graph(5), 2) is None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=120)
    def test_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed)
        for d in (1, 2):
            assert (backtrack_dcut(g, d) is not None) == (
                brute_dcut(g, d) is not None
            )
        assert (backtrack_dcut(g, 1, require_perfect=True) is not None) == (
            brute_pmc(g) is not None
        )


class TestBacktrackDcutDeepInputs:
    """Inputs deeper than the default recursion limit: the search runs on
    an explicit stack, so each returns an answer instead of raising
    RecursionError."""

    @pytest.mark.parametrize("g, d, perfect, expected", [
        (path_graph(1500), 1, False, True),
        (path_graph(1500), 1, True, True),
        (path_graph(1501), 1, True, False),
        (star_graph(1499), 1, False, True),
    ], ids=["P1500-d1", "P1500-perfect", "P1501-perfect", "star1499-d1"])
    def test_returns_answer(self, g, d, perfect, expected):
        assert sys.getrecursionlimit() < g.n
        cert = backtrack_dcut(g, d, require_perfect=perfect)
        assert (cert is not None) == expected
        if cert is not None:
            again = validate_colouring(g, cert.colouring, d, perfect)
            assert isinstance(again, CutCertificate)
