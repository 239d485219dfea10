"""Brute-force oracle behaviour, scale guards and cross-oracle invariants."""

import inspect
import random
import signal
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    BLUE,
    RED,
    CutCertificate,
    OracleScaleExceeded,
    PartitionedProbeGraph,
    ProbeCertificate,
    SatInstance,
    backtrack_dcut,
    brute_dcut,
    brute_mmc,
    brute_pmc,
    brute_probe_certificate,
    brute_sat,
    build_graph,
    find_induced,
    moshi_double,
    parse_pattern,
    path_pattern,
    random_probe_hfree,
    sp1_p4_pattern,
    two_p2_pattern,
    validate_colouring,
    verify_probe_certificate,
)
import probecut.oracles as oracles
from probecut.oracles import _colourings

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


def _five_nonprobes():
    """Five isolated non-probes, the input size of the certificate search."""
    return PartitionedProbeGraph(build_graph(5, []), frozenset(), frozenset(range(5)))


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

    @pytest.mark.parametrize("oracle, size", [
        (lambda: brute_dcut(path_graph(5), 1), 5),
        (lambda: brute_pmc(path_graph(5)), 5),
        (lambda: brute_mmc(path_graph(5)), 5),
        (lambda: brute_sat(EXAMPLE_SAT), 6),
        (lambda: brute_probe_certificate(_five_nonprobes(), path_pattern(4)), 5),
    ], ids=["brute_dcut", "brute_pmc", "brute_mmc", "brute_sat",
            "brute_probe_certificate"])
    def test_env_override_reaches_every_oracle(self, monkeypatch, oracle, size):
        """PROBECUT_ORACLE_MAX_N is the one override, and every oracle
        reads it: one below the input's size refuses, the size runs."""
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", str(size - 1))
        with pytest.raises(OracleScaleExceeded, match=f"limit {size - 1}$"):
            oracle()
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", str(size))
        oracle()

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("oracle", [brute_dcut, backtrack_dcut])
    def test_d_below_one_is_refused(self, oracle, d):
        with pytest.raises(ValueError, match=r"^d must be >= 1$"):
            oracle(path_graph(4), d)

    @pytest.mark.parametrize("value", ["abc", " ", "1e3", "-1"])
    def test_bad_env_override_is_named(self, monkeypatch, value):
        """An override that is not a non-negative integer is refused with
        the variable and the value, not read as a limit."""
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", value)
        with pytest.raises(ValueError) as exc:
            brute_dcut(path_graph(5), 1)
        assert str(exc.value) == (
            f"PROBECUT_ORACLE_MAX_N must be a non-negative integer, got {value!r}"
        )


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
        with pytest.raises(
            OracleScaleExceeded, match="^n_vars=30 exceeds oracle limit 24$"
        ):
            brute_sat(SatInstance.of(30, [], []))


def plain_colourings(g, d, lo):
    """Reference: test every vertex on every counter, in counter order."""
    adj = g.adj_bits
    n = g.n
    full = (1 << n) - 1
    for counter in range(1, 1 << max(n - 1, 0)):
        blue = counter << 1
        red = full & ~blue
        for v in range(n):
            opposite = blue if (red >> v) & 1 else red
            k = (adj[v] & opposite).bit_count()
            if k > d or k < lo:
                break
        else:
            yield blue


def plain_sat(inst):
    """Every assignment in counter order; the first satisfying one wins."""
    n = inst.n_vars
    pos_masks = [sum(1 << v for v in c) for c in inst.positive_clauses]
    neg_masks = [sum(1 << v for v in c) for c in inst.negative_clauses]
    for assignment in range(1 << n):
        if all(assignment & m for m in pos_masks) and all(
            assignment & m != m for m in neg_masks
        ):
            return tuple(bool((assignment >> v) & 1) for v in range(n))
    return None


def plain_certificate(ppg, h):
    """Reference: every candidate edge set in counter order."""
    nonprobes = sorted(ppg.nonprobes)
    g = ppg.graph
    pairs = [
        (u, v)
        for i, u in enumerate(nonprobes)
        for v in nonprobes[i + 1 :]
        if not g.has_edge(u, v)
    ]
    for counter in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if (counter >> i) & 1]
        candidate = g.with_edges(chosen) if chosen else g
        if find_induced(candidate, h) is None:
            return ProbeCertificate.of(chosen)
    return None


@st.composite
def probe_instances(draw):
    """Partitioned probe graphs with 0-5 probes and 0-5 non-probes (at
    most 10 candidate pairs), the non-probes after the probes."""
    probes = draw(st.integers(0, 5))
    n = probes + draw(st.integers(0, 5))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.85]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u < probes and rng.random() < p
    ]
    return PartitionedProbeGraph(
        build_graph(n, edges),
        frozenset(range(probes)),
        frozenset(range(probes, n)),
    )


def model_visits(g, d, lo):
    """Reference for the counters the colouring scan tests, with lists.

    The first vertex to fail, in descending least vertex of N[v] - {0}
    (least id on ties), sets the jump.  One with more than d opposite
    neighbours keeps its own bit and those of d+1 of them, vertex 0 first
    (it has no bit) and then the highest; one with fewer than lo keeps
    every bit of N[v] - {0}.  The scan goes on past every counter that
    agrees with this one on the lowest bit kept and above."""
    n = g.n
    nbrs = [[u for u in range(n) if g.has_edge(v, u)] for v in range(n)]
    low = [min([u for u in nbrs[v] + [v] if u], default=n) for v in range(n)]
    order = sorted(
        (v for v in range(n) if lo > 0 or len(nbrs[v]) > d),
        key=lambda v: (-low[v], v),
    )
    visits = []
    counter = 1
    while counter < 1 << max(n - 1, 0):
        visits.append(counter)
        colour = [0] + [(counter >> (u - 1)) & 1 for u in range(1, n)]
        for v in order:
            opposite = [u for u in nbrs[v] if colour[u] != colour[v]]
            if len(opposite) > d:
                rest = [u for u in opposite if u]
                need = d + 1 - (0 in opposite)
                kept = [v] + rest[len(rest) - need:]
                p = min(u - 1 for u in kept if u)
                break
            if len(opposite) < lo:
                p = max(low[v] - 1, 0)
                break
        else:
            counter += 1
            continue
        counter = (counter | ((1 << p) - 1)) + 1
    return visits


def scan_visits(g, d, lo):
    """The counters ``_colourings`` tests, read off its loop by a line
    trace on ``blue = counter << 1``."""
    code = _colourings.__code__
    lines, first = inspect.getsourcelines(_colourings)
    marks = [i for i, text in enumerate(lines)
             if text.strip() == "blue = counter << 1"]
    assert len(marks) == 1, "the scan's loop head has moved"
    head = first + marks[0]
    visits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == head:
            visits.append(frame.f_locals["counter"])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code
                 else None)
    try:
        for _ in _colourings(g, d, lo):
            pass
    finally:
        sys.settrace(previous)
    return visits


# every (d, lo) the scan tests run: d = 0 up to 3, with and without a lower
# bound (lo = 1 with d = 1 is the perfect matching cut)
SCAN_D_LO = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]


@st.composite
def scan_graphs(draw):
    """Graphs on 0-12 vertices; a drawn subset, vertex 0 included at
    times, is left isolated."""
    n = draw(st.integers(0, 12))
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else set()
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.85, 0.95]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u not in isolated and v not in isolated and rng.random() < p
    ]
    return build_graph(n, edges)


@st.composite
def sat_instances(draw):
    """Instances on 0-12 variables with empty, unit and longer clauses."""
    n = draw(st.integers(0, 12))
    clause = st.lists(
        st.integers(0, n - 1), max_size=min(n, 4), unique=True
    ) if n else st.just([])
    positive = draw(st.lists(clause, max_size=8))
    negative = draw(st.lists(clause, max_size=8))
    return SatInstance.of(n, positive, negative)


def mobius_ladder(r: int):
    """C_{2r} plus the chords i - (i + r)."""
    n = 2 * r
    return build_graph(
        n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + r) for i in range(r)]
    )


class TestColouringScan:
    """The block-skipping scans yield exactly what the plain counter loops
    yield, in the same order."""

    @given(scan_graphs(), st.sampled_from(SCAN_D_LO))
    @settings(max_examples=300)
    def test_same_colourings_in_order(self, g, d_lo):
        d, lo = d_lo
        assert list(_colourings(g, d, lo)) == list(
            plain_colourings(g, d, lo)
        )

    @pytest.mark.parametrize("n", range(13))
    def test_vertex_zero_isolated(self, n):
        # vertex 0 alone, the rest a path: no test reads a varying bit for 0
        g = build_graph(n, [(i, i + 1) for i in range(1, n - 1)])
        for d, lo in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            assert list(_colourings(g, d, lo)) == list(
                plain_colourings(g, d, lo)
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_graphs_same_colourings_and_jumps(self, seed):
        # on dense graphs most failing vertices have a low neighbour, and
        # the jump past d+1 high opposite neighbours carries the scan; a
        # jump one bit too short stays exact but slower, and only the
        # counters visited show it
        n = 8 + seed % 4
        g = random_graph(n, (0.6, 0.75, 0.85, 0.95)[seed % 4], seed)
        for d, lo in SCAN_D_LO:
            assert list(_colourings(g, d, lo)) == list(
                plain_colourings(g, d, lo)
            )
            assert scan_visits(g, d, lo) == model_visits(g, d, lo)

    @pytest.mark.parametrize("g", [
        # vertex 0 among the opposite neighbours of every other vertex
        complete_graph(10),
        build_graph(11, [(v, 10) for v in range(10)]
                    + [(v, v + 1) for v in range(9)]),
        # vertex 0 alone makes up the d+1 kept at d = 0: the jump is then
        # the failing vertex's own bit
        build_graph(9, [(0, 8), (3, 8), (5, 8), (1, 2), (2, 3)]),
        build_graph(6, [(0, 5), (1, 5), (0, 4), (2, 4)]),
        # the failing vertex is 0 itself, which has no counter bit
        star_graph(11),
        build_graph(10, [(0, v) for v in range(4, 10)] + [(1, 2), (2, 3)]),
    ], ids=["K10", "hub-path", "zero-alone", "zero-alone-small",
            "star-at-0", "star-at-0-plus-path"])
    def test_edge_cases_same_colourings_and_jumps(self, g):
        for d, lo in SCAN_D_LO:
            assert list(_colourings(g, d, lo)) == list(
                plain_colourings(g, d, lo)
            )
            assert scan_visits(g, d, lo) == model_visits(g, d, lo)

    def test_star_mmc_within_budget(self):
        # K1,23 centred at 0: every colouring with two blue leaves fails at
        # vertex 0, whose least neighbour is 1, so the block jump is one
        # counter and the scan took seconds; keeping only the two highest
        # blue leaves skips all but a few hundred counters
        g = star_graph(23)
        began = time.perf_counter()
        size, cert = brute_mmc(g)
        elapsed = time.perf_counter() - began
        assert size == 1 and cert.size == 1
        assert elapsed < 0.1

    @given(sat_instances())
    @settings(max_examples=300)
    def test_sat_same_first_assignment(self, inst):
        assert brute_sat(inst) == plain_sat(inst)

    def test_sat_empty_clause_unsatisfiable(self):
        assert brute_sat(SatInstance.of(3, [()], [])) is None
        assert brute_sat(SatInstance.of(3, [], [()])) is None
        assert brute_sat(SatInstance.of(0, [], [])) == ()

    @given(probe_instances(), st.sampled_from(
        ["P1+P4", "2P1+P4", "K1,3", "K1,4", "4P1", "3P1", "2P2", "P4", "P5",
         "C4", "C5", "diamond"]
    ))
    @settings(max_examples=300)
    def test_certificate_search_same_first(self, ppg, name):
        h = parse_pattern(name)
        assert brute_probe_certificate(ppg, h) == plain_certificate(ppg, h)

    @pytest.mark.parametrize("n, probes, edges, name", [
        (9, 4, [(0, 2), (0, 3), (0, 6), (1, 2), (1, 7), (2, 5)], "2P1+P4"),
        (8, 2, [(0, 3), (0, 6), (1, 3), (1, 5), (1, 6)], "P1+P4"),
    ])
    def test_certificate_search_joins_both_reasons(
        self, n, probes, edges, name
    ):
        # joining two nogoods without the bits of the one that ruled out
        # the clear branch skips the plain loop's answer on these
        ppg = PartitionedProbeGraph(
            build_graph(n, edges), frozenset(range(probes)),
            frozenset(range(probes, n)),
        )
        h = parse_pattern(name)
        assert brute_probe_certificate(ppg, h) == plain_certificate(ppg, h)

    def test_mobius_ladder_pmc_within_budget(self):
        # the plain scan needs about two seconds here; block skipping
        # needs milliseconds
        g = mobius_ladder(12)
        began = time.perf_counter()
        cert = brute_pmc(g)
        elapsed = time.perf_counter() - began
        assert cert is not None and cert.perfect
        assert isinstance(
            validate_colouring(g, cert.colouring, 1, True), CutCertificate
        )
        assert elapsed < 0.25


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

    def test_occurrence_without_candidate_pair_ends_search(self, monkeypatch):
        # an induced P4 through one non-probe survives every edge set inside
        # the eight non-probes: one search call, not 2^28.  The probe side
        # alone is a P3, so the early "no" below does not answer first
        g = build_graph(11, [(0, 1), (1, 2), (2, 3)])
        ppg = PartitionedProbeGraph(
            g, frozenset(range(3)), frozenset(range(3, 11))
        )
        calls = []

        def counted(graph, h):
            calls.append(h)
            return find_induced(graph, h)

        monkeypatch.setattr(oracles, "find_induced", counted)
        assert brute_probe_certificate(ppg, path_pattern(4)) is None
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["P4", "P1+P4", "2P2", "K1,3"])
    def test_probe_side_occurrence_answers_before_search(
        self, name, monkeypatch
    ):
        # the probe side holds the pattern by itself, so no certificate
        # can remove it: "no" before the counter loop's first search (the
        # probe-side check itself may search, as it does for 2P2 and K1,3)
        edges = {
            "P4": [(0, 1), (1, 2), (2, 3)],
            "P1+P4": [(1, 2), (2, 3), (3, 4)],
            "2P2": [(0, 1), (2, 3)],
            "K1,3": [(0, 1), (0, 2), (0, 3)],
        }[name]
        g = build_graph(13, edges)
        ppg = PartitionedProbeGraph(
            g, frozenset(range(5)), frozenset(range(5, 13))
        )

        def refused(graph, h):
            raise AssertionError("find_induced called")

        monkeypatch.setattr(oracles, "find_induced", refused)
        assert brute_probe_certificate(ppg, parse_pattern(name)) is None

    @pytest.mark.parametrize("host, name, certified", [
        ("C16", "P1+P4", False),
        ("C16", "2P2", True),
        ("C16", "P5", True),
        ("C16", "P6", True),
        ("P17", "2P2", True),
        ("P17", "P5", True),
    ])
    def test_eight_nonprobes_within_budget(self, host, name, certified):
        # every other vertex a non-probe: 28 candidate pairs.  The plain
        # loop makes 2^28 find_induced calls on the P1+P4 "no" instance,
        # and as many to reach the 2P2 and P5 certificates, which hold all
        # 28 pairs (the last counter).  Jumping on each nogood alone needs
        # about a minute for C16 and P1+P4; testing the kept nogoods in
        # the order they come, not largest jump first, about 80 s for P17
        # and 2P2
        g = cycle_graph(16) if host == "C16" else path_graph(17)
        ppg = PartitionedProbeGraph(
            g, frozenset(range(0, g.n, 2)), frozenset(range(1, g.n, 2))
        )
        h = parse_pattern(name)
        began = time.perf_counter()
        cert = brute_probe_certificate(ppg, h)
        elapsed = time.perf_counter() - began
        assert (cert is not None) == certified
        if certified:
            assert verify_probe_certificate(ppg, cert, h)
        assert elapsed < 2.0

    def test_scale_guard(self):
        g = build_graph(9, [])
        with pytest.raises(
            OracleScaleExceeded, match=r"^\|N\|=9 exceeds oracle limit 8$"
        ):
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

    def test_below_two_vertices_has_no_cut(self):
        assert backtrack_dcut(build_graph(1, []), 1) is None
        assert backtrack_dcut(build_graph(0, []), 2) is None

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


class TestBacktrackWork:
    """Leaf validation keeps the answers exact when propagation is lost,
    so only the work shows it: after a branch, the coloured neighbours of
    the branch vertex must be rechecked as well as the vertex itself."""

    def test_validated_leaves(self, monkeypatch):
        """G(14, 0.35) at d = 1, d = 2 and perfect d = 1: 126 validated
        leaves over the 120 calls, at most 2 per call (192 and 25 when
        only the branch vertex is rechecked)."""
        counts = []

        def counted(*args, **kwargs):
            counts[-1] += 1
            return certify(*args, **kwargs)

        certify = oracles._certify
        monkeypatch.setattr(oracles, "_certify", counted)
        for seed in range(40):
            g = random_graph(14, 0.35, seed)
            for d, perfect in ((1, False), (2, False), (1, True)):
                counts.append(0)
                backtrack_dcut(g, d, require_perfect=perfect)
        assert sum(counts) <= 126
        assert max(counts) <= 2

    def test_moshi_output_within_budget(self):
        """The 50-vertex doubling of G(10, 0.5) has no matching cut; the
        search answers in about a millisecond, and runs past the alarm
        when only the branch vertex is rechecked.  The alarm ends an
        overrun at 5 s."""
        ppg, _ = moshi_double(random_graph(10, 0.5, 3))

        def overrun(signum, frame):
            raise AssertionError("backtrack_dcut over its 5 s budget")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(5)
        try:
            began = time.perf_counter()
            assert backtrack_dcut(ppg.graph, 1) is None
            assert time.perf_counter() - began < 2.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


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
