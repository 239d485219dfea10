"""colouring engine: validation, forcing closure, branch enumeration,
bipartite matching and the two completion routines."""

import itertools
import random
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    BLUE,
    RED,
    CutCertificate,
    Graph,
    PartialColouring,
    PreconditionViolation,
    Violation,
    build_graph,
    complete_independent_max_cut,
    complete_independent_perfect,
    is_connected,
    max_bipartite_matching,
    validate_colouring,
)
from probecut.colouring import (
    _certify,
    _within_budget,
    colouring_of,
    extend_masks,
    local_masks_valid,
    masks_of,
    process_masks,
)
from probecut.graph import iter_bits
from probecut.solvers import _branch_leaves

from conftest import (
    complete_bipartite,
    cycle_graph,
    path_graph,
    random_graph,
    reference_closure,
    star_graph,
)


def _all_colourings(n):
    for bits in range(1 << n):
        yield [BLUE if (bits >> v) & 1 else RED for v in range(n)]


def _m(vertices):
    """Bitmask of a vertex collection."""
    return sum(1 << v for v in set(vertices))


def _valid_extensions(g, x, y, d):
    """Reference enumeration of accepted total colourings extending the
    red/blue masks."""
    out = []
    for col in _all_colourings(g.n):
        cx, cy = masks_of(col)
        if x & ~cx or y & ~cy:
            continue
        if isinstance(validate_colouring(g, col, d), CutCertificate):
            out.append(tuple(col))
    return out


class TestValidate:
    def test_k2_perfect(self):
        g = build_graph(2, [(0, 1)])
        cert = validate_colouring(g, [RED, BLUE], 1, require_perfect=True)
        assert isinstance(cert, CutCertificate)
        assert cert.cut == frozenset({(0, 1)}) and cert.size == 1

    def test_c3_violation_names_red_vertex(self):
        g = cycle_graph(3)
        result = validate_colouring(g, [RED, BLUE, BLUE], 1)
        assert isinstance(result, Violation)
        assert result.vertex == 0 and "2 opposite" in result.reason

    def test_p4_perfect_maximum(self):
        g = path_graph(4)
        cert = validate_colouring(g, [RED, BLUE, BLUE, RED], 1, True)
        assert isinstance(cert, CutCertificate)
        assert cert.cut == frozenset({(0, 1), (2, 3)}) and cert.size == 2
        # brute confirmation: no valid 1-colouring of P4 cuts more edges
        best = max(
            c.size
            for col in _all_colourings(4)
            if isinstance(c := validate_colouring(g, col, 1), CutCertificate)
        )
        assert best == 2

    def test_monochromatic_rejected(self):
        g = build_graph(2, [(0, 1)])
        result = validate_colouring(g, [RED, RED], 1)
        assert isinstance(result, Violation) and result.vertex is None

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError) as info:
            validate_colouring(path_graph(2), [RED, BLUE], 0)
        assert str(info.value) == "d must be >= 1"

    def test_partial_raises(self):
        with pytest.raises(PartialColouring):
            validate_colouring(path_graph(3), [RED, None, BLUE], 1)

    def test_perfect_counts_exact(self):
        g = cycle_graph(4)
        cert = validate_colouring(g, [RED, BLUE, RED, BLUE], 1, False)
        assert isinstance(cert, Violation)  # each vertex has 2 opposite
        cert = validate_colouring(g, [RED, BLUE, RED, BLUE], 2, True)
        assert isinstance(cert, CutCertificate) and cert.size == 4


class TestCutEdges:
    """The bichromatic edge set, as ``CutCertificate.cut``."""

    def test_monochromatic_empty(self):
        result = validate_colouring(path_graph(3), [RED, RED, RED], 1)
        assert isinstance(result, Violation) and result.vertex is None

    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert validate_colouring(g, [RED, BLUE], 1).cut == frozenset({(0, 1)})

    def test_c4_alternating(self):
        g = cycle_graph(4)
        cert = validate_colouring(g, [RED, BLUE, RED, BLUE], 2)
        assert cert.cut == frozenset(g.edges())

    def test_partial_raises(self):
        with pytest.raises(PartialColouring):
            validate_colouring(path_graph(2), [RED, None], 1)


def _closure(g, x, y, d):
    return process_masks(g.adj_bits, g.n, x, y, d)


class TestColourProcess:
    """The branch start, process_masks: the forcing closure and the budget
    check of local_masks_valid."""

    def test_p3_endpoints_stable(self):
        g = path_graph(3)
        assert _closure(g, _m({0}), _m({2}), 1) == (_m({0}), _m({2}))

    def test_star_centre_forced(self):
        g = build_graph(3, [(0, 1), (1, 2)])  # centre is vertex 1
        assert _closure(g, _m({0, 2}), 0, 1) == (_m({0, 1, 2}), 0)

    def test_k22_side_propagates(self):
        g = complete_bipartite(2, 2)
        assert _closure(g, _m({0, 1}), 0, 1) == (_m({0, 1, 2, 3}), 0)

    def test_rejection_on_coloured_vertex_over_budget(self):
        # red centre of P3 with both ends blue: nothing is forced, but the
        # centre has two blue neighbours at d=1
        g = path_graph(3)
        assert _closure(g, _m({1}), _m({0, 2}), 1) is None
        assert _closure(g, _m({1}), _m({0, 2}), 2) == (_m({1}), _m({0, 2}))

    def test_rejection_on_double_demand(self):
        # centre adjacent to two red and two blue forces both colours at d=1
        g = build_graph(5, [(4, 0), (4, 1), (4, 2), (4, 3)])
        assert _closure(g, _m({0, 1}), _m({2, 3}), 1) is None

    @given(st.integers(0, 2 ** 20), st.integers(1, 2))
    @settings(max_examples=120)
    def test_inflationary_idempotent_and_equivalent(self, seed, d):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = random_graph(n, 0.5, seed)
        verts = list(range(n))
        rng.shuffle(verts)
        cut1 = rng.randint(0, n)
        cut2 = rng.randint(cut1, n)
        x, y = _m(verts[:cut1]), _m(verts[cut1:cut2])
        out = _closure(g, x, y, d)
        if out is None:
            assert _valid_extensions(g, x, y, d) == []
            return
        ox, oy = out
        assert x & ~ox == 0 and y & ~oy == 0
        assert _closure(g, ox, oy, d) == out
        assert _valid_extensions(g, x, y, d) == _valid_extensions(g, ox, oy, d)


class TestEnumerateSeedColourings:
    """Branch enumeration over a frontier: leaves in ascending-vertex,
    red-before-blue order, pruned by the closure and local_masks_valid."""

    def test_k2_all_four(self):
        g = build_graph(2, [(0, 1)])
        out = list(_branch_leaves(g, 0, 0, _m({0, 1}), 1))
        assert out == [
            (_m({0, 1}), 0),
            (_m({0}), _m({1})),
            (_m({1}), _m({0})),
            (0, _m({0, 1})),
        ]
        assert all(local_masks_valid(g.adj_bits, x, y, 1) for x, y in out)

    def test_c3_only_monochromatic_survive(self):
        g = cycle_graph(3)
        out = list(_branch_leaves(g, 0, 0, _m({0, 1, 2}), 1))
        assert out == [(_m({0, 1, 2}), 0), (0, _m({0, 1, 2}))]
        # every mixed total colouring fails the local check
        for x in range(1, 7):
            assert not local_masks_valid(g.adj_bits, x, 7 & ~x, 1)

    def test_empty_frontier_returns_base(self):
        g = path_graph(3)
        assert list(_branch_leaves(g, _m({0}), _m({2}), 0, 1)) == [
            (_m({0}), _m({2}))
        ]

    def test_preassigned_frontier_vertices_keep_colour(self):
        g = path_graph(3)
        out = list(_branch_leaves(g, _m({0}), 0, _m({0, 1}), 1))
        assert all(x & 1 for x, _ in out)
        assert len(out) == 2

    def test_deep_frontier_needs_no_recursion(self):
        # one branch level per frontier vertex, deeper than the default
        # recursion limit; the first leaf colours every vertex red
        g = star_graph(1499)
        full = (1 << g.n) - 1
        assert next(_branch_leaves(g, 0, 0, full, 1)) == (full, 0)


def _recursive_leaves(
    g: Graph, x0: int, y0: int, frontier_mask: int, d: int
) -> Iterator[tuple[int, int]]:
    """Reference: the recursive enumerator that ran the full closure and
    the full budget check at every step."""
    adj = g.adj_bits
    n = g.n
    start = _checked_closure(adj, n, x0, y0, d)
    if start is None:
        return
    frontier = list(iter_bits(frontier_mask))

    def rec(x: int, y: int, i: int) -> Iterator[tuple[int, int]]:
        while i < len(frontier) and ((x | y) >> frontier[i]) & 1:
            i += 1
        if i == len(frontier):
            yield (x, y)
            return
        bit = 1 << frontier[i]
        for nx, ny in ((x | bit, y), (x, y | bit)):
            nxt = _checked_closure(adj, n, nx, ny, d)
            if nxt is not None:
                yield from rec(nxt[0], nxt[1], i + 1)

    yield from rec(start[0], start[1], 0)


def _random_masks(rng, n, share):
    """Disjoint red/blue masks colouring about ``share`` of n vertices."""
    x = y = 0
    for v in range(n):
        r = rng.random()
        if r < share / 2:
            x |= 1 << v
        elif r < share:
            y |= 1 << v
    return x, y


def _closed_state(g, d, rng):
    """A closed, locally valid state with an uncoloured vertex, or None."""
    full = (1 << g.n) - 1
    for _ in range(20):
        out = _checked_closure(g.adj_bits, g.n, *_random_masks(rng, g.n, 0.5), d)
        if out and out[0] | out[1] != full:
            return out
    return None


def _checked_closure(adj, n, x, y, d):
    """The reference closure with its overload scan, kept only when it
    passes local_masks_valid; None otherwise."""
    out = reference_closure(adj, n, x, y, d)
    return out if out and local_masks_valid(adj, *out, d) else None


class TestIncrementalClosure:
    """The branch start process_masks, the branch step kernel, the stack
    enumeration and the mask-native leaf check against the reference
    closure and their full counterparts."""

    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 3]))
    @settings(max_examples=300)
    def test_step_equals_full_closure_and_check(self, seed, d):
        """With equal masks, process_masks from arbitrary masks (a start)
        and extend_masks on an uncoloured vertex of a closed, checked
        state, in either colour (a step), accept exactly what the
        reference closure with its overload scan plus local_masks_valid
        accepts, and return its masks."""
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed)
        adj = g.adj_bits
        x0, y0 = _random_masks(rng, n, rng.choice([0.2, 0.5, 0.8]))
        start = process_masks(adj, n, x0, y0, d)
        assert start == _checked_closure(adj, n, x0, y0, d)
        assert list(_branch_leaves(g, x0, y0, 0, d)) == ([start] if start else [])
        state = _closed_state(g, d, rng)
        if state is None:
            return
        x, y = state
        v = rng.choice(list(iter_bits(((1 << n) - 1) & ~(x | y))))
        bit = 1 << v
        red = extend_masks(adj, x, y, v, d)
        blue = extend_masks(adj, y, x, v, d)
        assert (red is None or red & bit) and (blue is None or blue & bit)
        expected = []
        for step, cx, cy in ((red and (red, y), x | bit, y),
                             (blue and (x, blue), x, y | bit)):
            full = _checked_closure(adj, n, cx, cy, d)
            assert step == full
            if full is not None:
                expected.append(full)
        assert list(_branch_leaves(g, x, y, bit, d)) == expected

    def test_step_drops_dead_child_before_forcing(self):
        """On the path 0-1-2-3 with 0 red and 1 blue at d = 1, vertex 1 has
        used its budget, so 2 cannot turn red: extend_masks says so after
        reading only the rows of 2 and of its blue neighbour 1, without
        examining 3."""

        class Rows(tuple):
            def __getitem__(self, v):
                read.append(v)
                return tuple.__getitem__(self, v)

        read = []
        adj = Rows(path_graph(4).adj_bits)
        assert extend_masks(adj, _m({0}), _m({1}), 2, 1) is None
        assert read == [2, 1]
        # blue is open to 2, and 3 with one blue neighbour stays uncoloured
        assert extend_masks(adj, _m({1}), _m({0}), 2, 1) == _m({1, 2})

    def test_step_reexamines_after_each_forced_vertex(self):
        """At d = 2 with 0 and 1 red, red 3 leaves 2 at two red neighbours
        but forces 4 (red neighbours 0, 1, 3); 4 then takes 2 to three, so
        2 must be examined a second time, after 4 joins, and forced."""
        g = build_graph(5, [(0, 2), (2, 3), (2, 4), (0, 4), (1, 4), (3, 4)])
        adj = g.adj_bits
        reds = _m({0, 1})
        assert process_masks(adj, 5, reds, 0, 2) == (reds, 0)
        assert extend_masks(adj, reds, 0, 3, 2) == _m(range(5))
        assert process_masks(adj, 5, reds | _m({3}), 0, 2) == (_m(range(5)), 0)

    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 3]))
    @settings(max_examples=300)
    def test_leaves_match_recursive_enumerator(self, seed, d):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), seed)
        x0, y0 = _random_masks(rng, n, rng.choice([0.0, 0.2, 0.4]))
        frontier = rng.randrange(1 << n)
        leaves = list(_branch_leaves(g, x0, y0, frontier, d))
        assert leaves == list(_recursive_leaves(g, x0, y0, frontier, d))
        # frontier vertices the start masks colour are skipped anyway
        masked = frontier & ~(x0 | y0)
        assert list(_branch_leaves(g, x0, y0, masked, d)) == leaves

    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 3]), st.booleans())
    @settings(max_examples=300)
    def test_mask_check_matches_validate(self, seed, d, perfect):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), seed)
        full = (1 << n) - 1
        x = rng.randrange(1 << n)
        # red wins where the masks overlap
        y = (full & ~x) | (x & rng.randrange(1 << n))
        result = validate_colouring(g, colouring_of(n, x, y), d, perfect)
        expected = result if isinstance(result, CutCertificate) else None
        assert _certify(g, x, y, d, perfect) == expected
        y &= ~x
        counts = [
            (g.adj_bits[v] & (y if (x >> v) & 1 else x)).bit_count()
            for v in range(n)
        ]
        accept = bool(x and y) and all(
            k == d if perfect else k <= d for k in counts
        )
        assert (expected is not None) == accept

    def test_mask_check_requires_total(self):
        with pytest.raises(PartialColouring, match="vertex 1 is uncoloured"):
            _certify(path_graph(3), _m({0}), _m({2}), 1)


class TestMaxBipartiteMatching:
    def test_empty(self):
        assert max_bipartite_matching({}) == {}

    def test_single_edge(self):
        assert max_bipartite_matching({0: _m({5})}) == {0: 5}

    def test_complete_2x2(self):
        m = max_bipartite_matching({0: _m({2, 3}), 1: _m({2, 3})})
        assert len(m) == 2 and len(set(m.values())) == 2

    def test_failed_left_vertex_stays_unmatched(self):
        # 1 cannot augment in its turn; 2 then takes the free right vertex
        m = max_bipartite_matching({0: _m({5}), 1: _m({5}), 2: _m({5, 6})})
        assert m == {0: 5, 2: 6}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_maximum_against_brute(self, seed):
        rng = random.Random(seed)
        nl, nr = rng.randint(0, 4), rng.randint(0, 4)
        edges = [
            (l, 100 + r)
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.5
        ]
        nbrs = {l: _m(r for ll, r in edges if ll == l) for l in range(nl)}
        m = max_bipartite_matching(nbrs)
        assert all((l, r) in edges for l, r in m.items())
        assert len(set(m.values())) == len(m)
        best = 0
        for size in range(min(nl, nr), -1, -1):
            for combo in itertools.combinations(edges, size):
                ls = [e[0] for e in combo]
                rs = [e[1] for e in combo]
                if len(set(ls)) == size and len(set(rs)) == size:
                    best = size
                    break
            if best:
                break
        assert len(m) == best

    def test_matches_recursive_reference(self):
        """The stack-based matcher returns the recursive matcher's dict,
        insertion order included, with left vertices given in any order."""
        rng = random.Random(20)
        for _ in range(3000):
            nl, nr = rng.randint(0, 9), rng.randint(1, 9)
            p = rng.choice([0.2, 0.4, 0.7])
            lefts = rng.sample(range(20), nl)
            nbrs = {
                u: _m(r for r in range(nr) if rng.random() < p)
                for u in lefts
            }
            got = max_bipartite_matching(nbrs)
            want = _recursive_matching(nbrs)
            assert list(got.items()) == list(want.items()), nbrs

    def test_long_augmenting_path_needs_no_recursion(self):
        # u_i takes {i - 1, i}; u_3001 takes {0} and must shift all 3,000
        nbrs = {i: _m({i - 1, i}) for i in range(1, 3001)}
        nbrs[3001] = _m({0})
        m = max_bipartite_matching(nbrs)
        assert len(m) == 3001
        assert m[3001] == 0 and all(m[i] == i for i in range(1, 3001))

    def test_completions_on_long_augmenting_path(self):
        """Hubs 0 (red) and 1 (blue), a_0..a_1200 alternating red and blue
        and joined to the hub of their colour, uncoloured u_i joined to
        a_(i-1) and a_i, and one more uncoloured vertex joined to a_0: the
        last vertex's augmenting path runs through every u_i."""
        k = 1201
        n = 2 + k + (k - 1) + 1
        edges, x, y = [], _m({0}), _m({1})
        for j in range(k):
            edges.append((j % 2, 2 + j))
            if j % 2:
                y |= 1 << (2 + j)
            else:
                x |= 1 << (2 + j)
        for i in range(1, k):
            edges += [(1 + k + i, 1 + j) for j in (i, i + 1)]
        edges.append((n - 1, 2))
        g = build_graph(n, edges)
        cert = complete_independent_max_cut(g, x, y)
        assert cert is not None and cert.size == k
        # hub 0 has no blue neighbour, so no perfect cut exists
        assert complete_independent_perfect(g, x, y) is None


def _recursive_matching(nbrs):
    """The recursive augmenting-path matcher, kept as the reference."""
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for w in iter_bits(nbrs[u]):
            if w in visited:
                continue
            visited.add(w)
            if w not in match_right or augment(match_right[w], visited):
                match_left[u] = w
                match_right[w] = u
                return True
        return False

    for u in nbrs:
        augment(u, set())
    return match_left


def _brute_best_extension(g, x, y, perfect=False):
    """Reference: try all extensions over the uncoloured set."""
    uncoloured = [v for v in range(g.n) if not ((x | y) >> v) & 1]
    best = None
    for bits in range(1 << len(uncoloured)):
        col = list(colouring_of(g.n, x, y))
        for i, v in enumerate(uncoloured):
            col[v] = BLUE if (bits >> i) & 1 else RED
        result = validate_colouring(g, col, 1, perfect)
        if isinstance(result, CutCertificate):
            if perfect:
                return result
            if best is None or result.size > best.size:
                best = result
    return best


class TestCompleteMaxCut:
    def test_no_uncoloured_validates_pair(self):
        g = build_graph(2, [(0, 1)])
        cert = complete_independent_max_cut(g, _m({0}), _m({1}))
        assert cert is not None and cert.size == 1

    def test_p3_centre_red(self):
        g = path_graph(3)
        cert = complete_independent_max_cut(g, _m({1}), 0)
        assert cert is not None and cert.size == 1
        best = _brute_best_extension(g, _m({1}), 0)
        assert best.size == 1

    def test_dependent_uncoloured_rejected(self):
        g = path_graph(4)
        with pytest.raises(PreconditionViolation):
            complete_independent_max_cut(g, _m({0}), _m({3}))

    @pytest.mark.parametrize("g, x, y, message", [
        (path_graph(2), {0}, {0, 1}, "red and blue masks must be disjoint"),
        (path_graph(3), {0, 2}, set(),
         "vertex 1 has more than one coloured neighbour per colour;"
         " pair is not colour-processed for d=1"),
    ], ids=["overlap", "two-red-neighbours"])
    def test_preconditions_rejected(self, g, x, y, message):
        with pytest.raises(PreconditionViolation) as info:
            complete_independent_max_cut(g, _m(x), _m(y))
        assert str(info.value) == message

    def test_disconnected_matches_brute_extension(self):
        """Connectivity is no precondition: on disconnected inputs both
        completions agree with every extension tried, including those
        where only a vertex without neighbours can take the second
        colour."""
        cases = [
            (build_graph(2, []), _m({0}), _m({1})),
            (build_graph(2, []), 0, 0),
            (build_graph(3, [(0, 1)]), _m({0, 1}), 0),
            (build_graph(3, [(0, 1)]), 0, _m({0, 1})),
            (build_graph(4, [(0, 1), (2, 3)]), _m({0}), _m({3})),
            (build_graph(5, [(0, 1), (1, 2)]), _m({1}), 0),
        ]
        cases += [_random_completion_input(seed, connected=False)
                  for seed in range(150)]
        for g, x, y in cases:
            for complete, perfect in ((complete_independent_max_cut, False),
                                      (complete_independent_perfect, True)):
                mine = complete(g, x, y)
                brute = _brute_best_extension(g, x, y, perfect)
                assert (mine is None) == (brute is None), (g, x, y, perfect)
                if mine is not None:
                    assert mine.size == brute.size
                    again = validate_colouring(g, mine.colouring, 1, perfect)
                    assert isinstance(again, CutCertificate)

    def test_no_valid_extension_returns_none(self):
        g = cycle_graph(3)
        # the red-blue edge exhausts both budgets, so the last vertex has
        # nowhere to hand its forced cut edge
        assert complete_independent_max_cut(g, _m({0}), _m({1})) is None
        assert _brute_best_extension(g, _m({0}), _m({1})) is None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150)
    def test_matches_brute_extension(self, seed):
        g, x, y = _random_completion_input(seed)
        mine = complete_independent_max_cut(g, x, y)
        brute = _brute_best_extension(g, x, y)
        if brute is None:
            assert mine is None
        else:
            assert mine is not None and mine.size == brute.size


def _random_completion_input(seed, connected=True):
    """Connected (or, if not ``connected``, disconnected) graph plus
    processed red/blue masks whose remainder is independent."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(1 << 30))
        if is_connected(g) != connected:
            continue
        # choose an independent set to leave uncoloured
        order = list(range(n))
        rng.shuffle(order)
        uncoloured = []
        for v in order:
            if all(not g.has_edge(v, u) for u in uncoloured):
                uncoloured.append(v)
                if len(uncoloured) >= rng.randint(1, 3):
                    break
        xs, ys = set(), set()
        for v in range(n):
            if v in uncoloured:
                continue
            (xs if rng.random() < 0.5 else ys).add(v)
        out = _closure(g, _m(xs), _m(ys), 1)
        if out is None:
            continue
        x, y = out
        rest = [v for v in range(n) if not ((x | y) >> v) & 1]
        if any(g.has_edge(a, b) for a in rest for b in rest if a < b):
            continue
        return g, x, y


def _reference_perfect(g, x, y):
    """The perfect completion with its own forcing and matching, kept as
    the reference.  Its precondition checks are left out: the planted
    states below meet them."""
    u_mask = ((1 << g.n) - 1) & ~(x | y)
    adj = g.adj_bits
    for u in iter_bits(u_mask):
        coloured = adj[u] & (x | y)
        if coloured.bit_count() == 1:
            w = coloured.bit_length() - 1
            if (x >> w) & 1:
                y |= 1 << u
            else:
                x |= 1 << u
            u_mask &= ~(1 << u)
    if not local_masks_valid(adj, x, y, 1):
        return None
    free = 0
    for w in iter_bits(x):
        if not adj[w] & y:
            free |= 1 << w
    for w in iter_bits(y):
        if not adj[w] & x:
            free |= 1 << w
    matched = max_bipartite_matching({u: adj[u] & free for u in iter_bits(u_mask)})
    if len(matched) != u_mask.bit_count():
        return None
    for u, w in matched.items():
        if (x >> w) & 1:
            y |= 1 << u
        else:
            x |= 1 << u
    return _certify(g, x, y, 1, True)


def _planted_perfect_input(seed):
    """A red set A and a blue set B, each connected, with no edge between
    them; each vertex of A and B is, with probability 0.9, the planted
    partner of its own uncoloured vertex, which with probability 3/4 also
    sees a vertex of the other colour.  Vertex ids are shuffled.  When
    every coloured vertex has a partner, giving each uncoloured vertex the
    colour opposite its partner is a perfect cut."""
    rng = random.Random(seed)
    while True:
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        sides = [list(range(na)), list(range(na, na + nb))]
        n = na + nb
        edges = []
        for side in sides:
            for i in range(1, len(side)):
                edges.append((side[rng.randrange(i)], side[i]))
            edges += [(a, b) for a, b in itertools.combinations(side, 2)
                      if rng.random() < 0.3]
        for colour, side in enumerate(sides):
            for t in side:
                if rng.random() < 0.9:
                    edges.append((t, n))
                    if rng.random() < 0.75:
                        edges.append((rng.choice(sides[1 - colour]), n))
                    n += 1
        perm = list(range(n))
        rng.shuffle(perm)
        g = build_graph(n, {tuple(sorted((perm[a], perm[b]))) for a, b in edges})
        if is_connected(g):
            return g, _m(perm[v] for v in sides[0]), _m(perm[v] for v in sides[1])


class TestCompletePerfect:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        cert = complete_independent_perfect(g, _m({0}), _m({1}))
        assert cert is not None and cert.perfect and cert.size == 1

    def test_c3_never_perfect(self):
        g = cycle_graph(3)
        for x, y in ((_m({0}), _m({1})), (_m({0, 1}), _m({2}))):
            assert complete_independent_perfect(g, x, y) is None

    def test_p4_branch_completes_to_perfect(self):
        g = path_graph(4)
        cert = complete_independent_perfect(g, _m({0}), _m({1, 2}))
        assert cert is not None and cert.size == 2
        assert cert.colouring == (RED, BLUE, BLUE, RED)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150)
    def test_matches_brute_extension(self, seed):
        g, x, y = _random_completion_input(seed)
        mine = complete_independent_perfect(g, x, y)
        brute = _brute_best_extension(g, x, y, perfect=True)
        assert (mine is None) == (brute is None)
        if mine is not None:
            check = validate_colouring(g, list(mine.colouring), 1, True)
            assert isinstance(check, CutCertificate)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300)
    def test_matches_reference_on_planted_states(self, seed):
        """The perfect completion (the maximum completion kept at n/2
        edges) returns the reference routine's certificate on planted
        states, and None exactly when it does."""
        g, x, y = _planted_perfect_input(seed)
        mine = complete_independent_perfect(g, x, y)
        ref = _reference_perfect(g, x, y)
        if ref is None:
            assert mine is None
            return
        assert mine is not None
        assert (mine.colouring, mine.cut, mine.size, mine.perfect) == (
            ref.colouring, ref.cut, ref.size, ref.perfect
        )
        check = validate_colouring(g, list(mine.colouring), 1, require_perfect=True)
        assert isinstance(check, CutCertificate)


class TestMaskHelpers:
    def test_round_trip(self):
        col = (RED, BLUE, RED)
        x, y = masks_of(col)
        assert colouring_of(3, x, y) == col


class TestAcceptedCutIncidence:
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.booleans())
    @settings(max_examples=80)
    def test_per_vertex_cut_degree_bounded(self, seed, d, perfect):
        """An accepted colouring puts every vertex on at most d cut edges
        (exactly d in the perfect case)."""
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = random_graph(n, 0.5, seed)
        col = [RED if rng.random() < 0.5 else BLUE for _ in range(n)]
        result = validate_colouring(g, col, d, perfect)
        if not isinstance(result, CutCertificate):
            return
        incidence = [0] * n
        for u, v in result.cut:
            incidence[u] += 1
            incidence[v] += 1
        for v in range(n):
            if perfect:
                assert incidence[v] == d
            else:
                assert incidence[v] <= d
