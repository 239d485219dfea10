"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpora are fully
seeded, so every run checks the same instances.
"""

import itertools
import random
import time

from probecut import (
    backtrack_dcut,
    brute_dcut,
    brute_mmc,
    brute_pmc,
    brute_sat,
    build_graph,
    complete_independent_max_cut,
    diamond_pattern,
    is_connected,
    is_p4_free,
    moshi_double,
    random_probe_hfree,
    random_sat_instance,
    sat_to_4p1,
    solve_dcut,
    solve_mmc,
    solve_pmc,
    sp1_p4_pattern,
    star_pattern,
    subdivide4,
    verify_probe_certificate,
    SatInstance,
)
from probecut.colouring import process_masks
from probecut.graph import iter_bits
from conftest import (
    complete_bipartite,
    complete_graph,
    cube_graph,
    random_cubic_graph,
    reference_closure,
)

EXAMPLE_SAT = SatInstance.of(
    6,
    [(0, 1, 2), (0, 2, 3), (1, 4, 5), (3, 4, 5)],
    [(0, 1, 3), (0, 2, 4), (1, 3, 5), (2, 4, 5)],
)

# densities tuned so rejection sampling of pattern-free graphs succeeds
# comfortably inside the 10k-attempt budget at every size
DENSITY = {
    0: {4: 0.75, 5: 0.8, 6: 0.85, 7: 0.85, 8: 0.9, 9: 0.9, 10: 0.92, 11: 0.95},
    1: {4: 0.55, 5: 0.55, 6: 0.6, 7: 0.65, 8: 0.7, 9: 0.78, 10: 0.8, 11: 0.82},
    2: {4: 0.5, 5: 0.5, 6: 0.55, 7: 0.6, 8: 0.65, 9: 0.7, 10: 0.75, 11: 0.78},
}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _corpus(count: int, s: int, seed_base: int):
    """Seeded certified instances with n <= 11 for the given pattern."""
    made = 0
    i = 0
    while made < count:
        n = 4 + (i % 8)
        try:
            ppg, cert = random_probe_hfree(
                n, sp1_p4_pattern(s), DENSITY[s][n], seed=seed_base + i
            )
        except Exception:
            i += 1
            continue
        i += 1
        made += 1
        yield ppg


def test_criterion_1_dcut_agreement():
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for ppg in _corpus(500, s=1, seed_base=110_000):
        total += 1
        for d in (2, 3):
            poly = solve_dcut(ppg, d)
            brute = brute_dcut(ppg.graph, d)
            if poly.answer != (brute is not None):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = total >= 500 and mismatches == 0 and elapsed <= 600
    _report(1, ok, f"d-cut solver vs oracle on {total} instances, d in {{2,3}}: "
                   f"{mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_2_mmc_pmc_agreement():
    start = time.perf_counter()
    mismatches = 0
    total = 0
    # three sub-corpora, one per isolated-vertex count of the pattern
    for s in (0, 1, 2):
        for ppg in _corpus(167, s=s, seed_base=120_000 + 10_000 * s):
            total += 1
            mine = solve_mmc(ppg, s)
            brute = brute_mmc(ppg.graph)
            mine_size = mine.certificate.size if mine.answer else None
            brute_size = brute[0] if brute is not None else None
            if mine_size != brute_size:
                mismatches += 1
            if solve_pmc(ppg, s).answer != (brute_pmc(ppg.graph) is not None):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = total >= 500 and mismatches == 0 and elapsed <= 900
    _report(2, ok, f"mmc/pmc solver vs oracle on {total} instances, "
                   f"s in {{0,1,2}}: {mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def _connected_graphs_upto(max_n):
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            if not edges:
                continue
            g = build_graph(n, edges)
            if is_connected(g):
                yield g


def test_criterion_3_edge_doubling_equivalence():
    start = time.perf_counter()
    claw = star_pattern(3)
    checked = 0
    bad = 0
    for g in _connected_graphs_upto(6):
        checked += 1
        ppg, cert = moshi_double(g)
        before = brute_dcut(g, 1) is not None
        after = backtrack_dcut(ppg.graph, 1) is not None
        if before != after or not verify_probe_certificate(ppg, cert, claw):
            bad += 1
    rng = random.Random(130_000)
    extras = 0
    while extras < 200:
        edges = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if rng.random() < rng.choice([0.3, 0.5, 0.7])
        ]
        if not edges:
            continue
        g = build_graph(7, edges)
        if not is_connected(g):
            continue
        extras += 1
        ppg, cert = moshi_double(g)
        before = brute_dcut(g, 1) is not None
        after = backtrack_dcut(ppg.graph, 1) is not None
        if before != after or not verify_probe_certificate(ppg, cert, claw):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and extras == 200
    _report(3, ok, f"edge doubling preserves matching cuts on {checked} small "
                   f"+ {extras} random graphs, {bad} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_4_subdivision_equivalence():
    start = time.perf_counter()
    graphs = [complete_graph(4), complete_bipartite(3, 3), cube_graph()]
    rng_seed = 0
    while len(graphs) < 53:
        n = [4, 6, 8, 10][rng_seed % 4]
        g = random_cubic_graph(n, 140_000 + rng_seed)
        rng_seed += 1
        if g is not None:
            graphs.append(g)
    bad = 0
    for g in graphs:
        ppg, cert = subdivide4(g)
        before = brute_pmc(g) is not None
        after = backtrack_dcut(ppg.graph, 1, require_perfect=True) is not None
        if before != after:
            bad += 1
        if not verify_probe_certificate(ppg, cert, star_pattern(3)):
            bad += 1
        if not verify_probe_certificate(ppg, cert, diamond_pattern()):
            bad += 1
        completed = ppg.graph.with_edges(cert.f_edges)
        if max(completed.degree(v) for v in range(completed.n)) > 3:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and len(graphs) >= 53
    _report(4, ok, f"4-subdivision preserves perfect matching cuts on "
                   f"{len(graphs)} cubic graphs, {bad} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_5_sat_reduction_equivalence():
    start = time.perf_counter()
    instances = [EXAMPLE_SAT]
    for seed in range(25):
        instances.append(random_sat_instance(6, 150_000 + seed))
    for seed in range(24):
        instances.append(random_sat_instance(9, 151_000 + seed))
    bad = 0
    example_ok = False
    for index, inst in enumerate(instances):
        sat = brute_sat(inst) is not None
        for d in (2, 3):
            ppg, cert = sat_to_4p1(inst, d)
            cut = brute_dcut(ppg.graph, d) is not None
            if cut != sat:
                bad += 1
            if index == 0 and d == 2:
                example_ok = sat and cut
    elapsed = time.perf_counter() - start
    ok = bad == 0 and example_ok and len(instances) >= 50
    _report(5, ok, f"SAT reduction equivalence on {len(instances)} instances "
                   f"(d=2 and d=3): {bad} failures, example instance "
                   f"satisfiable with a 2-cut: {example_ok}, {elapsed:.1f}s")
    assert ok


def _connected_cographs_upto(max_n):
    """All connected cographs with 2..max_n vertices, one per isomorphism
    class, materialised from canonical union/join trees."""

    def forms(n, connected):
        # a connected form is a join of >= 2 smaller non-join forms;
        # a disconnected form is a union of >= 2 connected forms
        if n == 1:
            return {("leaf",)}
        out = set()
        child_kind = (lambda k: forms(k, False) | ({("leaf",)} if k == 1 else set())) if connected else (
            lambda k: forms(k, True) | ({("leaf",)} if k == 1 else set())
        )

        def partitions(total, max_part):
            if total == 0:
                yield ()
                return
            for part in range(min(total, max_part), 0, -1):
                for rest in partitions(total - part, part):
                    yield (part,) + rest

        tag = "J" if connected else "U"
        for shape in partitions(n, n - 1):
            if len(shape) < 2:
                continue
            pools = [sorted(child_kind(k)) for k in shape]
            for combo in itertools.product(*pools):
                out.add((tag, tuple(sorted(combo))))
        return out

    def materialise(form):
        if form == ("leaf",):
            return 1, []
        tag, children = form
        n = 0
        edges = []
        blocks = []
        for child in children:
            size, sub = materialise(child)
            edges += [(u + n, v + n) for u, v in sub]
            blocks.append(list(range(n, n + size)))
            n += size
        if tag == "J":
            for i, left in enumerate(blocks):
                for right in blocks[i + 1:]:
                    edges += [(u, v) for u in left for v in right]
        return n, edges

    for n in range(2, max_n + 1):
        for form in sorted(forms(n, True)):
            size, edges = materialise(form)
            yield build_graph(size, edges)


def test_criterion_6_cograph_colour_class_bound():
    start = time.perf_counter()
    counterexamples = 0
    graphs = 0
    colourings = 0
    for g in _connected_cographs_upto(8):
        graphs += 1
        assert is_connected(g) and is_p4_free(g) is True
        n = g.n
        adj = g.adj_bits
        full = (1 << n) - 1
        for blue in range(1, full):
            red = full & ~blue
            for d in (1, 2):
                valid = True
                for v in range(n):
                    opposite = blue if (red >> v) & 1 else red
                    if (adj[v] & opposite).bit_count() > d:
                        valid = False
                        break
                if valid:
                    colourings += 1
                    if min(bin(red).count("1"), bin(blue).count("1")) > 2 * d:
                        counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and graphs >= 100
    _report(6, ok, f"small-colour-class bound over {graphs} connected "
                   f"cographs (n<=8), {colourings} valid colourings, "
                   f"{counterexamples} counterexamples, {elapsed:.1f}s")
    assert ok


def _reference_closure(g, xs, ys, d, rng):
    """Single-step closure applying one randomly chosen forcing move at a
    time; the overload check runs once no move applies, then the budget
    check: no coloured vertex may have more than d neighbours in the other
    class.  None means rejected."""
    x, y = set(xs), set(ys)
    while True:
        moves = []
        for v in range(g.n):
            if v in x or v in y:
                continue
            cx = sum(g.has_edge(v, u) for u in x)
            cy = sum(g.has_edge(v, u) for u in y)
            if cx > d:
                moves.append((v, "x"))
            if cy > d:
                moves.append((v, "y"))
        if not moves:
            break
        v, side = rng.choice(moves)
        (x if side == "x" else y).add(v)
    for v in range(g.n):
        cx = sum(g.has_edge(v, u) for u in x)
        cy = sum(g.has_edge(v, u) for u in y)
        if cx > d and cy > d:
            return None
    for v in x | y:
        if sum(g.has_edge(v, u) for u in (y if v in x else x)) > d:
            return None
    return frozenset(x), frozenset(y)


def test_criterion_7_closure_confluence_and_equivalence():
    start = time.perf_counter()
    rng = random.Random(170_000)
    disagreements = 0
    equivalence_failures = 0
    triples = 0
    while triples < 100:
        n = rng.randint(2, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.3, 0.5])
        ]
        g = build_graph(n, edges)
        verts = list(range(n))
        rng.shuffle(verts)
        a = rng.randint(0, n)
        b = rng.randint(a, n)
        xs, ys = verts[:a], verts[a:b]
        d = rng.choice([1, 2])
        triples += 1
        mine = process_masks(
            g.adj_bits, n, sum(1 << v for v in xs), sum(1 << v for v in ys), d
        )
        expected = (
            None if mine is None
            else tuple(frozenset(iter_bits(m)) for m in mine)
        )
        for _ in range(50):
            ref = _reference_closure(g, xs, ys, d, rng)
            if ref != expected:
                disagreements += 1
                break
        # full-enumeration equivalence: accepted extensions must coincide
        accepted_before = _accepted_extensions(g, xs, ys, d)
        if mine is None:
            if accepted_before:
                equivalence_failures += 1
        else:
            accepted_after = _accepted_extensions(
                g, iter_bits(mine[0]), iter_bits(mine[1]), d
            )
            if accepted_before != accepted_after:
                equivalence_failures += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and equivalence_failures == 0
    _report(7, ok, f"closure confluence over {triples} triples x 50 orders: "
                   f"{disagreements} order disagreements, "
                   f"{equivalence_failures} equivalence failures, {elapsed:.1f}s")
    assert ok


def _accepted_extensions(g, xs, ys, d):
    adj = g.adj_bits
    n = g.n
    full = (1 << n) - 1
    x0 = sum(1 << v for v in xs)
    y0 = sum(1 << v for v in ys)
    free = [v for v in range(n) if not ((x0 | y0) >> v) & 1]
    out = set()
    for bits in range(1 << len(free)):
        blue = y0
        for i, v in enumerate(free):
            if (bits >> i) & 1:
                blue |= 1 << v
        red = full & ~blue
        if red == 0 or blue == 0:
            continue
        good = True
        for v in range(n):
            opposite = blue if (red >> v) & 1 else red
            if (adj[v] & opposite).bit_count() > d:
                good = False
                break
        if good:
            out.add(blue)
    return out


def test_criterion_8_completion_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(180_000)
    cases = 0
    failures = 0
    while cases < 200:
        n = rng.randint(3, 15)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.3, 0.45])
        ]
        g = build_graph(n, edges)
        if not is_connected(g):
            continue
        order = list(range(n))
        rng.shuffle(order)
        uncoloured = []
        budget = rng.randint(1, 12)
        for v in order:
            if all(not g.has_edge(v, u) for u in uncoloured):
                uncoloured.append(v)
                if len(uncoloured) >= budget:
                    break
        xs, ys = set(), set()
        for v in range(n):
            if v not in uncoloured:
                (xs if rng.random() < 0.5 else ys).add(v)
        pair = reference_closure(
            g.adj_bits, n, sum(1 << v for v in xs), sum(1 << v for v in ys), 1
        )
        if pair is None:
            continue
        x, y = pair
        rest = [v for v in range(n) if not ((x | y) >> v) & 1]
        if len(rest) > 12 or any(
            g.has_edge(a, b) for a in rest for b in rest if a < b
        ):
            continue
        cases += 1
        mine = complete_independent_max_cut(g, x, y)
        best = _brute_max_extension(g, x, y)
        mine_size = mine.size if mine is not None else None
        if mine_size != best:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(8, ok, f"independent-remainder completion vs 2^|U| brute force "
                   f"on {cases} inputs: {failures} size disagreements, "
                   f"{elapsed:.1f}s")
    assert ok


def _brute_max_extension(g, x0, y0):
    adj = g.adj_bits
    n = g.n
    full = (1 << n) - 1
    free = [v for v in range(n) if not ((x0 | y0) >> v) & 1]
    best = None
    for bits in range(1 << len(free)):
        blue = y0
        for i, v in enumerate(free):
            if (bits >> i) & 1:
                blue |= 1 << v
        red = full & ~blue
        if red == 0 or blue == 0:
            continue
        good = True
        size = 0
        for v in range(n):
            opposite = blue if (red >> v) & 1 else red
            k = (adj[v] & opposite).bit_count()
            if k > 1:
                good = False
                break
            if (blue >> v) & 1:
                size += k
        if good and (best is None or size > best):
            best = size
    return best
