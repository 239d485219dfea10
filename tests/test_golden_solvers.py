"""Golden-output gate for the d-cut solver: ``solve_dcut`` reports (answer,
colouring, ``branches_explored``, ``case_trace``) at d = 2 and 3 on a
fixed seeded corpus hash to a recorded digest.

``tests/test_golden.py`` runs few instances through the CLI, and no other
test reaches the solver's two-component second round, its mixed-edge
branch, the second round of the type-B case or the opposite-colour half of
the dominating-pair case.  The featured seeds below reach each of them.
Never edit SOLVER_DIGEST to make this pass; a changed digest means changed
output.  At d = 1 the corpus is checked against ``backtrack_dcut`` instead.
"""

import hashlib
import random

from probecut import (
    CutCertificate,
    PartitionedProbeGraph,
    backtrack_dcut,
    brute_probe_certificate,
    build_graph,
    is_connected,
    random_probe_hfree,
    solve_dcut,
    sp1_p4_pattern,
    validate_colouring,
)

SOLVER_DIGEST = "d4d4ae86a270e798f89bdbb705c95508fe3b1b42bae3084d3b624dbf4c70d242"

# seeds whose runs reach a rarely taken branch of solve_dcut (d = 2):
# a non-probe left uncoloured by the two-component guesses, mixed on both
# components (22192, 22471, 23000) or complete to one of them (2087, 3125,
# 7187, 25430); the opposite-colour pair guesses of the dominating-pair
# case (17993, 34630, 34852, 40767)
FEATURED = (2087, 3125, 7187, 17993, 22192, 22471, 23000, 25430,
            34630, 34852, 40767)


def _cograph_edges(verts, rng):
    """Edges of a random cograph: split each part in two and join the
    halves or not, on an explicit stack."""
    edges, stack = [], [(list(verts), rng.random() < 0.5)]
    while stack:
        part, join = stack.pop()
        if len(part) < 2:
            continue
        k = rng.randint(1, len(part) - 1)
        left, right = part[:k], part[k:]
        if join:
            edges += [(u, v) for u in left for v in right]
        stack += [(left, rng.random() < 0.5), (right, rng.random() < 0.5)]
    return edges


def _instance(seed):
    """One to four disjoint random cographs of one to five vertices as the
    probe side, one to six non-probes that each see each probe with one
    probability (0.15, 0.3 or 0.5); None when disconnected.  Not certified:
    the solver must stay sound off its class promise as well."""
    rng = random.Random(seed)
    edges, start = [], 0
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 5)
        edges += _cograph_edges(range(start, start + size), rng)
        start += size
    n = start + rng.randint(1, 6)
    p = rng.choice((0.15, 0.3, 0.5))
    edges += [
        (u, v) for v in range(start, n) for u in range(start)
        if rng.random() < p
    ]
    g = build_graph(n, edges)
    if not is_connected(g):
        return None
    return PartitionedProbeGraph(
        g, frozenset(range(start)), frozenset(range(start, n))
    )


def _instances():
    for seed in (*range(4000), *FEATURED):
        ppg = _instance(seed)
        if ppg is None:
            assert seed not in FEATURED
            continue
        yield f"cograph {seed}", ppg
    # certified probe (P1+P4)-free instances, whose probe side may hold an
    # induced P4 or be dominated by one non-probe
    pattern = sp1_p4_pattern(1)
    for seed in range(200):
        n, density = 6 + seed % 7, (0.5, 0.6, 0.75, 0.9)[seed % 4]
        yield f"hfree {seed}", random_probe_hfree(n, pattern, density, seed)[0]


def _golden_lines():
    lines: list[str] = []
    for name, ppg in _instances():
        for d in (2, 3):
            report = solve_dcut(ppg, d)
            colouring = (
                "".join(c[0] for c in report.certificate.colouring)
                if report.answer else "-"
            )
            lines.append(
                f"{name} d={d} {report.answer} {colouring} "
                f"{report.branches_explored} {report.case_trace}"
            )
    return lines


def test_solver_output_matches_golden_digest():
    digest = hashlib.sha256("\n".join(_golden_lines()).encode()).hexdigest()
    assert digest == SOLVER_DIGEST


# in-class seeds whose d = 1 "yes" the corpus above does not reach: one
# needs an opposite-colour pair guess that colours a neighbour of u blue
# (14154), one a two-component class of 2d vertices (33524)
FEATURED_D1 = (14154, 33524)

# the final case_trace label of each solve_dcut case
CASE_LABELS = {
    "mono-probe", "p4-dominating", "cograph-1comp", "cograph-2comp",
    "multi-comp/type-a", "multi-comp/type-b", "multi-comp/dominating-pair",
}


def test_d1_agrees_with_backtrack_on_in_class_instances():
    """At d = 1 every certificate validates, every instance in the class
    (an hfree one by its generator's certificate, a cograph one when
    brute_probe_certificate finds one) gets the answer of backtrack_dcut,
    and the in-class instances reach every case."""
    pattern = sp1_p4_pattern(1)
    labels = set()
    featured = ((f"cograph {seed}", _instance(seed)) for seed in FEATURED_D1)
    for name, ppg in (*_instances(), *featured):
        report = solve_dcut(ppg, 1)
        if report.answer:
            check = validate_colouring(
                ppg.graph, list(report.certificate.colouring), 1
            )
            assert isinstance(check, CutCertificate), name
        in_class = (name.startswith("hfree")
                    or brute_probe_certificate(ppg, pattern) is not None)
        if in_class:
            assert report.answer == (backtrack_dcut(ppg.graph, 1) is not None), name
            labels.add(report.case_trace[-1])
    assert labels == CASE_LABELS
