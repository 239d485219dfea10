"""Golden-output gate for the two search kernels under the reduction
checks: the ``backtrack_dcut`` colourings and the ``find_induced``
occurrences on a fixed seeded corpus hash to a recorded digest.

``tests/test_golden.py`` hashes CLI JSON only, so it would not see a
changed oracle certificate or a changed occurrence map.  A kernel rewrite
that keeps every answer but returns a different witness changes this
digest.  Never edit ORACLE_DIGEST to make this pass; a changed digest
means changed output.
"""

import hashlib
import random

from probecut import (
    backtrack_dcut,
    find_induced,
    moshi_double,
    parse_pattern,
    random_sat_instance,
    sat_to_4p1,
    subdivide4,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cube_graph,
    random_connected_graph,
    random_cubic_graph,
    random_graph,
)

ORACLE_DIGEST = "333d5716557e8d2033a07ee74c6cbbc8c5d1b9fb0532d7ed19bb35e127d78b2d"

# one name per pattern shape parse_pattern accepts: paths, cycles, stars,
# independent sets, sP1+P4, 2P2 and the diamond
PATTERN_NAMES = (
    "P2", "P3", "P4", "P5", "C3", "C4", "C5", "K1,3", "K1,4",
    "3P1", "4P1", "P1+P4", "2P1+P4", "2P2", "diamond",
)


def _random_graphs():
    for i in range(600):
        rng = random.Random(i)
        yield random_graph(rng.randint(2, 14), (0.2, 0.4, 0.6, 0.8)[i % 4], i)


def _reduction_graphs():
    """(reduced, completed) graph pairs of the three hardness gadgets."""
    sources = [complete_graph(3), complete_graph(4)] + [
        random_connected_graph(n, 0.5, seed)
        for n, seed in ((4, 1), (5, 2), (5, 3), (6, 4))
    ]
    for g in sources:
        ppg, cert = moshi_double(g)
        yield ppg.graph, ppg.graph.with_edges(cert.f_edges)
    cubic = [complete_graph(4), complete_bipartite(3, 3), cube_graph()]
    cubic += [random_cubic_graph(n, seed) for n, seed in ((8, 1), (10, 2))]
    for g in cubic:
        assert g is not None
        ppg, cert = subdivide4(g)
        yield ppg.graph, ppg.graph.with_edges(cert.f_edges)
    for n_vars, seed, d in ((3, 1, 2), (6, 2, 2), (6, 3, 3), (9, 4, 3)):
        ppg, cert = sat_to_4p1(random_sat_instance(n_vars, seed), d)
        yield ppg.graph, ppg.graph.with_edges(cert.f_edges)


def _dcut_line(g, d, perfect):
    cert = backtrack_dcut(g, d, require_perfect=perfect)
    if cert is None:
        return f"dcut d={d} perfect={perfect}: none"
    return f"dcut d={d} perfect={perfect}: {''.join(cert.colouring)}"


def _induced_lines(g, patterns):
    for h in patterns:
        found = find_induced(g, h)
        image = None if found is None else [found[i] for i in range(len(found))]
        yield f"{h.name}: {image}"


def _golden_lines():
    patterns = [parse_pattern(name) for name in PATTERN_NAMES]
    lines: list[str] = []
    for index, g in enumerate(_random_graphs()):
        lines.append(f"random {index} n={g.n} edges={g.edges()}")
        for d in (1, 2, 3):
            lines.append(_dcut_line(g, d, False))
        lines.append(_dcut_line(g, 1, True))
        lines.extend(_induced_lines(g, patterns))
    for index, (reduced, completed) in enumerate(_reduction_graphs()):
        lines.append(f"reduction {index} n={reduced.n}")
        for d in (1, 2, 3):
            lines.append(_dcut_line(reduced, d, False))
        lines.append(_dcut_line(reduced, 1, True))
        lines.extend(_induced_lines(reduced, patterns))
        lines.extend(_induced_lines(completed, patterns))
    return lines


def test_oracle_output_matches_golden_digest():
    digest = hashlib.sha256("\n".join(_golden_lines()).encode()).hexdigest()
    assert digest == ORACLE_DIGEST
