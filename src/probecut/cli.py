"""Command-line front door: instance parsing/serialisation and the
solve / verify / generate / reduce / crosscheck commands.

Exit codes are a stable contract: 0 yes, 1 no, 2 usage or scale error
(or a crosscheck that skipped instances it could not generate, or an
output closed before everything was written), 3 crosscheck mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Optional

from .errors import (
    GenerationTimeout,
    InvalidInstance,
    ParseError,
    ProbeCutError,
)
from .graph import (
    Graph,
    PartitionedProbeGraph,
    ProbeCertificate,
    _check_pairs,
    _check_pattern_size,
    _free,
    _nbhd,
    build_graph,
    iter_bits,
    parse_pattern,
    path_pattern,
    random_probe_hfree,
    split_forbidden_patterns,
    sp1_p4_pattern,
    verify_probe_certificate,
)
from .colouring import BLUE, RED, CutCertificate, _check_d, validate_colouring
from .oracles import _check_scale, brute_dcut, brute_mmc, brute_pmc
from .reductions import (
    SatInstance,
    _check_sat4p1_d,
    bipartite_to_split,
    moshi_double,
    random_sat_instance,
    sat_to_4p1,
    subdivide4,
)
from .solvers import solve_dcut, solve_mmc, solve_pmc

MAX_VERTICES = 100_000
"""Largest vertex count an instance may declare (or imply by its largest
vertex id).  The parsers reject more before any graph is allocated."""

MAX_OUTPUT_ITEMS = 1_000_000
"""Largest number of edges plus certificate pairs a construction may
emit; worked out from its input before anything is built."""


@dataclass
class InstanceDocument:
    """A checked partitioned probe instance with its certificate, if any,
    and string metadata: what an instance file holds."""

    ppg: PartitionedProbeGraph
    certificate: Optional[ProbeCertificate] = None
    metadata: dict[str, str] = field(default_factory=dict)


def document_from(
    ppg: PartitionedProbeGraph,
    cert: Optional[ProbeCertificate],
    metadata: Optional[dict[str, str]] = None,
) -> InstanceDocument:
    return InstanceDocument(ppg, cert, dict(metadata or {}))


def parse_instance(text: str) -> InstanceDocument:
    """Parse the JSON instance format or the line-oriented edge list into
    a checked instance: :func:`build_graph`, :class:`PartitionedProbeGraph`
    and :func:`_check_pairs` each raise an :class:`InvalidInstance`."""
    n, edges, probes, nonprobes, cert_pairs, metadata = _parse_fields(text)
    ppg = PartitionedProbeGraph(
        build_graph(n, edges), frozenset(probes), frozenset(nonprobes)
    )
    cert = None
    if cert_pairs is not None:
        cert = ProbeCertificate.of(cert_pairs)
        _check_pairs(ppg, cert)
    return InstanceDocument(ppg, cert, metadata)


def _parse_fields(text: str) -> tuple:
    """(n, edges, probes, nonprobes, certificate pairs or None, metadata):
    the JSON format if the text starts with ``{``, else the edge list."""
    if text.lstrip().startswith("{"):
        return _parse_json_instance(text)
    return _parse_text_instance(text)


def _check_size(n: int) -> int:
    if n > MAX_VERTICES:
        raise ParseError(
            f"n={n} exceeds the instance size limit {MAX_VERTICES}"
        )
    return n


def _load_json(text: str):
    """``json.loads`` raising :class:`ParseError` on bad syntax, too many
    digits in an integer or nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


def _int(value) -> int:
    """A JSON integer; a float, bool or string is refused, not coerced."""
    return value if type(value) is int else _bad(value)


def _bad(*values):
    """Raise :func:`_int`'s refusal for the first non-integer value."""
    bad = next(v for v in values if type(v) is not int)
    raise TypeError(f"{bad!r} is not an integer")


def _ints(items) -> list[int]:
    return [v for v in items if type(v) is int or _bad(v)]


def _pairs(items) -> list[tuple[int, int]]:
    return [(u, v) for u, v in items if type(u) is int is type(v) or _bad(u, v)]


def _parse_json_instance(text: str) -> tuple:
    raw = _load_json(text)
    try:
        n = _check_size(_int(raw["n"]))
        edges = _pairs(raw.get("edges", []))
        probes = _ints(raw.get("probes", []))
        nonprobes = _ints(raw.get("nonprobes", []))
        cert = raw.get("certificate_f")
        if cert is not None:
            cert = _pairs(cert)
        metadata = raw.get("metadata", {})
        if not isinstance(metadata, dict):
            raise TypeError("metadata must be an object")
        metadata = {str(k): str(v) for k, v in metadata.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad instance document: {exc}") from exc
    return n, edges, probes, nonprobes, cert, metadata


def _parse_text_instance(text: str) -> tuple:
    """The fields of the edge list; the non-probes are the marked ones plus
    every unmarked vertex, as :class:`PartitionedProbeGraph` checks them."""
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    probes: set[int] = set()
    nonprobes: set[int] = set()
    cert: list[tuple[int, int]] = []
    seen_vertex = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "n" and len(args) == 1:
                n = int(args[0])
            elif kind in ("e", "f") and len(args) == 2:
                u, v = int(args[0]), int(args[1])
                (edges if kind == "e" else cert).append((u, v))
                seen_vertex = max(seen_vertex, u, v)
            elif kind in ("probe", "nonprobe") and len(args) == 1:
                u = int(args[0])
                (probes if kind == "probe" else nonprobes).add(u)
                seen_vertex = max(seen_vertex, u)
            else:
                raise ParseError(f"line {lineno}: cannot parse {line!r}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    n = _check_size(seen_vertex + 1 if n is None else n)
    nonprobes |= set(range(n)) - probes
    return n, edges, probes, nonprobes, cert or None, {}


def serialize_instance(doc: InstanceDocument) -> str:
    g = doc.ppg.graph
    payload = {
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "probes": sorted(doc.ppg.probes),
        "nonprobes": sorted(doc.ppg.nonprobes),
    }
    if doc.certificate is not None:
        payload["certificate_f"] = [list(e) for e in sorted(doc.certificate.f_edges)]
    if doc.metadata:
        payload["metadata"] = {k: doc.metadata[k] for k in sorted(doc.metadata)}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def parse_sat(text: str) -> SatInstance:
    raw = _load_json(text)
    try:
        return SatInstance.of(
            # the shape check allocates per variable
            _check_size(_int(raw["n_vars"])),
            [tuple(_int(v) for v in c) for c in raw["positive"]],
            [tuple(_int(v) for v in c) for c in raw["negative"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad SAT document: {exc}") from exc


def _certificate_payload(cert: Optional[CutCertificate]):
    if cert is None:
        return None
    return {
        "colours": list(cert.colouring),
        "cut": [list(e) for e in sorted(cert.cut)],
        "size": cert.size,
        "d": cert.d,
        "perfect": cert.perfect,
    }


def _emit_report(args, answer, *, started, certificate=None, branches=0,
                 trace=None, violation=None) -> int:
    report = {
        "command": " ".join(args),
        "answer": "yes" if answer else "no",
        "certificate": _certificate_payload(certificate),
        "branches_explored": branches,
        "case_trace": list(trace or []),
        "wall_time": round(time.perf_counter() - started, 6),
    }
    if violation is not None:
        report["violation"] = violation
    print(json.dumps(report, indent=2))
    return 0 if answer else 1


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    """Read only the graph part of an instance file; reduction inputs are
    plain graphs, so the probe partition is neither required nor checked."""
    n, edges, *_ = _parse_fields(_read(path))
    return build_graph(n, edges)


# problem -> (poly solver, oracle): the solver takes the instance and the
# options and returns a SolveReport, the oracle takes the graph and the
# options and returns a certificate or None.  Both look the functions up by
# module name when called, so a wrapped or patched attribute takes effect.
_PROBLEMS = {
    "dcut": (lambda ppg, o: solve_dcut(ppg, o.d),
             lambda g, o: brute_dcut(g, o.d)),
    "mc": (lambda ppg, o: solve_mmc(ppg, o.s),
           lambda g, o: brute_dcut(g, 1)),
    "mmc": (lambda ppg, o: solve_mmc(ppg, o.s),
            lambda g, o: (brute_mmc(g) or (0, None))[1]),
    "pmc": (lambda ppg, o: solve_pmc(ppg, o.s),
            lambda g, o: brute_pmc(g)),
}


def _check_options(opts) -> None:
    """Before any input is read or drawn, refuse a bad --s or dcut --d."""
    if opts.problem == "dcut":
        _check_d(opts.d)
    if opts.s < 0:
        raise ParseError(f"--s must be >= 0, got {opts.s}")
    _check_pattern_size(f"{opts.s}P1+P4", opts.s + 4)  # C(n, s+4) seed scans


def cmd_solve(opts, argv) -> int:
    started = time.perf_counter()
    _check_options(opts)
    ppg = parse_instance(_read(opts.input)).ppg
    poly, oracle = _PROBLEMS[opts.problem]
    if opts.algo == "poly":
        report = poly(ppg, opts)
        return _emit_report(
            argv, report.answer, certificate=report.certificate,
            branches=report.branches_explored, trace=report.case_trace,
            started=started,
        )
    # brute dispatch is explicit; scale guards surface as errors
    cert = oracle(ppg.graph, opts)
    return _emit_report(
        argv, cert is not None, certificate=cert, trace=["oracle"],
        started=started,
    )


def cmd_verify(opts, argv) -> int:
    started = time.perf_counter()
    # a bad pattern name is refused before the input is read
    patterns = None if opts.pattern is None else (
        split_forbidden_patterns() if opts.pattern == "split"
        else (parse_pattern(opts.pattern),)
    )
    doc = parse_instance(_read(opts.input))
    ppg, cert = doc.ppg, doc.certificate
    if patterns is not None:
        if cert is None:
            raise InvalidInstance("instance carries no certificate_f to verify")
        for pattern in patterns:
            if not verify_probe_certificate(ppg, cert, pattern):
                return _emit_report(
                    argv, False, started=started,
                    violation=f"completed graph contains an induced {pattern.name}",
                )
        return _emit_report(argv, True, started=started)
    if opts.colouring is None:
        raise ParseError("verify needs --pattern or --colouring")
    raw = _load_json(_read(opts.colouring))
    colours = raw.get("colours") if isinstance(raw, dict) else raw
    if not isinstance(colours, list) or not all(c in (RED, BLUE) for c in colours):
        raise ParseError(
            "colouring must be a list of 'red'/'blue' entries, bare or"
            " under \"colours\""
        )
    result = validate_colouring(ppg.graph, list(colours), opts.d, opts.perfect)
    if isinstance(result, CutCertificate):
        return _emit_report(argv, True, certificate=result, started=started)
    return _emit_report(argv, False, started=started, violation=result.reason)


def _bipartition_side(g: Graph, anchor: int) -> frozenset[int]:
    """The vertices at even distance from ``anchor``, by a layered frontier
    BFS: its bipartition class when the graph is connected and bipartite,
    which :func:`bipartite_to_split` checks.  Raises ParseError for an
    anchor that is not a vertex."""
    if not 0 <= anchor < g.n:
        raise ParseError(
            f"--side-of {anchor} is not a vertex of the {g.n}-vertex graph"
        )
    frontier = seen = side = 1 << anchor
    while frontier:
        odd = _nbhd(g.adj_bits, frontier) & ~seen
        seen |= odd
        frontier = _nbhd(g.adj_bits, odd) & ~seen
        seen |= frontier
        side |= frontier
    return frozenset(iter_bits(side))


def _check_output(construction: str, vertices: int, edges: int, pairs: int):
    """Refuse a construction whose output would not parse back (more than
    MAX_VERTICES vertices) or would hold more than MAX_OUTPUT_ITEMS edges
    plus certificate pairs."""
    if vertices > MAX_VERTICES or edges + pairs > MAX_OUTPUT_ITEMS:
        raise ParseError(
            f"{construction} output would have {vertices} vertices, {edges}"
            f" edges and {pairs} certificate pairs, over the output limit"
            f" of {MAX_VERTICES} vertices and {MAX_OUTPUT_ITEMS} edges"
            " plus pairs"
        )


def _check_sat4p1(n_vars: int, p: int, q: int, d: int) -> None:
    """Refuse a bad d, then a sat4p1 output over the limit, from the shape."""
    _check_sat4p1_d(d)
    n_vars = max(n_vars, 0)  # a negative count is left to the shape check
    pad = n_vars * max(d - 3, 0)  # padding per clique
    _check_output(
        "sat4p1",
        p + q + 2 * pad + n_vars,
        # two cliques, clause and padding edges of the variables, and the
        # cross edges between the clique cores
        comb(p + pad, 2) + comb(q + pad, 2) + 3 * (p + q) + 2 * pad
        + p * min(max(d - 2, 0), q),
        comb(n_vars, 2),
    )


def _sat4p1(inst: SatInstance, d: int) -> tuple:
    p, q = len(inst.positive_clauses), len(inst.negative_clauses)
    _check_sat4p1(inst.n_vars, p, q, d)
    ppg, cert = sat_to_4p1(inst, d)
    meta = {
        "family": "sat4p1",
        "d": str(d),
        "n_vars": str(inst.n_vars),
        "brute_force_regime": str(p < 5).lower(),
    }
    return ppg, cert, meta


def _graph_construction(opts) -> tuple:
    g = _read_graph(opts.input)
    m = g.edge_count()
    if opts.construction == "moshi":
        # the two intermediates of an edge share both ends, others at most one
        pairs = sum(comb(2 * g.degree(u), 2) for u in range(g.n)) - m
        _check_output("moshi", g.n + 2 * m, 4 * m, pairs)
        ppg, cert = moshi_double(g)
        return ppg, cert, {"family": "moshi"}
    if opts.construction == "subdivide4":
        _check_output("subdivide4", g.n + 4 * m, 5 * m, g.n)
        ppg, cert = subdivide4(g)
        return ppg, cert, {"family": "subdivide4"}
    side = _bipartition_side(g, opts.side_of)
    _check_output("split", g.n, m, comb(len(side), 2))
    ppg, cert = bipartite_to_split(g, side)
    return ppg, cert, {"family": "split", "side_of": str(opts.side_of)}


def cmd_generate(opts, argv) -> int:
    if opts.family == "random-probe-hfree":
        pattern = parse_pattern(opts.pattern)
        # every connected graph on two or more vertices contains K2
        if not _free(path_pattern(2).graph, pattern):
            raise ParseError(f"no connected {pattern.name}-free graph has n >= 2")
        _check_size(opts.n)
        if comb(max(opts.n, 0), 2) > MAX_OUTPUT_ITEMS:
            raise ParseError(
                f"random-probe-hfree at n={opts.n} draws more vertex pairs per"
                f" attempt than the output limit of {MAX_OUTPUT_ITEMS}"
            )
        ppg, cert = random_probe_hfree(opts.n, pattern, opts.density, opts.seed)
        meta = {
            "family": "random-probe-hfree",
            "n": str(opts.n),
            "pattern": pattern.name,
            "density": str(opts.density),
            "seed": str(opts.seed),
        }
    else:
        # a sample has 2 n_vars / 3 clauses per sign: bound it before sampling
        n_vars = max(opts.n_vars, 0)
        _check_sat4p1(n_vars, 2 * n_vars // 3, 2 * n_vars // 3, opts.d)
        inst = random_sat_instance(opts.n_vars, opts.seed)
        ppg, cert, meta = _sat4p1(inst, opts.d)
        meta["seed"] = str(opts.seed)
    sys.stdout.write(serialize_instance(document_from(ppg, cert, meta)))
    return 0


def cmd_reduce(opts, argv) -> int:
    if opts.source == "sat":
        if opts.construction != "sat4p1":
            raise ParseError("--from sat only supports --construction sat4p1")
        _check_sat4p1_d(opts.d)  # before the input is read
        ppg, cert, meta = _sat4p1(parse_sat(_read(opts.input)), opts.d)
    elif opts.construction == "sat4p1":
        raise ParseError("--construction sat4p1 needs --from sat")
    else:
        ppg, cert, meta = _graph_construction(opts)
    sys.stdout.write(serialize_instance(document_from(ppg, cert, meta)))
    return 0


def cmd_crosscheck(opts, argv) -> int:
    started = time.perf_counter()
    if opts.count < 0:
        raise ParseError(f"--count must be >= 0, got {opts.count}")
    _check_options(opts)  # before the pattern sP1+P4 is built
    _check_scale(max(4, opts.max_n))  # the oracle would refuse the largest draw
    if opts.count == 0:
        print("warning: count=0, trivial pass", file=sys.stderr)
        return _emit_report(argv, True, started=started)
    rng = random.Random(opts.seed)
    pattern = sp1_p4_pattern(opts.s)
    mismatches = []
    agreed = skipped = 0
    for index in range(opts.count):
        n = rng.randint(4, max(4, opts.max_n))
        density = rng.choice([0.6, 0.75, 0.9])
        ppg = None
        for _ in range(50):
            try:
                ppg, cert = random_probe_hfree(
                    n, pattern, density, rng.randrange(1 << 30)
                )
                break
            except GenerationTimeout:
                density = min(1.0, density + 0.1)
        if ppg is None:
            skipped += 1
            continue
        poly_desc, brute_desc = _crosscheck_run(opts, ppg)
        if poly_desc == brute_desc:
            agreed += 1
        else:
            dump_dir = Path(tempfile.mkdtemp(prefix="probecut-crosscheck-"))
            dump = dump_dir / f"mismatch-{index}.json"
            dump.write_text(
                serialize_instance(
                    document_from(ppg, cert, {
                        "index": str(index),
                        "poly": poly_desc,
                        "brute": brute_desc,
                    })
                )
            )
            mismatches.append(str(dump))
    print(
        f"{agreed}/{opts.count} agree on problem={opts.problem}",
        file=sys.stderr,
    )
    if skipped:
        print(f"{skipped} skipped", file=sys.stderr)
    if mismatches:
        for path in mismatches:
            print(f"mismatch dumped: {path}", file=sys.stderr)
        _emit_report(argv, False, started=started,
                     violation=f"{len(mismatches)} mismatches")
        return 3
    if skipped:
        # an instance that was never generated was never checked
        _emit_report(argv, False, started=started,
                     violation=f"{skipped} skipped")
        return 2
    return _emit_report(argv, True, started=started)


def _crosscheck_run(opts, ppg) -> tuple[str, str]:
    """The poly and oracle answers, described as ``size=k`` for mmc and as
    ``yes`` otherwise, or ``no`` without a certificate."""
    poly, oracle = _PROBLEMS[opts.problem]
    return tuple(
        "no" if cert is None
        else f"size={cert.size}" if opts.problem == "mmc" else "yes"
        for cert in (poly(ppg, opts).certificate, oracle(ppg.graph, opts))
    )


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    ``parse_args`` starts every call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="probecut",
        description="d-cut / matching cut workbench for partitioned probe graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="run a solver on an instance file",
        description="Class promises per problem (poly only, never "
                    "re-verified): dcut takes every --d >= 1 and needs a probe "
                    "(P1+P4)-free instance; mc, mmc and pmc need a probe "
                    "(sP1+P4)-free instance with s given by --s.  There is "
                    "no silent fallback between poly and brute.",
    )
    solve.add_argument("--problem", required=True,
                       choices=["dcut", "mc", "pmc", "mmc"])
    solve.add_argument("--d", type=int, default=1)
    solve.add_argument("--algo", required=True, choices=["poly", "brute"],
                       help="poly assumes the promised probe class; "
                            "brute is exhaustive and scale-guarded")
    solve.add_argument("--s", type=int, default=0,
                       help="isolated-vertex count of the promised pattern "
                            "(poly mc/mmc/pmc)")
    solve.add_argument("--input", required=True)

    verify = sub.add_parser("verify", help="check a certificate or colouring")
    verify.add_argument("--input", required=True)
    verify.add_argument("--pattern", default=None,
                        help="pattern name, or 'split' for the split-graph triple")
    verify.add_argument("--colouring", default=None,
                        help="JSON colour list to validate as a d-cut")
    verify.add_argument("--d", type=int, default=1)
    verify.add_argument("--perfect", action="store_true")

    gen = sub.add_parser("generate", help="emit a certified instance document")
    gen.add_argument("--family", required=True,
                     choices=["random-probe-hfree", "sat4p1"])
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--pattern", default="P1+P4")
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--n-vars", dest="n_vars", type=int, default=6)

    red = sub.add_parser("reduce", help="apply a hardness construction to an input")
    red.add_argument("--from", dest="source", required=True,
                     choices=["sat", "graph"])
    red.add_argument("--construction", required=True,
                     choices=["moshi", "subdivide4", "split", "sat4p1"])
    red.add_argument("--input", required=True)
    red.add_argument("--d", type=int, default=2)
    red.add_argument("--side-of", dest="side_of", type=int, default=0)

    cross = sub.add_parser("crosscheck",
                           help="poly vs oracle agreement over random corpora")
    cross.add_argument("--problem", required=True,
                       choices=["dcut", "mc", "pmc", "mmc"])
    cross.add_argument("--d", type=int, default=2)
    cross.add_argument("--s", type=int, default=1)
    cross.add_argument("--count", type=int, required=True)
    cross.add_argument("--max-n", dest="max_n", type=int, default=10)
    cross.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "reduce": cmd_reduce,
    "crosscheck": cmd_crosscheck,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = _HANDLERS[opts.command](opts, argv)
        sys.stdout.flush()
        return code
    except (ProbeCutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: keep the exit flush off the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed by its reader", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
