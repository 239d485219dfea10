"""The three benchmark workloads: seeded inputs, operations and the
correctness checks that run after the timed loop.

A workload's inputs are built round by round; every round has the same
mix of operations on every seed (only the random instances differ), so the
run measures the same mix whatever the seed.  Operations call into
``probecut`` through module attributes looked up at call time, so the
traced run sees the rebound functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import probecut.cli as cli
import probecut.graph as graph
import probecut.oracles as oracles
import probecut.reductions as reductions
from probecut.colouring import CutCertificate, validate_colouring

import corpus
from tracing import case_label

WHY = {
    "solve": "user-facing CLI solve on certified n=24-48 instances: solvers, closure and CLI parsing carry the work, oracles none",
    "reduce-check": "reduction outputs checked against their sources: find_induced proves patterns absent and the oracles decide; no solver runs",
    "crosscheck": "CLI crosscheck at n=11-14: rejection sampling makes many build_graph/find_induced calls on small dense graphs, then 2^(n-1) oracles",
}

# Sizes per round, and rounds per workload, at full scale and at the tiny
# smoke-test scale.  Full scale gives every workload 220-440 distinct
# operations, enough for ten beyond p90 and for the seed to change little,
# and passes short enough to repeat each operation about ten times in a
# 30 s run.
SCALES = {
    "full": {
        "solve_sizes": (24, 32, 48),
        "moshi_sizes": (6, 7, 8),
        "cubic_sizes": (8, 10, 12, 14, 16, 16, 16),
        "sat_vars": (6, 9, 12, 15),
        "cross_sizes": (11, 12, 13, 14),
        "rounds": {"solve": 4, "reduce-check": 20, "crosscheck": 30},
    },
    "smoke": {
        "solve_sizes": (12, 16),
        "moshi_sizes": (6,),
        "cubic_sizes": (8,),
        "sat_vars": (6,),
        "cross_sizes": (5, 6),
        "rounds": {"solve": 1, "reduce-check": 1, "crosscheck": 1},
    },
}


@dataclass
class Op:
    """One closed-loop operation: ``run`` produces an output record that
    ``check`` judges after the timed loop; ``key`` names the input, so
    repeated runs of one input share the expensive part of the check."""

    key: str
    run: Callable[[], Any]


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """An in-process ``probecut`` call returning (exit code, stdout, stderr)."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


class Workload:
    name: str

    def __init__(self, seed: int, workdir: Path, scale: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cfg = SCALES[scale]
        self.round_count = self.cfg["rounds"][self.name]
        self.ops: list[Op] = []
        self.stats: dict[str, int] = {}

    def _add_round(self, ops: list[Op]) -> None:
        self.rng.shuffle(ops)
        self.ops += ops

    def check(self, op: Op, output: Any) -> bool:
        raise NotImplementedError


# -- solve -----------------------------------------------------------------


class Solve(Workload):
    """In-process ``probecut solve --algo poly`` over certified instances.

    Each round holds, per size, two ``cotree`` instances and one of each
    other variant, every instance solved as dcut d=2, dcut d=3 (n <= 32),
    mmc s=1 and pmc s=1.  The two cotree instances make the exhaustive
    cograph-1comp runs about a fifth of the operations, so p90 falls
    inside that group rather than on its edge.
    """

    name = "solve"

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        pattern = graph.sp1_p4_pattern(1)
        self.instances: dict[str, Any] = {}
        self._expected: dict[tuple, bool] = {}
        for r in range(self.round_count):
            ops = []
            for n in self.cfg["solve_sizes"]:
                for variant in corpus.VARIANTS + ("cotree",):
                    ppg, cert = corpus.probe_instance(variant, n, self.rng)
                    if not graph.verify_probe_certificate(ppg, cert, pattern):
                        raise RuntimeError(f"{variant} n={n}: certificate fails")
                    name = f"r{r}-{variant}-n{n}-{len(ops)}"
                    path = workdir / f"{name}.json"
                    doc = cli.document_from(ppg, cert, {"variant": variant})
                    path.write_text(cli.serialize_instance(doc))
                    self.instances[name] = ppg.graph
                    problems = [("dcut", 2), ("dcut", 3), ("mmc", 1), ("pmc", 1)]
                    for problem, k in problems:
                        if problem == "dcut" and k == 3 and n > 32:
                            continue
                        flag = ["--d", str(k)] if problem == "dcut" else ["--s", "1"]
                        argv = ["solve", "--problem", problem, *flag,
                                "--algo", "poly", "--input", str(path)]
                        ops.append(Op(f"{name}|{problem}|{k}", _cli_run(argv)))
            self._add_round(ops)

    def check(self, op, output):
        code, out, _err = output
        name, problem, k = op.key.split("|")
        g = self.instances[name]
        # mmc existence is a 1-cut; pmc is a perfect 1-cut
        d = int(k) if problem == "dcut" else 1
        perfect = problem == "pmc"
        report = json.loads(out)
        yes = report["answer"] == "yes"
        tag = f"case.{case_label(report['case_trace'])}"
        self.stats[tag] = self.stats.get(tag, 0) + 1
        if code != (0 if yes else 1):
            return False
        if yes:
            cert = report["certificate"]
            again = validate_colouring(g, cert["colours"], d, perfect)
            if not isinstance(again, CutCertificate) or again.size != cert["size"]:
                return False
        key = (name, d, perfect)
        if key not in self._expected:
            self._expected[key] = oracles.backtrack_dcut(g, d, perfect) is not None
        return yes == self._expected[key]


# -- reduce-check ------------------------------------------------------------


class ReduceCheck(Workload):
    """Library-level reduction checks in the style of acceptance criteria
    3-5: build the construction, verify its certificate, decide the output
    with ``backtrack_dcut`` and the source with a brute-force oracle.

    A round holds an edge-doubling check per source size and edge
    probability (0.3, 0.5, 0.7, as in the acceptance criterion), one
    4-subdivision per cubic size (three at n = 16, the slowest eighth of a
    round, so that p90 falls inside that group rather than among the
    widely spread mid-size checks) and one SAT gadget per variable count
    and d.  Cubic sources stop at n = 16: ``brute_pmc`` scans 2^(n-1)
    colourings, 81 ms at n = 18 and 345 ms at n = 20, and from n = 18 on
    it would take most of the workload's time from the output-side checks
    (``find_induced`` and ``backtrack_dcut``) that this workload is for.
    """

    name = "reduce-check"

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        claw = graph.star_pattern(3)
        diamond = graph.diamond_pattern()
        four_p1 = graph.independent_pattern(4)
        # op key -> (output graph builder, d, perfect) for the check
        self._cases: dict[str, tuple] = {}
        for r in range(self.round_count):
            ops = []
            for n in self.cfg["moshi_sizes"]:
                for p in (0.3, 0.5, 0.7):
                    g = corpus.connected_graph(n, p, self.rng)
                    self._add(ops, f"r{r}-moshi-n{n}-p{p}", self._moshi(g, claw))
            for n in self.cfg["cubic_sizes"]:
                g = corpus.cubic_graph(n, self.rng)
                self._add(ops, f"r{r}-{len(ops)}-subdivide4-n{n}",
                          self._subdivide(g, claw, diamond))
            for n_vars in self.cfg["sat_vars"]:
                for d in (2, 3):
                    sat_seed = self.rng.randrange(1 << 30)
                    self._add(ops, f"r{r}-sat4p1-v{n_vars}-d{d}",
                              self._sat(n_vars, sat_seed, d, four_p1))
            self._add_round(ops)

    def _add(self, ops, key, case):
        run, *self._cases[key] = case
        ops.append(Op(key, run))

    # Each case is (run, output graph builder, d, perfect); run returns
    # (certificate verified, colouring found on the output or None,
    # answer on the source), small enough to keep for every run.

    @staticmethod
    def _moshi(g, claw):
        def run():
            ppg, cert = reductions.moshi_double(g)
            cert_ok = graph.verify_probe_certificate(ppg, cert, claw)
            found = oracles.backtrack_dcut(ppg.graph, 1)
            source = oracles.brute_dcut(g, 1) is not None
            return cert_ok, found and found.colouring, source
        return run, lambda: reductions.moshi_double(g)[0].graph, 1, False

    @staticmethod
    def _subdivide(g, claw, diamond):
        def run():
            ppg, cert = reductions.subdivide4(g)
            cert_ok = graph.verify_probe_certificate(
                ppg, cert, claw
            ) and graph.verify_probe_certificate(ppg, cert, diamond)
            found = oracles.backtrack_dcut(ppg.graph, 1, require_perfect=True)
            source = oracles.brute_pmc(g) is not None
            return cert_ok, found and found.colouring, source
        return run, lambda: reductions.subdivide4(g)[0].graph, 1, True

    @staticmethod
    def _sat(n_vars, sat_seed, d, four_p1):
        def build():
            inst = reductions.random_sat_instance(n_vars, sat_seed)
            return inst, reductions.sat_to_4p1(inst, d)

        def run():
            inst, (ppg, cert) = build()
            cert_ok = graph.verify_probe_certificate(ppg, cert, four_p1)
            found = oracles.backtrack_dcut(ppg.graph, d)
            source = oracles.brute_sat(inst) is not None
            return cert_ok, found and found.colouring, source
        return run, lambda: build()[1][0].graph, d, False

    def check(self, op, output):
        cert_ok, colouring, source = output
        if not cert_ok or (colouring is not None) != source:
            return False
        if colouring is None:
            return True
        rebuild, d, perfect = self._cases[op.key]
        again = validate_colouring(rebuild(), colouring, d, perfect)
        return isinstance(again, CutCertificate)


# -- crosscheck ----------------------------------------------------------------


class Crosscheck(Workload):
    """In-process ``probecut crosscheck --count 1`` calls, round-robin over
    dcut d=2, dcut d=3, mmc and pmc.

    ``crosscheck`` draws its instance size as the first ``randint(4,
    max_n)`` of ``random.Random(seed)`` and its edge density as the next
    ``choice((0.6, 0.75, 0.9))``.  Each round picks one seed per (size,
    density) pair, so every round has the same mix of both.  At density 0.6
    rejection sampling rarely finds a P1+P4-free graph above n = 14: one
    call at n = 16 took 20 ms to 1.6 s depending on the instance, too
    spread for a steady run, so ``--max-n`` is 14.  Sizes below 11 are left
    out: there a call takes about 1.5 ms, most of it argument parsing, and
    generation and the oracles would no longer carry the workload.
    """

    name = "crosscheck"

    PROBLEMS = (("dcut", "2"), ("dcut", "3"), ("mmc", None), ("pmc", None))
    DENSITIES = (0.6, 0.75, 0.9)

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        sizes = self.cfg["cross_sizes"]
        max_n = max(sizes)
        self.stats["skipped"] = 0
        turn = 0
        for _ in range(self.round_count):
            ops = []
            for n in sizes:
                for density in self.DENSITIES:
                    problem, d = self.PROBLEMS[turn % len(self.PROBLEMS)]
                    turn += 1
                    k = self._seed_for(n, density, max_n)
                    argv = ["crosscheck", "--problem", problem]
                    if d is not None:
                        argv += ["--d", d]
                    argv += ["--count", "1", "--seed", str(k),
                             "--max-n", str(max_n), "--s", "1"]
                    ops.append(Op(f"{problem}{d or ''}-n{n}-p{density}", _cli_run(argv)))
            self._add_round(ops)

    def _seed_for(self, n: int, density: float, max_n: int) -> int:
        while True:
            k = self.rng.randrange(1 << 30)
            draw = random.Random(k)
            if draw.randint(4, max_n) == n and draw.choice(self.DENSITIES) == density:
                return k

    def check(self, op, output):
        code, out, err = output
        agreed = [line for line in err.splitlines() if " agree on problem=" in line]
        if code != 0 or len(agreed) != 1:
            return False
        if agreed[0].split(" ", 1)[0] != "1/1":
            # cmd_crosscheck drops instances it fails to generate and still
            # exits 0; a dropped instance was not checked
            self.stats["skipped"] += 1
            return False
        return json.loads(out)["answer"] == "yes"


WORKLOADS = {cls.name: cls for cls in (Solve, ReduceCheck, Crosscheck)}
