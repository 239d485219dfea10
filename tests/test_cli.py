"""Command-line front door: parsing, round-trips, exit codes, commands."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from probecut import (
    CutCertificate,
    GenerationTimeout,
    InvalidInstance,
    ParseError,
    PartitionedProbeGraph,
    ProbeCertificate,
    SatInstance,
    build_graph,
    parse_pattern,
    UnsupportedD,
    UnsupportedPattern,
    random_probe_hfree,
    sat_to_4p1,
    validate_colouring,
)
from probecut import cli
from probecut.cli import (
    InstanceDocument,
    document_from,
    main,
    parse_instance,
    serialize_instance,
)

K2_JSON = '{"n":2,"edges":[[0,1]],"probes":[0,1],"nonprobes":[]}'

# the UnsupportedD message of the sat4p1 construction, for d < 2
SAT4P1_D = "construction is defined for d >= 2"

EXAMPLE_SAT = {
    "n_vars": 6,
    "positive": [[0, 1, 2], [0, 2, 3], [1, 4, 5], [3, 4, 5]],
    "negative": [[0, 1, 3], [0, 2, 4], [1, 3, 5], [2, 4, 5]],
}

K2_TEXT = """\
# a single edge, both ends probes
e 0 1
probe 0
probe 1
"""


def _ppg(n, edges, probes):
    """The instance on ``edges`` whose vertices outside ``probes`` are the
    non-probes."""
    return PartitionedProbeGraph(
        build_graph(n, edges), frozenset(probes),
        frozenset(range(n)) - frozenset(probes),
    )


class TestParseInstance:
    def test_json_k2(self):
        doc = parse_instance(K2_JSON)
        assert doc.ppg.graph.n == 2 and doc.ppg.graph.edges() == [(0, 1)]
        assert doc.ppg.probes == {0, 1} and doc.ppg.nonprobes == set()
        assert doc.certificate is None and doc.metadata == {}

    def test_text_k2(self):
        doc = parse_instance(K2_TEXT)
        assert doc.ppg.graph.n == 2 and doc.ppg.graph.edges() == [(0, 1)]
        assert doc.ppg.probes == {0, 1} and doc.ppg.nonprobes == set()
        assert doc.certificate is None and doc.metadata == {}

    def test_nonprobe_edge_rejected(self):
        bad = '{"n":2,"edges":[[0,1]],"probes":[],"nonprobes":[0,1]}'
        with pytest.raises(InvalidInstance):
            parse_instance(bad)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_instance('{"n": 2,')

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_instance("edge 0 1\n")

    def test_duplicate_edges_collapse(self):
        doc = parse_instance('{"n":2,"edges":[[0,1],[1,0]],"probes":[0,1]}')
        assert doc.ppg.graph.edges() == [(0, 1)]

    def test_text_unmarked_vertices_are_nonprobes(self):
        doc = parse_instance("e 0 1\ne 1 2\nprobe 1\n")
        assert doc.ppg.probes == {1} and doc.ppg.nonprobes == {0, 2}

    def test_round_trip(self):
        doc = parse_instance(K2_JSON)
        again = parse_instance(serialize_instance(doc))
        assert again == doc

    def test_round_trip_with_certificate(self):
        docs = [InstanceDocument(
            _ppg(3, [(0, 1), (1, 2)], [1]),
            ProbeCertificate.of([(2, 0)]),
            {"family": "test"},
        )]
        pattern = parse_pattern("P1+P4")
        for seed in range(12):
            n = 6 + seed % 5
            ppg, cert = random_probe_hfree(n, pattern, 0.5, seed)
            docs.append(document_from(ppg, cert, {
                "family": "random-probe-hfree", "seed": str(seed),
            }))
        assert sum(len(doc.certificate.f_edges) > 0 for doc in docs) >= 8
        for doc in docs:
            text = serialize_instance(doc)
            again = parse_instance(text)
            assert again == doc
            assert serialize_instance(again) == text

    def test_serialization_sorts_edges(self):
        doc = InstanceDocument(_ppg(3, [(1, 2), (0, 1)], [0, 1, 2]))
        assert json.loads(serialize_instance(doc))["edges"] == [[0, 1], [1, 2]]

    def test_serialization_byte_stable(self):
        doc = InstanceDocument(
            _ppg(3, [(1, 2), (0, 1)], [0, 2]), None, {"b": "2", "a": "1"},
        )
        shuffled = InstanceDocument(
            _ppg(3, [(0, 1), (2, 1)], [2, 0]), None, {"a": "1", "b": "2"},
        )
        assert serialize_instance(doc) == serialize_instance(shuffled)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolveCommand:
    def test_mmc_poly_p4(self, tmp_path, capsys):
        path = _write(
            tmp_path, "p4.json",
            '{"n":4,"edges":[[0,1],[1,2],[2,3]],"probes":[0,1,2,3]}',
        )
        code = main(["solve", "--problem", "mmc", "--algo", "poly",
                     "--input", path])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["answer"] == "yes"
        assert report["certificate"]["size"] == 2

    def test_dcut_brute_k5_no(self, tmp_path, capsys):
        edges = [[u, v] for u in range(5) for v in range(u + 1, 5)]
        path = _write(
            tmp_path, "k5.json",
            json.dumps({"n": 5, "edges": edges, "probes": list(range(5))}),
        )
        code = main(["solve", "--problem", "dcut", "--d", "2",
                     "--algo", "brute", "--input", path])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["answer"] == "no"

    def test_dcut_poly_d1_answers(self, tmp_path, capsys):
        """The poly solver decides d = 1 with a certificate at d = 1."""
        path = _write(tmp_path, "k2.json", K2_JSON)
        code = main(["solve", "--problem", "dcut", "--d", "1",
                     "--algo", "poly", "--input", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["answer"] == "yes"
        assert report["certificate"]["d"] == 1

    def test_dcut_brute_d1_answers(self, tmp_path, capsys):
        """The oracle decides d = 1 as the poly solver does."""
        path = _write(tmp_path, "k2.json", K2_JSON)
        code = main(["solve", "--problem", "dcut", "--d", "1",
                     "--algo", "brute", "--input", path])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["answer"] == "yes"

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_dcut_brute_d_below_one_is_usage_error(self, tmp_path, capsys, d):
        """The oracle refuses d < 1 as the poly path does, instead of
        answering no."""
        path = _write(tmp_path, "k2.json", K2_JSON)
        code = main(["solve", "--problem", "dcut", "--d", d,
                     "--algo", "brute", "--input", path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be >= 1\n"

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_dcut_poly_d_below_one_is_usage_error(self, tmp_path, capsys, d):
        """The solver names the bound d >= 1 instead of pointing d < 1 at
        the matching-cut solvers."""
        path = _write(tmp_path, "k2.json", K2_JSON)
        code = main(["solve", "--problem", "dcut", "--d", d,
                     "--algo", "poly", "--input", path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be >= 1\n"

    def test_pmc_brute_p4(self, tmp_path, capsys):
        path = _write(
            tmp_path, "p4.json",
            '{"n":4,"edges":[[0,1],[1,2],[2,3]],"probes":[0,1,2,3]}',
        )
        code = main(["solve", "--problem", "pmc", "--algo", "brute",
                     "--input", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["perfect"] is True

    def test_report_certificate_revalidates(self, tmp_path, capsys):
        path = _write(
            tmp_path, "c6.json",
            json.dumps({
                "n": 6,
                "edges": [[i, (i + 1) % 6] for i in range(6)],
                "probes": list(range(6)),
            }),
        )
        assert main(["solve", "--problem", "mc", "--algo", "poly",
                     "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        col_path = _write(
            tmp_path, "col.json",
            json.dumps({"colours": report["certificate"]["colours"]}),
        )
        assert main(["verify", "--input", path, "--colouring", col_path,
                     "--d", "1"]) == 0

    def test_dcut_poly_deep_cograph_probe_side(self, tmp_path, capsys):
        # probe side: a threshold graph on 449 vertices (vertex i joined to
        # every earlier vertex when i is odd), a cotree of depth 448; the
        # one non-probe is complete to it, so the instance is P4-free
        n = 450
        edges = [(j, i) for i in range(1, n - 1, 2) for j in range(i)]
        edges += [(v, n - 1) for v in range(n - 1)]
        path = _write(tmp_path, "deep.json", json.dumps({
            "n": n, "edges": edges, "probes": list(range(n - 1)),
            "nonprobes": [n - 1],
        }))
        assert sys.getrecursionlimit() <= 1000  # the default limit
        began = time.perf_counter()
        code = main(["solve", "--problem", "dcut", "--d", "2",
                     "--algo", "poly", "--input", path])
        assert time.perf_counter() - began < 2.0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code == 0
        report = json.loads(captured.out)
        again = validate_colouring(
            build_graph(n, edges), report["certificate"]["colours"], 2
        )
        assert isinstance(again, CutCertificate)


    @pytest.mark.parametrize("problem, algo, d, s, message", [
        # 5P1+P4 has 9 vertices; the seed scan would try C(n, 9) sets
        ("mmc", "poly", "2", "5", "pattern 5P1+P4 has 9 > 8 vertices"),
        # dcut never reads --s, and brute mmc runs no seed scan
        ("dcut", "poly", "2", "-1", "--s must be >= 0, got -1"),
        ("mmc", "brute", "2", "-1", "--s must be >= 0, got -1"),
        ("dcut", "poly", "0", "0", "d must be >= 1"),
        ("dcut", "brute", "-1", "0", "d must be >= 1"),
        ("dcut", "brute", "0", "0", "d must be >= 1"),
    ], ids=["mmc-poly-s5", "dcut-poly-s-1", "mmc-brute-s-1", "dcut-poly-d0",
            "dcut-brute-d-1", "dcut-brute-d0"])
    def test_pattern_over_limit_refused_before_reading(
        self, tmp_path, capsys, monkeypatch, problem, algo, d, s, message
    ):
        def never(path):
            raise AssertionError("read the input of a refused solve")

        monkeypatch.setattr(cli, "_read", never)
        began = time.perf_counter()
        code = main(["solve", "--problem", problem, "--d", d, "--algo", algo,
                     "--s", s, "--input", str(tmp_path / "p40.json")])
        elapsed = time.perf_counter() - began
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert elapsed < 1.0


class TestClosedOutput:
    """A reader that closes stdout early gets exit 2 and one error line,
    never a traceback."""

    MESSAGE = "error: output closed by its reader\n"

    def test_in_process(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        path = _write(tmp_path, "k2.json", K2_JSON)
        with open(tmp_path / "out", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
            code = main(["solve", "--problem", "mmc", "--algo", "poly",
                         "--input", path])
        assert code == 2
        assert capsys.readouterr().err == self.MESSAGE

    def test_pipe_closed_by_reader(self, tmp_path):
        # the report of a 8,001-vertex star (about 110 KiB) overfills the
        # 64 KiB pipe buffer, so the writer is still writing when the
        # reader, after one byte, closes the pipe
        path = _write(tmp_path, "star.json", json.dumps({
            "n": 8001, "edges": [[0, v] for v in range(1, 8001)],
            "probes": [0], "nonprobes": list(range(1, 8001)),
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "probecut.cli", "solve", "--problem",
             "dcut", "--d", "2", "--algo", "poly", "--input", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == self.MESSAGE


class TestVerifyCommand:
    def test_certificate_pattern(self, tmp_path, capsys):
        path = _write(
            tmp_path, "tri.json",
            json.dumps({
                "n": 3, "edges": [[0, 1], [1, 2]],
                "probes": [1], "nonprobes": [0, 2],
                "certificate_f": [[0, 2]],
            }),
        )
        assert main(["verify", "--input", path, "--pattern", "2P2"]) == 0
        assert main(["verify", "--input", path, "--pattern", "split"]) == 0

    def test_bad_colouring_names_vertex(self, tmp_path, capsys):
        path = _write(
            tmp_path, "c3.json",
            json.dumps({
                "n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                "probes": [0, 1, 2],
            }),
        )
        col = _write(tmp_path, "col.json", '["red","blue","blue"]')
        code = main(["verify", "--input", path, "--colouring", col, "--d", "1"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert "vertex 0" in report["violation"]

    def test_perfect_flag_flags_exact_count(self, tmp_path, capsys):
        path = _write(
            tmp_path, "p3.json",
            json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "probes": [0, 1, 2]}),
        )
        col = _write(tmp_path, "col.json", '["red","blue","blue"]')
        assert main(["verify", "--input", path, "--colouring", col,
                     "--d", "1"]) == 0
        capsys.readouterr()
        code = main(["verify", "--input", path, "--colouring", col,
                     "--d", "1", "--perfect"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        # a valid non-perfect cut fails the perfect check with a named vertex
        assert "opposite" in report["violation"]


def _refused(capsys, argv, message):
    """The command exits 2 with one error line and nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_P3_NONPROBE_ENDS = {"n": 3, "edges": [[0, 1], [1, 2]], "probes": [1],
                     "nonprobes": [0, 2]}


class TestRefusals:
    @pytest.mark.parametrize("text, exc, message", [
        (json.dumps({**_P3_NONPROBE_ENDS, "certificate_f": [[0, 1]]}),
         InvalidInstance, "certificate pair (0, 1) leaves the non-probe side"),
        (json.dumps({**_P3_NONPROBE_ENDS, "certificate_f": [[2, 2]]}),
         InvalidInstance, "certificate pair (2, 2) is a loop"),
        ("e 0 x\n", ParseError,
         "line 1: invalid literal for int() with base 10: 'x'"),
        ("e 0 1\nprobe 0\nnonprobe 0\n", InvalidInstance,
         "probes and nonprobes overlap"),
        ("n 2\ne 0 1\nprobe 0\nnonprobe 5\n", InvalidInstance,
         "probes and nonprobes do not cover V"),
        ('{"n": -1}', InvalidInstance,
         "vertex count must be non-negative, got -1"),
        ('{"n": 3, "edges": [[0, 1], [1, 2]], "probes": [1], "nonprobes": [0]}',
         InvalidInstance, "probes and nonprobes do not cover V"),
    ], ids=["certificate-outside", "certificate-loop", "text-bad-token", "text-probe-and-nonprobe",
            "text-nonprobe-past-n", "negative-n", "uncovered"])
    def test_bad_instance(self, tmp_path, capsys, text, exc, message):
        with pytest.raises(exc) as info:
            parse_instance(text)
        assert str(info.value) == message
        path = _write(tmp_path, "inst.txt", text)
        _refused(capsys, ["solve", "--problem", "dcut", "--d", "2",
                          "--algo", "poly", "--input", path], message)

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--input", "{k2}"], "verify needs --pattern or --colouring"),
        (["verify", "--input", "{k2}", "--colouring", "{colours}", "--d", "0"],
         "d must be >= 1"),
        (["reduce", "--from", "graph", "--construction", "sat4p1",
          "--input", "{k2}"], "--construction sat4p1 needs --from sat"),
        (["reduce", "--from", "graph", "--construction", "subdivide4",
          "--input", "{two_k4}"], "subdivision needs a connected input"),
        (["generate", "--family", "random-probe-hfree", "--n", "1"],
         "need n >= 2"),
        (["generate", "--family", "random-probe-hfree", "--density", "1.5"],
         "density must be a probability"),
        (["reduce", "--from", "graph", "--construction", "split",
          "--input", "{c5}"],
         "edge (2, 3) does not cross the given bipartition"),
        (["reduce", "--from", "graph", "--construction", "split",
          "--input", "{two_k4}"], "split construction needs a connected input"),
    ], ids=["verify-no-mode", "verify-d0", "sat4p1-from-graph",
            "subdivide4-disconnected", "generate-n1", "generate-density",
            "split-odd-cycle", "split-disconnected"])
    def test_bad_command(self, tmp_path, capsys, argv, message):
        two_k4 = [[u, v] for base in (0, 4) for u in range(base, base + 4)
                  for v in range(u + 1, base + 4)]
        files = {
            "{k2}": _write(tmp_path, "k2.json", K2_JSON),
            "{colours}": _write(tmp_path, "colours.json", '["red", "blue"]'),
            "{two_k4}": _write(tmp_path, "two_k4.json", json.dumps(
                {"n": 8, "edges": two_k4, "probes": list(range(8))})),
            "{c5}": _write(tmp_path, "c5.txt", "".join(
                f"e {v} {(v + 1) % 5}\n" for v in range(5))),
        }
        _refused(capsys, [files.get(arg, arg) for arg in argv], message)

    def test_sat_sampler_timeout(self, capsys, monkeypatch):
        monkeypatch.setattr("probecut.reductions._SAT_ATTEMPTS", 0)
        _refused(capsys, ["generate", "--family", "sat4p1"],
                 "no valid-shape SAT instance with 6 variables in 0 draws")

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("command", ["verify", "generate"])
    def test_short_cycle_pattern_refused(self, capsys, monkeypatch, command, r):
        """C0, C1 and C2 are no cycles: both commands refuse the name
        before they read an input or draw a sample."""
        def never(*args, **kwargs):
            raise AssertionError("read or drew past a refused pattern")

        monkeypatch.setattr(cli, "_read", never)
        monkeypatch.setattr(cli, "random_probe_hfree", never)
        argv = (["verify", "--input", "missing.json"] if command == "verify"
                else ["generate", "--family", "random-probe-hfree"])
        _refused(capsys, argv + ["--pattern", f"C{r}"],
                 f"cycle C{r} needs at least 3 vertices")

    @pytest.mark.parametrize("name", ["P0", "0P1", "P1", "1P1", "K1,0",
                                      "P2", "K1,1"])
    def test_pattern_in_k2_refused_before_drawing(
        self, capsys, monkeypatch, name
    ):
        """Every connected graph on two or more vertices contains K2, and
        so every pattern inside K2: generate refuses these before a draw."""
        def never(*args, **kwargs):
            raise AssertionError("drew for a pattern no draw can avoid")

        monkeypatch.setattr(cli, "random_probe_hfree", never)
        _refused(capsys, ["generate", "--family", "random-probe-hfree",
                          "--pattern", name],
                 f"no connected {name}-free graph has n >= 2")

    @pytest.mark.parametrize("name", ["2P1", "P3"])
    def test_pattern_outside_k2_generates(self, capsys, name):
        """Density 1 draws a complete graph, which avoids 2P1 and P3."""
        assert main(["generate", "--family", "random-probe-hfree",
                     "--pattern", name, "--n", "5", "--density", "1"]) == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.metadata["pattern"] == name

    def test_verify_pattern_no(self, tmp_path, capsys):
        """An empty certificate leaves the induced P3 in place: the answer
        is no (exit 1) and the report names the pattern."""
        path = _write(tmp_path, "p3.json", json.dumps(
            {**_P3_NONPROBE_ENDS, "certificate_f": []}))
        code = main(["verify", "--input", path, "--pattern", "P3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["answer"] == "no"
        assert report["violation"] == "completed graph contains an induced P3"


class TestGenerateCommands:
    def test_generate_moshi_from_k2(self, tmp_path, capsys):
        path = _write(tmp_path, "k2.json", K2_JSON)
        assert main(["reduce", "--from", "graph", "--construction", "moshi",
                     "--input", path]) == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.ppg.graph.n == 4 and len(doc.certificate.f_edges) == 1

    def test_generate_sat4p1_example_size(self, tmp_path, capsys):
        sat = _write(tmp_path, "inst.json", json.dumps(EXAMPLE_SAT))
        code = main(["reduce", "--from", "sat", "--construction", "sat4p1",
                     "--input", sat, "--d", "2"])
        assert code == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.ppg.graph.n == 14
        assert doc.metadata["brute_force_regime"] == "true"

    def test_generate_random_verifies(self, tmp_path, capsys):
        code = main(["generate", "--family", "random-probe-hfree",
                     "--n", "8", "--pattern", "P1+P4", "--density", "0.5",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        doc_path = _write(tmp_path, "gen.json", out)
        assert main(["verify", "--input", doc_path,
                     "--pattern", "P1+P4"]) == 0
        doc = parse_instance(out)
        assert doc.metadata["seed"] == "1"

    def test_generate_subdivide4(self, tmp_path, capsys):
        k4 = json.dumps({
            "n": 4,
            "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)],
            "probes": [0, 1, 2, 3],
        })
        path = _write(tmp_path, "k4.json", k4)
        assert main(["reduce", "--from", "graph", "--construction",
                     "subdivide4", "--input", path]) == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.ppg.graph.n == 28 and len(doc.certificate.f_edges) == 4

    def test_generate_split(self, tmp_path, capsys):
        p3 = json.dumps({
            "n": 3, "edges": [[0, 1], [1, 2]], "probes": [0, 1, 2],
        })
        path = _write(tmp_path, "p3.json", p3)
        assert main(["reduce", "--from", "graph", "--construction", "split",
                     "--input", path]) == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.certificate == ProbeCertificate.of([(0, 2)])

    def test_generate_oversized_n_is_parse_error(self, capsys):
        began = time.perf_counter()
        code = main(["generate", "--family", "random-probe-hfree",
                     "--n", "1000000000"])
        assert time.perf_counter() - began < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size limit" in err

    def test_reduce_requires_matching_source(self, tmp_path):
        path = _write(tmp_path, "k2.json", K2_JSON)
        assert main(["reduce", "--from", "sat", "--construction", "moshi",
                     "--input", path]) == 2

    def test_reduce_accepts_plain_graph_text(self, tmp_path, capsys):
        # reduction inputs are plain graphs; no probe marking needed
        path = _write(tmp_path, "c6.txt",
                      "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 0\n")
        code = main(["reduce", "--from", "graph", "--construction", "split",
                     "--input", path, "--side-of", "1"])
        assert code == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.ppg.nonprobes == {1, 3, 5}

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_sat4p1_d_below_two_refused_before_sampling(
        self, capsys, monkeypatch, d
    ):
        """generate refuses the construction's d before it draws the SAT
        instance, with the construction's own message."""
        def never(*args, **kwargs):
            raise AssertionError("sampled for a refused d")

        example = SatInstance.of(
            6, EXAMPLE_SAT["positive"], EXAMPLE_SAT["negative"]
        )
        with pytest.raises(UnsupportedD) as info:
            sat_to_4p1(example, int(d))
        assert str(info.value) == SAT4P1_D
        monkeypatch.setattr(cli, "random_sat_instance", never)
        _refused(capsys, ["generate", "--family", "sat4p1", "--d", d], SAT4P1_D)

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_sat4p1_d_below_two_refused_before_reading(
        self, tmp_path, capsys, monkeypatch, d
    ):
        """reduce refuses the construction's d before it reads the input,
        so a missing file is not what it reports."""
        def never(path):
            raise AssertionError("read the input of a refused reduce")

        monkeypatch.setattr(cli, "_read", never)
        _refused(capsys, ["reduce", "--from", "sat", "--construction",
                          "sat4p1", "--d", d, "--input",
                          str(tmp_path / "missing.json")], SAT4P1_D)


class TestCrosscheck:
    def test_small_run_passes(self, capsys):
        code = main(["crosscheck", "--problem", "dcut", "--d", "2",
                     "--count", "6", "--max-n", "8", "--seed", "7"])
        assert code == 0
        err = capsys.readouterr().err
        assert "agree" in err

    def test_mmc_run(self, capsys):
        code = main(["crosscheck", "--problem", "mmc", "--s", "1",
                     "--count", "5", "--max-n", "8", "--seed", "3"])
        assert code == 0

    @pytest.mark.parametrize("problem", ["mc", "pmc"])
    def test_mc_and_pmc_runs(self, capsys, problem):
        code = main(["crosscheck", "--problem", problem, "--s", "1",
                     "--count", "4", "--max-n", "8", "--seed", "3"])
        assert code == 0
        assert f"4/4 agree on problem={problem}" in capsys.readouterr().err

    def test_mismatch_is_dumped(self, capsys, monkeypatch, tmp_path):
        # an oracle that answers the opposite of the real one disagrees
        # with the solver on every instance
        real = cli.brute_dcut

        def flipped(g, d):
            return None if real(g, d) is not None else "flipped"

        monkeypatch.setattr(cli, "brute_dcut", flipped)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code = main(["crosscheck", "--problem", "dcut", "--d", "2",
                     "--count", "2", "--max-n", "8", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["violation"] == "2 mismatches"
        dumps = [
            line.removeprefix("mismatch dumped: ")
            for line in captured.err.splitlines()
            if line.startswith("mismatch dumped: ")
        ]
        assert len(dumps) == 2
        for path in map(Path, dumps):
            assert tmp_path in path.parents
            meta = parse_instance(path.read_text()).metadata
            assert {meta["poly"], meta["brute"]} == {"yes", "no"}

    def test_dcut_d_zero_is_usage_error(self, capsys, monkeypatch):
        # refused before any instance is drawn
        def never(*args, **kwargs):
            raise AssertionError("generated for a refused d")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", never)
        code = main(["crosscheck", "--problem", "dcut", "--d", "0",
                     "--count", "1", "--max-n", "6", "--seed", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be >= 1\n"

    def test_dcut_d_one_agrees(self, capsys, monkeypatch):
        """crosscheck runs the poly solver at d = 1 and agrees with the
        oracle on every instance."""
        ds = []
        solve_dcut = cli.solve_dcut

        def recorded(ppg, d):
            ds.append(d)
            return solve_dcut(ppg, d)

        monkeypatch.setattr(cli, "solve_dcut", recorded)
        code = main(["crosscheck", "--problem", "dcut", "--d", "1",
                     "--count", "20", "--max-n", "10", "--seed", "1"])
        assert code == 0
        assert ds == [1] * 20
        assert "20/20 agree on problem=dcut" in capsys.readouterr().err

    def test_count_zero_warns(self, capsys):
        code = main(["crosscheck", "--problem", "pmc", "--count", "0",
                     "--max-n", "6", "--seed", "1"])
        assert code == 0
        assert "trivial pass" in capsys.readouterr().err

    def test_negative_count_is_parse_error(self, capsys):
        code = main(["crosscheck", "--problem", "dcut", "--count", "-3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--count" in err

    @pytest.mark.parametrize("env, max_n, limit", [
        (None, "2000", 24), ("5", "8", 5),
    ], ids=["default-limit", "env-limit"])
    def test_oversized_draw_is_refused_before_generation(
        self, capsys, monkeypatch, env, max_n, limit
    ):
        def never(*args, **kwargs):
            raise AssertionError("generated an instance the oracle refuses")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", never)
        if env is None:
            monkeypatch.delenv("PROBECUT_ORACLE_MAX_N", raising=False)
        else:
            monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", env)
        code = main(["crosscheck", "--problem", "dcut", "--count", "1",
                     "--max-n", max_n, "--seed", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n=")
        assert f"exceeds oracle limit {limit}" in err

    def test_max_n_over_limit_is_refused_whatever_the_draw(
        self, capsys, monkeypatch
    ):
        # seed 3 draws sizes within the limit for its first five instances,
        # so only a check on --max-n itself refuses before any generation
        def never(*args, **kwargs):
            raise AssertionError("generated before refusing --max-n")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", never)
        monkeypatch.delenv("PROBECUT_ORACLE_MAX_N", raising=False)
        start = time.perf_counter()
        code = main(["crosscheck", "--problem", "dcut", "--max-n", "26",
                     "--count", "40", "--seed", "3"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=26 exceeds oracle limit 24\n"

    @pytest.mark.parametrize("value", ["abc", " ", "1e3", "-1"])
    def test_bad_oracle_limit_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PROBECUT_ORACLE_MAX_N", value)
        code = main(["crosscheck", "--problem", "dcut", "--count", "1",
                     "--max-n", "8", "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: PROBECUT_ORACLE_MAX_N must be a non-negative integer,"
            f" got {value!r}\n"
        )

    def test_unsupported_pattern_is_named(self, capsys, monkeypatch):
        # 5P1+P4 has 9 vertices: refused once, before any generation,
        # not counted as three skipped instances
        def never(*args, **kwargs):
            raise AssertionError("generated for a pattern over the limit")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", never)
        code = main(["crosscheck", "--problem", "dcut", "--s", "5",
                     "--count", "3", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: pattern 5P1+P4 has 9 > 8 vertices\n"
        assert captured.out == ""

    def test_huge_s_refused_before_building(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built a pattern over the limit")

        monkeypatch.setattr("probecut.graph.build_graph", never)
        code = main(["crosscheck", "--problem", "mmc", "--s", "100000",
                     "--count", "1"])
        assert code == 2
        assert "100004 > 8 vertices" in capsys.readouterr().err

    def test_negative_s_is_parse_error(self, capsys):
        code = main(["crosscheck", "--problem", "mmc", "--s", "-1",
                     "--count", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: --s must be >= 0, got -1\n"

    def test_only_generation_timeouts_are_retried(self, capsys, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise UnsupportedPattern("pattern search refused")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", broken)
        code = main(["crosscheck", "--problem", "dcut", "--count", "2",
                     "--max-n", "6", "--seed", "1"])
        assert code == 2 and len(calls) == 1
        assert capsys.readouterr().err == "error: pattern search refused\n"

    def test_generation_failure_is_reported(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise GenerationTimeout("no instance")

        monkeypatch.setattr("probecut.cli.random_probe_hfree", fail)
        code = main(["crosscheck", "--problem", "dcut", "--count", "2",
                     "--max-n", "6", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "0/2 agree on problem=dcut", "2 skipped",
        ]
        report = json.loads(captured.out)
        assert report["answer"] == "no"
        assert report["violation"] == "2 skipped"


_VERIFY = ["verify", "--input", "inst", "--pattern", "P4"]
_VERIFY_COLOURING = ["verify", "--input", "inst", "--colouring", "col"]
_SPLIT = ["reduce", "--from", "graph", "--construction", "split",
          "--input", "inst"]
_SAT4P1 = ["reduce", "--from", "sat", "--construction", "sat4p1",
           "--input", "inst"]
_MOSHI = ["reduce", "--from", "graph", "--construction", "moshi",
          "--input", "inst"]
P4_JSON = '{"n":4,"edges":[[0,1],[1,2],[2,3]],"probes":[0,1,2,3]}'


def _star_json(leaves):
    return json.dumps({"n": leaves + 1,
                       "edges": [[0, v] for v in range(1, leaves + 1)]})


class TestExitCodes:
    @pytest.mark.parametrize("argv, files, message", [
        (_VERIFY,
         {"inst": '{"n":2,"edges":[[0,1]],"probes":[0,1],"metadata":[1]}'},
         "bad instance document"),
        (_VERIFY_COLOURING,
         {"inst": K2_JSON, "col": '{"colors": ["red", "blue"]}'},
         "colouring must be"),
        (_VERIFY_COLOURING, {"inst": K2_JSON, "col": '{"colours": 5}'},
         "colouring must be"),
        (_VERIFY, {"inst": '{"n": Infinity, "probes": [0]}'},
         "bad instance document"),
        (_VERIFY, {"inst": '{"n": 2, "edges": [[0, -Infinity]]}'},
         "bad instance document"),
        (_VERIFY, {"inst": '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"},
         "bad JSON"),
        (_VERIFY_COLOURING,
         {"inst": K2_JSON, "col": "[" * 100_000 + "]" * 100_000}, "bad JSON"),
        (_SPLIT + ["--side-of", "99"], {"inst": P4_JSON}, "not a vertex"),
        (_SPLIT + ["--side-of", "-1"], {"inst": P4_JSON}, "not a vertex"),
        # read with int() these name a different instance, and answer yes
        (["solve", "--problem", "mc", "--algo", "brute", "--input", "inst"],
         {"inst": '{"n": 2.9, "edges": [[0, 1.7]], "probes": [true],'
                  ' "nonprobes": [false]}'},
         "bad instance document"),
        (_SAT4P1, {"inst": json.dumps({**EXAMPLE_SAT, "n_vars": 6.0})},
         "bad SAT document"),
        (_SAT4P1,
         {"inst": json.dumps({**EXAMPLE_SAT, "positive": [
             [0, True, 2], [0, 2, 3], [1, 4, 5], [3, 4, 5]
         ]})},
         "bad SAT document"),
        # a negative count is the shape check's, not the size prediction's
        (_SAT4P1 + ["--d", "5"],
         {"inst": '{"n_vars": -3, "positive": [], "negative": []}'},
         "error: instance has no variables; positive clause count"
         " inconsistent with variable count; negative clause count"
         " inconsistent with variable count\n"),
        # constructions whose output is quadratic in the input
        (_SAT4P1 + ["--d", "200"], {"inst": json.dumps(EXAMPLE_SAT)},
         "output limit"),
        (_SPLIT + ["--side-of", "1"], {"inst": _star_json(2000)},
         "output limit"),
        (_MOSHI, {"inst": _star_json(1000)}, "output limit"),
        # bounded from --n-vars before any sampling
        (["generate", "--family", "sat4p1", "--n-vars", "3000000"], {},
         "output limit"),
        # bounded from --n before the first attempt draws its pairs
        (["generate", "--family", "random-probe-hfree", "--n", "1415"], {},
         "output limit of 1000000"),
        (["generate", "--family", "random-probe-hfree", "--n", "100000"], {},
         "output limit of 1000000"),
    ], ids=["metadata-list", "colouring-without-colours", "colours-not-list",
            "infinite-n", "infinite-vertex", "deep-instance", "deep-colouring",
            "side-of-above-n", "side-of-negative", "float-and-bool-instance",
            "float-sat-n-vars", "bool-sat-variable", "sat4p1-negative-n-vars",
            "sat4p1-d200",
            "split-star-2001", "moshi-star-1001", "sat4p1-n-vars-3000000",
            "random-n-1415", "random-n-100000"])
    def test_malformed_input_is_parse_error(
        self, tmp_path, capsys, argv, files, message
    ):
        argv = [_write(tmp_path, a, files[a]) if a in files else a
                for a in argv]
        began = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - began < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--family", "moshi"], "invalid choice"),
        (["generate", "--family", "random-probe-hfree", "--input", "inst"],
         "unrecognized arguments: --input"),
        (["generate", "--family", "sat4p1", "--side-of", "1"],
         "unrecognized arguments: --side-of"),
        (_MOSHI + ["--seed", "1"], "unrecognized arguments: --seed"),
        (_MOSHI + ["--n-vars", "9"], "unrecognized arguments: --n-vars"),
    ], ids=["generate-moshi", "generate-input", "generate-side-of",
            "reduce-seed", "reduce-n-vars"])
    def test_removed_option_is_usage_error(
        self, tmp_path, capsys, argv, message
    ):
        # the constructions run from a file through reduce only
        argv = [_write(tmp_path, a, P4_JSON) if a == "inst" else a
                for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize("name, instance", [
        ("huge.json", '{"n": 1000000000, "edges": [[0, 1]], "probes": [0, 1]}'),
        ("huge.txt", "n 1000000000\ne 0 1\nprobe 0\nprobe 1\n"),
        ("far-vertex.txt", "e 0 999999999\nprobe 0\n"),
    ], ids=["json", "text", "text-implied"])
    def test_oversized_instance_is_parse_error(
        self, tmp_path, capsys, name, instance
    ):
        path = _write(tmp_path, name, instance)
        began = time.perf_counter()
        code = main(["solve", "--problem", "mc", "--algo", "poly",
                     "--input", path])
        assert time.perf_counter() - began < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size limit" in err
        assert str(cli.MAX_VERTICES) in err

    def test_construction_below_output_limit_builds(self, tmp_path, capsys):
        sat = _write(tmp_path, "inst.json", json.dumps(EXAMPLE_SAT))
        assert main(_SAT4P1[:-1] + [sat, "--d", "50"]) == 0
        doc = parse_instance(capsys.readouterr().out)
        assert doc.ppg.graph.n == 2 * (4 + 6 * 47) + 6

    def test_instance_at_size_limit_parses(self):
        # unmarked vertices are non-probes, so this is a valid instance
        doc = parse_instance(f"n {cli.MAX_VERTICES}\nprobe 0\n")
        assert doc.ppg.graph.n == cli.MAX_VERTICES

    def test_missing_file_is_usage_error(self):
        assert main(["solve", "--problem", "mc", "--algo", "brute",
                     "--input", "/nonexistent.json"]) == 2

    def test_bad_arguments(self):
        assert main(["solve", "--problem", "nope", "--algo", "poly",
                     "--input", "x"]) == 2

    def test_document_from_helper(self):
        from probecut import PartitionedProbeGraph, build_graph

        g = build_graph(2, [(0, 1)])
        ppg = PartitionedProbeGraph(g, frozenset({0, 1}), frozenset())
        doc = document_from(ppg, None, {"k": "v"})
        assert doc.metadata == {"k": "v"}
        assert parse_instance(serialize_instance(doc)) == doc


class TestParserReuse:
    """The parser is built once per process; every call still starts from
    its own defaults."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        for name in ("solve", "verify"):
            monkeypatch.setitem(
                cli._HANDLERS, name, lambda opts, argv: seen.append(opts) or 0
            )
        return seen

    def test_options_do_not_leak_between_calls(self, seen):
        assert main(["solve", "--problem", "dcut", "--d", "3", "--s", "2",
                     "--algo", "poly", "--input", "a.json"]) == 0
        assert main(["solve", "--problem", "mc", "--algo", "brute",
                     "--input", "b.json"]) == 0
        assert main(["verify", "--input", "c.json", "--perfect",
                     "--colouring", "col.json", "--d", "2"]) == 0
        assert main(["verify", "--input", "d.json"]) == 0
        first, second, third, fourth = seen
        assert (first.problem, first.d, first.s, first.input) == (
            "dcut", 3, 2, "a.json")
        assert (second.problem, second.d, second.s, second.algo) == (
            "mc", 1, 0, "brute")
        assert (third.perfect, third.colouring, third.d) == (True, "col.json", 2)
        assert (fourth.perfect, fourth.colouring, fourth.d, fourth.pattern) == (
            False, None, 1, None)

    def test_invalid_call_leaves_no_options_behind(self, seen, capsys):
        assert main(["solve", "--d", "5", "--s", "4", "--problem", "nope",
                     "--algo", "poly", "--input", "x"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["solve", "--problem", "pmc", "--algo", "poly",
                     "--input", "y"]) == 0
        (opts,) = seen
        assert (opts.problem, opts.d, opts.s, opts.input) == ("pmc", 1, 0, "y")

    def test_help_is_the_same_on_every_call(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["solve", "--help"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("usage: probecut solve")


_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    # JSON numbers that json.loads accepts but int() rejects
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300])
)
_json_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
_lines = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def _instance_texts(draw):
    """Instance files: arbitrary JSON or text, or a small valid instance in
    either format, often with one part garbled."""
    kind = draw(st.sampled_from(["json", "text", "document", "edge list"]))
    if kind == "json":
        return json.dumps(draw(_json_values))
    if kind == "text":
        return draw(_lines)
    n = draw(st.integers(1, 8))
    probes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    pairs = [
        [u, v] for u in range(n) for v in range(u + 1, n)
        if u in probes or v in probes
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    if draw(st.booleans()):  # a probe hub makes the graph connected
        edges += [p for p in pairs if probes[0] in p and p not in edges]
    garble = draw(st.sampled_from([None, None, "field", "item"]))
    if kind == "edge list":
        lines = [f"n {n}", *(f"e {u} {v}" for u, v in edges),
                 *(f"probe {v}" for v in probes)]
        if garble:
            lines.insert(draw(st.integers(0, len(lines))), draw(_lines))
        return "\n".join(lines)
    doc = {"n": n, "edges": edges, "probes": probes,
           "nonprobes": [v for v in range(n) if v not in probes]}
    if garble == "field":
        doc[draw(st.sampled_from([*doc, "certificate_f", "metadata"]))] = draw(
            _json_values
        )
    elif garble == "item" and edges:
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 1))] = (
            draw(_scalars)
        )
    return json.dumps(doc)


@st.composite
def _sat_texts(draw):
    """SAT files: arbitrary JSON or text, or the example instance with one
    field or one clause entry garbled, or with any integer as n_vars."""
    kind = draw(st.sampled_from(["json", "text", "document"]))
    if kind == "json":
        return json.dumps(draw(_json_values))
    if kind == "text":
        return draw(_lines)
    doc = json.loads(json.dumps(EXAMPLE_SAT))
    garble = draw(st.sampled_from([None, "field", "item", "n_vars"]))
    if garble == "n_vars":
        doc["n_vars"] = draw(st.integers())
    elif garble == "field":
        doc[draw(st.sampled_from(list(doc)))] = draw(_json_values)
    elif garble == "item":
        clause = doc[draw(st.sampled_from(["positive", "negative"]))][
            draw(st.integers(0, 3))
        ]
        clause[draw(st.integers(0, 2))] = draw(_scalars)
    return json.dumps(doc)


class TestFuzzedInput:
    """Arbitrary instance, colouring and SAT files and option values end in
    an exit code of the contract, never in an exception escaping
    ``main``."""

    @staticmethod
    def _run(argv, files):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            argv = [str(Path(tmp) / a) if a in files else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
        else:
            json.loads(out.getvalue())

    @given(_instance_texts(), st.sampled_from(["dcut", "mmc", "pmc"]))
    @settings(max_examples=300)
    def test_solve(self, instance, problem):
        argv = ["solve", "--problem", problem, "--algo", "poly", "--d", "2",
                "--s", "1", "--input", "inst"]
        self._run(argv, {"inst": instance})

    @given(_instance_texts(), st.none() | _json_values.map(json.dumps))
    @settings(max_examples=300)
    def test_verify(self, instance, colouring):
        argv = ["verify", "--input", "inst"]
        files = {"inst": instance}
        if colouring is None:
            argv += ["--pattern", "P1+P4"]
        else:
            argv += ["--colouring", "col", "--d", "2"]
            files["col"] = colouring
        self._run(argv, files)

    @given(_sat_texts())
    @settings(max_examples=300)
    def test_reduce_sat(self, sat):
        self._run(_SAT4P1, {"inst": sat})

    @given(_instance_texts(), st.integers())
    @settings(max_examples=300)
    def test_reduce_split(self, graph, side_of):
        self._run(_SPLIT + ["--side-of", str(side_of)], {"inst": graph})
