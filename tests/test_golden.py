"""Golden-output gate: the CLI JSON of ``solve``, ``generate`` and
``reduce`` on a fixed corpus, apart from ``wall_time``, hashes to a
recorded digest.  A refactor that changes any answer, certificate, branch
count or case trace changes the digest.  Never edit GOLDEN_DIGEST to make
this pass; a changed digest means changed output.
"""

import hashlib
import json

from probecut import random_probe_hfree, sp1_p4_pattern
from probecut.cli import document_from, main, serialize_instance

GOLDEN_DIGEST = "8dcbd298af9236735d918f879509ed17bfead98814117f8f77d92e0f9b0ace0e"

SOLVE_ARGS = [
    ["--problem", "dcut", "--d", "2"],
    ["--problem", "dcut", "--d", "3"],
    ["--problem", "mc"],
    ["--problem", "mmc"],
    ["--problem", "pmc"],
]

K4 = {
    "n": 4,
    "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)],
    "probes": [0, 1, 2, 3],
}
C6_TEXT = "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 0\n"
PETERSEN_EDGES = (
    [[i, (i + 1) % 5] for i in range(5)]
    + [[i, i + 5] for i in range(5)]
    + [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
)
SAT = {
    "n_vars": 6,
    "positive": [[0, 1, 2], [0, 2, 3], [1, 4, 5], [3, 4, 5]],
    "negative": [[0, 1, 3], [0, 2, 4], [1, 3, 5], [2, 4, 5]],
}


# (n, density, seed): a sweep, then seeds whose d-cut runs reach the
# cograph-2comp, multi-comp/type-b and multi-comp/type-a cases
CORPUS = [
    (6 + i % 7, (0.5, 0.6, 0.75, 0.9)[i % 4], i) for i in range(22)
] + [
    (6, 0.3, 23), (9, 0.3, 19), (8, 0.4, 9), (9, 0.4, 14),
    (6, 0.3, 38), (9, 0.3, 23), (7, 0.6, 0), (7, 0.5, 29),
]


def _instances():
    pattern = sp1_p4_pattern(1)
    for n, density, seed in CORPUS:
        yield random_probe_hfree(n, pattern, density, seed)


def _run(argv, capsys, lines, tmp_path):
    code = main(argv)
    # the echoed command names the per-run temporary directory
    out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    if out.lstrip().startswith("{") and '"wall_time"' in out:
        report = json.loads(out)
        report.pop("wall_time")
        out = json.dumps(report, indent=2)
    lines.append(f"{code}\n{out}")


def _golden_lines(tmp_path, capsys):
    lines: list[str] = []
    for index, (ppg, cert) in enumerate(_instances()):
        path = tmp_path / "instance.json"
        path.write_text(serialize_instance(document_from(ppg, cert)))
        for problem in SOLVE_ARGS:
            for algo in ("poly", "brute"):
                lines.append(f"instance {index} {algo} {' '.join(problem)}")
                _run(
                    ["solve", *problem, "--s", "1", "--algo", algo,
                     "--input", str(path)],
                    capsys, lines, tmp_path,
                )
    _run(["generate", "--family", "random-probe-hfree", "--n", "9",
          "--pattern", "P1+P4", "--density", "0.75", "--seed", "5"],
         capsys, lines, tmp_path)
    _run(["generate", "--family", "sat4p1", "--n-vars", "6", "--seed", "3",
          "--d", "2"], capsys, lines, tmp_path)
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps(K4))
    c6 = tmp_path / "c6.txt"
    c6.write_text(C6_TEXT)
    petersen = tmp_path / "petersen.json"
    petersen.write_text(json.dumps({"n": 10, "edges": PETERSEN_EDGES}))
    sat = tmp_path / "sat.json"
    sat.write_text(json.dumps(SAT))
    _run(["reduce", "--from", "graph", "--construction", "moshi",
          "--input", str(k4)], capsys, lines, tmp_path)
    _run(["reduce", "--from", "graph", "--construction", "subdivide4",
          "--input", str(petersen)], capsys, lines, tmp_path)
    _run(["reduce", "--from", "graph", "--construction", "split",
          "--input", str(c6), "--side-of", "1"], capsys, lines, tmp_path)
    _run(["reduce", "--from", "sat", "--construction", "sat4p1",
          "--input", str(sat), "--d", "3"], capsys, lines, tmp_path)
    return lines


def test_cli_output_matches_golden_digest(tmp_path, capsys):
    lines = _golden_lines(tmp_path, capsys)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
