"""The benchmark's own smoke test: every workload at the tiny ``smoke``
scale, untraced and traced, emits exactly the metrics ``BENCHMARK.json``
lists, with their units, and no operation fails.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["fail_frac"] == 0
        # the designed split: no solver or closure work in reduce-check,
        # no oracle work in the solve loop
        if workload == "reduce-check":
            assert values["colouring.process_masks.calls"] == 0
            assert values["solvers.solve_dcut.calls"] == 0
        if workload == "solve":
            assert values["oracles.self_s"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "solve", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
