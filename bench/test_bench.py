"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They start the benchmark as a subprocess at minimal size, so they take
about a minute.
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
WORKLOADS = ("certify", "hunt", "linearity", "configs")

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, timeout=600, cwd=cwd
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def counts(lines: list) -> dict:
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines
    # everything but times and the tracer's own cost is a deterministic count
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s" and not k.startswith("trace.")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    args = ("--workload", workload, "--seed", "3", "--trace", "1", "--minimal")
    first, second = counts(bench(*args)[1]), counts(bench(*args)[1])
    assert first == second
    assert first["mappings.points_evaluated"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_the_inputs(workload, tmp_path):
    def fingerprint(seed):
        return workloads.build(workload, seed, True, root=ROOT, out_dir=tmp_path).fingerprint()

    assert fingerprint(1) == fingerprint(1)
    assert fingerprint(1) != fingerprint(2)


def test_smoke_prints_every_metric_with_its_unit():
    proc, lines = bench("--smoke")
    assert proc.returncode == 0, "\n".join(lines) + proc.stderr


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == (pytest.approx(89.1), 90, 10)
    value, pct, above = run.tail([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (value, pct, above) == (3.0, 50, 2)
