#!/usr/bin/env python3
"""Regenerate the ROADMAP re-anchor layer figures from traced runs.

    python3 bench/run.py --workload certify --seed 0 --trace 1
    python3 bench/run.py --workload linearity --seed 0 --trace 1
    python3 bench/baseline.py

reads the span files those runs leave in .bench_run/ and prints
check_inequality and sample_triples scaled to 10k triples per family, and a
60-point example1 gateaux scan.  Per-config wall_clock_s is printed by the
configs workload itself (``metric wall_clock_s.<config>``).  Span durations
include the tracer's own cost; the run prints it as trace.overhead_ratio.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from pathlib import Path

RUN_DIR = Path(__file__).resolve().parent.parent / ".bench_run"


def load(workload: str) -> list:
    path = RUN_DIR / f"spans-{workload}.csv"
    if not path.is_file():
        sys.exit(f"{path} missing: run `python3 bench/run.py --workload {workload} --trace 1` first")
    with open(path, newline="") as fh:
        return [dict(row, dur=float(row["end_s"]) - float(row["start_s"])) for row in csv.DictReader(fh)]


def per_op(spans: list, name: str) -> dict:
    """op label -> (seconds in spans called name, count of such spans)."""
    out = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s["name"] == name:
            out[s["op"]][0] += s["dur"]
            out[s["op"]][1] += 1
    return out


def main() -> int:
    certify = load("certify")
    checks = per_op(certify, "checks.check")
    sampling = per_op(certify, "checks.sample_triples")
    # three evaluator calls per triple: x, y and the segment point
    triples = {op: n // 3 for op, (_, n) in per_op(certify, "mappings.evaluator").items()}
    print("check_inequality (min form) and its sample_triples, scaled to 10k triples:")
    for op in sorted(checks):
        if op.startswith("check-min:"):
            scale = 10_000 / triples[op]
            print(f"  {op[len('check-min:'):]:24s} check {checks[op][0] * scale:7.3f} s   sample_triples {sampling[op][0] * scale:7.3f} s")
    linearity = load("linearity")
    seconds, points = per_op(linearity, "derivative.gateaux_test")["scan-uniform:example1"]
    print(f"example1 gateaux scan, 60 points: {seconds / points * 60:.3f} s (from {points} sampled points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
