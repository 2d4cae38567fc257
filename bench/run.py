#!/usr/bin/env python3
"""paracone benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

With --trace 0 the last line of stdout is the JSON result with every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric, from sweeps run under the tracer.  The lines above it
print the same figures by name and unit, the workload-specific figures, the
environment and the inputs' fingerprint.  --smoke runs every workload at
minimal size in both modes and checks that all of this is printed.

Everything runs single-process with BLAS threads pinned to 1.  See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

SETUP_REPEATS = 7
IMPORT_PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 170

# workload-specific figures printed above the result line, with their units
EXTRA_FIGURES = {
    "certify": {"triples_per_s": "triples/s", "scalarize_bitwise_mismatch": "count"},
    "hunt": {"depth_ratio": "ratio"},
    "linearity": {"points_per_s": "points/s"},
    "configs": {},
}

# wall-clock figures printed beside the end-to-end metrics of an untraced run
WALL_FIGURES = {"op_p50_s": "s", "op_tail_s": "s", "sweep_s": "s", "reference_kernel_s": "s"}

RESULT_PREFIX = "metric "


@dataclass
class Record:
    label: str
    primary: bool
    seconds: float
    facts: dict
    error: str | None
    ref: float  # reference-kernel time around the operation

    @property
    def ok(self) -> bool:
        return self.error is None


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, **kwargs)


def setup_seconds(workload: str, seed: int, minimal: bool) -> list:
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs (for configs: import paracone.cli only)."""
    if workload == "configs":
        code = "import paracone.cli"
    else:
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; "
            f"workloads.build({workload!r}, {seed}, {minimal})"
        )
    times = []
    for _ in range(1 if minimal else SETUP_REPEATS):
        start = time.perf_counter()
        proc = run_child([sys.executable, "-c", code])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return times


def import_times(minimal: bool) -> tuple:
    """Median cumulative import time of paracone.cli and of scipy inside it,
    from `python -X importtime`."""
    cli, scipy = [], []
    for _ in range(1 if minimal else IMPORT_PROBE_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import paracone.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
        # children print before their parent: walk backwards to see parents first
        stack, scipy_s, cli_s = [], 0.0, 0.0
        for level, name, cumulative in reversed(rows):
            while stack and stack[-1][0] >= level:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s for _, s in stack):
                scipy_s += cumulative
            if name == "paracone.cli":
                cli_s = cumulative
            stack.append((level, is_scipy))
        cli.append(cli_s)
        scipy.append(scipy_s)
    return statistics.median(cli), statistics.median(scipy)


def reference_kernel() -> float:
    """Fixed work in the style of the package's inner loops: scalar Python
    and numpy calls on three-element arrays.  A few milliseconds."""
    import numpy as np

    acc = 0.0
    for i in range(600):
        v = np.array([i * 1e-3, 0.5, -0.25])
        if np.all(v > -1.0) and np.all(v < 1.0):
            acc += float(np.sqrt(v @ v)) + abs(math.sin(i))
    return acc


class Reference:
    """The machine's current speed, as the wall time of reference_kernel.

    Hosts like the one this was written on change a core's speed by tens of
    percent over seconds, as neighbours come and go.  The kernel is timed
    between operations, at most every INTERVAL_S, and each operation's time
    is divided by the mean of the latest sample before and after it.  In
    trials on a two-core VM this took the quartile spread of the configs
    sweep from 24% to 9%, and a 15 s window median of the derivative
    operation varied 1.4% where its wall time varied 26%.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.latest = None
        self.spent = 0.0
        self._last = -math.inf

    def current(self) -> float:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            t0 = time.perf_counter()
            reference_kernel()
            self._last = time.perf_counter()
            self.latest = self._last - t0
            self.spent += self.latest
        return self.latest


def run_sweep(wl, k: int, reference: Reference, span=nullcontext, set_op=None) -> tuple:
    """Sweep k: (wall seconds without reference sampling, records)."""
    records = []
    start, spent = time.perf_counter(), reference.spent
    for op in wl.sweep(span, k):
        if set_op is not None:
            set_op(op.label)
        before = reference.current()
        t0 = time.perf_counter()
        try:
            facts, error = op.run(), None
        except Exception as exc:  # a wrong verdict and a crash both count as a failed operation
            facts, error = {}, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        # an operation longer than the sampling interval gets a fresh sample after it
        ref = (before + reference.current()) / 2.0
        records.append(Record(op.label, op.primary, seconds, facts, error, ref))
    return time.perf_counter() - start - (reference.spent - spent), records


def tail(values: list) -> tuple:
    """Highest whole percentile with at least ten samples above it, never
    below the median: (value, percentile, samples above)."""
    import numpy as np

    for p in range(99, 49, -1):
        q = float(np.percentile(values, p))
        above = sum(v > q for v in values)
        if above >= 10:
            return q, p, above
    q = float(np.percentile(values, 50))
    return q, 50, sum(v > q for v in values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(load_start: tuple) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def emit(name: str, value, unit: str, note: str | None = None) -> None:
    print(f"{RESULT_PREFIX}{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def measure(wl, seconds: float) -> tuple:
    """Whole sweeps, untraced, until the time is up: (sweep seconds, sweep
    times in reference units, records)."""
    reference = Reference()
    sweeps, sweeps_ref, records = [], [], []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < seconds:
        t, recs = run_sweep(wl, len(sweeps), reference)
        sweeps.append(t)
        # each operation in its own kernel units, the time between them in the sweep's
        between = t - sum(r.seconds for r in recs)
        sweeps_ref.append(sum(r.seconds / r.ref for r in recs) + between / statistics.median(r.ref for r in recs))
        records += recs
    return sweeps, sweeps_ref, records


def measure_traced(wl, seconds: float) -> tuple:
    """Sweep k untraced, then sweep k traced on the same inputs, for k = 0,
    1, ... until the time is up; the difference of their medians is the
    tracing overhead."""
    from tracer import Tracer

    reference = Reference()
    plain, traced, tracers, records = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t, recs = run_sweep(wl, len(traced), reference)
        plain.append(t)
        records += recs
        tr = Tracer()
        with tr.installed(wl.mappings()):
            t, recs = run_sweep(wl, len(traced), reference, tr.span, lambda label: setattr(tr, "op", label))
        traced.append(t)
        tracers.append(tr)
        records += recs
    return plain, traced, tracers, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--minimal", action="store_true", help="smallest inputs of the workload, one sweep")
    ap.add_argument("--smoke", action="store_true", help="run every workload at minimal size and check the output")
    args = ap.parse_args(argv)

    if not (SRC / "paracone" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    import paracone
    import workloads

    if not Path(paracone.__file__).resolve().is_relative_to(SRC):
        print(f"error: paracone imported from {paracone.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")

    out_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(
            args.workload,
            args.seed,
            args.minimal,
            root=ROOT,
            out_dir=out_dir,
        )
        seconds = 0.0 if args.minimal else args.seconds
        print(f"workload {args.workload} seed {args.seed} inputs {wl.fingerprint()}")
        if args.trace:
            cli_s, scipy_s = import_times(args.minimal)
            plain, traced, tracers, records = measure_traced(wl, seconds)
        else:
            setup = setup_seconds(args.workload, args.seed, args.minimal)
            sweeps, sweeps_ref, records = measure(wl, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [r for r in records if not r.ok]
    for r in failed[:20]:
        print(f"FAILED {r.label}: {r.error}")
    correct = not failed
    emit("fail_ratio", len(failed) / len(records), "ratio", f"{len(failed)} of {len(records)} operations")
    for name, value, unit, note in wl.summary(records):
        emit(name, value, unit, note)

    metrics = {}
    if args.trace:
        from tracer import combine

        layers = combine(tracers)
        layers["cli.import_s"] = (cli_s, "s", "cumulative import of paracone.cli, python -X importtime")
        layers["cli.import_scipy_s"] = (scipy_s, "s", "cumulative import of scipy inside it")
        overhead = statistics.median(traced) - statistics.median(plain)
        layers["trace.overhead_s"] = (overhead, "s", f"median traced sweep minus median untraced, {len(traced)} each")
        layers["trace.overhead_ratio"] = (overhead / statistics.median(plain), "ratio", "of the median untraced sweep")
        print("wait time: not reported; the run is single-threaded with no queues, so no layer waits")
        for name, (value, unit, note) in layers.items():
            emit(name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
        RUN_DIR.mkdir(exist_ok=True)
        spans = RUN_DIR / f"spans-{args.workload}.csv"
        tracers[0].write_spans(spans)
        print(f"spans of the first traced sweep written to {spans.relative_to(ROOT)}")
    else:
        primary = [r for r in records if r.primary]
        ops = [r.seconds for r in primary]
        ops_ref = [r.seconds / r.ref for r in primary]
        tail_s, pct, above = tail(ops)
        tail_ref, pct_ref, above_ref = tail(ops_ref)
        kernel = statistics.median(r.ref for r in records)
        emit("op_p50_s", statistics.median(ops), "s", f"{len(ops)} operations")
        emit("op_tail_s", tail_s, "s", f"p{pct}, {above} of {len(ops)} operations above it")
        emit("sweep_s", statistics.median(sweeps), "s", f"median of {len(sweeps)} sweeps")
        emit("reference_kernel_s", kernel, "s", "median time of the reference kernel, the unit of the ref figures")
        figures = {
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
            "op_p50_ref": (statistics.median(ops_ref), "ref", f"{len(ops)} operations"),
            "op_tail_ref": (tail_ref, "ref", f"p{pct_ref}, {above_ref} of {len(ops)} operations above it"),
            "sweep_ref": (statistics.median(sweeps_ref), "ref", f"median of {len(sweeps)} sweeps"),
            "peak_rss_mb": (peak_rss_mb(), "MB", None),
        }
        for name, (value, unit, note) in figures.items():
            emit(name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
    print("env " + json.dumps(environment(load_start), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload at minimal size, in both modes: each named metric must
    be printed by name with its unit, and every operation must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (item["name"] for item in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", "0", "--trace", str(trace), "--minimal"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            where = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: result metrics {sorted(got)} differ from BENCHMARK.json")
            printed = {}
            for line in lines:
                m = re.match(rf"{RESULT_PREFIX}(\S+) = \S+ (\S+)", line)
                if m:
                    printed[m.group(1)] = m.group(2)
            expected = dict(wanted[trace], fail_ratio="ratio", **EXTRA_FIGURES[w], **(WALL_FIGURES if trace == 0 else {}))
            for name, unit in expected.items():
                if printed.get(name) != unit:
                    problems.append(f"{where}: {name} not printed with unit {unit}")
            print(f"smoke {where}: {result['attempted']} operations, {len(printed)} figures")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
