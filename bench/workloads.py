"""Seeded inputs, operations and correctness gates of the four workloads.

Every input is generated here from the workload seed; the package only
receives the generated inputs, through its public functions.  Functions are
looked up on the module at call time (``pc.check_inequality``, never a
name bound at import), so the tracer's wrappers see every call.

A workload hands out one sweep at a time: its list of operations for one
pass.  Sweep k draws its inputs from (seed, k), so a run samples fresh
inputs on every pass and two runs at one seed see the same sequence.  Each
operation returns a dict of facts about its output and raises WrongOutput
when a verdict, a margin or an exit code is not the expected one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import paracone as pc
from paracone.geometry import unit_dual_generators

WORKLOADS = ("certify", "hunt", "linearity", "configs")

# exit code of `paracone run` for each shipped config; the falsify config
# exits 1 by design, and every report in a manifest shares its config's verdict
CONFIG_EXIT = {
    "affine_exact": 0,
    "example1_scan": 0,
    "neg_abs_falsify": 1,
    "neg_square_certify": 0,
    "smooth_frechet": 0,
}

# the agreement criterion 01 of the acceptance suite asks of the two routes
SCALARIZE_AGREEMENT = 1e-12

SCAN_CHUNK = 5


class WrongOutput(Exception):
    """An operation returned a verdict, margin or exit code it must not."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    # primary operations are the ones op_p50_s and op_tail_s are taken over
    primary: bool = True


def _seeds(rng: np.random.Generator, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _family(label: str):
    return next(f for f in pc.testbed_families() if f.label == label)


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=float).tobytes() if not isinstance(part, str) else part.encode())
    return h.hexdigest()[:16]


def interior_pairs(f, n: int, rng: np.random.Generator) -> list:
    """Seeded (x0, unit direction) pairs 5% inside the domain box, each at a
    point where the family's analytic derivative answers."""
    inner = f.domain.shrink(0.05)
    out = []
    while len(out) < n:
        x0 = inner.sample(1, rng)[0]
        h = rng.normal(size=f.domain.dim)
        hn = pc.norm(h, f.domain_norm)
        if hn < 1e-9:
            continue
        h = h / hn
        if pc.known_directional(f, x0, h) is None:
            continue
        out.append((x0, h))
    return out


class Certify:
    """Bulk sampled certification of every claimed family, in both forms,
    through the unit dual rows, and by the midpoint test where defined."""

    name = "certify"

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.budget = 40 if minimal else 400
        self.families = list(pc.testbed_families())
        n_cones = 1 if minimal else 3
        # positive rays keep the fresh cones pointed and full dimensional
        self.rays = [rng.uniform(0.1, 1.0, size=(4 + i % 2, 3 + i % 2)) for i in range(n_cones)]
        self.map_seeds = _seeds(rng, n_cones)
        self.static = [self._prepared(f) for f in self.families]
        self._fresh(nullcontext)  # set-up builds the fresh cones once, as every sweep does again
        self.scalarize_checked = 0
        self.scalarize_bitwise_mismatch = 0

    def _prepared(self, f):
        cone = f.claimed.cone
        y_star = pc.strictly_positive_functional(cone) if f.claimed.modulus.kind == "square" else None
        return f, list(unit_dual_generators(cone)), y_star

    def _fresh(self, span) -> list:
        with span("geometry.cone_build"):
            out = []
            for i, rays in enumerate(self.rays):
                cone = pc.cone_from_generators(rays, name=f"fresh{i}")
                out.append(self._prepared(pc.curved_cone_map(cone, seed=self.map_seeds[i])))
        return out

    def mappings(self) -> list:
        return self.families

    def _check_seeds(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, 1, k])
        return [_seeds(rng, 2) for _ in range(len(self.families) + len(self.rays))]

    def fingerprint(self) -> str:
        return _fingerprint(*self.rays, self.map_seeds, self._check_seeds(0), str(self.budget))

    def sweep(self, span, k: int) -> list:
        ops = []
        for (f, rows, y_star), seeds in zip(self.static + self._fresh(span), self._check_seeds(k)):
            ops.extend(self._ops(f, rows, y_star, seeds, fresh=f not in self.families))
        return ops

    def _ops(self, f, rows, y_star, seeds, fresh: bool) -> list:
        spec, budget = f.claimed, self.budget
        direct = {}

        def check(form, seed):
            def run():
                rep = pc.check_inequality(f, spec, form=form, budget=budget, seed=seed)
                expect(rep.passed, f"{f.label} {form}-form FAIL worst_margin={rep.worst_margin!r}")
                direct[form] = rep.worst_margin
                return {"triples": rep.samples_used}

            return Op(f"check-{form}:{f.label}", run)

        def scalarize():
            rep = pc.scalarize_check(f, spec, rows, form="min", budget=budget, seed=seeds[0])
            expect(rep.passed, f"{f.label} scalarized FAIL worst_margin={rep.worst_margin!r}")
            expect("min" in direct, f"{f.label}: no direct margin to compare against")
            bitwise = rep.worst_margin.hex() == direct["min"].hex()
            self.scalarize_checked += 1
            self.scalarize_bitwise_mismatch += not bitwise
            # unit rows of a generator-only cone are renormalized inside
            # scalarize_check, which can move the last bits; see README
            expect(
                bitwise or (fresh and abs(rep.worst_margin - direct["min"]) <= SCALARIZE_AGREEMENT),
                f"{f.label}: scalarized {rep.worst_margin!r} != direct {direct['min']!r}",
            )
            return {"triples": rep.samples_used}

        def fact2():
            rep = pc.check_fact2(f, spec, y_star, budget=budget, seed=seeds[0])
            expect(rep.passed, f"{f.label} midpoint test FAIL worst_margin={rep.worst_margin!r}")
            return {"triples": rep.samples_used}

        ops = [check("min", seeds[0]), check("lambda", seeds[1]), Op(f"scalarize:{f.label}", scalarize)]
        if spec.modulus.kind == "square" and f.domain_norm == "two":
            ops.append(Op(f"fact2:{f.label}", fact2))
        return ops

    def summary(self, records) -> list:
        checks = [r for r in records if r.ok]
        triples = sum(r.facts["triples"] for r in checks)
        busy = sum(r.seconds for r in checks)
        return [
            ("triples_per_s", triples / busy if busy else 0.0, "triples/s", f"{triples} triples in {busy:.3f} s of checks"),
            (
                "scalarize_bitwise_mismatch",
                self.scalarize_bitwise_mismatch,
                "count",
                f"scalarized margins not bitwise equal to the direct ones, of {self.scalarize_checked}",
            ),
        ]


def closed_form_margin(c: float) -> float:
    """Symmetric-pair depth of -|x| under the square modulus at gap 1/(2C),
    on the checker's relative scale."""
    g = 1.0 / (2.0 * c)
    return (-g / 2.0 + c * g * g / 2.0) / (1.0 + g)


class Hunt:
    """Falsification with refinement and witness replay, plus controls."""

    name = "hunt"

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        self.budget = 100 if minimal else 1000
        self.constants = (10.0,) if minimal else (10.0, 20.0, 50.0)
        self.n_factors = 1 if minimal else 2
        self.neg_abs = pc.neg_abs_1d()
        self.neg_square = pc.neg_square_1d()
        self.hinge = _family("hinge-plus-quadratic")

    def _cases(self, k: int) -> list:
        """(mapping, spec, form, expect a violation, constant of the -|x| sweep) and a seed each."""
        rng = np.random.default_rng([self.seed, 2, k])
        cases = []
        for c in self.constants:
            spec = pc.ParaSpec(modulus=pc.square_modulus(), k=[1.0], cone=pc.orthant(1), C=c)
            cases.append((self.neg_abs, spec, "min", True, c))
        for f in (self.neg_square, self.hinge):
            for factor in rng.uniform(0.9, 0.99, size=self.n_factors):
                spec = dataclasses.replace(f.claimed, C1=float(factor) * f.claimed.C1)
                cases.append((f, spec, "lambda", True, None))
        for f in (self.neg_square, self.hinge):
            cases.append((f, f.claimed, "lambda", False, None))
        return list(zip(cases, _seeds(rng, len(cases))))

    def mappings(self) -> list:
        return [self.neg_abs, self.neg_square, self.hinge]

    def fingerprint(self) -> str:
        cases = self._cases(0)
        return _fingerprint([case[1].C1 or case[1].C for case, _ in cases], [seed for _, seed in cases], str(self.budget))

    def sweep(self, span, k: int) -> list:
        return [self._op(case, seed) for case, seed in self._cases(k)]

    def _op(self, case, seed) -> Op:
        f, spec, form, undersized, c = case
        budget = self.budget

        def run():
            rep = pc.falsify(f, spec, form=form, budget=budget, seed=seed)
            if not undersized:
                expect(rep.passed, f"control {f.label} refuted at worst_margin={rep.worst_margin!r}")
                return {}
            expect(not rep.passed and rep.witness is not None, f"{f.label} undersized spec not refuted")
            replay = pc.check_inequality(f, spec, form=form, triples=[rep.witness], tol=rep.tol)
            expect(
                not replay.passed and replay.worst_margin.hex() == rep.worst_margin.hex(),
                f"{f.label}: replay margin {replay.worst_margin!r} != witness margin {rep.worst_margin!r}",
            )
            return {"depth_ratio": rep.worst_margin / closed_form_margin(c)} if c is not None else {}

        kind = "control" if not undersized else ("sweep" if c is not None else "undersized")
        return Op(f"falsify-{kind}:{f.label}:{(spec.C if c is not None else spec.C1):.4g}", run)

    def summary(self, records) -> list:
        depths = [r.facts["depth_ratio"] for r in records if r.ok and "depth_ratio" in r.facts]
        note = "min over the -|x| constant sweep of witness margin / closed-form symmetric-pair margin"
        return [("depth_ratio", min(depths) if depths else 0.0, "ratio", note)]


class Linearity:
    """Derivative estimates with upper-bound checks, quotient traces, the
    example1 density scan with its aimed kink grid, and a Frechet test."""

    name = "linearity"

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        self.minimal = minimal
        self.example1 = pc.example1_default()
        self.region = self.example1.domain.shrink(0.02)
        kinks = sorted(self.example1.kink_locus)[: 2 if minimal else None]
        grid = kinks + [(a + b) / 2.0 for a, b in zip(kinks, kinks[1:])]
        if not minimal:
            grid += [kinks[0] - 0.05, kinks[-1] + 0.05]
        self.kinks = kinks
        self.grid = [[x] for x in grid]
        self.smooth = pc.smooth_r2_r3()
        self.families = list(pc.testbed_families())

    def _draw(self, k: int) -> tuple:
        """Sweep k's (point, direction) pairs, scan calls and Frechet point."""
        rng = np.random.default_rng([self.seed, 3, k])
        n_pairs = 1 if self.minimal else 10
        pairs = [(f, x0, h) for f in self.families for x0, h in interior_pairs(f, n_pairs, rng)]
        uniform = [[float(x)] for x in self.region.sample(2 if self.minimal else 20, rng)[:, 0]]
        # both scans run as calls of at most SCAN_CHUNK points, so a long scan
        # is timed in pieces short enough for the speed reference to follow
        scans = []  # (label, points, how many of them are kinks, seed)
        for label, points in (("scan-uniform", uniform), ("scan-aimed", self.grid)):
            for i in range(0, len(points), SCAN_CHUNK):
                chunk = points[i : i + SCAN_CHUNK]
                scans.append((label, chunk, sum(p[0] in self.kinks for p in chunk), _seeds(rng, 1)[0]))
        return pairs, scans, rng.uniform(-0.5, 0.5, size=2), _seeds(rng, 1)[0]

    def mappings(self) -> list:
        return [self.example1, self.smooth] + self.families

    def fingerprint(self) -> str:
        pairs, scans, frechet_x0, frechet_seed = self._draw(0)
        points = [c for _, x0, h in pairs for c in (*x0, *h)]
        scanned = [c for _, chunk, _, seed in scans for c in (*(p[0] for p in chunk), seed)]
        return _fingerprint(points, scanned, frechet_x0, [frechet_seed])

    def sweep(self, span, k: int) -> list:
        pairs, scans, frechet_x0, frechet_seed = self._draw(k)
        ops = [self._derivative(*pair) for pair in pairs]
        ops += [self._trace(*pair) for pair in pairs]
        ops += [Op(f"{label}:example1", self._scanner(*scan), primary=False) for label, *scan in scans]
        return ops + [Op("frechet:smooth-r2-r3", self._frechet(frechet_x0, frechet_seed), primary=False)]

    def _derivative(self, f, x0, h) -> Op:
        def run():
            est = pc.directional_derivative(f, f.claimed, x0, h, tol=1e-6)
            expect(est.converged, f"{f.label}: estimate at {x0.tolist()} did not converge")
            rows = unit_dual_generators(f.claimed.cone)
            dev = float(np.max(np.abs(rows @ (est.value - pc.known_directional(f, x0, h)))))
            expect(dev <= est.error_bound, f"{f.label}: deviation {dev!r} beyond error bound {est.error_bound!r}")
            ub = pc.check_upper_bound(f, f.claimed, x0, h, est, tol=1e-9)
            expect(ub.passed, f"{f.label}: upper-bound check FAIL worst_margin={ub.worst_margin!r}")
            return {}

        return Op(f"derivative:{f.label}", run)

    def _trace(self, f, x0, h) -> Op:
        def run():
            rep = pc.check_alpha_monotone(pc.build_trace(f, f.claimed, x0, h, depth=40), tol=1e-9)
            expect(rep.passed, f"{f.label}: corrected quotients not monotone at {x0.tolist()}")
            return {}

        return Op(f"trace:{f.label}", run, primary=False)

    def _scanner(self, points, n_kinks, seed):
        def run():
            f = self.example1
            rep = pc.gateaux_scan(f, f.claimed, self.region, points=points, n_directions=4, tol=1e-6, seed=seed)
            # uniform points miss the kinks (density 1.0); grid points fail exactly at them
            want = {"tp": n_kinks, "fp": 0, "fn": 0, "tn": len(points) - n_kinks}
            expect(rep.confusion == want, f"scan confusion {rep.confusion} != {want} at {points}")
            return {"scan_points": rep.n_points}

        return run

    def _frechet(self, x0, seed):
        def run():
            f = self.smooth
            rep = pc.frechet_test(f, f.claimed, x0, epsilons=(1e-2, 1e-3), n_directions=16, tol=1e-6, seed=seed)
            expect(rep.passed, f"frechet_test FAIL at {x0.tolist()}: {rep.notes}")
            return {}

        return run

    def summary(self, records) -> list:
        scans = [r for r in records if r.ok and "scan_points" in r.facts]
        points = sum(r.facts["scan_points"] for r in scans)
        busy = sum(r.seconds for r in scans)
        note = f"{points} gateaux_scan points in {busy:.3f} s"
        return [("points_per_s", points / busy if busy else 0.0, "points/s", note)]


class Configs:
    """`paracone run` on each shipped config, one after another, through
    paracone.cli.main in this interpreter.

    The cold start a fresh `paracone run` adds on top, a fresh interpreter's
    `import paracone.cli`, is this workload's setup_s.
    """

    name = "configs"

    def __init__(self, seed: int, minimal: bool, root: Path, out_dir: Path):
        self.configs = [(name, root / "configs" / f"{name}.json") for name in sorted(CONFIG_EXIT)]
        self.seed = seed
        self.out_dir = out_dir
        self.runs = 0
        import paracone.cli  # noqa: F401  (reached as pc.cli.main, where the tracer patches)

    def mappings(self) -> list:
        return []

    def _seed(self, k: int) -> int:
        """The --seed every config entry runs with in sweep k."""
        return _seeds(np.random.default_rng([self.seed, 4, k]), 1)[0]

    def fingerprint(self) -> str:
        return _fingerprint([self._seed(0)], *(str(p.name) for _, p in self.configs))

    def sweep(self, span, k: int) -> list:
        return [Op(f"run:{name}", self._runner(name, path, self._seed(k))) for name, path in self.configs]

    def _runner(self, name: str, path: Path, seed: int):
        def run():
            self.runs += 1
            out = self.out_dir / f"{name}-{self.runs}"
            argv = ["run", "--config", str(path), "--out", str(out), "--seed", str(seed)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = pc.cli.main(argv)
            want = CONFIG_EXIT[name]
            expect(code == want, f"{name}: exit code {code}, expected {want}: {sink.getvalue()}")
            manifest = json.loads((out / "manifest.json").read_text())
            expect(manifest["exit_status"] == want, f"{name}: manifest exit_status {manifest['exit_status']}")
            verdicts = [entry["pass"] for entry in manifest["reports"]]
            expect(all(v == (want == 0) for v in verdicts), f"{name}: manifest verdicts {verdicts}")
            return {"wall_clock_s": manifest["wall_clock_s"]}

        return run

    def summary(self, records) -> list:
        out = []
        for name, _ in self.configs:
            walls = sorted(r.facts["wall_clock_s"] for r in records if r.ok and r.label == f"run:{name}")
            if walls:
                out.append((f"wall_clock_s.{name}", walls[len(walls) // 2], "s", "manifest wall_clock_s, median"))
        return out


def build(name: str, seed: int, minimal: bool, root: Path | None = None, out_dir: Path | None = None):
    """The workload's generated inputs, ready to sweep."""
    if name == "certify":
        return Certify(seed, minimal)
    if name == "hunt":
        return Hunt(seed, minimal)
    if name == "linearity":
        return Linearity(seed, minimal)
    if name == "configs":
        return Configs(seed, minimal, root, out_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
