"""Checkers and falsifiers for the relaxed-convexity inequalities.

Every checker reduces its vector inequality to scalar slacks through the
cone's unit supporting functionals and reports the most negative slack as
worst_margin.  The segment-inequality checks divide each slack by the
magnitude scale of the sampled values (_magnitude_scale, the one scoring
rule of every margin kernel, the derivative side's included); check_fact2
and check_approx_convex keep absolute slacks.  The report
type derives the verdict, exactly worst_margin >= -tol, which for a polyhedral
cone in inequality form is the cone membership test itself, so the verdict
and the margin can never disagree.

Sampling mixes seeded uniform triples with a deterministic dyadic small-gap
schedule: the characteristic failure mode of these inequalities lives at
small ||x - y|| where the allowance term vanishes faster than the gap, and
uniform sampling alone essentially never lands there.

Triples travel as arrays and every check evaluates its points in one batch.
A triple's margin does not depend on the batch it is computed in, so a
witness replayed alone reproduces its margin bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box,
    _at_least_one,
    _audit_dual,
    _coerce_rows,
    _require_tol,
    cone_values,
    dual_functional,
    ensure_generators,
    matvec_rows,
    row_dots,
    row_norms,
    row_reduce,
    unit_rows,
)
from .mappings import VectorMapping, _domain_point, _domain_region
from .modulus import ParaSpec, eval_modulus
from .reports import CheckReport, worst_report


@dataclass(frozen=True)
class SampleTriple:
    """One instance of the quantified variables: endpoints and the mixing
    weight.  The segment point lam*x + (1-lam)*y stays in the (convex)
    domain box whenever the endpoints do."""

    x: np.ndarray
    y: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        _require_tol(lam=self.lam)
        if not self.lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Triples:
    """Sampled triples as arrays: endpoints x and y, shape (n, d), and mixing
    weights lam, shape (n,).  The first `structured` rows come from the
    dyadic schedule.  Indexed by position it gives a SampleTriple, so it
    iterates like a list of them (the sequence protocol of __len__ and
    __getitem__)."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    structured: int = 0

    def __len__(self) -> int:
        return int(self.lam.shape[0])

    def __getitem__(self, i: int) -> SampleTriple:
        return SampleTriple(x=self.x[i].copy(), y=self.y[i].copy(), lam=float(self.lam[i]))


def _as_triples(triples) -> Triples:
    if not isinstance(triples, Triples):
        triples = list(triples)
        triples = Triples(
            x=np.array([t.x for t in triples], dtype=float),
            y=np.array([t.y for t in triples], dtype=float),
            lam=np.array([t.lam for t in triples], dtype=float),
        )
    if not len(triples):
        raise ValueError("no triples to check")
    return triples


# the dyadic schedule's gaps per anchor and direction, each half the one before
_DYADIC_GAPS = 14


def dyadic_small_gap_triples(box: Box) -> Triples:
    """Deterministic schedule of midpoint triples with geometrically
    shrinking gaps around a few interior anchor points.

    Anchors sit at box fractions 1/2, 1/4, 3/4 along the diagonal; probe
    directions are the coordinate axes plus the main diagonal; gaps halve
    _DYADIC_GAPS (14) times from just under the anchor's boundary clearance,
    the Box.boundary_distance along the direction and against it.  The
    schedule is built once per (lo, hi) and its arrays are read-only.
    """
    return _dyadic_schedule(box.lo.tobytes(), box.hi.tobytes())


@functools.lru_cache(maxsize=64)
def _dyadic_schedule(lo_bytes: bytes, hi_bytes: bytes) -> Triples:
    """dyadic_small_gap_triples for the box whose float64 bounds have these bytes."""
    lo, hi = np.frombuffer(lo_bytes), np.frombuffer(hi_bytes)
    d = lo.shape[0]
    anchors = lo + np.array([[0.5], [0.25], [0.75]]) * (hi - lo)
    if not Box(lo, hi).inside(anchors).all():
        raise ValueError("dyadic anchors fall outside the box")
    # the clearance along an axis and against it is the nearer face gap; on
    # the diagonal every entry is s = 1/sqrt(d), and dividing by s keeps the
    # order of the rounded gaps, so it is the smallest gap over s
    gap = np.minimum(hi - anchors, anchors - lo)
    dirs, span = np.eye(d), gap
    if d > 1:  # in one dimension the diagonal is the axis
        s = 1.0 / math.sqrt(d)
        dirs = np.vstack([dirs, np.full(d, s)])
        span = np.hstack([gap, np.min(gap, axis=1, keepdims=True) / s])
    span = 0.9 * span
    anchor, direction = np.nonzero(span > 0.0)
    t = span[anchor, direction][:, None, None] * np.ldexp(1.0, -np.arange(1, _DYADIC_GAPS + 1))[:, None]
    c, u = anchors[anchor][:, None, :], dirs[direction][:, None, :]
    x, y = (c - t * u).reshape(-1, d), (c + t * u).reshape(-1, d)
    lam = np.full(x.shape[0], 0.5)
    x.flags.writeable = y.flags.writeable = lam.flags.writeable = False
    return Triples(x=x, y=y, lam=lam, structured=x.shape[0])


def _require_fit(f: VectorMapping, spec: ParaSpec) -> None:
    """Raise ValueError, before any evaluation, when the spec's cone does not
    live in the mapping's codomain: its margins would broadcast or fail in numpy."""
    if spec.cone.dim != f.codomain_dim:
        raise ValueError("spec cone dimension does not match the mapping codomain")


def sample_triples(box: Box, budget: int, seed: int) -> Triples:
    """budget triples: the dyadic schedule first, then a seeded uniform fill
    with every third fill triple contracted to a small gap.

    The fill is rows of one draw, np.random.default_rng(seed).random((n,
    2d + 2)).  Fill triple j takes x, y and lam from the first 2d + 1 entries
    of row j, with x = lo + (hi - lo) * u (Box.sample's arithmetic).  When
    j % 3 == 2 (j counts the fill only), the last entry u gives the exponent
    e = 1 + floor(11 u) in 1..11, and y moves to x + (y - x) * 2**-e.  So a
    smaller budget's fill is a prefix of a larger one's, whatever the head
    length.  The head rows are read from the cached schedule, and head and
    fill are written into one array per field.
    """
    _at_least_one(budget=budget)
    d = box.dim
    head = dyadic_small_gap_triples(box)
    h = min(len(head), budget)
    u = np.random.default_rng(seed).random((budget - h, 2 * d + 2))
    x, y, lam = np.empty((budget, d)), np.empty((budget, d)), np.empty(budget)
    x[:h], y[:h], lam[:h] = head.x[:h], head.y[:h], head.lam[:h]
    width = box.hi - box.lo
    x[h:] = box.lo + width * u[:, :d]
    y[h:] = box.lo + width * u[:, d : 2 * d]
    lam[h:] = u[:, 2 * d]
    # fill triple j is row h + j
    exponents = 1 + (11.0 * u[2::3, -1]).astype(np.int64)
    x_c = x[h + 2 :: 3]
    y[h + 2 :: 3] = x_c + (y[h + 2 :: 3] - x_c) * np.ldexp(1.0, -exponents)[:, None]
    return Triples(x=x, y=y, lam=lam, structured=h)


# multiplier on eps*(1 + ||f(x+th)|| + ||f(x)||)/t covering the rounding
# error of one difference quotient; 32 dominates the worst per-evaluation
# error of the testbed families (~15 ulp) with a factor-two cushion
_FP_SAFETY = 32.0
_EPS = float(np.finfo(float).eps)


def _magnitude_scale(a, b=0.0, step=None):
    """The one scoring rule of every margin kernel: 1 + a + b, summed left
    to right, for the norms a and b of the values a margin compares.  A slack
    plus its allowances is divided by it, so tolerances mean the same thing
    for large-magnitude families.  With a step t it is instead the rounding
    allowance of a difference quotient at t whose two values have norms a
    and b: _FP_SAFETY * _EPS of the scale per unit step."""
    scale = 1.0 + a + b
    return scale if step is None else _FP_SAFETY * _EPS * scale / step


def _allowance_coef(form: str, constant: float, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """constant * c(lam) for the min or lambda form, with mu = 1 - lam;
    spec.constant(form) has rejected any other form."""
    if form == "min":
        return constant * np.minimum(lam, mu)
    return constant * lam * mu


def _segment_values(f: VectorMapping, x: np.ndarray, y: np.ndarray, lam: np.ndarray, mu: np.ndarray):
    """The points [x; y; mid] of n triples, mid = lam*x + mu*y their segment
    points (mu = 1 - lam, which the caller computes once), and f at them
    from one batch: two blocks of 3n rows."""
    mid = lam[:, None] * x + mu[:, None] * y
    points = np.concatenate([x, y, mid])
    return points, f.eval_batch(points)


def _margins(f: VectorMapping, spec: ParaSpec, rows, form: str, x, y, lam) -> np.ndarray:
    """Worst scalar slack of every triple (x_i, y_i, lam_i), shape (n,).

    slack_j = lam*row_j(fx) + (1-lam)*row_j(fy) + coef*row_j(k) - row_j(fmid),
    the worst over j divided by _magnitude_scale(||fx||, ||fy||) in the
    codomain norm, with no rounding allowance; coef = c(lam) *
    modulus(||x - y||).  With rows None the rows are the spec cone's own:
    the values come from cone_values and spec.row_k, so the orthant reads
    its closed form.  Given rows (scalarize_check's functionals) go through
    matvec_rows, cone_values' general path, the same bits on the cone's
    unit rows, identity rows read there as values + 0.0 whatever the spec
    cone.  Products and norms are taken row by row (row_norms), and the worst
    slack by row_reduce, so a triple's margin is the same bits in any batch.
    That lets one pass of each serve the whole batch: one projection of the
    3n values [fx; fy; fmid] of _segment_values' block and one norm of its
    first 2n rows.  1 - lam is computed once and serves the segment points,
    c(lam) and the slack.  The direct, scalarized and falsifying checks all
    use this kernel, so they agree bitwise on identical rows.  With no rows
    every slack is 0.
    """
    n = lam.shape[0]
    mu = 1.0 - lam
    _, values = _segment_values(f, x, y, lam, mu)
    coef = _allowance_coef(form, spec.constant(form), lam, mu) * eval_modulus(spec.modulus, row_norms(x - y, f.domain_norm))
    if rows is None:
        proj, row_k = cone_values(spec.cone, values), spec.row_k
    else:
        proj, row_k = matvec_rows(rows, values), matvec_rows(rows, spec.k[None])[0]
    if not proj.shape[1]:
        return np.zeros(n)
    size = row_norms(values[: 2 * n], f.codomain_norm)
    raw = lam[:, None] * proj[:n] + mu[:, None] * proj[n : 2 * n] + coef[:, None] * row_k
    raw -= proj[2 * n :]
    # dividing by a positive scale is monotone, so the min can come first
    return row_reduce(raw) / _magnitude_scale(size[:n], size[n:])


def _check_rows(
    f: VectorMapping,
    spec: ParaSpec,
    rows,
    form: str,
    budget: int,
    seed: int,
    tol: float,
    triples,
) -> CheckReport:
    _require_tol(tol=tol)
    _require_fit(f, spec)
    triples = sample_triples(f.domain, budget, seed) if triples is None else _as_triples(triples)
    margins = _margins(f, spec, rows, form, triples.x, triples.y, triples.lam)
    return worst_report(
        margins, tol, lambda i: triples[i], samples_used=len(triples), seed=seed, notes=f"form={form}"
    )


def check_inequality(
    f: VectorMapping,
    spec: ParaSpec,
    form: str = "min",
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    triples=None,
) -> CheckReport:
    """Direct test of the cone inequality on sampled triples.

    For each triple the slack lam*f(x) + (1-lam)*f(y) + c(lam)*modulus(gap)*k
    - f(segment point) is pushed through the unit supporting functionals;
    the check passes when every scalar slack clears -tol (relative scale).
    c(lam) is C*min(lam, 1-lam) in the min form, C1*lam*(1-lam) otherwise.
    triples may be a Triples record or any sequence of SampleTriple.
    """
    return _check_rows(f, spec, None, form, budget, seed, tol, triples)


def scalarize_check(
    f: VectorMapping,
    spec: ParaSpec,
    functionals,
    form: str = "min",
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    triples=None,
) -> CheckReport:
    """Scalar relaxed convexity of y*(f) with constant scaled by y*(k), for
    each supplied functional from the dual cone.

    functionals are rows of the cone's dimension, each audited in one
    _audit_dual call against every generator of the spec cone (a row
    negative on one raises), then scaled to unit length by the same
    unit_rows that unit_dual_generators uses (scalar relaxed convexity is
    invariant under positive scaling); the zero functional is legal and
    contributes an identically zero slack, but an empty list certifies
    nothing and raises.  Rows already unit are used as given, so when the
    functionals are the cone's unit supporting rows this computes
    check_inequality's arithmetic, slack for slack.
    """
    rows = _coerce_rows(functionals, spec.cone.dim, "functionals", allow_zero_rows=True)
    if not rows.shape[0]:
        raise ValueError("scalarize_check needs at least one functional")
    _audit_dual(ensure_generators(spec.cone), rows)
    return _check_rows(f, spec, unit_rows(rows), form, budget, seed, tol, triples)


def falsify(
    f: VectorMapping,
    spec: ParaSpec,
    form: str = "min",
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    refine: bool = True,
) -> CheckReport:
    """Search for a violating triple; passes only when the budget runs out.

    The scan checks sample_triples' budget: the deterministic dyadic schedule
    first, then seeded random triples.  A found violation is sharpened by
    _pattern_search in two passes: coordinate steps on x, y and lam, then,
    from that result, paired steps that move x and y together and apart
    along each axis.  The second pass keeps only strict improvements, so it
    never returns a shallower witness than the first.  Each pass costs one
    kernel call per accepted move plus one: the call evaluates every
    candidate the pass would try before its next accepted move, the rest of
    the current round, its repeat when the round has improved, then a whole
    round per halved step.  Each pass reads its plan, built once per box
    and pass, not per call (_search_plan): its moves scaled at each of the
    16 steps 0.05 * 2**-j of its ladder, in one table, and every call's
    candidates are one slice of it, or two (see _pattern_search).  A tol
    that is not finite and at least 0 raises ValueError before any
    evaluation, as in every check.  Every margin comes from the kernel
    check_inequality uses, and a triple's margin does not depend on its
    batch, so a reported failure replays identically under
    check_inequality(triples=[witness]).
    """
    _require_tol(tol=tol)
    _require_fit(f, spec)
    triples = sample_triples(f.domain, budget, seed)
    margins = _margins(f, spec, None, form, triples.x, triples.y, triples.lam)
    idx = int(np.argmin(margins))
    worst, witness = float(margins[idx]), triples[idx]
    source = "structured-dyadic" if idx < triples.structured else "random"

    def objective(x, y, lam):
        return _margins(f, spec, None, form, x, y, lam)

    if worst < -tol and refine:
        found = (triples.x[idx], triples.y[idx], triples.lam[idx], worst)
        for moves in (_coordinate_moves, _paired_moves):
            found = _pattern_search(f.domain, objective, found, moves)
        x, y, lam, refined_margin = found
        if refined_margin < worst:  # keep only a strictly sharper violation
            witness, worst = SampleTriple(x=x.copy(), y=y.copy(), lam=float(lam)), float(refined_margin)
            source += "+refined"
    return CheckReport(
        worst_margin=float(worst),
        witness=witness,
        samples_used=len(triples),
        tol=tol,
        seed=seed,
        notes=f"form={form}; witness source: {source}" if worst < -tol else f"form={form}; no violation at budget",
    )


def _coordinate_moves(width: np.ndarray):
    """Unit moves (dx, dy, dlam) of the coordinate pass, one row per
    candidate: for each axis and sign the x move, then the y move; then lam
    up and down.  An axis move spans the box width along that axis."""
    d = width.shape[0]
    n = 4 * d + 2
    dx, dy, dlam = np.zeros((n, d)), np.zeros((n, d)), np.zeros(n)
    for axis in range(d):
        for s, sign in enumerate((1.0, -1.0)):
            row = 4 * axis + 2 * s
            dx[row, axis] = dy[row + 1, axis] = sign * width[axis]
    dlam[-2:] = (1.0, -1.0)
    return dx, dy, dlam


def _paired_moves(width: np.ndarray):
    """Unit moves of the polish pass: for each axis and sign, x and y moved
    together, then moved apart (x by the move, y against it).  Moving apart
    changes the gap around a fixed midpoint, which coordinate steps on a
    kinked mapping cannot do."""
    d = width.shape[0]
    dx, dy = np.zeros((4 * d, d)), np.zeros((4 * d, d))
    for axis in range(d):
        for s, sign in enumerate((1.0, -1.0)):
            row = 4 * axis + 2 * s
            dx[row, axis] = dx[row + 1, axis] = dy[row, axis] = sign * width[axis]
            dy[row + 1, axis] = -sign * width[axis]
    return dx, dy, np.zeros(4 * d)


# the rungs of _pattern_search's step ladder: 0.05 * 2**-15 is the last step of at least 1e-6
_RUNGS = 16


@functools.lru_cache(maxsize=64)
def _search_plan(lo_bytes: bytes, hi_bytes: bytes, moves) -> tuple:
    """The plan of a _pattern_search pass over the box whose float64 bounds
    have these bytes, with the unit moves moves(width) builds
    (_coordinate_moves or _paired_moves): the lower and upper clip bounds of
    a candidate [x, y, lam], the box inset by 1e-9 of its width on each side
    and [0, 1] for lam; the table of the moves scaled at every rung, rung
    after rung; and the moves per round.  Built once per (lo, hi, moves);
    its arrays are read-only."""
    box_lo, box_hi = np.frombuffer(lo_bytes), np.frombuffer(hi_bytes)
    width = box_hi - box_lo
    inset = 1e-9 * width
    lo = np.concatenate([box_lo + inset, box_lo + inset, [0.0]])
    hi = np.concatenate([box_hi - inset, box_hi - inset, [1.0]])
    dx, dy, dlam = moves(width)
    n = dlam.shape[0]
    unit = np.hstack([dx, dy, dlam[:, None]])
    table = (np.ldexp(0.05, -np.arange(_RUNGS))[:, None, None] * unit).reshape(_RUNGS * n, unit.shape[1])
    lo.flags.writeable = hi.flags.writeable = table.flags.writeable = False
    return lo, hi, table, n


def _pattern_search(box: Box, objective, start, moves, rounds: int = 50):
    """Minimize objective(x, y, lam) over the candidate moves, clipped to the
    open box and [0, 1]; start and the result are (x, y, lam, value).

    moves builds the unit moves (dx, dy, dlam) from the box width
    (_coordinate_moves or _paired_moves); each round scales them by its
    step, which starts at 0.05 and halves after a round without an
    improvement, down to 1e-6; at most `rounds` rounds run.  The result is
    that of trying the candidates one at a time in table order and moving
    to each one that strictly beats the best, with the best moving in the
    middle of a round.

    The steps form a ladder of 16 rungs, 0.05 * 2**-j for j = 0..15, the
    last at least 1e-6; halving is exact, so a rung is the bits of repeated
    halving.  The pass reads its plan, built once per box and moves
    (_search_plan): the clip bounds and one table of the moves scaled at
    every rung, rung after rung.  Until the next accepted move, the
    candidates that loop tries from the current best are fixed in advance,
    and they are rows of that table, in order: the rest of the current
    round; the same round again at this rung if this round has already
    improved; then one whole round per lower rung, never more rounds than
    the cap leaves.  So each batch is one slice of the table, or two when
    the round repeats, added to the best, clipped as np.clip defines it
    (np.minimum of np.maximum) and evaluated in one call.  The first row
    that beats the best (argmax of the mask) is the next accepted move, and
    its table row gives its rung and move.  A triple's margin does not
    depend on its batch, so this is the one-at-a-time result bit for bit,
    at one objective call per accepted move plus one, each of at most 17
    rounds of rows.
    """
    lo, hi, table, n = _search_plan(box.lo.tobytes(), box.hi.tobytes(), moves)
    x, y, lam, val = start
    d = x.shape[0]
    best = np.concatenate([x, y, [lam]])
    # the current round: its rung, its first untried move, and the rounds before it
    rung, first, done, improved = 0, 0, 0, False
    while done < rounds:
        # rounds after the current one start at this rung when it repeats
        after = rung + (not improved)
        last = after + min(_RUNGS - after, rounds - done - 1)  # one past the last rung planned
        start_row = rung * n + first
        if improved:
            batch = np.concatenate([table[start_row : (rung + 1) * n], table[after * n : last * n]])
        else:
            batch = table[start_row : last * n]
        if not batch.shape[0]:
            break
        cand = np.minimum(np.maximum(best + batch, lo), hi)
        vals = objective(cand[:, :d], cand[:, d : 2 * d], cand[:, 2 * d])
        better = vals < val
        j = int(better.argmax())
        if not better[j]:
            break
        head = (rung + 1) * n - start_row  # rows left in the current round
        if j < head:
            row = start_row + j
        else:
            done += 1 + (j - head) // n  # the current round and the whole rounds before row j
            row = after * n + (j - head)
        best, val = cand[j], float(vals[j])
        rung, first, improved = row // n, row % n + 1, True
    return best[:d], best[d : 2 * d], best[2 * d], val


def check_fact2(
    f: VectorMapping,
    spec: ParaSpec,
    y_star,
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Midpoint convexity of g(x) = y*(f(x)) + C*scale*||x||^2 * y*(k).

    Only meaningful for the square-gap modulus with the euclidean domain
    norm, where the parallelogram identity makes g convex exactly when the
    scalarized map satisfies the lam-form inequality.  The slack here is the
    raw midpoint defect g(x)/2 + g(y)/2 - g(midpoint), absolute tolerance.
    y_star is an array of the cone's dimension, audited by dual_functional:
    one negative on a generator of the spec cone raises.
    """
    _require_tol(tol=tol)
    _require_fit(f, spec)
    if spec.modulus.kind != "square":
        raise ValueError("midpoint-convexity test needs the square-gap modulus")
    if f.domain_norm != "two":
        raise ValueError("midpoint-convexity test needs the euclidean domain norm")
    coeffs = dual_functional(spec.cone, y_star)
    # the parallelogram identity matches the lam-weighted form exactly
    c_lam = spec.C1 if spec.C1 is not None else 2.0 * spec.C
    c_eff = c_lam * spec.modulus.scale * float(coeffs @ spec.k)

    triples = sample_triples(f.domain, budget, seed)
    x, y, n = triples.x, triples.y, len(triples)
    # lam = 1/2 puts the segment point at the midpoint 0.5*(x + y), exactly
    half = np.full(n, 0.5)
    points, values = _segment_values(f, x, y, half, half)
    # g at [x; y; mid] in one pass each of the row products
    g = matvec_rows(coeffs[None, :], values)[:, 0] + c_eff * row_dots(points, points)
    slack = 0.5 * g[:n] + 0.5 * g[n : 2 * n] - g[2 * n :]
    return worst_report(
        slack,
        tol,
        lambda i: SampleTriple(x=x[i].copy(), y=y[i].copy(), lam=0.5),
        samples_used=x.shape[0],
        seed=seed,
        notes="midpoint convexity of the shifted scalarization",
    )


def _ball_pairs(f: VectorMapping, x0: np.ndarray, delta: float, budget: int, rng) -> tuple:
    """budget pairs (x, y) of the domain-norm ball around x0 with their lam,
    as arrays: first the d + 1 maximal-gap probes x0 -/+ r_in * u along the
    axes and the diagonal, with lam 1/2, where r_in is just inside delta;
    then the kept candidates in stream order.

    A candidate is a row of rng.random((block, 2d + 1)): v, then w (each
    -delta + 2*delta*u, as rng.uniform(-delta, delta) makes them), then lam.
    It is kept as (x0 + v, x0 + w, lam) when both v and w lie within r_in.
    Blocks of about twice the budget's rows are drawn until enough pairs are
    kept; rows are read in stream order whatever the block size, so a smaller
    budget's pairs are a prefix of a larger one's.  rng is the caller's own,
    so the overdraw is harmless.
    """
    d = f.domain.dim
    r_in = delta * (1.0 - 1e-9)
    # maximal-gap probes first: the failure mode lives at gap close to 2*delta
    dirs = np.vstack([np.eye(d), np.ones(d) / math.sqrt(d)])
    units = dirs / row_norms(dirs, f.domain_norm)[:, None]
    xs, ys, lams = [x0 - r_in * units], [x0 + r_in * units], [np.full(d + 1, 0.5)]
    low, width = -float(delta), float(delta) - -float(delta)  # rng.uniform's low and high - low
    kept, block = d + 1, 2 * max(budget - d - 1, 8)
    while kept < budget:
        u = rng.random((block, 2 * d + 1))
        v, w = low + width * u[:, :d], low + width * u[:, d : 2 * d]
        keep = (row_norms(v, f.domain_norm) <= r_in) & (row_norms(w, f.domain_norm) <= r_in)
        xs.append(x0 + v[keep])
        ys.append(x0 + w[keep])
        lams.append(u[keep, 2 * d])
        kept += int(np.count_nonzero(keep))
    return np.concatenate(xs)[:budget], np.concatenate(ys)[:budget], np.concatenate(lams)[:budget]


def check_approx_convex(
    f: VectorMapping,
    x0,
    epsilon: float,
    delta: float,
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Approximate convexity of a scalar mapping near x0: inside the delta
    ball the convexity defect may not exceed epsilon*lam*(1-lam)*||x - y||,
    for epsilon >= 0 and delta > 0 (_require_tol)."""
    if f.codomain_dim != 1:
        raise ValueError("approximate-convexity test is defined for scalar mappings")
    _require_tol(epsilon=epsilon, tol=tol)
    _require_tol(positive=True, delta=delta)
    _at_least_one(budget=budget)
    x0 = _domain_point(f, x0, "ball center")
    # the domain-norm ball sits inside the sup box of the same radius, so its
    # corners x0 -/+ delta inside the open box suffice (exact for the sup norm)
    if not f.domain.inside(np.stack([x0 - delta, x0 + delta])).all():
        raise ValueError(f"{f.label}: ball of radius {delta} around {x0.tolist()} escapes the open domain")
    x, y, lam = _ball_pairs(f, x0, delta, budget, np.random.default_rng(seed))
    mu = 1.0 - lam
    gx, gy, gm = np.split(_segment_values(f, x, y, lam, mu)[1][:, 0], 3)
    gap = row_norms(x - y, f.domain_norm)
    slack = lam * gx + mu * gy + epsilon * lam * mu * gap - gm
    return worst_report(
        slack,
        tol,
        lambda i: SampleTriple(x=x[i], y=y[i], lam=float(lam[i])),
        samples_used=budget,
        seed=seed,
        notes=f"epsilon={epsilon}, delta={delta}",
    )


def check_vector_lipschitz(
    f: VectorMapping,
    spec: ParaSpec,
    region: Box,
    budget: int = 512,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Estimate the smallest L with -L*||u-x||*k <= f(u)-f(x) <= L*||u-x||*k
    on sampled pairs of region, reported as extras["L"].

    The pairs (x, u) are max(budget // 2, 8) seeded draws with u != x, then
    two deterministic short-gap pairs near the box corners.  L is the largest
    |y(f(u)-f(x))| / (||u-x|| * y(k)) over the pairs and the unit rows y, inf
    when a row that vanishes on k does not vanish on the difference, so the
    order-form margins are at least 0 on every sampled pair, up to rounding:
    the report is an estimate of L, not a certificate.  A cone that is not
    pointed raises ValueError before any evaluation.
    """
    _require_tol(tol=tol)
    _at_least_one(budget=budget)
    if not spec.cone.pointed:
        raise ValueError(f"the Lipschitz estimate needs a pointed cone, and {spec.cone!r} is not pointed")
    _domain_region(f, region)
    rng = np.random.default_rng(seed)
    n_pairs = max(budget // 2, 8)
    xs, ys = region.sample(n_pairs, rng), region.sample(n_pairs, rng)
    width = region.hi - region.lo
    corners = region.lo + np.array([[0.05], [0.95]]) * width
    distinct = row_norms(xs - ys, f.domain_norm) > 0.0
    x = np.concatenate([xs[distinct], corners])
    u = np.concatenate([ys[distinct], corners + 0.01 * width * np.array([[1.0], [-1.0]])])
    values = f.eval_batch(np.concatenate([u, x]))
    row_k = spec.row_k
    gap = row_norms(u - x, f.domain_norm)
    size = np.abs(cone_values(spec.cone, values[: x.shape[0]] - values[x.shape[0] :]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(row_k > 1e-12, size / (gap[:, None] * np.maximum(row_k, 1e-300)), np.where(size > 0, np.inf, 0.0))
    big_l = float(ratios.max(initial=0.0))
    if not np.isfinite(big_l):
        return CheckReport(
            worst_margin=float("-inf"),
            witness=None,
            samples_used=x.shape[0],
            tol=tol,
            seed=seed,
            notes="no finite constant: some functional vanishes on k but not on a sampled difference",
        )

    # min(bound - y(df), bound + y(df)) per unit row
    margins = row_reduce((big_l * gap)[:, None] * row_k - size)
    return worst_report(
        margins,
        tol,
        lambda i: (x[i], u[i]),
        samples_used=x.shape[0],
        seed=seed,
        notes="vector sandwich",
        extras={"L": big_l},
    )
