"""Difference quotients, the monotone directional-derivative estimator, and
the differentiability test batteries.

Every check here reads one object: the corrected quotient
(f(x0+th) - f(x0))/t + C*modulus(t)/t * k, which the theory makes monotone
in the cone order as t decreases.  One kernel (_quotients) evaluates x0 and
x0 + t*h for a whole step array, or for a stack of directions with a step
row each, in one batch and returns the raw quotients, the modulus allowance
C*modulus(t)/t, the corrected quotients and the rounding allowance of each
step.  The trace, the estimator and the upper-bound check read one
direction's arrays; each battery (gateaux_test, check_sublinear,
frechet_test) stacks all its directions into one call.

The estimator stops at the first level of a geometric step grid where the
scalarized decrement between consecutive quotients, plus the vanishing
allowance term, plus the rounding allowance, drops below the requested
tolerance.  The theory guarantees the corrected quotients decrease
monotonically to the one-sided derivative but gives no rate, so the
reported error bound is the monotone-bracket width at the stopping index,
never an extrapolated rate claim.

Every error bound and linearity margin is in one measure, max_y |y(v)|
over the cone's unit rows y (_row_measure; the sup norm on an orthant).  It
is a norm exactly when the cone is pointed, so the estimator refuses others.

The rounding allowance matters: a difference quotient at step t carries
rounding error on the order of eps * ||f|| / t, which dwarfs any reasonable
tolerance once t is small enough.  Folding the allowance into every margin
keeps deep-grid checks honest (no false violations from cancellation) while
still detecting real violations, which are orders of magnitude larger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import _at_least_one, check_vector_lipschitz
from .geometry import (
    Box,
    as_point,
    base_of,
    cone_margins,
    cone_values,
    matvec_rows,
    norm,
    row_norms,
    strictly_positive_functional,
)
from .mappings import OutsideDomainError, VectorMapping, known_directional
from .modulus import ParaSpec, eval_modulus
from .reports import CheckReport, Report, worst_report

# multiplier on eps*(1 + ||f(x+th)|| + ||f(x)||)/t covering the rounding
# error of one difference quotient; 32 dominates the worst per-evaluation
# error of the testbed families (~15 ulp) with a factor-two cushion
_FP_SAFETY = 32.0
_EPS = float(np.finfo(float).eps)
# the step-grid factors on which positive homogeneity is tested (check_sublinear, gateaux_test)
_LAMBDAS = (0.5, 2.0)


class ConvergenceError(RuntimeError):
    """The quotient estimator could not reach the requested tolerance."""


def _quotient_noise(t, f_t_norm, f0_norm):
    """Rounding allowance of the quotient at step t, for one step or an array of them."""
    return _FP_SAFETY * _EPS * (1.0 + f_t_norm + f0_norm) / t


def _require_strong(spec: ParaSpec) -> None:
    """The quotients converge only under a strong modulus, modulus(t)/t -> 0,
    and the row measure of the bounds is blind along a line in the cone."""
    if not spec.modulus.strong:
        raise ValueError(f"the derivative estimator needs a strong modulus (modulus(t)/t -> 0), got {spec.modulus}")
    if not spec.cone.pointed:
        raise ValueError(f"the derivative estimator needs a pointed cone (unit rows spanning R^m), got {spec.cone!r}")


def _row_measure(values: np.ndarray) -> np.ndarray:
    """max_j |y_j(v)| over the unit rows, from cone_values: (..., r) -> (...)."""
    return np.abs(values).max(axis=-1, initial=0.0)


def _prep_direction(f: VectorMapping, x0, h):
    x0 = as_point(x0, f.domain.dim)
    if not f.domain.contains(x0):
        raise OutsideDomainError(f"{f.label}: base point outside the open domain")
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape != (f.domain.dim,):
        raise ValueError("direction dimension mismatch")
    hn = norm(h, f.domain_norm)
    if hn == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(hn - 1.0) > 1e-6:
        raise ValueError(f"direction must be unit in the domain norm, got length {hn}")
    return x0, h / hn


def _default_t0(f: VectorMapping, x0: np.ndarray, h: np.ndarray) -> float:
    return min(0.1, 0.5 * f.domain.boundary_distance(x0, h))


def _step_grid(f: VectorMapping, x0: np.ndarray, h: np.ndarray, t0: float | None, ratio: float, depth: int) -> np.ndarray:
    """The steps t0 * ratio^j for j = 0..depth-1, each power the C library pow
    of the float ratio ** j.  Every step must be positive and keep x0 + t*h
    in the open domain."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if depth < 2:
        raise ValueError("need at least two grid levels")
    bd = f.domain.boundary_distance(x0, h)
    if t0 is None:
        t0 = _default_t0(f, x0, h)
    if t0 <= 0.0 or t0 >= bd:
        raise ValueError(f"t0={t0} leaves the domain along h (boundary clearance {bd})")
    t_grid = t0 * np.float_power(ratio, np.arange(depth))
    if t_grid[-1] == 0.0:
        level = int(np.argmax(t_grid == 0.0))
        raise ValueError(f"ratio={ratio} underflows the step grid to t = 0 at depth {level} of {depth}")
    return t_grid


@dataclass(eq=False)
class QuotientTrace:
    """Difference quotients of f from x0 along a unit h at the steps t_grid.

    Row j holds raw[j] = (f(x0 + t_j*h) - f(x0))/t_j, the modulus allowance
    allowance[j] = C*modulus(t_j)/t_j, corrected[j] = raw[j] + allowance[j]*k
    exactly as computed, and noise[j], the rounding allowance of raw[j].
    f0 is f(x0)."""

    h: np.ndarray
    t_grid: np.ndarray
    raw: np.ndarray
    allowance: np.ndarray
    corrected: np.ndarray
    noise: np.ndarray
    f0: np.ndarray
    spec: ParaSpec


def _quotients(f: VectorMapping, spec: ParaSpec, x0: np.ndarray, h: np.ndarray, t: np.ndarray) -> QuotientTrace:
    """The quotients at every step of t from one batch of x0 and x0 + t*h:
    one direction h with steps t of shape (n,), or k directions h of shape
    (k, d) with a row of steps each, t of shape (k, n).  A row's quotients
    are bitwise the same however many rows are stacked with it.  x0 and h
    are taken as given (see _prep_direction)."""
    steps = x0 + t[..., None] * h[..., None, :]
    values = f.eval_batch(np.concatenate([x0[None, :], steps.reshape(-1, x0.size)]))
    f0, fvals = values[0], values[1:]
    raw = (fvals.reshape(t.shape + f0.shape) - f0) / t[..., None]
    allowance = spec.min_constant() * eval_modulus(spec.modulus, t) / t
    return QuotientTrace(
        h=h,
        t_grid=t,
        raw=raw,
        allowance=allowance,
        corrected=raw + allowance[..., None] * spec.k,
        noise=_quotient_noise(t, row_norms(fvals).reshape(t.shape), norm(f0, "two")),
        f0=f0,
        spec=spec,
    )


def _row(q: QuotientTrace, i: int) -> QuotientTrace:
    """Direction i of a stacked trace."""
    return QuotientTrace(q.h[i], q.t_grid[i], q.raw[i], q.allowance[i], q.corrected[i], q.noise[i], q.f0, q.spec)


def build_trace(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    t0: float | None = None,
    ratio: float = 0.5,
    depth: int = 40,
) -> QuotientTrace:
    """Evaluate quotients at t0 * ratio^j for j = 0..depth-1.

    The direction must be admissible: x0 + t0*h stays in the open domain,
    which holds for the default t0 (half the boundary clearance, capped at
    0.1) at any interior point.
    """
    x0, h = _prep_direction(f, x0, h)
    return _quotients(f, spec, x0, h, _step_grid(f, x0, h, t0, ratio, depth))


def check_alpha_monotone(trace: QuotientTrace, tol: float = 1e-9) -> CheckReport:
    """Monotonicity of the corrected quotients along the grid.

    Writing the finer step as a chord point of the coarser one, the
    inequality transfers exactly to quotient(t1) <= quotient(t) +
    C*modulus(t)/t * k in the cone order for t1 < t, with the allowance at
    the coarser step.  So for every grid pair the quantity corrected(t) -
    raw(t1) must lie in the cone; margins are scalarized through the unit
    supporting functionals, inflated by the rounding allowance of both
    quotients, and scaled by the quotient magnitudes.
    """
    # quantity[a, b] = corrected[a] - raw[b] for t_a > t_b (a < b)
    margins = cone_margins(trace.spec.cone, trace.corrected[:, None, :] - trace.raw[None, :, :])
    raw_norms = np.linalg.norm(trace.raw, axis=1)
    scale = 1.0 + raw_norms[:, None] + raw_norms[None, :]
    adjusted = (margins + trace.noise[:, None] + trace.noise[None, :]) / scale
    ia, ib = np.triu_indices(trace.t_grid.size, k=1)
    return worst_report(
        adjusted[ia, ib],
        tol,
        lambda i: (float(trace.t_grid[ia[i]]), float(trace.t_grid[ib[i]])),
        samples_used=int(ia.size),
        notes="grid-pair monotonicity of corrected quotients, rounding allowance included",
    )


@dataclass
class DerivativeEstimate:
    """Output of the quotient estimator.  When converged is True the error
    bound (bracket decrement + allowance terms, in the row measure) is at
    most the requested tolerance; value is the raw quotient at t_used."""

    value: np.ndarray
    error_bound: float
    t_used: float
    iterations: int
    converged: bool
    cancellation_warning: bool = False


def _stop(q: QuotientTrace, x0: np.ndarray, tol: float) -> DerivativeEstimate:
    """The estimator's stop rule on one direction's trace.

    It stops at the first grid level where, across all unit supporting
    functionals, the quotient decrement plus the allowance term
    C*modulus(t)/t * y(k) plus the rounding allowance of both quotients
    falls below tol.  Without a stop, the first level with the smallest such
    bracket (the deepest level when no bracket is finite) is reported with
    converged False.
    """
    top_row_k = float(cone_values(q.spec.cone, q.spec.k).max(initial=0.0))
    # bounds[j - 1] closes the bracket between levels j - 1 and j
    decrement = _row_measure(cone_values(q.spec.cone, q.raw[:-1] - q.raw[1:]))
    bounds = decrement + q.allowance[:-1] * top_row_k + q.noise[:-1] + q.noise[1:]
    below = np.flatnonzero(bounds < tol)
    finite = bounds < np.inf  # a NaN or infinite bracket is never the smallest
    if below.size:
        level = int(below[0]) + 1
    elif finite.any():
        level = int(np.argmin(np.where(finite, bounds, np.inf))) + 1
    else:
        level = q.t_grid.size - 1
    t_used = float(q.t_grid[level])
    return DerivativeEstimate(
        value=q.raw[level].copy(),
        error_bound=float(bounds[level - 1]) if finite.any() else np.inf,
        t_used=t_used,
        iterations=level + 1,
        converged=bool(below.size),
        cancellation_warning=bool(t_used < 1e-8 * norm(x0, "two")),
    )


def directional_derivative(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    tol: float = 1e-6,
    t0: float | None = None,
    ratio: float = 0.5,
    max_depth: int = 40,
) -> DerivativeEstimate:
    """One-sided derivative along h by monotone quotient descent: the stop
    rule (_stop) on the grid t0 * ratio^j, j = 0..max_depth-1, evaluated in
    one batch.  iterations is the stop level counted from one, not the
    number of evaluations, which is always max_depth + 1.  A modulus that is
    not strong, or a cone that is not pointed, raises ValueError before any
    evaluation: without modulus(t)/t -> 0 the corrected quotients need not
    converge, and the stop rule's row measure cannot see along a line in
    the cone.
    """
    _require_strong(spec)
    x0, h = _prep_direction(f, x0, h)
    return _stop(_quotients(f, spec, x0, h, _step_grid(f, x0, h, t0, ratio, max_depth)), x0, tol)


def check_upper_bound(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    estimate: DerivativeEstimate,
    t_samples=None,
    n_samples: int = 12,
    tol: float = 1e-9,
) -> CheckReport:
    """The derivative never exceeds any corrected quotient above it:
    raw(t) + C*modulus(t)/t * k - estimate.value stays in the cone for
    sampled t between the estimator's stopping step and the default top
    step.  Below the stopping step the estimate's own resolution would
    dominate, so that range is deliberately not sampled.
    """
    if not estimate.converged:
        raise ValueError("upper-bound check needs a converged estimate")
    x0, h = _prep_direction(f, x0, h)
    if t_samples is None:
        _at_least_one(n_samples=n_samples)
        top = _default_t0(f, x0, h)
        lo, hi = min(estimate.t_used, top), max(estimate.t_used, top)
        t_samples = np.geomspace(lo, hi, n_samples)
    t_samples = np.asarray(sorted(set(float(t) for t in t_samples)))
    if not t_samples.size:
        raise ValueError("t_samples must name at least one step")
    bd = f.domain.boundary_distance(x0, h)
    if t_samples[0] <= 0.0 or t_samples[-1] >= bd:
        raise ValueError("t samples must stay strictly inside the admissible range")
    q = _quotients(f, spec, x0, h, t_samples)
    f0n = norm(q.f0, "two")
    dn = norm(estimate.value, "two")
    allow_used = _quotient_noise(estimate.t_used, dn * estimate.t_used + f0n, f0n)
    margins = cone_margins(spec.cone, q.corrected - estimate.value)
    adjusted = (margins + q.noise + allow_used) / (1.0 + row_norms(q.raw) + dn)
    return worst_report(
        adjusted,
        tol,
        lambda i: float(t_samples[i]),
        samples_used=int(t_samples.size),
        notes="derivative below every corrected quotient on the sampled steps",
    )


def _scaled_top(f: VectorMapping, x0: np.ndarray, h0: np.ndarray, lam: float) -> float:
    """Top step of the lam-scaled grid along h0 that homogeneity re-estimates on."""
    if lam <= 0.0:
        raise ValueError("homogeneity factors must be positive")
    return min(lam * _default_t0(f, x0, h0), 0.49 * f.domain.boundary_distance(x0, h0))


def _estimates(f: VectorMapping, spec: ParaSpec, x0: np.ndarray, vectors: list, tol: float, tops: list) -> list:
    """Estimates along directions of any positive length from one batch.

    Each vector v = c*u is estimated along the unit u on the default grid,
    topped at tops[i] (None for the default top), and the exact
    reparameterization quotient(t, c*u) = quotient(c*t, u) gives (c*value,
    c*error bound, estimate); a vector of length at most 1e-12 gets a zero
    value and no estimate.  Every grid goes into one _quotients call and the stop rule
    reads each row; the first vector in list order whose estimate does not
    converge raises ConvergenceError.  A modulus that is not strong, or a
    cone that is not pointed, raises ValueError before any evaluation.
    """
    _require_strong(spec)
    lengths = [norm(np.asarray(v, dtype=float), f.domain_norm) for v in vectors]
    kept = [i for i, ln in enumerate(lengths) if ln > 1e-12]
    units = [_prep_direction(f, x0, np.asarray(vectors[i], dtype=float) / lengths[i])[1] for i in kept]
    grids = [_step_grid(f, x0, h, tops[i], 0.5, 40) for i, h in zip(kept, units)]
    q = _quotients(f, spec, x0, np.array(units), np.array(grids)) if kept else None
    out = [(np.zeros(f.codomain_dim), 0.0, None)] * len(vectors)
    for j, i in enumerate(kept):
        est = _stop(_row(q, j), x0, tol)
        if not est.converged:
            along = np.asarray(vectors[i]).tolist()
            raise ConvergenceError(f"{f.label}: estimator did not reach tol={tol} along {along}")
        out[i] = (lengths[i] * est.value, lengths[i] * est.error_bound, est)
    return out


def _battery_estimates(f: VectorMapping, spec: ParaSpec, x0: np.ndarray, vectors: list, tol: float) -> tuple:
    """The vectors' values, error bounds and estimates from one _estimates
    batch that also re-estimates vectors[0] on each lam-scaled grid, and per
    lam the homogeneity excess (|lam*D_lam - lam*D| - lam*(e + e_lam)) /
    max(1, lam) in the row measure."""
    h0 = np.asarray(vectors[0], dtype=float)
    tops = [None] * len(vectors) + [_scaled_top(f, x0, h0, lam) for lam in _LAMBDAS]
    ests = _estimates(f, spec, x0, vectors + [h0] * len(_LAMBDAS), tol, tops)
    vals, errs, n = np.array([v for v, _, _ in ests]), np.array([e for _, e, _ in ests]), len(vectors)
    lams = np.array(_LAMBDAS, dtype=float)
    diff = _row_measure(cone_values(spec.cone, lams[:, None] * vals[n:] - lams[:, None] * vals[0]))
    excess = (diff - lams * (errs[0] + errs[n:])) / np.maximum(1.0, lams)
    return vals[:n], errs[:n], [est for _, _, est in ests[:n]], excess


def check_sublinear(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    direction_pairs=None,
    tol: float = 1e-6,
    seed: int = 0,
) -> CheckReport:
    """Subadditivity in the cone order plus positive homogeneity.

    Subadditivity margin: y(D(h1) + D(h2) - D(h1+h2)) plus the three
    estimate error bounds, per unit supporting functional.  Homogeneity is
    exercised as schedule independence: the derivative recomputed on a
    lam-scaled step grid must match lam times the original within
    tol*max(1, lam) plus scaled error bounds, in the row measure.  Every
    estimate comes from one batch (_battery_estimates).
    """
    x0 = as_point(x0, f.domain.dim)
    d = f.domain.dim
    if direction_pairs is None:
        rng = np.random.default_rng(seed)
        if d == 1:
            direction_pairs = [(np.array([1.0]), np.array([-1.0])), (np.array([1.0]), np.array([1.0]))]
        else:
            draws = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(3)]
            direction_pairs = [(a / norm(a, f.domain_norm), b / norm(b, f.domain_norm)) for a, b in draws]
    direction_pairs = list(direction_pairs)
    if not direction_pairs:
        raise ValueError("direction_pairs must name at least one pair")
    # (h1, h2, h1 + h2) per pair
    vectors = [v for h1, h2 in direction_pairs for v in (h1, h2, np.asarray(h1) + np.asarray(h2))]
    vals, errs, _, excess = _battery_estimates(f, spec, x0, vectors, tol)
    # subadditivity per pair: the cone margin of D(h1) + D(h2) - D(h1 + h2) plus the three error bounds
    sub = cone_margins(spec.cone, vals[0::3] + vals[1::3] - vals[2::3]) + (errs[0::3] + errs[1::3] + errs[2::3])
    witnesses = [(np.asarray(h1), np.asarray(h2)) for h1, h2 in direction_pairs]
    witnesses += [("homogeneity", lam) for lam in _LAMBDAS]
    return worst_report(
        np.concatenate([sub, -excess]),  # homogeneity per factor: the negated excess
        tol,
        lambda i: witnesses[i],
        samples_used=len(direction_pairs) + len(_LAMBDAS),
        seed=seed,
        notes="cone subadditivity and positive homogeneity of the estimated derivative",
    )


@dataclass
class GateauxReport(Report):
    """Linearity battery at one point: antisymmetry, additivity,
    homogeneity, and the Lipschitz continuity surrogate over antipodal
    direction pairs.  Each margin is the largest excess in the row measure
    after the estimator's error bounds, and defect is the largest of them
    floored at 0; passed is derived, exactly defect <= tol."""

    x0: np.ndarray
    passed: bool = field(init=False)
    defect: float
    margins: dict
    tol: float
    seed: int | None = None
    n_directions: int = 0
    notes: str = ""

    def __post_init__(self):
        self.passed = bool(self.defect <= self.tol)


def _unit_directions(f: VectorMapping, n_directions: int, seed: int) -> list:
    d = f.domain.dim
    if d == 1:
        return [np.array([1.0])]
    rng = np.random.default_rng(seed)
    dirs = [np.eye(d)[i] for i in range(d)]
    while len(dirs) < max(n_directions // 2, d):
        v = rng.normal(size=d)
        n2 = norm(v, f.domain_norm)
        if n2 > 1e-9:
            dirs.append(v / n2)
    return [u / norm(u, f.domain_norm) for u in dirs]


def gateaux_test(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    directions=None,
    n_directions: int = 8,
    tol: float = 1e-6,
    seed: int = 0,
) -> GateauxReport:
    """Estimate the derivative along paired directions and test linearity.

    Every sub-margin is an excess in the row measure max_y |y(v)| over the
    unit rows y (_row_measure), the measure of the estimates' error bounds,
    which it subtracts: antisymmetry |D(h) + D(-h)|, additivity
    |D(h1) + D(h2) - D(h1+h2)|, homogeneity as schedule independence at
    factors 1/2 and 2, and the continuity surrogate, per row y,
    |y(D(h) - D(-h))| <= (L*||h - (-h)|| + C*modulus(t*)/t*) * y(k), with L a
    sampled local Lipschitz constant (inflated by 1.1, and floored by
    |y(D)|/y(k), since a sampled supremum is a lower estimate).  So tol is in
    the row measure, the sup norm on a standard orthant.  Caller-given
    directions are scaled to unit domain norm, so a violation does not shrink
    with their length, and a zero one raises ValueError.  Estimator
    non-convergence along any direction propagates as ConvergenceError.  A
    modulus that is not strong or a cone that is not pointed raises
    ValueError; strong is necessary for convergence but not sufficient.
    """
    _at_least_one(n_directions=n_directions)
    x0 = as_point(x0, f.domain.dim)
    if not f.domain.contains(x0):
        raise OutsideDomainError(f"{f.label}: test point outside the open domain")
    if directions is None:
        base_dirs = _unit_directions(f, n_directions, seed)
    else:
        # the margins are positively homogeneous in the direction and tol is
        # absolute, so a short direction would shrink every violation
        base_dirs = [np.asarray(u, dtype=float) for u in directions]
        if not base_dirs:
            raise ValueError("directions must name at least one direction")
        if any(u.shape != (f.domain.dim,) for u in base_dirs):
            raise ValueError(f"directions must be vectors of length {f.domain.dim}")
        lengths = [norm(u, f.domain_norm) for u in base_dirs]
        if not all(0.0 < n < np.inf for n in lengths):
            raise ValueError("directions must be finite and nonzero")
        base_dirs = [u / n for u, n in zip(base_dirs, lengths)]

    # one batch: signed[2i] = +u_i and signed[2i + 1] = -u_i, then the additivity sums
    signed = [s * u for u in base_dirs for s in (1.0, -1.0)]
    pairs = [(0, 1)] if len(base_dirs) == 1 else [(2 * i, 2 * i + 2) for i in range(min(len(base_dirs) - 1, 4))]
    vectors = signed + [signed[a] + signed[b] for a, b in pairs]
    val, err, ests, homogeneity = _battery_estimates(f, spec, x0, vectors, tol)
    n, n_sig, (a, b) = len(base_dirs), len(signed), np.array(pairs).T
    plus, minus, e_pm = val[0:n_sig:2], val[1:n_sig:2], err[0:n_sig:2] + err[1:n_sig:2]
    # every row value from one call: the n antisymmetry sums, the n continuity
    # differences, the 2n signed derivatives, the additivity defects, then k
    stacked = [plus + minus, plus - minus, val[:n_sig], val[a] + val[b] - val[n_sig:], spec.k[None, :]]
    values = cone_values(spec.cone, np.concatenate(stacked))
    row_k = np.maximum(values[-1], 1e-300)

    # continuity surrogate over antipodal pairs, per unit row y in the order
    # form |y(D(u) - D(-u))| <= (L*||2u|| + C*modulus(t*)/t*) * y(k)
    region_r = min(0.05, 0.5 * f.domain.boundary_distance(x0))
    region = Box(lo=x0 - region_r, hi=x0 + region_r)
    lip = check_vector_lipschitz(f, spec, region, budget=128, seed=seed + 1)
    l_sampled = float(lip.extras["L"]) if lip.extras else 0.0
    l_used = max(1.1 * l_sampled, float((np.abs(values[2 * n : 4 * n]) / row_k).max(initial=0.0)))
    t_star = max(est.t_used for est in ests[:n_sig])
    allowance = spec.min_constant() * eval_modulus(spec.modulus, t_star) / t_star
    bound = l_used * row_norms(2.0 * np.array(base_dirs), f.domain_norm) + allowance

    margins = {
        "antisymmetry": _row_measure(values[:n]) - e_pm,
        "additivity": _row_measure(values[4 * n : -1]) - (err[a] + err[b] + err[n_sig:]),
        "homogeneity": homogeneity,
        "continuity": (np.abs(values[n : 2 * n]) - bound[:, None] * row_k - e_pm[:, None]).max(axis=1),
    }
    margins = {key: float(excess.max()) for key, excess in margins.items()}
    defect = max(0.0, max(margins.values()))
    return GateauxReport(
        x0=x0,
        defect=float(defect),
        margins=margins,
        tol=tol,
        seed=seed,
        n_directions=len(base_dirs) * 2,
        notes="linearity battery on estimated one-sided derivatives",
    )


@dataclass
class ScanReport(Report):
    """Sampled differentiability density over a region, with a confusion
    table against the declared kink set when the family has one."""

    region: Box
    density: float
    points: list
    passed: list
    defects: list
    confusion: dict | None
    n_points: int
    tol: float
    seed: int | None


def gateaux_scan(
    f: VectorMapping,
    spec: ParaSpec,
    region: Box,
    n_points: int = 100,
    n_directions: int = 8,
    tol: float = 1e-6,
    seed: int = 0,
    points=None,
    kink_match_tol: float = 1e-9,
) -> ScanReport:
    """Run the linearity battery at sampled (or supplied) points.

    Per-point seeds derive deterministically from (seed, index) so a
    parallel run would agree with the sequential one.  Estimator
    non-convergence at a point counts as a failed point, not an error; a
    modulus that is not strong or a cone that is not pointed raises
    ValueError.  defects are in the row measure (gateaux_test).
    When the family declares a one-dimensional kink set, the report carries
    the confusion table of predicted versus declared non-differentiability.
    """
    if np.any(region.lo < f.domain.lo) or np.any(region.hi > f.domain.hi):
        raise ValueError("scan region escapes the mapping domain")
    if points is None:
        points = region.sample(n_points, np.random.default_rng(seed)) if n_points > 0 else []
    points = [np.asarray(p, dtype=float).reshape(-1) for p in points]
    if not points:
        raise ValueError("the scan needs at least one point: a positive n_points or a non-empty points list")
    passed = []
    defects = []
    for idx, p in enumerate(points):
        sub_seed = (int(seed) * 1_000_003 + idx) & 0x7FFFFFFF
        try:
            rep = gateaux_test(f, spec, p, n_directions=n_directions, tol=tol, seed=sub_seed)
            passed.append(bool(rep.passed))
            defects.append(float(rep.defect))
        except ConvergenceError:
            passed.append(False)
            defects.append(float("inf"))
    density = float(np.mean(passed))
    confusion = None
    if f.kink_locus is not None and f.domain.dim == 1:
        locus = np.asarray(f.kink_locus, dtype=float)
        at_kink = [bool(locus.size and np.min(np.abs(locus - p[0])) <= kink_match_tol) for p in points]
        cells = list(zip(passed, at_kink))
        # a failed point at a declared kink is a true positive
        cell_of = {"tp": (False, True), "fp": (False, False), "fn": (True, True), "tn": (True, False)}
        confusion = {key: cells.count(cell) for key, cell in cell_of.items()}
    return ScanReport(
        region=region,
        density=density,
        points=points,
        passed=passed,
        defects=defects,
        confusion=confusion,
        n_points=len(points),
        tol=tol,
        seed=seed,
    )


@dataclass
class FrechetReport(Report):
    """Uniform-over-directions differentiability mechanics at one point.

    For each epsilon the report records the largest schedule step delta
    such that every sampled step below it keeps the residual functional
    value within epsilon; the residual itself must stay in the cone and its
    base reconstruction must respect the base radius.  passed is derived
    from those three; a failed precondition leaves the table empty."""

    x0: np.ndarray
    passed: bool = field(init=False)
    table: list
    residual_margin: float
    max_base_norm: float
    base_radius: float
    gateaux_defect: float
    tol: float
    seed: int | None = None
    notes: str = ""

    def __post_init__(self):
        every_delta = bool(self.table) and all(row["delta"] is not None for row in self.table)
        in_base = self.residual_margin >= -self.tol and self.max_base_norm <= self.base_radius + self.tol
        self.passed = bool(every_delta and in_base)


def frechet_test(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    epsilons=(1e-2, 1e-3),
    n_directions: int = 16,
    t_schedule=None,
    tol: float = 1e-6,
    seed: int = 0,
) -> FrechetReport:
    """Uniformity of quotient convergence over sampled unit directions.

    Per direction h and step t the residual r(t, h) = (f(x0+th) - f(x0))/t
    + C*modulus(t)/t * k - D(h) is checked for cone membership; its value
    under the strictly positive functional is lambda_t, and when lambda_t
    is above tol the base point r/lambda_t must respect the base radius.
    Each epsilon needs a schedule step delta with max-over-h lambda_t <=
    epsilon for every sampled step at or below delta.  D(h) is taken from
    the family's analytic oracle when present, otherwise from the
    estimator, whose error bound then joins the allowances.

    The linearity battery runs first; its failure is reported as a failed
    precondition rather than raised, but a modulus that is not strong or a
    cone that is not pointed raises ValueError.
    """
    x0 = as_point(x0, f.domain.dim)
    epsilons = list(epsilons)
    if not epsilons or not all(eps >= 0.0 for eps in epsilons):
        raise ValueError("epsilons must name at least one tolerance, each nonnegative")
    _at_least_one(n_directions=n_directions)
    e_star = strictly_positive_functional(spec.cone)
    base = base_of(spec.cone, e_star, norm_kind=f.codomain_norm)
    try:
        gtx = gateaux_test(f, spec, x0, n_directions=max(4, n_directions // 4), tol=tol, seed=seed)
        failed = None if gtx.passed else (gtx.defect, "the point is not a linearity point")
    except ConvergenceError as exc:
        failed = (float("inf"), str(exc))
    if failed is not None:
        return FrechetReport(
            x0=x0,
            table=[],
            residual_margin=float("-inf"),
            max_base_norm=float("nan"),
            base_radius=float(base.radius),
            gateaux_defect=failed[0],
            tol=tol,
            seed=seed,
            notes=f"precondition failed: {failed[1]}",
        )

    # antipodal pairs of sampled unit directions, at most max(n_directions, 2) in all
    dirs = [v for u in _unit_directions(f, max(n_directions, 2), seed) for v in (u, -u)][: max(n_directions, 2)]

    bd_min = min(f.domain.boundary_distance(x0, u) for u in dirs)
    if t_schedule is None:
        top = min(0.1, 0.5 * bd_min)
        t_schedule = top * 0.5 ** np.arange(20)
    t_schedule = np.asarray(sorted((float(t) for t in t_schedule), reverse=True))
    if not t_schedule.size:
        raise ValueError("t_schedule must name at least one step")
    if t_schedule[0] >= bd_min:
        raise ValueError("schedule step leaves the domain along a sampled direction")

    # D(h) from the oracle where there is one, else from one batch of estimates
    d_vals = [known_directional(f, x0, u) for u in dirs]
    d_errs = np.zeros(len(dirs))
    missing = [i for i, val in enumerate(d_vals) if val is None]
    estimated = _estimates(f, spec, x0, [dirs[i] for i in missing], tol, [None] * len(missing))
    for i, (val, err, _) in zip(missing, estimated):
        d_vals[i], d_errs[i] = val, err
    # every direction's residuals on the schedule from one batch, one row per (direction, step)
    q = _quotients(f, spec, x0, np.array(dirs), np.broadcast_to(t_schedule, (len(dirs), t_schedule.size)))
    r = (q.corrected - np.array(d_vals)[:, None, :]).reshape(-1, q.f0.size)
    allow = (q.noise + d_errs[:, None]).reshape(-1)
    residual_margin = float(np.min((cone_margins(spec.cone, r) + allow) / (1.0 + row_norms(r))))
    lam = matvec_rows(e_star.coeffs[None, :], r)[:, 0]
    big = lam > tol
    max_base_norm = float(np.max(row_norms(r[big] / lam[big, None], f.codomain_norm), initial=0.0))

    table = []
    max_lam_per_t = np.max(lam.reshape(len(dirs), -1), axis=0)
    for eps in epsilons:
        # largest step whose entire finer suffix stays within eps
        suffix_ok = np.logical_and.accumulate((max_lam_per_t <= eps)[::-1])[::-1]
        delta = float(t_schedule[np.argmax(suffix_ok)]) if suffix_ok.any() else None
        table.append({"epsilon": float(eps), "delta": delta, "max_lambda": float(np.max(max_lam_per_t))})
    return FrechetReport(
        x0=x0,
        table=table,
        residual_margin=float(residual_margin),
        max_base_norm=float(max_base_norm),
        base_radius=float(base.radius),
        gateaux_defect=gtx.defect,
        tol=tol,
        seed=seed,
        notes="uniform residual decomposition over sampled directions",
    )
