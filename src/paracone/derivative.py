"""Difference quotients, the monotone directional-derivative estimator, and
the differentiability test batteries.

Every check here reads one object: the corrected quotient
(f(x0+th) - f(x0))/t + C*modulus(t)/t * k, which the theory makes monotone
in the cone order as t decreases.  One kernel (_quotients) evaluates x0 and
x0 + t*h for a whole step array in one batch and returns the raw quotients,
the modulus allowance C*modulus(t)/t, the corrected quotients and the
rounding allowance of each step; the trace, the estimator, the upper-bound
check and the Frechet test all read those arrays.

The estimator stops at the first level of a geometric step grid where the
scalarized decrement between consecutive quotients, plus the vanishing
allowance term, plus the rounding allowance, drops below the requested
tolerance.  The theory guarantees the corrected quotients decrease
monotonically to the one-sided derivative but gives no rate, so the
reported error bound is the monotone-bracket width at the stopping index,
never an extrapolated rate claim.

The rounding allowance matters: a difference quotient at step t carries
rounding error on the order of eps * ||f|| / t, which dwarfs any reasonable
tolerance once t is small enough.  Folding the allowance into every margin
keeps deep-grid checks honest (no false violations from cancellation) while
still detecting real violations, which are orders of magnitude larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_vector_lipschitz
from .geometry import (
    Box,
    as_point,
    base_of,
    interior_direction,
    is_standard_orthant,
    matvec_rows,
    norm,
    row_norms,
    strictly_positive_functional,
    unit_dual_generators,
)
from .mappings import OutsideDomainError, VectorMapping, known_directional
from .modulus import ParaSpec, eval_modulus
from .reports import CheckReport, Report

# multiplier on eps*(1 + ||f(x+th)|| + ||f(x)||)/t covering the rounding
# error of one difference quotient; 32 dominates the worst per-evaluation
# error of the testbed families (~15 ulp) with a factor-two cushion
_FP_SAFETY = 32.0
_EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """The quotient estimator could not reach the requested tolerance."""


def _quotient_noise(t, f_t_norm, f0_norm):
    """Rounding allowance of the quotient at step t, for one step or an array of them."""
    return _FP_SAFETY * _EPS * (1.0 + f_t_norm + f0_norm) / t


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
    return x0, h / hn, bool(hn != 1.0)


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
    normalized_h: bool = False


def _quotients(f: VectorMapping, spec: ParaSpec, x0: np.ndarray, h: np.ndarray, t: np.ndarray) -> QuotientTrace:
    """The quotients at every step of t from one batch of x0 and x0 + t*h;
    x0 and h are taken as given (see _prep_direction)."""
    values = f.eval_batch(np.concatenate([x0[None, :], x0 + t[:, None] * h]))
    f0, fvals = values[0], values[1:]
    raw = (fvals - f0) / t[:, None]
    allowance = spec.min_constant() * eval_modulus(spec.modulus, t) / t
    return QuotientTrace(
        h=h,
        t_grid=t,
        raw=raw,
        allowance=allowance,
        corrected=raw + np.outer(allowance, spec.k),
        noise=_quotient_noise(t, row_norms(fvals), norm(f0, "two")),
        f0=f0,
        spec=spec,
    )


def _cone_margins(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Smallest unit-functional value of every row of a (0 without functionals)."""
    return np.min(matvec_rows(rows, a), axis=1) if rows.size else np.zeros(len(a))


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
    x0, h, warned = _prep_direction(f, x0, h)
    trace = _quotients(f, spec, x0, h, _step_grid(f, x0, h, t0, ratio, depth))
    trace.normalized_h = warned
    return trace


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
    spec = trace.spec
    rows = unit_dual_generators(spec.cone)
    m = trace.t_grid.size
    # quantity[a, b] = corrected[a] - raw[b] for t_a > t_b (a < b)
    qty = trace.corrected[:, None, :] - trace.raw[None, :, :]
    margins = np.min(qty @ rows.T, axis=2) if rows.size else np.zeros((m, m))
    raw_norms = np.linalg.norm(trace.raw, axis=1)
    scale = 1.0 + raw_norms[:, None] + raw_norms[None, :]
    adjusted = (margins + trace.noise[:, None] + trace.noise[None, :]) / scale
    ia, ib = np.triu_indices(m, k=1)
    vals = adjusted[ia, ib]
    worst_idx = int(np.argmin(vals))
    worst = float(vals[worst_idx])
    witness = (float(trace.t_grid[ia[worst_idx]]), float(trace.t_grid[ib[worst_idx]]))
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=worst,
        witness=witness,
        samples_used=int(ia.size),
        tol=tol,
        notes="grid-pair monotonicity of corrected quotients, rounding allowance included",
    )


def check_lower_bound(trace: QuotientTrace, tol: float = 1e-9) -> CheckReport:
    """Uniform cone lower bound on the corrected quotients.

    Builds a witness a with corrected(t) - a in the cone for every grid t:
    the componentwise infimum for the standard orthant, otherwise an
    interior direction scaled under every supporting-functional infimum.
    """
    spec = trace.spec
    rows = unit_dual_generators(spec.cone)
    inf_per_row = np.min(trace.corrected @ rows.T, axis=0)
    if is_standard_orthant(spec.cone):
        a = np.min(trace.corrected, axis=0)
    else:
        k0, denom = interior_direction(spec.cone)
        a = float(np.min(inf_per_row / denom)) * k0
    margins = (trace.corrected - a) @ rows.T
    scale = 1.0 + np.linalg.norm(trace.corrected, axis=1) + norm(a, "two")
    adjusted = (np.min(margins, axis=1) + trace.noise) / scale
    worst_idx = int(np.argmin(adjusted))
    return CheckReport(
        passed=bool(float(adjusted[worst_idx]) >= -tol),
        worst_margin=float(adjusted[worst_idx]),
        witness=a,
        samples_used=int(trace.t_grid.size),
        tol=tol,
        notes="uniform lower bound witness over the trace",
        extras={"per_functional_infimum": inf_per_row},
    )


@dataclass
class DerivativeEstimate:
    """Output of the quotient estimator.  When converged is True the error
    bound (bracket decrement + allowance terms) is at most the requested
    tolerance; value is the raw quotient at t_used."""

    value: np.ndarray
    error_bound: float
    t_used: float
    iterations: int
    converged: bool
    cancellation_warning: bool = False


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
    """One-sided derivative along h by monotone quotient descent.

    The whole grid t0 * ratio^j, j = 0..max_depth-1, is evaluated in one
    batch.  The estimate stops at the first grid level where, across all
    unit supporting functionals, the quotient decrement plus the allowance
    term C*modulus(t)/t * y(k) plus the rounding allowance of both quotients
    falls below tol.  Without a stop, the first level with the smallest such
    bracket (the deepest level when no bracket is finite) is reported with
    converged False.  iterations is the stop level counted from one, not the
    number of evaluations, which is always max_depth + 1.
    """
    x0, h, _ = _prep_direction(f, x0, h)
    q = _quotients(f, spec, x0, h, _step_grid(f, x0, h, t0, ratio, max_depth))
    rows = unit_dual_generators(spec.cone)
    top_row_k = float(np.max(rows @ spec.k, initial=0.0))
    # bounds[j - 1] closes the bracket between levels j - 1 and j
    decrement = np.max(np.abs(matvec_rows(rows, q.raw[:-1] - q.raw[1:])), axis=1, initial=0.0)
    bounds = decrement + q.allowance[:-1] * top_row_k + q.noise[:-1] + q.noise[1:]
    below = np.flatnonzero(bounds < tol)
    finite = bounds < np.inf  # a NaN or infinite bracket is never the smallest
    if below.size:
        level = int(below[0]) + 1
    elif finite.any():
        level = int(np.argmin(np.where(finite, bounds, np.inf))) + 1
    else:
        level = max_depth - 1
    t_used = float(q.t_grid[level])
    return DerivativeEstimate(
        value=q.raw[level].copy(),
        error_bound=float(bounds[level - 1]) if finite.any() else np.inf,
        t_used=t_used,
        iterations=level + 1,
        converged=bool(below.size),
        cancellation_warning=bool(t_used < 1e-8 * norm(x0, "two")),
    )


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
    x0, h, _ = _prep_direction(f, x0, h)
    if t_samples is None:
        top = _default_t0(f, x0, h)
        lo, hi = min(estimate.t_used, top), max(estimate.t_used, top)
        t_samples = np.geomspace(lo, hi, n_samples)
    t_samples = np.asarray(sorted(set(float(t) for t in t_samples)))
    bd = f.domain.boundary_distance(x0, h)
    if t_samples[0] <= 0.0 or t_samples[-1] >= bd:
        raise ValueError("t samples must stay strictly inside the admissible range")
    q = _quotients(f, spec, x0, h, t_samples)
    f0n = norm(q.f0, "two")
    dn = norm(estimate.value, "two")
    allow_used = _quotient_noise(estimate.t_used, dn * estimate.t_used + f0n, f0n)
    margins = _cone_margins(unit_dual_generators(spec.cone), q.corrected - estimate.value)
    adjusted = (margins + q.noise + allow_used) / (1.0 + row_norms(q.raw) + dn)
    i = int(np.argmin(adjusted))
    worst = float(adjusted[i])
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=worst,
        witness=float(t_samples[i]),
        samples_used=int(t_samples.size),
        tol=tol,
        notes="derivative below every corrected quotient on the sampled steps",
    )


def _estimate_along(f, spec, x0, v, tol, t0=None):
    """Estimate for a direction of any positive length via the exact
    reparameterization quotient(t, c*u) = quotient(c*t, u): returns the
    value and error bound scaled by the length."""
    ln = norm(np.asarray(v, dtype=float), f.domain_norm)
    if ln <= 1e-12:
        return np.zeros(f.codomain_dim), 0.0, None
    est = directional_derivative(f, spec, x0, np.asarray(v, dtype=float) / ln, tol=tol, t0=t0)
    if not est.converged:
        raise ConvergenceError(f"{f.label}: estimator did not reach tol={tol} along {np.asarray(v).tolist()}")
    return ln * est.value, ln * est.error_bound, est


def _schedule_independence(f, spec, x0, h0, base_val, base_err, tol, lambdas, measure):
    """Positive homogeneity as schedule independence: for each factor lam,
    re-estimate along h0 on the lam-scaled step grid and yield
    (lam, measure(lam*D_lam - lam*D), lam*(e + e_lam)), the difference under
    the caller's measure and the error allowance it must stay within."""
    h0 = np.asarray(h0, dtype=float)
    for lam in lambdas:
        if lam <= 0.0:
            raise ValueError("homogeneity factors must be positive")
        t0_b = min(lam * _default_t0(f, x0, h0), 0.49 * f.domain.boundary_distance(x0, h0))
        val_b, err_b, _ = _estimate_along(f, spec, x0, h0, tol, t0=t0_b)
        yield lam, measure(lam * val_b - lam * base_val), lam * (base_err + err_b)


def check_sublinear(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    direction_pairs=None,
    lambdas=(0.5, 2.0),
    tol: float = 1e-6,
    seed: int = 0,
) -> CheckReport:
    """Subadditivity in the cone order plus positive homogeneity.

    Subadditivity margin: y(D(h1) + D(h2) - D(h1+h2)) plus the three
    estimate error bounds, per unit supporting functional.  Homogeneity is
    exercised as schedule independence: the derivative recomputed on a
    lam-scaled step grid must match lam times the original within
    tol*max(1, lam) plus scaled error bounds.
    """
    x0 = as_point(x0, f.domain.dim)
    d = f.domain.dim
    if direction_pairs is None:
        rng = np.random.default_rng(seed)
        if d == 1:
            direction_pairs = [(np.array([1.0]), np.array([-1.0])), (np.array([1.0]), np.array([1.0]))]
        else:
            direction_pairs = []
            for _ in range(3):
                a = rng.normal(size=d)
                b = rng.normal(size=d)
                direction_pairs.append((a / norm(a, f.domain_norm), b / norm(b, f.domain_norm)))
    rows = unit_dual_generators(spec.cone)
    worst = np.inf
    witness = None
    count = 0
    for h1, h2 in direction_pairs:
        d1, e1, _ = _estimate_along(f, spec, x0, h1, tol)
        d2, e2, _ = _estimate_along(f, spec, x0, h2, tol)
        d12, e12, _ = _estimate_along(f, spec, x0, np.asarray(h1) + np.asarray(h2), tol)
        margins = rows @ (d1 + d2 - d12) + (e1 + e2 + e12)
        m = float(np.min(margins)) if margins.size else 0.0
        count += 1
        if m < worst:
            worst = m
            witness = (np.asarray(h1), np.asarray(h2))
    h0 = direction_pairs[0][0]
    base_val, base_err, _ = _estimate_along(f, spec, x0, h0, tol)
    for lam, diff, allow in _schedule_independence(
        f, spec, x0, h0, base_val, base_err, tol, lambdas, lambda v: float(np.max(np.abs(rows @ v), initial=0.0))
    ):
        slack = (allow - diff) / max(1.0, lam)
        count += 1
        if slack < worst:
            worst = slack
            witness = ("homogeneity", lam)
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=float(worst),
        witness=witness,
        samples_used=count,
        tol=tol,
        seed=seed,
        notes="cone subadditivity and positive homogeneity of the estimated derivative",
    )


@dataclass
class GateauxReport(Report):
    """Linearity battery at one point: antisymmetry, additivity,
    homogeneity, and the Lipschitz continuity surrogate over antipodal
    direction pairs.  defect is the largest violation after estimator
    error allowances; the report passes iff defect <= tol."""

    x0: np.ndarray
    passed: bool
    defect: float
    margins: dict
    tol: float
    seed: int | None = None
    n_directions: int = 0
    notes: str = ""


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

    Sub-tests, each after subtracting the relevant estimate error bounds:
    antisymmetry ||D(h) + D(-h)||, additivity ||D(h1) + D(h2) - D(h1+h2)||,
    homogeneity as schedule independence at factors 1/2 and 2, and the
    continuity surrogate ||D(h) - D(-h)|| <= gamma * (L*||h - (-h)|| +
    C*modulus(t*)/t* ) * ||k|| with L a sampled local Lipschitz constant
    (inflated by 1.1, and floored by the scalarized derivative magnitudes,
    since a sampled supremum is a lower estimate).  Estimator
    non-convergence along any direction propagates as ConvergenceError.
    """
    x0 = as_point(x0, f.domain.dim)
    if not f.domain.contains(x0):
        raise OutsideDomainError(f"{f.label}: test point outside the open domain")
    base_dirs = directions if directions is not None else _unit_directions(f, n_directions, seed)
    base_dirs = [np.asarray(u, dtype=float) for u in base_dirs]
    rows = unit_dual_generators(spec.cone)
    row_k = rows @ spec.k

    ests = {}
    for u in base_dirs:
        for s in (1.0, -1.0):
            key = tuple(np.round(s * u, 15))
            if key not in ests:
                val, err, est = _estimate_along(f, spec, x0, s * u, tol)
                ests[key] = (val, err, est)

    def _viol_norm(vec, allow):
        return float(norm(vec, f.codomain_norm)) - allow

    neg_inf = float("-inf")
    margins = {"antisymmetry": neg_inf, "additivity": neg_inf, "homogeneity": neg_inf, "continuity": neg_inf}

    for u in base_dirs:
        vp, ep, _ = ests[tuple(np.round(u, 15))]
        vm, em, _ = ests[tuple(np.round(-u, 15))]
        margins["antisymmetry"] = max(margins["antisymmetry"], _viol_norm(vp + vm, ep + em))

    if len(base_dirs) == 1:
        pair_list = [(base_dirs[0], -base_dirs[0])]
    else:
        pair_list = list(zip(base_dirs, base_dirs[1:]))[:4]
    for h1, h2 in pair_list:
        v1, e1, _ = ests[tuple(np.round(h1, 15))]
        v2, e2, _ = ests[tuple(np.round(h2, 15))]
        v12, e12, _ = _estimate_along(f, spec, x0, h1 + h2, tol)
        margins["additivity"] = max(margins["additivity"], _viol_norm(v1 + v2 - v12, e1 + e2 + e12))

    h0 = base_dirs[0]
    v0, e0, _ = ests[tuple(np.round(h0, 15))]
    for lam, diff, allow in _schedule_independence(
        f, spec, x0, h0, v0, e0, tol, (0.5, 2.0), lambda v: float(norm(v, f.codomain_norm))
    ):
        margins["homogeneity"] = max(margins["homogeneity"], (diff - allow) / max(1.0, lam))

    # continuity surrogate over antipodal pairs, where the sampled constant
    # provably dominates the difference direction
    region_r = min(0.05, 0.5 * f.domain.boundary_distance(x0))
    region = Box(lo=x0 - region_r, hi=x0 + region_r)
    lip = check_vector_lipschitz(f, spec, region, budget=128, seed=seed + 1)
    l_sampled = float(lip.extras["L"]) if lip.extras else 0.0
    gamma = float(lip.extras["gamma"]) if lip.extras else 1.0
    deriv_rows = [
        float(np.max(np.abs(rows @ val) / np.maximum(row_k, 1e-300))) if rows.size else 0.0
        for val, _, _ in ests.values()
    ]
    l_used = max(1.1 * l_sampled, max(deriv_rows, default=0.0))
    c_min = spec.min_constant()
    t_star = max(est.t_used for _, _, est in ests.values())
    for u in base_dirs:
        vp, ep, _ = ests[tuple(np.round(u, 15))]
        vm, em, _ = ests[tuple(np.round(-u, 15))]
        bound = gamma * (l_used * norm(2.0 * u, f.domain_norm) + c_min * eval_modulus(spec.modulus, t_star) / t_star) * norm(
            spec.k, f.codomain_norm
        )
        viol = float(norm(vp - vm, f.codomain_norm)) - bound - (ep + em)
        margins["continuity"] = max(margins["continuity"], viol)

    defect = max(0.0, max(margins.values()))
    return GateauxReport(
        x0=x0,
        passed=bool(defect <= tol),
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
    non-convergence at a point counts as a failed point, not an error.
    When the family declares a one-dimensional kink set, the report carries
    the confusion table of predicted versus declared non-differentiability.
    """
    if np.any(region.lo < f.domain.lo) or np.any(region.hi > f.domain.hi):
        raise ValueError("scan region escapes the mapping domain")
    if points is None:
        rng = np.random.default_rng(seed)
        points = [region.sample(1, rng)[0] for _ in range(n_points)]
    else:
        points = [np.asarray(p, dtype=float).reshape(-1) for p in points]
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
    density = float(np.mean(passed)) if passed else 0.0
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
    base reconstruction must respect the base radius."""

    x0: np.ndarray
    passed: bool
    table: list
    residual_margin: float
    max_base_norm: float
    base_radius: float
    gateaux_defect: float
    tol: float
    seed: int | None = None
    notes: str = ""


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
    precondition rather than raised.
    """
    x0 = as_point(x0, f.domain.dim)
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
            passed=False,
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
    if t_schedule[0] >= bd_min:
        raise ValueError("schedule step leaves the domain along a sampled direction")

    rows = unit_dual_generators(spec.cone)
    residual_margin = np.inf
    max_base_norm = 0.0
    lam_table = np.zeros((t_schedule.size, len(dirs)))
    for ui, u in enumerate(dirs):
        d_val, d_err = known_directional(f, x0, u), 0.0
        if d_val is None:
            d_val, d_err, _ = _estimate_along(f, spec, x0, u, tol)
        q = _quotients(f, spec, x0, u, t_schedule)
        r = q.corrected - d_val
        margins = (_cone_margins(rows, r) + (q.noise + d_err)) / (1.0 + row_norms(r))
        residual_margin = min(residual_margin, float(np.min(margins)))
        lam = matvec_rows(e_star.coeffs[None, :], r)[:, 0]
        lam_table[:, ui] = lam
        big = lam > tol
        if big.any():
            max_base_norm = max(max_base_norm, float(np.max(row_norms(r[big] / lam[big, None], f.codomain_norm))))

    table = []
    max_lam_per_t = np.max(lam_table, axis=1)
    for eps in epsilons:
        # largest step whose entire finer suffix stays within eps
        suffix_ok = np.logical_and.accumulate((max_lam_per_t <= eps)[::-1])[::-1]
        delta = float(t_schedule[np.argmax(suffix_ok)]) if suffix_ok.any() else None
        table.append({"epsilon": float(eps), "delta": delta, "max_lambda": float(np.max(max_lam_per_t))})
    all_eps_ok = all(row["delta"] is not None for row in table)

    passed = bool(
        all_eps_ok and residual_margin >= -tol and max_base_norm <= float(base.radius) + tol
    )
    return FrechetReport(
        x0=x0,
        passed=passed,
        table=table,
        residual_margin=float(residual_margin),
        max_base_norm=float(max_base_norm),
        base_radius=float(base.radius),
        gateaux_defect=gtx.defect,
        tol=tol,
        seed=seed,
        notes="uniform residual decomposition over sampled directions",
    )
