"""Difference quotients, the monotone directional-derivative estimator, and
the differentiability test batteries.

Every check here reads one object: the corrected quotient
(f(x0+th) - f(x0))/t + C*modulus(t)/t * k, which the theory makes monotone
in the cone order as t decreases.  One quotient kernel, _quotients, builds
every step and makes every eval_batch call: the trace, the estimator and the
upper-bound check read one direction's quotients, and a battery estimates
all its directions, at a block of points, in one call of it, and at most one
more for the estimates that do not converge (below).

The estimator stops at the first level of a geometric step grid where the
scalarized decrement between consecutive quotients, plus the vanishing
allowance term, plus the rounding allowance, drops below the requested
tolerance.  The theory guarantees the corrected quotients decrease
monotonically to the one-sided derivative but gives no rate, so the
reported error bound is the monotone-bracket width at the stopping index,
never an extrapolated rate claim.  The rounding allowance alone grows as
the step falls, so below some level no bracket can reach the tolerance:
every estimate evaluates only the levels above it, and only an estimate
that does not converge there is evaluated again on its full grid, where its
fallback stop is read (_stop_estimates).  The answers are those of the full
grid, bit for bit.

Every error bound and linearity margin is in one measure, max_y |y(v)| over
the cone's unit rows y (_row_measure; the sup norm on an orthant), a norm
exactly when the cone is pointed, so the estimator refuses other cones.

The rounding allowance matters: a difference quotient at step t carries
rounding error on the order of eps * ||f|| / t, which dwarfs any reasonable
tolerance once t is small enough.  Folding the allowance into every margin
keeps deep-grid checks honest (no false violations from cancellation) while
still detecting real violations, which are orders of magnitude larger.  The
allowance, and the magnitude scale that the trace, upper-bound and Frechet
margins are divided by, come from the one scoring rule,
checks._magnitude_scale, with two-norm magnitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import _magnitude_scale, _require_fit
from .geometry import (
    Box,
    _at_least_one,
    _require_tol,
    base_radius,
    cone_margins,
    cone_values,
    matvec_rows,
    norm,
    row_norms,
    row_reduce,
    strictly_positive_functional,
)
from .mappings import OutsideDomainError, VectorMapping, _domain_point, known_directional
from .modulus import ParaSpec, eval_modulus
from .reports import CheckReport, Report, worst_report

# the estimator's step ladder t0 * _RATIO**j, j < _DEPTH: every battery estimate's grid, and the
# defaults of build_trace, directional_derivative and the config's trace and derivative operations
_RATIO, _DEPTH = 0.5, 40
# check_upper_bound's steps, spaced geometrically between the estimate's step and the default top
_UPPER_STEPS = 12
# frechet_test's schedule: the default top times _RATIO**j, j < _FRECHET_LEVELS
_FRECHET_LEVELS = 20
# the step-grid factors on which positive homogeneity is tested (check_sublinear, gateaux_test)
_LAMBDAS = (0.5, 2.0)
# evaluated values (rows times codomain dimension) that one battery batch of
# gateaux_scan holds at most, and at least one point.  It bounds memory: on
# the shipped 40-point example1 scan, 2^16 or one batch for the whole scan ran
# about 20% faster, but their arrays peaked at 3.8 and 6.3 MB against 1.2 MB
_BLOCK_VALUES = 2**14
# a scanned point within this distance of a declared kink counts as at the kink (gateaux_scan's confusion table)
_KINK_MATCH = 1e-9


class ConvergenceError(RuntimeError):
    """The quotient estimator could not reach the requested tolerance."""


def _require_strong(spec: ParaSpec) -> None:
    """The quotients converge only under a strong modulus, modulus(t)/t -> 0,
    and the row measure of the bounds is blind along a line in the cone."""
    if not spec.modulus.strong:
        raise ValueError(f"the derivative estimator needs a strong modulus (modulus(t)/t -> 0), got {spec.modulus}")
    if not spec.cone.pointed:
        raise ValueError(f"the derivative estimator needs a pointed cone (unit rows spanning R^m), got {spec.cone!r}")


def _row_measure(values: np.ndarray) -> np.ndarray:
    """max_j |y_j(v)| over the unit rows, from cone_values: (..., r) -> (...)."""
    return row_reduce(values, "sup")


def _prep_direction(f: VectorMapping, x0, h):
    """The point checks of a single-direction op: x0 a finite point of the
    open domain (_domain_point), h a finite vector of the domain's
    dimension and of unit domain-norm length within 1e-6.  Returns x0 and h
    divided by its length; each failed check raises before any evaluation."""
    x0 = _domain_point(f, x0, "base point")
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape != (f.domain.dim,):
        raise ValueError("direction dimension mismatch")
    hn = norm(h, f.domain_norm)
    if not math.isfinite(hn):  # a NaN or inf entry makes the length NaN or inf
        raise ValueError(f"direction {h.tolist()} has no finite length")
    if hn == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(hn - 1.0) > 1e-6:
        raise ValueError(f"direction must be unit in the domain norm, got length {hn}")
    return x0, h / hn


def _units(f: VectorMapping, vectors) -> tuple:
    """A stack of directions (k, d) as rows divided by their domain-norm
    lengths, and the lengths (k,); a zero row is unit 0 with length 0.  A row
    of the wrong length, or with a NaN or inf entry, raises ValueError before
    any evaluation."""
    try:
        stack = np.array(vectors, dtype=float)
    except ValueError:  # ragged rows
        stack = np.empty(0)
    if stack.ndim != 2 or stack.shape[1] != f.domain.dim:
        raise ValueError(f"directions must be vectors of length {f.domain.dim}")
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        raise ValueError(f"direction {stack[np.argmin(finite)].tolist()} has no finite length")
    lengths = row_norms(stack, f.domain_norm)
    return stack / np.where(lengths > 0.0, lengths, 1.0)[:, None], lengths


def _default_t0(clearance):
    """The default top step from the boundary clearance along h: half of it, capped at 0.1."""
    return np.minimum(0.1, 0.5 * clearance)


@functools.lru_cache(maxsize=64)
def _powers(ratio: float, depth: int) -> np.ndarray:
    """ratio ** j for j = 0..depth-1, each the C library pow, as a read-only array."""
    powers = np.float_power(ratio, np.arange(depth))
    powers.flags.writeable = False
    return powers


def _geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) for 0 < lo, 0 < hi and n >= 1, bit for bit:
    numpy's arithmetic (log10 of both ends, the linspace of the exponents, 10
    to their power, both ends reset to lo and hi) without its dtype and sign
    handling.  The last exponent is not reset to log10(hi), as its value is."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    out = np.power(10.0, np.arange(n, dtype=float) * ((log_hi - log_lo) / max(n - 1, 1)) + log_lo)
    out[-1] = hi
    out[0] = lo
    return out


def _step_grid(bd, t0, ratio: float, depth: int) -> np.ndarray:
    """The steps t0 * ratio^j for j = 0..depth-1, each power the C library pow
    of the float ratio ** j, along one direction whose boundary clearance from
    x0 (Box.boundary_distance) is bd, or per row of stacked bd and t0 (k,),
    t0 None the default top; each positive and below bd, so x0 + t*h stays in
    the domain.  The caller computes bd once and passes it."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if depth < 2:
        raise ValueError("need at least two grid levels")
    t0 = _default_t0(bd) if t0 is None else np.asarray(t0, dtype=float)
    if not ((0.0 < t0) & (t0 < bd)).all():  # a NaN step is outside too
        top, clear = next((a, b) for a, b in zip(np.ravel(t0), np.ravel(bd)) if not 0.0 < a < b)
        raise ValueError(f"t0={top} leaves the domain along h (boundary clearance {clear})")
    t_grid = t0[..., None] * _powers(float(ratio), depth)
    if not t_grid[..., -1].all():
        smallest = t_grid.reshape(-1, depth)[np.argmin(t_grid[..., -1])]
        level = int(np.argmax(smallest == 0.0))
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


def _quotients(
    f: VectorMapping, spec: ParaSpec, x0: np.ndarray, h: np.ndarray, t: np.ndarray, owner=None
) -> QuotientTrace:
    """The quotients at steps t (n,) along h (d,), or t (k, n) along h (k, d), from one batch of
    x0 and x0 + t*h.  With owner (k,), x0 is a block of base points (p, d), trace i starts at
    x0[owner[i]], and the batch is the p points followed by every step.  The raw quotients
    (f(x0 + t*h) - f(x0))/t, the allowance C*modulus(t)/t and the rounding allowance per step;
    a row's bits do not depend on the stack.  x0 and h are taken as given."""
    _require_fit(f, spec)
    bases = x0.reshape(-1, x0.shape[-1])
    at = 0 if owner is None else (owner, None)
    steps = bases[at] + t[..., None] * h[..., None, :]
    values = f.eval_batch(np.concatenate([bases, steps.reshape(-1, bases.shape[1])]))
    norms, p = row_norms(values), len(bases)
    f0 = values[:p][at]
    raw = (values[p:].reshape(t.shape + values.shape[1:]) - f0) / t[..., None]
    allowance = spec.min_constant() * eval_modulus(spec.modulus, t) / t
    noise = _magnitude_scale(norms[p:].reshape(t.shape), norms[:p][at], step=t)
    return QuotientTrace(h, t, raw, allowance, raw + allowance[..., None] * spec.k, noise, f0, spec)


def build_trace(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    t0: float | None = None,
    ratio: float = _RATIO,
    depth: int = _DEPTH,
) -> QuotientTrace:
    """Evaluate quotients at t0 * ratio^j for j = 0..depth-1.

    The direction must be admissible: x0 + t0*h stays in the open domain,
    which holds for the default t0 (half the boundary clearance, capped at
    0.1) at any interior point.
    """
    x0, h = _prep_direction(f, x0, h)
    return _quotients(f, spec, x0, h, _step_grid(f.domain.boundary_distance(x0, h), t0, ratio, depth))


@functools.lru_cache(maxsize=64)
def _grid_pairs(n: int) -> tuple:
    """The (coarse, fine) level pairs a < b of an n-level grid, as read-only index arrays."""
    ia, ib = np.triu_indices(n, k=1)
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib


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
    _require_tol(tol)
    # one row per pair: corrected[a] - raw[b] for t_a > t_b (a < b)
    ia, ib = _grid_pairs(trace.t_grid.size)
    margins = cone_margins(trace.spec.cone, trace.corrected[ia] - trace.raw[ib])
    raw_norms = row_norms(trace.raw)
    adjusted = (margins + trace.noise[ia] + trace.noise[ib]) / _magnitude_scale(raw_norms[ia], raw_norms[ib])
    return worst_report(
        adjusted,
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


def _stop_levels(
    spec: ParaSpec, raw: np.ndarray, allowance: np.ndarray, noise: np.ndarray, tol: float
) -> tuple:
    """The estimator's stop rule on stacked traces, raw (k, n, m), allowance
    and noise (k, n): per trace its stop index, error bound and convergence.
    It stops at the first level where, over the unit supporting functionals,
    the quotient decrement plus the allowance term C*modulus(t)/t * y(k) plus
    both rounding allowances falls below tol; else, not converged, at the
    first smallest such bracket (the deepest, bound inf, if none is finite)."""
    top_row_k = float(spec.row_k.max(initial=0.0))
    # bounds[..., j - 1] closes the bracket between levels j - 1 and j
    decrement = _row_measure(cone_values(spec.cone, raw[:, :-1] - raw[:, 1:]))
    bounds = decrement + allowance[:, :-1] * top_row_k + noise[:, :-1] + noise[:, 1:]
    below = bounds < tol
    converged = below.any(axis=1)
    level = below.argmax(axis=1)
    if not converged.all():  # a NaN or infinite bracket is never the smallest
        bounds = np.where(bounds < np.inf, bounds, np.inf)
        smallest = np.where(bounds.min(axis=1) < np.inf, bounds.argmin(axis=1), bounds.shape[1] - 1)
        level = np.where(converged, level, smallest)
    return level + 1, bounds[np.arange(len(level)), level], converged


def _stop_estimates(
    f: VectorMapping, spec: ParaSpec, x0: np.ndarray, h: np.ndarray, t: np.ndarray, tol: float, owner=None
) -> tuple:
    """The estimator on the grids t (k, n) along h (k, d) from x0, or from
    x0[owner] of a block of base points as in _quotients: per trace the raw
    quotient at its stop (k, m), the error bound, the index of the stop
    level and convergence, by the stop rule (_stop_levels) on the full grids.

    A bracket's bound is at least the sum of its two levels' rounding
    allowances at zero norms, which grows as t falls.  So one _quotients
    batch evaluates only the levels up to the last bracket where that floor,
    on the largest step of each level, is below tol; a trace that does not
    converge there is evaluated again on its full grid, where the fallback
    reads its smallest bracket.  Every output has the bits of the full grid."""
    n = t.shape[1]
    # the largest step of each level has the smallest floor (-inf for no trace: any cut serves)
    top = t[0] if len(t) == 1 else t.max(axis=0, initial=-np.inf)
    floor = _magnitude_scale(0.0, 0.0, step=top)
    closable = np.count_nonzero(floor[:-1] + floor[1:] < tol)
    cut = closable + 1 if closable else n  # no bracket can close: the fallback reads the full grid
    q = _quotients(f, spec, x0, h, t[:, :cut], owner)
    level, bound, converged = _stop_levels(spec, q.raw, q.allowance, q.noise, tol)
    value = q.raw[np.arange(len(t)), level]
    if cut < n and not converged.all():  # only those traces, from only their base points
        redo = np.flatnonzero(~converged)
        points, owner = (slice(None), None) if owner is None else np.unique(owner[redo], return_inverse=True)
        q = _quotients(f, spec, x0[points], h[redo], t[redo], owner)
        level[redo], bound[redo], _ = _stop_levels(spec, q.raw, q.allowance, q.noise, tol)
        value[redo] = q.raw[np.arange(redo.size), level[redo]]
    return value, bound, level, converged


def directional_derivative(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    tol: float = 1e-6,
    t0: float | None = None,
    ratio: float = _RATIO,
    max_depth: int = _DEPTH,
) -> DerivativeEstimate:
    """One-sided derivative along h by monotone quotient descent: the stop
    rule (_stop_levels) on the grid t0 * ratio^j, j = 0..max_depth-1.  One
    batch evaluates x0 and the levels whose brackets can reach tol, and an
    estimate that does not converge one more on the full grid
    (_stop_estimates).  iterations is the stop level counted from one, not the
    number of evaluations.  A modulus that is not strong, or a cone that is
    not pointed, raises ValueError before any evaluation: without
    modulus(t)/t -> 0 the corrected quotients need not converge, and the stop
    rule's row measure cannot see along a line in the cone.
    """
    _require_tol(tol)
    _require_strong(spec)
    x0, h = _prep_direction(f, x0, h)
    t = _step_grid(f.domain.boundary_distance(x0, h), t0, ratio, max_depth)[None]
    value, bound, level, converged = _stop_estimates(f, spec, x0, h[None], t, tol)
    level = int(level[0])
    t_used = float(t[0, level])
    warn = bool(t_used < 1e-8 * norm(x0, "two"))
    return DerivativeEstimate(value[0], float(bound[0]), t_used, level + 1, bool(converged[0]), warn)


def check_upper_bound(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    h,
    estimate: DerivativeEstimate,
    tol: float = 1e-9,
) -> CheckReport:
    """The derivative never exceeds any corrected quotient above it:
    raw(t) + C*modulus(t)/t * k - estimate.value stays in the cone for
    sampled t between the estimator's stopping step and the default top
    step.  Below the stopping step the estimate's own resolution would
    dominate, so that range is deliberately not sampled.  An estimate that
    has not converged, or whose value is not a finite vector of shape
    (codomain_dim,), raises ValueError before any evaluation.

    The steps are fixed: _UPPER_STEPS (12) spaced geometrically between
    estimate.t_used and the default top step, np.geomspace's values bit for
    bit (_geomspace), sorted and deduplicated.  Their ends must satisfy
    0 < lo <= hi < the boundary clearance along h, or ValueError before any
    evaluation: a t_used that is NaN, 0 or at or past the clearance fails it.
    One eval_batch call evaluates x0 and every step (_quotients).
    """
    _require_tol(tol)
    if not estimate.converged:
        raise ValueError("upper-bound check needs a converged estimate")
    value = np.asarray(estimate.value, dtype=float)
    if value.shape != (f.codomain_dim,) or not np.isfinite(value).all():
        raise ValueError(f"estimate value must be a finite vector of shape ({f.codomain_dim},)")
    x0, h = _prep_direction(f, x0, h)
    bd = f.domain.boundary_distance(x0, h)
    top = _default_t0(bd)
    lo, hi = min(estimate.t_used, top), max(estimate.t_used, top)
    if not 0.0 < lo <= hi < bd:  # a NaN step fails it too
        raise ValueError(f"the upper-bound steps must stay strictly inside the admissible range (0, {bd})")
    # a set, not np.unique, which costs about three times as much on 12 steps
    t_samples = np.array(sorted(set(_geomspace(lo, hi, _UPPER_STEPS).tolist())))
    q = _quotients(f, spec, x0, h, t_samples)
    f0n = norm(q.f0, "two")
    dn = norm(value, "two")
    allow_used = _magnitude_scale(dn * estimate.t_used + f0n, f0n, step=estimate.t_used)
    margins = cone_margins(spec.cone, q.corrected - value)
    adjusted = (margins + q.noise + allow_used) / _magnitude_scale(row_norms(q.raw), dn)
    return worst_report(
        adjusted,
        tol,
        lambda i: float(t_samples[i]),
        samples_used=int(t_samples.size),
        notes="derivative below every corrected quotient on the sampled steps",
    )


def _estimates(f: VectorMapping, spec: ParaSpec, x0s, vectors, tol: float, rescaled=False) -> tuple:
    """Estimates at each point of x0s (p, d) along its vectors (p, v, d), from
    one _quotients batch of the points and the steps a stop can read, and at
    most one more for the estimates that do not converge (_stop_estimates).

    c*u is estimated along the unit u (_units, taken twice) on the default grid
    as c*value and c*error bound (zeros if c <= 1e-12), and rescaled adds
    columns re-estimating vectors[:, 0] along its unit on each lam-scaled grid.
    Returns the values (p, w, m), the error bounds, steps used and the
    columns' domain-norm lengths c (p, w), and per point the ConvergenceError
    of its first unconverged estimate (or None)."""
    _require_strong(spec)
    p, v, _ = vectors.shape
    lams = np.array(_LAMBDAS if rescaled else ())
    w = v + lams.size  # columns per point
    stack = np.concatenate([vectors, np.repeat(vectors[:, :1], lams.size, axis=1)], axis=1)
    units, lengths = _units(f, stack.reshape(p * w, -1))
    kept = np.flatnonzero(lengths > 1e-12)
    owner, col = np.divmod(kept, w)
    units = _units(f, units[kept])[0]
    bd = f.domain.boundary_distance(x0s[owner], units)
    tops = _default_t0(bd)
    if lams.size:  # a rescaled column's top is lam times the default along the same unit
        tops = np.where(col >= v, np.minimum(lams[np.maximum(col - v, 0)] * tops, 0.49 * bd), tops)
    t = _step_grid(bd, tops, _RATIO, _DEPTH)
    value, error_bound, level, converged = _stop_estimates(f, spec, x0s, units, t, tol, owner)
    vals = np.zeros((p * w, f.codomain_dim))
    vals[kept] = lengths[kept, None] * value
    errs = np.zeros(p * w)
    errs[kept] = lengths[kept] * error_bound
    used = np.zeros(p * w)
    used[kept] = t[np.arange(kept.size), level]
    errors = [None] * p
    for j in np.flatnonzero(~converged):
        if errors[owner[j]] is None:  # a rescaled column names the vector it re-estimates
            along = vectors[owner[j], col[j] if col[j] < v else 0].tolist()
            errors[owner[j]] = ConvergenceError(f"{f.label}: estimator did not reach tol={tol} along {along}")
    return vals.reshape(p, w, -1), errs.reshape(p, w), used.reshape(p, w), lengths.reshape(p, w), errors


def _point_estimates(f: VectorMapping, spec: ParaSpec, x0, vectors, tol: float, rescaled=False) -> tuple:
    """_estimates at one point along a stack of vectors (k, d); the first that did not converge raises."""
    vals, errs, _, _, (error,) = _estimates(f, spec, x0[None], np.asarray(vectors, dtype=float)[None], tol, rescaled)
    if error is not None:
        raise error
    return vals[0], errs[0]


def _homogeneity(spec: ParaSpec, vals: np.ndarray, errs: np.ndarray, v: int) -> np.ndarray:
    """Per lam the excess (|lam*D_lam - lam*D| - lam*(e + e_lam)) / max(1, lam) of rescaled estimates."""
    lams = np.array(_LAMBDAS)
    scaled = lams[:, None] * vals[..., v:, :] - lams[:, None] * vals[..., :1, :]
    diff = _row_measure(cone_values(spec.cone, scaled))
    return (diff - lams * (errs[..., :1] + errs[..., v:])) / np.maximum(1.0, lams)


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
    tol*max(1, lam) plus scaled error bounds, in the row measure; all from one
    batch, and at most one more for the estimates that do not converge.
    Each pair is scored divided by the domain-norm length of its longer
    vector, unless that length is within 1e-6 of 1, so a margin does not
    shrink or grow with how the pair is written; the witness is the pair as
    given.
    """
    _require_tol(tol)
    x0 = _domain_point(f, x0, "test point")
    d = f.domain.dim
    if direction_pairs is None:
        if d == 1:
            direction_pairs = [(np.array([1.0]), np.array([-1.0])), (np.array([1.0]), np.array([1.0]))]
        else:
            units, _ = _units(f, np.random.default_rng(seed).normal(size=(6, d)))
            direction_pairs = list(zip(units[0::2], units[1::2]))
    direction_pairs = list(direction_pairs)
    if not direction_pairs:
        raise ValueError("direction_pairs must name at least one pair")
    given = [h for h1, h2 in direction_pairs for h in (h1, h2)]
    _, lengths = _units(f, given)  # every given vector is checked before a sum is formed
    longer = np.maximum(lengths[0::2], lengths[1::2])
    scale = np.where((longer > 0.0) & (np.abs(longer - 1.0) > 1e-6), longer, 1.0)
    h = np.array(given, dtype=float) / np.repeat(scale, 2)[:, None]
    vectors = np.stack([h[0::2], h[1::2], h[0::2] + h[1::2]], axis=1).reshape(-1, d)  # (h1, h2, h1 + h2) per pair
    vals, errs = _point_estimates(f, spec, x0, vectors, tol, rescaled=True)
    excess, n = _homogeneity(spec, vals, errs, len(vectors)), len(vectors)
    # subadditivity per pair: the cone margin of D(h1) + D(h2) - D(h1 + h2) plus the three error bounds
    sub = cone_margins(spec.cone, vals[0:n:3] + vals[1:n:3] - vals[2:n:3])
    sub += errs[0:n:3] + errs[1:n:3] + errs[2:n:3]
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
    homogeneity, and the continuity surrogate over antipodal direction
    pairs, which is below 0 by construction.  Each margin is the largest
    excess in the row measure after the estimator's error bounds, and defect
    is the largest of them floored at 0; passed is derived, exactly
    defect <= tol."""

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


def _unit_directions(f: VectorMapping, n_directions: int, seeds) -> np.ndarray:
    """Per seed the axes, then that seed's normal draws up to
    max(n_directions // 2, d) rows, as units: the stack (len(seeds), n, d),
    each point's one direction 1 in 1-D.  _units reads every row on its own,
    so a point's rows have the bits of its seed's draw alone."""
    d, p = f.domain.dim, len(seeds)
    if d == 1:
        return np.ones((p, 1, 1))
    draws = [np.random.default_rng(s).normal(size=(max(n_directions // 2, d) - d, d)) for s in seeds]
    units = _units(f, np.concatenate(draws))[0].reshape(p, -1, d)
    axes = np.broadcast_to(np.eye(d), (p, d, d))
    return _units(f, np.concatenate([axes, units], axis=1).reshape(-1, d))[0].reshape(p, -1, d)


def _gateaux_margins(f: VectorMapping, spec: ParaSpec, x0s, vectors, a, b, tol: float) -> tuple:
    """The linearity battery on a block of points x0s (p, d) along vectors
    (p, v, d), +-u_i interleaved and then the additivity sums vectors[:, a] +
    vectors[:, b], from one _estimates call: per margin key the largest
    excess of each point, as a list of p floats, each the bits of that
    point's row max, and per point the ConvergenceError of its first
    unconverged estimate (or None).  Every step is an array pass over the
    block; nothing runs once per point."""
    v = vectors.shape[1]
    n_sig = v - a.size
    n = n_sig // 2
    val, err, used, lengths, errors = _estimates(f, spec, x0s, vectors, tol, True)
    plus, minus = val[:, 0:n_sig:2], val[:, 1:n_sig:2]
    e_pm = err[:, 0:n_sig:2] + err[:, 1:n_sig:2]
    # row values of the antisymmetry sums, continuity differences, signed derivatives, additivity defects
    stacked = [plus + minus, plus - minus, val[:, :n_sig], val[:, a] + val[:, b] - val[:, n_sig:v]]
    values = cone_values(spec.cone, np.concatenate(stacked, axis=1))
    row_k = np.maximum(spec.row_k, 1e-300)
    # continuity surrogate over antipodal pairs, per unit row y in the order form
    # |y(D(u) - D(-u))| <= (L*||2u|| + C*modulus(t*)/t*) * y(k), L the largest |y(D)| / y(k);
    # ||2u|| is 2*||u|| bit for bit, as scaling by a power of two is exact
    l_used = (np.abs(values[:, 2 * n : 4 * n]) / row_k).max(axis=(1, 2))
    t_star = used[:, :n_sig].max(axis=1)
    allowance = spec.min_constant() * eval_modulus(spec.modulus, t_star) / t_star
    bound = l_used[:, None] * (2.0 * lengths[:, 0:n_sig:2])
    bound += allowance[:, None]
    continuity = (np.abs(values[:, n : 2 * n]) - bound[..., None] * row_k - e_pm[..., None]).max(2)
    # one reduction per key over the block, read back as floats
    margins = {
        "antisymmetry": (_row_measure(values[:, :n]) - e_pm).max(axis=1).tolist(),
        "additivity": (_row_measure(values[:, 4 * n :]) - (err[:, a] + err[:, b] + err[:, n_sig:v])).max(axis=1).tolist(),
        "homogeneity": _homogeneity(spec, val, err, v).max(axis=1).tolist(),
        "continuity": continuity.max(axis=1).tolist(),
    }
    return margins, errors


def _gateaux_reports(f: VectorMapping, spec: ParaSpec, x0s, base_dirs, seeds: list, tol: float) -> list:
    """The linearity battery at each point of x0s (p, d) along its unit
    directions (p, n, d): per point a GateauxReport carrying seeds[i], or the
    ConvergenceError of its first unconverged estimate.  Each block of as
    many points as fit in _BLOCK_VALUES values, and at least one, is one
    eval_batch call, and at most one more for the estimates that do not
    converge (_stop_estimates); its margins come as arrays over the block
    (_gateaux_margins), and only the reports are built a point at a time.

    The continuity surrogate's L is max_j |y_j(D(+-u))| / y_j(k), so by the
    triangle inequality its margin is below 0 up to rounding.  It and
    check_vector_lipschitz stay because the bench tracer reads the margin and
    wraps the check by name; ROADMAP item 4 deletes both once item 2 changes
    the tracer."""
    p, n, d = base_dirs.shape
    n_sig = 2 * n
    # vectors[:, 2i] = +u_i and vectors[:, 2i + 1] = -u_i, then the additivity sums
    signed = np.concatenate([base_dirs, -base_dirs], axis=2).reshape(p, n_sig, d)
    a, b = np.array([(0, 1)] if n == 1 else [(2 * i, 2 * i + 2) for i in range(min(n - 1, 4))]).T
    vectors = np.concatenate([signed, signed[:, a] + signed[:, b]], axis=1)
    # nominal rows per point: the point and _DEPTH steps per vector and homogeneity
    # grid.  A batch evaluates only the levels a stop can read, but blocks are
    # sized on all _DEPTH, so a block holds as many points as when every level
    # was evaluated, and the second batch of unconverged traces fits the budget too
    rows = 1 + _DEPTH * (vectors.shape[1] + len(_LAMBDAS))
    block = max(1, _BLOCK_VALUES // (rows * f.codomain_dim))
    notes = "linearity battery on estimated one-sided derivatives"
    reports = []
    for start in range(0, p, block):
        blk = slice(start, start + block)
        margins, errors = _gateaux_margins(f, spec, x0s[blk], vectors[blk], a, b, tol)
        for i, error, excess in zip(range(start, p), errors, zip(*margins.values())):
            if error is not None:
                reports.append(error)
                continue
            point = dict(zip(margins, excess))
            defect = max(0.0, max(excess))
            reports.append(GateauxReport(x0s[i], defect, point, tol, seed=seeds[i], n_directions=n_sig, notes=notes))
    return reports


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
    |y(D(h) - D(-h))| <= (L*||h - (-h)|| + C*modulus(t*)/t*) * y(k), with L
    the largest |y(D(+-h))|/y(k), so that margin is below 0 by construction
    and never decides.  So tol is in the row measure, the sup norm on a
    standard orthant.  One eval_batch call, and at most one more for the
    estimates that do not converge (_gateaux_reports).  Caller-given
    directions are scaled to unit domain norm (_units), so a violation does
    not shrink with their length, and a zero one raises ValueError.  Estimator
    non-convergence along any direction propagates as ConvergenceError.  A
    modulus that is not strong or a cone that is not pointed raises
    ValueError; strong is necessary for convergence but not sufficient.
    """
    _require_tol(tol)
    _at_least_one(n_directions=n_directions)
    x0 = _domain_point(f, x0, "test point")
    if directions is None:
        base_dirs = _unit_directions(f, n_directions, [seed])
    else:
        # the margins are positively homogeneous in the direction and tol is
        # absolute, so a short direction would shrink every violation
        directions = list(directions)
        if not directions:
            raise ValueError("directions must name at least one direction")
        base_dirs, lengths = _units(f, directions)
        if not lengths.all():
            raise ValueError("directions must be nonzero")
        base_dirs = base_dirs[None]
    (report,) = _gateaux_reports(f, spec, x0[None], base_dirs, [seed], tol)
    if isinstance(report, ConvergenceError):
        raise report
    return report


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
) -> ScanReport:
    """Run the linearity battery at sampled (or supplied) points, a block of
    points per eval_batch call, and at most one more per block for the
    estimates that do not converge (_gateaux_reports).  Per-point seeds derive
    from (seed, index), and a point's defect, in the row measure, is
    bitwise gateaux_test's with its seed.  Every point is checked before any
    evaluation, by one shape test and one strict-inside mask over the stacked
    points (a NaN or inf entry fails it); only when that fails does a loop
    run, to name the first bad one as points[i].  Non-convergence at a point
    makes it a failed point with defect inf; a modulus that is not strong or
    a cone that is not pointed raises ValueError.  When the family declares a
    one-dimensional kink set, the report carries the confusion table of
    predicted versus declared non-differentiability, a point within
    _KINK_MATCH of a declared kink counting as at it, from one comparison of
    every point with every kink.
    """
    _require_tol(tol)
    dom = f.domain
    if ((region.lo < dom.lo) | (region.hi > dom.hi)).any():
        raise ValueError("scan region escapes the mapping domain")
    if points is None:
        points = region.sample(n_points, np.random.default_rng(seed)) if n_points > 0 else []
    points = [np.asarray(p, dtype=float).reshape(-1) for p in points]
    if not points:
        raise ValueError("the scan needs at least one point: a positive n_points or a non-empty points list")
    _at_least_one(n_directions=n_directions)
    try:
        x0s = np.array(points)
    except ValueError:  # ragged points
        x0s = np.empty(0)
    if x0s.shape != (len(points), dom.dim) or not ((x0s > dom.lo) & (x0s < dom.hi)).all():
        for i, p in enumerate(points):
            if p.shape != (dom.dim,) or not dom.contains(p):
                raise OutsideDomainError(f"{f.label}: points[{i}] = {p.tolist()} is not a point of the open domain")
    seeds = [(int(seed) * 1_000_003 + idx) & 0x7FFFFFFF for idx in range(len(points))]
    reports = _gateaux_reports(f, spec, x0s, _unit_directions(f, n_directions, seeds), seeds, tol)
    passed = [isinstance(rep, GateauxReport) and rep.passed for rep in reports]
    defects = [rep.defect if isinstance(rep, GateauxReport) else math.inf for rep in reports]
    density = sum(passed) / len(passed)  # np.mean of the bools, bit for bit
    confusion = None
    if f.kink_locus is not None and dom.dim == 1:
        locus = np.asarray(f.kink_locus, dtype=float)
        at_kink = (np.abs(locus - x0s).min(axis=1, initial=np.inf) <= _KINK_MATCH).tolist()
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
    value within epsilon, and the residual itself must stay in the cone;
    passed is derived from those two, and a failed precondition leaves the
    table empty.  max_base_norm decides nothing: cone membership puts each
    residual's base point within base_radius, up to rounding."""

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
        self.passed = bool(every_delta and self.residual_margin >= -self.tol)


def frechet_test(
    f: VectorMapping,
    spec: ParaSpec,
    x0,
    epsilons=(1e-2, 1e-3),
    n_directions: int = 16,
    tol: float = 1e-6,
    seed: int = 0,
) -> FrechetReport:
    """Uniformity of quotient convergence over sampled unit directions.

    Per direction h and step t the residual r(t, h) = (f(x0+th) - f(x0))/t
    + C*modulus(t)/t * k - D(h) is checked for cone membership; its value
    under the strictly positive functional is lambda_t, and when lambda_t
    is above tol the largest norm of a base point r/lambda_t is reported
    as max_base_norm.  Each epsilon needs a schedule step delta with
    max-over-h lambda_t <= epsilon for every sampled step at or below delta.  D(h) is taken from
    the family's analytic oracle when present, otherwise from the
    estimator, whose error bound then joins the allowances.

    The schedule is fixed: the default top step for the smallest boundary
    clearance along the sampled directions and _FRECHET_LEVELS - 1 (19)
    halvings of it.  The linearity battery runs next; its failure is
    reported as a failed precondition rather than raised, but a modulus that
    is not strong or a cone that is not pointed raises ValueError, and so do
    an epsilon that is a bool, or not finite and at least 0, as the config
    reader refuses it, and a schedule whose smallest step underflows to 0,
    each before any evaluation.
    """
    _require_tol(tol)
    x0 = _domain_point(f, x0, "test point")
    epsilons = list(epsilons)
    # a NaN is outside too, and a bool is no tolerance
    if not epsilons or not all(not isinstance(eps, (bool, np.bool_)) and 0.0 <= eps < math.inf for eps in epsilons):
        raise ValueError("epsilons must name at least one tolerance, each finite and nonnegative")
    _at_least_one(n_directions=n_directions)
    # antipodal pairs of sampled unit directions, at most max(n_directions, 2) in all
    dirs = [v for u in _unit_directions(f, max(n_directions, 2), [seed])[0] for v in (u, -u)][: max(n_directions, 2)]
    bd_min = float(f.domain.boundary_distance(x0, np.array(dirs)).min())
    t_schedule = _default_t0(bd_min) * _RATIO ** np.arange(_FRECHET_LEVELS)
    if not t_schedule[-1] > 0.0:
        raise ValueError(f"the Frechet schedule underflows to t = 0 at boundary clearance {bd_min}")
    e_star = strictly_positive_functional(spec.cone)
    radius = base_radius(spec.cone, e_star, norm_kind=f.codomain_norm)
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
            base_radius=radius,
            gateaux_defect=failed[0],
            tol=tol,
            seed=seed,
            notes=f"precondition failed: {failed[1]}",
        )

    # D(h) from the oracle where there is one, else from one batch of estimates
    d_vals = [known_directional(f, x0, u) for u in dirs]
    d_errs = np.zeros(len(dirs))
    missing = [i for i, val in enumerate(d_vals) if val is None]
    if missing:
        vals, errs = _point_estimates(f, spec, x0, [dirs[i] for i in missing], tol)
        for j, i in enumerate(missing):
            d_vals[i], d_errs[i] = vals[j], errs[j]
    # every direction's residuals on the schedule from one batch, one row per (direction, step)
    q = _quotients(f, spec, x0, np.array(dirs), np.broadcast_to(t_schedule, (len(dirs), t_schedule.size)))
    r = (q.corrected - np.array(d_vals)[:, None, :]).reshape(-1, q.f0.size)
    allow = (q.noise + d_errs[:, None]).reshape(-1)
    residual_margin = float(np.min((cone_margins(spec.cone, r) + allow) / _magnitude_scale(row_norms(r))))
    lam = matvec_rows(e_star[None, :], r)[:, 0]
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
        base_radius=radius,
        gateaux_defect=gtx.defect,
        tol=tol,
        seed=seed,
        notes="uniform residual decomposition over sampled directions",
    )
