"""Checkers and falsifiers for the relaxed-convexity inequalities.

Every checker reduces its vector inequality to scalar slacks through the
cone's unit supporting functionals and reports the most negative slack as
worst_margin, scaled relative to the sampled value magnitudes.  The boolean
verdict is exactly worst_margin >= -tol, which for a polyhedral cone in
inequality form is the cone membership test itself, so the verdict and the
margin can never disagree.

Sampling mixes seeded uniform triples with a deterministic dyadic small-gap
schedule: the characteristic failure mode of these inequalities lives at
small ||x - y|| where the allowance term vanishes faster than the gap, and
uniform sampling alone essentially never lands there.

Triples travel as arrays and every check evaluates its points in one batch.
A triple's margin does not depend on the batch it is computed in, so a
witness replayed alone reproduces its margin bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box,
    DualFunctional,
    interior_direction,
    is_standard_orthant,
    matvec_rows,
    norm,
    normality_constant,
    row_dots,
    row_norms,
    unit_dual_generators,
    unit_rows,
)
from .mappings import VectorMapping
from .modulus import ParaSpec, eval_modulus
from .reports import CheckReport


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
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")

    @property
    def mid(self) -> np.ndarray:
        return self.lam * self.x + (1.0 - self.lam) * self.y


@dataclass(frozen=True, eq=False)
class Triples:
    """Sampled triples as arrays: endpoints x and y, shape (n, d), and mixing
    weights lam, shape (n,).  The first `structured` rows come from the
    dyadic schedule.  It iterates and indexes like a list of SampleTriple."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    structured: int = 0

    def __len__(self) -> int:
        return int(self.lam.shape[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            kept = range(len(self))[i]
            return Triples(self.x[i], self.y[i], self.lam[i], structured=sum(k < self.structured for k in kept))
        return SampleTriple(x=self.x[i].copy(), y=self.y[i].copy(), lam=float(self.lam[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _as_triples(triples) -> Triples:
    if isinstance(triples, Triples):
        return triples
    triples = list(triples)
    if not triples:
        raise ValueError("no triples to check")
    return Triples(
        x=np.array([t.x for t in triples], dtype=float),
        y=np.array([t.y for t in triples], dtype=float),
        lam=np.array([t.lam for t in triples], dtype=float),
    )


def dyadic_small_gap_triples(box: Box, n_gaps: int = 14) -> Triples:
    """Deterministic schedule of midpoint triples with geometrically
    shrinking gaps around a few interior anchor points.

    Anchors sit at box fractions 1/2, 1/4, 3/4 along the diagonal; probe
    directions are the coordinate axes plus the main diagonal; gaps halve
    n_gaps times from just under the anchor's boundary clearance.
    """
    d = box.dim
    width = box.hi - box.lo
    dirs = [np.eye(d)[i] for i in range(d)]
    diag = np.ones(d) / math.sqrt(d)
    if not any(np.allclose(diag, u) for u in dirs):
        dirs.append(diag)
    halvings = np.ldexp(1.0, -np.arange(1, n_gaps + 1))[:, None]
    xs, ys = [np.zeros((0, d))], [np.zeros((0, d))]
    for frac in (0.5, 0.25, 0.75):
        c = box.lo + frac * width
        for u in dirs:
            span = 0.9 * min(box.boundary_distance(c, u), box.boundary_distance(c, -u))
            if span <= 0.0:
                continue
            t = span * halvings
            xs.append(c - t * u)
            ys.append(c + t * u)
    x, y = np.concatenate(xs), np.concatenate(ys)
    return Triples(x=x, y=y, lam=np.full(x.shape[0], 0.5), structured=x.shape[0])


def sample_triples(box: Box, budget: int, seed: int, structured: bool = True) -> Triples:
    """budget triples: the dyadic schedule first (when structured), then
    seeded uniform fill with every third pair contracted to a small gap.

    Triple i of the fill draws x, y and lam from the seeded stream in that
    order, and when i % 3 == 2 an exponent e right after them that contracts
    y to x + (y - x) * 2**-e.  The doubles of each run of triples up to such
    an i are drawn in one call, which leaves the stream as it is.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    d = box.dim
    head = dyadic_small_gap_triples(box)[: budget if structured else 0]
    rng = np.random.default_rng(seed)
    draws = [np.zeros((0, 2 * d + 1))]
    contracted, exponents = [], []
    i = len(head)
    while i < budget:
        stop = min(budget, i + 3 - i % 3)
        draws.append(rng.random((stop - i, 2 * d + 1)))
        if stop % 3 == 0:
            contracted.append(stop - 1 - len(head))
            exponents.append(rng.integers(1, 12))
        i = stop
    u = np.concatenate(draws)
    # Box.sample's arithmetic, lo + (hi - lo) * u
    width = box.hi - box.lo
    x = box.lo + width * u[:, :d]
    y = box.lo + width * u[:, d : 2 * d]
    if contracted:
        x_c = x[contracted]
        y[contracted] = x_c + (y[contracted] - x_c) * np.ldexp(1.0, -np.array(exponents))[:, None]
    return Triples(
        x=np.concatenate([head.x, x]),
        y=np.concatenate([head.y, y]),
        lam=np.concatenate([head.lam, u[:, 2 * d]]),
        structured=len(head),
    )


def _allowance_coef(form: str, constant: float, lam: np.ndarray) -> np.ndarray:
    if form == "min":
        return constant * np.minimum(lam, 1.0 - lam)
    if form == "lambda":
        return constant * lam * (1.0 - lam)
    raise ValueError(f"unknown allowance form {form!r}; expected 'min' or 'lambda'")


def _segment_values(f: VectorMapping, x: np.ndarray, y: np.ndarray, lam: np.ndarray):
    """f at x, at y and at the segment point lam*x + (1-lam)*y of every
    triple, from one batch; the segment points come back last."""
    n = lam.shape[0]
    mid = lam[:, None] * x + (1.0 - lam[:, None]) * y
    values = f.eval_batch(np.concatenate([x, y, mid]))
    return values[:n], values[n : 2 * n], values[2 * n :], mid


def _margins(f: VectorMapping, spec: ParaSpec, rows, form: str, x, y, lam) -> np.ndarray:
    """Worst scalar slack of every triple (x_i, y_i, lam_i), shape (n,).

    slack_j = lam*row_j(fx) + (1-lam)*row_j(fy) + coef*row_j(k) - row_j(fmid),
    divided by 1 + ||fx|| + ||fy|| so tolerances mean the same thing for
    large-magnitude families; coef = c(lam) * modulus(||x - y||).  Products
    and norms are taken row by row (matvec_rows, row_norms), so a triple's
    margin is the same bits in any batch.  The direct, scalarized and
    falsifying checks all use this kernel, so they agree bitwise on
    identical rows.  With no rows every slack is 0.
    """
    fx, fy, fmid, _ = _segment_values(f, x, y, lam)
    coef = _allowance_coef(form, spec.constant(form), lam) * eval_modulus(spec.modulus, row_norms(x - y, f.domain_norm))
    if not rows.shape[0]:
        return np.zeros(lam.shape[0])
    lam = lam[:, None]
    raw = lam * matvec_rows(rows, fx) + (1.0 - lam) * matvec_rows(rows, fy) + coef[:, None] * (rows @ spec.k)
    raw = raw - matvec_rows(rows, fmid)
    scale = 1.0 + row_norms(fx, f.codomain_norm) + row_norms(fy, f.codomain_norm)
    return np.min(raw / scale[:, None], axis=1)


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
    if spec.cone.dim != f.codomain_dim:
        raise ValueError("spec cone dimension does not match the mapping codomain")
    triples = sample_triples(f.domain, budget, seed) if triples is None else _as_triples(triples)
    if not len(triples):
        raise ValueError("no triples to check")
    margins = _margins(f, spec, rows, form, triples.x, triples.y, triples.lam)
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=worst,
        witness=triples[idx],
        samples_used=len(triples),
        tol=tol,
        seed=seed,
        notes=f"form={form}",
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
    rows = unit_dual_generators(spec.cone)
    return _check_rows(f, spec, rows, form, budget, seed, tol, triples)


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

    Functionals are audited against the spec cone's dual and scaled to unit
    length by the same unit_rows that unit_dual_generators uses (scalar
    relaxed convexity is invariant under positive scaling); the zero
    functional is legal and contributes an identically zero slack.  Rows
    already unit are used as given, so when the functionals are the cone's
    unit supporting rows this computes check_inequality's arithmetic, slack
    for slack.
    """
    rows = []
    for fun in functionals:
        coeffs = fun.coeffs if isinstance(fun, DualFunctional) else np.asarray(fun, dtype=float)
        if np.any(coeffs != 0.0):
            DualFunctional(coeffs, spec.cone)  # raises when outside the dual cone
        rows.append(coeffs)
    rows = unit_rows(rows) if rows else np.zeros((0, spec.cone.dim))
    return _check_rows(f, spec, rows, form, budget, seed, tol, triples)


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
    coordinate pattern search on (x, y, lam).  Every margin comes from the
    kernel check_inequality uses, and a triple's margin does not depend on
    its batch, so a reported failure replays identically under
    check_inequality(triples=[witness]).
    """
    rows = unit_dual_generators(spec.cone)
    triples = sample_triples(f.domain, budget, seed)
    margins = _margins(f, spec, rows, form, triples.x, triples.y, triples.lam)
    idx = int(np.argmin(margins))
    worst, witness = float(margins[idx]), triples[idx]
    source = "structured-dyadic" if idx < triples.structured else "random"

    def margin_of(triple: SampleTriple) -> float:
        return float(_margins(f, spec, rows, form, triple.x[None, :], triple.y[None, :], np.array([triple.lam]))[0])

    if worst < -tol and refine:
        refined, refined_margin = _pattern_search(f.domain, margin_of, witness, worst)
        if refined_margin < worst:  # keep only a strictly sharper violation
            witness, worst = refined, refined_margin
            source += "+refined"
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=float(worst),
        witness=witness,
        samples_used=len(triples),
        tol=tol,
        seed=seed,
        notes=f"form={form}; witness source: {source}" if worst < -tol else f"form={form}; no violation at budget",
    )


def _pattern_search(box: Box, objective, start: SampleTriple, start_val: float, rounds: int = 50):
    """Minimize the slack by coordinate steps on (x, y, lam), clipped to the
    open box and [0, 1]."""
    width = box.hi - box.lo
    inset = 1e-9 * width
    best, best_val = start, start_val
    step = 0.05
    for _ in range(rounds):
        improved = False
        candidates = []
        for axis in range(box.dim):
            for sign in (1.0, -1.0):
                dx = np.zeros(box.dim)
                dx[axis] = sign * step * width[axis]
                candidates.append((dx, np.zeros(box.dim), 0.0))
                candidates.append((np.zeros(box.dim), dx, 0.0))
        for dlam in (step, -step):
            candidates.append((np.zeros(box.dim), np.zeros(box.dim), dlam))
        for dx, dy, dlam in candidates:
            x = np.clip(best.x + dx, box.lo + inset, box.hi - inset)
            y = np.clip(best.y + dy, box.lo + inset, box.hi - inset)
            lam = float(np.clip(best.lam + dlam, 0.0, 1.0))
            cand = SampleTriple(x=x, y=y, lam=lam)
            val = objective(cand)
            if val < best_val:
                best, best_val = cand, val
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return best, best_val


def check_fact2(
    f: VectorMapping,
    spec: ParaSpec,
    y_star,
    budget: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    pairs=None,
) -> CheckReport:
    """Midpoint convexity of g(x) = y*(f(x)) + C*scale*||x||^2 * y*(k).

    Only meaningful for the square-gap modulus with the euclidean domain
    norm, where the parallelogram identity makes g convex exactly when the
    scalarized map satisfies the lam-form inequality.  The slack here is the
    raw midpoint defect g(x)/2 + g(y)/2 - g(midpoint), absolute tolerance.
    """
    if spec.modulus.kind != "square":
        raise ValueError("midpoint-convexity test needs the square-gap modulus")
    if f.domain_norm != "two":
        raise ValueError("midpoint-convexity test needs the euclidean domain norm")
    coeffs = y_star.coeffs if isinstance(y_star, DualFunctional) else np.asarray(y_star, dtype=float)
    DualFunctional(coeffs, spec.cone)  # audit
    # the parallelogram identity matches the lam-weighted form exactly
    c_lam = spec.C1 if spec.C1 is not None else 2.0 * spec.C
    c_eff = c_lam * spec.modulus.scale * float(coeffs @ spec.k)

    if pairs is None:
        triples = sample_triples(f.domain, budget, seed)
        x, y = triples.x, triples.y
    else:
        pairs = list(pairs)
        if not pairs:
            raise ValueError("no pairs to check")
        x = np.array([p[0] for p in pairs], dtype=float)
        y = np.array([p[1] for p in pairs], dtype=float)
    # lam = 1/2 puts the segment point at the midpoint 0.5*(x + y), exactly
    fx, fy, fmid, mid = _segment_values(f, x, y, np.full(x.shape[0], 0.5))

    def g(values, points):
        return matvec_rows(coeffs[None, :], values)[:, 0] + c_eff * row_dots(points, points)

    slack = 0.5 * g(fx, x) + 0.5 * g(fy, y) - g(fmid, mid)
    idx = int(np.argmin(slack))
    return CheckReport(
        passed=bool(slack[idx] >= -tol),
        worst_margin=float(slack[idx]),
        witness=SampleTriple(x=x[idx].copy(), y=y[idx].copy(), lam=0.5),
        samples_used=x.shape[0],
        tol=tol,
        seed=seed,
        notes="midpoint convexity of the shifted scalarization",
    )


def _ball_inside_domain(f: VectorMapping, x0: np.ndarray, radius: float):
    # the domain-norm ball sits inside the sup box of the same radius,
    # so per-axis clearance suffices (and is exact for the sup norm)
    if np.any(x0 - radius <= f.domain.lo) or np.any(x0 + radius >= f.domain.hi):
        raise ValueError(f"{f.label}: ball of radius {radius} around {x0.tolist()} escapes the open domain")


def _ball_samples(f: VectorMapping, x0: np.ndarray, radius: float, budget: int, rng) -> list:
    d = f.domain.dim
    pts = [x0.copy()]
    r_in = radius * (1.0 - 1e-9)
    for axis in range(d):
        for sign in (1.0, -1.0):
            e = np.zeros(d)
            e[axis] = sign
            pts.append(x0 + r_in * e)
    while len(pts) < budget:
        v = rng.uniform(-radius, radius, size=d)
        if norm(v, f.domain_norm) <= r_in:
            pts.append(x0 + v)
    return pts[:budget]


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
    ball the convexity defect may not exceed epsilon*lam*(1-lam)*||x - y||."""
    if f.codomain_dim != 1:
        raise ValueError("approximate-convexity test is defined for scalar mappings")
    if epsilon < 0.0 or delta <= 0.0:
        raise ValueError("need epsilon >= 0 and delta > 0")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    _ball_inside_domain(f, x0, delta)
    rng = np.random.default_rng(seed)
    d = f.domain.dim
    r_in = delta * (1.0 - 1e-9)

    pairs = []
    # maximal-gap probes first: the failure mode lives at gap close to 2*delta
    dirs = [np.eye(d)[i] for i in range(d)] + [np.ones(d) / math.sqrt(d)]
    for u in dirs:
        un = u / norm(u, f.domain_norm)
        pairs.append((x0 - r_in * un, x0 + r_in * un, 0.5))
    while len(pairs) < budget:
        v = rng.uniform(-delta, delta, size=d)
        w = rng.uniform(-delta, delta, size=d)
        if norm(v, f.domain_norm) <= r_in and norm(w, f.domain_norm) <= r_in:
            pairs.append((x0 + v, x0 + w, float(rng.uniform())))
    pairs = pairs[:budget]

    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    lam = np.array([p[2] for p in pairs])
    gx, gy, gm, _ = (v[:, 0] for v in _segment_values(f, x, y, lam))
    gap = row_norms(x - y, f.domain_norm)
    slack = lam * gx + (1.0 - lam) * gy + epsilon * lam * (1.0 - lam) * gap - gm
    idx = int(np.argmin(slack))
    return CheckReport(
        passed=bool(slack[idx] >= -tol),
        worst_margin=float(slack[idx]),
        witness=SampleTriple(x=x[idx], y=y[idx], lam=float(lam[idx])),
        samples_used=len(pairs),
        tol=tol,
        seed=seed,
        notes=f"epsilon={epsilon}, delta={delta}",
    )


def check_local_vector_bounded(
    f: VectorMapping,
    cone,
    x0,
    radius: float,
    budget: int = 256,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Find and verify a sandwich witness: -k_bar <= f(x) <= k_bar in the
    cone order over a ball around x0.

    For the standard orthant the witness is the componentwise absolute sup
    of the sampled values, which the sandwich then meets with margin zero.
    For other cones the witness is an interior direction scaled to dominate
    every supporting-functional envelope, inflated by 1.1 before the verify
    pass; any verified witness is as good as any other here.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    _ball_inside_domain(f, x0, radius)
    rng = np.random.default_rng(seed)
    pts = _ball_samples(f, x0, radius, budget, rng)
    vals = f.eval_batch(np.array(pts))
    rows = unit_dual_generators(cone)

    if is_standard_orthant(cone):
        k_bar = np.max(np.abs(vals), axis=0)
    else:
        env = np.max(np.abs(vals @ rows.T), axis=0)  # per-functional envelope
        k0, denom = interior_direction(cone)
        k_bar = 1.1 * float(np.max(env / denom)) * k0

    # verify the sandwich through the same functionals
    upper = (k_bar - vals) @ rows.T
    lower = (vals + k_bar) @ rows.T
    worst = float(min(np.min(upper), np.min(lower))) if rows.size else 0.0
    arg = int(np.argmin(np.min(np.minimum(upper, lower), axis=1)))
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=worst,
        witness=pts[arg],
        samples_used=len(pts),
        tol=tol,
        seed=seed,
        notes="sandwich bound over the sampled ball",
        extras={"k_bar": k_bar},
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
    on sampled pairs, then verify the norm form ||f(u)-f(x)|| <=
    gamma*L*||u-x||*||k|| with gamma the sampled order-bound constant."""
    if np.any(region.lo < f.domain.lo) or np.any(region.hi > f.domain.hi):
        raise ValueError("region escapes the mapping domain")
    rows = unit_dual_generators(spec.cone)
    denom_k = rows @ spec.k
    rng = np.random.default_rng(seed)
    n_pairs = max(budget // 2, 8)
    xs = region.sample(n_pairs, rng)
    ys = region.sample(n_pairs, rng)
    # deterministic short-gap pairs near the region corners
    width = region.hi - region.lo
    corners = region.lo + np.array([[0.05], [0.95]]) * width
    distinct = row_norms(xs - ys, f.domain_norm) > 0.0
    x = np.concatenate([xs[distinct], corners])
    u = np.concatenate([ys[distinct], corners + 0.01 * width * np.array([[1.0], [-1.0]])])
    n = x.shape[0]

    values = f.eval_batch(np.concatenate([u, x]))
    df = values[:n] - values[n:]
    gap = row_norms(u - x, f.domain_norm)
    proj = matvec_rows(rows, df)
    size = np.abs(proj)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(denom_k > 1e-12, size / (gap[:, None] * np.maximum(denom_k, 1e-300)), np.where(size > 0, np.inf, 0.0))
    big_l = float(np.max(r)) if r.size else 0.0
    if not np.isfinite(big_l):
        return CheckReport(
            passed=False,
            worst_margin=float("-inf"),
            witness=None,
            samples_used=n,
            tol=tol,
            seed=seed,
            notes="no finite constant: some functional vanishes on k but not on a sampled difference",
        )

    gamma = normality_constant(spec.cone, f.codomain_norm, budget=256, seed=seed + 1)
    bound = (big_l * gap)[:, None] * denom_k
    sandwich = np.concatenate([bound - proj, bound + proj], axis=1)
    margins = np.min(sandwich, axis=1) if sandwich.size else np.zeros(n)
    df_norm = row_norms(df, f.codomain_norm)
    norm_slack = (gamma * big_l * gap * norm(spec.k, f.codomain_norm) - df_norm) / (1.0 + df_norm)
    margins = np.where(norm_slack < margins, norm_slack, margins)  # Python's min(margin, norm_slack)
    idx = int(np.argmin(margins))
    return CheckReport(
        passed=bool(margins[idx] >= -tol),
        worst_margin=float(margins[idx]),
        witness=(x[idx], u[idx]),
        samples_used=n,
        tol=tol,
        seed=seed,
        notes="vector sandwich plus norm form",
        extras={"L": big_l, "gamma": gamma},
    )
