"""The derivative-side checks against frozen copies of the loops they replaced.

The upper-bound check and the Frechet test read one batch of corrected
quotients per direction, the batteries (gateaux_test, check_sublinear,
frechet_test) estimate all their directions from one stacked batch, and
gateaux_scan runs the linearity battery on a block of points per batch.
The functions below are the earlier step-by-step, direction-by-direction
and point-by-point implementations, kept as oracles: every margin, defect,
witness and table entry must agree to the last bit, and a ConvergenceError
must name the same direction with the same message.
"""

import dataclasses

import numpy as np

from paracone import (
    ConvergenceError,
    ParaSpec,
    build_trace,
    check_alpha_monotone,
    check_sublinear,
    check_upper_bound,
    directional_derivative,
    example1_default,
    frechet_test,
    gateaux_scan,
    gateaux_test,
    neg_abs_1d,
    orthant,
    square_modulus,
    table_modulus,
    zero_modulus,
)
from paracone.checks import _magnitude_scale
import paracone.derivative
from paracone.derivative import (
    FrechetReport,
    GateauxReport,
    _default_t0,
    _prep_direction,
    _quotients,
    _stop_levels,
    _unit_directions,
)
from paracone.geometry import (
    Box,
    as_point,
    base_radius,
    matvec_rows,
    norm,
    row_norms,
    strictly_positive_functional,
    unit_dual_generators,
)
from paracone.mappings import OutsideDomainError, VectorMapping
from paracone.modulus import eval_modulus
from paracone.reports import CheckReport


def _cone_margins(rows, a):
    """Smallest unit-functional value of every row of a (0 without functionals)."""
    return np.min(matvec_rows(rows, a), axis=1) if rows.size else np.zeros(len(a))


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


def _scalar_modulus(m, t):
    """Modulus value at one gap in Python floats, as the per-step loops computed it."""
    t = float(t)
    if m.kind == "zero":
        return 0.0 * t
    if m.kind == "square":
        return m.scale * t * t
    if m.kind == "power":
        return float(m.scale * np.float_power(t, m.p))
    ts = [0.0] + [k[0] for k in m.knots]
    vs = [0.0] + [k[1] for k in m.knots]
    assert t <= ts[-1] * (1.0 + 1e-12)
    return float(np.interp(min(t, ts[-1]), ts, vs))


def _loop_upper_bound(f, spec, x0, h, estimate):
    x0, h = _prep_direction(f, x0, h)
    top = _default_t0(f.domain.boundary_distance(x0, h))
    lo, hi = min(estimate.t_used, top), max(estimate.t_used, top)
    t_samples = np.asarray(sorted(set(float(t) for t in np.geomspace(lo, hi, 12))))
    rows = unit_dual_generators(spec.cone)
    c_min = spec.min_constant()
    values = f.eval_batch(np.concatenate([x0[None, :], x0 + t_samples[:, None] * h]))
    f0 = values[0]
    f0n = norm(f0, "two")
    dn = norm(estimate.value, "two")
    allow_used = _magnitude_scale(dn * estimate.t_used + f0n, f0n, step=estimate.t_used)
    worst = np.inf
    witness = None
    for t, ft in zip(t_samples, values[1:]):
        raw = (ft - f0) / t
        corr = c_min * _scalar_modulus(spec.modulus, t) / t
        residual = raw + corr * spec.k - estimate.value
        margin = float(np.min(rows @ residual)) if rows.size else 0.0
        allow = _magnitude_scale(float(np.linalg.norm(ft)), f0n, step=t)
        adjusted = (margin + allow + allow_used) / (1.0 + float(np.linalg.norm(raw)) + dn)
        if adjusted < worst:
            worst = adjusted
            witness = float(t)
    return float(worst), witness


def _loop_frechet(f, spec, x0, epsilons, n_directions, tol, seed):
    """The table, residual margin and largest base norm, past the linearity precondition."""
    e_star = strictly_positive_functional(spec.cone)
    dirs = [v for u in _unit_directions(f, max(n_directions, 2), [seed])[0] for v in (u, -u)][: max(n_directions, 2)]
    bd_min = min(f.domain.boundary_distance(x0, u) for u in dirs)
    top = min(0.1, 0.5 * bd_min)
    t_schedule = np.asarray(sorted((float(t) for t in top * 0.5 ** np.arange(20)), reverse=True))
    rows = unit_dual_generators(spec.cone)
    c_min = spec.min_constant()
    steps = x0 + t_schedule[:, None, None] * np.array(dirs)[None, :, :]
    values = f.eval_batch(np.concatenate([x0[None, :], steps.reshape(-1, x0.size)]))
    f0 = values[0]
    f_steps = values[1:].reshape(t_schedule.size, len(dirs), -1)
    f0n = norm(f0, "two")
    d_vals = []
    d_errs = []
    for u in dirs:
        val, err, _ = _estimate_along(f, spec, x0, u, tol)
        d_vals.append(val)
        d_errs.append(err)
    residual_margin = np.inf
    max_base_norm = 0.0
    lam_table = np.zeros((t_schedule.size, len(dirs)))
    for ti, t in enumerate(t_schedule):
        corr = c_min * _scalar_modulus(spec.modulus, t) / t
        for ui, ft in enumerate(f_steps[ti]):
            r = (ft - f0) / t + corr * spec.k - d_vals[ui]
            allow = _magnitude_scale(float(np.linalg.norm(ft)), f0n, step=t) + d_errs[ui]
            margin = (float(np.min(rows @ r)) + allow) / (1.0 + float(np.linalg.norm(r)))
            residual_margin = min(residual_margin, margin)
            lam = float(e_star @ r)
            lam_table[ti, ui] = lam
            if lam > tol:
                max_base_norm = max(max_base_norm, float(norm(r / lam, f.codomain_norm)))
    table = []
    max_lam_per_t = np.max(lam_table, axis=1)
    for eps in epsilons:
        ok = max_lam_per_t <= eps
        delta = next((float(t) for ti, t in enumerate(t_schedule) if np.all(ok[ti:])), None)
        table.append({"epsilon": float(eps), "delta": delta, "max_lambda": float(np.max(max_lam_per_t))})
    return float(residual_margin), float(max_base_norm), table


def _hex(x):
    return None if x is None else float(x).hex()


def _table_hex(table):
    return [(_hex(r["epsilon"]), _hex(r["delta"]), _hex(r["max_lambda"])) for r in table]


def _spec_variants(f):
    """The claimed spec, a zero-modulus spec and a tabulated copy of the
    claimed modulus, its first knot value 0 so the table is strong."""
    claimed = f.claimed
    knots = [(0.01, 0.0)] + [(t, float(eval_modulus(claimed.modulus, t))) for t in (0.05, 0.2)]
    return (
        claimed,
        ParaSpec(modulus=zero_modulus(), k=claimed.k, cone=claimed.cone, C=0.0),
        dataclasses.replace(claimed, modulus=table_modulus(knots)),
    )


def _directions(f, n, seed):
    rng = np.random.default_rng(seed)
    inner = f.domain.shrink(0.1)
    out = []
    for _ in range(n):
        h = rng.normal(size=f.domain.dim)
        out.append((inner.sample(1, rng)[0], h / norm(h, f.domain_norm)))
    return out


def test_upper_bound_matches_step_loop(families):
    compared = 0
    for f in families:
        specs = _spec_variants(f)
        for x0, h in _directions(f, 4, seed=31):
            est = directional_derivative(f, f.claimed, x0, h, tol=1e-6)
            if not est.converged:
                continue
            top = _default_t0(f.domain.boundary_distance(x0, h))
            # the estimate as made, and one stopped at the top itself, whose 12 steps collapse in the dedup
            for spec in specs:
                for e in (est, dataclasses.replace(est, t_used=float(top))):
                    got = check_upper_bound(f, spec, x0, h, e, tol=1e-9)
                    want = _loop_upper_bound(f, spec, x0, h, e)
                    assert (_hex(got.worst_margin), _hex(got.witness)) == (_hex(want[0]), _hex(want[1])), (f.label, spec.modulus.kind)
                    compared += 1
    assert compared >= 100


def test_frechet_matches_step_loop(families):
    epsilons = (1e-2, 1e-4, 1e-12)
    compared = 0
    deltas = set()
    for f in families:
        # D(h) comes from the estimator, its error bound joining the allowances, with or without the oracle
        for g in (f, dataclasses.replace(f, analytic_directional=None)):
            for x0, _ in _directions(g, 2, seed=47):
                for spec in _spec_variants(g):
                    for seed, n_dirs in ((3, 16), (5, 6)):
                        rep = frechet_test(g, spec, x0, epsilons=epsilons, n_directions=n_dirs, tol=1e-6, seed=seed)
                        if not rep.table:
                            continue  # the linearity precondition failed before any residual was formed
                        want = _loop_frechet(g, spec, x0, epsilons, n_dirs, 1e-6, seed)
                        got = (_hex(rep.residual_margin), _hex(rep.max_base_norm), _table_hex(rep.table))
                        assert got == (_hex(want[0]), _hex(want[1]), _table_hex(want[2])), (g.label, spec.modulus.kind)
                        compared += 1
                        deltas.update(row["delta"] is None for row in rep.table)
    assert compared >= 100
    assert deltas == {True, False}


def test_estimate_is_the_trace_quotient_at_its_stop(families):
    """The estimator evaluates only the levels whose brackets can reach tol,
    and the full grid again where it does not converge on them: every
    estimate, converged or not, is the stop rule run on the full trace."""
    outcomes = []
    for f in families:
        for x0, h in _directions(f, 3, seed=59):
            for ratio, depth in ((0.5, 40), (1.0 / 3.0, 25), (0.9, 60)):
                tr = build_trace(f, f.claimed, x0, h, ratio=ratio, depth=depth)
                for tol in (1e-6, 1e-9, 1e-12, 0.0):
                    est = directional_derivative(f, f.claimed, x0, h, tol=tol, ratio=ratio, max_depth=depth)
                    stop = _stop_levels(f.claimed, tr.raw[None], tr.allowance[None], tr.noise[None], tol)
                    (level,), (bound,), (converged,) = stop
                    assert est.value.tobytes() == tr.raw[level].tobytes(), (f.label, ratio, tol)
                    got = (_hex(est.error_bound), _hex(est.t_used), est.iterations, est.converged)
                    assert got == (_hex(bound), _hex(tr.t_grid[level]), level + 1, converged), (f.label, ratio, tol)
                    outcomes.append(converged)
    assert sum(outcomes) > 50 and outcomes.count(False) > 50


def _loop_alpha_monotone(trace):
    """The grid-pair loop: per (coarse, fine) pair a < b the cone margin of
    corrected[a] - raw[b] plus both rounding allowances over the quotient
    magnitudes; the worst of them, its steps and the pair count."""
    rows = unit_dual_generators(trace.spec.cone)
    raw_norms = [norm(v, "two") for v in trace.raw]
    worst, witness, count = np.inf, None, 0
    for a in range(trace.t_grid.size):
        for b in range(a + 1, trace.t_grid.size):
            margin = _cone_margins(rows, (trace.corrected[a] - trace.raw[b])[None])[0]
            adjusted = (margin + trace.noise[a] + trace.noise[b]) / (1.0 + raw_norms[a] + raw_norms[b])
            count += 1
            if adjusted < worst:
                worst, witness = adjusted, (float(trace.t_grid[a]), float(trace.t_grid[b]))
    return float(worst), witness, count


def test_alpha_monotone_matches_the_pair_loop(families, monkeypatch):
    """check_alpha_monotone scores each (coarse, fine) pair it reports once:
    780 rows at depth 40, where the full square of pairs was 1,600."""
    scored = []
    margins = paracone.derivative.cone_margins
    monkeypatch.setattr(paracone.derivative, "cone_margins", lambda cone, a: scored.append(len(a)) or margins(cone, a))
    verdicts = set()
    traces = [
        build_trace(f, spec, x0, h, ratio=ratio, depth=depth)
        for f in families
        for x0, h in _directions(f, 2, seed=61)
        for spec in _spec_variants(f)
        for ratio, depth in ((0.5, 40), (1.0 / 3.0, 25))
    ]
    # -|x| straddling its kink under a square-gap allowance: the failing control
    lie = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=1.0)
    traces.append(build_trace(neg_abs_1d(), lie, [-0.05], [1.0], depth=40))
    for tr in traces:
        scored.clear()
        rep = check_alpha_monotone(tr, tol=1e-9)
        worst, witness, count = _loop_alpha_monotone(tr)
        assert (_hex(rep.worst_margin), [_hex(t) for t in rep.witness]) == (_hex(worst), [_hex(t) for t in witness])
        n = tr.t_grid.size
        assert rep.samples_used == count == scored[0] == n * (n - 1) // 2 and len(scored) == 1
        verdicts.add(rep.passed)
    # the last trace, the control, has 40 levels
    assert scored == [780] and not rep.passed
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the batteries, one estimate batch per direction


def _schedule_independence(f, spec, x0, h0, base_val, base_err, tol, lambdas, measure):
    h0 = np.asarray(h0, dtype=float)
    for lam in lambdas:
        if lam <= 0.0:
            raise ValueError("homogeneity factors must be positive")
        t0_b = min(lam * _default_t0(f.domain.boundary_distance(x0, h0)), 0.49 * f.domain.boundary_distance(x0, h0))
        val_b, err_b, _ = _estimate_along(f, spec, x0, h0, tol, t0=t0_b)
        yield lam, measure(lam * val_b - lam * base_val), lam * (base_err + err_b)


def _loop_sublinear(f, spec, x0, direction_pairs=None, lambdas=(0.5, 2.0), tol=1e-6, seed=0):
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
        worst_margin=float(worst),
        witness=witness,
        samples_used=count,
        tol=tol,
        seed=seed,
        notes="cone subadditivity and positive homogeneity of the estimated derivative",
    )


def _loop_gateaux(f, spec, x0, directions=None, n_directions=8, tol=1e-6, seed=0):
    x0 = as_point(x0, f.domain.dim)
    if not f.domain.contains(x0):
        raise OutsideDomainError(f"{f.label}: test point outside the open domain")
    base_dirs = directions if directions is not None else _unit_directions(f, n_directions, [seed])[0]
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

    def _row_measure(vec):
        return float(np.max(np.abs(rows @ vec), initial=0.0))

    neg_inf = float("-inf")
    margins = {"antisymmetry": neg_inf, "additivity": neg_inf, "homogeneity": neg_inf, "continuity": neg_inf}

    for u in base_dirs:
        vp, ep, _ = ests[tuple(np.round(u, 15))]
        vm, em, _ = ests[tuple(np.round(-u, 15))]
        margins["antisymmetry"] = max(margins["antisymmetry"], _row_measure(vp + vm) - (ep + em))

    if len(base_dirs) == 1:
        pair_list = [(base_dirs[0], -base_dirs[0])]
    else:
        pair_list = list(zip(base_dirs, base_dirs[1:]))[:4]
    for h1, h2 in pair_list:
        v1, e1, _ = ests[tuple(np.round(h1, 15))]
        v2, e2, _ = ests[tuple(np.round(h2, 15))]
        v12, e12, _ = _estimate_along(f, spec, x0, h1 + h2, tol)
        margins["additivity"] = max(margins["additivity"], _row_measure(v1 + v2 - v12) - (e1 + e2 + e12))

    h0 = base_dirs[0]
    v0, e0, _ = ests[tuple(np.round(h0, 15))]
    for lam, diff, allow in _schedule_independence(f, spec, x0, h0, v0, e0, tol, (0.5, 2.0), _row_measure):
        margins["homogeneity"] = max(margins["homogeneity"], (diff - allow) / max(1.0, lam))

    deriv_rows = [
        float(np.max(np.abs(rows @ val) / np.maximum(row_k, 1e-300))) if rows.size else 0.0
        for val, _, _ in ests.values()
    ]
    l_used = max(deriv_rows)
    c_min = spec.min_constant()
    t_star = max(est.t_used for _, _, est in ests.values())
    for u in base_dirs:
        vp, ep, _ = ests[tuple(np.round(u, 15))]
        vm, em, _ = ests[tuple(np.round(-u, 15))]
        bound = (l_used * norm(2.0 * u, f.domain_norm) + c_min * eval_modulus(spec.modulus, t_star) / t_star) * np.maximum(
            row_k, 1e-300
        )
        viol = float(np.max(np.abs(rows @ (vp - vm)) - bound - (ep + em)))
        margins["continuity"] = max(margins["continuity"], viol)

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


def _loop_frechet_test(f, spec, x0, epsilons=(1e-2, 1e-3), n_directions=16, tol=1e-6, seed=0):
    x0 = as_point(x0, f.domain.dim)
    e_star = strictly_positive_functional(spec.cone)
    radius = base_radius(spec.cone, e_star, norm_kind=f.codomain_norm)
    try:
        gtx = _loop_gateaux(f, spec, x0, n_directions=max(n_directions, 2), tol=tol, seed=seed)
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

    dirs = [v for u in _unit_directions(f, max(n_directions, 2), [seed])[0] for v in (u, -u)][: max(n_directions, 2)]

    bd_min = min(f.domain.boundary_distance(x0, u) for u in dirs)
    top = min(0.1, 0.5 * bd_min)
    t_schedule = np.asarray(sorted((float(t) for t in top * 0.5 ** np.arange(20)), reverse=True))
    if t_schedule[0] >= bd_min:
        raise ValueError("schedule step leaves the domain along a sampled direction")

    rows = unit_dual_generators(spec.cone)
    residual_margin = np.inf
    max_base_norm = 0.0
    lam_table = np.zeros((t_schedule.size, len(dirs)))
    for ui, u in enumerate(dirs):
        d_val, d_err, _ = _estimate_along(f, spec, x0, u, tol)
        q = _quotients(f, spec, x0, u, t_schedule)
        r = q.corrected - d_val
        margins = (_cone_margins(rows, r) + (q.noise + d_err)) / (1.0 + row_norms(r))
        residual_margin = min(residual_margin, float(np.min(margins)))
        lam = matvec_rows(e_star[None, :], r)[:, 0]
        lam_table[:, ui] = lam
        big = lam > tol
        if big.any():
            max_base_norm = max(max_base_norm, float(np.max(row_norms(r[big] / lam[big, None], f.codomain_norm))))

    table = []
    max_lam_per_t = np.max(lam_table, axis=1)
    for eps in epsilons:
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


def _bits(obj):
    """A report as nested plain values with every float as float.hex."""
    if dataclasses.is_dataclass(obj):
        return {fld.name: _bits(getattr(obj, fld.name)) for fld in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _bits(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return _bits(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def _outcome(battery, *args, **kwargs):
    """The report's bits, or the message of the ConvergenceError raised."""
    try:
        return _bits(battery(*args, **kwargs))
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


def _battery_points(f, n, seed):
    """Declared kinks inside the domain first, then seeded interior points: n in all."""
    inner = f.domain.shrink(0.1)
    kinks = [np.array([k]) for k in (f.kink_locus or ()) if inner.contains(np.array([k]))][: n // 4]
    return kinks + list(inner.sample(n - len(kinks), np.random.default_rng(seed)))


def _curved_along_x2():
    """(x2^2, x1) with a zero modulus: estimates along x1 converge at tolerances
    the curvature along x2 keeps the other directions from reaching, so a
    battery meets non-convergence after its first direction."""
    f = VectorMapping(
        domain=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        codomain_dim=2,
        evaluator=lambda x: np.stack([x[:, 1] ** 2, x[:, 0]], axis=1),
        label="curved-along-x2",
    )
    return f, ParaSpec(modulus=zero_modulus(), k=np.array([1.0, 1.0]), cone=orthant(2), C=0.0)


def test_batteries_match_direction_loops(families):
    outcomes = []
    f, spec = _curved_along_x2()
    for i, x0 in enumerate(_battery_points(f, 4, seed=71)):
        for tol in (1e-6, 1e-9):
            for battery, oracle, kwargs in (
                (gateaux_test, _loop_gateaux, {"n_directions": 4, "seed": i}),
                (check_sublinear, _loop_sublinear, {"direction_pairs": [([1.0, 0.0], [0.6, 0.8]), ([0, 1], [1, 0])]}),
                (frechet_test, _loop_frechet_test, {"n_directions": 8, "seed": i}),
            ):
                got = _outcome(battery, f, spec, x0, tol=tol, **kwargs)
                assert got == _outcome(oracle, f, spec, x0, tol=tol, **kwargs), (battery.__name__, i, tol)
                outcomes.append(got)
    for f in families:
        # frechet_test reads no oracle: the family without one gets the same report
        blind = dataclasses.replace(f, analytic_directional=None)
        for i, x0 in enumerate(_battery_points(f, 12, seed=67)):
            # the tighter tolerances leave some directions short of convergence
            tol = (1e-6, 1e-6, 1e-9, 1e-11)[i % 4]
            for n_dirs in (2, 4, 8):
                seed = 10 * i + n_dirs
                got = _outcome(gateaux_test, f, f.claimed, x0, n_directions=n_dirs, tol=tol, seed=seed)
                assert got == _outcome(_loop_gateaux, f, f.claimed, x0, n_directions=n_dirs, tol=tol, seed=seed), (f.label, i)
                outcomes.append(got)
            n_dirs = (2, 4, 8)[i % 3]
            got = _outcome(frechet_test, f, f.claimed, x0, n_directions=n_dirs, tol=tol, seed=i)
            assert got == _outcome(frechet_test, blind, f.claimed, x0, n_directions=n_dirs, tol=tol, seed=i), (f.label, i)
            assert got == _outcome(_loop_frechet_test, f, f.claimed, x0, n_directions=n_dirs, tol=tol, seed=i), (f.label, i)
            outcomes.append(got)
            got = _outcome(check_sublinear, f, f.claimed, x0, tol=tol, seed=i)
            assert got == _outcome(_loop_sublinear, f, f.claimed, x0, tol=tol, seed=i), (f.label, i)
            outcomes.append(got)
    raised = {out for out in outcomes if isinstance(out, str)}
    verdicts = {out.get("passed") for out in outcomes if isinstance(out, dict)}
    # both verdicts, and non-convergence along more than one direction
    assert verdicts == {True, False}
    assert len(raised) >= 3


# ---------------------------------------------------------------------------
# the scan, one battery batch per block of points


def _loop_scan(f, spec, points, n_directions, tol, seed):
    """_loop_gateaux at each point with the scan's derived seed: per point
    its report, or the message of the ConvergenceError it raised, which the
    scan counts as a failed point with defect inf."""
    out = []
    for idx, p in enumerate(points):
        sub_seed = (int(seed) * 1_000_003 + idx) & 0x7FFFFFFF
        out.append(_outcome(_loop_gateaux, f, spec, p, n_directions=n_directions, tol=tol, seed=sub_seed))
    return out


class _FirstBatch(Exception):
    """Raised in place of a scan's first estimate batch, carrying its point count."""


def _block_size(monkeypatch, f, points, n_directions):
    """How many of points the scan puts in its first batch."""
    def first(g, spec, x0s, *args, **kwargs):
        raise _FirstBatch(len(x0s))

    monkeypatch.setattr(paracone.derivative, "_estimates", first)
    try:
        gateaux_scan(f, f.claimed, f.domain, points=points, n_directions=n_directions, tol=1e-6, seed=0)
    except _FirstBatch as batch:
        return batch.args[0]
    finally:
        monkeypatch.undo()


def _scan_bits(monkeypatch, f, points, n_directions, tol, seed, block_values=None):
    """The scan's passed and defects, the per-point outcomes of its battery
    kernel, with every float as float.hex, and the point count of every
    estimate batch; block_values, when given, replaces the batch budget."""
    if block_values is not None:
        monkeypatch.setattr(paracone.derivative, "_BLOCK_VALUES", block_values)
    kernel = paracone.derivative._gateaux_reports
    inner = paracone.derivative._estimates
    outcomes, batches = [], []

    def recorded(g, spec, x0s, *args):
        reports = kernel(g, spec, x0s, *args)
        outcomes.extend(f"ConvergenceError: {rep}" if isinstance(rep, ConvergenceError) else _bits(rep) for rep in reports)
        return reports

    def counted(g, spec, x0s, *args, **kwargs):
        batches.append(len(x0s))
        return inner(g, spec, x0s, *args, **kwargs)

    monkeypatch.setattr(paracone.derivative, "_gateaux_reports", recorded)
    monkeypatch.setattr(paracone.derivative, "_estimates", counted)
    try:
        rep = gateaux_scan(f, f.claimed, f.domain, points=points, n_directions=n_directions, tol=tol, seed=seed)
    finally:
        monkeypatch.undo()
    return (rep.passed, _bits(rep.defects), outcomes), batches


def _scan_cases(families):
    """(mapping, points) per testbed family, the declared kinks and then seeded
    points, some within 0.2 of the boundary where the lam = 2 grid is clipped
    to 0.49 of the clearance, and example1 at its kinks and their midpoints."""
    for f in families:
        kinks = [np.array([k]) for k in (f.kink_locus or ()) if f.domain.shrink(0.1).contains(np.array([k]))]
        yield f, kinks + list(f.domain.shrink(0.02).sample(256 - len(kinks), np.random.default_rng(83)))
    f = example1_default()
    kinks = sorted(f.kink_locus)
    yield f, [np.array([x]) for x in kinks + [(a + b) / 2.0 for a, b in zip(kinks, kinks[1:])]]


def test_scan_matches_the_point_loop(families, monkeypatch):
    """Every combination of tol and n_directions runs on every family, one
    with 3b + 2 points (b the block size) and the others with 1, b - 1, b
    or b + 1 in turn, so every count meets every family; the 3b + 2 scan
    runs again with one point per batch and with all points in one batch.
    At tol 5e-7 the estimates converge at some points of neg-square and
    smooth-r2-r3 and not at others, so one block holds both."""
    combos = [(tol, n_dirs) for tol in (1e-6, 5e-7, 1e-9, 1e-11) for n_dirs in (2, 4, 8)]
    outcomes, mixed = [], 0
    for case, (f, pool) in enumerate(_scan_cases(families)):
        block = {n_dirs: _block_size(monkeypatch, f, pool, n_dirs) for n_dirs in (2, 4, 8)}
        for i, (tol, n_dirs) in enumerate(combos):
            b = block[n_dirs]
            assert 1 <= b < len(pool) // 3
            count = 3 * b + 2 if i == case % len(combos) else (1, b - 1, b, b + 1)[(i + case) % 4]
            points = pool[: max(count, 1)]
            got, batches = _scan_bits(monkeypatch, f, points, n_dirs, tol, seed=i)
            assert batches == [b] * (len(points) // b) + [len(points) % b] * (len(points) % b > 0), (f.label, count)
            want = _loop_scan(f, f.claimed, points, n_dirs, tol, seed=i)
            starts = np.cumsum([0] + batches[:-1])
            mixed += sum(len({isinstance(out, str) for out in want[s : s + n]}) == 2 for s, n in zip(starts, batches))
            assert got[2] == want, (f.label, tol, n_dirs, count)
            assert got[0] == [isinstance(out, dict) and out["passed"] for out in want]
            assert got[1] == [out["defect"] if isinstance(out, dict) else float("inf").hex() for out in want]
            if count == 3 * b + 2:
                for block_values in (1, 2**62):
                    again, batches = _scan_bits(monkeypatch, f, points, n_dirs, tol, seed=i, block_values=block_values)
                    assert again == got
                    assert batches == ([1] * len(points) if block_values == 1 else [len(points)])
            outcomes.extend(want)
    raised = [out for out in outcomes if isinstance(out, str)]
    verdicts = {out["passed"] for out in outcomes if isinstance(out, dict)}
    # both verdicts, points that did not converge, and blocks of converged and unconverged points
    assert verdicts == {True, False}
    assert raised
    assert mixed
