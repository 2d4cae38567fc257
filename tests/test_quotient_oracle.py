"""The upper-bound check and the Frechet test against frozen copies of the
step-by-step loops they replaced.

Both checks now read one batch of corrected quotients per direction.  The
loops below are the earlier per-step implementations, kept as oracles:
every margin, witness and table entry must agree to the last bit.
"""

import dataclasses

import numpy as np

from paracone import (
    ParaSpec,
    build_trace,
    check_upper_bound,
    directional_derivative,
    frechet_test,
    table_modulus,
    zero_modulus,
)
from paracone.derivative import _default_t0, _estimate_along, _prep_direction, _quotient_noise, _unit_directions
from paracone.geometry import norm, strictly_positive_functional, unit_dual_generators
from paracone.mappings import known_directional
from paracone.modulus import eval_modulus


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


def _loop_upper_bound(f, spec, x0, h, estimate, t_samples=None, n_samples=12):
    x0, h, _ = _prep_direction(f, x0, h)
    if t_samples is None:
        top = _default_t0(f, x0, h)
        lo, hi = min(estimate.t_used, top), max(estimate.t_used, top)
        t_samples = np.geomspace(lo, hi, n_samples)
    t_samples = np.asarray(sorted(set(float(t) for t in t_samples)))
    rows = unit_dual_generators(spec.cone)
    c_min = spec.min_constant()
    values = f.eval_batch(np.concatenate([x0[None, :], x0 + t_samples[:, None] * h]))
    f0 = values[0]
    f0n = norm(f0, "two")
    dn = norm(estimate.value, "two")
    allow_used = _quotient_noise(estimate.t_used, dn * estimate.t_used + f0n, f0n)
    worst = np.inf
    witness = None
    for t, ft in zip(t_samples, values[1:]):
        raw = (ft - f0) / t
        corr = c_min * _scalar_modulus(spec.modulus, t) / t
        residual = raw + corr * spec.k - estimate.value
        margin = float(np.min(rows @ residual)) if rows.size else 0.0
        allow = _quotient_noise(t, float(np.linalg.norm(ft)), f0n)
        adjusted = (margin + allow + allow_used) / (1.0 + float(np.linalg.norm(raw)) + dn)
        if adjusted < worst:
            worst = adjusted
            witness = float(t)
    return float(worst), witness


def _loop_frechet(f, spec, x0, epsilons, n_directions, t_schedule, tol, seed):
    """The table, residual margin and largest base norm, past the linearity precondition."""
    e_star = strictly_positive_functional(spec.cone)
    dirs = [v for u in _unit_directions(f, max(n_directions, 2), seed) for v in (u, -u)][: max(n_directions, 2)]
    bd_min = min(f.domain.boundary_distance(x0, u) for u in dirs)
    if t_schedule is None:
        top = min(0.1, 0.5 * bd_min)
        t_schedule = top * 0.5 ** np.arange(20)
    t_schedule = np.asarray(sorted((float(t) for t in t_schedule), reverse=True))
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
        oracle = known_directional(f, x0, u)
        if oracle is not None:
            d_vals.append(oracle)
            d_errs.append(0.0)
        else:
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
            allow = _quotient_noise(t, float(np.linalg.norm(ft)), f0n) + d_errs[ui]
            margin = (float(np.min(rows @ r)) + allow) / (1.0 + float(np.linalg.norm(r)))
            residual_margin = min(residual_margin, margin)
            lam = float(e_star(r))
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
    """The claimed spec, a zero-modulus spec and a tabulated copy of the claimed modulus."""
    claimed = f.claimed
    knots = [(t, float(eval_modulus(claimed.modulus, t))) for t in (0.01, 0.05, 0.2)]
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
            top = _default_t0(f, x0, h)
            for spec in specs:
                for t_samples, n_samples in ((None, 12), (None, 5), ([0.5 * top, 1e-3 * top, 0.5 * top, 0.1 * top], 12)):
                    got = check_upper_bound(f, spec, x0, h, est, t_samples=t_samples, n_samples=n_samples, tol=1e-9)
                    want = _loop_upper_bound(f, spec, x0, h, est, t_samples=t_samples, n_samples=n_samples)
                    assert (_hex(got.worst_margin), _hex(got.witness)) == (_hex(want[0]), _hex(want[1])), (f.label, spec.modulus.kind)
                    compared += 1
    assert compared >= 150


def test_frechet_matches_step_loop(families):
    epsilons = (1e-2, 1e-4, 1e-12)
    compared = 0
    deltas = set()
    for f in families:
        # without the analytic oracle D(h) comes from the estimator and its error bound joins the allowances
        for g in (f, dataclasses.replace(f, analytic_directional=None)):
            for x0, _ in _directions(g, 2, seed=47):
                for spec in _spec_variants(g):
                    for seed, n_dirs, t_schedule in ((3, 16, None), (5, 6, [0.02, 0.005, 0.01, 0.0025, 1e-4])):
                        rep = frechet_test(g, spec, x0, epsilons=epsilons, n_directions=n_dirs, t_schedule=t_schedule, tol=1e-6, seed=seed)
                        if not rep.table:
                            continue  # the linearity precondition failed before any residual was formed
                        want = _loop_frechet(g, spec, x0, epsilons, n_dirs, t_schedule, 1e-6, seed)
                        got = (_hex(rep.residual_margin), _hex(rep.max_base_norm), _table_hex(rep.table))
                        assert got == (_hex(want[0]), _hex(want[1]), _table_hex(want[2])), (g.label, spec.modulus.kind)
                        compared += 1
                        deltas.update(row["delta"] is None for row in rep.table)
    assert compared >= 100
    assert deltas == {True, False}


def test_estimate_is_the_trace_quotient_at_its_stop(families):
    for f in families:
        for x0, h in _directions(f, 3, seed=59):
            for ratio, depth in ((0.5, 40), (1.0 / 3.0, 25)):
                est = directional_derivative(f, f.claimed, x0, h, tol=1e-6, ratio=ratio, max_depth=depth)
                tr = build_trace(f, f.claimed, x0, h, ratio=ratio, depth=depth)
                assert est.t_used == tr.t_grid[est.iterations - 1]
                assert est.value.tobytes() == tr.raw[est.iterations - 1].tobytes(), f.label
