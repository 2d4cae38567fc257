"""Growth moduli and relaxed-convexity problem specifications.

A modulus is a nondecreasing function of the gap size that scales the
allowance added to the convexity inequality.  The built-in kinds cover the
cases the checks care about: identically zero, a multiple of t^2, a general
power, and a tabulated function on a finite grid.  verify_modulus certifies
the structural properties a modulus needs for the derivative machinery:
monotone values and a ratio t -> modulus(t)/t that stays below a threshold
near zero and does not grow as t shrinks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .geometry import PolyCone, as_point, contains
from .reports import CheckReport

MODULUS_KINDS = ("zero", "square", "power", "table")


@dataclass(frozen=True)
class Modulus:
    kind: str
    scale: float = 1.0
    p: float = 2.0
    knots: tuple = ()

    def __post_init__(self):
        if self.kind not in MODULUS_KINDS:
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError("modulus scale must be finite and nonnegative")
        if self.kind == "power":
            if not np.isfinite(self.p) or self.p <= 0.0:
                raise ValueError("power modulus needs a positive exponent")
        if self.kind == "table":
            knots = tuple((float(t), float(v)) for t, v in self.knots)
            if not knots:
                raise ValueError("table modulus needs at least one knot")
            ts = np.array([t for t, _ in knots])
            vs = np.array([v for _, v in knots])
            if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
                raise ValueError("table knots need strictly increasing positive gap values")
            if np.any(vs < 0.0) or np.any(np.diff(vs) < -0.0):
                raise ValueError("table values must be nonnegative and nondecreasing")
            object.__setattr__(self, "knots", knots)


def zero_modulus() -> Modulus:
    return Modulus(kind="zero", scale=0.0)


def square_modulus(scale: float = 1.0) -> Modulus:
    return Modulus(kind="square", scale=scale)


def power_modulus(p: float, scale: float = 1.0) -> Modulus:
    return Modulus(kind="power", scale=scale, p=p)


def table_modulus(knots) -> Modulus:
    return Modulus(kind="table", knots=tuple(knots))


def eval_modulus(m: Modulus, t):
    """Value at gap size t >= 0 as a float, or at every gap of an array of
    them (same shape out); each gap's value is bitwise the same either way.
    Tables interpolate from the implicit (0, 0) anchor and refuse to
    extrapolate past their last knot."""
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t < np.inf)).all():
        raise ValueError(f"modulus argument must be a finite nonnegative number, got {t}")
    if m.kind == "zero":
        out = 0.0 * t
    elif m.kind == "square":
        out = m.scale * t * t
    elif m.kind == "power":
        # the C library's pow, as the float t ** p this modulus is defined by
        out = m.scale * np.float_power(t, m.p)
    else:
        ts = [0.0] + [k[0] for k in m.knots]
        vs = [0.0] + [k[1] for k in m.knots]
        if np.any(t > ts[-1] * (1.0 + 1e-12)):
            raise ValueError(f"gap {np.max(t)} beyond the last table knot {ts[-1]}; refusing to extrapolate")
        out = np.interp(np.minimum(t, ts[-1]), ts, vs)
    return float(out) if isinstance(out, float) else out


def verify_modulus(m: Modulus, grid, ratio_threshold: float, tol: float = 1e-12) -> CheckReport:
    """Certify modulus behaviour on a decreasing-to-zero grid of gaps.

    Three slacks are recorded: monotone values along the grid, the ratio
    modulus(t)/t at the smallest gap staying below ratio_threshold, and that
    ratio not increasing as the grid descends toward zero.  The worst of the
    three decides the verdict.
    """
    ts = np.asarray(sorted(set(float(t) for t in grid)), dtype=float)
    if ts.size < 2:
        raise ValueError("modulus verification needs at least two distinct grid points")
    if ts[0] <= 0.0:
        raise ValueError("grid gaps must be strictly positive")
    vals = eval_modulus(m, ts)
    ratios = vals / ts

    mono_slack = float(np.min(np.diff(vals)))
    threshold_slack = float(ratio_threshold - ratios[0])
    # ratio at the smallest gap should not exceed the ratio one step up
    tail_slack = float(ratios[1] - ratios[0])
    worst = min(mono_slack, threshold_slack, tail_slack)
    labels = ("value monotonicity", "ratio threshold", "ratio decay")
    witness = labels[int(np.argmin([mono_slack, threshold_slack, tail_slack]))]
    return CheckReport(
        passed=bool(worst >= -tol),
        worst_margin=worst,
        witness=witness,
        samples_used=int(ts.size),
        tol=tol,
        notes=f"slacks: monotone {mono_slack:.3e}, threshold {threshold_slack:.3e}, decay {tail_slack:.3e}",
        extras={"grid": ts, "values": vals, "ratios": ratios},
    )


@dataclass(frozen=True)
class ParaSpec:
    """Everything a relaxed-convexity check needs besides the mapping itself.

    k is the distinguished cone direction the allowance is paid in; it must
    be a cone member.  At least one of the two constants must be present:
    C scales the min(lam, 1-lam) allowance form, C1 scales lam*(1-lam).
    """

    modulus: Modulus
    k: np.ndarray
    cone: PolyCone
    C: float | None = None
    C1: float | None = None
    membership_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "k", as_point(self.k, self.cone.dim))
        if self.C is None and self.C1 is None:
            raise ValueError("spec needs at least one allowance constant (C or C1)")
        for label, value in (("C", self.C), ("C1", self.C1)):
            if value is not None and (not np.isfinite(value) or value < 0.0):
                raise ValueError(f"constant {label} must be finite and nonnegative")
        if not contains(self.cone, self.k, tol=self.membership_tol):
            raise ValueError("direction k is not a member of the cone")

    def constant(self, form: str) -> float:
        """Constant for the requested allowance form; strict, no conversion."""
        if form == "min":
            if self.C is None:
                raise ValueError("spec carries no min-form constant; convert first")
            return float(self.C)
        if form == "lambda":
            if self.C1 is None:
                raise ValueError("spec carries no lambda-form constant; convert first")
            return float(self.C1)
        raise ValueError(f"unknown allowance form {form!r}; expected 'min' or 'lambda'")

    def min_constant(self) -> float:
        """Constant usable in the min form.  Falls back to C1, which is valid
        because lam*(1-lam) <= min(lam, 1-lam) on [0, 1]."""
        if self.C is not None:
            return float(self.C)
        return float(self.C1)


def convert_constants(spec: ParaSpec, direction: str) -> ParaSpec:
    """Translate between the two allowance forms.

    min_to_lambda sets C1 = 2*C, lambda_to_min sets C = C1; both rest on
    lam*(1-lam) <= min(lam, 1-lam) <= 2*lam*(1-lam) for lam in [0, 1].
    """
    if direction == "min_to_lambda":
        if spec.C is None:
            raise ValueError("spec has no min-form constant to convert")
        return dataclasses.replace(spec, C1=2.0 * spec.C)
    if direction == "lambda_to_min":
        if spec.C1 is None:
            raise ValueError("spec has no lambda-form constant to convert")
        return dataclasses.replace(spec, C=float(spec.C1))
    raise ValueError(f"unknown conversion {direction!r}; expected 'min_to_lambda' or 'lambda_to_min'")
