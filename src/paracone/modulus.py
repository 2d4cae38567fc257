"""Growth moduli and relaxed-convexity problem specifications.

A modulus is a nondecreasing function of the gap size that scales the
allowance added to the convexity inequality.  The built-in kinds cover the
cases the checks care about: identically zero, a multiple of t^2, a general
power, and a tabulated function on a finite grid.  Modulus.strong decides
exactly whether modulus(t)/t -> 0, the "strongly" hypothesis the derivative
machinery needs; the paraconvexity checks take any modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PolyCone, _require_tol, as_point, cone_values, contains

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
        _require_tol(scale=self.scale)
        _require_tol(positive=True, p=self.p)
        if self.kind == "table":
            _require_tol(positive=True, **{f"knots[{i}][0]": t for i, (t, _) in enumerate(self.knots)})
            _require_tol(**{f"knots[{i}][1]": v for i, (_, v) in enumerate(self.knots)})
            knots = tuple((float(t), float(v)) for t, v in self.knots)
            if not knots:
                raise ValueError("table modulus needs at least one knot")
            ts, vs = np.array(knots).T
            if np.any(np.diff(ts) <= 0.0):
                raise ValueError("table knots need strictly increasing gap values")
            if np.any(np.diff(vs) < -0.0):
                raise ValueError("table values must be nondecreasing")
            object.__setattr__(self, "knots", knots)

    @property
    def strong(self) -> bool:
        """Whether modulus(t)/t -> 0 as t -> 0, read off the kind: zero and
        square always; a power when p > 1 or its scale is 0; a table exactly
        when its first knot value is 0, since it interpolates linearly from
        (0, 0) and so has the constant ratio v1/t1 below its first knot."""
        if self.kind == "power":
            return self.p > 1.0 or self.scale == 0.0
        if self.kind == "table":
            return self.knots[0][1] == 0.0
        return True


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
    extrapolate past their last knot.  A negative, NaN or infinite gap
    raises ValueError; -0.0 and an empty array are accepted."""
    t = np.asarray(t, dtype=float)
    # two reductions clear every gap at once; a NaN fails both
    if not (t.min(initial=np.inf) >= 0.0 and t.max(initial=0.0) < np.inf):
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


@dataclass(frozen=True)
class ParaSpec:
    """Everything a relaxed-convexity check needs besides the mapping itself.

    k is the distinguished cone direction the allowance is paid in; it must
    be a cone member.  At least one of the two constants must be present:
    C scales the min(lam, 1-lam) allowance form, C1 scales lam*(1-lam).
    row_k is y(k) for every unit supporting functional y of the cone,
    cone_values(cone, k), read once when the spec is built: every kernel that
    pays the allowance in k reads it from here.
    """

    modulus: Modulus
    k: np.ndarray
    cone: PolyCone
    C: float | None = None
    C1: float | None = None
    row_k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k", as_point(self.k, self.cone.dim))
        if self.C is None and self.C1 is None:
            raise ValueError("spec needs at least one allowance constant (C or C1)")
        _require_tol(**{label: value for label, value in {"C": self.C, "C1": self.C1}.items() if value is not None})
        if not contains(self.cone, self.k):
            raise ValueError("direction k is not a member of the cone")
        row_k = cone_values(self.cone, self.k)
        row_k.flags.writeable = False
        object.__setattr__(self, "row_k", row_k)

    def constant(self, form: str) -> float:
        """Constant for the requested allowance form; strict, no conversion."""
        if form == "min":
            if self.C is None:
                raise ValueError("spec carries no min-form constant C")
            return float(self.C)
        if form == "lambda":
            if self.C1 is None:
                raise ValueError("spec carries no lambda-form constant C1")
            return float(self.C1)
        raise ValueError(f"unknown allowance form {form!r}; expected 'min' or 'lambda'")

    def min_constant(self) -> float:
        """Constant usable in the min form.  Falls back to C1, which is valid
        because lam*(1-lam) <= min(lam, 1-lam) on [0, 1]."""
        if self.C is not None:
            return float(self.C)
        return float(self.C1)
