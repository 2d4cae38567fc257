"""Evaluable vector mappings with open box domains and claimed allowance data.

The testbed families here are the concrete instances every checker is
exercised on.  Each family that claims relaxed-convexity constants carries a
ParaSpec, and where calculus gives the one-sided derivative in closed form
the mapping also carries an analytic oracle so estimator output can be
cross-checked independently of the difference-quotient machinery.

One constructor, make_stacked_scalars, makes every piecewise-plus-smooth
family: a stack of scalars, each a convex piecewise-linear part plus a smooth
part whose curvature is bounded by twice the claimed constant, weighted by a
positive nonincreasing vector and ordered by the orthant with k = the
weights.  A scalar family is the stack with one component of weight 1.  The
claimed constants are provable by hand: for a scalar g with second
derivative bounded below by -2*C, the function g + C*x^2 is convex, and the
parallelogram identity for the euclidean norm turns that into the
lam*(1-lam) allowance form with constant C exactly; a positive weight
keeps that per component.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .geometry import Box  # noqa: F401  (re-exported for config convenience)
from .geometry import NORM_KINDS, PolyCone, as_point, generator_direction, matvec_rows, orthant, row_dots
from .modulus import ParaSpec, square_modulus, zero_modulus


class OutsideDomainError(ValueError):
    """Evaluation requested outside the open domain box."""


def _domain_point(f: VectorMapping, x0, what: str) -> np.ndarray:
    """The one point rule of every op read at a point: x0 as a finite
    read-only point of the domain's dimension (as_point, else ValueError),
    strictly inside the open domain (Box.contains, else OutsideDomainError
    naming what x0 is), checked before any evaluation or draw."""
    x0 = as_point(x0, f.domain.dim)
    if not f.domain.contains(x0):
        raise OutsideDomainError(f"{f.label}: {what} outside the open domain")
    return x0


@dataclass(eq=False)
class VectorMapping:
    """A deterministic mapping from an open box into R^m.

    evaluator maps a batch of points, shape (n, d), to their values, shape
    (n, m), computing every row exactly as it would alone: a point's value
    does not depend on the batch it is evaluated in.  claimed, when present,
    is the allowance data the family asserts about itself; checkers take it
    as the hypothesis under test, never as truth.
    analytic_directional(x0, h) returns the one-sided derivative where the
    family knows it in closed form, or None.  kink_locus lists domain
    coordinates where the mapping is not differentiable (ground truth for
    scan confusion tables); only one-dimensional domains use it.
    """

    domain: "Box"
    codomain_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    claimed: ParaSpec | None = None
    analytic_directional: Callable[[np.ndarray, np.ndarray], np.ndarray | None] | None = None
    kink_locus: tuple | None = None
    domain_norm: str = "two"
    codomain_norm: str = "two"

    def __post_init__(self):
        if self.codomain_dim < 1:
            raise ValueError("codomain dimension must be positive")
        if self.domain_norm not in NORM_KINDS or self.codomain_norm not in NORM_KINDS:
            raise ValueError(f"norm tags must be one of {NORM_KINDS}")
        if self.claimed is not None and self.claimed.cone.dim != self.codomain_dim:
            raise ValueError("claimed cone dimension does not match the codomain")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def eval(self, x) -> np.ndarray:
        """Value at one point: a validated one-row batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"{self.label}: point must be one dimensional, got shape {x.shape}")
        return self.eval_batch(x[None, :])[0]

    def eval_batch(self, points) -> np.ndarray:
        """Values at the rows of points, shape (n, d) -> (n, m).

        Every row must lie in the open domain box and every value must be
        finite; the error names the first offending row.  Each test is one
        mask, computed once: reduced once to pass, and per row only to name
        the row.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.domain.dim:
            raise ValueError(f"{self.label}: points must have shape (n, {self.domain.dim}), got {points.shape}")
        inside = (points > self.domain.lo) & (points < self.domain.hi)
        if not inside.all():
            row = points[int(np.argmin(inside.all(axis=1)))]
            raise OutsideDomainError(f"{self.label}: point {row.tolist()} outside the open domain box")
        # C order keeps the row products downstream on one BLAS code path
        out = np.ascontiguousarray(self.evaluator(points), dtype=float)
        if out.shape != (points.shape[0], self.codomain_dim):
            raise ValueError(
                f"{self.label}: evaluator returned shape {out.shape}, expected ({points.shape[0]}, {self.codomain_dim})"
            )
        finite = np.isfinite(out)
        if not finite.all():
            row = points[int(np.argmin(finite.all(axis=1)))]
            raise ValueError(f"{self.label}: non-finite value at {row.tolist()}")
        return out


def known_directional(f: VectorMapping, x0, h) -> np.ndarray | None:
    """Analytic one-sided derivative when the family provides one, else None.
    x0 must be a finite point of the open domain (_domain_point)."""
    if f.analytic_directional is None:
        return None
    x0 = _domain_point(f, x0, "oracle query")
    out = f.analytic_directional(x0, np.asarray(h, dtype=float))
    return None if out is None else np.asarray(out, dtype=float).reshape(-1)


# ---------------------------------------------------------------------------
# scalar building blocks


@dataclass(frozen=True)
class PiecewiseLinear:
    """Convex piecewise-linear function in hinge form, with value 0 at the
    origin: initial_slope * x plus, for each kink p, the slope jump times
    max(x - p, 0) - max(-p, 0).

    kinks is a sorted tuple of (position, slope_after) pairs; slopes must be
    nondecreasing from initial_slope onward or construction fails.
    """

    initial_slope: float
    kinks: tuple = ()

    def __post_init__(self):
        kinks = tuple((float(p), float(s)) for p, s in self.kinks)
        object.__setattr__(self, "kinks", kinks)
        pos = [p for p, _ in kinks]
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("kink positions must be strictly increasing")
        slopes = [float(self.initial_slope)] + [s for _, s in kinks]
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slope decrease detected: piecewise-linear part is not convex")

    def _slope_jumps(self):
        slopes = [self.initial_slope] + [s for _, s in self.kinks]
        return [(p, slopes[i + 1] - slopes[i]) for i, (p, _) in enumerate(self.kinks)]

    def value(self, x: float) -> float:
        acc = 0.0 + self.initial_slope * x
        for p, jump in self._slope_jumps():
            acc += jump * (max(x - p, 0.0) - max(0.0, -p))
        return acc

    def slope_left(self, x: float) -> float:
        s = self.initial_slope
        for p, jump in self._slope_jumps():
            if p < x:
                s += jump
        return s

    def slope_right(self, x: float) -> float:
        s = self.initial_slope
        for p, jump in self._slope_jumps():
            if p <= x:
                s += jump
        return s

    @property
    def kink_positions(self) -> tuple:
        return tuple(p for p, _ in self.kinks)


class SmoothPart(Protocol):
    """A dataclass of float parameters whose value and deriv take a float or
    an array of them; _stacked_scalars evaluates many parts of one type at
    once by giving the type array-valued parameters.  The part carries no
    anchor: its value is its own formula, added to a piecewise-linear part
    that is 0 at the origin."""

    def value(self, x: float) -> float: ...

    def deriv(self, x: float) -> float: ...

    def sup_abs_second(self, lo: float, hi: float) -> float: ...


@dataclass(frozen=True)
class Quadratic1D:
    a: float
    b: float = 0.0
    c: float = 0.0

    def value(self, x: float) -> float:
        return self.a * x * x + self.b * x + self.c

    def deriv(self, x: float) -> float:
        return 2.0 * self.a * x + self.b

    def sup_abs_second(self, lo: float, hi: float) -> float:
        return abs(2.0 * self.a)


@dataclass(frozen=True)
class Sine1D:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, x: float) -> float:
        return self.amplitude * np.sin(self.frequency * x + self.phase)

    def deriv(self, x: float) -> float:
        return self.amplitude * self.frequency * np.cos(self.frequency * x + self.phase)

    def sup_abs_second(self, lo: float, hi: float) -> float:
        # |sin| reaches 1 when a crest pi/2 + k*pi lies between the end phases
        u0, u1 = sorted((self.frequency * lo + self.phase, self.frequency * hi + self.phase))
        crest = np.pi / 2 + np.pi * np.ceil((u0 - np.pi / 2) / np.pi)
        return abs(self.amplitude * self.frequency**2) * (1.0 if crest <= u1 else max(abs(np.sin(u0)), abs(np.sin(u1))))


@dataclass(frozen=True)
class ZeroPart:
    def value(self, x: float) -> float:
        return 0.0

    def deriv(self, x: float) -> float:
        return 0.0

    def sup_abs_second(self, lo: float, hi: float) -> float:
        return 0.0


def _stacked_scalars(convex_parts, smooth_parts, weights):
    """Evaluator of the weighted scalars w_i * (u1_i + u2_i) side by side:
    t, shape (n, 1) -> (n, len(weights)).

    Bitwise equal, entry for entry, to w_i * (u1_i.value(t) + u2_i.value(t))
    on one float: the same elementwise operations in the same order.  It
    runs component-major: t is read as one row (1, n), the parameters as
    columns (a kink table of shape (kinks, m, 1), slopes and weights of shape
    (m, 1)), so every operation runs along the n points, and one transpose
    at the end gives (n, m).  The hinge sum runs across components one kink
    index at a time, in PiecewiseLinear.value's order; components with fewer
    kinks are padded with zero jumps, which add nothing.  Each distinct
    smooth part (its type and the bits of its parameters) is evaluated once,
    and the distinct parts of one type as one part with (g, 1) array
    parameters.
    """
    m = len(convex_parts)
    n_kinks = max(len(u1.kinks) for u1 in convex_parts)
    w = np.array(weights, dtype=float).reshape(m, 1)
    slope0 = np.array([u1.initial_slope for u1 in convex_parts], dtype=float).reshape(m, 1)
    # slab j holds the positions of kink j
    origins = np.zeros((n_kinks, m, 1))
    jump = np.zeros_like(origins)
    offset = np.zeros_like(origins)  # max(-position, 0), the term's value at the origin
    for i, u1 in enumerate(convex_parts):
        for j, (p, dj) in enumerate(u1._slope_jumps()):
            origins[j, i, 0], jump[j, i, 0], offset[j, i, 0] = p, dj, max(0.0, -p)
    # a smooth part's key: its type and the bits of its parameters (-0.0 is not 0.0)
    keys = [(type(p), np.array(dataclasses.astuple(p), dtype=float).tobytes()) for p in smooth_parts]
    distinct = {}  # type -> key -> the first part with that key
    for key, part in zip(keys, smooth_parts):
        distinct.setdefault(key[0], {}).setdefault(key, part)
    # the distinct parts are numbered type by type, so each type fills one block of a table
    stacked, ids = [], {}
    for cls, parts in distinct.items():
        block = slice(len(ids), len(ids) + len(parts))
        ids.update(zip(parts, range(block.start, block.stop)))
        params = np.array([dataclasses.astuple(p) for p in parts.values()], dtype=float)  # (g, fields)
        stacked.append((cls(*(column[:, None] for column in params.T)), block))
    index = np.array([ids[key] for key in keys])
    # one distinct part broadcasts over every component, and a table in component order needs no gather
    gather = None if len(ids) == 1 or (index == np.arange(m)).all() else index

    def _smooth(t: np.ndarray):
        if len(stacked) == 1:
            values = stacked[0][0].value(t)
        else:
            values = np.empty((len(ids), t.shape[1]))
            for part, block in stacked:
                values[block] = part.value(t)
        return values if gather is None else values[gather]

    def evaluate(x: np.ndarray) -> np.ndarray:
        t = x.T
        # the 0.0 + turns a -0.0 product into +0.0, as PiecewiseLinear.value does
        acc = 0.0 + slope0 * t
        # every kink's term at once, in place in one array, then summed in kink order
        terms = t - origins
        np.maximum(terms, 0.0, out=terms)
        terms -= offset
        terms *= jump
        for term in terms:
            acc += term
        del terms  # the kink table is freed before the smooth part's temporaries are made
        acc += _smooth(t)
        acc *= w
        return acc.T

    return evaluate


# ---------------------------------------------------------------------------
# the stacked-scalar families


def _one_sided_slope(u1: PiecewiseLinear, part: SmoothPart, x: float, h: float) -> float:
    if h > 0:
        branch = u1.slope_right(x)
    elif h < 0:
        branch = u1.slope_left(x)
    else:
        return 0.0
    return h * (branch + part.deriv(x))


def make_stacked_scalars(convex_parts, smooth_parts, weights, C: float, domain: "Box", label: str) -> VectorMapping:
    """The stack f(x) = (w_i * (u1_i(x) + u2_i(x)))_i on an interval, with
    the square-gap allowance claimed at C = C1 = C, the orthant order and
    k = the weights.

    weights must be positive and nonincreasing (a decaying sequence), with
    one convex part u1_i and one smooth part u2_i per weight; each u1_i is
    convex by its type, and each u2_i must keep its curvature within 2*C on
    the domain, audited against its exact supremum.  A scalar family is the
    stack of one component with weight 1.  The analytic oracle returns the
    exact one-sided derivative everywhere, kinks included.

    The evaluator (_stacked_scalars) runs component-major, along the points,
    with each distinct smooth part evaluated once and one transpose at the
    end: entry for entry the bits of w_i * (u1_i(t) + u2_i(t)) on one float.
    """
    if len(weights) < 1:
        raise ValueError("need at least one component")
    weights = as_point(weights)
    if np.any(weights <= 0.0):
        raise ValueError("weights must be strictly positive")
    if np.any(np.diff(weights) > 0.0):
        raise ValueError("weights must be nonincreasing (a decaying sequence)")
    n = weights.shape[0]
    if len(convex_parts) != n or len(smooth_parts) != n:
        raise ValueError("need one convex part and one smooth part per component")
    if domain.dim != 1:
        raise ValueError("the stacked family lives on a one-dimensional domain")
    if not np.isfinite(C) or C < 0.0:
        raise ValueError("constant must be finite and nonnegative")
    lo, hi = float(domain.lo[0]), float(domain.hi[0])
    for i, u2 in enumerate(smooth_parts):
        worst = u2.sup_abs_second(lo, hi)
        if worst > 2.0 * C * (1.0 + 1e-12) + 1e-15:
            raise ValueError(
                f"{label}: component {i} smooth-part curvature {worst:.6g} exceeds"
                f" the allowed bound {2.0 * C:.6g} on [{lo:g}, {hi:g}]"
            )

    spec = ParaSpec(modulus=square_modulus(), k=weights, cone=orthant(n), C=C, C1=C)
    parts = tuple(zip(convex_parts, smooth_parts))

    def _directional(x0: np.ndarray, h: np.ndarray):
        t, step = float(x0[0]), float(h[0])
        return weights * np.array([_one_sided_slope(u1, u2, t, step) for u1, u2 in parts])

    return VectorMapping(
        domain=domain,
        codomain_dim=n,
        evaluator=_stacked_scalars(convex_parts, smooth_parts, weights),
        label=label,
        claimed=spec,
        analytic_directional=_directional,
        kink_locus=tuple(sorted({p for u1 in convex_parts for p in u1.kink_positions})),
        domain_norm="two",
        codomain_norm="sup",
    )


def example1_default(n: int = 8, kinks_per_component: int = 5, C: float = 0.5) -> VectorMapping:
    """Pinned default instance: dyadic rational kinks, all distinct across
    components, weights 2^-i, alternating quadratic and sine smooth parts
    well inside the curvature budget.

    Magnitudes are deliberately modest.  The smallest weighted slope jump,
    2^-7 * 0.125, still towers over the linearity-test tolerance, while the
    value scale keeps the quotient rounding floor under that tolerance so
    the derivative estimator converges everywhere on the domain.
    """
    domain = Box(lo=[-1.0], hi=[1.0])
    convex_parts = []
    smooth_parts = []
    for i in range(n):
        s0 = -0.5 - i / 16.0
        slope = s0
        kinks = []
        for j in range(kinks_per_component):
            pos = (-48.0 + 20.0 * j + 3.0 * i) / 64.0
            slope = slope + 0.125 + 0.0625 * ((i + j) % 3)
            kinks.append((pos, slope))
        convex_parts.append(PiecewiseLinear(initial_slope=s0, kinks=tuple(kinks)))
        if i % 2 == 0:
            smooth_parts.append(Quadratic1D(a=-C * (0.4 + 0.05 * i)))
        else:
            smooth_parts.append(Sine1D(amplitude=0.3 * C, frequency=1.5))
    return make_stacked_scalars(
        convex_parts,
        smooth_parts,
        [2.0**-i for i in range(n)],
        C=C,
        domain=domain,
        label=f"stacked-scalars-{n}x{kinks_per_component}",
    )


# ---------------------------------------------------------------------------
# individual testbed mappings


def affine_mapping(a_matrix, offset, domain: "Box", cone: PolyCone | None = None, k=None, label: str = "affine") -> VectorMapping:
    """Affine map with the zero modulus claimed at constant zero: the
    convexity inequality holds with equality, so any cone order works."""
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    offset = np.asarray(offset, dtype=float).reshape(-1)
    m, d = a_matrix.shape
    if offset.shape != (m,):
        raise ValueError("offset length must match the matrix row count")
    if domain.dim != d:
        raise ValueError("domain dimension must match the matrix column count")
    if cone is None:
        cone = orthant(m)
    if k is None:
        k = generator_direction(cone)
    spec = ParaSpec(modulus=zero_modulus(), k=np.asarray(k, dtype=float), cone=cone, C=0.0, C1=0.0)

    def _eval(x: np.ndarray) -> np.ndarray:
        return matvec_rows(a_matrix, x) + offset

    def _directional(x0: np.ndarray, h: np.ndarray):
        return a_matrix @ h

    return VectorMapping(
        domain=domain,
        codomain_dim=m,
        evaluator=_eval,
        label=label,
        claimed=spec,
        analytic_directional=_directional,
        kink_locus=(),
    )


def neg_square_1d() -> VectorMapping:
    """f(x) = -x^2 on (-1, 1): the calibration family whose allowance slack
    in the lam*(1-lam) form at constant 1 is identically zero."""
    domain = Box(lo=[-1.0], hi=[1.0])
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=1.0, C1=1.0)
    return VectorMapping(
        domain=domain,
        codomain_dim=1,
        # float_power calls the C library's pow, as the float x ** 2 this
        # family is defined by does; x * x differs from it in the last bit
        # for about one input in a thousand
        evaluator=lambda x: -np.float_power(x, 2.0),
        label="neg-square",
        claimed=spec,
        analytic_directional=lambda x0, h: np.array([-2.0 * float(x0[0]) * float(h[0])]),
        kink_locus=(),
    )


def abs_1d() -> VectorMapping:
    """f(x) = |x| on (-1, 1): convex, single kink at the origin."""
    domain = Box(lo=[-1.0], hi=[1.0])
    spec = ParaSpec(modulus=zero_modulus(), k=np.array([1.0]), cone=orthant(1), C=0.0, C1=0.0)

    def _directional(x0: np.ndarray, h: np.ndarray):
        t, hh = float(x0[0]), float(h[0])
        if t > 0:
            return np.array([hh])
        if t < 0:
            return np.array([-hh])
        return np.array([abs(hh)])

    return VectorMapping(
        domain=domain,
        codomain_dim=1,
        evaluator=np.abs,
        label="abs",
        claimed=spec,
        analytic_directional=_directional,
        kink_locus=(0.0,),
    )


def neg_abs_1d() -> VectorMapping:
    """f(x) = -|x| on (-1, 1): the canonical family with no valid allowance
    constant for any modulus with ratio -> 0, used by falsification tests."""
    domain = Box(lo=[-1.0], hi=[1.0])

    def _directional(x0: np.ndarray, h: np.ndarray):
        t, hh = float(x0[0]), float(h[0])
        if t > 0:
            return np.array([-hh])
        if t < 0:
            return np.array([hh])
        return np.array([-abs(hh)])

    return VectorMapping(
        domain=domain,
        codomain_dim=1,
        evaluator=lambda x: -np.abs(x),
        label="neg-abs",
        claimed=None,
        analytic_directional=_directional,
        kink_locus=(0.0,),
    )


def curved_cone_map(cone: PolyCone, seed: int, label: str | None = None) -> VectorMapping:
    """Affine map bent by -||x||^2 along an interior cone direction.

    The affine part cancels in the convexity slack, and the euclidean
    parallelogram identity makes the bent part's slack exactly
    (allowance - lam*(1-lam)*||x-y||^2) times the bend direction, so the
    claimed constants C = C1 = 1 are valid and the lambda form is tight.
    """
    rng = np.random.default_rng(seed)
    k0 = generator_direction(cone)
    a_matrix = rng.normal(size=(cone.dim, 2))
    domain = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    spec = ParaSpec(modulus=square_modulus(), k=k0, cone=cone, C=1.0, C1=1.0)

    def _eval(x: np.ndarray) -> np.ndarray:
        return matvec_rows(a_matrix, x) - row_dots(x, x)[:, None] * k0

    def _directional(x0: np.ndarray, h: np.ndarray):
        return a_matrix @ h - 2.0 * float(x0 @ h) * k0

    return VectorMapping(
        domain=domain,
        codomain_dim=cone.dim,
        evaluator=_eval,
        label=label or f"curved-{cone.name or 'cone'}",
        claimed=spec,
        analytic_directional=_directional,
        kink_locus=(),
    )


def smooth_r2_r3() -> VectorMapping:
    """Smooth map from the plane into R^3 ordered by the orthant.

    Component Hessians are bounded below by -2 (eigenvalues at worst -1 for
    the quadratic and product parts, -1 for the sine part), so each component
    plus ||x||^2 is convex and the claimed constants C = C1 = 1 hold.
    """
    domain = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0, 1.0, 1.0]), cone=orthant(3), C=1.0, C1=1.0)

    def _eval(x: np.ndarray) -> np.ndarray:
        x1, x2 = x[:, 0], x[:, 1]
        return np.array([-(x1 * x1 + x2 * x2) / 2.0, np.sin(x1) + np.sin(x2), -x1 * x2]).T

    def _directional(x0: np.ndarray, h: np.ndarray):
        x1, x2 = float(x0[0]), float(x0[1])
        jac = np.array([[-x1, -x2], [np.cos(x1), np.cos(x2)], [-x2, -x1]])
        return jac @ h

    return VectorMapping(
        domain=domain,
        codomain_dim=3,
        evaluator=_eval,
        label="smooth-r2-r3",
        claimed=spec,
        analytic_directional=_directional,
        kink_locus=(),
    )


def testbed_families() -> tuple:
    """The standard claimed-allowance families the acceptance suite sweeps."""
    rng_domain = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    affine = affine_mapping(
        np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]),
        np.array([0.1, -0.2, 0.3]),
        rng_domain,
        label="affine-2to3",
    )
    # curvature exactly fills the 2C budget, a deliberately tight instance
    hinge = make_stacked_scalars(
        (PiecewiseLinear(initial_slope=-1.0, kinks=((-0.25, 0.25), (0.5, 1.5))),),
        (Quadratic1D(a=-0.5),),
        [1.0],
        C=0.5,
        domain=Box(lo=[-1.0], hi=[1.0]),
        label="hinge-plus-quadratic",
    )
    return (
        affine,
        neg_square_1d(),
        abs_1d(),
        hinge,
        example1_default(),
        smooth_r2_r3(),
    )
