"""Ordered-vector-space kernel: points, norms, and polyhedral cones.

A cone is described by generating rays, by supporting inequalities
(dual generators), or by both.  The partial order is ``x <= y`` iff
``y - x`` lies in the cone.  Everything here is finite dimensional and
polyhedral, so membership and duality questions reduce to small dense
feasibility computations: non-negative least squares for the generator
form, componentwise sign checks for the inequality form, and a tiny
linear program for strictly positive functionals.

Cones are immutable after construction and sampling routines take an
explicit seed, so every result is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, nnls

Point = np.ndarray

NORM_KINDS = ("sup", "one", "two")

# feasibility slack used when enumerating extreme rays
_RAY_TOL = 1e-9
# slack for the construction-time agreement audit between representations
_AUDIT_TOL = 1e-7
# rows this close to unit length, in ulp, count as already unit (unit_rows)
_UNIT_ULPS = 4


def as_point(coords, dim: int | None = None) -> Point:
    """Validate a coordinate vector and return it as a read-only float array.

    Raises ValueError on non-finite entries, wrong shape, or a dimension
    mismatch with ``dim``.
    """
    v = np.array(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"point must be one dimensional, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("point must have at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {v.shape[0]} coordinates, expected {dim}")
    v.flags.writeable = False
    return v


def norm(v, kind: str = "two") -> float:
    """Norm of a vector under one of the supported tags: sup, one, two."""
    v = np.asarray(v, dtype=float)
    if kind == "two":
        return float(np.sqrt(v @ v))
    if kind == "sup":
        return float(np.max(np.abs(v))) if v.size else 0.0
    if kind == "one":
        return float(np.sum(np.abs(v)))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def matvec_rows(mat, a) -> np.ndarray:
    """mat @ v for every row v of a: shape (n, k) -> (n, r).

    Each row goes through its own matrix-vector product, the one mat @ v makes
    for a single vector, so a row's result is bitwise the same however many
    rows are stacked with it.  a @ mat.T runs one matrix product instead,
    whose last bits change with n.
    """
    return (a[:, None, :] @ np.transpose(mat))[:, 0, :]


def row_dots(a, b) -> np.ndarray:
    """u @ v for every pair of rows u of a and v of b, each its own dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(a, kind: str = "two") -> np.ndarray:
    """norm(v, kind) of every row v of a, bitwise equal to the one-vector call."""
    a = np.asarray(a, dtype=float)
    if kind == "two":
        return np.sqrt(row_dots(a, a))
    if kind == "sup":
        return np.max(np.abs(a), axis=1)
    if kind == "one":
        return np.sum(np.abs(a), axis=1)
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def unit_rows(rows) -> np.ndarray:
    """Rows scaled to unit euclidean length.

    A row whose length is already within a few ulp of 1 is kept as given, so
    scaling rows twice changes nothing, and a zero row stays zero.
    """
    rows = np.asarray(rows, dtype=float)
    lengths = np.linalg.norm(rows, axis=1)
    keep = (lengths == 0.0) | (np.abs(lengths - 1.0) <= _UNIT_ULPS * np.finfo(float).eps)
    return rows / np.where(keep, 1.0, lengths)[:, None]


def _coerce_rows(rows, dim: int, what: str, allow_zero_rows: bool) -> np.ndarray:
    m = np.array(rows, dtype=float)
    if m.size == 0:
        m = np.zeros((0, dim))
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"{what} must be an array of shape (*, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    if not allow_zero_rows and m.shape[0] and np.any(np.linalg.norm(m, axis=1) == 0.0):
        raise ValueError(f"{what} contains a zero row")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box: the domain set of every mapping.

    Membership is strict on every face; evaluation exactly on the boundary
    is the caller's error, never clamped.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or lo.size == 0:
            raise ValueError("box bounds must be equal-length nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError("box must have positive width on every axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return int(self.lo.shape[0])

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.lo.shape:
            raise ValueError("dimension mismatch in box membership")
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def boundary_distance(self, x, h=None) -> float:
        """Distance from x to the boundary: along the ray through h when
        given (sup of admissible step sizes), else the nearest face gap."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise ValueError("boundary distance requested from a point outside the box")
        if h is None:
            return float(min(np.min(x - self.lo), np.min(self.hi - x)))
        h = np.asarray(h, dtype=float)
        best = np.inf
        for i in range(self.dim):
            if h[i] > 0.0:
                best = min(best, (self.hi[i] - x[i]) / h[i])
            elif h[i] < 0.0:
                best = min(best, (self.lo[i] - x[i]) / h[i])
        return float(best)

    def sample(self, n: int, rng) -> np.ndarray:
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def shrink(self, margin: float) -> "Box":
        """Concentric closed-in box, handy for keeping samples interior."""
        width = self.hi - self.lo
        pad = margin * width
        return Box(lo=self.lo + pad, hi=self.hi - pad)


@dataclass(eq=False)
class PolyCone:
    """Closed convex polyhedral cone in R^dim.

    generators: rays spanning the cone (rows), or None.
    dual_generators: rows d with the cone equal to {x : d @ x >= 0 for all d},
        or None.  At least one representation must be present; when both are
        given they must describe the same set (spot checked at construction).
    """

    dim: int
    generators: np.ndarray | None = None
    dual_generators: np.ndarray | None = None
    name: str = ""
    pointed: bool = field(init=False, default=True)

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("cone dimension must be a positive integer")
        self.dim = int(self.dim)
        if self.generators is None and self.dual_generators is None:
            raise ValueError("cone needs generators, dual generators, or both")
        if self.generators is not None:
            self.generators = _coerce_rows(self.generators, self.dim, "generators", allow_zero_rows=False)
        if self.dual_generators is not None:
            self.dual_generators = _coerce_rows(
                self.dual_generators, self.dim, "dual_generators", allow_zero_rows=False
            )
        self._caches: dict = {}
        self.pointed = self._compute_pointed()
        self._cross_audit()

    def _compute_pointed(self) -> bool:
        if self.dual_generators is not None:
            if self.dual_generators.shape[0] == 0:
                # no constraints: whole space, pointed only in the trivial sense dim 0
                return False
            return int(np.linalg.matrix_rank(self.dual_generators)) == self.dim
        gens = self.generators
        if gens.shape[0] == 0:
            return True
        # pointed iff some functional is >= 1 on every generator
        res = linprog(
            np.zeros(self.dim),
            A_ub=-gens,
            b_ub=-np.ones(gens.shape[0]),
            bounds=[(None, None)] * self.dim,
            method="highs",
        )
        if res.status == 0:
            return True
        if res.status == 2:
            return False
        raise RuntimeError(f"pointedness solve failed: {res.message}")

    def _cross_audit(self):
        # spot check that sampled generator combinations satisfy the inequalities
        if self.generators is None or self.dual_generators is None:
            return
        if self.generators.shape[0] == 0 or self.dual_generators.shape[0] == 0:
            return
        rng = np.random.default_rng(0x5EED)
        combos = rng.uniform(0.0, 1.0, size=(32, self.generators.shape[0]))
        pts = combos @ self.generators
        slack = pts @ self.dual_generators.T
        scale = max(1.0, float(np.max(np.abs(pts))))
        if float(np.min(slack)) < -_AUDIT_TOL * scale:
            raise ValueError("generator and inequality representations disagree")

    def __repr__(self):  # keep array dumps out of test output
        label = self.name or "cone"
        reps = []
        if self.generators is not None:
            reps.append(f"{self.generators.shape[0]} rays")
        if self.dual_generators is not None:
            reps.append(f"{self.dual_generators.shape[0]} inequalities")
        return f"PolyCone({label}, dim={self.dim}, {', '.join(reps)})"


def orthant(dim: int, name: str | None = None) -> PolyCone:
    """Non-negative orthant with exact identity rays and inequalities."""
    eye = np.eye(dim)
    return PolyCone(dim, generators=eye, dual_generators=eye.copy(), name=name or f"orthant{dim}")


def cone_from_generators(rows, name: str = "") -> PolyCone:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return PolyCone(rows.shape[1], generators=rows, name=name)


def cone_from_inequalities(rows, name: str = "") -> PolyCone:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return PolyCone(rows.shape[1], dual_generators=rows, name=name)


def random_simplicial_cone(dim: int, seed: int, name: str | None = None) -> PolyCone:
    """Random pointed full-dimensional simplicial cone with both representations.

    Rays are the rows of a well-conditioned random matrix M; the supporting
    inequalities are then the rows of inv(M).T, exactly.
    """
    rng = np.random.default_rng(seed)
    while True:
        m = rng.normal(size=(dim, dim))
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] > 0.15 * sv[0]:
            break
    dual = np.linalg.inv(m).T
    return PolyCone(dim, generators=m, dual_generators=dual, name=name or f"simplicial{dim}-{seed}")


def contains(cone: PolyCone, v, tol: float = 1e-9) -> bool:
    """Membership test.

    The inequality form is preferred when available (componentwise slack at
    least -tol).  The generator form solves a non-negative least squares
    problem and accepts residuals up to tol.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise ValueError(f"dimension mismatch: point of shape {v.shape} against cone of dim {cone.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("membership test on non-finite point")
    if cone.dual_generators is not None:
        if cone.dual_generators.shape[0] == 0:
            return True
        return bool(np.min(cone.dual_generators @ v) >= -tol)
    gens = cone.generators
    if gens.shape[0] == 0:
        return norm(v, "two") <= tol
    _, resid = nnls(gens.T, v)
    return bool(resid <= tol)


def leq(cone: PolyCone, x, y, tol: float = 1e-9) -> bool:
    """Cone order: x <= y iff y - x is a member."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("order test on points of different shapes")
    return contains(cone, y - x, tol=tol)


def _polar_rays(mat: np.ndarray, feas_tol: float = _RAY_TOL) -> np.ndarray:
    """Generating rays of {y : mat @ y >= 0} by active-set enumeration.

    Works in any dimension but the subset enumeration is only intended for
    small systems (dim <= 4 callers).  Lines in the polar (the null space of
    mat) are returned as plus and minus an orthonormal basis.
    """
    g, d = mat.shape
    scaled = mat / np.linalg.norm(mat, axis=1)[:, None]
    u, s, vt = np.linalg.svd(scaled, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    rays: list[np.ndarray] = []

    def _push(candidate: np.ndarray):
        n = np.linalg.norm(candidate)
        if n < 1e-12:
            return
        cand = candidate / n
        for kept in rays:
            if cand @ kept > 1.0 - 1e-8:
                return
        rays.append(cand)

    if rank > 0:
        q = vt[:rank].T  # (d, rank) row-space basis
        a = scaled @ q  # (g, rank), full column rank
        if rank == 1:
            for sign in (1.0, -1.0):
                if np.all(a[:, 0] * sign >= -feas_tol):
                    _push(q[:, 0] * sign)
        else:
            for subset in itertools.combinations(range(g), rank - 1):
                block = a[list(subset)]
                _, sb, vbt = np.linalg.svd(block, full_matrices=True)
                # need the active rows independent so the null direction is unique
                if sb.size < rank - 1 or sb[rank - 2] < 1e-10:
                    continue
                null_vec = vbt[-1]
                for sign in (1.0, -1.0):
                    w = null_vec * sign
                    if np.all(a @ w >= -feas_tol):
                        _push(q @ w)
    # lines orthogonal to every row belong to the polar in both directions
    for row in vt[rank:]:
        _push(row)
        _push(-row)
    if not rays:
        return np.zeros((0, d))
    out = np.array(sorted(rays, key=lambda r: tuple(np.round(r, 9))))
    return out


def dual_cone(cone: PolyCone) -> PolyCone:
    """Polar dual {y : y @ g >= 0 for every generator g}.

    Needs the generator representation.  When the cone also carries
    inequalities the dual swaps the two representations exactly; otherwise
    the extreme rays are enumerated, which is supported for dim <= 4.
    """
    if cone.generators is None:
        raise ValueError("dual_cone needs a generator representation")
    gens = cone.generators
    if gens.shape[0] == 0 or np.all(np.linalg.norm(gens, axis=1) == 0.0):
        raise ValueError("dual_cone of a degenerate cone without nonzero generators")
    name = (cone.name + "*") if cone.name else "dual"
    if cone.dual_generators is not None:
        return PolyCone(
            cone.dim,
            generators=cone.dual_generators.copy(),
            dual_generators=gens.copy(),
            name=name,
        )
    if cone.dim > 4:
        raise ValueError("ray enumeration is limited to dim <= 4; supply dual_generators explicitly")
    rays = _polar_rays(gens)
    return PolyCone(cone.dim, generators=rays, dual_generators=gens.copy(), name=name)


def ensure_generators(cone: PolyCone) -> np.ndarray:
    """Generator rows, enumerating them from the inequality form if needed."""
    if cone.generators is not None:
        return cone.generators
    cached = cone._caches.get("generators")
    if cached is not None:
        return cached
    if cone.dim > 4:
        raise ValueError("generators unavailable: enumeration from inequalities is limited to dim <= 4")
    rays = _polar_rays(cone.dual_generators)
    rays.flags.writeable = False
    cone._caches["generators"] = rays
    return rays


def ensure_dual_generators(cone: PolyCone) -> np.ndarray:
    """Inequality rows, enumerating them from the generator form if needed."""
    if cone.dual_generators is not None:
        return cone.dual_generators
    cached = cone._caches.get("dual_generators")
    if cached is not None:
        return cached
    if cone.dim > 4:
        raise ValueError("inequalities unavailable: enumeration from generators is limited to dim <= 4")
    rows = _polar_rays(cone.generators)
    rows.flags.writeable = False
    cone._caches["dual_generators"] = rows
    return rows


def unit_dual_generators(cone: PolyCone) -> np.ndarray:
    """Supporting inequality rows scaled to unit euclidean length."""
    cached = cone._caches.get("unit_duals")
    if cached is not None:
        return cached
    rows = unit_rows(ensure_dual_generators(cone))
    rows.flags.writeable = False
    cone._caches["unit_duals"] = rows
    return rows


def generator_direction(cone: PolyCone) -> np.ndarray:
    """The sum of the generators scaled to unit euclidean length; raises when
    they sum to zero, as they can only in a cone that contains a line."""
    k0 = ensure_generators(cone).sum(axis=0)
    nk = norm(k0, "two")
    if nk <= 1e-12:
        raise ValueError("cone generators sum to zero; no interior direction")
    return k0 / nk


def interior_direction(cone: PolyCone) -> tuple[np.ndarray, np.ndarray]:
    """k0 = generator_direction(cone) and y(k0) for every unit supporting
    functional y of the cone.

    The generator sum is interior exactly when the cone is full-dimensional;
    raises when some y(k0) is at most 1e-12, as for a ray in the plane.
    """
    k0 = generator_direction(cone)
    values = unit_dual_generators(cone) @ k0
    if np.any(values <= 1e-12):
        raise ValueError("cone has no interior direction: a supporting functional vanishes on the generator sum")
    return k0, values


def is_standard_orthant(cone: PolyCone) -> bool:
    """True when both stored representations are exactly the standard basis."""

    def _is_identity(m: np.ndarray | None) -> bool:
        if m is None or m.shape != (cone.dim, cone.dim):
            return False
        order = np.argsort(np.argmax(m, axis=1))
        return bool(np.allclose(m[order], np.eye(cone.dim), atol=1e-12, rtol=0.0))

    return _is_identity(cone.generators) and _is_identity(cone.dual_generators)


def sample_in_cone(cone: PolyCone, n: int, seed=0) -> np.ndarray:
    """Seeded non-negative generator combinations, with scale variety."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        return np.zeros((n, cone.dim))
    combos = rng.uniform(0.0, 1.0, size=(n, gens.shape[0]))
    scales = 2.0 ** rng.uniform(-2.0, 2.0, size=(n, 1))
    return (combos * scales) @ gens


def normality_constant(cone: PolyCone, norm_kind: str = "two", budget: int = 1000, seed: int = 0) -> float:
    """Sampled estimate of sup ||x|| / ||y|| over comparable pairs 0 <= x <= y.

    Pairs are built as x, x + w with x, w sampled from the cone, so the order
    relations hold by construction.  The degenerate pair x = y is always
    included, which pins the estimate at or above 1.  All budget - 1 sampled
    pairs come from one draw that keeps the sequential stream, pair after
    pair, so for a fixed seed each budget's pairs are a prefix of a larger
    budget's and the estimate is nondecreasing in the budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("normality constant of the trivial cone is undefined")
    g = gens.shape[0]
    # each row is one pair's stream: g coefficients of x, the exponent of their
    # scale, then the same for w; an exponent u maps to uniform(-4, 4) as
    # -4 + 8u, and np.float_power is the C library pow of the float 2.0 ** s
    u = np.random.default_rng(seed).random((budget - 1, 2 * g + 2))
    cx = u[:, :g] * np.float_power(2.0, -4.0 + 8.0 * u[:, g : g + 1])
    cw = u[:, g + 1 : -1] * np.float_power(2.0, -4.0 + 8.0 * u[:, -1:])
    x = matvec_rows(gens.T, cx)
    y = x + matvec_rows(gens.T, cw)
    ny = row_norms(y, norm_kind)
    ratios = row_norms(x, norm_kind)[ny > 0.0] / ny[ny > 0.0]
    # initial 1.0: the pair x = y is always admissible
    return float(np.max(ratios, initial=1.0))


@dataclass(eq=False)
class DualFunctional:
    """Linear functional claimed to be nonnegative on a cone.

    The claim is audited at construction against whatever representation is
    available; an inequality violation beyond the audit slack raises.
    """

    coeffs: Point
    claimed_cone: PolyCone

    def __post_init__(self):
        self.coeffs = as_point(self.coeffs, self.claimed_cone.dim)
        cone = self.claimed_cone
        if cone.generators is not None and cone.generators.shape[0]:
            vals = cone.generators @ self.coeffs
            scale = max(1.0, float(np.max(np.abs(cone.generators))) * float(np.max(np.abs(self.coeffs), initial=0.0)))
            if float(np.min(vals)) < -_AUDIT_TOL * scale:
                raise ValueError("functional is negative on a generator; not in the dual cone")
        else:
            dual = dual_cone_of_inequality_form(cone)
            if not contains(dual, self.coeffs, tol=_AUDIT_TOL):
                raise ValueError("functional lies outside the dual cone")

    def __call__(self, v) -> float:
        return float(self.coeffs @ np.asarray(v, dtype=float))


def dual_cone_of_inequality_form(cone: PolyCone) -> PolyCone:
    """Dual of an inequality-only cone: generated by the inequality rows."""
    if cone.dual_generators is None:
        raise ValueError("cone has no inequality representation")
    return PolyCone(cone.dim, generators=cone.dual_generators.copy(), name=(cone.name + "*") if cone.name else "dual")


@dataclass(eq=False)
class ConeBase:
    """Slice {k in cone : functional(k) = level} with its sampled radius."""

    functional: DualFunctional
    level: float = 1.0
    radius: float | None = None


def base_of(cone: PolyCone, functional, norm_kind: str = "two") -> ConeBase:
    """Base of the cone cut out by a strictly positive functional.

    The radius is the largest norm among generators scaled to the level-one
    slice; every base point is a convex combination of those vertices, so the
    radius bounds the whole base.
    """
    coeffs = functional.coeffs if isinstance(functional, DualFunctional) else as_point(functional, cone.dim)
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("trivial cone has no base")
    vals = gens @ coeffs
    scale = float(np.max(np.linalg.norm(gens, axis=1)))
    if float(np.min(vals)) <= 1e-12 * max(1.0, scale):
        raise ValueError("functional is not strictly positive on the generators; no bounded base at level one")
    verts = gens / vals[:, None]
    radius = float(max(norm(v, norm_kind) for v in verts))
    if not isinstance(functional, DualFunctional):
        functional = DualFunctional(coeffs, cone)
    return ConeBase(functional=functional, level=1.0, radius=radius)


def strictly_positive_functional(cone: PolyCone) -> DualFunctional:
    """A functional with value at least 1 on every generator, by a small LP.

    Minimizing the l1 norm of the coefficients keeps the answer canonical;
    for the orthant this returns the all-ones vector.  Raises when no such
    functional exists, which is exactly the non-pointed case.
    """
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("trivial cone has no strictly positive functional at level one")
    g, d = gens.shape
    cost = np.concatenate([np.zeros(d), np.ones(d)])
    a_ub = np.block(
        [
            [-gens, np.zeros((g, d))],
            [np.eye(d), -np.eye(d)],
            [-np.eye(d), -np.eye(d)],
        ]
    )
    b_ub = np.concatenate([-np.ones(g), np.zeros(2 * d)])
    bounds = [(None, None)] * d + [(0, None)] * d
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise ValueError("no strictly positive functional: cone is not pointed")
    y = res.x[:d]
    if np.min(gens @ y) < 1.0 - 1e-7:
        raise RuntimeError("positive functional solve returned an infeasible point")
    return DualFunctional(as_point(y), cone)


def _is_full_dimensional(cone: PolyCone) -> bool:
    if cone.generators is not None and cone.generators.shape[0]:
        return int(np.linalg.matrix_rank(cone.generators)) == cone.dim
    rows = cone.dual_generators
    if rows is None or rows.shape[0] == 0:
        return True
    # interior nonempty iff rows @ x >= t has a solution with t > 0, |x| <= 1
    d = cone.dim
    cost = np.concatenate([np.zeros(d), [-1.0]])
    a_ub = np.hstack([-rows, np.ones((rows.shape[0], 1))])
    b_ub = np.zeros(rows.shape[0])
    bounds = [(-1.0, 1.0)] * d + [(0.0, 1.0)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return bool(res.success and -res.fun > 1e-9)


def relative_interior_contains(cone: PolyCone, k, tol: float = 1e-9) -> bool:
    """Strict positivity of every supporting inequality at k.

    Only defined for full-dimensional cones, where the relative interior is
    the topological interior; anything thinner raises.
    """
    k = as_point(k, cone.dim)
    if not _is_full_dimensional(cone):
        raise ValueError("relative interior test requires a full-dimensional cone")
    rows = unit_dual_generators(cone)
    if rows.shape[0] == 0:
        return True
    return bool(np.min(rows @ k) > tol)
