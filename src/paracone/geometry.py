"""Ordered-vector-space kernel: points, norms, and polyhedral cones.

A cone is described by generating rays, by supporting inequalities
(dual generators), or by both.  The partial order is ``x <= y`` iff
``y - x`` lies in the cone.  Everything here is finite dimensional and
polyhedral.  A representation the cone was not given is enumerated from the
other one by double description, in any dimension up to _MAX_RAYS rays, and
cached, so every question reads whichever rows it needs: membership, the
margins, pointedness and the strictly positive functional read the unit
supporting rows, full dimension and the dual audit read the generators.
Nothing here solves a linear program, and numpy is the only dependency.

A dual functional is a plain read-only array.  Every claim that rows are
nonnegative on a cone meets one exact audit, _audit_dual, against every
generator: a cone given in both forms (every generator meets every given
inequality, and every ray the inequalities enumerate meets every facet the
generators enumerate), a functional (dual_functional), and the functionals a
check is handed.  Building a cone draws no random numbers.

The order reaches the rest of the package as scalars through one kernel:
cone_values(cone, a) gives y(v) for every unit supporting functional y and
every row v of a, and cone_margins(cone, a) the smallest of them (0 for a
cone without functionals).  A row's values are the same bits in any batch,
and contains(cone, v, tol) is exactly cone_margins(cone, v) >= -tol, in
whatever form the cone was given.  The standard orthant is recognised when
it is built and read in closed form, v + 0.0, the identity product's bits,
as matvec_rows reads any identity rows it is given.  Every min or sup across
cone rows is one reduction, row_reduce, which folds rows of up to 8 entries
left to right, the same bits in a batch of any size.

Cones are immutable after construction and sampling routines take an
explicit seed, so every result is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Point = np.ndarray

NORM_KINDS = ("sup", "one", "two")

# feasibility slack used when enumerating extreme rays
_RAY_TOL = 1e-9
# most rays an enumeration holds at once; a cone past it raises
_MAX_RAYS = 2000
# slack of the dual audit (_audit_dual): the cosine a unit generator and a unit row may reach below 0
_AUDIT_TOL = 1e-7
# rows this close to unit length, in ulp, count as already unit (unit_rows)
_UNIT_ULPS = 4
# 2^-511, the square root of the smallest normal float 2^-1022: a two-norm below it has squares that lost bits
_TINY_NORM = 2.0**-511
# row_reduce folds rows of 2 to _FOLD_WIDTH entries (the widest row of a shipped cone) left to right:
# by columns in a batch of at least _COLUMN_ROWS rows for each entry of a row, along the rows below that
_FOLD_WIDTH = 8
_COLUMN_ROWS = 8


def _require_tol(*, positive: bool = False, **numbers) -> None:
    """Raise ValueError, before any evaluation, naming the first number that
    is a bool, NaN, infinite or below 0 (or at 0, when positive): a malformed
    number is an input error, never a verdict.  The one number rule of the
    package, called as _require_tol(tol=tol): every tol reads it, and so do
    the epsilons, deltas, allowance constants and modulus parameters."""
    for name, value in numbers.items():
        # a NaN fails both comparisons
        if isinstance(value, (bool, np.bool_)) or not (0.0 < value if positive else 0.0 <= value) or not value < math.inf:
            raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


def _at_least_one(*, minimum: int = 1, **counts) -> None:
    """Raise ValueError naming the first count that is not an integer of at
    least minimum (1 unless given), a bool being none, as the config reader
    refuses one: a check never certifies from an empty or floored sample,
    and a count is never truncated.  The one count rule of the package."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def as_point(coords, dim: int | None = None) -> Point:
    """Validate a coordinate vector and return it as a read-only float array.

    Raises ValueError on non-finite entries, wrong shape, or a dimension
    mismatch with ``dim``.  The finiteness check is one mask, reduced once.
    """
    v = np.array(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"point must be one dimensional, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("point must have at least one coordinate")
    if not np.isfinite(v).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {v.shape[0]} coordinates, expected {dim}")
    v.flags.writeable = False
    return v


def norm(v, kind: str = "two") -> float:
    """Norm of a vector under one of the supported tags: sup, one, two; a
    two-norm that the squares overflow or underflow is taken as in row_norms.
    A vector of one entry x has every norm |x|, row_norms' one-column rule,
    read without the overflow guard."""
    v = np.asarray(v, dtype=float)
    if v.shape == (1,) and kind in NORM_KINDS:
        return abs(v.item())
    if kind == "two":
        with np.errstate(over="ignore"):  # an overflowed sum of squares is taken again below
            n = math.sqrt(v @ v)  # correctly rounded, as np.sqrt is
        return float(_rescaled_two_norms(v.reshape(1, -1))[0]) if n < _TINY_NORM or n == math.inf else n
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
    whose last bits change with n.  This is the general path of cone_values.

    A mat that is the identity bit for bit (_is_identity, PolyCone's rule)
    reads a finite a as a + 0.0: the identity product's bits, -0.0 turned to
    +0.0 included, as the product writes into a zeroed output.  An a with an
    inf or NaN entry takes the product, where 0 * inf turns the other values
    of its row to NaN.
    """
    if _is_identity(mat) and np.isfinite(a).all():
        return a + 0.0
    return (a[:, None, :] @ mat.T)[:, 0, :]


def row_dots(a, b) -> np.ndarray:
    """u @ v for every pair of rows u of a and v of b, each its own dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_reduce(a: np.ndarray, kind: str = "min") -> np.ndarray:
    """The min of every row of a over its last axis, or with kind "sup" the
    max of |v| over it from 0 (the sup norm; 0 for a row of no entries):
    shape (..., r) -> (...).  The one reduction of cone rows: the margins of
    checks and of cone_margins, the row measure of derivative and the sup
    norms of row_norms all take it.

    A row of one entry is that entry, and a single row (a of one axis)
    gives a scalar, as numpy's reduce does.  A row of 2 to _FOLD_WIDTH
    entries is folded left to right by np.minimum or np.maximum, the same
    elementwise operation in the same order whatever batch holds it, so its
    bits depend on its entries alone, +-0.0 ties, +-inf and NaN included.  A
    batch of at least _COLUMN_ROWS rows for each entry of a row folds column
    by column into one output, one call per column; a smaller one takes the
    running fold along its rows (accumulate), one call.  The two cross near
    that size at every width from 2 to 8, and each beats numpy's reduce on
    its side (2-vCPU VM).  numpy's own row reduce is this fold only while
    the entries after the first are fewer than its SIMD lanes (8 doubles
    with AVX512, 4 with AVX2, 2 with SSE2 or NEON); past that it reduces in a
    tree, which can break a +-0.0 tie another way, and it can clear the
    sign of a negative NaN that np.minimum keeps, so the fold is not read
    from it.  Wider rows take numpy's reduce, whose result for a row reads
    that row only.  The choice reads the shape only."""
    if kind not in ("min", "sup"):
        raise ValueError(f"unknown row reduction {kind!r}; expected 'min' or 'sup'")
    sup = kind == "sup"
    width = a.shape[-1]
    if width == 1:
        return (np.abs(a[..., 0]) if sup else a[..., 0].copy())[()]
    if sup:
        a = np.abs(a)
    if width > _FOLD_WIDTH or width == 0:
        return a.max(axis=-1, initial=0.0) if sup else a.min(axis=-1)
    fold = np.maximum if sup else np.minimum
    if a.size < _COLUMN_ROWS * width * width:
        return fold.accumulate(a, axis=-1)[..., -1][()]
    out = fold(a[..., 0], a[..., 1], out=np.empty(a.shape[:-1]))
    for j in range(2, width):
        fold(out, a[..., j], out=out)
    return out


def _rescaled_two_norms(a: np.ndarray) -> np.ndarray:
    """The two-norm of every row of a, taken on the row divided by the power
    of two of its largest entry, then multiplied back: the scaling is exact,
    and no square overflows or underflows."""
    _, exp = np.frexp(row_reduce(a, "sup"))
    scaled = np.ldexp(a, -exp[:, None])
    with np.errstate(over="ignore"):  # a norm past the largest float is inf
        return np.ldexp(np.sqrt(row_dots(scaled, scaled)), exp)


def row_norms(a, kind: str = "two") -> np.ndarray:
    """norm(v, kind) of every row v of a, bitwise equal to the one-vector call.

    A row whose plain two-norm is inf, or below _TINY_NORM, where its squares
    lose bits, is taken again by _rescaled_two_norms, so a finite row has a
    finite norm unless the norm itself passes the largest float.  The plain
    pass runs with numpy's overflow warning off, as no overflowed row keeps
    its plain value; every other row keeps the plain bits.  A one-norm needs
    no second pass: its partial sums never pass its total.

    Every norm of a one-column a is |x| of its entries: the max and the sum
    of one entry are the entry, and in binary64 sqrt(fl(x * x)) is |x|
    wherever x * x neither overflows nor underflows, where the rescaled rows
    give |x| too.  A NaN stays NaN, with its sign bit cleared."""
    a = np.asarray(a, dtype=float)
    if a.shape[1:] == (1,) and kind in NORM_KINDS:
        return np.abs(a[:, 0])
    if kind == "two":
        with np.errstate(over="ignore"):  # an overflowed row is taken again below
            out = np.sqrt(row_dots(a, a))
        # two reductions clear every row at once; a NaN fails them and takes the row mask
        if not (out.min(initial=np.inf) >= _TINY_NORM and out.max(initial=0.0) < np.inf):
            redo = (out < _TINY_NORM) | (out == np.inf)
            out[redo] = _rescaled_two_norms(a[redo])
        return out
    if kind == "sup":
        return row_reduce(a, "sup")
    if kind == "one":
        return np.sum(np.abs(a), axis=1)
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def unit_rows(rows) -> np.ndarray:
    """Rows scaled to unit euclidean length, each length from row_norms,
    which neither overflows nor underflows, so every finite nonzero row has
    a unit row however long or short it is written.

    A row whose length is already within a few ulp of 1 is kept as given, so
    scaling rows twice changes nothing, and a zero row stays zero.
    """
    rows = np.asarray(rows, dtype=float)
    lengths = row_norms(rows)
    keep = (lengths == 0.0) | (np.abs(lengths - 1.0) <= _UNIT_ULPS * np.finfo(float).eps)
    return rows / np.where(keep, 1.0, lengths)[:, None]


def _coerce_rows(rows, dim: int, what: str, allow_zero_rows: bool) -> np.ndarray:
    """rows as a read-only finite (n, dim) array, one vector taken as one
    row.  A zero row, one with no nonzero entry however small or large its
    other rows are, raises unless allow_zero_rows; no length is taken."""
    try:
        m = np.array(rows, dtype=float)
    except ValueError as exc:  # ragged rows, or entries that are not numbers
        raise ValueError(f"{what} must be an array of shape (*, {dim}) of numbers") from exc
    if m.size == 0:
        m = np.zeros((0, dim))
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"dimension mismatch: {what} must be an array of shape (*, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    if not allow_zero_rows and not m.any(axis=1).all():
        raise ValueError(f"{what} contains a zero row")
    m.flags.writeable = False
    return m


def _audit_dual(
    gens: np.ndarray, rows: np.ndarray, message: str = "functional is negative on a generator; not in the dual cone"
) -> None:
    """Raise ValueError(message) when a row is negative on a generator: when
    a unit generator and a unit row (unit_rows) have a cosine below
    -_AUDIT_TOL.  The rule reads angles only, so the answer does not depend
    on how long a generator or a row is written, and no product overflows.
    Every generator meets every row; a zero row (the zero functional) meets
    every generator, and no generators (the trivial cone {0}, whose dual is
    the whole space) accept every row."""
    if np.any(unit_rows(gens) @ unit_rows(rows).T < -_AUDIT_TOL):
        raise ValueError(message)


def _is_identity(rows: np.ndarray) -> bool:
    """Whether rows are np.eye of their width bit for bit: square, ones on
    the diagonal, and no other nonzero bit pattern (so no -0.0 either)."""
    n = rows.shape[0]
    if rows.shape != (n, n) or np.count_nonzero(rows.view(np.uint64)) != n:
        return False
    return bool((rows.diagonal() == 1.0).all())


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

    def inside(self, points) -> np.ndarray:
        """The one open-box mask of the package, of the shape of points
        (..., dim): whether each entry lies strictly between its faces, a NaN
        failing.  A point is inside when its row is all True; a last axis
        other than dim raises ValueError."""
        x = np.asarray(points, dtype=float)
        if x.shape[-1:] != self.lo.shape:
            raise ValueError("dimension mismatch in box membership")
        return (x > self.lo) & (x < self.hi)

    def contains(self, x) -> bool:
        """Whether the one point x lies strictly inside every face (inside).
        A shape other than (dim,) raises ValueError."""
        if np.shape(x) != self.lo.shape:
            raise ValueError("dimension mismatch in box membership")
        return bool(self.inside(x).all())

    def boundary_distance(self, x, h):
        """Distance from x to the boundary along the ray through h (sup of
        admissible step sizes).  For one point (d,), or for stacked points
        and directions (k, d), one distance per row."""
        x = np.asarray(x, dtype=float)
        if not self.inside(x).all():
            raise ValueError("boundary distance requested from a point outside the box")
        h = np.asarray(h, dtype=float)
        if h.ndim == 1:
            # one direction, the case of every single-direction derivative op:
            # this loop over Python floats, the same IEEE double arithmetic,
            # takes about 3 us a call where the array form below takes 15 us
            # (2-vCPU VM, d = 2), the same bits
            best = math.inf
            for xi, step, lo, hi in zip(x.tolist(), h.tolist(), self.lo.tolist(), self.hi.tolist()):
                if step != 0.0:
                    best = min(best, ((hi if step > 0.0 else lo) - xi) / step)
            return best
        edge = np.where(h > 0.0, self.hi, self.lo) - x
        return np.divide(edge, h, out=np.full(h.shape, np.inf), where=h != 0.0).min(axis=-1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
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
        or None.  At least one representation must be present.  When both are
        given, construction checks both inclusions and raises "generator and
        inequality representations disagree" unless each holds, each through
        _audit_dual: every given generator meets every given inequality, and
        every ray the inequalities enumerate meets every facet the
        generators enumerate (_polar_rays of each form).  So both forms name
        one cone, within _AUDIT_TOL.
    pointed: whether the cone holds no line, decided at construction by one
        rule for every form: the unit supporting rows (unit_dual_generators,
        enumerated from the generators when none were given), which contains
        reads, span R^dim.  A line in the cone is a direction v on which
        every row vanishes, so contains accepts both v and -v.  The whole
        space (no rows) is not pointed; the trivial cone {0}, whose rows are
        +-e_i, is.  A cone whose enumeration exceeds _MAX_RAYS raises here.

    The standard orthant is recognised from its input, once: a cone whose
    inequality rows are np.eye(dim) bit for bit, with no generators or
    generators that are np.eye(dim) too, as orthant() and a config
    {"orthant": m} build it.  Its unit rows are the given rows and it is
    pointed, with no rank decision, audit or merge, each of which holds on
    the identity; cone_values reads it in closed form.  Every other cone,
    one that is the identity in one form only included, takes the general
    path.
    """

    dim: int
    generators: np.ndarray | None = None
    dual_generators: np.ndarray | None = None
    name: str = ""
    pointed: bool = field(init=False, default=True)

    def __post_init__(self):
        _at_least_one(dim=self.dim)
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
        self._identity = self.dual_generators is not None and all(
            rows is None or _is_identity(rows) for rows in (self.generators, self.dual_generators)
        )
        if self._identity:
            # the rows e_i are unit and distinct and span R^dim, and every e_i
            # meets every e_j: the merge, the rank and the audit each hold
            self._caches["unit_duals"] = self.dual_generators
            self.pointed = True
            return
        if self.generators is not None and self.dual_generators is not None:
            message = "generator and inequality representations disagree"
            _audit_dual(self.generators, self.dual_generators, message)
            _audit_dual(_polar_rays(self.dual_generators), _polar_rays(self.generators), message)
        self.pointed = int(np.linalg.matrix_rank(unit_dual_generators(self))) == self.dim

    def __repr__(self):  # keep array dumps out of test output
        label = self.name or "cone"
        reps = []
        if self.generators is not None:
            reps.append(f"{self.generators.shape[0]} rays")
        if self.dual_generators is not None:
            reps.append(f"{self.dual_generators.shape[0]} inequalities")
        return f"PolyCone({label}, dim={self.dim}, {', '.join(reps)})"


def orthant(dim: int) -> PolyCone:
    """Non-negative orthant orthant{dim} with exact identity rays and
    inequalities: the cone PolyCone recognises as the identity, built without
    a rank decision, an audit or an enumeration, read by cone_values as v + 0.0."""
    eye = np.eye(dim)
    return PolyCone(dim, generators=eye, dual_generators=eye, name=f"orthant{dim}")


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
    """Membership test: every unit supporting functional at least -tol on v.

    These are the cone_values that the checks' margins are made of, so
    membership and a margin agree on the same tolerance whichever form the
    cone was given in.  A cone given only by generators reads the rows that
    unit_dual_generators enumerates (at most _MAX_RAYS) and caches; the
    trivial cone {0} has the rows +-e_i, so it accepts v when every
    coordinate is within tol.  A tol that is not finite and at least 0
    raises ValueError (_require_tol).
    """
    _require_tol(tol=tol)
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise ValueError(f"dimension mismatch: point of shape {v.shape} against cone of dim {cone.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("membership test on non-finite point")
    return bool(np.all(cone_values(cone, v) >= -tol))


def leq(cone: PolyCone, x, y, tol: float = 1e-9) -> bool:
    """Cone order: x <= y iff y - x is a member, under the tol rule of contains."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("order test on points of different shapes")
    return contains(cone, y - x, tol=tol)


def _double_description(a: np.ndarray) -> np.ndarray:
    """Extreme rays of the pointed cone {w : a @ w >= 0}, a (g, r) of full
    column rank, by double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996).  The seed is the simplicial cone of r independent rows B,
    whose rays are the columns of inv(a_B).  Each further row keeps the rays
    it is at least -_RAY_TOL on, and joins each adjacent pair it splits (the
    processed rows tight at both have rank r - 2) at its zero.
    """
    g, r = a.shape
    basis, resid = [], a.copy()
    for _ in range(r):  # the row of largest residual, r times
        i = int(np.argmax(row_dots(resid, resid)))
        basis.append(i)
        e = resid[i] / norm(resid[i])
        resid = resid - np.outer(resid @ e, e)
    rays = unit_rows(np.linalg.inv(a[basis]).T)  # row k vanishes on every basis row but the k-th
    tight = np.zeros((r, g), dtype=bool)  # the processed rows that vanish on each ray
    tight[:, basis] = ~np.eye(r, dtype=bool)
    for i in sorted(set(range(g)) - set(basis)):
        v = rays @ a[i]
        pos, neg = v > _RAY_TOL, v < -_RAY_TOL
        # a pair sharing fewer than r - 2 tight rows cannot be adjacent
        k_pos, k_neg = np.nonzero(tight[pos].astype(float) @ tight[neg].T.astype(float) >= r - 2)
        p, n = np.flatnonzero(pos)[k_pos], np.flatnonzero(neg)[k_neg]
        common = tight[p] & tight[n]
        singular = np.linalg.svd(a * common[:, :, None], compute_uv=False)
        adjacent = np.sum(singular > 1e-10, axis=1) == r - 2
        p, n, common = p[adjacent], n[adjacent], common[adjacent]
        common[:, i] = True
        tight[:, i] = ~pos & ~neg
        rays = np.vstack([rays[~neg], unit_rows(v[p, None] * rays[n] - v[n, None] * rays[p])])
        tight = np.vstack([tight[~neg], common])
        if rays.shape[0] > _MAX_RAYS:
            raise ValueError(f"ray enumeration holds more than {_MAX_RAYS} rays (geometry._MAX_RAYS)")
    # rays tight at earlier rows first, so of two rays inside the merge
    # angle _polar_rays keeps the same one whatever the seed rows were
    return rays[sorted(range(rays.shape[0]), key=lambda k: tuple(np.flatnonzero(tight[k])))]


def _polar_rays(mat: np.ndarray) -> np.ndarray:
    """Generating rays of {y : mat @ y >= 0}: the rays _double_description
    enumerates in the row space of the unit rows (unit_rows), where the
    polar is pointed, and plus and minus an orthonormal basis of the lines
    (the null space), each candidate divided by its row_norms length.  A
    basis of two or more lines is the SVD's, whose last bits move with the
    last bits of its input."""
    d = mat.shape[1]
    scaled = unit_rows(mat)
    u, s, vt = np.linalg.svd(scaled, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    candidates = []
    if rank > 0:
        q = vt[:rank].T  # (d, rank) row-space basis
        candidates += [q @ w for w in _double_description(scaled @ q)]
    # lines orthogonal to every row belong to the polar in both directions
    for row in vt[rank:]:
        candidates += [row, -row]
    candidates = np.array(candidates).reshape(-1, d)
    lengths = row_norms(candidates)
    kept = lengths >= 1e-12
    rays = _distinct_rays(candidates[kept] / lengths[kept, None])
    return np.array(sorted(rays, key=lambda r: tuple(np.round(r, 9)))).reshape(-1, d)


def _distinct_rays(rays: np.ndarray) -> np.ndarray:
    """The unit rows of rays without each row that repeats an earlier kept
    one, at a cosine above 1 - 1e-12 (within about 1.4e-6 rad): one ray
    reached or written twice.  A looser merge drops a true ray of a thin
    cone, and with it the cone's full dimension and the dual audit's check
    on that ray.  Rows that repeat nothing keep their order and bits.

    Every pair is read from one table of cosines.  The largest set it meets
    is an enumeration's, at most _MAX_RAYS rows; the orthant, the one large
    cone, is recognised by PolyCone and never merged.
    """
    close = np.triu(rays @ rays.T > 1.0 - 1e-12, 1)
    keep = np.ones(rays.shape[0], dtype=bool)
    for i in np.flatnonzero(close.any(axis=0)):  # in row order, so every earlier row is decided
        keep[i] = not (close[:, i] & keep).any()
    return rays[keep]


def dual_cone(cone: PolyCone) -> PolyCone:
    """Polar dual {y : y @ g >= 0 for every generator g}: the swap of the
    generators and the supporting rows, whichever of them was enumerated.
    Raises on the trivial cone {0}."""
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("dual_cone of a degenerate cone without nonzero generators")
    return PolyCone(
        cone.dim,
        generators=ensure_dual_generators(cone).copy(),
        dual_generators=gens.copy(),
        name=(cone.name + "*") if cone.name else "dual",
    )


def _cached(cone: PolyCone, key: str, compute) -> np.ndarray:
    """cone._caches[key], computed and frozen read-only on first use."""
    if key not in cone._caches:
        rows = compute()
        rows.flags.writeable = False
        cone._caches[key] = rows
    return cone._caches[key]


def ensure_generators(cone: PolyCone) -> np.ndarray:
    """Generator rows, enumerating them from the inequality form if needed."""
    if cone.generators is not None:
        return cone.generators
    return _cached(cone, "generators", lambda: _polar_rays(cone.dual_generators))


def ensure_dual_generators(cone: PolyCone) -> np.ndarray:
    """Inequality rows, enumerating them from the generator form if needed."""
    if cone.dual_generators is not None:
        return cone.dual_generators
    return _cached(cone, "dual_generators", lambda: _polar_rays(cone.generators))


def unit_dual_generators(cone: PolyCone) -> np.ndarray:
    """Supporting inequality rows scaled to unit euclidean length, with a row
    that repeats an earlier one dropped (_distinct_rays), as the enumeration
    drops a ray it reaches twice: so a cone reads the same rows whether it
    was given by its rows or by its generators."""
    return _cached(cone, "unit_duals", lambda: _distinct_rays(unit_rows(ensure_dual_generators(cone))))


def cone_values(cone: PolyCone, a) -> np.ndarray:
    """y(v) for every unit supporting functional y (the rows of
    unit_dual_generators) and every row v of a: shape (..., dim) -> (..., r).
    Each row is its own matvec_rows product, so its values are the same bits
    however many rows are stacked with it, a single vector included.

    On a cone recognised as the orthant (PolyCone) the values of an a whose
    every entry is finite are a + 0.0, matvec_rows' closed form of the
    identity, read from the flag PolyCone sets once: the identity product's
    bits, -0.0 turned to +0.0 included.  An a with an inf or NaN entry takes
    the product, where 0 * inf turns the other values of its row to NaN."""
    a = np.asarray(a, dtype=float)
    if cone._identity and a.shape[-1:] == (cone.dim,) and np.isfinite(a).all():
        return a + 0.0
    rows = unit_dual_generators(cone)
    return matvec_rows(rows, a.reshape(-1, cone.dim)).reshape(a.shape[:-1] + (rows.shape[0],))


def cone_margins(cone: PolyCone, a) -> np.ndarray:
    """The smallest of cone_values(cone, a) for every row of a, shape (..., dim)
    -> (...); 0 for every row when the cone (the whole space) has none."""
    values = cone_values(cone, a)
    return row_reduce(values) if values.shape[-1] else np.zeros(values.shape[:-1])


def generator_direction(cone: PolyCone) -> np.ndarray:
    """The sum of the generators scaled to unit euclidean length; raises when
    they sum to zero, as they can only in a cone that contains a line."""
    k0 = ensure_generators(cone).sum(axis=0)
    nk = norm(k0, "two")
    if nk <= 1e-12:
        raise ValueError("cone generators sum to zero; no interior direction")
    return k0 / nk


def normality_constant(cone: PolyCone, norm_kind: str = "two", budget: int = 1000, seed: int = 0) -> float:
    """Sampled estimate of sup ||x|| / ||y|| over comparable pairs 0 <= x <= y.

    Pairs are built as x, x + w with x, w sampled from the cone, so the order
    relations hold by construction.  The degenerate pair x = y is always
    included, which pins the estimate at or above 1.  All budget - 1 sampled
    pairs come from one draw that keeps the sequential stream, pair after
    pair, so for a fixed seed each budget's pairs are a prefix of a larger
    budget's and the estimate is nondecreasing in the budget.  A cone that is
    not pointed holds a line: with x = t*v on it and y = w in the cone, x and
    y - x stay in the cone while ||x|| / ||y|| grows without bound, so the
    call raises.

    On the standard orthant the estimate is exactly 1, the true constant:
    the identity generators make x the coefficients themselves, and
    y = x + w with w >= 0 rounds to y >= x >= 0 coordinate by coordinate,
    since rounding is monotone.  Each supported norm is monotone on such
    pairs and is computed by the same operations for x and y, so no sampled
    ratio exceeds 1 and the floor 1.0 is the maximum.
    """
    _at_least_one(budget=budget)
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    if not cone.pointed:
        raise ValueError("normality constant of a cone that is not pointed is unbounded")
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


def dual_functional(cone: PolyCone, coeffs) -> Point:
    """coeffs as a read-only point, audited (_audit_dual) against every
    generator of the cone, enumerated from the inequality form when the cone
    has none: raises when it is negative on one, so not in the dual cone."""
    coeffs = as_point(coeffs, cone.dim)
    _audit_dual(ensure_generators(cone), coeffs[None, :])
    return coeffs


def base_radius(cone: PolyCone, coeffs, norm_kind: str = "two") -> float:
    """Radius of the base {k in cone : coeffs @ k = 1} cut out by a strictly
    positive functional.

    The radius is the largest norm (row_norms) among generators scaled to
    the level-one slice; every base point is a convex combination of those
    vertices, so the radius bounds the whole base.  A functional that is not
    strictly positive on every generator raises; one that is lies in the
    dual cone.  Strictly positive means a cosine above 1e-12 between each
    unit generator and the unit functional (unit_rows), as _audit_dual
    reads angles only, so the answer does not depend on how long a
    generator or the functional is written.

    A vertex is g / (coeffs @ g), the same point for g at any length.  Each
    is taken on the generator as given, and a vertex whose coeffs @ g is
    below the smallest normal float (an underflow, to 0 or to a subnormal
    that lost bits) or whose quotient is not finite is taken again on the
    unit generator (unit_rows), as row_norms re-takes only the rows that
    overflow: every other vertex keeps its bits.
    """
    coeffs = as_point(coeffs, cone.dim)
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("trivial cone has no base")
    if float(np.min(unit_rows(gens) @ unit_rows(coeffs[None])[0])) <= 1e-12:
        raise ValueError("functional is not strictly positive on the generators; no bounded base at level one")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the rows taken again below
        vals = gens @ coeffs
        vertices = gens / vals[:, None]
    redo = ~(np.isfinite(vertices).all(axis=1) & (np.abs(vals) >= np.finfo(float).tiny))
    if redo.any():
        units = unit_rows(gens[redo])
        vertices[redo] = units / (units @ coeffs)[:, None]
    return float(row_norms(vertices, norm_kind).max())


def strictly_positive_functional(cone: PolyCone) -> Point:
    """s / min_g(g @ s) as a read-only array, s the sum of the unit supporting
    rows: at least 1 on every generator g, and 1 where s is smallest, so in
    the dual cone.  A pointed cone has a full-dimensional dual, whose interior
    holds s, so s is positive on the cone.  On the standard orthant s is
    exactly all ones and so is the answer.  Raises on the trivial cone and on
    a cone that is not pointed.
    """
    gens = ensure_generators(cone)
    if gens.shape[0] == 0:
        raise ValueError("trivial cone has no strictly positive functional at level one")
    if not cone.pointed:
        raise ValueError("no strictly positive functional: cone is not pointed")
    s = unit_dual_generators(cone).sum(axis=0)
    low = float(np.min(gens @ s))
    if low <= 0.0:
        raise ValueError("no strictly positive functional: the unit supporting rows sum to zero on a generator")
    return as_point(s / low)
