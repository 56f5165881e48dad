"""Symmetric (permutation-invariant) penalties on R^n with their
first- and second-order variational calculus.

Four families are shipped:

* ``OrderStat(rank)`` -- the rank-th largest coordinate (rank 1 = max),
* ``McpSum(a, c)`` -- a coordinatewise minimax concave penalty,
* ``EigGapMax()`` -- the largest consecutive gap of the sorted coordinates,
* ``SmoothSep(coeff)`` -- a uniform separable quadratic, the smooth
  reference case.

Each family knows its value, a generator description of its subdifferential
(vertex hull, interval box, or a single point), its subderivative, its
second subderivative relative to a subgradient, its critical cone, its
proximal mapping (closed form where available, brute-force fallback
otherwise), and -- for the polyhedral families -- a certificate of whether
the second subderivative is a generalized quadratic on a subspace.

The two polyhedral subdifferentials are simplices with linearly
independent vertices, e_i for ``OrderStat`` and e_i - e_(i+1) for
``EigGapMax``, so hull membership and the relative-interior certificate
have closed forms: the coefficients of y are y_S or cumsum(y)_S.  No LP
and no scipy call is involved.

Subgradient membership is tested to an absolute tolerance of 1e-9 in the
sup norm; active sets and tie detection use a relative tolerance of 1e-8,
matching the eigenvalue clustering scale upstream.  Vector arguments of
unequal lengths raise ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSubgradientError, UnsupportedPointError
from .extreal import POS_INF, ExtReal
from .oracle import numeric_prox
from .symmat import tie_width

SUBGRADIENT_TOL = 1e-9
CONE_RTOL = 1e-8
RI_SLACK = 1e-9


def _vec(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got shape {a.shape}")
    return a


def _vecs(*xs) -> tuple[np.ndarray, ...]:
    """The arguments as float vectors of one common length; unequal
    lengths raise ValueError instead of broadcasting."""
    out = tuple(map(_vec, xs))
    if any(a.size != out[0].size for a in out):
        raise ValueError(f"vectors of unequal lengths {[a.size for a in out]}")
    return out


def _rows(x) -> np.ndarray:
    """A vector (n,) or a stack (S, n) of vectors, as a float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a vector or an (S, n) stack, got shape {a.shape}")
    return a


def _per_row(v):
    """A value reduced over the last axis: a float for a vector, the (S,)
    array for a stack."""
    return float(v) if v.ndim == 0 else v


def _tie_tol(x: np.ndarray) -> float:
    """Width within which coordinates count as tied: ``eig``'s default
    clustering width for a spectrum x (``symmat.tie_width``)."""
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return tie_width(scale)


# Nothing calls this; perfbench/spans.py looks the name up to count hull LPs.
def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _hull_support(v: np.ndarray) -> tuple[bool, np.ndarray]:
    """Read hull vertices as unit vectors e_i or gap vertices e_i - e_(i+1):
    whether they are gap vertices, and the index i of each row.  Either
    family is linearly independent, so every point of the hull has unique
    coefficients.  Any other vertex set raises ValueError."""
    n = v.shape[1]
    i = np.argmax(v, axis=1)
    eye = np.eye(n)
    if np.array_equal(v, eye[i]):
        return False, i
    if np.all(i < n - 1) and np.array_equal(v, eye[i] - eye[i + 1]):
        return True, i
    raise ValueError(
        "hull membership has a closed form only for unit vectors e_i and gap "
        "vertices e_i - e_(i+1), the subdifferentials of the shipped penalties"
    )


def _gap_hull_meets(y: np.ndarray, s: np.ndarray, tol: float) -> bool:
    """Whether conv{e_i - e_(i+1) : i in s} comes within sup-norm tol of y.

    A hull point z has prefix sums cumsum(z) = c, its coefficients (zero
    off s and at n-1), so E = cumsum(y) - c = cumsum(y - z) is a path from
    E_(-1) = 0 with steps of at most tol, equal to p = cumsum(y) off s and
    at n-1 and at most p on s.  Such paths are closed under max and min:
    the highest, hi, is the lowest cone p_j + tol |i - j| over every anchor
    (j = -1 with p = 0), the lowest, lo, the highest cone p_j - tol |i - j|
    over the anchors off s.  A path exists iff lo <= hi, and sum_s(p - E)
    = sum(c) = 1 is attainable iff it lies between its values at hi and lo.
    """
    n = y.size
    p = np.cumsum(y)
    on = np.zeros(n, dtype=bool)
    on[s] = True
    anchor = np.concatenate([[0.0], p])
    pinned = np.concatenate([[True], ~on])
    cone = tol * np.abs(np.arange(n)[:, None] - np.arange(-1, n)[None, :])
    hi = np.min(anchor + cone, axis=1)
    lo = np.max(anchor[pinned] - cone[:, pinned], axis=1)
    return bool(np.all(lo <= hi) and (p - hi)[on].sum() <= 1.0 <= (p - lo)[on].sum())


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns, with the rank
    cutoff of scipy.linalg.null_space: max(a.shape) * eps * s_max."""
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(sv > max(a.shape) * np.finfo(float).eps * sv.max()))
    return vh[rank:].T


@dataclass(frozen=True)
class SubgradientSet:
    """Generator description of a subdifferential.

    kind = "point": the singleton {point};
    kind = "box":   the interval product [lower, upper];
    kind = "hull":  the convex hull of the rows of ``vertices``.
    """

    kind: str
    vertices: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    point: np.ndarray | None = None

    def contains(self, y, tol: float = SUBGRADIENT_TOL) -> bool:
        """Whether y lies within sup-norm distance tol of the set."""
        if self.kind == "point":
            y, point = _vecs(y, self.point)
            return bool(np.max(np.abs(y - point)) <= tol)
        if self.kind == "box":
            y, _ = _vecs(y, self.lower)
            return bool(
                np.all(y >= self.lower - tol) and np.all(y <= self.upper + tol)
            )
        v = np.asarray(self.vertices)
        y, _ = _vecs(y, v[0])
        if len(v) == 1:  # a single point
            return bool(np.max(np.abs(y - v[0])) <= tol)
        gaps, s = _hull_support(v)
        if gaps:
            return _gap_hull_meets(y, s, tol)
        # conv{e_i : i in S}: y is tol-close to 0 off S and to some
        # simplex point on S, i.e. the tol-box around y_S meets it
        on = v.any(axis=0)
        lo, hi = np.maximum(y[on] - tol, 0.0), y[on] + tol
        off = np.max(np.abs(y[~on]), initial=0.0)
        return bool(off <= tol and hi.min() >= 0.0 and lo.sum() <= 1.0 <= hi.sum())

    def canonical_vertex(self) -> np.ndarray:
        """Deterministic representative: the lexicographically smallest
        vertex (box: lower corner; point: the point)."""
        if self.kind == "point":
            return np.array(self.point)
        if self.kind == "box":
            return np.array(self.lower)
        rows = sorted(map(tuple, np.asarray(self.vertices)))
        return np.array(rows[0], dtype=float)


@dataclass(frozen=True)
class GqfCertificate:
    """Whether a polyhedral second subderivative is a generalized quadratic
    (zero on a subspace, +inf off it); carries an orthonormal basis of the
    subspace when it is."""

    is_gqf: bool
    subspace_basis: np.ndarray | None


@dataclass(frozen=True)
class ProxResult:
    point: np.ndarray
    closed_form: bool


class SymmetricFunction:
    """Interface shared by the shipped symmetric penalties.

    A subclass with ``polyhedral = True`` inherits the polyhedral second
    subderivative (0 on the critical cone, +inf off it), the zero Hessian
    diagonal and the brute-force prox; any other subclass supplies its own."""

    polyhedral: bool = False
    name: str = ""

    def value(self, x):
        """theta at a vector x of shape (n,), as a float, or at each row of
        an (S, n) stack, as an (S,) array: one formula reduces over the last
        axis, so row s of a stack gets exactly the float of value(x[s]).
        Any other shape raises ValueError."""
        raise NotImplementedError

    def subgradients(self, x) -> SubgradientSet:
        raise NotImplementedError

    def subderivative(self, x, w) -> float:
        raise NotImplementedError

    def second_subderivative(self, x, y, w) -> ExtReal:
        """For polyhedral penalties: 0 on the critical cone, +inf off it."""
        if not self.polyhedral:
            raise NotImplementedError
        if self.critical_cone_member(x, y, w):
            return ExtReal(0.0)
        return POS_INF

    def prox(self, gamma: float, x) -> ProxResult:
        """For polyhedral penalties: the brute-force ``numeric_prox``."""
        if not self.polyhedral:
            raise NotImplementedError
        res = numeric_prox(self.value, gamma, _vec(x))
        return ProxResult(point=res.point, closed_form=False)

    def gradient(self, x) -> np.ndarray:
        raise UnsupportedPointError(f"{self.name} is not differentiable here")

    def hessian_diagonal(self, x) -> np.ndarray:
        """For polyhedral penalties: zero wherever the gradient exists."""
        if not self.polyhedral:
            raise UnsupportedPointError(f"{self.name} has no second derivative here")
        self.gradient(x)
        return np.zeros(_vec(x).size)

    def check_subgradient(self, x, y, tol: float = SUBGRADIENT_TOL) -> None:
        if not self.subgradients(x).contains(y, tol):
            raise InvalidSubgradientError(
                f"{self.name}: vector is not a subgradient at the given point"
            )

    def critical_cone_member(self, x, y, w) -> bool:
        """True when the subderivative at w matches <y, w> to within
        1e-8 * (1 + ||w||): the two characterizations of the critical cone
        coincide for these penalties."""
        x, y, w = _vecs(x, y, w)
        self.check_subgradient(x, y)
        return self._in_cone(x, y, w)

    def _in_cone(self, x, y, w) -> bool:
        """critical_cone_member on vectors, for a y already checked."""
        resid = abs(self.subderivative(x, w) - float(y @ w))
        return bool(resid <= CONE_RTOL * (1.0 + float(np.linalg.norm(w))))

    def gqf_certificate(self, x, y) -> GqfCertificate:
        """For polyhedral penalties: the second subderivative at (x, y) is a
        generalized quadratic exactly when y lies in the relative interior
        of the subdifferential, i.e. when every coefficient of y over the
        active vertices is positive (the vertices are linearly independent,
        so the coefficients are unique: y_S for unit vectors, cumsum(y)_S
        for gap vertices).  A coefficient must clear RI_SLACK by the
        membership tolerance, which alone moves it that far.  The
        certificate's subspace is the common orthogonal complement of the
        active-vertex differences."""
        if not self.polyhedral:
            raise UnsupportedPointError(
                f"{self.name} is not polyhedral; no generalized-quadratic certificate"
            )
        x, y = _vecs(x, y)
        self.check_subgradient(x, y)
        verts = np.asarray(self.subgradients(x).vertices)
        if len(verts) == 1:
            return GqfCertificate(True, np.eye(x.size))
        gaps, s = _hull_support(verts)
        coeffs = (np.cumsum(y) if gaps else y)[s]
        if coeffs.min() < RI_SLACK + SUBGRADIENT_TOL:
            return GqfCertificate(False, None)
        return GqfCertificate(True, _null_space(verts[1:] - verts[0]))


@dataclass(frozen=True)
class OrderStat(SymmetricFunction):
    """The rank-th largest coordinate (rank is 1-based; rank 1 is the max).

    First- and second-order objects require the leading-rank hypothesis:
    rank 1, or a strict gap between the (rank-1)-th and rank-th largest
    values.  Violations raise UnsupportedPointError.
    """

    rank: int

    polyhedral = True
    name = "order_stat"

    def __post_init__(self):
        if int(self.rank) != self.rank or self.rank < 1:
            raise ValueError("rank must be a positive integer")
        object.__setattr__(self, "rank", int(self.rank))

    def _sorted(self, x: np.ndarray) -> np.ndarray:
        if self.rank > x.size:
            raise ValueError(f"rank {self.rank} exceeds dimension {x.size}")
        return np.sort(x)[::-1]

    def value(self, x):
        x = _rows(x)
        n = x.shape[-1]
        if self.rank > n:
            raise ValueError(f"rank {self.rank} exceeds dimension {n}")
        return _per_row(np.sort(x)[..., n - self.rank])

    def _active(self, x: np.ndarray) -> np.ndarray:
        xs = self._sorted(x)
        tol = _tie_tol(x)
        phi = xs[self.rank - 1]
        if self.rank > 1 and xs[self.rank - 2] <= phi + tol:
            raise UnsupportedPointError(
                f"order statistic rank {self.rank} is not leading here: it ties "
                f"the next larger value within {tol:.2e}"
            )
        return np.flatnonzero(np.abs(x - phi) <= tol)

    def subgradients(self, x) -> SubgradientSet:
        x = _vec(x)
        idx = self._active(x)
        return SubgradientSet(kind="hull", vertices=np.eye(x.size)[idx])

    def subderivative(self, x, w) -> float:
        x, w = _vecs(x, w)
        return float(np.max(w[self._active(x)]))

    def gradient(self, x) -> np.ndarray:
        x = _vec(x)
        idx = self._active(x)
        if idx.size != 1:
            raise UnsupportedPointError(
                "order statistic is not differentiable: the active value is tied"
            )
        g = np.zeros(x.size)
        g[idx[0]] = 1.0
        return g


@dataclass(frozen=True)
class EigGapMax(SymmetricFunction):
    """Largest consecutive gap of the coordinates sorted nonincreasingly.

    The value is symmetric by construction (the input is sorted before the
    gaps are read off).  First- and second-order objects are defined at
    nonincreasingly sorted points, which is how the spectral layer always
    calls them; unsorted input raises UnsupportedPointError.
    """

    polyhedral = True
    name = "eig_gap"

    def value(self, x):
        x = _rows(x)
        if x.shape[-1] < 2:
            raise ValueError("gap penalty needs at least two coordinates")
        # gaps from the top down: which of +0.0 and -0.0 a zero max returns
        # depends on their order
        xs = np.sort(x)[..., ::-1]
        return _per_row((xs[..., :-1] - xs[..., 1:]).max(axis=-1))

    def _require_sorted(self, x: np.ndarray) -> None:
        if x.size < 2:
            raise ValueError("gap penalty needs at least two coordinates")
        if np.any(x[:-1] < x[1:] - _tie_tol(x)):
            raise UnsupportedPointError(
                "gap calculus hypothesis violated: the base point must be sorted "
                "nonincreasingly (spectral callers always pass ordered eigenvalues)"
            )

    def _active(self, x: np.ndarray) -> np.ndarray:
        """Indices of the maximal gaps, under the hypotheses that make the
        penalty locally a max of linear functions: the largest gap is
        nonzero, and both endpoints of every maximal gap are untied.  A tied
        endpoint makes the penalty locally concave-kinked with an empty
        regular subdifferential, so those points are rejected."""
        self._require_sorted(x)
        tol = _tie_tol(x)
        gaps = x[:-1] - x[1:]
        top = float(np.max(gaps))
        if top <= tol:
            raise UnsupportedPointError(
                "gap calculus hypothesis violated: all coordinates are tied, "
                "the largest gap is zero"
            )
        idx = np.flatnonzero(gaps >= top - tol)
        for i in idx:
            if i > 0 and x[i - 1] - x[i] <= tol:
                raise UnsupportedPointError(
                    "gap calculus hypothesis violated: the upper endpoint of a "
                    "maximal gap is tied to the coordinate above it"
                )
            if i + 2 < x.size and x[i + 1] - x[i + 2] <= tol:
                raise UnsupportedPointError(
                    "gap calculus hypothesis violated: the lower endpoint of a "
                    "maximal gap is tied to the coordinate below it"
                )
        return idx

    @staticmethod
    def _vertex(i: int, n: int) -> np.ndarray:
        e = np.zeros(n)
        e[i] = 1.0
        e[i + 1] = -1.0
        return e

    def subgradients(self, x) -> SubgradientSet:
        x = _vec(x)
        idx = self._active(x)
        verts = np.stack([self._vertex(i, x.size) for i in idx])
        return SubgradientSet(kind="hull", vertices=verts)

    def subderivative(self, x, w) -> float:
        x, w = _vecs(x, w)
        idx = self._active(x)
        return float(np.max(w[idx] - w[idx + 1]))

    def gradient(self, x) -> np.ndarray:
        x = _vec(x)
        idx = self._active(x)
        if idx.size != 1:
            raise UnsupportedPointError(
                "gap penalty is not differentiable: several gaps are tied for largest"
            )
        return self._vertex(int(idx[0]), x.size)


@dataclass(frozen=True)
class McpSum(SymmetricFunction):
    """Coordinatewise minimax concave penalty, summed.

    Each coordinate contributes c|t| - t^2/(2a) while |t| <= a c and the
    constant a c^2 / 2 beyond.  Requires a > 1 and c > 0.  The penalty is
    differentiable except at 0; second-order objects additionally exclude
    the cap boundary |t| = a c, where the curvature jumps.
    """

    a: float
    c: float

    name = "mcp"

    def __post_init__(self):
        if not (self.a > 1.0):
            raise ValueError("mcp requires a > 1")
        if not (self.c > 0.0):
            raise ValueError("mcp requires c > 0")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "c", float(self.c))

    def phi(self, t):
        """Elementwise penalty value (vectorized over any array shape)."""
        t = np.asarray(t, dtype=float)
        inner = np.abs(t) <= self.a * self.c
        return np.where(
            inner,
            self.c * np.abs(t) - t * t / (2.0 * self.a),
            self.a * self.c * self.c / 2.0,
        )

    def phi_prime(self, t):
        """Elementwise derivative; the value at 0 is the midpoint 0 of the
        subdifferential interval, so only use this away from zeros."""
        t = np.asarray(t, dtype=float)
        inner = np.abs(t) <= self.a * self.c
        return np.where(inner, np.sign(t) * self.c - t / self.a, 0.0)

    def value(self, x):
        return _per_row(self.phi(_rows(x)).sum(axis=-1))

    def subgradients(self, x) -> SubgradientSet:
        x = _vec(x)
        zero = np.abs(x) <= _tie_tol(x)
        g = self.phi_prime(x)
        lower = np.where(zero, -self.c, g)
        upper = np.where(zero, self.c, g)
        return SubgradientSet(kind="box", lower=lower, upper=upper)

    def subderivative(self, x, w) -> float:
        x, w = _vecs(x, w)
        zero = np.abs(x) <= _tie_tol(x)
        g = self.phi_prime(x)
        return float(np.sum(np.where(zero, self.c * np.abs(w), g * w)))

    def second_subderivative(self, x, y, w) -> ExtReal:
        x, y, w = _vecs(x, y, w)
        self.check_subgradient(x, y)
        tol = _tie_tol(x)
        cap = self.a * self.c
        if np.any(np.abs(np.abs(x) - cap) <= tol):
            raise UnsupportedPointError(
                "mcp second-order hypothesis violated: a coordinate sits on the "
                "cap boundary |t| = a*c where the curvature jumps"
            )
        zero = np.abs(x) <= tol
        total = 0.0
        for j in range(x.size):
            if zero[j]:
                resid = self.c * abs(w[j]) - y[j] * w[j]
                if resid > CONE_RTOL * (1.0 + abs(w[j])):
                    return POS_INF
                total += -w[j] * w[j] / self.a
            elif abs(x[j]) < cap:
                total += -w[j] * w[j] / self.a
        return ExtReal(total)

    def gradient(self, x) -> np.ndarray:
        x = _vec(x)
        if np.any(np.abs(x) <= _tie_tol(x)):
            raise UnsupportedPointError(
                "mcp is not differentiable at zero coordinates"
            )
        return self.phi_prime(x)

    def hessian_diagonal(self, x) -> np.ndarray:
        x = _vec(x)
        tol = _tie_tol(x)
        cap = self.a * self.c
        if np.any(np.abs(x) <= tol):
            raise UnsupportedPointError(
                "mcp second derivative is undefined at zero coordinates"
            )
        if np.any(np.abs(np.abs(x) - cap) <= tol):
            raise UnsupportedPointError(
                "mcp second derivative is undefined on the cap boundary |t| = a*c"
            )
        return np.where(np.abs(x) < cap, -1.0 / self.a, 0.0)

    def prox(self, gamma: float, x) -> ProxResult:
        gamma = float(gamma)
        if not (0.0 < gamma < self.a):
            raise ValueError(
                f"mcp prox requires 0 < gamma < a (got gamma={gamma}, a={self.a})"
            )
        x = _vec(x)
        xa = np.abs(x)
        shrunk = np.sign(x) * (self.a / (self.a - gamma)) * (xa - gamma * self.c)
        out = np.where(
            xa <= gamma * self.c, 0.0, np.where(xa <= self.a * self.c, shrunk, x)
        )
        return ProxResult(point=out, closed_form=True)


@dataclass(frozen=True)
class SmoothSep(SymmetricFunction):
    """Uniform separable quadratic coeff/2 * ||x||^2.

    The coefficient is a single scalar: a non-uniform diagonal quadratic
    would not be permutation invariant and is rejected at construction by
    the JSON loader.
    """

    coeff: float = 1.0

    name = "smooth_sep"

    def __post_init__(self):
        if not np.isfinite(self.coeff):
            raise ValueError("coeff must be finite")
        object.__setattr__(self, "coeff", float(self.coeff))

    def value(self, x):
        # the stacked matmul gives ddot's bits, row by row and for a vector
        x = _rows(x)
        return _per_row(0.5 * self.coeff * (x[..., None, :] @ x[..., :, None])[..., 0, 0])

    def gradient(self, x) -> np.ndarray:
        return self.coeff * _vec(x)

    def hessian_diagonal(self, x) -> np.ndarray:
        return np.full(_vec(x).size, self.coeff)

    def subgradients(self, x) -> SubgradientSet:
        return SubgradientSet(kind="point", point=self.gradient(x))

    def subderivative(self, x, w) -> float:
        x, w = _vecs(x, w)
        return float(self.gradient(x) @ w)

    def second_subderivative(self, x, y, w) -> ExtReal:
        x, y, w = _vecs(x, y, w)
        self.check_subgradient(x, y)
        return ExtReal(self.coeff * float(w @ w))

    def prox(self, gamma: float, x) -> ProxResult:
        gamma = float(gamma)
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if 1.0 + gamma * self.coeff <= 0:
            raise ValueError("prox undefined: 1 + gamma * coeff must be positive")
        return ProxResult(point=_vec(x) / (1.0 + gamma * self.coeff), closed_form=True)


def spec_to_json(spec: SymmetricFunction) -> dict:
    """JSON-serializable description of a shipped penalty."""
    if isinstance(spec, OrderStat):
        return {"name": "order_stat", "i": spec.rank}
    if isinstance(spec, McpSum):
        return {"name": "mcp", "a": spec.a, "c": spec.c}
    if isinstance(spec, EigGapMax):
        return {"name": "eig_gap"}
    if isinstance(spec, SmoothSep):
        return {"name": "smooth_sep", "coeff": spec.coeff}
    raise TypeError(f"unknown penalty type: {type(spec).__name__}")


def json_int(value, what: str) -> int:
    """An integer field of parsed JSON; integral floats such as 2.0 pass,
    while 2.5, strings, booleans and non-finite numbers raise ValueError."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if not integral or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def spec_from_json(data) -> SymmetricFunction:
    """Inverse of spec_to_json; accepts a dict or a JSON string.  Missing
    or malformed fields raise ValueError."""
    if isinstance(data, (str, bytes)):
        import json

        data = json.loads(data)
    if not isinstance(data, dict) or "name" not in data:
        raise ValueError("penalty description must be an object with a 'name'")
    name = data["name"]
    try:
        if name == "order_stat":
            return OrderStat(rank=json_int(data["i"], "order_stat 'i'"))
        if name == "mcp":
            return McpSum(a=float(data["a"]), c=float(data["c"]))
        if name == "eig_gap":
            return EigGapMax()
        if name == "smooth_sep":
            if "coeff" in data:
                return SmoothSep(coeff=float(data["coeff"]))
            coeffs = np.asarray(data.get("coeffs", 1.0), dtype=float).ravel()
            if coeffs.size == 0 or np.max(coeffs) - np.min(coeffs) > 0:
                raise ValueError(
                    "smooth_sep coefficients must be a single value: a non-uniform "
                    "diagonal quadratic is not permutation invariant"
                )
            return SmoothSep(coeff=float(coeffs[0]))
    except KeyError as exc:
        raise ValueError(f"penalty {name!r} needs the field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"penalty {name!r} has a malformed field: {exc}") from None
    raise ValueError(f"unknown penalty name: {name!r}")
