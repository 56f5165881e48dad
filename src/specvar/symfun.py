"""Symmetric (permutation-invariant) penalties on R^n with their
first- and second-order variational calculus.

Four families are shipped:

* ``OrderStat(rank)`` -- the rank-th largest coordinate (rank 1 = max),
* ``McpSum(a, c)`` -- a coordinatewise minimax concave penalty,
* ``EigGapMax()`` -- the largest consecutive gap of the sorted coordinates,
* ``SmoothSep(coeff)`` -- a uniform separable quadratic, the smooth
  reference case.

A family states its value and its subdifferential: a point, an interval
box, or a hull stored as its active set.  The subderivative is then the
support function of the subdifferential (every shipped penalty is regular;
Rockafellar-Wets, Thm 8.30), and the second subderivative relative to y is
the family's ``_curvature`` (0 if polyhedral) on the critical cone
{w : dtheta(x)(w) = <y, w>} and +inf off it, judged by ``_in_cone`` alone.
Where the subdifferential is a single point (``SubgradientSet.singleton``)
theta is differentiable, that point is the gradient and every direction is
critical; no family states a gradient or a Hessian of its own.  Each family
also has a proximal mapping (closed form where available, brute-force
fallback otherwise: ``OrderStat`` at rank >= 2 and ``EigGapMax``) and, for
the polyhedral families, a certificate of whether the second subderivative
is a generalized quadratic on a subspace.

The two polyhedral subdifferentials are simplices with linearly
independent vertices, e_i for ``OrderStat`` and e_i - e_(i+1) for
``EigGapMax``, over the active indices i, so hull membership and the
relative-interior certificate have closed forms: the coefficients of y are
y_S or cumsum(y)_S.  No LP and no scipy call is involved.

Subgradient membership is tested to an absolute tolerance of 1e-9 in the
sup norm.  Active sets, kinks and ties are judged within a width: on a bare
vector x, ``eig``'s default clustering width ``tie_width(max |x|)``; from
the spectral layer, which calls the private ``_subgradients`` and
``_curvature`` at the cluster means, the width ``eig`` clustered with, so
ties are its clusters.  Vector arguments of unequal lengths raise
ValueError.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidSubgradientError, UnsupportedPointError
from .extreal import POS_INF, ExtReal
from .oracle import numeric_prox
from .record import Record, Value
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


def _gamma(gamma) -> float:
    """A prox parameter as a float, with ``numeric_prox``'s checks and messages."""
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma


def _tie_tol(x: np.ndarray) -> float:
    """Width within which the coordinates of a bare vector x count as tied:
    ``eig``'s default clustering width for a spectrum x (``symmat.tie_width``)."""
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return tie_width(scale)


# Nothing calls this; perfbench/spans.py looks the name up to count hull LPs.
def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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


class SubgradientSet(Record):
    """Generator description of a subdifferential.

    kind = "point": the singleton {point};
    kind = "box":   the interval product [lower, upper];
    kind = "hull":  conv{e_i : i in active} in R^n, or, with ``gaps``,
                    conv{e_i - e_(i+1) : i in active}; ``vertices`` lists
                    these rows.

    ``support(w)``, the largest <s, w> over the set, is the subderivative of
    a regular penalty with this subdifferential.
    """

    __slots__ = _fields = ("kind", "active", "gaps", "n", "lower", "upper", "point")

    def __init__(
        self,
        kind: str,
        active: np.ndarray | None = None,
        gaps: bool = False,
        n: int = 0,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        point: np.ndarray | None = None,
    ):
        self._init(kind, active, gaps, n, lower, upper, point)

    @property
    def vertices(self) -> np.ndarray:
        """The hull's vertices as rows, one per active index, in its order."""
        rows = np.arange(self.active.size)
        v = np.zeros((self.active.size, self.n))
        v[rows, self.active] = 1.0
        if self.gaps:
            v[rows, self.active + 1] = -1.0
        return v

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
        y = _vec(y)
        if y.size != self.n:
            raise ValueError(f"vectors of unequal lengths {[y.size, self.n]}")
        if self.active.size == 1:  # a single point
            return bool(np.max(np.abs(y - self.vertices[0])) <= tol)
        if self.gaps:
            return _gap_hull_meets(y, self.active, tol)
        # conv{e_i : i in S}: y is tol-close to 0 off S and to some
        # simplex point on S, i.e. the tol-box around y_S meets it
        on = np.zeros(self.n, dtype=bool)
        on[self.active] = True
        lo, hi = np.maximum(y[on] - tol, 0.0), y[on] + tol
        off = np.max(np.abs(y[~on]), initial=0.0)
        return bool(off <= tol and hi.min() >= 0.0 and lo.sum() <= 1.0 <= hi.sum())

    def support(self, w) -> float:
        """max <s, w> over the set, for w of the set's length."""
        w = _vec(w)
        if self.kind == "point":
            with np.errstate(over="ignore", invalid="ignore"):
                dot = float(self.point @ w)
                if not math.isfinite(dot):
                    # partial sums past the float maximum: summed again with
                    # the point scaled by a power of two below 1 / its length
                    s = 0.5 ** w.size.bit_length()
                    dot = float((self.point * s) @ w) / s
            return dot
        if self.kind == "box":
            # the upper end where w is +0 or above, the lower end where it
            # is -0 or below: on [-c, c] the term is c|w| to the bit
            return float(np.sum(np.where(np.signbit(w), self.lower, self.upper) * w))
        s = self.active
        return float(np.max(w[s] - w[s + 1] if self.gaps else w[s]))

    @property
    def singleton(self) -> bool:
        """Whether the set is one point: the penalty is differentiable here."""
        if self.kind == "point":
            return True
        if self.kind == "box":
            return bool(np.array_equal(self.lower, self.upper))
        return self.active.size == 1

    def canonical_vertex(self) -> np.ndarray:
        """Deterministic representative: the lexicographically smallest
        vertex, which for a hull is the one at the largest active index
        (box: lower corner; point: the point)."""
        if self.kind == "point":
            return np.array(self.point)
        if self.kind == "box":
            return np.array(self.lower)
        return self.vertices[np.argmax(self.active)]


def _in_cone(s: SubgradientSet, y: np.ndarray, w: np.ndarray) -> tuple[float, bool]:
    """The one penalty cone test, for a y checked against the subdifferential
    s: dtheta(x)(w), the support of s at w, and whether w is critical.  A
    singleton s makes every direction critical.  Otherwise dg must equal
    <y, w> to within CONE_RTOL ||w||_2 + SUBGRADIENT_TOL ||w||_1: no
    absolute floor, and the second term is what the membership slack of y
    alone moves <y, w> by, so the two tolerances nest."""
    dg = s.support(w)
    if s.singleton:
        return dg, True
    bound = CONE_RTOL * math.sqrt(w.dot(w)) + SUBGRADIENT_TOL * float(np.abs(w).sum())
    return dg, bool(abs(dg - float(y @ w)) <= bound)


class GqfCertificate(Record):
    """Whether a polyhedral second subderivative is a generalized quadratic
    (zero on a subspace, +inf off it); carries an orthonormal basis of the
    subspace when it is."""

    __slots__ = _fields = ("is_gqf", "subspace_basis")

    def __init__(self, is_gqf: bool, subspace_basis: np.ndarray | None):
        self._init(is_gqf, subspace_basis)


class ProxResult(Record):
    __slots__ = _fields = ("point", "closed_form")

    def __init__(self, point: np.ndarray, closed_form: bool):
        self._init(point, closed_form)


class SymmetricFunction:
    """Interface shared by the shipped symmetric penalties: a subclass
    states ``value``, ``_subgradients`` (at a vector and a tie width)
    and, unless it is polyhedral, ``_curvature`` (at a vector, a direction
    and a tie width) and ``prox``.  The calculus follows here (see the
    module docstring), the gradient included: the subdifferential where it
    is a single point.  A subclass with ``polyhedral = True`` (a hull
    subdifferential) has zero curvature and, unless it states its own, the
    brute-force prox."""

    __slots__ = ()
    polyhedral: bool = False
    name: str = ""

    def value(self, x):
        """theta at a vector x of shape (n,), as a float, or at each row of
        an (S, n) stack, as an (S,) array: one formula reduces over the last
        axis, so row s of a stack gets exactly the float of value(x[s]).
        Any other shape raises ValueError."""
        raise NotImplementedError

    def subgradients(self, x) -> SubgradientSet:
        """The subdifferential at x, coordinates within ``tie_width(max |x|)``
        of each other counting as tied."""
        x = _vec(x)
        return self._subgradients(x, _tie_tol(x))

    def _subgradients(self, x: np.ndarray, tol: float) -> SubgradientSet:
        """The subdifferential at a vector x, coordinates within tol tied."""
        raise NotImplementedError

    def subderivative(self, x, w) -> float:
        """dtheta(x)(w): the support function of the subdifferential at x,
        evaluated at w (Rockafellar-Wets, Thm 8.30, for a regular theta)."""
        x, w = _vecs(x, w)
        return self.subgradients(x).support(w)

    def _curvature(self, x, w, tol: float) -> float:
        """The second subderivative in a critical direction w, which for the
        shipped penalties does not depend on y: 0 if polyhedral.  Kinks
        within tol of x raise UnsupportedPointError."""
        if not self.polyhedral:
            raise NotImplementedError
        return 0.0

    def second_subderivative(self, x, y, w) -> ExtReal:
        """d2theta(x|y)(w): ``_curvature`` on the critical cone, +inf off it.
        y must be a subgradient at x (InvalidSubgradientError otherwise)."""
        x, y, w = _vecs(x, y, w)
        s = self.check_subgradient(x, y)
        curv = self._curvature(x, w, _tie_tol(x))
        return ExtReal(curv) if _in_cone(s, y, w)[1] else POS_INF

    def prox(self, gamma: float, x) -> ProxResult:
        """For polyhedral penalties: the brute-force ``numeric_prox``."""
        if not self.polyhedral:
            raise NotImplementedError
        res = numeric_prox(self.value, gamma, _vec(x))
        return ProxResult(point=res.point, closed_form=False)

    def gradient(self, x) -> np.ndarray:
        """The subdifferential's one point; UnsupportedPointError where it
        has more than one."""
        s = self.subgradients(x)
        if not s.singleton:
            raise UnsupportedPointError(f"{self.name} is not differentiable here")
        return s.canonical_vertex()

    def check_subgradient(self, x, y) -> SubgradientSet:
        """The subdifferential at x, once y is checked to lie in it."""
        return self._checked(self.subgradients(x), y)

    def _checked(self, s: SubgradientSet, y) -> SubgradientSet:
        """s, once y is checked to lie in it (InvalidSubgradientError otherwise)."""
        if not s.contains(y):
            raise InvalidSubgradientError(
                f"{self.name}: vector is not a subgradient at the given point"
            )
        return s

    def critical_cone_member(self, x, y, w) -> bool:
        """True when the subderivative at w matches <y, w> to within
        ``_in_cone``'s bound: the two characterizations of the critical cone
        coincide for these penalties."""
        x, y, w = _vecs(x, y, w)
        return _in_cone(self.check_subgradient(x, y), y, w)[1]

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
        s = self.check_subgradient(x, y)
        if s.active.size == 1:
            return GqfCertificate(True, np.eye(x.size))
        coeffs = (np.cumsum(y) if s.gaps else y)[s.active]
        if coeffs.min() < RI_SLACK + SUBGRADIENT_TOL:
            return GqfCertificate(False, None)
        verts = s.vertices
        return GqfCertificate(True, _null_space(verts[1:] - verts[0]))


class OrderStat(SymmetricFunction, Value):
    """The rank-th largest coordinate (rank is 1-based; rank 1 is the max).

    First- and second-order objects require the leading-rank hypothesis:
    rank 1, or a strict gap between the (rank-1)-th and rank-th largest
    values.  Violations raise UnsupportedPointError.
    """

    __slots__ = _fields = ("rank",)
    polyhedral = True
    name = "order_stat"

    def __init__(self, rank: int):
        if int(rank) != rank or rank < 1:
            raise ValueError("rank must be a positive integer")
        self._init(int(rank))

    def value(self, x):
        x = _rows(x)
        n = x.shape[-1]
        if self.rank > n:
            raise ValueError(f"rank {self.rank} exceeds dimension {n}")
        return _per_row(np.sort(x)[..., n - self.rank])

    def _active(self, x: np.ndarray, tol: float) -> np.ndarray:
        if self.rank > x.size:
            raise ValueError(f"rank {self.rank} exceeds dimension {x.size}")
        xs = np.sort(x)[::-1]
        phi = xs[self.rank - 1]
        if self.rank > 1 and xs[self.rank - 2] <= phi + tol:
            raise UnsupportedPointError(
                f"order statistic rank {self.rank} is not leading here: it ties "
                f"the next larger value within {tol:.2e}"
            )
        with np.errstate(over="ignore"):  # an infinite distance is no tie
            return np.flatnonzero(np.abs(x - phi) <= tol)

    def _subgradients(self, x: np.ndarray, tol: float) -> SubgradientSet:
        return SubgradientSet(kind="hull", active=self._active(x, tol), n=x.size)

    def prox(self, gamma: float, x) -> ProxResult:
        """At rank 1 the exact point min(x, c), whose level c solves
        sum_i (x_i - c)_+ = gamma: the Moreau form x - gamma P(x / gamma) of
        the sort-based projection P onto the unit simplex (Duchi et al.,
        ICML 2008).  With k coordinates above it, c = (S_k - gamma) / k for
        the sum S_k of the k largest, and k is the last count whose k-th
        largest coordinate still exceeds its c.  At rank >= 2 the
        brute-force ``numeric_prox``."""
        x = _vec(x)
        if self.rank > 1:
            return ProxResult(point=numeric_prox(self.value, gamma, x).point, closed_form=False)
        gamma = _gamma(gamma)
        if x.size == 0:
            raise ValueError("rank 1 exceeds dimension 0")
        xs = np.sort(x)[::-1]
        top = float(xs[0])
        # Only coordinates above top - gamma can move (c >= top - gamma), and
        # their offsets from top lie in (-gamma, 0], so sums of offsets stay
        # finite at any scale of x.  They stay above -(n + 1) gamma; where
        # that passes the float maximum they run at a power-of-two scale s.
        # (top - gamma is a Python float: an overflow gives -inf, no warning.)
        s = 1.0 if gamma * (x.size + 1) < sys.float_info.max else 0.5**x.size.bit_length()
        head = (xs[: max(1, int(np.count_nonzero(xs > top - gamma)))] - top) * s
        level = (np.cumsum(head) - gamma * s) / np.arange(1, head.size + 1)
        # head[0] = 0 > -gamma s = level[0]: index 0 always qualifies, even
        # when gamma is below the float spacing of x
        k = np.flatnonzero(head > level)[-1]
        return ProxResult(point=np.minimum(x, (top * s + float(level[k])) / s), closed_form=True)


class EigGapMax(SymmetricFunction, Value):
    """Largest consecutive gap of the coordinates sorted nonincreasingly.

    The value is symmetric by construction (the input is sorted before the
    gaps are read off).  First- and second-order objects are defined at
    nonincreasingly sorted points, which is how the spectral layer always
    calls them; unsorted input raises UnsupportedPointError.
    """

    __slots__ = ()
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

    def _require_sorted(self, x: np.ndarray, tol: float) -> None:
        if x.size < 2:
            raise ValueError("gap penalty needs at least two coordinates")
        if np.any(x[:-1] < x[1:] - tol):
            raise UnsupportedPointError(
                "gap calculus hypothesis violated: the base point must be sorted "
                "nonincreasingly (spectral callers always pass ordered eigenvalues)"
            )

    def _active(self, x: np.ndarray, tol: float) -> np.ndarray:
        """Indices of the maximal gaps, under the hypotheses that make the
        penalty locally a max of linear functions: the largest gap is
        nonzero, and both endpoints of every maximal gap are untied.  A tied
        endpoint makes the penalty locally concave-kinked with an empty
        regular subdifferential, so those points are rejected."""
        self._require_sorted(x, tol)
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

    def _subgradients(self, x: np.ndarray, tol: float) -> SubgradientSet:
        return SubgradientSet(kind="hull", active=self._active(x, tol), gaps=True, n=x.size)


class McpSum(SymmetricFunction, Value):
    """Coordinatewise minimax concave penalty, summed.

    Each coordinate contributes c|t| - t^2/(2a) while |t| <= a c and the
    constant a c^2 / 2 beyond.  Requires finite a > 1 and c > 0.  The
    penalty is differentiable except at 0; second-order objects additionally
    exclude the cap boundary |t| = a c, where the curvature jumps.
    """

    __slots__ = _fields = ("a", "c")
    name = "mcp"

    def __init__(self, a: float, c: float):
        if not (a > 1.0):
            raise ValueError("mcp requires a > 1")
        if not (c > 0.0):
            raise ValueError("mcp requires c > 0")
        if not (np.isfinite(a) and np.isfinite(c)):
            raise ValueError("mcp requires finite a and c")
        self._init(float(a), float(c))

    def phi(self, t):
        """Elementwise penalty value (vectorized over any array shape).  The
        quadratic is evaluated at min(|t|, a c), which is |t| on the inner
        branch, so the discarded branch cannot overflow."""
        ta = np.abs(np.asarray(t, dtype=float))
        cap = self.a * self.c
        tc = np.minimum(ta, cap)
        return np.where(ta <= cap, self.c * tc - tc * tc / (2.0 * self.a), cap * self.c / 2.0)

    def phi_prime(self, t):
        """Elementwise derivative; the value at 0 is the midpoint 0 of the
        subdifferential interval, so only use this away from zeros."""
        t = np.asarray(t, dtype=float)
        inner = np.abs(t) <= self.a * self.c
        return np.where(inner, np.sign(t) * self.c - t / self.a, 0.0)

    def value(self, x):
        return _per_row(self.phi(_rows(x)).sum(axis=-1))

    def _subgradients(self, x: np.ndarray, tol: float) -> SubgradientSet:
        zero = np.abs(x) <= tol
        g = self.phi_prime(x)
        lower = np.where(zero, -self.c, g)
        upper = np.where(zero, self.c, g)
        return SubgradientSet(kind="box", lower=lower, upper=upper)

    def _curvature(self, x, w, tol: float) -> float:
        """-||w_i||^2 / a over the inner coordinates |x_i| < a c; a
        coordinate within tol of the cap boundary |x_i| = a c, where the
        curvature jumps, raises UnsupportedPointError."""
        cap = self.a * self.c
        if np.any(np.abs(np.abs(x) - cap) <= tol):
            raise UnsupportedPointError(
                "mcp second-order hypothesis violated: a coordinate sits on the "
                "cap boundary |t| = a*c where the curvature jumps"
            )
        inner = w[np.abs(x) < cap]
        return 0.0 - float(inner @ inner) / self.a  # 0.0 - keeps an empty sum at +0.0

    def prox(self, gamma: float, x) -> ProxResult:
        gamma = float(gamma)
        if not (0.0 < gamma < self.a):
            raise ValueError(
                f"mcp prox requires 0 < gamma < a (got gamma={gamma}, a={self.a})"
            )
        x = _vec(x)
        xa = np.abs(x)
        cap = self.a * self.c
        # min(|x|, a c) is |x| where the shrunk branch is taken, and cannot overflow
        shrunk = np.sign(x) * (self.a / (self.a - gamma)) * (np.minimum(xa, cap) - gamma * self.c)
        out = np.where(xa <= gamma * self.c, 0.0, np.where(xa <= cap, shrunk, x))
        return ProxResult(point=out, closed_form=True)


class SmoothSep(SymmetricFunction, Value):
    """Uniform separable quadratic coeff/2 * ||x||^2.

    The coefficient is a single scalar: a non-uniform diagonal quadratic
    would not be permutation invariant and is rejected at construction by
    the JSON loader.
    """

    __slots__ = _fields = ("coeff",)
    name = "smooth_sep"

    def __init__(self, coeff: float = 1.0):
        if not np.isfinite(coeff):
            raise ValueError("coeff must be finite")
        self._init(float(coeff))

    def value(self, x):
        # the stacked matmul gives ddot's bits, row by row and for a vector
        x = _rows(x)
        return _per_row(0.5 * self.coeff * (x[..., None, :] @ x[..., :, None])[..., 0, 0])

    def _subgradients(self, x: np.ndarray, tol: float) -> SubgradientSet:
        return SubgradientSet(kind="point", point=self.coeff * x)

    def _curvature(self, x, w, tol: float) -> float:
        return self.coeff * float(w @ w)

    def prox(self, gamma: float, x) -> ProxResult:
        gamma = _gamma(gamma)
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


def json_float(value, what: str) -> float:
    """A real field of parsed JSON, which holds numbers as exactly int or
    float; strings, booleans (a subclass of int), non-finite numbers and
    integers beyond the float range raise ValueError."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


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
            return McpSum(a=json_float(data["a"], "mcp 'a'"), c=json_float(data["c"], "mcp 'c'"))
        if name == "eig_gap":
            return EigGapMax()
        if name == "smooth_sep":
            return SmoothSep(coeff=json_float(data["coeff"], "smooth_sep 'coeff'"))
    except KeyError as exc:
        raise ValueError(f"penalty {name!r} needs the field {exc.args[0]!r}") from None
    raise ValueError(f"unknown penalty name: {name!r}")
