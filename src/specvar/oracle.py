"""Brute-force difference-quotient oracles.

Everything here works on plain callables and makes no use of the
closed-form calculus in the rest of the package, so the two sides can be
played against each other in tests.

Second-order difference quotients use the parabolic normalization

    Q_t(w') = [f(x + t w') - f(x) - t <v, w'>] / (t^2 / 2),

whose lower limit as t -> 0 and w' -> w is the second-order epi-derivative
style object the formulas compute.  The estimators below approximate that
lower limit by sampling w' in balls around w that shrink with t, always
including w itself, and taking minima over the smallest grid levels.
``numeric_second_subderivative`` evaluates the two smallest levels, which
its estimate reads, when called, and the leading ones, which only trace
export and determinism checks read, on the first read of
``ProbeResult.levels``; until then the result holds f, x, v and w.

Sampling radii shrink strictly faster than t^(1/2): on curved instances a
radius ~ t^(1/2) injects a downward bias of order t^(1/2), which would
drown the tolerances the estimators are held to.  The second-order sampler
uses radius * t^(3/2), the first-order one radius * t^2; both keep the
sampling bias far below the quotient truncation error while still probing
nearby directions.

Determinism: every estimator is a pure function of its inputs and seed.
Grid level k draws from two generator streams of its own,
default_rng([seed, k, 0]) for the normals and default_rng([seed, k, 1])
for the radii, consumed in sample order.  The draws therefore do not depend
on how a level is chunked, and the first S draws of a level are the same
for any ``samples >= S``.

Stacked evaluation: the quotient estimators build each grid level's
candidates (w first, then the ball draws) as one (S, ...) stack and form
the points, norms, inner products, quotients and +inf masks on arrays;
ExtReal wraps only each level's at-w value and minimum.  A callable whose
``accepts_stack`` attribute is true (``spectral.lifted`` sets it) takes the
whole stack in one call and returns one value per row; it must return
exactly what separate calls would.  Any other callable is evaluated point
by point.  Stacks hold at most STACK_FLOATS floats, so a large ``samples``,
like the 2 dim neighbours that ``epi_attainment_search`` compares at a
large n, is processed in chunks built one at a time.  argmin keeps the
first of equal minima.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import OracleError
from .extreal import POS_INF, ExtReal
from .record import Record, Value

ATTAINMENT_TOL = 1e-2
STACK_FLOATS = 1 << 18  # candidate points evaluated per chunk, in floats


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: most calls never need
    it.  Without scipy it raises OracleError, a ValueError."""
    try:
        from scipy.optimize import minimize as scipy_minimize
    except ImportError as exc:
        raise OracleError("numeric_prox needs scipy, which is not installed") from exc
    return scipy_minimize(*args, **kwargs)


def _as_point(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError("points must be vectors or square matrices")
    if a.ndim == 2 and a.shape[0] != a.shape[1]:
        raise ValueError("matrix points must be square")
    return a


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b))


def _free_dim(shape) -> int:
    if len(shape) == 1:
        return int(shape[0])
    n = shape[0]
    return n * (n + 1) // 2


def _ball_draws(w: np.ndarray, radius: float, normals, radii, count: int) -> np.ndarray:
    """The next ``count`` draws of a level, stacked along axis 0: each
    roughly uniform in the ball of the given radius around w (symmetrized
    when w is a matrix).  Directions come from the level's ``normals``
    generator and radii from its ``radii`` generator."""
    u = normals.standard_normal((count,) + w.shape)
    r = radius * radii.random(count) ** (1.0 / _free_dim(w.shape))
    if w.ndim == 2:
        u = (u + u.transpose(0, 2, 1)) / 2.0
    flat = u.reshape(count, 1, w.size)
    nrm = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
    coef = np.divide(r, nrm, out=np.zeros_like(r), where=nrm > 0.0)  # u = 0 gives w
    return w + coef.reshape((-1,) + (1,) * w.ndim) * u.reshape((-1,) + w.shape)


def _evaluate(f, pts: np.ndarray) -> np.ndarray:
    """f at every point of the stack: one call when f declares
    ``accepts_stack`` (as ``spectral.lifted`` does), else one per point."""
    if getattr(f, "accepts_stack", False):
        return np.asarray(f(pts), dtype=float)
    return np.array([float(f(p)) for p in pts])


def _stacked(f, x, t: float, v, count: int, make):
    """f(x + t c) over the ``count`` candidates c that ``make(start, stop)``
    builds (rows start..stop-1), STACK_FLOATS floats at a time, so no
    larger stack is ever held.  Also returns <v, c> when v is given."""
    rows = max(1, STACK_FLOATS // max(1, x.size))
    fv = np.empty(count)
    inner = np.empty(count) if v is not None else None
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        cands = make(start, stop)
        fv[start:stop] = _evaluate(f, x + t * cands)
        if v is not None:
            flat = cands.reshape(stop - start, 1, -1)
            inner[start:stop] = (flat @ v.reshape(-1, 1)).reshape(-1)
    return fv, inner


def _level(f, x, w, t: float, radius: float, samples: int, seed: int, k: int, v=None):
    """f(x + t w') over the level's candidates w': w itself first, then
    ``samples`` ball draws (none when radius is not positive).  Also
    returns <v, w'> when v is given."""
    count = 1 + (max(samples, 0) if radius > 0 else 0)
    normals = np.random.default_rng([seed, k, 0])
    radii = np.random.default_rng([seed, k, 1])

    def make(start: int, stop: int) -> np.ndarray:
        cands = _ball_draws(w, radius, normals, radii, stop - max(start, 1))
        return np.concatenate([w[None], cands]) if start == 0 else cands

    return _stacked(f, x, t, v, count, make)


def _masked(q: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """Quotients with +inf wherever f left its domain (returned +-inf)."""
    q = np.where(np.isinf(fv), np.inf, q)
    if np.any(np.isnan(q) | (q == -np.inf)):
        raise ValueError("difference quotients must not be NaN or -infinity")
    return q


class QuotientProbe(Value):
    """Configuration of the second-order quotient estimator."""

    __slots__ = _fields = ("t_grid", "radius", "samples", "seed")

    def __init__(
        self,
        t_grid: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
        radius: float = 0.5,
        samples: int = 256,
        seed: int = 0,
    ):
        grid = tuple(float(t) for t in t_grid)
        if len(grid) < 2:
            raise ValueError("t_grid needs at least two levels")
        if not all(math.isfinite(t) for t in grid):
            raise ValueError("t_grid entries must be finite")
        if any(t <= 0 for t in grid) or any(
            grid[i] <= grid[i + 1] for i in range(len(grid) - 1)
        ):
            raise ValueError("t_grid must be strictly decreasing and positive")
        if samples < 1:
            raise ValueError("samples must be at least 1")
        if not (math.isfinite(radius) and radius >= 0):
            raise ValueError("radius must be finite and nonnegative")
        self._init(grid, radius, samples, seed)


class ProbeLevel(Value):
    __slots__ = _fields = ("t", "at_w", "minimum")

    def __init__(self, t: float, at_w: ExtReal, minimum: ExtReal):
        self._init(t, at_w, minimum)


class ProbeResult(Record):
    """The estimate, and one ProbeLevel per grid level in grid order.

    The estimate's two levels come evaluated.  The leading ones are
    evaluated on the first read of ``levels``, so until then the result
    holds f, x, v and w, and a NaN or -infinity quotient there raises
    ValueError on that read, not in ``numeric_second_subderivative``."""

    _fields = ("estimate",)

    def __init__(self, estimate: ExtReal, tail: tuple[ProbeLevel, ...], leading):
        self._init(estimate)
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_leading", leading)

    @cached_property
    def levels(self) -> tuple[ProbeLevel, ...]:
        levels = self._leading() + self._tail
        del self.__dict__["_leading"], self.__dict__["_tail"]  # frees f, x, v and w
        return levels


def diff_quotient2(f, x, v, w, t: float) -> ExtReal:
    """Single second-order difference quotient; +inf when x + t w leaves
    the domain of f (signalled by f returning +inf)."""
    x = _as_point(x)
    w = _as_point(w)
    v = _as_point(v)
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    f0 = float(f(x))
    if math.isinf(f0):
        raise ValueError("base point must lie in the domain of f")
    fv = float(f(x + t * w))
    if math.isinf(fv):
        return POS_INF
    return ExtReal((fv - f0 - t * _inner(v, w)) / (t * t / 2.0))


def numeric_second_subderivative(
    f, x, v, w, probe: QuotientProbe = QuotientProbe()
) -> ProbeResult:
    """Sampled lower envelope of second-order quotients.

    Per grid level t the candidate set is w itself plus ``probe.samples``
    draws in the ball of radius ``probe.radius * t^(3/2)`` around w; the
    estimate is the minimum over the two smallest levels of the per-level
    minima.  Only those two levels are evaluated here; the leading ones
    are evaluated on the first read of ``levels`` (see ProbeResult).
    """
    x = _as_point(x)
    w = _as_point(w)
    v = _as_point(v)
    f0 = float(f(x))
    if math.isinf(f0):
        raise ValueError("base point must lie in the domain of f")

    def level(k: int) -> ProbeLevel:
        t = probe.t_grid[k]
        rad = probe.radius * t ** 1.5
        fv, inner = _level(f, x, w, t, rad, probe.samples, probe.seed, k, v)
        if np.all(fv == f0) and np.any(inner != 0.0):
            raise OracleError(
                f"quotient oracle cannot resolve the step t={t:g} at f(x)={f0:g}: every "
                "f(x + t w') equals f(x) while some <v, w'> is not 0"
            )
        q = _masked((fv - f0 - t * inner) / (t * t / 2.0), fv)
        # argmin keeps the first of equal minima, as a strict < scan does
        return ProbeLevel(t=t, at_w=ExtReal(q[0]), minimum=ExtReal(q[np.argmin(q)]))

    split = len(probe.t_grid) - 2
    tail = (level(split), level(split + 1))
    estimate = min(lv.minimum for lv in tail)
    return ProbeResult(estimate, tail, lambda: tuple(map(level, range(split))))


def numeric_subderivative(
    f,
    x,
    w,
    t_grid: tuple[float, ...] = (1e-4, 1e-5, 1e-6),
    radius: float = 0.5,
    samples: int = 64,
    seed: int = 0,
) -> ExtReal:
    """Sampled lower envelope of first-order quotients
    [f(x + t w') - f(x)] / t over the grid levels and over w' near w
    (ball radius ``radius * t^2``)."""
    x = _as_point(x)
    w = _as_point(w)
    f0 = float(f(x))
    if math.isinf(f0):
        raise ValueError("base point must lie in the domain of f")
    best = None
    for k, t in enumerate(t_grid):
        t = float(t)
        fv, _ = _level(f, x, w, t, radius * t * t, samples, seed, k)
        q = _masked((fv - f0) / t, fv)
        q_min = q[np.argmin(q)]
        if best is None or q_min < best:
            best = q_min
    if best is None:
        raise OracleError("numeric_subderivative needs at least one grid level")
    return ExtReal(best)


def _search_moves(shape):
    """The unit coordinate moves +e_0, -e_0, +e_1, -e_1, ... (2 dim of
    them) as a function ``moves(start, stop)`` that stacks moves
    start..stop-1 along axis 0.  For matrices the coordinates are the
    diagonal entries, then the off-diagonal pairs (i < j, scaled to unit
    Frobenius norm).  Only the O(dim) index tables are kept."""
    dim = _free_dim(shape)
    if len(shape) == 1:
        upper = lower = np.arange(dim)
        val = np.ones(dim)
    else:
        n = shape[0]
        iu, ju = np.triu_indices(n, 1)
        i = np.concatenate([np.arange(n), iu])
        j = np.concatenate([np.arange(n), ju])
        upper, lower = i * n + j, j * n + i
        val = np.where(i == j, 1.0, 1.0 / math.sqrt(2.0))
    upper, lower = np.repeat(upper, 2), np.repeat(lower, 2)
    val = np.repeat(val, 2) * np.tile([1.0, -1.0], dim)
    size = math.prod(shape)

    def moves(start: int, stop: int) -> np.ndarray:
        out = np.zeros((stop - start, size))
        rows = np.arange(stop - start)
        out[rows, upper[start:stop]] = val[start:stop]
        out[rows, lower[start:stop]] = val[start:stop]
        return out.reshape((-1,) + tuple(shape))

    return moves


class AttainmentLevel(Record):
    __slots__ = _fields = ("t", "point", "quotient", "distance")

    def __init__(self, t: float, point: np.ndarray, quotient: float, distance: float):
        self._init(t, point, quotient, distance)


class AttainmentResult(Record):
    __slots__ = _fields = ("target", "levels", "success")

    def __init__(self, target: float, levels: tuple[AttainmentLevel, ...], success: bool):
        self._init(target, levels, success)


def epi_attainment_search(
    f,
    x,
    v,
    w,
    target: float,
    t_seq: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5),
    sweeps: int = 6,
) -> AttainmentResult:
    """Search for directions w_k -> w whose second-order quotients attain
    ``target``.

    For each level t_k a derivative-free best-improvement descent minimizes
    |Q_{t_k}(w') - target| starting at w: all 2 dim coordinate neighbours
    w' +- step e_i are evaluated as stacks, and the search moves to the
    one with the smallest mismatch (the first of equal minima) when it
    improves by more than 1e-15, at most ``sweeps`` times per step size.
    Step sizes shrink from 0.5 * t_k^(1/2) downwards, so accepted points
    stay in a vanishing neighborhood of w.  Success requires the final
    mismatch to be at most ATTAINMENT_TOL and the distances ||w_k - w|| to
    be nonincreasing over the last three levels.
    """
    x = _as_point(x)
    w = _as_point(w)
    v = _as_point(v)
    target = float(target)
    if not math.isfinite(target):
        raise ValueError("attainment target must be finite")
    if len(t_seq) < 3:
        raise ValueError("need at least three levels to judge attainment")
    f0 = float(f(x))
    if math.isinf(f0):
        raise ValueError("base point must lie in the domain of f")
    n_moves = 2 * _free_dim(w.shape)
    moves = _search_moves(w.shape)

    def mismatches(t: float, count: int, make) -> tuple[np.ndarray, np.ndarray]:
        fv, inner = _stacked(f, x, t, v, count, make)
        q = np.where(np.isinf(fv), np.inf, (fv - f0 - t * inner) / (t * t / 2.0))
        return q, np.where(np.isfinite(q), np.abs(q - target), np.inf)

    levels: list[AttainmentLevel] = []
    mismatch = math.inf
    for t in t_seq:
        t = float(t)
        best = w.copy()
        q, m = mismatches(t, 1, lambda start, stop: best[None])
        q_best, mismatch = float(q[0]), float(m[0])
        step = 0.5 * math.sqrt(t)
        floor = 1e-3 * t
        while step > floor:
            for _ in range(sweeps):
                q, m = mismatches(t, n_moves, lambda start, stop: best + step * moves(start, stop))
                i = int(np.argmin(m))
                if not m[i] < mismatch - 1e-15:
                    break
                best = best + step * moves(i, i + 1)[0]
                q_best, mismatch = float(q[i]), float(m[i])
            step /= 2.0
        levels.append(
            AttainmentLevel(
                t=t,
                point=best,
                quotient=q_best,
                distance=float(np.linalg.norm(best - w)),
            )
        )
    dists = [lv.distance for lv in levels[-3:]]
    monotone = all(dists[i] >= dists[i + 1] - 1e-12 for i in range(len(dists) - 1))
    success = bool(mismatch <= ATTAINMENT_TOL and monotone)
    return AttainmentResult(target=target, levels=tuple(levels), success=success)


class NumericProxResult(Record):
    __slots__ = _fields = ("point", "objective")

    def __init__(self, point: np.ndarray, objective: float):
        self._init(point, objective)


def numeric_prox(
    f,
    gamma: float,
    x,
    restarts: int = 10,
    seed: int = 0,
) -> NumericProxResult:
    """Brute-force proximal point of f at a vector x with parameter gamma.

    Minimizes f(w) + ||w - x||^2 / (2 gamma) by derivative-free Powell
    searches from x and from ``restarts`` random starts
    x + (gamma / 2) z, z drawn in turn from
    default_rng(seed).standard_normal, and keeps the best.  Inputs that are
    not 1-D raise ValueError; a matrix prox is the vector prox of its
    spectrum (``spectral.spectral_prox``).
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1:
        raise ValueError(f"numeric_prox searches vectors only, got shape {xa.shape}")

    def obj(wpt: np.ndarray) -> float:
        return float(f(wpt)) + float(np.vdot(wpt - xa, wpt - xa)) / (2.0 * gamma)

    rng = np.random.default_rng(seed)
    starts = [xa]
    for _ in range(restarts):
        starts.append(xa + 0.5 * gamma * rng.standard_normal(xa.shape))
    best_z = None
    best_v = math.inf
    for z0 in starts:
        # near the float maximum Powell's line search overflows; such a
        # search ends at a non-finite objective, which is never kept
        with np.errstate(over="ignore", invalid="ignore"):
            res = minimize(
                obj,
                z0,
                method="Powell",
                options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 2000},
            )
        if float(res.fun) < best_v:
            best_v = float(res.fun)
            best_z = np.asarray(res.x)
    if best_z is None:
        raise OracleError("numeric_prox: every search ended at a non-finite objective")
    return NumericProxResult(best_z, best_v)
