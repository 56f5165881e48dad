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

Inputs: every oracle checks its points with ``_points`` (vectors or
square matrices, all of one shape) and its steps with ``_grid`` (finite,
positive, strictly decreasing) before it evaluates f.

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
``accepts_stack`` attribute is true (``spectral.lifted`` and the penalties'
``value`` set it) takes the whole stack in one call and returns one value
per row; it must return exactly what separate calls would.  Any other
callable is evaluated point by point.  Stacks hold at most STACK_FLOATS floats, so a large ``samples``,
like the 2 dim neighbours that ``epi_attainment_search`` compares at a
large n, is processed in chunks built one at a time.  argmin keeps the
first of equal minima.  ``numeric_prox`` runs its Powell searches in
lockstep, with one such call per round for the next points of them all.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import OracleError
from .extreal import ExtReal
from .record import Record, Value

ATTAINMENT_TOL = 1e-2
STACK_FLOATS = 1 << 18  # candidate points evaluated per chunk, in floats
_XTOL = 1e-10  # line searches run Brent at tolerance 100 * _XTOL
_FTOL = 1e-12
_MAXITER = 2000
_GOLD = 1.618034  # bracket's golden ratio, rounded as scipy rounds it
_CG = 0.3819660  # Brent's golden-section fraction, rounded as scipy rounds it
_VERYSMALL = 1e-21
_MINTOL = 1e-11


def minimize(fun, x0) -> tuple[np.ndarray, float]:
    """Powell's conjugate-direction search (Powell, Comput. J. 1964) for a
    minimum of ``fun`` from the vector ``x0``: the point and its value.

    A port of scipy 1.17.1's unbounded ``_minimize_powell``, with its
    ``_linesearch_powell``, ``Brent`` (Brent, Algorithms for Minimization
    without Derivatives, 1973) and ``bracket``, from
    scipy/optimize/_optimize.py (module by Travis E. Oliphant; Copyright
    (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause,
    see LICENSE-scipy.txt at the root of the repository).  It runs at
    scipy's ``direc = I``, ``xtol = 1e-10``, ``ftol = 1e-12``,
    ``maxiter = 2000`` and no ``maxfev``, on Python floats in scipy's order
    of operations, so every point it evaluates and returns is bit-identical
    to ``scipy.optimize.minimize(fun, x0, method="Powell", options=...)``.
    A line search whose bracket fails ends where scipy's
    ``_recover_from_bracket_error`` does: at the best of the three points,
    or at NaN if any of them is NaN; one that finds no bracket in 1000
    steps raises OracleError where scipy raises RuntimeError.  ``fun`` must
    return a float; it is never handed an array that the search goes on to
    use.

    It runs one ``_powell`` search; ``numeric_prox`` runs several in lockstep.

    No divisor can be zero, so no Python float division raises where
    numpy's gave inf or NaN: Brent's parabolic step divides by ``tmp2``
    only inside its own bracket test ``tmp2 * (a - x) < p < tmp2 * (b - x)``,
    which no ``tmp2`` of 0 (or NaN) passes, and ``bracket`` divides by
    ``2 * val`` only where ``|val| >= 1e-21``, else by ``2e-21``.
    """
    return _lockstep([x0], lambda pts: [fun(pts[0])])[0]


def _lockstep(starts, objective) -> list:
    """One ``_powell`` search from each start, run in rounds: each round
    stacks the next point of every search still running into P, in start
    order, and ``objective(P)`` returns their values.  A point on a line
    is p + u xi, the same elementwise operations as the search's own; any
    other point goes in as given.  Returns each search's (point, value);
    an exception from a search or from ``objective`` ends the run."""
    searches = [_powell(z0) for z0 in starts]
    ends = [None] * len(searches)
    live = list(range(len(searches)))  # the searches still running, in start order
    values = [None] * len(live)  # each live search's last value, to send it
    base = np.zeros((len(live), np.size(starts[0])))  # row r: live search r's line p + u xi
    direc = np.zeros_like(base)
    while True:
        kept, steps, points = [], [], []
        for r, i in enumerate(live):
            try:
                ask = searches[i].send(values[r])
                while type(ask) is tuple:
                    base[r], direc[r] = ask
                    ask = searches[i].send(None)
            except StopIteration as end:
                ends[i] = end.value
                continue
            if isinstance(ask, np.ndarray):
                points.append((len(kept), ask))
                ask = 0.0
            kept.append(r)
            steps.append(ask)
        if len(kept) < len(live):
            live = [live[r] for r in kept]
            base, direc = base[kept], direc[kept]
        if not live:
            return ends
        pts = base + np.array(steps)[:, None] * direc
        for r, z in points:  # as given: z + 0 xi would turn -0.0 into +0.0
            pts[r] = z
        values = objective(pts)


def _powell(x0):
    """One Powell search from x0 as a generator, returning (point, value).

    It yields what it needs evaluated next and is sent that value: an
    array is a point, a float u is the point p + u xi on its current line,
    and a tuple (p, xi) sets that line and is sent None.  p and xi are the
    search's own arrays, so a driver neither changes them nor hands them
    to the objective; a yielded point is a fresh array."""
    x = np.array(x0, dtype=float).reshape(-1)
    direc = list(np.eye(x.size))
    fval = yield x.copy()
    x1 = x
    it = 0
    while True:
        fx, start = fval, x
        bigind = 0
        delta = 0.0
        for i in range(x.size):
            fx2 = fval
            fval, x, _ = yield from _line_search(x, direc[i], fval)
            if fx2 - fval > delta:
                delta = fx2 - fval
                bigind = i
        it += 1
        if 2.0 * (fx - fval) <= _FTOL * (abs(fx) + abs(fval)) + 1e-20:
            break
        if it >= _MAXITER or (math.isnan(fx) and math.isnan(fval)):
            break
        # +inf at both ends and x unmoved bit for bit: no direction changes
        # (fx > fx2 gives t = NaN), so every later iteration repeats this one
        if fx == fval == math.inf and x.tobytes() == start.tobytes():
            break
        # the extrapolated point along the iteration's total move
        direc1 = x - x1
        x1 = x
        fx2 = yield x + direc1
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = yield from _line_search(x, direc1, fval)
                if direc1.any():
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return x, fval


def _line_search(p, xi, fval):
    """scipy's unbounded ``_linesearch_powell``: the minimum of the
    objective along p + alpha xi, as (value, point, alpha xi)."""
    if not xi.any():
        return fval, p, xi
    yield p, xi
    alpha, fret = yield from _brent(100 * _XTOL)
    xi = alpha * xi
    return fret, p + xi, xi


def _brent(tol: float):
    """scipy's ``Brent`` at 500 iterations from ``bracket``'s three points,
    or ``_recover_from_bracket_error``'s point where no bracket was found,
    yielding each step along the line."""
    xa, xb, xc, fa, fb, fc = found = yield from _bracket()
    if not (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and math.isfinite(xa) and math.isfinite(xb) and math.isfinite(xc)
    ):
        if any(math.isnan(z) for z in found):
            return math.nan, math.nan
        fs = (fa, fb, fc)
        best = fs.index(min(fs))  # the first of equal minima, as np.argmin
        return (xa, xb, xc)[best], fs[best]
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = rat = 0.0
    for _ in range(500):
        tol1 = tol * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:  # a golden-section step
            deltax = a - x if x >= xmid else b - x
            rat = _CG * deltax
        else:  # a parabolic step, if it lands inside the bracket
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CG * deltax
        if abs(rat) < tol1:
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = yield u
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


def _bracket():
    """scipy's ``bracket`` from 0 and 1 at grow limit 110: three points
    (xa, xb, xc, fa, fb, fc) downhill from them, which ``_brent`` checks."""
    xa, xb = 0.0, 1.0
    fa = yield xa
    fb = yield xb
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = yield xc
    it = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _VERYSMALL if abs(val) < _VERYSMALL else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + 110.0 * (xc - xb)
        if it > 1000:
            raise OracleError("Powell's line search found no bracket in 1000 steps")
        it += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = yield w
            if fw < fc:
                return xb, w, xc, fb, fw, fc
            if fw > fb:
                return xa, xb, w, fa, fb, fw
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = yield w
        elif (w - wlim) * (xc - w) > 0.0:
            fw = yield w
            if fw < fc:
                xb, xc, fb, fc = xc, w, fc, fw
                w = xc + _GOLD * (xc - xb)
                fw = yield w
        else:
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        xa, xb, xc, fa, fb, fc = xb, xc, w, fb, fc, fw
    return xa, xb, xc, fa, fb, fc


def _points(*pts) -> list[np.ndarray]:
    """An oracle's points, in the order it takes them, as float arrays:
    vectors or square matrices, all of one shape."""
    arrays = [np.asarray(p, dtype=float) for p in pts]
    shape = arrays[0].shape
    if len(shape) not in (1, 2):
        raise ValueError("points must be vectors or square matrices")
    if len(shape) == 2 and shape[0] != shape[1]:
        raise ValueError("matrix points must be square")
    for a in arrays:
        if a.shape != shape:
            raise ValueError(f"points must share one shape, got {shape} and {a.shape}")
    return arrays


def _grid(ts, levels: int, name: str = "t_grid") -> tuple[float, ...]:
    """Steps as floats: at least ``levels`` of them, finite, positive and
    strictly decreasing; anything else raises OracleError naming ``name``."""
    grid = tuple(float(t) for t in ts)
    if len(grid) < levels:
        raise OracleError(f"{name} needs at least {levels} levels, got {len(grid)}")
    if not all(math.isfinite(t) for t in grid):
        raise OracleError(f"{name} entries must be finite")
    if not all(t > 0 for t in grid) or any(a <= b for a, b in zip(grid, grid[1:])):
        raise OracleError(f"{name} must be strictly decreasing and positive")
    return grid


def _gamma(gamma) -> float:
    """A prox parameter as a float: finite and positive."""
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma


def _base(f, x) -> float:
    """f(x), which must not be infinite: x must lie in the domain of f."""
    f0 = float(f(x))
    if math.isinf(f0):
        raise ValueError("base point must lie in the domain of f")
    return f0


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
    ``accepts_stack`` (as ``spectral.lifted`` and ``SymmetricFunction.value``
    do), else one per point."""
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
        grid = _grid(t_grid, 2)
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
    """Single second-order difference quotient: the at-w quotient of a
    grid level whose one candidate is w (radius 0), formed as
    ``numeric_second_subderivative`` forms it; +inf when x + t w leaves
    the domain of f (signalled by f returning +-inf)."""
    x, v, w = _points(x, v, w)
    (t,) = _grid((t,), 1, "t")
    f0 = _base(f, x)
    fv, inner = _level(f, x, w, t, 0.0, 0, 0, 0, v)
    return ExtReal(_masked((fv - f0 - t * inner) / (t * t / 2.0), fv)[0])


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
    x, v, w = _points(x, v, w)
    f0 = _base(f, x)

    def level(k: int) -> ProbeLevel:
        t = probe.t_grid[k]
        rad = probe.radius * t ** 1.5
        fv, inner = _level(f, x, w, t, rad, probe.samples, probe.seed, k, v)
        unmoved = bool(np.all(fv == f0))
        if unmoved and np.any(inner != 0.0):
            raise OracleError(
                f"quotient oracle cannot resolve the step t={t:g} at f(x)={f0:g}: every "
                "f(x + t w') equals f(x) while some <v, w'> is not 0"
            )
        q = _masked((fv - f0 - t * inner) / (t * t / 2.0), fv)
        # one unit in the last place of f(x) moves a quotient by `floor`; it
        # must stay small beside the finite quotients, unless f never moved
        # (then each quotient is -2 <v, w'> / t, all 0 past the check above)
        floor = 2.0 * math.ulp(f0) / t / t  # t > 0, so neither divisor is 0
        finite = np.abs(q[np.isfinite(q)])
        if not unmoved and finite.size and floor > 1e-2 * (1.0 + finite.max()):
            raise OracleError(
                f"quotient oracle cannot resolve the step t={t:g} at f(x)={f0:g}: its float "
                f"spacing moves a quotient by {floor:.3g}, past 1e-2 (1 + max |finite quotient|)"
            )
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
    x, w = _points(x, w)
    grid = _grid(t_grid, 1)
    f0 = _base(f, x)
    best = math.inf
    for k, t in enumerate(grid):
        fv, _ = _level(f, x, w, t, radius * t * t, samples, seed, k)
        q = _masked((fv - f0) / t, fv)
        best = min(best, q[np.argmin(q)])  # the first of equal minima
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
    x, v, w = _points(x, v, w)
    target = float(target)
    if not math.isfinite(target):
        raise ValueError("attainment target must be finite")
    t_seq = _grid(t_seq, 3, "t_seq")  # three levels judge the distances' trend
    f0 = _base(f, x)
    n_moves = 2 * _free_dim(w.shape)
    moves = _search_moves(w.shape)

    def mismatches(t: float, count: int, make) -> tuple[np.ndarray, np.ndarray]:
        fv, inner = _stacked(f, x, t, v, count, make)
        q = np.where(np.isinf(fv), np.inf, (fv - f0 - t * inner) / (t * t / 2.0))
        return q, np.where(np.isfinite(q), np.abs(q - target), np.inf)

    levels: list[AttainmentLevel] = []
    mismatch = math.inf
    for t in t_seq:
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
    searches from x and from ``restarts`` random starts x + (gamma / 2) z,
    z drawn in turn from default_rng(seed).standard_normal, and keeps the
    first strictly best.  Inputs that are not 1-D raise ValueError; a
    matrix prox is the vector prox of its spectrum
    (``spectral.spectral_prox``).

    The searches run in lockstep (``_lockstep``).  Each round evaluates
    the objective once for the stack P of every live search's next point:
    ``_evaluate(f, P)``, one call of f when f declares ``accepts_stack``,
    plus the row dots of P - x (np.vdot's bits) over 2 gamma.  Every
    search therefore evaluates, and ends at, exactly the points that
    ``minimize`` gives it alone.
    """
    gamma = _gamma(gamma)
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1:
        raise ValueError(f"numeric_prox searches vectors only, got shape {xa.shape}")

    rng = np.random.default_rng(seed)
    starts = [xa]
    for _ in range(restarts):
        starts.append(xa + 0.5 * gamma * rng.standard_normal(xa.shape))

    def objective(pts: np.ndarray) -> list:
        d = pts - xa
        dots = (d[:, None, :] @ d[:, :, None])[:, 0, 0]  # ddot's bits, as np.vdot's
        return (_evaluate(f, pts) + dots / (2.0 * gamma)).tolist()

    # near the float maximum Powell's line search overflows; such a
    # search ends at a non-finite objective, which is never kept
    with np.errstate(over="ignore", invalid="ignore"):
        ends = _lockstep(starts, objective)
    best_z = None
    best_v = math.inf
    for z, v in ends:
        if v < best_v:
            best_v, best_z = v, z
    if best_z is None:
        raise OracleError("numeric_prox: every search ended at a non-finite objective")
    return NumericProxResult(best_z, best_v)
