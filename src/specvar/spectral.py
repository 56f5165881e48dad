"""Variational calculus of spectral lifts g(X) = theta(ordered eigenvalues).

Given a symmetric penalty theta on R^n, its spectral lift acts on real
symmetric matrices through the nonincreasing eigenvalue vector.  Everything
first- and second-order about the lift reduces to theta along the spectrum,
plus one genuinely matrix-level ingredient: directions that rotate
eigenspaces pick up curvature from the gaps between eigenvalue clusters,
read off one rotation Ht = U^T H U per (X, H) in the divided-difference
form of Lewis and Sendov (SIMAX 2001); see curvature_correction.

The exported pieces:

* value / subgradient / subderivative of the lift,
* the critical cone test for a (point, subgradient, direction) triple,
* the second subderivative bundled into a SecondOrderReport, optionally
  cross-checked against the brute-force quotient oracle,
* a specialized route for single ordered eigenvalues,
* the second semiderivative on the smooth branch,
* the proximal map and its directional derivative.

Conventions.  Subgradient data for the lift is carried as a triple: the raw
weight vector y (one weight per eigenvector column, in eigenvalue order),
its blockwise nonincreasing rearrangement v, and the embedded matrix
U Diag(y) U^T.  The penalty-level second subderivative is evaluated at the
sorted pair (v, eigenvalue directional derivative); the cluster curvature
correction uses the raw y.  Mixing these up breaks instances with repeated
eigenvalues, so the triple keeps both vectors side by side.

The second subderivative is reported as +infinity off the critical cone
even when the penalty-level term happens to be finite there; rotating a
repeated eigenspace against the weights makes the true quotients blow up,
and the finite-implies-critical invariant is kept unconditional.

The functions of a point X take it either as a matrix, clustered by ``eig``
at its default width, or as an EigenSystem; prox_directional_derivative,
which perturbs X, takes a matrix.  The clustering width is chosen only in
``eig``: a caller who wants another one passes ``eig(x, cluster_tol=...)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedPointError
from .extreal import POS_INF, ExtReal
from .oracle import QuotientProbe, numeric_second_subderivative
from .perturb import _rotate, _Rotated, eig_dir_derivative
from .symmat import (
    FAN_TOL,
    EigenSystem,
    SymMatrix,
    as_sym_array,
    block_sort_order,
    block_sort_permutation,
    cluster_means,
    eig,
)
from .symfun import OrderStat, SymmetricFunction, spec_to_json

PROX_DIR_TOL = 1e-4
SEMIDERIV_CHECK_RTOL = 1e-8  # semiderivative vs general d2 at the gradient, in the tests


def _as_eigensystem(x) -> EigenSystem:
    return x if isinstance(x, EigenSystem) else eig(x)


def lifted(theta: SymmetricFunction):
    """The lift as a plain callable on symmetric arrays, for oracle use.

    It also takes an (S, n, n) stack and returns the S values from one
    stacked eigvalsh and one theta.value call on the (S, n) stack of
    spectra, bit-identical to S separate calls.  The attribute
    ``accepts_stack`` tells the oracles so; a function attribute survives
    functools.wraps around the callable."""

    def f(a):
        if isinstance(a, np.ndarray) and a.ndim == 3:
            if a.shape[1] != a.shape[2] or a.size == 0 or not np.all(np.isfinite(a)):
                raise ValueError(f"expected a finite stack of square matrices, got shape {a.shape}")
            return theta.value(np.linalg.eigvalsh(a)[:, ::-1])
        w = np.linalg.eigvalsh(as_sym_array(a))
        return theta.value(w[::-1])

    f.accepts_stack = True
    return f


def spectral_value(theta: SymmetricFunction, x) -> float:
    es = _as_eigensystem(x)
    return theta.value(es.lam)


@dataclass(frozen=True)
class SubgradientTriple:
    """A subgradient of the lift in both coordinates.

    y: weight per eigenvector column, in eigenvalue order;
    v: blockwise nonincreasing rearrangement of y
       (y[symmat.block_sort_order(y, bounds)]);
    matrix: the embedded subgradient U Diag(y) U^T.
    """

    y: np.ndarray
    v: np.ndarray
    matrix: SymMatrix


def spectral_subgradient(
    theta: SymmetricFunction,
    x,
    y=None,
) -> SubgradientTriple:
    """Validate (or choose) a subgradient weight vector and embed it.

    When y is omitted the canonical vertex of the penalty subdifferential at
    the spectrum is used, which makes downstream reports deterministic.
    Membership is checked on the blockwise sorted rearrangement; a failure
    raises InvalidSubgradientError.
    """
    es = _as_eigensystem(x)
    if y is None:
        y = theta.subgradients(es.lam).canonical_vertex()
    y = np.asarray(y, dtype=float)
    if y.shape != (es.n,):
        raise ValueError(f"subgradient vector must have length {es.n}, got {y.shape}")
    v = block_sort_permutation(y, es)
    theta.check_subgradient(es.lam, v)
    mat = SymMatrix(es.u @ np.diag(y) @ es.u.T)
    return SubgradientTriple(y=y, v=v, matrix=mat)


def spectral_subderivative(theta: SymmetricFunction, x, h) -> float:
    """Directional derivative of the lift: the penalty subderivative along
    the eigenvalue directional derivative."""
    es = _as_eigensystem(x)
    return theta.subderivative(es.lam, eig_dir_derivative(es, h))


def subderivative_gap(
    theta: SymmetricFunction, x, triple: SubgradientTriple, h
) -> float:
    """dg(X)(H) - <Y, H>; nonnegative up to rounding, and zero exactly on
    the critical cone.  This is the definition-level cone test the
    structural one is equivalent to."""
    es = _as_eigensystem(x)
    dg = spectral_subderivative(theta, es, h)
    pairing = float(np.vdot(triple.matrix.entries, as_sym_array(h)))
    return dg - pairing


def _in_critical_cone(theta: SymmetricFunction, triple: SubgradientTriple, rot: _Rotated) -> bool:
    """Both halves of the structural cone test, for a checked subgradient."""
    if not theta._in_cone(rot.es.lam, triple.v, rot.dd):
        return False
    return bool(np.all(rot.fan_gaps(triple.y) <= FAN_TOL))


def curvature_correction(x, y, h) -> float:
    """Cluster curvature term of the second subderivative:

        2 sum_m < Diag(y)_mm , U_m^T H (mu_m I - X)^+ H U_m >
          = 2 sum_j y_j sum_{k not in block(j)} Ht_jk^2 / (mu_b(j) - mu_b(k)).

    Uses the raw weight vector y; only directions that rotate eigenspaces
    across clusters contribute."""
    es = _as_eigensystem(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (es.n,):
        raise ValueError(f"weight vector must have length {es.n}, got {y.shape}")
    return 2.0 * float(y @ _rotate(es, h).coupling())


def fan_block_gaps(x, y, h) -> np.ndarray:
    """Per-cluster Fan inequality gaps between Diag(y)_mm and U_m^T H U_m.

    Each gap is nonnegative; simultaneous vanishing is the matrix half of
    the critical cone condition."""
    es = _as_eigensystem(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (es.n,):
        raise ValueError(f"weight vector must have length {es.n}, got {y.shape}")
    return _rotate(es, h).fan_gaps(y)


def critical_cone_member(
    theta: SymmetricFunction,
    x,
    triple: SubgradientTriple,
    h,
) -> bool:
    """Structural critical cone test for direction h at (X, Y).

    Two conditions: the eigenvalue directional derivative lies in the
    penalty critical cone at (spectrum, v), and every cluster satisfies the
    Fan equality (gap at most 1e-8) between Diag(y)_mm and the compression
    of h.  The conjunction is equivalent to dg(X)(H) = <Y, H> because both
    residuals are nonnegative."""
    es = _as_eigensystem(x)
    theta.check_subgradient(es.lam, triple.v)
    return _in_critical_cone(theta, triple, _rotate(es, h))


@dataclass(frozen=True, slots=True)
class SecondOrderReport:
    """Everything the second-order analysis at (X, Y, H) produced.

    ``curvature_correction`` and ``theta_d2`` are reported even when the
    direction is not critical (the former is an unconditional quadratic in
    H); ``d2`` is +infinity off the critical cone regardless, so that a
    finite d2 always certifies criticality.  Callers may keep many reports,
    so a report holds only what it cannot derive: ``direction`` is the
    caller's array (not a copy), ``penalty`` the caller's penalty, and the
    clusters are one bounds array, cluster m covering
    block_bounds[m:m + 2].  ``theta``, ``cluster_values`` and ``v`` are
    computed on access by the functions that produced them
    (``spec_to_json``, ``symmat.cluster_means``, ``symmat.block_sort_order``)."""

    penalty: SymmetricFunction
    n: int
    direction: np.ndarray
    spectrum: np.ndarray
    block_bounds: np.ndarray
    ambiguous_clustering: bool
    y: np.ndarray
    value: float
    eig_dir: np.ndarray
    dg: float
    pairing: float
    fan_gaps: np.ndarray
    in_critical_cone: bool
    theta_d2: ExtReal
    curvature_correction: float
    d2: ExtReal
    oracle_d2: ExtReal | None = None
    oracle_gap: float | None = None

    @property
    def theta(self) -> dict:
        """The penalty's JSON description."""
        return spec_to_json(self.penalty)

    @property
    def block_ranges(self) -> tuple[tuple[int, int], ...]:
        b = self.block_bounds.tolist()
        return tuple(zip(b[:-1], b[1:]))

    @property
    def cluster_values(self) -> np.ndarray:
        """Cluster means of the spectrum, as ``eig`` computes them."""
        return cluster_means(self.spectrum, self.block_bounds)

    @property
    def v(self) -> np.ndarray:
        """y sorted as ``block_sort_permutation`` sorts it."""
        return self.y[block_sort_order(self.y, self.block_bounds)]


def spectral_second_subderivative(
    theta: SymmetricFunction,
    x,
    triple: SubgradientTriple,
    h,
    probe: QuotientProbe | None = None,
) -> SecondOrderReport:
    """Second subderivative of the lift at (X, Y) in direction h, bundled
    with everything computed along the way.

    d2 is the penalty second subderivative at the sorted pair plus the
    cluster curvature correction on the critical cone, +infinity off it.
    With a probe, the quotient oracle runs against the same data and its
    estimate is attached; the oracle never feeds back into the closed-form
    numbers."""
    es = _as_eigensystem(x)
    hm = as_sym_array(h)
    rot = _rotate(es, hm)
    dd = rot.dd
    dg = theta.subderivative(es.lam, dd)
    pairing = float(triple.y @ np.diag(rot.ht))
    gaps = rot.fan_gaps(triple.y)
    theta_d2 = theta.second_subderivative(es.lam, triple.v, dd)  # checks v
    in_cone = theta._in_cone(es.lam, triple.v, dd) and bool(np.all(gaps <= FAN_TOL))
    corr = 2.0 * float(triple.y @ rot.coupling())
    d2 = theta_d2 + corr if in_cone else POS_INF
    oracle_d2 = None
    oracle_gap = None
    if probe is not None:
        res = numeric_second_subderivative(
            lifted(theta), es.matrix.entries, triple.matrix.entries, hm, probe
        )
        oracle_d2 = res.estimate
        if d2.is_finite and oracle_d2.is_finite:
            oracle_gap = abs(float(d2) - float(oracle_d2))
    return SecondOrderReport(
        penalty=theta,
        n=es.n,
        direction=hm,
        spectrum=es.lam.copy(),
        block_bounds=np.array([b.start for b in es.blocks] + [es.n]),
        ambiguous_clustering=es.ambiguous,
        y=triple.y.copy(),
        value=theta.value(es.lam),
        eig_dir=dd.copy(),
        dg=dg,
        pairing=pairing,
        fan_gaps=gaps,
        in_critical_cone=in_cone,
        theta_d2=theta_d2,
        curvature_correction=corr,
        d2=d2,
        oracle_d2=oracle_d2,
        oracle_gap=oracle_gap,
    )


def leading_eig_second_subderivative(x, i: int, triple: SubgradientTriple, h) -> ExtReal:
    """Second subderivative of the single ordered eigenvalue leading the
    i-th cluster (i is 1-based), via the direct matrix formula

        2 < Y, H (mu_i I - X)^+ H >      on the critical cone,
        +infinity                        off it.

    The triple must be a valid order-statistic subgradient supported on the
    i-th cluster; the result agrees with the general machinery run on the
    matching order statistic."""
    es = _as_eigensystem(x)
    if not 1 <= i <= es.r:
        raise UnsupportedPointError(
            f"cluster index {i} out of range: the spectrum has {es.r} clusters"
        )
    m = i - 1
    theta = OrderStat(rank=es.blocks[m].start + 1)
    theta.check_subgradient(es.lam, triple.v)
    if np.any(np.abs(np.delete(triple.y, es.blocks[m])) > 1e-12):
        raise UnsupportedPointError(
            f"subgradient weights must be supported on cluster {i}"
        )
    rot = _rotate(es, h)
    if not _in_critical_cone(theta, triple, rot):
        return POS_INF
    return ExtReal(2.0 * float(triple.y @ (rot.ht**2 @ rot.inv_gap[es.blocks[m].start])))


def second_semiderivative(theta: SymmetricFunction, x, h) -> float:
    """Second-order directional expansion coefficient on the smooth branch:
    for theta twice differentiable along the spectrum,

        g(X + tH) = g(X) + t dg(X)(H) + (t^2/2) d2 + o(t^2)

    with d2 = sum_j hess_j (lambda'_j)^2 plus the cluster curvature
    correction at y = grad theta(spectrum).  Raises UnsupportedPointError
    where the penalty is not twice differentiable along the spectrum."""
    es = _as_eigensystem(x)
    grad = theta.gradient(es.lam)
    hess = theta.hessian_diagonal(es.lam)
    rot = _rotate(es, h)
    return float(hess @ (rot.dd**2) + 2.0 * grad @ rot.coupling())


@dataclass(frozen=True)
class SpectralProxResult:
    matrix: SymMatrix
    eigenvalues: np.ndarray
    closed_form: bool


def spectral_prox(theta: SymmetricFunction, gamma: float, x) -> SpectralProxResult:
    """Proximal point of the lift: the penalty prox applied along the
    spectrum, rebuilt in the same eigenbasis.

    The spectrum prox is re-sorted nonincreasingly before embedding; for a
    symmetric penalty a sorted minimizer always exists at a sorted input,
    so this never increases the proximal objective (it guards against
    unsorted output from the brute-force fallback)."""
    es = _as_eigensystem(x)
    pr = theta.prox(gamma, es.lam)
    p = np.sort(np.asarray(pr.point, dtype=float))[::-1]
    mat = SymMatrix(es.u @ np.diag(p) @ es.u.T)
    return SpectralProxResult(matrix=mat, eigenvalues=p, closed_form=pr.closed_form)


@dataclass(frozen=True)
class ProxDirectional:
    """Directional derivative estimate of the prox map with Richardson
    extrapolation across a geometric step grid."""

    derivative: np.ndarray
    converged: bool
    quotients: tuple[np.ndarray, ...]
    extrapolants: tuple[np.ndarray, ...]


def prox_directional_derivative(
    theta: SymmetricFunction,
    gamma: float,
    x,
    d,
    t_grid: tuple[float, ...] = (1e-3, 1e-4, 1e-5),
) -> ProxDirectional:
    """Forward-difference quotients of the prox map in direction d, with
    Richardson extrapolation assuming first-order error decay.

    ``converged`` requires the last two extrapolants to agree entrywise to
    1e-4; expect failure where the prox map is not directionally
    differentiable and the quotients drift."""
    if len(t_grid) < 3:
        raise ValueError("t_grid needs at least three levels for extrapolation")
    ts = [float(t) for t in t_grid]
    ratios = {round(ts[k] / ts[k + 1], 9) for k in range(len(ts) - 1)}
    if len(ratios) != 1:
        raise ValueError("t_grid must be geometric")
    rho = ts[0] / ts[1]
    if rho <= 1.0:
        raise ValueError("t_grid must be decreasing")
    xa = as_sym_array(x)
    da = as_sym_array(d)
    base = spectral_prox(theta, gamma, xa).matrix.entries
    quotients = []
    for t in ts:
        pt = spectral_prox(theta, gamma, xa + t * da).matrix.entries
        quotients.append((pt - base) / t)
    extrapolants = [
        (rho * quotients[k + 1] - quotients[k]) / (rho - 1.0)
        for k in range(len(quotients) - 1)
    ]
    drift = float(np.max(np.abs(extrapolants[-1] - extrapolants[-2])))
    return ProxDirectional(
        derivative=extrapolants[-1],
        converged=bool(drift <= PROX_DIR_TOL),
        quotients=tuple(quotients),
        extrapolants=tuple(extrapolants),
    )
