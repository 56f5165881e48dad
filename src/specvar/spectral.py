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
* the second semiderivative on the smooth branch: the d2 at the gradient,
* the proximal map and its directional derivative.

Conventions.  Subgradient data for the lift is carried as a triple built
from two inputs: the raw weight vector y (one weight per eigenvector
column, in eigenvalue order) and the EigenSystem of U.  Its blockwise
nonincreasing rearrangement v and the embedded matrix U Diag(y) U^T are
derived from them when first read, so no copy of the subgradient can
disagree with another.  The penalty-level second subderivative is
evaluated at the sorted pair (v, eigenvalue directional derivative); the
cluster curvature correction uses the raw y.  Mixing these up breaks
instances with repeated eigenvalues, so the triple keeps both vectors side
by side.

The second subderivative is reported as +infinity off the critical cone
even when only a Fan gap fails and the penalty-level term is finite;
rotating a repeated eigenspace against the weights makes the true
quotients blow up, and the finite-implies-critical invariant is kept.

The functions of a point X alone take it either as a matrix, clustered by
``eig`` at its default width, or as an EigenSystem;
prox_directional_derivative clusters its perturbed points at the default
width.  The clustering width is chosen only in ``eig``: a caller who wants
another one passes it there.  A function of X and a triple reads X as the
triple's own point: its EigenSystem, one at the same width of bit-equal
entries, or a matrix whose symmetrized entries are bit-equal to them, at
whatever width the triple was clustered.  Any other X raises ValueError.
So X is decomposed once, and v is checked once: for an equal penalty the
set it was checked against is reused, while a triple built by hand carries
no checked set.

``eig``'s clustering is the one tie decision: every penalty call but the
value and the prox reads the spectrum at ``es.position_means``, where a
cluster's eigenvalues are equal, with kinks and ties judged within
``es.cluster_tol``.  Second-order entry points read one core: ``_at``
rotates H once and holds the one squares guard (an H whose squares
overflow is a ValueError), and ``_cone`` checks v and decides the critical
cone, both halves relative to the data they compare.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import UnsupportedPointError
from .extreal import POS_INF, ExtReal
from .oracle import ProbeResult, QuotientProbe, _grid, numeric_second_subderivative
from .perturb import _rotate, _Rotated, eig_dir_derivative
from .record import Record
from .symmat import (
    EigenSystem,
    SymMatrix,
    _frozen,
    as_sym_array,
    block_sort_order,
    block_sort_permutation,
    cluster_means,
    eig,
)
from .symfun import OrderStat, SubgradientSet, SymmetricFunction, _in_cone, spec_to_json

PROX_DIR_TOL = 1e-4
FAN_TOL = 1e-8  # a cluster's Fan gap, relative to ||y_m||_2 ||Ht_mm||_F
DEFINITIONAL_CONE_TOL = 1e-7  # |dg(X)(H) - <Y, H>| of a critical H, in CRITCONE and VERIFY


def _as_eigensystem(x, triple: SubgradientTriple | None = None) -> EigenSystem:
    """x itself, else eig(x).  With a triple, the triple's EigenSystem, which
    x must stand for: that EigenSystem, one at its width of bit-equal
    entries, or a matrix whose validated symmetrization is bit-equal to
    them.  Any other x raises ValueError, naming the width or the entries."""
    if triple is None:
        return x if isinstance(x, EigenSystem) else eig(x)
    es = triple.es
    if x is es:
        return es
    m = x.matrix if isinstance(x, EigenSystem) else x
    a = m.entries if isinstance(m, SymMatrix) else m
    e = es.matrix.entries
    # e is finite and symmetric, so an x equal to it is valid and is its
    # own symmetrization; a SymMatrix is symmetrized already, and any other
    # x is validated as eig validates it
    if not (a is e or np.array_equal(a, e)):
        if isinstance(m, SymMatrix) or not np.array_equal(SymMatrix(m).entries, e):
            raise ValueError("X's entries differ from those of its subgradient triple's point")
    if isinstance(x, EigenSystem) and x.cluster_tol != es.cluster_tol:
        raise ValueError(
            f"X is clustered at width {x.cluster_tol!r}, its subgradient triple at {es.cluster_tol!r}"
        )
    return es


def _subgradients(theta: SymmetricFunction, es: EigenSystem) -> SubgradientSet:
    """The penalty's subdifferential at the spectrum of es, as eig clustered
    it: at the cluster means, coordinates within es.cluster_tol tied."""
    return theta._subgradients(es.position_means, es.cluster_tol)


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


class SubgradientTriple(Record):
    """A subgradient of the lift in both coordinates, built from y and es.

    y: weight per eigenvector column, in eigenvalue order (a read-only
       copy of the caller's vector);
    es: the EigenSystem y is written in; the (X, triple) functions read
        X as its point and raise ValueError at any other;
    v: blockwise nonincreasing rearrangement of y along es's clusters
       (``block_sort_permutation``, read-only), derived on first read;
    matrix: the embedded subgradient U Diag(y) U^T, derived on first read.
        With ``es.u`` and ``es.matrix`` that is three n x n arrays: keep
        reports, not triples;
    checked: (penalty, its subdifferential at es, ``_subgradients``) that
        v was checked against, reused for an equal penalty.  Only
        ``spectral_subgradient`` sets it: a triple built by hand carries
        None and is checked.
    """

    _fields = ("y", "es", "checked")

    def __init__(self, y, es: EigenSystem):
        y = np.array(y, dtype=float)
        if y.shape != (es.n,):
            raise ValueError(f"subgradient vector must have length {es.n}, got {y.shape}")
        self._init(_frozen(y), es, None)

    @cached_property
    def v(self) -> np.ndarray:
        return _frozen(block_sort_permutation(self.y, self.es))

    @cached_property
    def matrix(self) -> SymMatrix:
        return SymMatrix((self.es.u * self.y) @ self.es.u.T)


def spectral_subgradient(
    theta: SymmetricFunction,
    x,
    y=None,
) -> SubgradientTriple:
    """Validate (or choose) a subgradient weight vector and embed it.

    When y is omitted the canonical vertex of the penalty subdifferential at
    the spectrum is used, which makes downstream reports deterministic.
    Membership is checked on the blockwise sorted rearrangement; a failure
    raises InvalidSubgradientError.  A y of the wrong length raises
    ValueError before the penalty reads the spectrum.
    """
    es = _as_eigensystem(x)
    triple = None if y is None else SubgradientTriple(y, es)
    s = _subgradients(theta, es)
    if triple is None:
        triple = SubgradientTriple(s.canonical_vertex(), es)
    theta._checked(s, triple.v)
    object.__setattr__(triple, "checked", (theta, s))
    return triple


def spectral_subderivative(theta: SymmetricFunction, x, h) -> float:
    """Directional derivative of the lift: the penalty subderivative along
    the eigenvalue directional derivative."""
    es = _as_eigensystem(x)
    return _subgradients(theta, es).support(eig_dir_derivative(es, h))


def subderivative_gap(
    theta: SymmetricFunction, x, triple: SubgradientTriple, h
) -> float:
    """dg(X)(H) - <Y, H>; nonnegative up to rounding, and zero exactly on
    the critical cone.  This is the definition-level cone test the
    structural one is equivalent to, read off ``_cone_tests``."""
    return _cone_tests(theta, x, triple, h)[1]


def _at(x, h, triple: SubgradientTriple | None = None) -> _Rotated:
    """The core's one rotation of H, validated once, at X as resolved by
    ``_as_eigensystem``; through ||H||_F <= n max|H_ij|, an H whose
    Ht^2 * inv_gap could overflow raises ValueError before it does."""
    es = _as_eigensystem(x, triple)
    hm = as_sym_array(h)
    scale = float(np.abs(hm).max())
    gap = float((es.mu[:-1] - es.mu[1:]).min()) if es.r > 1 else np.inf
    bound = es.n * scale  # Python floats overflow to inf without a warning
    if not np.isfinite(bound * bound * (1.0 + 1.0 / gap)):
        raise ValueError(f"direction of scale {scale:.3g} is too large: its squares overflow")
    return _rotate(es, hm)


def _cone(theta: SymmetricFunction, triple: SubgradientTriple, rot: _Rotated):
    """The one critical cone decision at rot, a rotation at triple.es: (dg,
    critical, gaps, member).

    triple.v is checked once: the set triple.checked holds serves an equal
    penalty.  ``critical`` is the penalty half, ``_in_cone``'s test of dg =
    dtheta(lam)(dd) = <v, dd>; ``member`` adds the Fan half, each cluster's
    gap within FAN_TOL ||y_m||_2 ||Ht_mm||_F (no gap exceeds 2 ||y_m||_2
    ||Ht_mm||_F)."""
    es, v = rot.es, triple.v
    if triple.checked is not None and triple.checked[0] == theta:
        s = triple.checked[1]
    else:
        s = theta._checked(_subgradients(theta, es), v)
    dg, critical = _in_cone(s, v, rot.dd)
    gaps = rot.fan_gaps(triple.y, v)
    member = critical and all(
        gaps[m] <= FAN_TOL * math.hypot(*triple.y[b]) * math.hypot(*rot.ht[np.ix_(b, b)].flat)
        for m, b in es.tied_blocks
    )
    return dg, critical, gaps, member


def _cone_tests(theta: SymmetricFunction, x, triple: SubgradientTriple, h) -> tuple[bool, float]:
    """(critical_cone_member, subderivative_gap) off one rotation, for
    CRITCONE and VERIFY, which compare the structural and definitional tests."""
    rot = _at(x, h, triple)
    dg, _, _, member = _cone(theta, triple, rot)
    return member, dg - float(np.vdot(triple.matrix.entries, rot.h))


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
    return 2.0 * float(y @ _at(es, h).coupling())


def fan_block_gaps(x, y, h) -> np.ndarray:
    """Per-cluster Fan inequality gaps between Diag(y)_mm and U_m^T H U_m.

    Each gap is nonnegative; simultaneous vanishing is the matrix half of
    the critical cone condition."""
    es = _as_eigensystem(x)
    y = np.asarray(y, dtype=float)
    return _rotate(es, as_sym_array(h)).fan_gaps(y, block_sort_permutation(y, es))


def critical_cone_member(
    theta: SymmetricFunction,
    x,
    triple: SubgradientTriple,
    h,
) -> bool:
    """Structural critical cone test for direction h at (X, Y).

    Two conditions: the eigenvalue directional derivative lies in the
    penalty critical cone at (spectrum, v), and every cluster satisfies the
    Fan equality (gap at most 1e-8 ||y_m|| ||Ht_mm||) between Diag(y)_mm
    and the compression of h.  The conjunction is equivalent to
    dg(X)(H) = <Y, H> because both residuals are nonnegative."""
    return _cone(theta, triple, _at(x, h, triple))[3]


class SecondOrderReport(Record):
    """Everything the second-order analysis at (X, Y, H) produced.

    ``curvature_correction`` is an unconditional quadratic in H, reported
    even off the critical cone; ``theta_d2`` is +infinity off the penalty
    critical cone for every family, and ``d2`` off the whole critical cone,
    so that a finite d2 always certifies criticality.  Callers may keep
    many reports, so a report holds only what it cannot derive:
    ``direction`` is the caller's array (not a copy), ``spectrum`` the
    EigenSystem's read-only eigenvalues, ``y`` the triple's read-only
    weights, ``penalty`` the caller's penalty, and the clusters are one
    bounds array, cluster m
    covering block_bounds[m:m + 2].  ``theta``, ``cluster_values`` and
    ``v`` are computed on access by the functions that produced them
    (``spec_to_json``, ``symmat.cluster_means``, ``symmat.block_sort_order``)."""

    __slots__ = _fields = (
        "penalty", "n", "direction", "spectrum", "block_bounds", "ambiguous_clustering",
        "y", "value", "eig_dir", "dg", "pairing", "fan_gaps", "in_critical_cone",
        "theta_d2", "curvature_correction", "d2", "oracle_d2", "oracle_gap",
    )

    def __init__(
        self,
        penalty: SymmetricFunction,
        n: int,
        direction: np.ndarray,
        spectrum: np.ndarray,
        block_bounds: np.ndarray,
        ambiguous_clustering: bool,
        y: np.ndarray,
        value: float,
        eig_dir: np.ndarray,
        dg: float,
        pairing: float,
        fan_gaps: np.ndarray,
        in_critical_cone: bool,
        theta_d2: ExtReal,
        curvature_correction: float,
        d2: ExtReal,
        oracle_d2: ExtReal | None = None,
        oracle_gap: float | None = None,
    ):
        self._init(
            penalty, n, direction, spectrum, block_bounds, ambiguous_clustering,
            y, value, eig_dir, dg, pairing, fan_gaps, in_critical_cone,
            theta_d2, curvature_correction, d2, oracle_d2, oracle_gap,
        )

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
    rot = _at(x, h, triple)
    es = rot.es
    dg, critical, gaps, in_cone = _cone(theta, triple, rot)
    # on or off the cone: a cap-boundary McpSum raises
    curv = theta._curvature(es.position_means, rot.dd, es.cluster_tol)
    theta_d2 = ExtReal(curv) if critical else POS_INF
    corr = 2.0 * float(triple.y @ rot.coupling())
    report = SecondOrderReport(
        penalty=theta,
        n=es.n,
        direction=rot.h,
        spectrum=es.lam,
        block_bounds=es.bounds,
        ambiguous_clustering=es.ambiguous,
        y=triple.y,
        value=theta.value(es.lam),
        eig_dir=rot.dd,
        dg=dg,
        pairing=float(triple.y @ rot.ht.diagonal()),
        fan_gaps=gaps,
        in_critical_cone=in_cone,
        theta_d2=theta_d2,
        curvature_correction=corr,
        d2=theta_d2 + corr if in_cone else POS_INF,
    )
    if probe is None:
        return report
    res = numeric_second_subderivative(
        lifted(theta), es.matrix.entries, triple.matrix.entries, rot.h, probe
    )
    return _with_oracle(report, res)


def _with_oracle(report: SecondOrderReport, res: ProbeResult) -> SecondOrderReport:
    """The report with the probe's estimate and, where both are finite, its
    distance to d2: the one place a report gets its oracle fields."""
    est, d2 = res.estimate, report.d2
    gap = abs(float(d2) - float(est)) if d2.is_finite and est.is_finite else None
    # every field but the last two, oracle_d2 and oracle_gap, is the report's
    return SecondOrderReport(*report._values()[:-2], est, gap)


def leading_eig_second_subderivative(x, i: int, triple: SubgradientTriple, h) -> ExtReal:
    """Second subderivative of the single ordered eigenvalue leading the
    i-th cluster (i is 1-based), via the direct matrix formula

        2 < Y, H (mu_i I - X)^+ H >      on the critical cone,
        +infinity                        off it.

    The triple must be a valid order-statistic subgradient supported on the
    i-th cluster; the result agrees with the general machinery run on the
    matching order statistic."""
    rot = _at(x, h, triple)
    if not 1 <= i <= rot.es.r:
        raise UnsupportedPointError(
            f"cluster index {i} out of range: the spectrum has {rot.es.r} clusters"
        )
    block = rot.es.blocks[i - 1]
    member = _cone(OrderStat(rank=block.start + 1), triple, rot)[3]
    if np.any(np.abs(np.delete(triple.y, block)) > 1e-12):
        raise UnsupportedPointError(
            f"subgradient weights must be supported on cluster {i}"
        )
    if not member:
        return POS_INF
    return ExtReal(2.0 * float(triple.y @ (rot.ht**2 @ rot.inv_gap[block.start])))


def second_semiderivative(theta: SymmetricFunction, x, h) -> float:
    """Second-order directional expansion coefficient on the smooth branch:
    where theta is differentiable along the spectrum,

        g(X + tH) = g(X) + t dg(X)(H) + (t^2/2) d2 + o(t^2)

    and d2 is the second subderivative at Y = grad g(X), where every
    direction is critical (Rockafellar-Wets, Ch. 13): the d2 of
    ``spectral_second_subderivative`` at ``spectral_subgradient``'s
    canonical y, the gradient.  Raises UnsupportedPointError where the
    subdifferential along the spectrum is not a single point, and where
    McpSum's curvature jumps."""
    es = _as_eigensystem(x)
    triple = spectral_subgradient(theta, es)
    if not triple.checked[1].singleton:
        raise UnsupportedPointError(f"{theta.name} is not differentiable along the spectrum here")
    return float(spectral_second_subderivative(theta, es, triple, h).d2)


class SpectralProxResult(Record):
    __slots__ = _fields = ("matrix", "eigenvalues", "closed_form")

    def __init__(self, matrix: SymMatrix, eigenvalues: np.ndarray, closed_form: bool):
        self._init(matrix, eigenvalues, closed_form)


def spectral_prox(theta: SymmetricFunction, gamma: float, x) -> SpectralProxResult:
    """Proximal point of the lift: the penalty prox applied along the
    spectrum, rebuilt in the same eigenbasis.

    The spectrum prox is re-sorted nonincreasingly before embedding; for a
    symmetric penalty a sorted minimizer always exists at a sorted input,
    so this never increases the proximal objective (it guards against
    unsorted output from the brute-force fallback, which ``OrderStat`` at
    rank >= 2 and ``EigGapMax`` take).  ``closed_form`` is False there."""
    es = _as_eigensystem(x)
    pr = theta.prox(gamma, es.lam)
    p = np.sort(np.asarray(pr.point, dtype=float))[::-1]
    mat = SymMatrix((es.u * p) @ es.u.T)
    return SpectralProxResult(matrix=mat, eigenvalues=p, closed_form=pr.closed_form)


class ProxDirectional(Record):
    """Directional derivative estimate of the prox map with Richardson
    extrapolation across a geometric step grid."""

    __slots__ = _fields = ("derivative", "converged", "quotients", "extrapolants")

    def __init__(
        self,
        derivative: np.ndarray,
        converged: bool,
        quotients: tuple[np.ndarray, ...],
        extrapolants: tuple[np.ndarray, ...],
    ):
        self._init(derivative, converged, quotients, extrapolants)


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
    ts = _grid(t_grid, 3)  # three levels give two extrapolants to compare
    ratios = {round(ts[k] / ts[k + 1], 9) for k in range(len(ts) - 1)}
    if len(ratios) != 1:
        raise ValueError("t_grid must be geometric")
    rho = ts[0] / ts[1]
    es = _as_eigensystem(x)
    da = as_sym_array(d)
    base = spectral_prox(theta, gamma, es).matrix.entries
    quotients = []
    for t in ts:
        pt = spectral_prox(theta, gamma, es.matrix.entries + t * da).matrix.entries
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
