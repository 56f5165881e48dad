"""Dense symmetric-matrix numerics.

This module provides the shared ground floor for everything else: ordered
eigendecompositions with clustering of numerically repeated eigenvalues,
stable blockwise sorts within clusters, and two dense references for the
tests: the trace/eigenvalue gap behind Fan's inequality and shifted
pseudoinverses.

All container types are immutable after construction and every operation is
a pure function of its inputs, so values can be shared freely across
threads.

Conventions
-----------
Eigenvalues are kept in nonincreasing order.  Cluster ("block") m covers the
contiguous index range ``bounds[m]:bounds[m + 1]`` and has representative
value ``mu[m]``; indices into eigenvalues and blocks are 0-based
throughout.  The clustering width is chosen in ``eig`` and nowhere else;
the EigenSystem clusters at it and records it as ``cluster_tol``.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import EigenSolveError
from .record import Record

CLUSTER_RTOL = 1e-8


def as_sym_array(x) -> np.ndarray:
    """Return the ndarray behind ``x`` (SymMatrix or array-like), validated
    to be a finite square matrix.  Does not symmetrize."""
    if isinstance(x, SymMatrix):
        return x.entries
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


class SymMatrix(Record):
    """Dense real symmetric matrix: a frozen copy of an exactly symmetric
    input (one comparison pass), else A/2 + A^T/2, finite where (A + A^T)/2
    would overflow.  It never keeps the caller's array.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: np.ndarray):
        a = as_sym_array(entries)
        sym = a.copy() if np.array_equal(a, a.T) else a / 2.0 + a.T / 2.0
        self._init(_frozen(sym))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def tie_width(scale: float) -> float:
    """Width within which two eigenvalues of a spectrum of largest modulus
    ``scale`` count as equal: 1e-8 * (1 + scale).  ``eig`` clusters with it
    by default, and the penalties in ``symfun`` judge ties with it when
    called on a bare vector; called from the spectral layer they read
    ``eig``'s clusters and width instead."""
    return CLUSTER_RTOL * (1.0 + scale)


class EigenSystem(Record):
    """Ordered eigendecomposition with eigenvalue clustering, built from
    the matrix, its eigenvectors, its eigenvalues and the clustering width.

    ``u`` holds orthonormal eigenvectors as columns, ``lam`` the
    nonincreasing eigenvalues.  The rest is derived here: consecutive
    eigenvalues whose gap is at most ``cluster_tol`` join one cluster, and
    ``bounds``, the one representation of the clusters, is an int array:
    cluster m covers bounds[m]:bounds[m + 1] (``blocks``, ``r`` and
    ``block_ids`` are read off it).  ``mu[m]`` is its mean, strictly
    decreasing in m, and ``lam`` itself at a distinct spectrum.
    ``ambiguous`` is set when some consecutive eigenvalue gap falls in
    [0.5 * cluster_tol, 2 * cluster_tol], i.e. the clustering was a close
    call at the given tolerance.
    """

    _fields = ("matrix", "u", "lam", "cluster_tol", "bounds", "mu", "ambiguous")

    def __init__(self, matrix: SymMatrix, u: np.ndarray, lam: np.ndarray, cluster_tol: float):
        cluster_tol = float(cluster_tol)
        if cluster_tol <= 0.0:
            raise ValueError("cluster_tol must be positive")
        lam = _frozen(lam)
        n = lam.shape[0]
        gaps = lam[:-1] - lam[1:]
        ambiguous = bool(((gaps >= 0.5 * cluster_tol) & (gaps <= 2.0 * cluster_tol)).any())
        cuts = np.flatnonzero(gaps > cluster_tol) + 1
        single = cuts.size == n - 1  # then each cluster mean is its eigenvalue
        bounds = _singletons(n) if single else _frozen(np.concatenate([[0], cuts, [n]]), np.intp)
        mu = lam if single else _frozen(cluster_means(lam, bounds))
        self._init(matrix, _frozen(u), lam, cluster_tol, bounds, mu, ambiguous)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @property
    def r(self) -> int:
        return self.bounds.size - 1

    @property
    def blocks(self) -> tuple[range, ...]:
        return tuple(map(range, self.bounds[:-1].tolist(), self.bounds[1:].tolist()))

    @cached_property
    def tied_blocks(self) -> list[tuple[int, range]]:
        """(m, blocks[m]) for every cluster of more than one eigenvalue."""
        b = self.bounds
        if b.size - 1 == self.n:  # singletons only
            return []
        return [(m, range(b[m], b[m + 1])) for m in np.flatnonzero(np.diff(b) > 1).tolist()]

    def block_basis(self, m: int) -> np.ndarray:
        """Eigenvector columns spanning the m-th eigenvalue cluster."""
        return self.u[:, self.bounds[m] : self.bounds[m + 1]]

    @property
    def block_ids(self) -> np.ndarray:
        """Cluster index of every eigenvalue position."""
        return np.repeat(np.arange(self.r), np.diff(self.bounds))

    @cached_property
    def position_means(self) -> np.ndarray:
        """mu[block_ids], the mean of each eigenvalue's cluster: mu itself at singletons."""
        return self.mu if self.r == self.n else _frozen(self.mu[self.block_ids])


def cluster_means(lam: np.ndarray, bounds) -> np.ndarray:
    """Mean of ``lam`` over each cluster, cluster m covering
    bounds[m:m + 2].  A cluster whose sum passes the float maximum is
    summed again in terms scaled by a power of two below 1 / its size, so
    its mean stays finite; every other mean is sum / size."""
    counts = np.diff(bounds)
    with np.errstate(over="ignore"):
        means = np.add.reduceat(lam, bounds[:-1]) / counts
    big = np.isinf(means)
    if big.any():
        s = 0.5 ** int(counts.max()).bit_length()
        means[big] = (np.add.reduceat(lam * s, bounds[:-1])[big] / counts[big]) / s
    return means


@lru_cache(maxsize=8)
def _singletons(n: int) -> np.ndarray:
    """0, 1, ..., n: the bounds of n singleton clusters, one frozen array per
    n that every EigenSystem, and every report kept, at a distinct spectrum
    shares."""
    return _frozen(np.arange(n + 1), np.intp)


def eig(x, cluster_tol: float | None = None) -> EigenSystem:
    """Ordered eigendecomposition of a symmetric matrix, clustered by the
    EigenSystem at ``cluster_tol``, by default ``tie_width(||X||_2)``.

    Consecutive eigenvalues whose gap is at most ``cluster_tol`` are joined
    into one cluster.  A gap within a factor of two of the tolerance flags
    the result as ambiguous rather than failing.
    """
    mat = x if isinstance(x, SymMatrix) else SymMatrix(x)
    try:
        w, v = np.linalg.eigh(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"symmetric eigendecomposition failed for n={mat.n}: {exc}"
        ) from exc
    if cluster_tol is None:
        cluster_tol = tie_width(float(max(-w[0], w[-1])))  # ||X||_2, w ascending
    return EigenSystem(mat, v[:, ::-1].copy(), w[::-1].copy(), cluster_tol)


def pinv_shift(es: EigenSystem, m: int) -> SymMatrix:
    """Moore-Penrose inverse of (mu_m I - X) assembled from the
    eigendecomposition: sum over clusters s != m of
    (mu_m - mu_s)^{-1} U_s U_s^T.  Vanishes on the m-th eigenspace.  The
    tests' dense reference for the calculus's eigenbasis formulas."""
    if not 0 <= m < es.r:
        raise IndexError(f"cluster index {m} out of range for r={es.r}")
    out = np.zeros((es.n, es.n))
    for s in range(es.r):
        if s == m:
            continue
        us = es.block_basis(s)
        out += (us @ us.T) / (es.mu[m] - es.mu[s])
    return SymMatrix(out)


def block_sort_permutation(y, es: EigenSystem) -> np.ndarray:
    """Stable blockwise nonincreasing sort of ``y`` along the clusters of
    ``es``: the sorted vector v = y[block_sort_order(y, bounds)].  Ties
    keep their original relative order.  A new array, also at singletons."""
    y = np.asarray(y, dtype=float)
    if y.shape != (es.n,):
        raise ValueError(f"expected a vector of length {es.n}, got shape {y.shape}")
    return y.copy() if es.r == es.n else y[block_sort_order(y, es.bounds)]


def block_sort_order(y: np.ndarray, bounds) -> np.ndarray:
    """Indices of the stable sort of ``y`` that is nonincreasing within
    each cluster (cluster m covering bounds[m:m + 2]) and keeps every
    cluster's index range in place."""
    ids = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    # stable, and sorted by cluster first (lexsort's last key)
    return np.lexsort((-y, ids))


def fan_gap(a, b) -> float:
    """lambda(A) . lambda(B) - <A, B>, nonnegative by Fan's trace inequality
    and zero exactly when A and B admit a simultaneous ordered spectral
    decomposition.  The tests' dense reference for the Fan gaps, which the
    calculus reads off the rotation (perturb._Rotated.fan_gaps)."""
    am = as_sym_array(a)
    bm = as_sym_array(b)
    if am.shape != bm.shape:
        raise ValueError("fan_gap requires matrices of equal shape")
    la = np.sort(np.linalg.eigvalsh((am + am.T) / 2.0))[::-1]
    lb = np.sort(np.linalg.eigvalsh((bm + bm.T) / 2.0))[::-1]
    return float(la @ lb - np.vdot(am, bm))
