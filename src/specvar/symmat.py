"""Dense symmetric-matrix numerics.

This module provides the shared ground floor for everything else: ordered
eigendecompositions with clustering of numerically repeated eigenvalues,
stable blockwise sorts within clusters, the trace/eigenvalue gap behind Fan's
inequality, and dense shifted pseudoinverses (the tests' reference).

All container types are immutable after construction and every operation is
a pure function of its inputs, so values can be shared freely across
threads.

Conventions
-----------
Eigenvalues are kept in nonincreasing order.  Cluster ("block") m covers the
contiguous index range ``blocks[m]`` and has representative value ``mu[m]``;
indices into eigenvalues and blocks are 0-based throughout.  The
clustering width is chosen in ``eig`` and nowhere else; the EigenSystem
records it as ``cluster_tol``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EigenSolveError

SYMMETRY_RTOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-9
FAN_TOL = 1e-8
CLUSTER_RTOL = 1e-8


def as_sym_array(x) -> np.ndarray:
    """Return the ndarray behind ``x`` (SymMatrix or array-like), validated
    to be a finite square matrix.  Does not symmetrize."""
    if isinstance(x, SymMatrix):
        return x.entries
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes its input via (A + A^T)/2 and records the
    asymmetry of the raw input so callers can warn on suspicious data.
    """

    entries: np.ndarray
    asymmetry: float = field(init=False, default=0.0)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = float(np.max(np.abs(a - a.T)))
        object.__setattr__(self, "entries", _frozen((a + a.T) / 2.0))
        object.__setattr__(self, "asymmetry", asym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def tie_width(scale: float) -> float:
    """Width within which two eigenvalues of a spectrum of largest modulus
    ``scale`` count as equal: 1e-8 * (1 + scale).  ``eig`` clusters with it
    by default and the penalties in ``symfun`` judge ties with it, so at
    the default tolerance both read a spectrum the same way."""
    return CLUSTER_RTOL * (1.0 + scale)


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigendecomposition with eigenvalue clustering.

    ``u`` holds orthonormal eigenvectors as columns, ``lam`` the
    nonincreasing eigenvalues.  ``blocks[m]`` is the contiguous index range
    of the m-th cluster of numerically equal eigenvalues and ``mu[m]`` its
    representative value (the cluster mean), strictly decreasing in m.
    ``ambiguous`` is set when some consecutive eigenvalue gap falls in
    [0.5 * cluster_tol, 2 * cluster_tol], i.e. the clustering was a close
    call at the given tolerance.
    """

    matrix: SymMatrix
    u: np.ndarray
    lam: np.ndarray
    blocks: tuple[range, ...]
    mu: np.ndarray
    cluster_tol: float
    ambiguous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u))
        object.__setattr__(self, "lam", _frozen(self.lam))
        object.__setattr__(self, "mu", _frozen(self.mu))

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @property
    def r(self) -> int:
        return len(self.blocks)

    def block_basis(self, m: int) -> np.ndarray:
        """Eigenvector columns spanning the m-th eigenvalue cluster."""
        return self.u[:, self.blocks[m]]

    @property
    def block_ids(self) -> np.ndarray:
        """Cluster index of every eigenvalue position."""
        return np.repeat(np.arange(self.r), [len(b) for b in self.blocks])


def cluster_means(lam: np.ndarray, bounds) -> np.ndarray:
    """Mean of ``lam`` over each cluster, cluster m covering
    bounds[m:m + 2]."""
    return np.add.reduceat(lam, bounds[:-1]) / np.diff(bounds)


def eig(x, cluster_tol: float | None = None) -> EigenSystem:
    """Ordered eigendecomposition of a symmetric matrix with greedy
    clustering of nearby eigenvalues.

    Consecutive eigenvalues whose gap is at most ``cluster_tol`` are joined
    into one cluster.  A gap within a factor of two of the tolerance flags
    the result as ambiguous rather than failing.
    """
    mat = x if isinstance(x, SymMatrix) else SymMatrix(as_sym_array(x))
    try:
        w, v = np.linalg.eigh(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"symmetric eigendecomposition failed for n={mat.n}: {exc}"
        ) from exc
    norm = float(np.max(np.abs(w)))  # ||X||_2
    cluster_tol = tie_width(norm) if cluster_tol is None else float(cluster_tol)
    if cluster_tol <= 0.0:
        raise ValueError("cluster_tol must be positive")
    lam = w[::-1].copy()
    u = v[:, ::-1].copy()
    gaps = lam[:-1] - lam[1:]
    ambiguous = bool(np.any((gaps >= 0.5 * cluster_tol) & (gaps <= 2.0 * cluster_tol)))
    bounds = np.concatenate([[0], np.flatnonzero(gaps > cluster_tol) + 1, [mat.n]]).tolist()
    mu = cluster_means(lam, bounds)
    return EigenSystem(
        matrix=mat,
        u=u,
        lam=lam,
        blocks=tuple(range(a, b) for a, b in zip(bounds[:-1], bounds[1:])),
        mu=mu,
        cluster_tol=cluster_tol,
        ambiguous=ambiguous,
    )


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
    keep their original relative order."""
    y = np.asarray(y, dtype=float)
    if y.shape != (es.n,):
        raise ValueError(f"expected a vector of length {es.n}, got shape {y.shape}")
    return y[block_sort_order(y, [b.start for b in es.blocks] + [es.n])]


def block_sort_order(y: np.ndarray, bounds) -> np.ndarray:
    """Indices of the stable sort of ``y`` that is nonincreasing within
    each cluster (cluster m covering bounds[m:m + 2]) and keeps every
    cluster's index range in place."""
    ids = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    # stable, and sorted by cluster first (lexsort's last key)
    return np.lexsort((-y, ids))


def fan_gap(a, b) -> float:
    """lambda(A) . lambda(B) - <A, B>.

    Nonnegative by Fan's trace inequality; zero exactly when A and B admit a
    simultaneous ordered spectral decomposition.
    """
    am = as_sym_array(a)
    bm = as_sym_array(b)
    if am.shape != bm.shape:
        raise ValueError("fan_gap requires matrices of equal shape")
    la = np.sort(np.linalg.eigvalsh((am + am.T) / 2.0))[::-1]
    lb = np.sort(np.linalg.eigvalsh((bm + bm.T) / 2.0))[::-1]
    return float(la @ lb - np.vdot(am, bm))
