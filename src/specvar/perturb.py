"""Directional behavior of ordered eigenvalues under symmetric perturbation.

Everything is read off one rotation of the direction, Ht = U^T H U: the
first-order movement of the eigenvalues in cluster m is the ordered
spectrum of Ht_mm, and second-order terms add the divided differences
1 / (mu_m - mu_s), the eigenbasis entries of (mu_m I - X)^+.  ``_rotate``
takes any finite H: the guard on the squares of Ht has one home, the
second-order core ``spectral._at``.
"""
from __future__ import annotations

import numpy as np

from .record import Record
from .symmat import EigenSystem, as_sym_array


class _Rotated(Record):
    """H (``h``, validated) in X's eigenbasis: ``ht`` = U^T H U, symmetrized;
    ``inv_gap[j, k]`` = 1 / (mu_b(j) - mu_b(k)), 0 within a cluster, so row j
    is the diagonal of U^T (mu_b(j) I - X)^+ U; ``dd`` = eig_dir_derivative,
    from ``_rotate``'s one eigvalsh per tied cluster, which the Fan gaps reuse."""

    __slots__ = _fields = ("es", "h", "ht", "inv_gap", "dd")

    def __init__(self, es: EigenSystem, h, ht, inv_gap, dd):
        self._init(es, h, ht, inv_gap, dd)

    def coupling(self) -> np.ndarray:
        """(U^T H (mu_b(j) I - X)^+ H U)_jj = sum_k Ht_jk^2 inv_gap[j, k]."""
        return np.sum(self.ht**2 * self.inv_gap, axis=1)

    def fan_gaps(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Fan gap lambda(Diag(y)_mm) . lambda(Ht_mm) - <Diag(y)_mm, Ht_mm> per cluster,
        v_m . dd_m - y_m . diag(Ht)_m for v = ``block_sort_permutation(y, es)``;
        +0.0 for singletons, whose products are never formed."""
        gaps = np.zeros(self.es.r)
        for m, b in self.es.tied_blocks:
            s = slice(b.start, b.stop)
            gaps[m] = v[s] @ self.dd[s] - y[s] @ self.ht.diagonal()[s]
        return gaps


def _rotate(es: EigenSystem, hm: np.ndarray) -> _Rotated:
    """The rotation of a direction already validated by ``as_sym_array``."""
    if hm.shape != (es.n, es.n):
        raise ValueError(f"direction must be {es.n}x{es.n}, got {hm.shape}")
    ht = es.u.T @ hm @ es.u
    ht = (ht + ht.T) / 2.0
    mu = es.position_means
    with np.errstate(over="ignore"):  # a span past the float maximum: 1 / inf = 0
        gap = mu[:, None] - mu[None, :]
    gap.flat[:: es.n + 1] = np.inf  # 1 / inf = +0.0 within a cluster
    dd = ht.diagonal().copy()
    for _, b in es.tied_blocks:
        dd[b] = np.linalg.eigvalsh(ht[np.ix_(b, b)])[::-1]
        gap[b.start : b.stop, b.start : b.stop] = np.inf
    return _Rotated(es, hm, ht, 1.0 / gap, dd)


def eig_dir_derivative(es: EigenSystem, h) -> np.ndarray:
    """First-order movement of all eigenvalues in direction ``h``: the
    (n,) vector whose entries over cluster m are the nonincreasing spectrum
    of the compression U_m^T H U_m."""
    return _rotate(es, as_sym_array(h)).dd


def eig_second_prediction(es: EigenSystem, h, t: float) -> np.ndarray:
    """Second-order prediction of the eigenvalues of X + t h.

    Cluster m is predicted as mu_m plus the ordered spectrum of
    U_m^T (tH) U_m + U_m^T (tH) (mu_m I - X)^+ (tH) U_m, taken in the
    eigenbasis; the residual against the exact eigenvalues decays cubically.
    """
    rot = _rotate(es, as_sym_array(h))
    t, ht = float(t), rot.ht
    out = es.position_means + t * np.diag(ht) + t * t * rot.coupling()
    for m, b in es.tied_blocks:
        core = t * ht[np.ix_(b, b)] + t * t * (ht[b, :] * rot.inv_gap[b.start]) @ ht[:, b]
        out[b] = es.mu[m] + np.linalg.eigvalsh(core)[::-1]
    return out

