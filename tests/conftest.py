"""Shared builders for the test suite.

Everything here is deterministic given an integer key: builders take a
numpy Generator (or build one from a key list) and never touch global RNG
state.  The direction builders encode the two instance families used
throughout: generic directions, and directions aligned with the eigenbasis
so that every cluster compression is already diagonal and sorted.
"""
from __future__ import annotations

import numpy as np
import pytest

from specvar import (
    EigenSystem,
    EigGapMax,
    McpSum,
    OrderStat,
    SmoothSep,
    eig,
    gapped_spectrum,
    matrix_with_spectrum,
    random_orthogonal,
    random_symmetric,
    spectral_subgradient,
    subderivative_gap,
)


def key_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


@pytest.fixture
def rng() -> np.random.Generator:
    return key_rng(20240814)


def clustered_matrix(
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    gap: float = 1.0,
    top: float | None = None,
) -> np.ndarray:
    """Symmetric matrix with exact eigenvalue ties in the given cluster
    pattern and at least ``gap`` between clusters."""
    lam = gapped_spectrum(rng, sizes, gap=gap, top=top)
    x, _ = matrix_with_spectrum(rng, lam)
    return x


def embedded_weights(es: EigenSystem, target: np.ndarray) -> np.ndarray:
    """Weight vector y with U Diag(y) U^T equal to ``target``.

    Only valid when the target commutes with the computed eigenbasis (its
    compression is diagonal); asserts that, since the eigensolver is free
    to permute and rotate columns inside tied clusters.
    """
    core = es.u.T @ np.asarray(target, dtype=float) @ es.u
    off = core - np.diag(np.diag(core))
    assert np.max(np.abs(off)) < 1e-9, "target does not commute with the eigenbasis"
    return np.diag(core).copy()


def aligned_direction(
    rng: np.random.Generator,
    es: EigenSystem,
    spread: float = 0.5,
    positive: bool = False,
    coupling: float = 1.0,
) -> np.ndarray:
    """Direction whose cluster compressions are diagonal with strictly
    decreasing entries in the eigenbasis of ``es``.

    Such directions have zero Fan gap against any blockwise nonincreasing
    weight vector, which makes cone membership depend only on the penalty.
    ``positive`` forces the in-cluster diagonals positive (useful at zero
    eigenvalues of the MCP); ``coupling`` scales the across-cluster part,
    which feeds the curvature correction but not the first-order data.
    """
    n = es.n
    c = coupling * random_symmetric(rng, n, frob=None)
    for b in es.blocks:
        s = len(b)
        d = np.sort(rng.uniform(0.2, 1.0, size=s))[::-1] + spread * np.arange(s)[::-1]
        if not positive:
            d -= float(rng.uniform(0.0, 0.5))
        c[np.ix_(b, b)] = np.diag(d)
    h = es.u @ c @ es.u.T
    return (h + h.T) / 2.0


def order_stat_block_instance(
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    block: int,
    interior: bool = False,
):
    """Matrix with the given cluster sizes plus an order-statistic pair
    (theta, y) whose rank starts the chosen cluster.

    Vertex weights (one-hot at the cluster start) keep aligned directions
    critical; ``interior`` spreads the weight across the cluster instead.
    """
    x = clustered_matrix(rng, sizes)
    es = eig(x)
    b = es.blocks[block]
    theta = OrderStat(rank=b.start + 1)
    y = np.zeros(es.n)
    if interior:
        w = rng.uniform(0.2, 1.0, size=len(b))
        y[b] = w / w.sum()
    else:
        y[b.start] = 1.0
    return es, theta, y


def critical_instance(rng: np.random.Generator, kind: str):
    """One member of the critical families: (theta, es, y, h) with the
    closed-form second subderivative finite.

    distinct:   any penalty at a simple spectrum, y the canonical choice,
                arbitrary direction (one-by-one clusters are always
                aligned and the penalties below are smooth or have a
                singleton subdifferential at such spectra).
    vertex:     order statistic at a clustered spectrum, one-hot weights,
                aligned direction.
    mcp_zero:   MCP with a tied cluster at zero, weights at the upper box
                corner there, aligned direction with positive in-cluster
                part.
    smooth:     separable quadratic at a clustered spectrum, arbitrary
                direction.
    gap:        eigenvalue-gap penalty where the largest gap is unique
                with both endpoints simple, so the subdifferential is a
                singleton and every direction is critical.
    """
    if kind == "distinct":
        n = 4
        lam = np.sort(rng.uniform(-2.0, 2.0, size=n))[::-1]
        lam += 0.7 * np.arange(n)[::-1]  # simple, well separated
        lam -= lam.mean()
        x, _ = matrix_with_spectrum(rng, lam)
        es = eig(x)
        theta = [
            OrderStat(rank=int(rng.integers(1, n + 1))),
            McpSum(a=2.0, c=1.0),
            SmoothSep(coeff=1.0),
        ][int(rng.integers(0, 3))]
        if isinstance(theta, McpSum):
            # keep the spectrum clear of the kink at zero and of the cap
            lam = np.where(np.abs(lam) < 0.3, lam + 0.6, lam)
            cap = theta.a * theta.c
            lam = np.where(np.abs(np.abs(lam) - cap) < 0.3, lam + 0.45, lam)
            lam = np.sort(lam)[::-1]
            x, _ = matrix_with_spectrum(rng, lam)
            es = eig(x)
        y = theta.subgradients(es.lam).canonical_vertex()
        h = random_symmetric(rng, n)
        return theta, es, y, h
    if kind == "vertex":
        sizes = ((1, 2), (2, 1), (2, 2))[int(rng.integers(0, 3))]
        block = int(rng.integers(0, len(sizes)))
        es, theta, y = order_stat_block_instance(rng, sizes, block)
        h = aligned_direction(rng, es)
        return theta, es, y, h
    if kind == "mcp_zero":
        theta = McpSum(a=2.0, c=1.0)
        lam = np.array([1.2, 0.0, 0.0])
        lam[0] += float(rng.uniform(0.0, 0.5))
        x, _ = matrix_with_spectrum(rng, lam)
        es = eig(x)
        y = theta.phi_prime(es.lam)
        zero = np.abs(es.lam) <= 1e-12
        y[zero] = theta.c  # upper corner: cone there is {w >= 0}
        h = aligned_direction(rng, es, positive=True)
        return theta, es, y, h
    if kind == "smooth":
        theta = SmoothSep(coeff=float(rng.uniform(0.5, 2.0)))
        sizes = ((1, 1, 1), (1, 2), (3,))[int(rng.integers(0, 3))]
        x = clustered_matrix(rng, sizes)
        es = eig(x)
        y = theta.gradient(es.lam)
        h = random_symmetric(rng, es.n)
        return theta, es, y, h
    if kind == "gap":
        theta = EigGapMax()
        top = float(rng.uniform(0.0, 1.0))
        g1 = 2.0 + float(rng.uniform(0.0, 1.0))
        g2 = 1.0 + float(rng.uniform(0.0, 0.8))
        lam = np.array([top, top - g1, top - g1 - g2, top - g1 - g2])
        x, _ = matrix_with_spectrum(rng, lam)
        es = eig(x)
        y = np.zeros(es.n)
        y[0], y[1] = 1.0, -1.0
        h = random_symmetric(rng, es.n)
        return theta, es, y, h
    raise ValueError(f"unknown critical family {kind!r}")


CRITICAL_KINDS = ("distinct", "vertex", "mcp_zero", "smooth", "gap")


def any_critical_instance(rng: np.random.Generator):
    return critical_instance(rng, CRITICAL_KINDS[int(rng.integers(0, len(CRITICAL_KINDS)))])


def noncritical_instance(rng: np.random.Generator, min_gap: float = 0.15):
    """(theta, es, y, h) with a definitional cone residual of at least
    ``min_gap``: either a Fan-misaligned direction at a tied cluster of
    the top order statistic, or an MCP direction leaving the kink cone.

    Rejection-samples until the residual clears ``min_gap`` so that
    second-order quotients diverge at a quantified rate.
    """
    for _ in range(200):
        if rng.random() < 0.5:
            x = clustered_matrix(rng, (2, 1))
            es = eig(x)
            theta = OrderStat(rank=1)
            y = np.zeros(es.n)
            y[0] = 1.0
            h = random_symmetric(rng, es.n, frob=2.0)
        else:
            theta = McpSum(a=2.0, c=1.0)
            lam = np.array([1.5, 0.0])
            x, _ = matrix_with_spectrum(rng, lam)
            es = eig(x)
            y = np.array([theta.phi_prime(1.5).item(), 0.0])
            h = random_symmetric(rng, es.n, frob=2.0)
        triple = spectral_subgradient(theta, es, y)
        if subderivative_gap(theta, es, triple, h) >= min_gap:
            return theta, es, y, h
    raise AssertionError("failed to sample a usable non-critical instance")


def family_eigensystems(rng: np.random.Generator) -> list[EigenSystem]:
    """EigenSystems of the families above, clustered and distinct: critical
    and non-critical instances, order-statistic block instances, clustered
    matrices of several patterns, and distinct spectra up to n = 64."""
    out = [critical_instance(rng, kind)[1] for kind in CRITICAL_KINDS for _ in range(4)]
    out += [noncritical_instance(rng)[1] for _ in range(4)]
    out += [order_stat_block_instance(rng, (2, 3, 1), block)[0] for block in range(3)]
    sizes = [(3,), (2, 1), (1, 3, 1, 2), (4, 4), (1, 9, 1), (12, 5, 20), (1,) * 6, (1,) * 64]
    out += [eig(clustered_matrix(rng, pattern, gap=0.5)) for pattern in sizes]
    return out


def rotate_within_blocks(rng: np.random.Generator, es: EigenSystem) -> EigenSystem:
    """Same eigendecomposition with each cluster basis replaced by a
    random rotation of itself (a different valid representative)."""
    u = es.u.copy()
    for b in es.blocks:
        if len(b) > 1:
            u[:, b] = u[:, b] @ random_orthogonal(rng, len(b))
    return EigenSystem(es.matrix, u, es.lam, es.cluster_tol)
