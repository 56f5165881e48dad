"""The eigenbasis (divided-difference) formulas for the curvature term, the
leading-eigenvalue second subderivative and the second-order eigenvalue
prediction, against the dense shifted pseudoinverses of ``pinv_shift``."""
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specvar import (
    OrderStat,
    curvature_correction,
    eig,
    eig_second_prediction,
    leading_eig_second_subderivative,
    matrix_with_spectrum,
    random_symmetric,
    spectral_second_subderivative,
    spectral_subgradient,
)
from specvar.symmat import pinv_shift
from conftest import aligned_direction, key_rng

REL = 1e-10
TOL = 1e-6  # cluster_tol of the instances, well above the penalties' tie tolerance


def desc_eigvals(a):
    return np.sort(np.linalg.eigvalsh((a + a.T) / 2.0))[::-1]


def dense_pinv(es, m, absolute=False):
    p = pinv_shift(es, m).entries
    if not absolute:
        return p
    d = np.abs(np.diag(es.u.T @ p @ es.u))
    return es.u @ np.diag(d) @ es.u.T


def curvature_scale(es, y, h):
    """2 sum_m < Diag(y)_mm, U_m^T H (mu_m I - X)^+ H U_m > with every term
    replaced by its absolute value."""
    total = 0.0
    for m, b in enumerate(es.blocks):
        um = es.block_basis(m)
        core = um.T @ h @ dense_pinv(es, m, absolute=True) @ h @ um
        total += 2.0 * float(np.abs(y[b]) @ np.diag(core))
    return total


def exact_curvature(es, y, h):
    """2 sum_m < Diag(y)_mm, U_m^T H (mu_m I - X)^+ H U_m >, with
    (mu_m I - X)^+ assembled as pinv_shift does, in exact rational
    arithmetic on the floats es.u, es.mu, y and h: the reference adds no
    rounding of its own, which a float evaluation does at cluster gaps near
    1e-6."""
    rational = np.vectorize(Fraction, otypes=[object])
    u, hq, yq = rational(es.u), rational(h), rational(y)
    mu = [Fraction(v) for v in es.mu]
    total = Fraction(0)
    for m, b in enumerate(es.blocks):
        pm = np.zeros((es.n, es.n), dtype=object)
        for s, c in enumerate(es.blocks):
            if s != m:
                pm = pm + (u[:, c] @ u[:, c].T) / (mu[m] - mu[s])
        core = u[:, b].T @ hq @ pm @ hq @ u[:, b]
        total += 2 * (yq[b] @ np.diag(core))
    return total


def dense_prediction(es, h, t):
    out = np.empty(es.n)
    th = t * h
    for m, b in enumerate(es.blocks):
        um = es.block_basis(m)
        core = um.T @ th @ um + um.T @ th @ dense_pinv(es, m) @ th @ um
        out[b] = es.mu[m] + desc_eigvals(core)
    return out


def instance(seed, n, near_tol):
    """Eigensystem with n eigenvalues whose consecutive gaps are exact ties,
    O(1) gaps, or (with ``near_tol``) gaps in [0.5, 2] * cluster_tol, the
    band where the clustering is a close call."""
    rng = key_rng(31, seed)
    gaps = []
    for _ in range(n - 1):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            gaps.append(0.0)
        elif kind == 1 and near_tol:
            gaps.append(float(rng.uniform(0.5, 2.0)) * TOL)
        else:
            gaps.append(float(rng.uniform(0.3, 1.5)))
    lam = float(rng.uniform(-1.0, 1.0)) - np.concatenate([[0.0], np.cumsum(gaps)])
    x, _ = matrix_with_spectrum(rng, lam)
    return rng, eig(x, cluster_tol=TOL)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000), st.booleans())
@example(3, 1883, True)  # the float dense reference is off by 3.9e-11 here
@example(2, 685, True)
def test_curvature_matches_dense_reference(n, seed, near_tol):
    rng, es = instance(seed, n, near_tol)
    y = rng.standard_normal(n)
    h = random_symmetric(rng, n)
    scale = curvature_scale(es, y, h)
    err = abs(Fraction(curvature_correction(es, y, h)) - exact_curvature(es, y, h))
    assert err <= REL * scale


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000), st.booleans())
def test_prediction_matches_dense_reference(n, seed, near_tol):
    rng, es = instance(seed, n, near_tol)
    h = random_symmetric(rng, n)
    for t in (1e-2, 1e-4):
        want = dense_prediction(es, h, t)
        got = eig_second_prediction(es, h, t)
        assert np.max(np.abs(got - want)) <= REL * (1.0 + np.max(np.abs(want)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000), st.booleans(), st.booleans())
def test_leading_eigenvalue_matches_dense_reference(n, seed, near_tol, last):
    """Order statistic leading a cluster, one-hot weight at its start and a
    critical direction; ``last`` picks the bottom cluster, which is
    OrderStat(rank=n) when that cluster is a singleton."""
    rng, es = instance(seed, n, near_tol)
    m = es.r - 1 if last else int(rng.integers(0, es.r))
    b = es.blocks[m]
    theta = OrderStat(rank=b.start + 1)
    y = np.zeros(n)
    y[b.start] = 1.0
    triple = spectral_subgradient(theta, es, y)
    h = aligned_direction(rng, es)
    got = leading_eig_second_subderivative(es, m + 1, triple, h)
    assert got.is_finite
    pm = dense_pinv(es, m)
    want = 2.0 * float(np.vdot(triple.matrix.entries, h @ pm @ h))
    scale = 2.0 * float(np.vdot(np.abs(triple.matrix.entries), np.abs(h @ dense_pinv(es, m, True) @ h)))
    assert abs(float(got) - want) <= REL * scale
    general = spectral_second_subderivative(theta, es, triple, h).d2
    assert abs(float(general) - want) <= REL * scale


def test_order_stat_rank_n():
    rng = key_rng(32)
    x, _ = matrix_with_spectrum(rng, np.array([2.0, 1.0, 1.0, -0.5]))
    es = eig(x)
    triple = spectral_subgradient(OrderStat(rank=4), es, [0.0, 0.0, 0.0, 1.0])
    h = aligned_direction(rng, es)
    got = leading_eig_second_subderivative(es, es.r, triple, h)
    want = 2.0 * float(np.vdot(triple.matrix.entries, h @ pinv_shift(es, es.r - 1).entries @ h))
    assert got.is_finite and abs(float(got) - want) <= REL * (1.0 + abs(want))
    assert float(spectral_second_subderivative(OrderStat(rank=4), es, triple, h).d2) == float(got)


def test_scalar_identity_has_no_curvature():
    rng = key_rng(33)
    for n in (1, 2, 4):
        es = eig(1.3 * np.eye(n))
        assert es.r == 1
        h = random_symmetric(rng, n)
        assert curvature_correction(es, rng.standard_normal(n), h) == 0.0
        t = 1e-3
        want = es.mu[0] + desc_eigvals(t * h)
        assert np.max(np.abs(eig_second_prediction(es, h, t) - want)) <= 1e-15
        y = np.zeros(n)
        y[0] = 1.0
        triple = spectral_subgradient(OrderStat(rank=1), es, y)
        got = leading_eig_second_subderivative(es, 1, triple, aligned_direction(rng, es))
        assert got.is_finite and float(got) == 0.0
