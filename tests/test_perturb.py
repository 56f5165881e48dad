"""Directional derivatives and second-order predictions of ordered
eigenvalues under symmetric perturbations."""
import numpy as np
import pytest

from specvar import (
    eig,
    eig_dir_derivative,
    eig_second_prediction,
    random_symmetric,
)
from specvar.perturb import _rotate
from conftest import clustered_matrix, family_eigensystems, key_rng, rotate_within_blocks


def sorted_desc(a):
    return np.sort(np.linalg.eigvalsh(a))[::-1]


class TestDirectionalDerivative:
    def test_simple_spectrum_gives_rayleigh_quotients(self):
        rng = key_rng(21)
        x = clustered_matrix(rng, (1, 1, 1, 1), gap=0.7)
        es = eig(x)
        h = random_symmetric(rng, 4)
        d = eig_dir_derivative(es, h)
        expected = np.array([es.u[:, i] @ h @ es.u[:, i] for i in range(4)])
        assert np.allclose(d, expected, atol=1e-12)

    def test_identity_base_point_gives_spectrum_of_direction(self):
        rng = key_rng(22)
        h = random_symmetric(rng, 4)
        es = eig(np.eye(4))
        d = eig_dir_derivative(es, h)
        assert np.allclose(d, sorted_desc(h), atol=1e-12)

    def test_blockwise_structure(self):
        rng = key_rng(23)
        h = random_symmetric(rng, 3)
        es = eig(np.diag([2.0, 1.0, 1.0]))
        d = eig_dir_derivative(es, h)
        assert es.r == 2
        u1 = es.block_basis(1)
        assert np.allclose(d[es.blocks[1]], sorted_desc(u1.T @ h @ u1))
        # per-block pieces are nonincreasing
        for b in es.blocks:
            assert np.all(np.diff(d[b]) <= 1e-12)

    def test_matches_finite_differences(self):
        rng = key_rng(24)
        for k in range(5):
            x = clustered_matrix(rng, (2, 1), gap=1.0)
            es = eig(x)
            h = random_symmetric(rng, 3)
            d = eig_dir_derivative(es, h)
            t = 1e-6
            fd = (sorted_desc(x + t * h) - sorted_desc(x)) / t
            assert np.max(np.abs(fd - d)) <= 1e-5

    def test_positive_homogeneity(self):
        rng = key_rng(25)
        x = clustered_matrix(rng, (2, 2), gap=1.0)
        es = eig(x)
        h = random_symmetric(rng, 4)
        d1 = eig_dir_derivative(es, h)
        d3 = eig_dir_derivative(es, 3.0 * h)
        assert np.allclose(d3, 3.0 * d1, atol=1e-12)

    def test_invariant_under_block_basis_choice(self):
        rng = key_rng(26)
        for k in range(5):
            x = clustered_matrix(rng, (2, 3), gap=1.0)
            es = eig(x)
            h = random_symmetric(rng, 5)
            d = eig_dir_derivative(es, h)
            d_rot = eig_dir_derivative(rotate_within_blocks(rng, es), h)
            assert np.max(np.abs(d - d_rot)) <= 1e-9

    def test_dimension_mismatch(self):
        es = eig(np.eye(2))
        with pytest.raises(ValueError):
            eig_dir_derivative(es, np.eye(3))


class TestSecondPrediction:
    def test_zero_direction_returns_spectrum(self):
        es = eig(np.diag([2.0, 1.0]))
        p = eig_second_prediction(es, np.zeros((2, 2)), 1e-3)
        assert np.allclose(p, [2.0, 1.0], atol=1e-15)

    def test_off_diagonal_coupling_value(self):
        # top eigenvalue of [[2, t], [t, 1]] is 2 + t^2/(2-1) + O(t^4)
        es = eig(np.diag([2.0, 1.0]))
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = 1e-3
        p = eig_second_prediction(es, h, t)
        assert p[0] == pytest.approx(2.0 + 1e-6, abs=1e-12)
        assert p[1] == pytest.approx(1.0 - 1e-6, abs=1e-12)
        exact = sorted_desc(np.diag([2.0, 1.0]) + t * h)
        assert np.max(np.abs(p - exact)) <= 1e-11

    def test_cubic_residual_decay(self):
        rng = key_rng(27)
        x = clustered_matrix(rng, (2, 2), gap=1.0)
        es = eig(x)
        h = random_symmetric(rng, 4, frob=2.0)
        ts = np.array([1e-2, 1e-3, 1e-4])
        res = np.array(
            [
                np.linalg.norm(sorted_desc(x + t * h) - eig_second_prediction(es, h, t))
                for t in ts
            ]
        )
        slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
        assert 2.7 <= slope <= 3.3


def masked_inv_gap(es):
    """1 / (mu_b(j) - mu_b(k)) off the clusters and 0 within them, by a
    masked divide: the reference for _rotate's 1 / gap with +inf gaps."""
    ids = np.repeat(np.arange(es.r), np.diff(es.bounds))
    mu = es.mu[ids]
    out = np.zeros((es.n, es.n))
    np.divide(1.0, mu[:, None] - mu[None, :], out=out, where=ids[:, None] != ids[None, :])
    return out


def test_inv_gap_matches_the_masked_divide():
    rng = key_rng(28)
    tiny = [eig(random_symmetric(key_rng(62, n), n)) for n in (1, 2, 5)]  # distinct, r = n
    for es in family_eigensystems(rng) + tiny:
        rot = _rotate(es, random_symmetric(rng, es.n))
        assert rot.inv_gap.tobytes() == masked_inv_gap(es).tobytes(), es.bounds
        assert not np.signbit(rot.inv_gap[es.block_ids[:, None] == es.block_ids[None, :]]).any()
