"""Matrix layer: validated symmetric matrices, clustered eigendecomposition,
shifted pseudoinverses, blockwise sorts, and the Fan gap."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specvar import (
    SymMatrix,
    as_sym_array,
    block_sort_permutation,
    eig,
    fan_gap,
    pinv_shift,
)
from specvar.symmat import block_sort_order
from conftest import clustered_matrix, key_rng


class TestSymMatrix:
    def test_accepts_and_freezes_symmetric_input(self):
        m = SymMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert m.n == 2
        assert m.asymmetry == 0.0
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0

    def test_symmetrizes_and_records_asymmetry(self):
        m = SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]])
        assert m.asymmetry == pytest.approx(1.0)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_sym_array(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            as_sym_array(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            as_sym_array(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((0, 0)))


class TestEig:
    def test_identity_is_one_cluster(self):
        es = eig(np.eye(3))
        assert es.r == 1
        assert es.blocks == (range(0, 3),)
        assert np.allclose(es.lam, 1.0)
        assert es.mu[0] == pytest.approx(1.0)

    def test_two_clusters(self):
        es = eig(np.diag([3.0, 1.0, 1.0]))
        assert [list(b) for b in es.blocks] == [[0], [1, 2]]
        assert np.allclose(es.mu, [3.0, 1.0])
        assert np.allclose(es.lam, [3.0, 1.0, 1.0])

    def test_eigenvalues_nonincreasing_and_orthonormal_basis(self):
        rng = key_rng(11)
        for k in range(20):
            x = clustered_matrix(rng, (2, 1, 3), gap=0.5)
            es = eig(x)
            assert np.all(np.diff(es.lam) <= 1e-12)
            assert np.max(np.abs(es.u.T @ es.u - np.eye(es.n))) <= 1e-10

    def test_reconstruction_accuracy(self):
        rng = key_rng(12)
        for k in range(20):
            x = clustered_matrix(rng, (1, 2), gap=1.0)
            es = eig(x)
            err = np.max(np.abs(es.u @ np.diag(es.lam) @ es.u.T - x))
            assert err <= 1e-9 * (1.0 + np.abs(x).max())

    def test_ambiguous_flag_and_split_near_tolerance(self):
        # gap of 1.5 tol: split into two clusters, flagged as a close call
        x = np.diag([1.5e-8, 0.0])
        es = eig(x, cluster_tol=1e-8)
        assert es.r == 2
        assert es.ambiguous
        # gap of 0.7 tol: merged, still flagged
        x = np.diag([0.7e-8, 0.0])
        es = eig(x, cluster_tol=1e-8)
        assert es.r == 1
        assert es.ambiguous
        # wide gap: clean split
        es = eig(np.diag([1.0, 0.0]), cluster_tol=1e-8)
        assert es.r == 2
        assert not es.ambiguous

    def test_default_cluster_tol_tracks_norm(self):
        assert eig(np.zeros((2, 2))).cluster_tol == pytest.approx(1e-8)
        assert eig(np.diag([9.0, 0.0])).cluster_tol == pytest.approx(1e-7)

    def test_rejects_bad_cluster_tol(self):
        with pytest.raises(ValueError):
            eig(np.eye(2), cluster_tol=0.0)


class TestPinvShift:
    def test_two_by_two_example(self):
        es = eig(np.diag([2.0, 1.0]))
        assert np.allclose(pinv_shift(es, 0).entries, np.diag([0.0, 1.0]))
        assert np.allclose(pinv_shift(es, 1).entries, np.diag([-1.0, 0.0]))

    def test_moore_penrose_axioms(self):
        rng = key_rng(13)
        for k in range(10):
            x = clustered_matrix(rng, (2, 1, 1), gap=0.8)
            es = eig(x)
            for m in range(es.r):
                a = es.mu[m] * np.eye(es.n) - x
                p = pinv_shift(es, m).entries
                scale = 1.0 + np.abs(a).max()
                assert np.max(np.abs(a @ p @ a - a)) <= 1e-8 * scale
                assert np.max(np.abs(p @ a @ p - p)) <= 1e-8 * scale
                assert np.max(np.abs((a @ p) - (a @ p).T)) <= 1e-9 * scale
                assert np.max(np.abs((p @ a) - (p @ a).T)) <= 1e-9 * scale

    def test_vanishes_on_own_cluster(self):
        rng = key_rng(14)
        x = clustered_matrix(rng, (2, 2), gap=1.0)
        es = eig(x)
        p = pinv_shift(es, 0).entries
        u0 = es.block_basis(0)
        assert np.max(np.abs(p @ u0)) <= 1e-10

    def test_index_range(self):
        es = eig(np.diag([2.0, 1.0]))
        with pytest.raises(IndexError):
            pinv_shift(es, 2)


def block_order(y, es):
    """The index array block_sort_permutation sorts y by."""
    return block_sort_order(np.asarray(y, dtype=float), [b.start for b in es.blocks] + [es.n])


class TestBlockSort:
    def test_sorts_within_single_cluster(self):
        es = eig(np.eye(3))
        v = block_sort_permutation([0.0, 1.0, 0.5], es)
        perm = block_order([0.0, 1.0, 0.5], es)
        assert np.allclose(v, [1.0, 0.5, 0.0])
        assert np.allclose(np.array([0.0, 1.0, 0.5])[perm], v)
        assert np.allclose(v[np.argsort(perm)], [0.0, 1.0, 0.5])

    def test_never_mixes_clusters(self):
        es = eig(np.diag([3.0, 1.0, 1.0]))
        v = block_sort_permutation([0.0, 0.2, 0.9], es)
        assert np.allclose(v, [0.0, 0.9, 0.2])

    def test_permutation_matrix_is_orthogonal(self):
        rng = key_rng(15)
        x = clustered_matrix(rng, (2, 3), gap=1.0)
        es = eig(x)
        y = rng.standard_normal(es.n)
        v = block_sort_permutation(y, es)
        perm = block_order(y, es)
        # a permutation of range(n), so its 0/1 matrix is orthogonal, and
        # one that maps every cluster's index range to itself
        assert np.array_equal(np.sort(perm), np.arange(es.n))
        for b in es.blocks:
            assert set(perm[b].tolist()) == set(b)
        # sorted within each cluster
        for b in es.blocks:
            assert np.all(np.diff(v[b]) <= 0.0)

    def test_stable_on_ties(self):
        es = eig(np.eye(3))
        assert np.array_equal(block_order([0.5, 0.5, 0.5], es), np.arange(3))

    def test_eigenvalues_fixed_by_block_permutation(self):
        rng = key_rng(16)
        x = clustered_matrix(rng, (2, 2), gap=1.0)
        es = eig(x)
        y = rng.standard_normal(es.n)
        perm = block_order(y, es)
        assert np.max(np.abs(es.lam[perm] - es.lam)) <= 1e-12


class TestFanGap:
    def test_pinned_value(self):
        assert fan_gap(np.diag([2.0, 1.0]), np.diag([0.0, 3.0])) == pytest.approx(3.0)

    def test_zero_for_comonotone_diagonals(self):
        assert fan_gap(np.diag([2.0, 1.0]), np.diag([5.0, 3.0])) == pytest.approx(0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rng = key_rng(17, seed)
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        g = fan_gap((a + a.T) / 2.0, (b + b.T) / 2.0)
        assert g >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fan_gap(np.eye(2), np.eye(3))
