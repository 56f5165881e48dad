"""Matrix layer: validated symmetric matrices, clustered eigendecomposition,
shifted pseudoinverses, blockwise sorts, and the Fan gap."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specvar import (
    EigenSystem,
    SymMatrix,
    as_sym_array,
    block_sort_permutation,
    eig,
    random_orthogonal,
    random_symmetric,
)
from specvar.symmat import block_sort_order, cluster_means, fan_gap, pinv_shift, tie_width
from conftest import clustered_matrix, key_rng


class TestSymMatrix:
    def test_accepts_and_freezes_symmetric_input(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix(a)
        assert m.n == 2
        assert m.entries is not a and m.entries.tobytes() == a.tobytes()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0
        a[0, 0] = 9.0  # the caller's array is neither frozen nor aliased
        assert m.entries[0, 0] == 1.0

    def test_symmetrizes_asymmetric_input(self):
        m = SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]])

    def test_huge_entries_stay_finite(self, recwarn):
        # (A + A^T)/2 turned 1e308 into inf, and eigh then returned NaN
        es = eig(np.diag([1e308, 1.0]))
        assert es.lam.tolist() == [1e308, 1.0]
        m = SymMatrix(np.array([[1e308, 1e308], [-1e308, 0.0]]))
        assert m.entries.tolist() == [[1e308, 0.0], [0.0, 0.0]]
        assert not recwarn.list

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

    def test_raw_matrix_is_validated_once(self, monkeypatch):
        for bad, msg in (
            (np.zeros((2, 3)), "expected a nonempty square matrix, got shape \\(2, 3\\)"),
            (np.zeros((0, 0)), "expected a nonempty square matrix"),
            ([[1.0, np.inf], [0.0, 1.0]], "matrix entries must be finite"),
        ):
            with pytest.raises(ValueError, match=msg):
                eig(bad)
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(1) or isfinite(a))
        eig([[2.0, 1.0], [1.0, 0.0]])
        assert len(calls) == 1

    def test_cluster_views_agree_with_bounds(self):
        # bounds is the one cluster representation; the rest is read off it
        rng = key_rng(17)
        sizes = [(1,), (3,), (1, 1, 1), (2, 1), (1, 3, 1, 2), (4, 4), (1,) * 6]
        for k in range(21):
            es = eig(clustered_matrix(rng, sizes[k % len(sizes)], gap=0.5))
            b = es.bounds
            assert b.dtype == np.intp and not b.flags.writeable
            assert b[0] == 0 and b[-1] == es.n and np.all(np.diff(b) > 0)
            assert es.r == b.size - 1 == len(sizes[k % len(sizes)])
            assert es.blocks == tuple(range(b[m], b[m + 1]) for m in range(es.r))
            assert es.block_ids.tolist() == [m for m, blk in enumerate(es.blocks) for _ in blk]
            assert es.tied_blocks == [(m, blk) for m, blk in enumerate(es.blocks) if len(blk) > 1]
            for m, blk in enumerate(es.blocks):
                assert np.array_equal(es.block_basis(m), es.u[:, blk])
                assert np.ptp(es.lam[blk]) <= es.cluster_tol * len(blk)

    def test_distinct_spectra_share_their_bounds(self):
        # a report keeps es.bounds, so reports kept at distinct spectra of
        # one size hold one array between them
        a, b = eig(np.diag([3.0, 2.0, 1.0])), eig(np.diag([5.0, 0.0, -1.0]))
        assert a.bounds is b.bounds and a.bounds.tolist() == [0, 1, 2, 3]
        tied = eig(np.diag([1.0, 1.0, 0.0])).bounds
        assert tied is not a.bounds and tied.tolist() == [0, 2, 3]

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

    @pytest.mark.parametrize("ratio, ambiguous", [(0.4, False), (0.6, True), (1.75, True), (2.5, False)])
    def test_ambiguity_band_is_half_to_twice_the_tolerance(self, ratio, ambiguous):
        # the band's outer edge is 2 tol: a gap of 1.75 tol is a close call
        es = eig(np.diag([1.0, 1.0 - ratio * 1e-3, -1.0]), cluster_tol=1e-3)
        assert es.r == (2 if ratio < 1.0 else 3)
        assert es.ambiguous is ambiguous

    def test_default_cluster_tol_tracks_norm(self):
        assert eig(np.zeros((2, 2))).cluster_tol == pytest.approx(1e-8)
        assert eig(np.diag([9.0, 0.0])).cluster_tol == pytest.approx(1e-7)

    def test_rejects_bad_cluster_tol(self):
        with pytest.raises(ValueError):
            eig(np.eye(2), cluster_tol=0.0)

    def test_constructor_clusters_as_eig_does(self):
        # an EigenSystem is built from its matrix, basis, eigenvalues and
        # width; any orthonormal basis of each cluster gives eig's clusters
        rng = key_rng(63)
        cases = [eig(clustered_matrix(rng, sizes, gap=0.5)) for sizes in ((2, 1, 3), (4,), (1,) * 5)]
        cases.append(eig(np.diag([1.0, 1.0 - 1.75e-3, -1.0]), cluster_tol=1e-3))
        assert cases[-1].ambiguous and cases[2].r == cases[2].n
        for es in cases:
            u = es.u.copy()
            for b in es.blocks:
                u[:, b] = u[:, b] @ random_orthogonal(rng, len(b))
            got = EigenSystem(es.matrix, u, es.lam, es.cluster_tol)
            assert got.bounds.tobytes() == es.bounds.tobytes()
            assert got.mu.tobytes() == es.mu.tobytes()
            assert got.ambiguous is es.ambiguous and got.lam is es.lam
            assert (got.mu is got.lam) == (es.mu is es.lam) == (es.r == es.n)
        with pytest.raises(ValueError):
            EigenSystem(es.matrix, u, es.lam, 0.0)


class TestClusterMeans:
    def test_a_sum_past_the_float_maximum_keeps_its_mean_finite(self, recwarn):
        # the pair summed to inf before dividing, with an overflow warning
        es = eig(np.diag([1.7e308, 1.7e308, 1.6e308]))
        assert es.bounds.tolist() == [0, 2, 3] and len(recwarn) == 0
        # eigh rescales a matrix this large, so lam is 1.7e308 to rounding
        assert es.lam[1] <= es.mu[0] <= es.lam[0] and es.mu[1] == es.lam[2]
        assert es.mu[0] == pytest.approx(1.7e308, rel=1e-15)
        lam = np.array([-1.7e308, -1.7e308, -1.7e308, 1.0, 1.0])
        means = cluster_means(lam, np.array([0, 3, 5]))
        assert means[0] == pytest.approx(-1.7e308, rel=1e-15) and means[1] == 1.0

    def test_finite_sums_are_divided_as_before(self):
        rng = key_rng(62)
        for sizes in ((2, 1, 3), (4,), (1, 1, 5, 2)):
            es = eig(clustered_matrix(rng, sizes, gap=0.5))
            want = np.add.reduceat(es.lam, es.bounds[:-1]) / np.diff(es.bounds)
            assert cluster_means(es.lam, es.bounds).tobytes() == want.tobytes()


def shortcut_cases():
    """Seeded distinct spectra at n = 1, 2, 5, 64, where eig reads every
    cluster object off lam, and one clustered draw, which keeps the
    general forms."""
    rng = key_rng(60)
    out = [eig(random_symmetric(rng, n)) for n in (1, 2, 5, 64)]
    assert all(es.r == es.n for es in out)
    out.append(eig(clustered_matrix(rng, (2, 1, 3), gap=0.5)))
    return out


class TestSingletonShortcuts:
    """At a spectrum of singleton clusters each cluster object is read off
    lam; every one is bit-equal to the general form that clustered spectra
    keep."""

    @pytest.mark.parametrize("es", shortcut_cases(), ids=lambda es: f"n{es.n}-r{es.r}")
    def test_cluster_objects_match_the_general_forms(self, es):
        b = es.bounds
        assert es.mu.tobytes() == cluster_means(es.lam, b).tobytes()
        tied = [(m, range(b[m], b[m + 1])) for m in range(es.r) if b[m + 1] - b[m] > 1]
        assert es.tied_blocks == tied
        assert (es.tied_blocks == []) == (es.r == es.n)
        assert (es.mu is es.lam) == (es.r == es.n)
        assert es.position_means.tobytes() == es.mu[es.block_ids].tobytes()
        assert es.cluster_tol == tie_width(float(np.abs(es.lam).max()))

    @pytest.mark.parametrize("es", shortcut_cases(), ids=lambda es: f"n{es.n}-r{es.r}")
    def test_block_sort_matches_the_general_form(self, es):
        rng = key_rng(61, es.n)
        # continuous weights, and small integers for ties the sort must keep
        for y in (rng.standard_normal(es.n), rng.integers(-1, 2, es.n).astype(float)):
            v = block_sort_permutation(y, es)
            assert v.tobytes() == y[block_sort_order(y, es.bounds)].tobytes()
            assert not np.shares_memory(v, y)


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
