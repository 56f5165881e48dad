"""Assembly layer: values, subgradient triples, first- and second-order
directional analysis, cone membership, and the prox map of the lifted
penalties, including the closed-form leading-eigenvalue shortcut."""
import numpy as np
import pytest

from specvar import (
    POS_INF,
    ExtReal,
    InvalidSubgradientError,
    McpSum,
    OrderStat,
    QuotientProbe,
    SmoothSep,
    EigGapMax,
    SubgradientTriple,
    SymMatrix,
    UnsupportedPointError,
    critical_cone_member,
    curvature_correction,
    eig,
    fan_block_gaps,
    leading_eig_second_subderivative,
    matrix_with_spectrum,
    prox_directional_derivative,
    random_orthogonal,
    random_symmetric,
    second_semiderivative,
    spectral_prox,
    spectral_second_subderivative,
    spectral_subderivative,
    spectral_subgradient,
    spectral_value,
    subderivative_gap,
)
from specvar.spectral import SEMIDERIV_CHECK_RTOL
from specvar.symfun import spec_to_json
from specvar.symmat import block_sort_order, tie_width
from conftest import (
    CRITICAL_KINDS,
    aligned_direction,
    any_critical_instance,
    clustered_matrix,
    critical_instance,
    embedded_weights,
    key_rng,
    noncritical_instance,
    order_stat_block_instance,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])
OFFDIAG_4 = np.kron(np.eye(2), OFFDIAG)


def prox_objective(theta, gamma, x, p):
    lam = np.sort(np.linalg.eigvalsh(p))[::-1]
    return theta.value(lam) + float(np.vdot(p - x, p - x)) / (2.0 * gamma)


class TestValue:
    def test_pinned(self):
        assert spectral_value(McpSum(a=2.0, c=1.0), np.diag([3.0, 0.0])) == pytest.approx(1.0)
        assert spectral_value(EigGapMax(), np.diag([4.0, 1.0, 0.0])) == pytest.approx(3.0)

    def test_order_stat_is_top_eigenvalue(self):
        rng = key_rng(1)
        x = random_symmetric(rng, 5)
        top = float(np.max(np.linalg.eigvalsh(x)))
        assert spectral_value(OrderStat(rank=1), x) == pytest.approx(top, abs=1e-12)

    def test_orthogonal_invariance(self):
        rng = key_rng(2)
        kinds = [OrderStat(rank=2), McpSum(a=2.0, c=1.0), EigGapMax(), SmoothSep(coeff=1.0)]
        for k in range(8):
            x = random_symmetric(rng, 4)
            v = random_orthogonal(rng, 4)
            xc = v.T @ x @ v
            for theta in kinds:
                assert spectral_value(theta, xc) == pytest.approx(
                    spectral_value(theta, x), abs=1e-10
                )


class TestSubgradientTriple:
    def test_distinct_spectrum(self):
        tr = spectral_subgradient(OrderStat(rank=1), np.diag([2.0, 1.0]), [1.0, 0.0])
        np.testing.assert_allclose(tr.y, [1.0, 0.0])
        np.testing.assert_allclose(tr.v, [1.0, 0.0])
        np.testing.assert_allclose(tr.matrix.entries, np.diag([1.0, 0.0]), atol=1e-12)
        # all clusters are singletons, so the block permutation is trivial
        np.testing.assert_array_equal(block_sort_order(tr.y, [0, 1, 2]), [0, 1])

    def test_tied_block_sorts_weights(self):
        tr = spectral_subgradient(OrderStat(rank=1), np.eye(2), [0.0, 1.0])
        np.testing.assert_allclose(tr.v, [1.0, 0.0])
        m = tr.matrix.entries
        # embedded matrix is the rank-one projector onto one eigenvector
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        assert np.trace(m) == pytest.approx(1.0)

    def test_smooth_gradient_embeds_to_x(self):
        x = np.diag([2.0, 1.0])
        tr = spectral_subgradient(SmoothSep(coeff=1.0), x)
        np.testing.assert_allclose(tr.matrix.entries, x, atol=1e-12)

    def test_canonical_default_is_lexicographic_vertex(self):
        tr = spectral_subgradient(OrderStat(rank=1), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(tr.y, [1.0, 0.0])
        tied = spectral_subgradient(OrderStat(rank=1), 2.0 * np.eye(2))
        np.testing.assert_allclose(tied.y, [0.0, 1.0])
        np.testing.assert_allclose(tied.v, [1.0, 0.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            spectral_subgradient(OrderStat(rank=1), np.diag([2.0, 1.0]), [1.0, 0.0, 0.0])
        with pytest.raises(InvalidSubgradientError):
            spectral_subgradient(OrderStat(rank=1), np.diag([2.0, 1.0]), [0.0, 1.0])


class TestSubderivative:
    def test_top_eigenvalue_at_identity(self):
        rng = key_rng(3)
        for k in range(5):
            h = random_symmetric(rng, 3)
            want = float(np.max(np.linalg.eigvalsh(h)))
            assert spectral_subderivative(OrderStat(rank=1), np.eye(3), h) == pytest.approx(
                want, abs=1e-10
            )

    def test_smooth_chain_rule(self):
        rng = key_rng(4)
        x = random_symmetric(rng, 4)
        h = random_symmetric(rng, 4)
        assert spectral_subderivative(SmoothSep(coeff=1.0), x, h) == pytest.approx(
            float(np.vdot(x, h)), rel=1e-9
        )

    def test_offdiagonal_direction_at_distinct_spectrum(self):
        assert spectral_subderivative(OrderStat(rank=1), np.diag([2.0, 1.0]), OFFDIAG) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_matches_forward_difference(self):
        rng = key_rng(5)
        theta = OrderStat(rank=1)
        t = 1e-6
        for k in range(4):
            x = clustered_matrix(rng, (2, 1))
            h = random_symmetric(rng, 3)
            dg = spectral_subderivative(theta, x, h)
            quot = (spectral_value(theta, x + t * h) - spectral_value(theta, x)) / t
            assert dg == pytest.approx(quot, abs=1e-5)

    def test_gap_to_pairing_is_nonnegative(self):
        rng = key_rng(6)
        for k in range(20):
            theta, es, y, h = any_critical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            hr = random_symmetric(rng, es.n)
            for d in (h, hr):
                assert subderivative_gap(theta, es, triple, d) >= -1e-9


class TestCurvatureCorrection:
    def test_single_cluster_vanishes(self):
        rng = key_rng(7)
        x = 1.7 * np.eye(3)
        y = rng.uniform(size=3)
        h = random_symmetric(rng, 3)
        assert curvature_correction(x, y, h) == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two_hand_value(self):
        corr = curvature_correction(np.diag([2.0, 1.0]), [1.0, 0.0], OFFDIAG)
        assert corr == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_in_direction(self):
        rng = key_rng(8)
        x = clustered_matrix(rng, (2, 2))
        y = rng.uniform(size=4)
        h = random_symmetric(rng, 4)
        base = curvature_correction(x, y, h)
        assert curvature_correction(x, y, 3.0 * h) == pytest.approx(9.0 * base, rel=1e-12)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            curvature_correction(np.diag([2.0, 1.0]), [1.0, 0.0, 0.0], OFFDIAG)


class TestCriticalCone:
    def test_commuting_shift_is_critical(self):
        rng = key_rng(9)
        for kind in CRITICAL_KINDS:
            theta, es, y, _ = critical_instance(rng, kind)
            triple = spectral_subgradient(theta, es, y)
            h = 0.5 * es.matrix.entries + 0.7 * np.eye(es.n)
            assert critical_cone_member(theta, es, triple, h)
            assert abs(subderivative_gap(theta, es, triple, h)) <= 1e-7

    def test_zero_direction_is_critical(self):
        rng = key_rng(10)
        theta, es, y, _ = any_critical_instance(rng)
        triple = spectral_subgradient(theta, es, y)
        assert critical_cone_member(theta, es, triple, np.zeros((es.n, es.n)))

    def test_fan_condition_fails_on_rotating_direction(self):
        es = eig(np.eye(2))
        y = embedded_weights(es, np.diag([1.0, 0.0]))
        triple = spectral_subgradient(OrderStat(rank=1), es, y)
        assert not critical_cone_member(OrderStat(rank=1), es, triple, OFFDIAG)
        gaps = fan_block_gaps(es, y, OFFDIAG)
        assert gaps.max() == pytest.approx(1.0, abs=1e-12)
        assert subderivative_gap(OrderStat(rank=1), es, triple, OFFDIAG) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_fan_gaps_weight_length_checked(self):
        # a third weight used to be dropped silently
        with pytest.raises(ValueError):
            fan_block_gaps(np.eye(2), [1.0, 0.0, 5.0], np.eye(2))

    def test_structural_equals_definitional(self):
        rng = key_rng(11)
        for k in range(30):
            theta, es, y, h = any_critical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            for d in (h, random_symmetric(rng, es.n)):
                gap = subderivative_gap(theta, es, triple, d)
                if critical_cone_member(theta, es, triple, d):
                    assert abs(gap) <= 1e-7
                elif abs(gap) > 1e-4:
                    assert not critical_cone_member(theta, es, triple, d)


class TestSecondSubderivative:
    def test_flagship_report(self):
        x = np.diag([2.0, 1.0])
        theta = OrderStat(rank=1)
        triple = spectral_subgradient(theta, x, [1.0, 0.0])
        probe = QuotientProbe(t_grid=(1e-3, 1e-4), radius=0.5, samples=64, seed=0)
        rep = spectral_second_subderivative(theta, x, triple, OFFDIAG, probe=probe)
        assert rep.value == pytest.approx(2.0)
        assert rep.block_ranges == ((0, 1), (1, 2))
        assert rep.dg == pytest.approx(0.0, abs=1e-12)
        assert rep.pairing == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.eig_dir, [0.0, 0.0], atol=1e-12)
        assert rep.in_critical_cone
        assert rep.theta_d2 == 0.0
        assert rep.curvature_correction == pytest.approx(2.0, abs=1e-12)
        assert rep.d2.is_finite and float(rep.d2) == pytest.approx(2.0, abs=1e-12)
        assert rep.oracle_d2 is not None and rep.oracle_gap <= 1e-2

    def test_derived_fields_match_their_sources(self):
        # theta, cluster_values and v are computed on access, not stored
        rng = key_rng(4245)
        for sizes, block, interior in (((1, 3), 1, True), ((2, 2), 0, True), ((1, 1, 1), 1, False)):
            es, theta, y = order_stat_block_instance(rng, sizes, block, interior)
            b = es.blocks[block]
            y[b] = np.sort(y[b])  # nondecreasing inside the cluster, so v != y
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, aligned_direction(rng, es))
            assert rep.theta == spec_to_json(theta)
            assert rep.cluster_values.tolist() == es.mu.tolist()
            assert rep.v.tolist() == triple.v.tolist()
            assert rep.y.tolist() == triple.y.tolist()
            assert (rep.v.tolist() != rep.y.tolist()) == interior

    def test_tied_block_zero_direction_quotient(self):
        es = eig(np.eye(2))
        y = embedded_weights(es, np.diag([1.0, 0.0]))
        triple = spectral_subgradient(OrderStat(rank=1), es, y)
        rep = spectral_second_subderivative(OrderStat(rank=1), es, triple, np.diag([1.0, 0.0]))
        assert rep.in_critical_cone
        assert rep.d2.is_finite and float(rep.d2) == pytest.approx(0.0, abs=1e-12)

    def test_mcp_at_zero_matrix(self):
        theta = McpSum(a=2.0, c=1.0)
        x = np.zeros((2, 2))
        triple = spectral_subgradient(theta, x, [1.0, 1.0])
        rep = spectral_second_subderivative(theta, x, triple, np.eye(2))
        np.testing.assert_allclose(rep.eig_dir, [1.0, 1.0], atol=1e-12)
        assert rep.in_critical_cone
        assert float(rep.d2) == pytest.approx(-1.0, abs=1e-12)
        assert rep.curvature_correction == pytest.approx(0.0, abs=1e-15)

    def test_gate_forces_infinite_value(self):
        # theta-level finite second subderivative, but the Fan condition
        # fails, so the assembled value must be +inf
        es = eig(np.eye(2))
        y = embedded_weights(es, np.diag([1.0, 0.0]))
        triple = spectral_subgradient(OrderStat(rank=1), es, y)
        rep = spectral_second_subderivative(OrderStat(rank=1), es, triple, OFFDIAG)
        assert not rep.in_critical_cone
        assert rep.theta_d2 == 0.0
        assert rep.d2 == POS_INF

    def test_finite_implies_cone_and_homogeneous(self):
        rng = key_rng(12)
        for k in range(20):
            theta, es, y, h = any_critical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h)
            if rep.d2.is_finite:
                assert rep.in_critical_cone
                scaled = spectral_second_subderivative(theta, es, triple, 2.5 * h)
                assert float(scaled.d2) == pytest.approx(
                    6.25 * float(rep.d2), rel=1e-10, abs=1e-10
                )
            else:
                scaled = spectral_second_subderivative(theta, es, triple, 2.5 * h)
                assert scaled.d2 == POS_INF

    def test_rejects_hand_built_invalid_triple(self):
        # spectral_subgradient would refuse y; the d2 checks it again itself
        x = np.diag([2.0, 1.0])
        y = np.array([0.0, 1.0])
        triple = SubgradientTriple(y=y, v=y, matrix=SymMatrix(np.diag(y)))
        with pytest.raises(InvalidSubgradientError):
            spectral_second_subderivative(OrderStat(rank=1), x, triple, OFFDIAG)
        with pytest.raises(InvalidSubgradientError):
            critical_cone_member(OrderStat(rank=1), x, triple, OFFDIAG)

    def test_noncritical_directions_report_infinite(self):
        rng = key_rng(13)
        for k in range(5):
            theta, es, y, h = noncritical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h)
            assert not rep.in_critical_cone
            assert rep.d2 == POS_INF

    def test_transfer_to_diagonal_representative(self):
        # evaluating at Diag(spectrum) with the conjugated direction gives
        # the same value as evaluating at X itself
        rng = key_rng(14)
        for kind in ("vertex", "smooth"):
            for k in range(5):
                theta, es, y, h = critical_instance(rng, kind)
                triple = spectral_subgradient(theta, es, y)
                rep = spectral_second_subderivative(theta, es, triple, h)

                lam_mat = np.diag(es.lam)
                es2 = eig(lam_mat)
                y2 = embedded_weights(es2, np.diag(y))
                triple2 = spectral_subgradient(theta, es2, y2)
                w = es.u.T @ h @ es.u
                w = (w + w.T) / 2.0
                rep2 = spectral_second_subderivative(theta, es2, triple2, w)

                assert rep.d2.is_finite == rep2.d2.is_finite
                if rep.d2.is_finite:
                    assert float(rep2.d2) == pytest.approx(
                        float(rep.d2), rel=1e-8, abs=1e-8
                    )

    def test_sorted_versus_raw_weights_inside_theta(self):
        # the penalty-level term may be taken at the sorted weights and the
        # permuted direction interchangeably
        rng = key_rng(15)
        for k in range(5):
            es, theta, y = order_stat_block_instance(rng, (2, 1), 0, interior=True)
            y[:2] = np.sort(y[:2])  # force an unsorted-within-block raw vector
            triple = spectral_subgradient(theta, es, y)
            h = aligned_direction(rng, es)
            dd = es.u.T @ h @ es.u
            lamp = np.concatenate(
                [np.sort(np.linalg.eigvalsh(dd[b, :][:, b]))[::-1] for b in es.blocks]
            )
            a = theta.second_subderivative(es.lam, triple.v, lamp)
            perm = block_sort_order(triple.y, [c.start for c in es.blocks] + [es.n])
            b = theta.second_subderivative(es.lam, triple.y, lamp[np.argsort(perm)])
            assert a.is_finite == b.is_finite
            if a.is_finite:
                assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-12)

    def test_ambiguous_clustering_flag_propagates(self):
        x = np.diag([1.5e-8, 0.0])
        rep = spectral_second_subderivative(
            OrderStat(rank=1),
            x,
            spectral_subgradient(OrderStat(rank=1), x),
            OFFDIAG,
        )
        assert rep.ambiguous_clustering

    def test_unsupported_point_propagates(self):
        x, _ = matrix_with_spectrum(key_rng(16), np.array([2.0, 2.0, 0.0]))
        with pytest.raises(UnsupportedPointError):
            spectral_subgradient(OrderStat(rank=2), x)


def homogeneous_instances():
    """(theta, es, y, h) for the positively homogeneous penalties, each
    with a finite second subderivative: order statistics at clustered
    spectra (aligned directions) and at a simple one, and gap penalties."""
    rng = key_rng(4242)
    out = [critical_instance(rng, kind) for kind in ("vertex", "gap") for _ in range(3)]
    lam = np.array([2.0, 1.0, 0.5, -1.0])
    x, _ = matrix_with_spectrum(rng, lam)
    es = eig(x)
    theta = OrderStat(rank=2)
    out.append((theta, es, theta.subgradients(es.lam).canonical_vertex(), random_symmetric(rng, 4)))
    return out


class TestScaleSweep:
    # X -> sX with H -> sH: dg is degree 1 in both together, and so is d2
    # (the curvature term is quadratic in H over eigenvalue gaps).  The
    # default cluster_tol has an absolute floor, so it is scaled with s.
    # s runs over powers of two from about 6e-8 to 1e8: eigh then returns
    # the same eigenbasis, so one-hot weights inside a cluster still name
    # the same Y (any other rotation of a cluster basis would name another).
    # The penalties judge ties with the default width tie_width, floor
    # included, whatever cluster_tol eig used; below s = 2^-25 the smallest
    # gaps of these spectra fall under that floor and read as ties
    # (TestDefaultTieWidth)
    SCALES = tuple(2.0 ** k for k in (-24, -20, -13, -3, 0, 3, 13, 20, 27))

    @pytest.mark.parametrize("case", range(7))
    def test_dg_and_d2_are_degree_one(self, case):
        theta, es, y, h = homogeneous_instances()[case]
        x = es.matrix.entries
        tol = es.cluster_tol
        es = eig(x, cluster_tol=tol)
        dg = spectral_subderivative(theta, es, h)
        triple = spectral_subgradient(theta, es, y)
        d2 = spectral_second_subderivative(theta, es, triple, h).d2
        assert d2.is_finite
        for s in self.SCALES:
            es_s, hs = eig(s * x, cluster_tol=s * tol), s * h
            dg_s = spectral_subderivative(theta, es_s, hs)
            assert abs(dg_s - s * dg) <= 1e-9 * s * (1.0 + abs(dg)), s
            triple_s = spectral_subgradient(theta, es_s, y)
            d2_s = spectral_second_subderivative(theta, es_s, triple_s, hs).d2
            assert d2_s.is_finite, s
            assert abs(float(d2_s) - s * float(d2)) <= 1e-9 * s * (1.0 + abs(float(d2))), s


class TestTieHypotheses:
    # each penalty exactly at the tie its calculus excludes, at unit scale
    # and at a small one whose gaps stay above the tie floor of 1e-8
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -20])
    def test_order_stat_rank_tied_with_the_one_above(self, scale):
        x, _ = matrix_with_spectrum(key_rng(4243), scale * np.array([3.0, 1.0, 1.0, -2.0]))
        es = eig(x, cluster_tol=scale * 1e-8)
        with pytest.raises(UnsupportedPointError, match="not leading"):
            spectral_subgradient(OrderStat(rank=3), es)
        with pytest.raises(UnsupportedPointError, match="not leading"):
            spectral_subderivative(OrderStat(rank=3), es, OFFDIAG_4)
        spectral_subgradient(OrderStat(rank=2), es)  # rank 2 leads its cluster

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -20])
    @pytest.mark.parametrize(
        "lam, why",
        [
            ([3.0, 3.0, 1.0], "upper endpoint"),
            ([5.0, 2.0, 2.0], "lower endpoint"),
            ([5.0, 2.0, 2.0, 0.0], "lower endpoint"),
            ([1.0, 1.0, 1.0], "largest gap is zero"),
        ],
    )
    def test_eig_gap_endpoint_tied(self, lam, why, scale):
        x, _ = matrix_with_spectrum(key_rng(4244), scale * np.array(lam))
        es = eig(x, cluster_tol=scale * 1e-8)
        with pytest.raises(UnsupportedPointError, match=why):
            spectral_subgradient(EigGapMax(), es)
        with pytest.raises(UnsupportedPointError, match=why):
            spectral_subderivative(EigGapMax(), es, np.eye(len(lam)))


class TestDefaultTieWidth:
    # At the default cluster_tol, eig's clusters and the penalties' ties use
    # one width, tie_width(max |lam|) = 1e-8 * (1 + max |lam|).  Gaps between
    # 1e-8 * max |lam| and that width are one cluster to eig, so they must be
    # a tie to the penalty too: the named UnsupportedPointError, not an
    # InvalidSubgradientError from the penalty's own canonical vertex
    @pytest.mark.parametrize(
        "theta, lam, why",
        [
            (OrderStat(rank=2), [3e-9, 1e-9, -2e-9], "not leading"),
            (EigGapMax(), [1.0, 1.0 - 1.5e-8, 0.0], "upper endpoint"),
        ],
        ids=["order-stat", "eig-gap"],
    )
    def test_cluster_inside_default_width_is_a_tie(self, theta, lam, why):
        x = np.diag(lam)
        es = eig(x)
        assert es.cluster_tol == tie_width(max(abs(v) for v in lam))
        assert es.r < len(lam)  # eig joins the close pair
        with pytest.raises(UnsupportedPointError, match=why):
            spectral_subgradient(theta, x)
        with pytest.raises(UnsupportedPointError, match=why):
            spectral_subderivative(theta, x, np.ones((3, 3)))


class TestLeadingEigenvalue:
    def test_flagship_agrees_with_general_route(self):
        x = np.diag([2.0, 1.0])
        triple = spectral_subgradient(OrderStat(rank=1), x, [1.0, 0.0])
        out = leading_eig_second_subderivative(x, 1, triple, OFFDIAG)
        assert out.is_finite and float(out) == pytest.approx(2.0, abs=1e-12)

    def test_single_cluster_gives_zero(self):
        rng = key_rng(17)
        x = 1.5 * np.eye(3)
        es = eig(x)
        theta = OrderStat(rank=1)
        y = np.zeros(3)
        y[0] = 1.0
        triple = spectral_subgradient(theta, es, y)
        h = aligned_direction(rng, es)
        out = leading_eig_second_subderivative(es, 1, triple, h)
        assert out.is_finite and float(out) == pytest.approx(0.0, abs=1e-12)

    def test_second_cluster_coupling_value(self):
        x = np.diag([3.0, 1.0, 1.0])
        es = eig(x)
        target = np.zeros((3, 3))
        target[1, 1] = 1.0
        y = embedded_weights(es, target)
        triple = spectral_subgradient(OrderStat(rank=2), es, y)
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 0] = 1.0
        out = leading_eig_second_subderivative(es, 2, triple, h)
        assert out.is_finite and float(out) == pytest.approx(-1.0, abs=1e-12)
        rep = spectral_second_subderivative(OrderStat(rank=2), es, triple, h)
        assert float(rep.d2) == pytest.approx(-1.0, abs=1e-12)

    def test_in_block_rotation_is_infinite(self):
        x = np.diag([3.0, 1.0, 1.0])
        es = eig(x)
        target = np.zeros((3, 3))
        target[1, 1] = 1.0
        y = embedded_weights(es, target)
        triple = spectral_subgradient(OrderStat(rank=2), es, y)
        h = np.zeros((3, 3))
        h[1, 2] = h[2, 1] = 1.0
        assert leading_eig_second_subderivative(es, 2, triple, h) == POS_INF

    def test_matches_general_machinery_on_random_blocks(self):
        rng = key_rng(18)
        for k in range(10):
            sizes = ((2, 1), (1, 2), (2, 2))[int(rng.integers(0, 3))]
            block = int(rng.integers(0, 2))
            es, theta, y = order_stat_block_instance(rng, sizes, block)
            triple = spectral_subgradient(theta, es, y)
            h = aligned_direction(rng, es) if k % 2 == 0 else random_symmetric(rng, es.n)
            direct = leading_eig_second_subderivative(es, block + 1, triple, h)
            rep = spectral_second_subderivative(theta, es, triple, h)
            assert direct.is_finite == rep.d2.is_finite
            if direct.is_finite:
                assert float(direct) == pytest.approx(float(rep.d2), rel=1e-10, abs=1e-10)

    def test_cluster_index_validated(self):
        x = np.diag([3.0, 1.0, 1.0])
        triple = spectral_subgradient(OrderStat(rank=1), x, [1.0, 0.0, 0.0])
        with pytest.raises(UnsupportedPointError):
            leading_eig_second_subderivative(x, 0, triple, np.eye(3))
        with pytest.raises(UnsupportedPointError):
            leading_eig_second_subderivative(x, 3, triple, np.eye(3))


class TestSecondSemiderivative:
    def test_smooth_lift_gives_squared_norm(self):
        rng = key_rng(19)
        for sizes in ((3,), (2, 1)):
            x = clustered_matrix(rng, sizes)
            h = random_symmetric(rng, 3)
            semi = second_semiderivative(SmoothSep(coeff=1.0), x, h)
            assert semi == pytest.approx(float(np.vdot(h, h)), rel=1e-9)

    def test_matches_central_second_difference(self):
        rng = key_rng(20)
        theta = SmoothSep(coeff=1.0)
        x = clustered_matrix(rng, (2, 1))
        h = random_symmetric(rng, 3)
        t = 1e-4
        quot = (
            spectral_value(theta, x + t * h)
            - 2.0 * spectral_value(theta, x)
            + spectral_value(theta, x - t * h)
        ) / t**2
        assert second_semiderivative(theta, x, h) == pytest.approx(quot, abs=1e-6)

    def test_mcp_inner_region(self):
        theta = McpSum(a=2.0, c=1.0)
        x = np.diag([0.5, -0.5])
        assert second_semiderivative(theta, x, np.eye(2)) == pytest.approx(-1.0, abs=1e-12)
        t = 1e-4
        quot = (
            spectral_value(theta, x + t * np.eye(2))
            - 2.0 * spectral_value(theta, x)
            + spectral_value(theta, x - t * np.eye(2))
        ) / t**2
        assert quot == pytest.approx(-1.0, abs=1e-3)

    def test_zero_direction(self):
        x = np.diag([0.5, -0.5])
        assert second_semiderivative(McpSum(a=2.0, c=1.0), x, np.zeros((2, 2))) == 0.0

    def test_matches_general_second_subderivative_at_gradient(self):
        # the smooth branch is the general d2 taken at y = grad theta
        rng = key_rng(26)
        cases = [
            (SmoothSep(coeff=1.0), np.array([2.0, 0.5, -1.0])),
            (SmoothSep(coeff=-0.5), np.array([1.0, 1.0, -1.0])),
            (McpSum(a=2.0, c=1.0), np.array([3.0, 0.5, -0.7])),
            (McpSum(a=2.0, c=1.0), np.array([0.6, 0.6, -2.5, -2.5])),
        ]
        for theta, lam in cases:
            x, _ = matrix_with_spectrum(rng, lam)
            es = eig(x)
            h = random_symmetric(rng, es.n)
            semi = second_semiderivative(theta, es, h)
            triple = spectral_subgradient(theta, es, theta.gradient(es.lam))
            general = spectral_second_subderivative(theta, es, triple, h).d2
            assert general.is_finite
            assert abs(float(general) - semi) <= SEMIDERIV_CHECK_RTOL * (1.0 + abs(semi))

    def test_kink_and_cap_rejected(self):
        theta = McpSum(a=2.0, c=1.0)
        with pytest.raises(UnsupportedPointError):
            second_semiderivative(theta, np.diag([1.2, 0.0]), np.eye(2))
        with pytest.raises(UnsupportedPointError):
            second_semiderivative(theta, np.diag([2.0, 0.5]), np.eye(2))


class TestSpectralProx:
    def test_smooth_shrinkage(self):
        rng = key_rng(21)
        x = random_symmetric(rng, 4)
        res = spectral_prox(SmoothSep(coeff=1.0), 1.0, x)
        np.testing.assert_allclose(res.matrix.entries, x / 2.0, atol=1e-12)
        assert res.closed_form
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)

    def test_mcp_three_branches(self):
        res = spectral_prox(McpSum(a=2.0, c=1.0), 0.5, np.diag([3.0, 0.8, 0.4]))
        np.testing.assert_allclose(res.eigenvalues, [3.0, 0.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.matrix.entries, np.diag([3.0, 0.4, 0.0]), atol=1e-12)
        assert res.closed_form

    def test_local_minimality_against_probes(self):
        rng = key_rng(22)
        theta = McpSum(a=2.0, c=1.0)
        gamma = 0.25
        for k in range(5):
            x = random_symmetric(rng, 3, frob=2.0)
            p = spectral_prox(theta, gamma, x).matrix.entries
            base = prox_objective(theta, gamma, x, p)
            assert base <= prox_objective(theta, gamma, x, x) + 1e-12
            for j in range(20):
                w = p + 0.1 * random_symmetric(rng, 3)
                assert base <= prox_objective(theta, gamma, x, w) + 1e-10

    def test_output_commutes_with_input(self):
        rng = key_rng(23)
        x = clustered_matrix(rng, (2, 1))
        p = spectral_prox(McpSum(a=2.0, c=1.0), 0.25, x).matrix.entries
        np.testing.assert_allclose(p @ x, x @ p, atol=1e-9)

    def test_eigenvalues_orthogonally_invariant(self):
        rng = key_rng(24)
        x = random_symmetric(rng, 3)
        v = random_orthogonal(rng, 3)
        a = spectral_prox(McpSum(a=2.0, c=1.0), 0.25, x).eigenvalues
        b = spectral_prox(McpSum(a=2.0, c=1.0), 0.25, v.T @ x @ v).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_fallback_marker_for_nonseparable_penalty(self):
        x = np.diag([2.0, 1.0])
        res = spectral_prox(OrderStat(rank=1), 0.7, x)
        assert not res.closed_form
        base = prox_objective(OrderStat(rank=1), 0.7, x, res.matrix.entries)
        assert base <= prox_objective(OrderStat(rank=1), 0.7, x, x) + 1e-8

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            spectral_prox(McpSum(a=2.0, c=1.0), 2.0, np.eye(2))
        with pytest.raises(ValueError):
            spectral_prox(SmoothSep(coeff=1.0), 0.0, np.eye(2))


class TestProxDirectional:
    def test_smooth_is_exact(self):
        rng = key_rng(25)
        x = random_symmetric(rng, 3)
        d = random_symmetric(rng, 3)
        out = prox_directional_derivative(SmoothSep(coeff=1.0), 1.0, x, d)
        np.testing.assert_allclose(out.derivative, d / 2.0, atol=1e-10)
        assert out.converged
        assert len(out.quotients) == 3 and len(out.extrapolants) == 2

    def test_mcp_branch_slopes(self):
        out = prox_directional_derivative(
            McpSum(a=2.0, c=1.0), 0.5, np.diag([3.0, 0.8]), np.eye(2)
        )
        np.testing.assert_allclose(out.derivative, np.diag([1.0, 4.0 / 3.0]), atol=1e-9)
        assert out.converged

    def test_one_sided_limit_at_branch_boundary(self):
        out = prox_directional_derivative(
            McpSum(a=2.0, c=1.0), 0.5, 0.5 * np.eye(2), np.eye(2)
        )
        np.testing.assert_allclose(out.derivative, (4.0 / 3.0) * np.eye(2), atol=1e-9)
        assert out.converged

    def test_grid_validated(self):
        x = np.eye(2)
        with pytest.raises(ValueError):
            prox_directional_derivative(SmoothSep(coeff=1.0), 1.0, x, x, t_grid=(1e-3, 1e-4))
        with pytest.raises(ValueError):
            prox_directional_derivative(
                SmoothSep(coeff=1.0), 1.0, x, x, t_grid=(1e-3, 1e-4, 2e-5)
            )
        with pytest.raises(ValueError):
            prox_directional_derivative(
                SmoothSep(coeff=1.0), 1.0, x, x, t_grid=(1e-5, 1e-4, 1e-3)
            )
