"""Assembly layer: values, subgradient triples, first- and second-order
directional analysis, cone membership, and the prox map of the lifted
penalties, including the closed-form leading-eigenvalue shortcut."""
import hashlib
import json
import warnings

import numpy as np
import pytest

from specvar import cli, perturb, spectral, symmat, verify
from specvar import (
    POS_INF,
    ExtReal,
    InvalidSubgradientError,
    McpSum,
    OrderStat,
    QuotientProbe,
    SecondOrderReport,
    SmoothSep,
    EigGapMax,
    SubgradientTriple,
    SymMatrix,
    UnsupportedPointError,
    critical_cone_member,
    curvature_correction,
    eig,
    eig_dir_derivative,
    fan_block_gaps,
    leading_eig_second_subderivative,
    matrix_with_spectrum,
    numeric_prox,
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
from specvar.symfun import CONE_RTOL, SUBGRADIENT_TOL, ProxResult, SymmetricFunction, spec_to_json
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
    def test_mcp_cone_edge_report(self):
        # the kink coordinate misses c|w| = y w by 1e-8, inside the cone
        # tolerance (1.1e-8); the report read in_critical_cone=True with d2 = +inf
        theta = McpSum(a=2.0, c=1.0)
        triple = spectral_subgradient(theta, np.diag([1.0, 0.0]), [0.5, 1.0 - 1e-7])
        rep = spectral_second_subderivative(theta, np.diag([1.0, 0.0]), triple, np.diag([1.0, 0.1]))
        assert rep.in_critical_cone
        assert rep.theta_d2.is_finite and rep.d2.is_finite
        assert float(rep.d2) == pytest.approx(-0.505, rel=1e-12)

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
        triple = SubgradientTriple(y, eig(x))
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


def report_bits(rep: SecondOrderReport) -> tuple:
    """Every field of a report, arrays as raw bytes and scalars by repr."""
    out = []
    for name, val in zip(SecondOrderReport._fields, rep._values()):
        if isinstance(val, np.ndarray):
            out.append((name, val.dtype.str, val.shape, val.tobytes()))
        elif name != "penalty":
            out.append((name, repr(val)))
    return tuple(out)


def frozen_reports():
    """Reports at a raw X over seeded instances, with and without a probe:
    three of each critical family (distinct, tied clusters, an McpSum zero
    cluster, EigGapMax), three off the cone, and three penalties at one
    distinct spectrum of size 64 with the canonical subgradient."""
    rng = key_rng(16, 1)
    cases = [critical_instance(rng, kind) for kind in CRITICAL_KINDS for _ in range(3)]
    cases += [noncritical_instance(rng) for _ in range(3)]
    lam = np.sort(rng.uniform(0.4, 1.8, size=64) * rng.choice([-1.0, 1.0], size=64))[::-1]
    es = eig(matrix_with_spectrum(rng, lam)[0])
    for theta in (SmoothSep(coeff=1.5), McpSum(a=2.0, c=1.0), OrderStat(rank=1)):
        cases.append((theta, es, None, random_symmetric(rng, 64)))
    for k, (theta, es, y, h) in enumerate(cases):
        x = np.array(es.matrix.entries)
        triple = spectral_subgradient(theta, x, y)
        yield spectral_second_subderivative(theta, x, triple, h)
        yield spectral_second_subderivative(theta, x, triple, h, QuotientProbe(samples=6, seed=k))


def test_reports_are_frozen():
    # every field of every report to the bit, as recorded before the
    # embedding was built lazily and the clusters became one bounds array
    # (numpy 2.4, OpenBLAS 0.3; another LAPACK may move the last bits).
    # Re-recorded when the Fan gaps came to be read off the rotation: two
    # reports' fan_gaps moved by at most 5.6e-17, every other field held.
    # Re-recorded (from 47336e00...) when the penalties came to read the
    # spectrum at the cluster means: the dg of the six SmoothSep reports at
    # tied clusters moved by at most 6.7e-16, every other field held
    bits = repr([report_bits(rep) for rep in frozen_reports()])
    assert hashlib.sha256(bits.encode()).hexdigest() == (
        "90b4991659ca7ab6ee0b4fcf4d5804e12f5ba336976d06eb7a500a1529bd9c8a"
    )


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one on every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def pair_calls(theta, es, h):
    """The (X, triple) functions as callables of (x, triple), the
    leading-eigenvalue route where theta is the order statistic leading a
    cluster of es."""
    calls = {
        "d2": lambda x, t: report_bits(spectral_second_subderivative(theta, x, t, h)),
        "critical_cone_member": lambda x, t: critical_cone_member(theta, x, t, h),
        "subderivative_gap": lambda x, t: repr(subderivative_gap(theta, x, t, h)),
    }
    starts = [b.start for b in es.blocks]
    if isinstance(theta, OrderStat) and theta.rank - 1 in starts:
        i = starts.index(theta.rank - 1) + 1
        calls["leading_eig"] = lambda x, t: repr(leading_eig_second_subderivative(x, i, t, h))
    return calls


class TestOneDecomposition:
    """A triple remembers the EigenSystem it was written in, and the
    functions of (X, triple) read X as that EigenSystem's point: a matrix or
    EigenSystem of other entries, or an EigenSystem at another width,
    raises ValueError."""

    @pytest.mark.parametrize("kind", CRITICAL_KINDS)
    def test_one_eigh_per_subgradient_and_call(self, kind, eigh_calls):
        rng = key_rng(40, CRITICAL_KINDS.index(kind))
        for k in range(4):
            theta, es, y, h = critical_instance(rng, kind)
            x = np.array(es.matrix.entries)
            for name, call in pair_calls(theta, es, h).items():
                before = len(eigh_calls)
                call(x, spectral_subgradient(theta, x, y))
                assert len(eigh_calls) - before == 1, (kind, k, name)

    @pytest.mark.parametrize("kind", CRITICAL_KINDS)
    def test_matrix_eigensystem_and_hand_built_triple_agree(self, kind):
        # distinct spectra ("distinct", "gap") and clustered ones (the rest)
        rng = key_rng(41, CRITICAL_KINDS.index(kind))
        for k in range(4):
            theta, es, y, h = critical_instance(rng, kind)
            x = np.array(es.matrix.entries)
            triple = spectral_subgradient(theta, x, y)
            assert triple.es is not None
            hand = SubgradientTriple(triple.y, eig(x))
            for name, call in pair_calls(theta, es, h).items():
                want = call(x, triple)
                assert call(eig(x), triple) == want, (kind, k, name)
                assert call(x.copy(), hand) == want, (kind, k, name)

    def test_raw_x_reads_the_width_the_triple_was_clustered_at(self, eigh_calls):
        # clustered at 1e-3 the top pair is one cluster, at the default width
        # two.  A raw X reads the triple's wide clustering, with no eigh call;
        # an EigenSystem of X at the default width raises
        rng = key_rng(42)
        x, _ = matrix_with_spectrum(rng, np.array([1.0, 1.0 - 1e-4, -0.5]))
        es_wide = eig(x, cluster_tol=1e-3)
        assert es_wide.r == 2 and eig(x).r == 3
        h = random_symmetric(rng, 3)
        for theta, y in ((OrderStat(rank=1), [1.0, 0.0, 0.0]), (OrderStat(rank=3), None)):
            triple = spectral_subgradient(theta, es_wide, y)
            before = len(eigh_calls)
            got = spectral_second_subderivative(theta, x, triple, h)
            assert len(eigh_calls) == before
            want = spectral_second_subderivative(theta, es_wide, triple, h)
            assert report_bits(got) == report_bits(want)
            assert got.block_bounds.tolist() == [0, 2, 3]
            with pytest.raises(ValueError, match="width"):
                spectral_second_subderivative(theta, eig(x), triple, h)

    def test_equal_entries_reuse_the_decomposition(self, eigh_calls):
        # a copy of the entries, a SymMatrix of them, and an asymmetric X
        # whose symmetrization is them; the quarters keep every sum exact
        x = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, -1.0]])
        skew = np.array([[0.0, 0.25, 0.0], [-0.25, 0.0, -0.5], [0.0, 0.5, 0.0]])
        triple = spectral_subgradient(OrderStat(rank=1), x)
        es = triple.es
        assert es.r == es.n
        copies = (np.array(es.matrix.entries), SymMatrix(x.tolist()), x + skew, (x + skew).tolist())
        for same in copies:
            before = len(eigh_calls)
            assert spectral._as_eigensystem(same, triple) is es
            assert len(eigh_calls) == before
        off = np.array(es.matrix.entries)
        off[0, 1] = off[1, 0] = np.nextafter(off[0, 1], np.inf)
        for other in (off, SymMatrix(off)):
            before = len(eigh_calls)
            with pytest.raises(ValueError, match="entries"):
                spectral._as_eigensystem(other, triple)
            assert len(eigh_calls) == before

    def test_invalid_x_fails_as_eig_does(self):
        # neither a NaN nor a shape of its own reaches a broadcast error
        x = np.array([[2.0, 1.0], [1.0, 0.0]])
        triple = spectral_subgradient(SmoothSep(coeff=1.0), x)
        nan = x.copy()
        nan[0, 1] = np.nan
        for bad in (nan, np.zeros((2, 3)), np.zeros(2), np.zeros((3, 2))):
            with pytest.raises(ValueError) as want:
                eig(bad)
            with pytest.raises(ValueError) as got:
                spectral._as_eigensystem(bad, triple)
            assert str(got.value) == str(want.value)
            assert "broadcast" not in str(got.value)

    def test_triple_of_another_matrix_is_not_reused(self):
        rng = key_rng(44)
        x, _ = matrix_with_spectrum(rng, np.array([2.0, 1.0, -0.5]))
        h = random_symmetric(rng, 3)
        triple = spectral_subgradient(OrderStat(rank=1), x)
        other = x.copy()
        other[0, 0] += 1e-12
        for point in (other, SymMatrix(other), eig(other)):
            with pytest.raises(ValueError, match="entries"):
                spectral_second_subderivative(OrderStat(rank=1), point, triple, h)

    def test_triple_of_another_point_raises(self):
        # y = e1 is a subgradient at X1 only.  At X2 the structural cone test
        # read y in X2's eigenbasis and the definitional one Y from X1:
        # "critical" next to a gap of 1.0, and a d2 report whose pairing was
        # 1.0 while <Y, H> is 0
        theta = OrderStat(rank=1)
        x1, x2 = np.diag([3.0, 1.0, 0.0]), np.diag([1.0, 3.0, 0.0])
        h = np.zeros((3, 3))
        h[1, 1] = 1.0
        triple = spectral_subgradient(theta, x1)
        assert float(np.vdot(triple.matrix.entries, h)) == 0.0
        calls = (
            lambda x: spectral_second_subderivative(theta, x, triple, h),
            lambda x: critical_cone_member(theta, x, triple, h),
            lambda x: subderivative_gap(theta, x, triple, h),
            lambda x: leading_eig_second_subderivative(x, 1, triple, h),
            lambda x: spectral._cone_tests(theta, x, triple, h),
        )
        for call in calls:
            for x in (x2, SymMatrix(x2), eig(x2)):
                with pytest.raises(ValueError, match="entries"):
                    call(x)
            call(x1)


def fan_cases():
    """(theta, es, y, h) over the critical and non-critical families and
    seeded order-statistic draws with interior weights on a tied cluster.
    Their directions are aligned, generic, or aligned up to a generic part
    of size eps; with the weights sorted as the aligned part is, the last
    leaves Fan gaps of order eps^2 on both sides of FAN_TOL."""
    rng = key_rng(19)
    cases = [critical_instance(rng, kind) for kind in CRITICAL_KINDS for _ in range(6)]
    cases += [noncritical_instance(rng) for _ in range(6)]
    for k in range(90):
        sizes = (2,) + tuple(int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        tied = [m for m, size in enumerate(sizes) if size > 1]
        es, theta, y = order_stat_block_instance(rng, sizes, tied[int(rng.integers(0, len(tied)))], True)
        if k % 3 == 0:
            h = aligned_direction(rng, es)
        elif k % 3 == 1:
            h = random_symmetric(rng, es.n)
        else:
            b = next(b for b in es.blocks if b.start == theta.rank - 1)
            y[b] = np.sort(y[b])[::-1]
            h = aligned_direction(rng, es) + 10.0 ** rng.uniform(-4.0, -2.0) * random_symmetric(rng, es.n)
        cases.append((theta, es, y, h))
    return cases


class TestFanGaps:
    """The Fan gaps come from the rotation: v_m . dd_m - y_m . diag(Ht)_m,
    with dd_m the in-cluster eigenvalues that _rotate already solved for."""

    def test_gaps_match_the_dense_reference(self):
        tied, near = 0, np.zeros(2, dtype=int)
        for theta, es, y, h in fan_cases():
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h)
            ht = es.u.T @ h @ es.u
            ht = (ht + ht.T) / 2.0
            want = np.array([symmat.fan_gap(np.diag(triple.y[b]), ht[b, :][:, b]) for b in es.blocks])
            np.testing.assert_allclose(rep.fan_gaps, want, rtol=0.0, atol=1e-12)
            assert ((rep.fan_gaps <= spectral.FAN_TOL) == (want <= spectral.FAN_TOL)).all()
            assert rep.fan_gaps.tobytes() == fan_block_gaps(es, triple.y, h).tobytes()
            singles = np.diff(es.bounds) == 1
            assert rep.fan_gaps[singles].tobytes() == np.zeros(singles.sum()).tobytes()
            tied += int((~singles).sum())
            near[0] += ((want > 1e-10) & (want <= spectral.FAN_TOL)).sum()
            near[1] += ((want > spectral.FAN_TOL) & (want < 1e-6)).sum()
        assert tied >= 150 and near.min() >= 5  # decisions near FAN_TOL, on both sides

    def test_triple_is_read_at_its_own_clustering_only(self):
        # at the default width the top pair is two clusters, where y needs no
        # sorting; at 1e-3 it is one cluster, along which y is unsorted.  A
        # triple built by hand at the wide clustering sorts y along it, and
        # one at the default width raises there
        rng = key_rng(19, 2)
        x, _ = matrix_with_spectrum(rng, np.array([0.5, 0.5 - 1e-4, -0.7]))
        theta, y = OrderStat(rank=1), np.array([0.3, 0.7, 0.0])
        wide = eig(x, cluster_tol=1e-3)
        assert wide.r == 2 and eig(x).r == 3
        triple = SubgradientTriple(y, wide)
        assert triple.v.tolist() == [0.7, 0.3, 0.0]
        with pytest.raises(ValueError, match="width"):
            critical_cone_member(theta, wide, SubgradientTriple(y, eig(x)), np.eye(3))
        for top, gap in (([1.0, 0.0], 0.4), ([0.0, 1.0], 0.0)):
            h = wide.u @ np.diag(top + [0.0]) @ wide.u.T
            ht = wide.u.T @ h @ wide.u
            want = symmat.fan_gap(np.diag(triple.y[:2]), ht[:2, :2])
            rep = spectral_second_subderivative(theta, wide, triple, h)
            assert rep.fan_gaps[0] == pytest.approx(want, abs=1e-12)
            assert want == pytest.approx(gap, abs=1e-12)
            # v = (0.7, 0.3) against dd = (1, 0): the penalty half fails
            assert rep.dg == pytest.approx(1.0) and not rep.in_critical_cone
            assert critical_cone_member(theta, wide, triple, h) is False

    def test_one_eigvalsh_per_tied_cluster(self, monkeypatch):
        rng = key_rng(19, 1)
        es = eig(clustered_matrix(rng, (3, 1, 2, 2, 1)))
        k = len(es.tied_blocks)
        assert k == 3
        theta = OrderStat(rank=1)
        triple = spectral_subgradient(theta, es)
        h = random_symmetric(rng, es.n)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for call in (
            lambda: spectral_second_subderivative(theta, es, triple, h),
            lambda: critical_cone_member(theta, es, triple, h),
            lambda: fan_block_gaps(es, triple.y, h),
        ):
            calls.clear()
            call()
            assert len(calls) == k


@pytest.fixture
def subgradient_calls(monkeypatch):
    """A list that grows by one on every penalty subdifferential built: a
    ``_subgradients`` call, which ``subgradients`` and the spectral layer make."""
    calls = []
    for cls in (OrderStat, McpSum, EigGapMax, SmoothSep):

        def counted(self, x, tol, _subgradients=cls._subgradients):
            calls.append(1)
            return _subgradients(self, x, tol)

        monkeypatch.setattr(cls, "_subgradients", counted)
    return calls


class TestOnePerPoint:
    """The d2 path computes each per-point object once: one penalty
    subdifferential per point, checked once, and the embedding
    U Diag(y) U^T only when something reads it."""

    @pytest.mark.parametrize("kind", CRITICAL_KINDS)
    def test_one_subdifferential_per_call(self, kind, subgradient_calls):
        rng = key_rng(45, CRITICAL_KINDS.index(kind))

        def count(call):
            before = len(subgradient_calls)
            out = call()
            return out, len(subgradient_calls) - before

        for k in range(4):
            theta, es, y, h = critical_instance(rng, kind)
            x = np.array(es.matrix.entries)
            dd = eig_dir_derivative(es, h)
            for given in (y, None):  # checked weights, then the canonical vertex
                triple, n = count(lambda: spectral_subgradient(theta, x, given))
                # a triple from spectral_subgradient carries the set it was
                # checked against; a hand-built one is checked again
                by_hand = SubgradientTriple(triple.y, triple.es)
                counts = [n] + [
                    count(call)[1]
                    for call in (
                        lambda: spectral_second_subderivative(theta, x, triple, h),
                        lambda: critical_cone_member(theta, x, triple, h),
                        lambda: spectral_second_subderivative(theta, x, by_hand, h),
                        lambda: critical_cone_member(theta, x, by_hand, h),
                        lambda: theta.second_subderivative(es.lam, triple.v, dd),
                        lambda: theta.critical_cone_member(es.lam, triple.v, dd),
                    )
                ]
                assert counts == [1, 0, 0, 1, 1, 1, 1], (kind, k, given is None)

    @pytest.mark.parametrize("kind", CRITICAL_KINDS)
    def test_embedding_is_built_only_when_read(self, kind, monkeypatch):
        built = []

        class Counted(SymMatrix):
            def __init__(self, entries):
                built.append(1)
                super().__init__(entries)

        monkeypatch.setattr(spectral, "SymMatrix", Counted)
        rng = key_rng(46, CRITICAL_KINDS.index(kind))
        for k in range(4):
            theta, es, y, h = critical_instance(rng, kind)
            x = np.array(es.matrix.entries)
            triple = spectral_subgradient(theta, x, y)
            spectral_second_subderivative(theta, x, triple, h)
            critical_cone_member(theta, x, triple, h)
            assert built == [] and "matrix" not in vars(triple), (kind, k)
            u = triple.es.u
            want = SymMatrix(u @ np.diag(triple.y) @ u.T).entries  # the two-GEMM reference
            assert triple.matrix.entries.tobytes() == want.tobytes()
            assert triple.matrix is triple.matrix and len(built) == 1
            built.clear()
            probed = spectral_subgradient(theta, x, y)
            spectral_second_subderivative(theta, x, probed, h, QuotientProbe(samples=2))
            assert len(built) == 1 and probed.matrix.entries.tobytes() == want.tobytes()
            built.clear()

    def test_one_validation_of_the_direction(self, monkeypatch):
        # each second-order call runs as_sym_array on H once and hands the
        # array down; three isfinite passes over H per d2 was the old cost,
        # and two per subderivative_gap
        seen = []
        validate = symmat.as_sym_array

        def counted(a):
            seen.append(a)
            return validate(a)

        for mod in (symmat, perturb, spectral):
            monkeypatch.setattr(mod, "as_sym_array", counted)
        rng = key_rng(47)
        for kind in CRITICAL_KINDS:
            theta, es, y, h = critical_instance(rng, kind)
            x = np.array(es.matrix.entries)
            triple = spectral_subgradient(theta, x, y)
            for point in (x, es):
                for call in (
                    lambda: spectral_second_subderivative(theta, point, triple, h),
                    lambda: critical_cone_member(theta, point, triple, h),
                    lambda: curvature_correction(point, y, h),
                    lambda: subderivative_gap(theta, point, triple, h),
                ):
                    seen.clear()
                    call()
                    assert sum(a is h for a in seen) == 1, (kind, call)

    def test_triple_of_another_penalty_or_point_is_checked(self):
        # the set a triple carries serves an equal penalty only; another
        # penalty checks v, and another point raises
        x = np.diag([3.0, 2.0, 1.0])
        h = random_symmetric(key_rng(48), 3)
        top = spectral_subgradient(OrderStat(rank=1), x)
        for point in (x, top.es):
            with pytest.raises(InvalidSubgradientError):
                spectral_second_subderivative(OrderStat(rank=2), point, top, h)
            with pytest.raises(InvalidSubgradientError):
                critical_cone_member(OrderStat(rank=2), point, top, h)
            with pytest.raises(InvalidSubgradientError):
                leading_eig_second_subderivative(point, 2, top, h)
            # an equal penalty, not the same object, reuses the set
            assert spectral_second_subderivative(OrderStat(rank=1), point, top, h).d2.is_finite
        # a triple with other weights carries no set, and the checked v is read-only
        moved = SubgradientTriple(np.array([0.0, 1.0, 0.0]), top.es)
        assert moved.checked is None
        with pytest.raises(InvalidSubgradientError):
            spectral_second_subderivative(OrderStat(rank=1), x, moved, h)
        with pytest.raises(InvalidSubgradientError):
            critical_cone_member(OrderStat(rank=1), x, moved, h)
        with pytest.raises(ValueError):
            top.v[0] = 0.0
        smooth = spectral_subgradient(SmoothSep(coeff=1.0), x)
        other = np.diag([3.0, 2.0, 0.5])
        for point in (other, eig(other)):
            with pytest.raises(ValueError, match="entries"):
                spectral_second_subderivative(SmoothSep(coeff=1.0), point, smooth, h)
            with pytest.raises(ValueError, match="entries"):
                critical_cone_member(SmoothSep(coeff=1.0), point, smooth, h)

    def test_hand_built_triples(self):
        x = np.diag([2.0, 1.0, -0.5])
        y = np.array([1.0, 0.0, 0.0])
        lazy = SubgradientTriple(y, eig(x))
        want = spectral_subgradient(OrderStat(rank=1), x, y).matrix.entries
        assert lazy.matrix.entries.tobytes() == want.tobytes()
        with pytest.raises(TypeError):
            SubgradientTriple(y)


class TestTripleFromItsData:
    """A triple is built from y and its EigenSystem alone: v and Y are
    derived from them, so no copy of the subgradient can disagree with
    another."""

    X = np.diag([3.0, 2.0, 2.0])
    Y = np.array([0.0, 0.3, 0.7])  # unsorted along the tied pair
    H = np.array([[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]])

    def test_hand_built_triple_matches_spectral_subgradient(self):
        # a hand-built triple that carried v = y read a Fan gap of -0.149,
        # against Fan's inequality, and one that carried its own matrix fed
        # it to the definitional test and y to the structural one
        theta = OrderStat(rank=2)
        hand = SubgradientTriple(self.Y, eig(self.X))
        ref = spectral_subgradient(theta, self.X, self.Y)
        assert hand.v.tolist() == ref.v.tolist() == [0.0, 0.7, 0.3]
        got = spectral_second_subderivative(theta, self.X, hand, self.H)
        want = spectral_second_subderivative(theta, self.X, ref, self.H)
        assert report_bits(got) == report_bits(want)
        assert (got.fan_gaps >= 0.0).all() and got.fan_gaps[1] == pytest.approx(0.269, abs=1e-3)
        member = critical_cone_member(theta, self.X, ref, self.H)
        assert critical_cone_member(theta, self.X, hand, self.H) is member is got.in_critical_cone
        cone = spectral._cone_tests(theta, self.X, ref, self.H)
        assert spectral._cone_tests(theta, self.X, hand, self.H) == cone
        assert cone[0] is member

    def test_weights_are_a_read_only_copy(self):
        theta = OrderStat(rank=2)
        builds = (
            lambda y: spectral_subgradient(theta, self.X, y),
            lambda y: SubgradientTriple(y, eig(self.X)),
        )
        for build in builds:
            want = build(self.Y)
            y = self.Y.copy()
            triple = build(y)
            y[:] = [1.0, 0.0, 0.0]  # the caller's vector changes no result
            got = spectral_second_subderivative(theta, self.X, triple, self.H)
            ref = spectral_second_subderivative(theta, self.X, want, self.H)
            assert report_bits(got) == report_bits(ref)
            assert triple.matrix.entries.tobytes() == want.matrix.entries.tobytes()
            assert triple.y.tolist() == self.Y.tolist()
            for name in ("y", "v"):
                with pytest.raises(ValueError):
                    getattr(triple, name)[0] = 1.0
                with pytest.raises(AttributeError):
                    setattr(triple, name, y)

    def test_wrong_length_is_one_error(self):
        # y's length is checked before the penalty's hypotheses: OrderStat(2)
        # is unsupported at a rank that ends a tied cluster
        for x in (self.X, np.diag([2.0, 2.0, 0.0])):
            es = eig(x)
            with pytest.raises(ValueError) as hand:
                SubgradientTriple([1.0, 0.0], es)
            with pytest.raises(ValueError) as lifted:
                spectral_subgradient(OrderStat(rank=2), es, [1.0, 0.0])
            assert str(hand.value) == str(lifted.value)
            assert str(hand.value) == "subgradient vector must have length 3, got (2,)"
        with pytest.raises(UnsupportedPointError):
            spectral_subgradient(OrderStat(rank=2), np.diag([2.0, 2.0, 0.0]), [0.0, 1.0, 0.0])


class TestHugeDirection:
    def test_second_order_terms_refuse_overflow(self):
        # the squares of 1e200 overflow: a named ValueError, not inf * 0 =
        # NaN, an overflowed cone norm or an internal ExtReal error
        x = np.diag([1.0, 0.0])
        huge = 1e200 * np.eye(2)
        theta, mcp = OrderStat(rank=1), McpSum(a=2.0, c=1.0)
        triple = spectral_subgradient(theta, x)
        calls = [
            lambda: spectral_second_subderivative(theta, x, triple, huge),
            lambda: spectral_second_subderivative(mcp, x, spectral_subgradient(mcp, x), huge),
            lambda: critical_cone_member(theta, x, triple, huge),
            lambda: leading_eig_second_subderivative(x, 1, triple, huge),
            lambda: second_semiderivative(theta, x, huge),
            lambda: curvature_correction(x, triple.y, huge),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="scale 1e\\+200"):
                call()
        # first-order data does not square the direction
        assert spectral_subderivative(theta, x, huge) == 1e200
        assert second_semiderivative(theta, x, 1e100 * np.eye(2)) == 0.0


def test_symmatrix_direction_reads_as_its_array():
    # as_sym_array hands a SymMatrix's entries on as they are: an exactly
    # symmetric H gives the same bits as an array and as a SymMatrix
    rng = key_rng(4251)
    for kind in CRITICAL_KINDS:
        theta, es, y, h = critical_instance(rng, kind)
        hs = SymMatrix(h)
        assert np.array_equal(hs.entries, h)
        triple = spectral_subgradient(theta, es, y)
        want = report_bits(spectral_second_subderivative(theta, es, triple, h))
        assert report_bits(spectral_second_subderivative(theta, es, triple, hs)) == want
        assert eig_dir_derivative(es, hs).tobytes() == eig_dir_derivative(es, h).tobytes()


class TestOneCore:
    """Every second-order entry point reads one core: X resolved, H
    validated and rotated once, v checked and the cone decided once."""

    def test_one_rotation_per_call(self, monkeypatch, tmp_path, capsys):
        rotations = []
        rotate = perturb._rotate

        def counted(es, hm):
            rotations.append(1)
            return rotate(es, hm)

        monkeypatch.setattr(perturb, "_rotate", counted)
        monkeypatch.setattr(spectral, "_rotate", counted)

        def count(call):
            rotations.clear()
            call()
            return len(rotations)

        rng = key_rng(49)
        x, _ = matrix_with_spectrum(rng, np.array([2.0, 1.0, 1.0, -0.5]))
        h = random_symmetric(rng, 4)
        theta = OrderStat(rank=1)
        triple = spectral_subgradient(theta, x)
        for point in (x, triple.es):
            for call in (
                lambda: spectral_second_subderivative(theta, point, triple, h),
                lambda: spectral_second_subderivative(theta, point, triple, h, QuotientProbe(samples=2)),
                lambda: critical_cone_member(theta, point, triple, h),
                lambda: leading_eig_second_subderivative(point, 1, triple, h),
                lambda: second_semiderivative(SmoothSep(coeff=1.0), point, h),
                lambda: curvature_correction(point, triple.y, h),
                lambda: subderivative_gap(theta, point, triple, h),
                lambda: fan_block_gaps(point, triple.y, h),
            ):
                assert count(call) == 1
        # CRITCONE and VERIFY read both cone tests off one rotation (2 before)
        paths = []
        for name, a in (("x", np.diag([2.0, 2.0, 0.0])), ("h", np.diag([0.2, 1.0, 0.3]))):
            (tmp_path / f"{name}.json").write_text(json.dumps({"entries": a.tolist()}))
            paths.append(str(tmp_path / f"{name}.json"))
        argv = ["--command", "CRITCONE", "--matrix", paths[0], "--direction", paths[1],
                "--theta", '{"name":"order_stat","i":1}']
        assert count(lambda: cli.main(argv)) == 1
        assert json.loads(capsys.readouterr().out)["outputs"]["in_critical_cone"] is True
        assert count(lambda: verify._check_cone_equivalence(key_rng(50))) == 12  # 12 instances

    def test_pairing_reads_the_raw_weights(self):
        # y is unsorted along the tied top pair: <Y, H> = y . diag(Ht) = 0.44,
        # where the sorted v would give 0.76
        x, h = np.diag([2.0, 2.0, 0.0]), np.diag([1.0, 0.2, 0.3])
        triple = spectral_subgradient(OrderStat(rank=1), x, [0.3, 0.7, 0.0])
        rep = spectral_second_subderivative(OrderStat(rank=1), x, triple, h)
        assert rep.pairing == pytest.approx(float(np.vdot(triple.matrix.entries, h)), abs=1e-15)
        assert rep.pairing == pytest.approx(0.44, abs=1e-15)

    def test_leading_route_rejects_weights_off_the_cluster(self):
        # 5e-10 passes membership (tolerance 1e-9) but lies off cluster 1
        x = np.diag([2.0, 1.0, 0.0])
        triple = spectral_subgradient(OrderStat(rank=1), x, [1.0, 0.0, 5e-10])
        with pytest.raises(UnsupportedPointError, match="supported on cluster 1"):
            leading_eig_second_subderivative(x, 1, triple, np.eye(3))

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_directions_on_each_side_of_the_cone_bound(self, ratio):
        # dd = (eps, 0, 1) leaves the residual max(dd_0, dd_1) - <v, dd> =
        # eps / 2 against the bound CONE_RTOL ||dd||_2 + SUBGRADIENT_TOL
        # ||dd||_1, about CONE_RTOL + SUBGRADIENT_TOL; the Fan gap is 0
        x, theta = np.diag([1.0, 1.0, 0.0]), OrderStat(rank=1)
        triple = spectral_subgradient(theta, x, [0.5, 0.5, 0.0])
        h = np.diag([2.0 * ratio * (CONE_RTOL + SUBGRADIENT_TOL), 0.0, 1.0])
        dd = eig_dir_derivative(triple.es, h)
        residual = theta.subderivative(triple.es.lam, dd) - triple.v @ dd
        bound = CONE_RTOL * np.linalg.norm(dd) + SUBGRADIENT_TOL * np.abs(dd).sum()
        assert residual / bound == pytest.approx(ratio, rel=1e-6)
        inside = ratio < 1.0
        assert critical_cone_member(theta, x, triple, h) is inside
        assert theta.critical_cone_member(triple.es.lam, triple.v, dd) is inside
        assert spectral_second_subderivative(theta, x, triple, h).d2.is_finite is inside


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
    # default cluster_tol has an absolute floor, so it is scaled with s;
    # the penalties judge ties with the width eig used.  s runs over powers
    # of two: eigh then returns the same eigenbasis, so one-hot weights
    # inside a cluster still name the same Y (any other rotation of a
    # cluster basis would name another)
    SCALES = tuple(2.0 ** k for k in (-60, -40, -24, -20, -13, -3, 0, 3, 13, 20, 27, 40, 60))

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


def power_of_two_draws():
    """(theta, x, y, h) over four families at clustered and distinct
    spectra, each point with aligned and generic directions: critical and
    non-critical draws of both order statistics and the gap penalty (two
    maximal gaps make its subdifferential a segment), and SmoothSep, for
    which every direction is critical.  y None is the canonical vertex."""
    rng = key_rng(4245)
    draws = []
    for theta, lam, y in (
        (OrderStat(rank=1), [1.0, 1.0, 0.5, -0.25], [1.0, 0.0, 0.0, 0.0]),
        (OrderStat(rank=2), [2.0, 1.0, 1.0, -0.5], [0.0, 1.0, 0.0, 0.0]),
        (EigGapMax(), [4.0, 2.0, 0.0, -1.0], None),
        (EigGapMax(), [1.5, -1.0, -2.2, -2.2], None),
        (SmoothSep(coeff=1.5), [1.0, 1.0, 0.5, -0.25], None),
    ):
        x, _ = matrix_with_spectrum(rng, np.array(lam))
        es = eig(x)
        for _ in range(3):
            draws += [(theta, x, y, aligned_direction(rng, es)), (theta, x, y, random_symmetric(rng, 4))]
    return draws


class TestPowerOfTwoScaling:
    # X -> 2^k X with cluster_tol -> 2^k cluster_tol, and H -> 2^k H, are
    # exact in floating point (eigh too), and no tie, kink or cone decision
    # has an absolute floor, so every decision matches k = 0 and d2 follows
    # its homogeneity law to the bit: degree one for the order statistics
    # and the gap penalty (y fixed), SmoothSep's gradient scaling with X
    KS = range(-60, 61)

    @staticmethod
    def d2_at(theta, x, tol, y, h):
        es = eig(x, cluster_tol=tol)
        triple = spectral_subgradient(theta, es, y)
        rep = spectral_second_subderivative(theta, es, triple, h)
        assert critical_cone_member(theta, es, triple, h) is rep.in_critical_cone
        return es.bounds.tolist(), rep.in_critical_cone, rep.d2

    def test_decisions_and_d2_follow_the_scale(self):
        draws = power_of_two_draws()
        seen = set()
        for theta, x, y, h in draws:
            tol = eig(x).cluster_tol
            bounds, critical, d2 = self.d2_at(theta, x, tol, y, h)
            assert critical == d2.is_finite
            seen.add((type(theta), critical))
            degree_one = not isinstance(theta, SmoothSep)
            for k in self.KS:
                s = 2.0**k
                got = self.d2_at(theta, s * x, s * tol, y, h)
                want = ExtReal(float(d2) / s) if degree_one and critical else d2
                assert got == (bounds, critical, want), (theta, k)
                assert self.d2_at(theta, x, tol, y, s * h) == (bounds, critical, s * s * d2), (theta, k)
        assert seen == {(type(t), c) for t, _, _, _ in draws for c in (True, False)} - {(SmoothSep, False)}

    @pytest.mark.parametrize(
        "theta, lam, why",
        [
            (OrderStat(rank=3), [2.0, 1.0, 1.0, -0.5], "not leading"),
            (EigGapMax(), [3.0, 3.0, 1.0, 0.0], "upper endpoint"),
            (EigGapMax(), [1.0, 1.0, 1.0], "largest gap is zero"),
        ],
    )
    def test_unsupported_points_stay_unsupported(self, theta, lam, why):
        x, _ = matrix_with_spectrum(key_rng(4246), np.array(lam))
        tol = eig(x).cluster_tol
        for k in self.KS:
            es = eig(2.0**k * x, cluster_tol=2.0**k * tol)
            with pytest.raises(UnsupportedPointError, match=why):
                spectral_subgradient(theta, es)


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


class TestOneTieDecision:
    """The penalties read eig's clustering: the spectrum at the cluster
    means, where a cluster's eigenvalues are equal, and ties within the
    width eig clustered with."""

    @pytest.mark.parametrize("g", [3e-9, 5e-9, 9e-9])
    def test_near_tie_at_the_default_width(self, g):
        # eig joins the pair at its default width (1.7e-8); the gradient at
        # the unequal eigenvalues, sorted along the pair, was no subgradient
        theta = McpSum(a=2.0, c=1.0)
        x = np.diag([0.5, 0.5 - g, -0.7])
        es = eig(x)
        assert es.cluster_tol == tie_width(0.7) and es.r == 2
        triple = spectral_subgradient(theta, x)
        assert triple.y[0] == triple.y[1] == theta.phi_prime(es.mu[0])
        h = random_symmetric(key_rng(4247), 3)
        rep = spectral_second_subderivative(theta, x, triple, h)
        assert rep.in_critical_cone and rep.d2.is_finite
        assert abs(subderivative_gap(theta, x, triple, h)) <= spectral.DEFINITIONAL_CONE_TOL
        assert second_semiderivative(theta, x, h) == float(rep.d2)

    def test_custom_width_joins_the_pair_for_the_penalty_too(self):
        x, _ = matrix_with_spectrum(key_rng(4248), np.array([0.5, 0.5 - 1e-4, -0.7]))
        theta = McpSum(a=2.0, c=1.0)
        wide = eig(x, cluster_tol=1e-3)
        triple = spectral_subgradient(theta, wide)
        assert wide.r == 2 and triple.y[0] == triple.y[1]
        swap = wide.u @ np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) @ wide.u.T
        for h in (swap, random_symmetric(key_rng(4248, 1), 3)):
            assert subderivative_gap(theta, wide, triple, h) == pytest.approx(0.0, abs=1e-12)
            assert critical_cone_member(theta, wide, triple, h)
            assert spectral_second_subderivative(theta, wide, triple, h).d2.is_finite
        # written at the default width, where the pair is two clusters, the
        # weights differ along the pair: no subgradient at the joined pair,
        # so a default-width triple is not read at the wide clustering
        narrow = spectral_subgradient(theta, x)
        assert narrow.y[0] < narrow.y[1]
        with pytest.raises(ValueError, match="width"):
            subderivative_gap(theta, wide, narrow, swap)
        with pytest.raises(ValueError, match="width"):
            critical_cone_member(theta, wide, narrow, swap)


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
        # the smooth branch is the general d2 taken at y = grad theta, the
        # canonical subgradient where the subdifferential is one point
        rng = key_rng(26)
        cases = [
            (SmoothSep(coeff=1.0), np.array([2.0, 0.5, -1.0])),
            (SmoothSep(coeff=-0.5), np.array([1.0, 1.0, -1.0])),
            (McpSum(a=2.0, c=1.0), np.array([3.0, 0.5, -0.7])),
            (McpSum(a=2.0, c=1.0), np.array([0.6, 0.6, -2.5, -2.5])),
            (OrderStat(rank=1), np.array([2.0, 0.5, 0.5, -1.0])),
            (OrderStat(rank=2), np.array([2.0, 0.5, -1.0])),
            (EigGapMax(), np.array([3.0, 1.0, 0.5, 0.5])),
        ]
        for theta, lam in cases:
            x, _ = matrix_with_spectrum(rng, lam)
            es = eig(x)
            h = random_symmetric(rng, es.n)
            triple = spectral_subgradient(theta, es)
            assert np.array_equal(triple.y, theta.gradient(es.position_means))
            general = spectral_second_subderivative(theta, es, triple, h).d2
            assert general.is_finite
            assert second_semiderivative(theta, es, h) == float(general)

    def test_kink_and_cap_rejected(self):
        theta = McpSum(a=2.0, c=1.0)
        with pytest.raises(UnsupportedPointError):
            second_semiderivative(theta, np.diag([1.2, 0.0]), np.eye(2))
        with pytest.raises(UnsupportedPointError):
            second_semiderivative(theta, np.diag([2.0, 0.5]), np.eye(2))

    @pytest.mark.parametrize(
        "theta, lam",
        [(OrderStat(rank=1), [2.0, 2.0, 0.0]), (EigGapMax(), [4.0, 2.0, 0.0])],
        ids=["tied-top", "tied-maximal-gaps"],
    )
    def test_kinked_polyhedral_point_rejected(self, theta, lam):
        x, _ = matrix_with_spectrum(key_rng(27), np.array(lam))
        with pytest.raises(UnsupportedPointError):
            theta.gradient(eig(x).position_means)
        with pytest.raises(UnsupportedPointError):
            second_semiderivative(theta, x, random_symmetric(key_rng(28), 3))

    def test_smooth_mcp_with_a_large_coefficient(self):
        # every direction is critical where McpSum is differentiable; the
        # cone test read this one as off the cone (d2 +inf) at c = 1e9
        theta = McpSum(a=2.0, c=1e9)
        x = np.diag([3e8, 1e8, -5e8])
        h = np.array([[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]])
        triple = spectral_subgradient(theta, x)
        rep = spectral_second_subderivative(theta, x, triple, h)
        assert rep.in_critical_cone and critical_cone_member(theta, x, triple, h)
        assert abs(subderivative_gap(theta, x, triple, h)) <= spectral.DEFINITIONAL_CONE_TOL
        assert float(rep.d2) == second_semiderivative(theta, x, h)
        assert float(rep.d2) == pytest.approx(0.3466666666666673, rel=1e-12)


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

    def test_prox_returned_ascending_is_sorted_before_embedding(self):
        class AscendingProx(SymmetricFunction):
            """A penalty whose prox hands back its point in ascending order."""

            def prox(self, gamma, x):
                return ProxResult(point=np.sort(np.asarray(x) / (1.0 + gamma)), closed_form=False)

        x, _ = matrix_with_spectrum(key_rng(4249), np.array([2.0, 0.5, -0.25, -1.0]))
        es = eig(x)
        res = spectral_prox(AscendingProx(), 1.0, es)
        p = es.lam / 2.0
        assert res.eigenvalues.tobytes() == p.tobytes()
        assert res.matrix.entries.tobytes() == SymMatrix((es.u * p) @ es.u.T).entries.tobytes()

    def test_fallback_marker_for_nonseparable_penalty(self):
        x = np.diag([2.0, 1.0])
        res = spectral_prox(OrderStat(rank=2), 0.7, x)
        assert not res.closed_form
        base = prox_objective(OrderStat(rank=2), 0.7, x, res.matrix.entries)
        assert base <= prox_objective(OrderStat(rank=2), 0.7, x, x) + 1e-8

    def test_closed_form_marker_for_largest_eigenvalue(self):
        x = np.diag([2.0, 1.0])
        res = spectral_prox(OrderStat(rank=1), 0.7, x)
        assert res.closed_form
        assert res.eigenvalues.tolist() == [2.0 - 0.7, 1.0]
        base = prox_objective(OrderStat(rank=1), 0.7, x, res.matrix.entries)
        assert base <= prox_objective(OrderStat(rank=1), 0.7, x, x) + 1e-8

    def test_largest_eigenvalue_never_above_numeric_prox(self):
        # the spectral prox rebuilt from the numeric prox of the spectrum is
        # the reference; the closed form may be lower, never higher
        theta, rng = OrderStat(rank=1), key_rng(63)
        cases = ((0.5, [1.0, 0.2, -0.5]), (0.8, [1.0, 1.0, 0.3, -0.4]), (0.3, [1.0, 1.0, 1.0, 0.2]))
        for gamma, lam in cases:
            x = matrix_with_spectrum(rng, np.array(lam))[0]
            es = eig(x)
            got = prox_objective(theta, gamma, x, spectral_prox(theta, gamma, es).matrix.entries)
            p = np.sort(numeric_prox(theta.value, gamma, es.lam).point)[::-1]
            want = prox_objective(theta, gamma, x, (es.u * p) @ es.u.T)
            assert got <= want + 1e-12 * (1.0 + abs(want)), (gamma, lam)

    @pytest.mark.parametrize(
        "lam", [[8e307, 8e307, 7e307], [1.7e308, 0.0, -1.7e308], [-7e307, -8e307, -8e307]]
    )
    def test_largest_eigenvalue_at_extreme_spectra(self, lam):
        # prefix sums of these spectra overflow unless taken relative to the
        # top (eig's cluster means overflow at a tied pair beyond 9e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = spectral_prox(OrderStat(rank=1), 0.5, np.diag(lam))
        assert res.closed_form and np.all(np.isfinite(res.matrix.entries))

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            spectral_prox(McpSum(a=2.0, c=1.0), 2.0, np.eye(2))
        with pytest.raises(ValueError):
            spectral_prox(SmoothSep(coeff=1.0), 0.0, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 5, 64, 200])
def test_embedding_is_bit_identical_to_two_gemms(n):
    # (U * y) @ U^T is one GEMM; U @ diag(y) equals U * y exactly, so the
    # remaining GEMM sees the same operands.  McpSum(2, 1) has zero weights
    # beyond |lambda| = 2 and a zero prox within |lambda| <= gamma
    theta, gamma = McpSum(a=2.0, c=1.0), 0.5
    rng = key_rng(43, n)
    for diagonal in (False, True):
        mag = rng.choice([0.25, 1.2, 3.0], size=n) + rng.uniform(0.0, 0.2, size=n)
        lam = np.sort(mag * rng.choice([-1.0, 1.0], size=n))[::-1]
        x = np.diag(lam) if diagonal else matrix_with_spectrum(rng, lam)[0]
        es = eig(x)
        tr = spectral_subgradient(theta, x)
        want = SymMatrix(es.u @ np.diag(tr.y) @ es.u.T).entries
        assert tr.matrix.entries.tobytes() == want.tobytes()
        res = spectral_prox(theta, gamma, x)
        want = SymMatrix(es.u @ np.diag(res.eigenvalues) @ es.u.T).entries
        assert res.matrix.entries.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("theta", [SmoothSep(coeff=1.0), McpSum(a=2.0, c=1.0)], ids=lambda t: t.name)
    def test_eigensystem_matches_matrix(self, theta):
        # an EigenSystem used to raise a bare TypeError from as_sym_array
        rng = key_rng(26)
        x = random_symmetric(rng, 3)
        d = random_symmetric(rng, 3)
        a = prox_directional_derivative(theta, 0.5, x, d)
        b = prox_directional_derivative(theta, 0.5, eig(x), d)
        assert a.derivative.tobytes() == b.derivative.tobytes()
        assert a.converged == b.converged

    def test_largest_eigenvalue_converges(self):
        # on top of Powell the quotients drifted past the tolerance; the
        # closed form is smooth at a point where no eigenvalue meets c
        rng = key_rng(64)
        for _ in range(10):
            x, d = random_symmetric(rng, 4), random_symmetric(rng, 4)
            out = prox_directional_derivative(OrderStat(rank=1), 0.5, x, d)
            assert out.converged, out.extrapolants[-1] - out.extrapolants[-2]

    def test_largest_eigenvalue_derivative_where_only_the_top_moves(self):
        # P(X) = X - gamma u1 u1^T near diag(3, 1, 0), so
        # P'(X; D) = D - gamma (e1 u1'^T + u1' e1^T), u1'_k = D_k1 / (3 - lam_k)
        rng = key_rng(65)
        d = random_symmetric(rng, 3)
        du = np.array([0.0, d[1, 0] / 2.0, d[2, 0] / 3.0])
        want = d - 0.5 * (np.outer([1.0, 0.0, 0.0], du) + np.outer(du, [1.0, 0.0, 0.0]))
        out = prox_directional_derivative(OrderStat(rank=1), 0.5, np.diag([3.0, 1.0, 0.0]), d)
        assert out.converged
        np.testing.assert_allclose(out.derivative, want, rtol=0.0, atol=1e-6)

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
        # a zero step divided by zero; negative steps gave backward
        # differences that read as converged
        for grid in ((1e-3, 0.0, 0.0), (-1e-3, -1e-4, -1e-5)):
            with pytest.raises(ValueError, match="t_grid must be strictly decreasing and positive"):
                prox_directional_derivative(SmoothSep(coeff=1.0), 1.0, x, x, t_grid=grid)
        for grid in ((np.inf, 1e-4, 1e-5), (1e-3, np.nan, 1e-5)):
            with pytest.raises(ValueError, match="t_grid entries must be finite"):
                prox_directional_derivative(SmoothSep(coeff=1.0), 1.0, x, x, t_grid=grid)
