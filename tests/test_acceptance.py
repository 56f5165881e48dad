"""Package-level guarantees at full trial counts.

Each test here pins one end-to-end contract: closed-form outputs against
independent difference-quotient oracles, convergence orders of the
eigenvalue expansions, cone characterizations, prox optimality, and the
invariance properties every formula must respect.  Trial counts and
tolerances are part of the contract and are not to be loosened casually.
"""
import math

import numpy as np
import pytest

from specvar import (
    POS_INF,
    EigGapMax,
    McpSum,
    OrderStat,
    QuotientProbe,
    SmoothSep,
    critical_cone_member,
    diff_quotient2,
    eig,
    eig_dir_derivative,
    eig_second_prediction,
    epi_attainment_search,
    gapped_spectrum,
    leading_eig_second_subderivative,
    lifted,
    matrix_with_spectrum,
    numeric_second_subderivative,
    numeric_subderivative,
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
from conftest import (
    CRITICAL_KINDS,
    aligned_direction,
    any_critical_instance,
    clustered_matrix,
    critical_instance,
    key_rng,
    noncritical_instance,
    order_stat_block_instance,
    rotate_within_blocks,
)


def loglog_slope(ts, rs):
    ts = np.asarray(ts, dtype=float)
    rs = np.asarray(rs, dtype=float)
    assert np.all(rs > 0.0)
    return float(np.polyfit(np.log(ts), np.log(rs), 1)[0])


def prox_objective(theta, gamma, x, p):
    lam = np.sort(np.linalg.eigvalsh(p))[::-1]
    return theta.value(lam) + float(np.vdot(p - x, p - x)) / (2.0 * gamma)


def test_eigenvalue_expansion_orders():
    # remainder of the first-order expansion decays quadratically and of
    # the second-order prediction cubically, at spectra with tied clusters
    rng = key_rng(101)
    ts = (1e-2, 1e-3, 1e-4, 1e-5)
    for k in range(100):
        m = int(rng.integers(2, 5))
        lam = gapped_spectrum(rng, (m, 6 - m), gap=1.0)
        x, _ = matrix_with_spectrum(rng, lam)
        es = eig(x)
        h = random_symmetric(rng, 6, frob=4.0)
        dd = eig_dir_derivative(es, h)
        r1, r2 = [], []
        for t in ts:
            lam_t = np.sort(np.linalg.eigvalsh(x + t * h))[::-1]
            r1.append(np.linalg.norm(lam_t - es.lam - t * dd))
            r2.append(np.linalg.norm(lam_t - eig_second_prediction(es, h, t)))
        assert abs(loglog_slope(ts, r1) - 2.0) <= 0.3, f"instance {k}"
        assert abs(loglog_slope(ts, r2) - 3.0) <= 0.3, f"instance {k}"


def test_subderivative_matches_quotient_oracle():
    # 200 supported-point instances, 50 per penalty kind
    rng = key_rng(102)
    pool = ((1, 2), (2, 1), (3,), (2, 2))
    for k in range(200):
        kind = k % 4
        if kind == 0:
            sizes = pool[int(rng.integers(0, 4))]
            es, theta, _ = order_stat_block_instance(rng, sizes, int(rng.integers(0, len(sizes))))
        elif kind == 1:
            if k % 8 < 4:
                theta, es, _, _ = critical_instance(rng, "mcp_zero")
            else:
                theta = McpSum(a=2.0, c=1.0)
                es = eig(clustered_matrix(rng, pool[int(rng.integers(0, 4))]))
        elif kind == 2:
            theta, es, _, _ = critical_instance(rng, "gap")
        else:
            theta, es, _, _ = critical_instance(rng, "smooth")
        h = random_symmetric(rng, es.n, frob=0.5)
        formula = spectral_subderivative(theta, es, h)
        oracle = numeric_subderivative(
            lifted(theta), es.matrix.entries, h, samples=24, seed=k
        )
        assert oracle.is_finite
        assert abs(formula - float(oracle)) <= 1e-4, f"instance {k}: {theta}"


class TestSecondOrderFormulaVsOracle:
    def test_flagship_instance(self):
        x = np.diag([2.0, 1.0])
        theta = OrderStat(rank=1)
        triple = spectral_subgradient(theta, x, [1.0, 0.0])
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = spectral_second_subderivative(theta, x, triple, h, probe=QuotientProbe())
        assert float(rep.d2) == pytest.approx(2.0, abs=1e-12)
        assert rep.oracle_gap is not None and rep.oracle_gap <= 1e-2

    def test_hundred_critical_directions(self):
        rng = key_rng(103)
        probe = QuotientProbe(t_grid=(1e-3, 1e-4), samples=48, seed=0)
        for k in range(100):
            theta, es, y, h = critical_instance(rng, CRITICAL_KINDS[k % 5])
            h = h / np.linalg.norm(h)
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h, probe=probe)
            assert rep.d2.is_finite, f"instance {k} not critical"
            assert rep.oracle_gap <= 1e-2, f"instance {k}: gap {rep.oracle_gap}"

    def test_hundred_noncritical_directions_diverge(self):
        rng = key_rng(104)
        probe = QuotientProbe(t_grid=(1e-3, 1e-4), samples=16, seed=0)
        for k in range(100):
            theta, es, y, h = noncritical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h)
            assert rep.d2 == POS_INF
            res = numeric_second_subderivative(
                lifted(theta), es.matrix.entries, triple.matrix.entries, h, probe
            )
            level = res.levels[-1]
            assert level.t == 1e-4
            assert float(level.minimum) > 1e3, f"instance {k}: {level.minimum}"


def test_oracle_never_undercuts_formula():
    # 500 finite-value instances; the sampled quotient envelope must stay
    # above the closed form minus 5e-3
    rng = key_rng(105)
    probe = QuotientProbe(t_grid=(1e-4, 1e-5), samples=24, seed=0)
    for k in range(500):
        theta, es, y, h = critical_instance(rng, CRITICAL_KINDS[k % 5])
        h = h / np.linalg.norm(h)
        triple = spectral_subgradient(theta, es, y)
        rep = spectral_second_subderivative(theta, es, triple, h)
        assert rep.d2.is_finite
        res = numeric_second_subderivative(
            lifted(theta), es.matrix.entries, triple.matrix.entries, h, probe
        )
        assert float(res.estimate) >= float(rep.d2) - 5e-3, f"instance {k}"


def test_cone_membership_equals_definitional_test():
    # structural test (penalty cone + Fan equalities) against the
    # definition-level residual, resampling directions whose residual sits
    # inside the unresolvable tolerance band
    rng = key_rng(106)
    tested = 0
    while tested < 500:
        theta, es, y, h = any_critical_instance(rng)
        triple = spectral_subgradient(theta, es, y)
        if tested % 2 == 1:
            for _ in range(50):
                h = random_symmetric(rng, es.n)
                gap = abs(subderivative_gap(theta, es, triple, h))
                if not (1e-10 < gap < 1e-4):
                    break
            else:
                continue
        gap = abs(subderivative_gap(theta, es, triple, h))
        if 1e-10 < gap < 1e-4:
            continue
        member = critical_cone_member(theta, es, triple, h)
        assert member == (gap <= 1e-7), f"trial {tested}: gap {gap}, member {member}"
        tested += 1


def test_leading_eigenvalue_matches_general_machinery():
    rng = key_rng(107)
    pool = ((2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 2), (1, 3))
    finite_seen = 0
    for k in range(200):
        sizes = pool[int(rng.integers(0, len(pool)))]
        block = int(rng.integers(0, len(sizes)))
        es, theta, y = order_stat_block_instance(rng, sizes, block, interior=bool(k % 2))
        b = es.blocks[block]
        y[b] = np.sort(y[b])[::-1]
        triple = spectral_subgradient(theta, es, y)
        h = aligned_direction(rng, es) if k % 3 else random_symmetric(rng, es.n)
        direct = leading_eig_second_subderivative(es, block + 1, triple, h)
        rep = spectral_second_subderivative(theta, es, triple, h)
        assert direct.is_finite == rep.d2.is_finite, f"instance {k}"
        if direct.is_finite:
            finite_seen += 1
            assert abs(float(direct) - float(rep.d2)) <= 1e-10, f"instance {k}"
    assert finite_seen >= 50  # the comparison must exercise the finite branch


class TestScalarMcpCalculus:
    def test_prox_against_grid_search(self):
        rng = key_rng(108)
        for k in range(1000):
            a = float(rng.uniform(1.2, 3.0))
            c = float(rng.uniform(0.5, 2.0))
            theta = McpSum(a=a, c=c)
            gamma = float(rng.uniform(0.05, 0.95)) * a
            x = float(rng.uniform(-4.0, 4.0))
            closed = float(theta.prox(gamma, np.array([x])).point[0])

            def obj(z):
                return theta.phi(z) + (z - x) ** 2 / (2.0 * gamma)

            half = abs(x) + 0.5
            coarse = np.arange(-half, half, 2e-3)
            z0 = coarse[int(np.argmin(obj(coarse)))]
            fine = np.arange(z0 - 4e-3, z0 + 4e-3, 1e-6)
            z1 = fine[int(np.argmin(obj(fine)))]
            assert abs(closed - z1) <= 2e-5, f"trial {k}: x={x}, gamma={gamma}"

    def test_kink_second_subderivative_against_quotients(self):
        rng = key_rng(109)
        zero = np.array([0.0])
        for k in range(50):
            a = float(rng.uniform(1.2, 3.0))
            c = float(rng.uniform(0.5, 2.0))
            theta = McpSum(a=a, c=c)
            s = 1.0 if k % 2 == 0 else -1.0
            w = s * float(rng.uniform(0.1, 2.0))
            d2 = theta.second_subderivative(zero, [s * c], [w])
            assert d2.is_finite
            assert float(d2) == pytest.approx(-(w**2) / a, abs=1e-12)
            q = diff_quotient2(
                lambda z: theta.value(z), zero, np.array([s * c]), np.array([w]), 1e-4
            )
            assert abs(float(d2) - float(q)) <= 1e-2

    def test_off_cone_quotients_diverge(self):
        rng = key_rng(110)
        zero = np.array([0.0])
        for k in range(50):
            theta = McpSum(a=2.0, c=1.0)
            if k % 2 == 0:
                y = float(rng.uniform(-0.6, 0.6))  # interior of the box
                w = float(rng.uniform(0.5, 2.0)) * (1.0 if k % 4 == 0 else -1.0)
            else:
                y = 1.0
                w = -float(rng.uniform(0.5, 2.0))  # corner, wrong sign
            assert theta.second_subderivative(zero, [y], [w]) == POS_INF
            q = diff_quotient2(
                lambda z: theta.value(z), zero, np.array([y]), np.array([w]), 1e-4
            )
            assert float(q) > 1e3

    def test_zero_direction_is_zero(self):
        theta = McpSum(a=2.0, c=1.0)
        zero = np.array([0.0])
        d2 = theta.second_subderivative(zero, [0.3], [0.0])
        assert d2.is_finite and float(d2) == 0.0


class TestMatrixProx:
    def test_beats_random_probes(self):
        rng = key_rng(111)
        failures = 0
        for k in range(100):
            if k % 3 == 2:
                theta = SmoothSep(coeff=float(rng.uniform(0.5, 2.0)))
                gamma = float(rng.uniform(0.2, 1.5))
            else:
                theta = McpSum(a=2.0, c=1.0)
                gamma = float(rng.uniform(0.1, 1.5))
            n = int(rng.integers(3, 5))
            x = (
                random_symmetric(rng, n, frob=2.0)
                if k % 2
                else clustered_matrix(rng, (2, n - 2) if n > 2 else (n,))
            )
            p = spectral_prox(theta, gamma, x).matrix.entries
            base = prox_objective(theta, gamma, x, p)
            for j in range(200):
                eps = 10.0 ** rng.uniform(-2.0, -0.3)
                w = p + eps * random_symmetric(rng, n)
                if base > prox_objective(theta, gamma, x, w) + 1e-10:
                    failures += 1
        assert failures == 0

    def test_directional_derivative_converges_on_smooth_branches(self):
        rng = key_rng(112)
        theta = McpSum(a=2.0, c=1.0)
        gamma = 0.5
        halving = (1e-3, 5e-4, 2.5e-4)
        for k in range(30):
            # one eigenvalue per prox branch, clear of the boundaries
            lam = np.array(
                [
                    float(rng.uniform(2.25, 4.0)),
                    float(rng.uniform(0.75, 1.75)),
                    float(rng.uniform(0.0, 0.3)),
                ]
            )
            x, _ = matrix_with_spectrum(rng, lam)
            d = random_symmetric(rng, 3)
            out = prox_directional_derivative(theta, gamma, x, d, t_grid=halving)
            assert out.converged, f"instance {k}"
        for k in range(10):
            x = random_symmetric(rng, 3)
            d = random_symmetric(rng, 3)
            out = prox_directional_derivative(
                SmoothSep(coeff=1.0), 1.0, x, d, t_grid=halving
            )
            assert out.converged
            np.testing.assert_allclose(out.derivative, d / 2.0, atol=1e-9)


class TestSecondSemiderivative:
    def test_smooth_matches_central_difference_and_norm(self):
        rng = key_rng(113)
        t = 1e-4
        for k in range(20):
            theta = SmoothSep(coeff=1.0)
            x = random_symmetric(rng, 4, frob=1.0)
            h = random_symmetric(rng, 4, frob=1.0)
            semi = second_semiderivative(theta, x, h)
            assert semi == pytest.approx(float(np.vdot(h, h)), rel=1e-9)
            cdiff = (
                spectral_value(theta, x + t * h)
                - 2.0 * spectral_value(theta, x)
                + spectral_value(theta, x - t * h)
            ) / t**2
            assert abs(semi - cdiff) <= 1e-6, f"instance {k}"

    def test_mcp_kink_free_matches_central_difference(self):
        rng = key_rng(114)
        theta = McpSum(a=2.0, c=1.0)
        t = 1e-4
        for k in range(20):
            # spectrum clear of the kink at zero and the cap at a*c
            mags = rng.uniform(0.3, 1.7, size=3)
            signs = rng.choice([-1.0, 1.0], size=3)
            lam = np.sort(mags * signs)[::-1]
            x, _ = matrix_with_spectrum(rng, lam)
            h = random_symmetric(rng, 3, frob=1.0)
            semi = second_semiderivative(theta, x, h)
            cdiff = (
                spectral_value(theta, x + t * h)
                - 2.0 * spectral_value(theta, x)
                + spectral_value(theta, x - t * h)
            ) / t**2
            assert abs(semi - cdiff) <= 1e-3, f"instance {k}"


class TestEpiAttainment:
    T_SEQ = (1e-2, 1e-3, 1e-4)

    def test_succeeds_on_curated_finite_value_instances(self):
        # every drawn instance must attain the formula value at the final
        # level; the success flag additionally demands monotonically
        # shrinking search distances, a conservative diagnostic that the
        # derivative-free search cannot guarantee when it crosses the
        # target surface along a shallow coordinate, so the curated set is
        # the (deterministic) majority of draws that also clear it
        rng = key_rng(115)
        kinds = ("vertex", "distinct")
        curated = 0
        for attempt in range(120):
            theta, es, y, h = critical_instance(rng, kinds[attempt % 2])
            h = h / np.linalg.norm(h)
            triple = spectral_subgradient(theta, es, y)
            rep = spectral_second_subderivative(theta, es, triple, h)
            assert rep.d2.is_finite
            d2 = float(rep.d2)
            res = epi_attainment_search(
                lifted(theta),
                es.matrix.entries,
                triple.matrix.entries,
                h,
                d2,
                t_seq=self.T_SEQ,
                sweeps=2,
            )
            assert abs(res.levels[-1].quotient - d2) <= 1e-2, f"attempt {attempt}"
            curated += bool(res.success)
        assert curated >= 50

    def test_fails_on_unreachable_targets(self):
        # at a simple top eigenvalue every second-order quotient of the
        # largest-eigenvalue lift is nonnegative, so formula - 1 with the
        # formula value scaled below 0.9 is unreachable by any w' near w
        rng = key_rng(116)
        theta = OrderStat(rank=1)
        for k in range(50):
            x = clustered_matrix(rng, (1, 2) if k % 2 else (1, 1, 1))
            es = eig(x)
            y = np.zeros(3)
            y[0] = 1.0
            triple = spectral_subgradient(theta, es, y)
            h = random_symmetric(rng, 3, frob=1.0)
            rep = spectral_second_subderivative(theta, es, triple, h)
            d2 = float(rep.d2)
            assert rep.d2.is_finite and d2 >= -1e-12
            if d2 > 0.8:
                h = h * math.sqrt(0.8 / d2)
                d2 = float(spectral_second_subderivative(theta, es, triple, h).d2)
            res = epi_attainment_search(
                lifted(theta),
                es.matrix.entries,
                triple.matrix.entries,
                h,
                d2 - 1.0,
                t_seq=self.T_SEQ,
                sweeps=2,
            )
            assert not res.success, f"instance {k}"


class TestInvarianceSuite:
    def test_permutation_invariance_of_penalties(self):
        rng = key_rng(117)
        kinds = [OrderStat(rank=1), OrderStat(rank=2), McpSum(a=2.0, c=1.0), EigGapMax(), SmoothSep(coeff=1.3)]
        for k in range(1000):
            theta = kinds[int(rng.integers(0, len(kinds)))]
            n = int(rng.integers(2, 7))
            x = rng.uniform(-3.0, 3.0, size=n)
            p = rng.permutation(n)
            assert theta.value(x[p]) == pytest.approx(theta.value(x), abs=1e-12)

    def test_orthogonal_invariance_of_lift(self):
        rng = key_rng(118)
        kinds = [OrderStat(rank=2), McpSum(a=2.0, c=1.0), EigGapMax(), SmoothSep(coeff=1.0)]
        for k in range(1000):
            theta = kinds[k % 4]
            x = random_symmetric(rng, 4)
            v = random_orthogonal(rng, 4)
            drift = abs(spectral_value(theta, v.T @ x @ v) - spectral_value(theta, x))
            assert drift <= 1e-10, f"trial {k}"

    def test_basis_invariance_of_eigenvalue_derivative(self):
        rng = key_rng(119)
        pool = ((2, 1), (1, 2), (2, 2), (3,))
        for k in range(1000):
            x = clustered_matrix(rng, pool[k % 4])
            es = eig(x)
            h = random_symmetric(rng, es.n)
            a = eig_dir_derivative(es, h)
            b = eig_dir_derivative(rotate_within_blocks(rng, es), h)
            assert np.max(np.abs(a - b)) <= 1e-9, f"trial {k}"

    def test_degree_two_homogeneity_of_second_order_formulas(self):
        # 1000 trials split across the penalty-level formula, the full
        # matrix-level report, and the smooth-branch semiderivative
        rng = key_rng(120)
        for k in range(400):
            theta, es, y, _ = any_critical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            w = rng.standard_normal(es.n)
            s = float(rng.uniform(0.3, 3.0))
            a = theta.second_subderivative(es.lam, triple.v, w)
            b = theta.second_subderivative(es.lam, triple.v, s * w)
            assert a.is_finite == b.is_finite
            if a.is_finite:
                assert float(b) == pytest.approx(s * s * float(a), rel=1e-12, abs=1e-12)
        for k in range(300):
            theta, es, y, h = any_critical_instance(rng)
            triple = spectral_subgradient(theta, es, y)
            s = float(rng.uniform(0.3, 3.0))
            a = spectral_second_subderivative(theta, es, triple, h).d2
            b = spectral_second_subderivative(theta, es, triple, s * h).d2
            assert a.is_finite == b.is_finite
            if a.is_finite:
                assert float(b) == pytest.approx(s * s * float(a), rel=1e-12, abs=1e-12)
        for k in range(300):
            x = random_symmetric(rng, 3, frob=1.0)
            h = random_symmetric(rng, 3)
            s = float(rng.uniform(0.3, 3.0))
            a = second_semiderivative(SmoothSep(coeff=1.0), x, h)
            b = second_semiderivative(SmoothSep(coeff=1.0), x, s * h)
            assert b == pytest.approx(s * s * a, rel=1e-12, abs=1e-12)
