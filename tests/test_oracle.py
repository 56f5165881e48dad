"""Brute-force cross-checks: difference quotients, sampled first- and
second-order estimates, the attainment search, and the numeric prox."""
import math
import warnings

import numpy as np
import pytest

from specvar import (
    POS_INF,
    EigGapMax,
    McpSum,
    OrderStat,
    OracleError,
    QuotientProbe,
    SmoothSep,
    diff_quotient2,
    epi_attainment_search,
    numeric_prox,
    numeric_second_subderivative,
    numeric_subderivative,
    lifted,
    spectral_second_subderivative,
    spectral_subgradient,
)
from specvar import oracle
from specvar import spectral as spectral_module
from conftest import key_rng


def quad_form(q):
    q = np.asarray(q, dtype=float)

    def f(z):
        z = np.asarray(z, dtype=float).ravel()
        return 0.5 * float(z @ q @ z)

    return f


class TestDiffQuotient:
    def test_exact_on_quadratics(self):
        q = np.diag([2.0, 6.0])
        f = quad_form(q)
        x = np.array([1.0, -1.0])
        v = q @ x
        w = np.array([0.5, 0.25])
        expected = float(w @ q @ w)
        # rounding in f is amplified by 2/t^2, so the floor grows as t shrinks
        for t, tol in ((1e-2, 1e-10), (1e-4, 1e-6)):
            got = diff_quotient2(f, x, v, w, t)
            assert float(got) == pytest.approx(expected, abs=tol)

    def test_infinite_outside_domain(self):
        def f(z):
            z = np.asarray(z).ravel()
            return float(z[0]) if z[0] <= 1.0 else math.inf

        q = diff_quotient2(f, np.array([0.9]), np.array([1.0]), np.array([1.0]), 0.2)
        assert q.tag == "pos_inf"

    def test_requires_domain_base_point(self):
        f = lambda z: math.inf
        with pytest.raises(ValueError):
            diff_quotient2(f, np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.1)

    def test_requires_positive_t(self):
        f = lambda z: 0.0
        with pytest.raises(ValueError):
            diff_quotient2(f, np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.0)


class TestSecondOrderProbe:
    def test_quadratic_estimate(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = quad_form(q)
        x = np.array([0.3, -0.2])
        w = np.array([1.0, 2.0])
        probe = QuotientProbe(samples=32, seed=5)
        res = numeric_second_subderivative(f, x, q @ x, w, probe)
        exact = float(w @ q @ w)
        # the ball minimum undershoots a smooth target by O(|Qw| * radius)
        assert exact - 5e-4 <= float(res.estimate) <= exact + 1e-9

    def test_estimate_below_at_w_quotients(self):
        rng = key_rng(41)
        q = np.diag([1.0, 3.0, 0.5])
        f = quad_form(q)
        x = rng.standard_normal(3)
        w = rng.standard_normal(3)
        res = numeric_second_subderivative(f, x, q @ x, w, QuotientProbe(samples=16))
        for lv in res.levels[-2:]:
            assert res.estimate <= lv.at_w
            assert lv.minimum <= lv.at_w

    def test_deterministic_given_seed(self):
        f = quad_form(np.eye(2))
        x = np.array([1.0, 2.0])
        w = np.array([0.3, -0.4])
        probe = QuotientProbe(samples=8, seed=7)
        a = numeric_second_subderivative(f, x, x, w, probe)
        b = numeric_second_subderivative(f, x, x, w, probe)
        assert float(a.estimate) == float(b.estimate)
        assert [float(l.minimum) for l in a.levels] == [
            float(l.minimum) for l in b.levels
        ]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QuotientProbe(t_grid=(1e-3,))
        with pytest.raises(ValueError):
            QuotientProbe(t_grid=(1e-4, 1e-3))
        with pytest.raises(ValueError):
            QuotientProbe(samples=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_grid": (math.nan, 1e-3)},
            {"t_grid": (math.inf, 1e-3)},
            {"t_grid": (1e-2, math.nan)},
            {"radius": math.nan},
            {"radius": math.inf},
        ],
    )
    def test_rejects_non_finite_settings(self, kwargs):
        # a NaN radius used to pass, and then fails every rad > 0 test
        with pytest.raises(ValueError):
            QuotientProbe(**kwargs)

    def test_divergence_shows_in_levels(self):
        # kink residual: quotients blow up like 2 delta / t
        f = lambda z: float(np.abs(np.asarray(z)).sum())
        x = np.array([0.0])
        v = np.array([0.0])  # a subgradient, but w leaves its cone
        w = np.array([1.0])
        res = numeric_second_subderivative(
            f, x, v, w, QuotientProbe(samples=8, radius=0.1, seed=1)
        )
        mins = [float(l.minimum) for l in res.levels]
        assert mins[-1] > 100 * mins[0] > 0

    def test_step_below_the_resolution_of_f_is_refused(self):
        # 1e300 + 1e-3 rounds to 1e300: every quotient read -2 <v, w'> / t,
        # an estimate of -2000 for a linear f, where the truth is 0
        f = lambda z: float(np.sum(z))
        x, v, w = np.array([1e300]), np.array([1.0]), np.array([1.0])
        with pytest.raises(OracleError, match=r"t=0\.001 at f\(x\)=1e\+300"):
            numeric_second_subderivative(f, x, v, w, QuotientProbe(samples=4))
        # a flat f with v = 0 is resolved: every quotient is 0
        res = numeric_second_subderivative(lambda z: 1e300, x, 0.0 * v, w, QuotientProbe(samples=4))
        assert float(res.estimate) == 0.0
        # at a resolvable scale the same linear f is exact up to rounding
        res = numeric_second_subderivative(f, np.array([1.0]), v, w, QuotientProbe(samples=4))
        assert abs(float(res.estimate)) < 1e-6


class TestFirstOrderProbe:
    def test_smooth_matches_gradient(self):
        q = np.diag([2.0, 1.0])
        f = quad_form(q)
        x = np.array([1.0, 1.0])
        w = np.array([0.7, -0.1])
        est = numeric_subderivative(f, x, w, samples=16)
        assert float(est) == pytest.approx(float((q @ x) @ w), abs=1e-4)

    def test_abs_kink(self):
        f = lambda z: float(np.abs(np.asarray(z)).sum())
        est = numeric_subderivative(f, np.array([0.0]), np.array([-2.0]), samples=16)
        assert float(est) == pytest.approx(2.0, abs=1e-4)

    def test_empty_grid_raises(self):
        with pytest.raises(OracleError):
            numeric_subderivative(lambda z: 0.0, np.zeros(2), np.ones(2), t_grid=())


def lifted_instance():
    rng = key_rng(5150)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    theta = McpSum(a=2.0, c=1.0)
    x = (a + a.T) / 2.0
    return theta, x, spectral_subgradient(theta, x).matrix.entries, (b + b.T) / 2.0


def vector_instance():
    q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    f = lambda z: 0.5 * float(z @ q @ z) + float(np.abs(z).sum())
    x = np.array([0.4, -0.3, 1.1])
    return f, x, q @ x + np.sign(x), np.array([1.0, -2.0, 0.5])


def probe_values(res):
    """Estimate, then (at_w, minimum) per level, as floats."""
    return [float(res.estimate)] + [
        float(v) for lv in res.levels for v in (lv.at_w, lv.minimum)
    ]


FROZEN_PROBE = QuotientProbe(samples=24, seed=3)


class TestFrozenOutputs:
    """Oracle outputs pinned to the last bit.  The literals were recorded
    with numpy 2.4 and OpenBLAS 0.3 under the two streams per grid level
    (normals from default_rng([seed, k, 0]), radii from
    default_rng([seed, k, 1])); another LAPACK may move the last digits of
    the lifted ones."""

    def test_lifted_penalty(self):
        theta, x, v, h = lifted_instance()
        res = numeric_second_subderivative(lifted(theta), x, v, h, FROZEN_PROBE)
        assert probe_values(res) == [
            -2.3538459564664134,
            -2.3740425825710676, -2.3747749268636373,
            -2.353807298113419, -2.3538459564664134,
            -2.351736837907792, -2.3517373023366344,
        ]
        est = numeric_subderivative(lifted(theta), x, h, samples=24, seed=3)
        assert float(est) == 1.616630873471081

    def test_plain_callable(self):
        f, x, v, w = vector_instance()
        res = numeric_second_subderivative(f, x, v, w, FROZEN_PROBE)
        assert probe_values(res) == [
            4.249942879289842,
            4.24999999999856, 4.248310840980207,
            4.250000000457013, 4.249942879289842,
            4.250000072724726, 4.249998124890471,
        ]
        assert float(numeric_subderivative(f, x, w, samples=24, seed=3)) == 5.412502125601293

    @pytest.mark.parametrize("theta", [McpSum(a=2.0, c=1.0), OrderStat(rank=2)])
    def test_stacked_equals_point_by_point(self, theta):
        _, x, _, h = lifted_instance()
        v = spectral_subgradient(theta, x).matrix.entries
        f = lifted(theta)
        assert f.accepts_stack
        one_by_one = lambda a: f(a)  # no accepts_stack: evaluated per point
        for probe in (FROZEN_PROBE, QuotientProbe(radius=3.0, samples=9, seed=1)):
            assert probe_values(numeric_second_subderivative(f, x, v, h, probe)) == probe_values(
                numeric_second_subderivative(one_by_one, x, v, h, probe)
            )
        assert float(numeric_subderivative(f, x, h, samples=24)) == float(
            numeric_subderivative(one_by_one, x, h, samples=24)
        )

    def test_lifted_stack_matches_calls(self):
        f = lifted(OrderStat(rank=2))
        a = key_rng(77).standard_normal((5, 3, 3))
        stack = (a + a.transpose(0, 2, 1)) / 2.0
        assert f(stack).tolist() == [f(m) for m in stack]
        stack[2, 0, 0] = math.nan
        with pytest.raises(ValueError):
            f(stack)
        with pytest.raises(ValueError):
            f(np.zeros((2, 3, 2)))

    def test_level_minima_nonincreasing_in_samples(self):
        # a level's first S draws are the same for any samples >= S, so
        # more samples can only lower each level's minimum
        theta, x, v, h = lifted_instance()
        f, g, y, w = vector_instance()
        for func, point, grad, direction in ((lifted(theta), x, v, h), (f, g, y, w)):
            runs = [
                numeric_second_subderivative(
                    func, point, grad, direction, QuotientProbe(samples=s, seed=3)
                )
                for s in (8, 24, 64)
            ]
            for fewer, more in zip(runs, runs[1:]):
                for a, b in zip(fewer.levels, more.levels):
                    assert a.at_w == b.at_w
                    assert float(b.minimum) <= float(a.minimum)

    @pytest.mark.parametrize("floats", [3, 27])
    def test_chunked_equals_unchunked(self, monkeypatch, floats):
        # 3x3 points: 3 floats put one candidate in a chunk, 27 put three
        theta = McpSum(a=2.0, c=1.0)
        rng = key_rng(5151)
        a, b = rng.standard_normal((2, 3, 3))
        x = (a + a.T) / 2.0
        h = (b + b.T) / 2.0
        v = spectral_subgradient(theta, x).matrix.entries
        probe = QuotientProbe(samples=17, seed=4)
        f, g, y, w = vector_instance()

        def run():
            return (
                probe_values(numeric_second_subderivative(lifted(theta), x, v, h, probe)),
                float(numeric_subderivative(lifted(theta), x, h, samples=17)),
                probe_values(numeric_second_subderivative(f, g, y, w, probe)),
            )

        whole = run()
        monkeypatch.setattr(oracle, "STACK_FLOATS", floats)
        assert run() == whole

    @pytest.mark.parametrize("floats", [3, 27])
    def test_attainment_chunked_equals_unchunked(self, monkeypatch, floats):
        # the 12 neighbours of a 3x3 point, one or three to a chunk
        theta = McpSum(a=2.0, c=1.0)
        rng = key_rng(5152)
        a, b = rng.standard_normal((2, 3, 3))
        x = (a + a.T) / 2.0
        h = (b + b.T) / 2.0
        v = spectral_subgradient(theta, x).matrix.entries
        f, g, y, w = vector_instance()

        def run():
            out = []
            for args in ((lifted(theta), x, v, h, 1.5), (f, g, y, w, 4.0)):
                res = epi_attainment_search(*args, sweeps=3)
                out.append(res.success)
                out += [(lv.point.tolist(), lv.quotient, lv.distance) for lv in res.levels]
            return out

        whole = run()
        monkeypatch.setattr(oracle, "STACK_FLOATS", floats)
        assert run() == whole


def counting(f):
    """f with ``accepts_stack``, counting its stacked calls in ``stacks``
    and its single-point calls in ``points``."""

    def g(a):
        if np.ndim(a) == 3:
            g.stacks += 1
        else:
            g.points += 1
        return f(a)

    g.accepts_stack, g.stacks, g.points = True, 0, 0
    return g


class TestLazyLevels:
    """The estimate reads the two smallest grid levels only; the leading
    ones are evaluated when ``levels`` is first read."""

    def test_leading_levels_evaluated_on_first_read(self):
        theta, x, v, h = lifted_instance()
        f = counting(lifted(theta))
        res = numeric_second_subderivative(f, x, v, h, QuotientProbe())
        assert (f.points, f.stacks) == (1, 2)
        levels = res.levels
        assert (f.points, f.stacks) == (1, 3)
        assert res.levels is levels and f.stacks == 3
        assert set(vars(res)) == {"estimate", "levels"}  # f, x, v and w let go
        assert [lv.t for lv in levels] == list(QuotientProbe().t_grid)

    def test_two_level_grid_has_nothing_left_to_evaluate(self):
        theta, x, v, h = lifted_instance()
        f = counting(lifted(theta))
        res = numeric_second_subderivative(f, x, v, h, QuotientProbe(t_grid=(1e-3, 1e-4)))
        assert f.stacks == 2
        assert len(res.levels) == 2 and f.stacks == 2

    def test_probed_d2_evaluates_two_levels(self, monkeypatch):
        seen = []

        def counted_lift(theta):
            seen.append(counting(lifted(theta)))
            return seen[-1]

        monkeypatch.setattr(spectral_module, "lifted", counted_lift)
        theta, x, _, h = lifted_instance()
        triple = spectral_subgradient(theta, x)
        report = spectral_second_subderivative(theta, x, triple, h, QuotientProbe(samples=8))
        assert report.oracle_d2 is not None
        assert [(f.points, f.stacks) for f in seen] == [(1, 2)]

    def test_non_finite_leading_level_raises_on_read(self):
        # the estimate never reads t = 1e-2, so a NaN there surfaces only
        # when the levels are read, for the trace export
        def f(z):
            z = np.asarray(z, dtype=float)
            return math.nan if np.linalg.norm(z) > 5e-3 else float(z @ z)

        x, w = np.zeros(2), np.array([1.0, 0.0])
        res = numeric_second_subderivative(f, x, x, w, QuotientProbe(samples=4))
        assert float(res.estimate) == pytest.approx(2.0, abs=1e-3)
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN"):
                res.levels


class TestAttainment:
    def test_succeeds_at_reachable_target(self):
        q = np.diag([1.0, 2.0])
        f = quad_form(q)
        x = np.array([0.5, -0.5])
        w = np.array([1.0, 1.0])
        target = float(w @ q @ w)
        res = epi_attainment_search(
            f, x, q @ x, w, target, t_seq=(1e-2, 1e-3, 1e-4), sweeps=2
        )
        assert res.success
        assert res.levels[-1].distance <= 0.5

    def test_fails_below_reachable_floor(self):
        # quotients of a convex quadratic never drop below the curvature
        q = np.eye(2)
        f = quad_form(q)
        x = np.zeros(2)
        w = np.array([1.0, 0.0])
        res = epi_attainment_search(
            f, x, np.zeros(2), w, target=float(w @ q @ w) - 1.0,
            t_seq=(1e-2, 1e-3, 1e-4), sweeps=2,
        )
        assert not res.success

    def test_rejects_bad_inputs(self):
        f = quad_form(np.eye(2))
        with pytest.raises(ValueError):
            epi_attainment_search(
                f, np.zeros(2), np.zeros(2), np.ones(2), math.inf
            )
        with pytest.raises(ValueError):
            epi_attainment_search(
                f, np.zeros(2), np.zeros(2), np.ones(2), 0.0, t_seq=(1e-2, 1e-3)
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda f: diff_quotient2(f, 1.0, 0.0, 1.0, 1e-3),
        lambda f: numeric_second_subderivative(f, 1.0, 0.0, 1.0, QuotientProbe(samples=2)),
        lambda f: numeric_subderivative(f, 1.0, 1.0, samples=2),
        lambda f: epi_attainment_search(f, 1.0, 0.0, 1.0, 0.0),
    ],
    ids=["diff_quotient2", "second_order", "first_order", "attainment"],
)
def test_scalar_points_raise(call):
    # the oracles search vectors and matrices; a scalar is not promoted
    with pytest.raises(ValueError, match="points must be vectors or square matrices"):
        call(lambda z: float(np.sum(z)))


X_TIED = np.diag([1.0, 1.0, 0.0])
H_SPLIT = np.diag([1.0, -1.0, 0.0])  # dg(X_TIED)(H_SPLIT) = 1 for OrderStat(1)
STEP_TAKERS = {
    "diff_quotient2": lambda f, x, v, w, ts: diff_quotient2(f, x, v, w, ts[0]),
    "second_order": lambda f, x, v, w, ts: numeric_second_subderivative(
        f, x, v, w, QuotientProbe(t_grid=ts, samples=2)
    ),
    "first_order": lambda f, x, v, w, ts: numeric_subderivative(f, x, w, t_grid=ts, samples=2),
    "attainment": lambda f, x, v, w, ts: epi_attainment_search(
        f, x, v, w, 1.0, t_seq=ts + (ts[-1] / 10,)
    ),
}


class TestOneInputRule:
    """Every oracle checks its points with ``_points`` and its steps with
    ``_grid``, before f is evaluated, so a bad input is refused by name and
    never read as a number or a numpy warning."""

    def refused(self, call, match, error=ValueError):
        f = counting(lifted(OrderStat(rank=1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                call(f)
        assert f.stacks == f.points == 0

    @pytest.mark.parametrize("name", STEP_TAKERS)
    def test_points_share_one_shape(self, name):
        # a vector w at a matrix X was spread along the rows: the first-order
        # oracle read 0.1 at diag(2, 1, 0) and w = (0.1, 0.2, 0.3)
        x, vec = np.diag([2.0, 1.0, 0.0]), np.array([0.1, 0.2, 0.3])
        odd = [(x, vec)] if name == "first_order" else [(x, vec), (vec, x)]  # (v, w)
        for v, w in odd:
            self.refused(
                lambda f: STEP_TAKERS[name](f, x, v, w, (1e-3, 1e-4)),
                r"points must share one shape, got \(3, 3\) and \(3,\)",
            )

    @pytest.mark.parametrize("name", STEP_TAKERS)
    @pytest.mark.parametrize(
        "steps", [(1e-3, 0.0), (-1e-4, -1e-5), (1e-3, math.nan)], ids=["zero", "negative", "nan"]
    )
    def test_steps_are_finite_positive_and_decreasing(self, name, steps):
        # at the negative grid the first-order oracle read -1.0 where dg = 1,
        # and a zero step in t_seq divided by zero
        ts = steps[::-1] if name == "diff_quotient2" else steps  # its one step
        label = {"diff_quotient2": "t", "attainment": "t_seq"}.get(name, "t_grid")
        if any(map(math.isnan, steps)):
            message = "entries must be finite"
        else:
            message = "must be strictly decreasing and positive"
        self.refused(
            lambda f: STEP_TAKERS[name](f, X_TIED, X_TIED, H_SPLIT, ts),
            f"^{label} {message}$",
            OracleError,
        )

    def test_levels_are_counted(self):
        for call in (
            lambda f: QuotientProbe(t_grid=(1e-3,)),
            lambda f: numeric_subderivative(f, X_TIED, H_SPLIT, t_grid=()),
            lambda f: epi_attainment_search(f, X_TIED, X_TIED, H_SPLIT, 1.0, t_seq=(1e-2, 1e-3)),
        ):
            self.refused(call, r"needs at least \d levels, got \d", OracleError)

    @pytest.mark.parametrize(
        "f",
        [
            lifted(McpSum(a=2.0, c=1.0)),
            lambda z: float(np.sum(np.asarray(z) ** 3)),
            lambda z: math.inf if np.asarray(z)[0, 0] > 1.0 else float(np.sum(np.asarray(z) ** 2)),
            lambda z: -math.inf if np.asarray(z)[0, 0] > 1.0 else float(np.sum(np.asarray(z) ** 2)),
            lambda z: math.nan if np.asarray(z)[0, 0] > 1.0 else float(np.sum(np.asarray(z) ** 2)),
        ],
        ids=["lifted", "cubic", "leaves-domain", "minus-inf", "nan"],
    )
    def test_diff_quotient2_is_a_one_candidate_level(self, f):
        rng = key_rng(31)
        x = np.diag([1.0, 0.5, -0.2])
        for k in range(8):
            a, b = rng.standard_normal((2, 3, 3))
            v, w = a + a.T, (-1.0) ** k * (b + b.T)  # w[0, 0] of both signs
            for t in (1e-1, 1e-3):
                probe = QuotientProbe(t_grid=(t, t / 10), radius=0.0, samples=1)
                level = lambda: numeric_second_subderivative(f, x, v, w, probe).levels[0]
                want = _outcome_or_error(lambda: level().at_w)
                got = _outcome_or_error(lambda: diff_quotient2(f, x, v, w, t))
                assert got == want


def _outcome_or_error(call):
    """An ExtReal's tag and bits, or the ValueError's message."""
    try:
        q = call()
    except ValueError as err:
        return str(err)
    return q.tag, _bits(float(q))


class TestNumericProx:
    def test_matches_mcp_closed_form(self):
        # one coordinate on each branch of the MCP prox, then all of them
        mcp = McpSum(a=2.0, c=1.0)
        cases = [([0.4], 0.5), ([0.8], 0.5), ([3.0], 0.5), ([-1.2], 0.9)]
        for x, gamma in cases + [([2.5, -0.3, 1.1, -1.7], 0.9)]:
            res = numeric_prox(mcp.value, gamma, np.array(x))
            want = mcp.prox(gamma, x).point
            np.testing.assert_allclose(res.point, want, rtol=0.0, atol=2e-5)

    def test_polyhedral_prox_is_frozen(self):
        """The prox of both polyhedral penalties at one 4-vector, pinned to
        the last bit.  The literals were recorded with numpy 2.4 and OpenBLAS
        0.3; another LAPACK may move the last digits.  They were recorded
        through scipy 1.17's Powell search, which ``oracle.minimize``
        reproduces bit for bit (TestPowellMatchesScipy)."""
        x = np.array([1.3, 0.7, 0.4, -0.6])
        frozen = [
            (
                OrderStat(rank=2),
                [1.300000001209956, 0.2999999974531303, 0.2999999974531303, -0.5999999997907806],
                0.47,
            ),
            (
                EigGapMax(),
                [1.1847125138476253, 0.7000000057212791, 0.2152874975949858, -0.2694250105283926],
                0.641402244798556,
            ),
        ]
        for theta, point, objective in frozen:
            res = numeric_prox(theta.value, 0.5, x)
            assert res.point.tolist() == point
            assert res.objective == objective
            assert theta.prox(0.5, x).point.tolist() == point

    @pytest.mark.parametrize("x", [1.0, np.zeros((2, 2))], ids=["0-d", "2-d"])
    def test_rejects_non_vectors(self, x):
        with pytest.raises(ValueError, match="vectors only"):
            numeric_prox(lambda z: 0.0, 0.5, x)

    def test_vector_descent_matches_closed_form(self):
        f = SmoothSep(coeff=2.0)
        x = np.array([1.0, -0.5, 0.25])
        res = numeric_prox(f.value, 0.5, x, restarts=3)
        assert np.max(np.abs(res.point - x / 2.0)) <= 1e-4

    def test_objective_never_worse_than_base_point(self):
        f = SmoothSep(coeff=1.0)
        x = np.array([2.0, 1.0])
        res = numeric_prox(f.value, 1.0, x, restarts=2)
        base = f.value(x)
        assert res.objective <= base + 1e-12

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            numeric_prox(lambda z: 0.0, 0.0, np.zeros(2))

    def test_non_finite_objective_raises(self):
        with pytest.raises(OracleError):
            numeric_prox(lambda z: math.inf, 1.0, np.zeros(2), restarts=1)

    def test_infinite_objective_stops_when_an_iteration_repeats(self):
        # each +inf line search keeps its point, so the first iteration that
        # leaves x unmoved bit for bit is every later one: 1 + 2 x 3 calls
        # (+ 1 + 2 x 3 while -0.0 turns +0.0), where 2000 iterations made 14000
        calls = []

        def f(z):
            calls.append(z)
            return math.inf

        for start, end, count in (([0.3, -1.2], [0.3, -1.2], 7), ([-0.0, 1.0], [0.0, 1.0], 14)):
            calls.clear()
            z, v = oracle.minimize(f, np.array(start))
            assert (_bits(z), v, len(calls)) == (_bits(end), math.inf, count)
        calls.clear()
        with pytest.raises(OracleError, match="every search ended at a non-finite objective"):
            numeric_prox(f, 1.0, np.zeros(2), restarts=1)
        assert len(calls) == 14

    def test_nan_objective_raises(self):
        # every line search's bracket holds NaN, so each search ends at NaN
        with pytest.raises(OracleError):
            numeric_prox(lambda z: math.nan, 1.0, np.zeros(2), restarts=1)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestPowellMatchesScipy:
    """``oracle.minimize`` against the scipy Powell search it ports, bit for
    bit in the point and the objective."""

    OPTIONS = {"xtol": 1e-10, "ftol": 1e-12, "maxiter": 2000}

    def check(self, obj, z0):
        optimize = pytest.importorskip("scipy.optimize")
        with np.errstate(over="ignore", invalid="ignore"):
            want = optimize.minimize(obj, z0, method="Powell", options=self.OPTIONS)
            z, v = oracle.minimize(obj, z0)
        assert _bits(z) == _bits(want.x), (z, want.x)
        assert _bits(v) == _bits(want.fun), (v, want.fun)

    KINDS = ["distinct", "tied", "scaled-1e6", "near-1e308"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_prox_objectives(self, kind):
        # numeric_prox's objective at seeded draws, every penalty at each
        # n = 1..8; at +-1e308 the quadratic term overflows or absorbs the
        # unit steps, so the line searches' brackets fail there
        rng = key_rng(29, self.KINDS.index(kind))
        for n in range(1, 9):
            thetas = [OrderStat(rank=r) for r in (1, 2, 3) if r <= n] + [McpSum(a=2.0, c=1.0)]
            thetas += [EigGapMax()] if n >= 2 else []
            # SmoothSep overflows everywhere at 1e308: 2000 iterations, kept to n <= 2
            thetas += [SmoothSep(coeff=1.5)] if kind != "near-1e308" or n <= 2 else []
            for theta in thetas:
                x = rng.standard_normal(n)
                if kind == "tied":
                    x[: max(2, n // 2)] = x[0]
                elif kind == "scaled-1e6":
                    x *= 1e6
                elif kind == "near-1e308":
                    x = np.where(rng.random(n) < 0.5, -1e308, 1e308) * rng.uniform(0.5, 1.0, n)
                gamma = float(rng.choice([0.1, 0.5, 2.0]))

                def obj(w, theta=theta, x=x, gamma=gamma):
                    return float(theta.value(w)) + float(np.vdot(w - x, w - x)) / (2.0 * gamma)

                self.check(obj, x + 0.5 * gamma * rng.standard_normal(n))

    @pytest.mark.parametrize(
        "obj",
        [lambda w: 1.0, lambda w: math.nan, lambda w: math.inf, lambda w: -float(np.sum(np.abs(w)))],
        ids=["flat", "nan", "inf", "unbounded"],
    )
    def test_failed_brackets(self, obj):
        # no bracket exists: flat, NaN and +inf objectives end where scipy's
        # recovery puts them, and a descent without end runs off to inf
        self.check(obj, np.array([0.3, -1.2]))


def _sequential_prox(f, gamma, x, restarts, seed=0):
    """numeric_prox one search at a time: ``minimize`` from each start in
    start order, keeping the first strictly best objective."""
    rng = np.random.default_rng(seed)
    starts = [x] + [x + 0.5 * gamma * rng.standard_normal(x.shape) for _ in range(restarts)]

    def obj(w):
        return float(f(w)) + float(np.vdot(w - x, w - x)) / (2.0 * gamma)

    best_z, best_v = None, math.inf
    for z0 in starts:
        with np.errstate(over="ignore", invalid="ignore"):
            z, v = oracle.minimize(obj, z0)
        if v < best_v:
            best_v, best_z = v, z
    if best_z is None:
        raise OracleError("numeric_prox: every search ended at a non-finite objective")
    return best_z, best_v


def _outcome(call):
    """The point's and objective's bits, or the OracleError's message."""
    try:
        z, v = call()
    except OracleError as err:
        return "OracleError", str(err)
    return _bits(z), _bits(v)


def _stacked(rows):
    """A stack-declared objective from ``rows``, a function of an (S, n)
    array that returns its S values."""

    def f(w):
        w = np.asarray(w, dtype=float)
        return rows(w) if w.ndim == 2 else float(rows(w[None])[0])

    f.accepts_stack = True
    return f


class TestLockstepSearch:
    """numeric_prox runs its searches in lockstep, one objective call per
    round for a stack-declared f; every search must evaluate the points,
    and end at the point and objective, that it would alone."""

    def check(self, f, gamma, x, restarts):
        def prox(g):
            res = numeric_prox(g, gamma, x, restarts=restarts)
            return res.point, res.objective

        stacked = _outcome(lambda: prox(f))
        assert stacked == _outcome(lambda: prox(lambda w: f(w)))
        assert stacked == _outcome(lambda: _sequential_prox(f, gamma, x, restarts))

    KINDS = TestPowellMatchesScipy.KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_one_search_at_a_time(self, kind):
        # the families of TestPowellMatchesScipy, two searches in lockstep each
        rng = key_rng(30, self.KINDS.index(kind))
        for n in range(1, 9):
            thetas = [OrderStat(rank=r) for r in (1, 2, 3) if r <= n] + [McpSum(a=2.0, c=1.0)]
            thetas += [EigGapMax()] if n >= 2 else []
            thetas += [SmoothSep(coeff=1.5)] if kind != "near-1e308" or n <= 2 else []
            for theta in thetas:
                x = rng.standard_normal(n)
                if kind == "tied":
                    x[: max(2, n // 2)] = x[0]
                elif kind == "scaled-1e6":
                    x *= 1e6
                elif kind == "near-1e308":
                    x = np.where(rng.random(n) < 0.5, -1e308, 1e308) * rng.uniform(0.5, 1.0, n)
                assert theta.value.accepts_stack is True
                self.check(theta.value, float(rng.choice([0.1, 0.5, 2.0])), x, restarts=1)

    @pytest.mark.parametrize(
        "rows",
        [
            lambda w: np.full(len(w), math.inf),
            lambda w: np.full(len(w), math.nan),
            lambda w: -(w[:, None, :] @ w[:, :, None])[:, 0, 0],
        ],
        ids=["inf", "nan", "concave"],
    )
    def test_error_parity(self, rows):
        # +inf and NaN objectives, and a concave one whose brackets run off
        # to overflow, end every search at a non-finite objective
        x = np.array([0.3, -1.2])
        self.check(_stacked(rows), 1.0, x, restarts=1)
        with pytest.raises(OracleError, match="every search ended at a non-finite objective"):
            numeric_prox(_stacked(rows), 1.0, x, restarts=1)

    def test_signed_zeros_reach_f(self):
        # the start and the extrapolated points reach f as they are: p + 0 xi
        # would turn a -0.0 into +0.0
        x = np.array([-0.0, 1.0, -0.0, -0.0])
        theta = EigGapMax()
        seen, alone = [], []

        def f(w):
            seen.extend(row.tobytes() for row in w)
            return theta.value(w)

        f.accepts_stack = True

        def g(w):
            alone.append(w.tobytes())
            return theta.value(w)

        res = numeric_prox(f, 0.5, x, restarts=3)
        z, v = _sequential_prox(g, 0.5, x, restarts=3)
        assert seen[0] == x.tobytes()
        assert sorted(seen) == sorted(alone)
        assert (_bits(res.point), _bits(res.objective)) == (_bits(z), _bits(v))

    def test_one_call_per_round(self):
        # a stack-declared f gets every live search's point in one call
        theta = OrderStat(rank=2)
        rows = []

        def f(w):
            rows.append(len(w))
            return theta.value(w)

        f.accepts_stack = True
        x = np.array([1.3, 0.7, 0.4, -0.6, -1.9])
        res = numeric_prox(f, 0.5, x, restarts=10)
        assert max(rows) <= 11 and rows[0] == 11
        assert len(rows) * 4 < sum(rows)
        z, v = _sequential_prox(theta.value, 0.5, x, restarts=10)
        assert (_bits(res.point), _bits(res.objective)) == (_bits(z), _bits(v))
