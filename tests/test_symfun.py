"""The four symmetric penalties: values, subdifferentials, first- and
second-order directional behavior, prox maps, and cone certificates."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specvar import (
    POS_INF,
    EigGapMax,
    InvalidSubgradientError,
    McpSum,
    OrderStat,
    SmoothSep,
    SubgradientSet,
    UnsupportedPointError,
    lifted,
    numeric_prox,
    spec_from_json,
    spec_to_json,
)
from conftest import key_rng

ALL_KINDS = [OrderStat(rank=1), McpSum(a=2.0, c=1.0), EigGapMax(), SmoothSep(coeff=1.0)]


def vectors(n_max=5, scale=4.0):
    return st.lists(
        st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=n_max,
    ).map(np.array)


class TestValues:
    def test_pinned(self):
        assert McpSum(a=2.0, c=1.0).value([3.0, 0.0]) == pytest.approx(1.0)
        assert OrderStat(rank=2).value([5.0, 1.0, 4.0]) == pytest.approx(4.0)
        assert EigGapMax().value([4.0, 1.0, 0.0]) == pytest.approx(3.0)
        assert SmoothSep(coeff=2.0).value([1.0, 2.0]) == pytest.approx(5.0)

    def test_mcp_branches(self):
        f = McpSum(a=2.0, c=1.0)
        assert f.value([1.0]) == pytest.approx(1.0 - 0.25)  # inner region
        assert f.value([2.0]) == pytest.approx(1.0)  # exactly at the cap
        assert f.value([-5.0]) == pytest.approx(1.0)  # outer region

    def test_mcp_beyond_the_square_root_of_the_float_maximum(self):
        # t * t overflowed on the discarded inner branch, with a warning,
        # though the value there is the constant a c^2 / 2
        f = McpSum(a=2.0, c=1.0)
        t = np.array([1e200, -1.7e308, 1.5, -0.3, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.phi(t)
            inner = 1.0 * np.abs(t[2:]) - t[2:] * t[2:] / 4.0  # the inner formula, to the bit
        assert got[:2].tolist() == [1.0, 1.0]
        assert got[2:].tobytes() == inner.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(vectors(), st.integers(0, 10_000))
    def test_permutation_invariance(self, x, seed):
        rng = key_rng(31, seed)
        perm = rng.permutation(x.size)
        for f in ALL_KINDS:
            if isinstance(f, EigGapMax) and x.size < 2:
                continue
            assert abs(f.value(x) - f.value(x[perm])) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            McpSum(a=1.0, c=1.0)
        with pytest.raises(ValueError):
            McpSum(a=2.0, c=0.0)
        # an infinite c made value NaN, an infinite a made the prox NaN
        for a, c in ((2.0, math.inf), (math.inf, 1.0), (2.0, math.nan)):
            with pytest.raises(ValueError):
                McpSum(a=a, c=c)
        with pytest.raises(ValueError):
            OrderStat(rank=0)
        with pytest.raises(ValueError):
            EigGapMax().value([1.0])


def penalties(n):
    """Every shipped penalty that takes n coordinates, every OrderStat rank."""
    out = [OrderStat(rank=k) for k in range(1, n + 1)]
    out += [McpSum(a=2.0, c=1.0), McpSum(a=3.7, c=0.4), SmoothSep(coeff=1.0), SmoothSep(coeff=-2.3)]
    return out + [EigGapMax()] * (n >= 2)


def tied_stack(seed, rows, n, scale):
    """Gaussian rows times ``scale``, with exact ties, zeros of both signs
    and integer-valued rows mixed in."""
    rng = key_rng(41, seed)
    a = scale * rng.standard_normal((rows, n))
    a[::3, : n // 2] = a[::3, :1]
    a[1::4] = np.round(a[1::4])
    a[2::5, -1] = -0.0
    a[rng.random((rows, n)) < 0.1] = 0.0
    return a


class TestStackedValues:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 300),
        st.floats(-3.0, 3.0),
        st.integers(0, 10_000),
    )
    def test_stack_equals_rows_bitwise(self, n, rows, log_scale, seed):
        a = tied_stack(seed, rows, n, 10.0**log_scale)
        for f in penalties(n):
            stacked = f.value(a)
            assert stacked.shape == (rows,)
            one_by_one = np.array([f.value(row) for row in a])
            assert stacked.view(np.int64).tolist() == one_by_one.view(np.int64).tolist()

    def test_vector_gives_float(self):
        x = np.array([3.0, -1.0, 0.5])
        for f in penalties(3):
            assert type(f.value(x)) is float
            assert type(f.value(list(x))) is float

    @pytest.mark.parametrize("shape", [(), (2, 3, 3)])
    def test_other_ndim_raises(self, shape):
        for f in penalties(3):
            with pytest.raises(ValueError):
                f.value(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    def test_rank_above_n_raises(self, shape):
        with pytest.raises(ValueError):
            OrderStat(rank=4).value(np.ones(shape))

    @pytest.mark.parametrize("shape", [(1,), (4, 1)])
    def test_gap_needs_two_coordinates(self, shape):
        with pytest.raises(ValueError):
            EigGapMax().value(np.ones(shape))

    def test_lifted_stack_calls_value_once(self, monkeypatch):
        calls = []
        value = OrderStat.value

        def counted(self, x):
            calls.append(np.shape(x))
            return value(self, x)

        monkeypatch.setattr(OrderStat, "value", counted)
        a = key_rng(42).standard_normal((7, 4, 4))
        out = lifted(OrderStat(rank=2))((a + a.transpose(0, 2, 1)) / 2.0)
        assert calls == [(7, 4)] and out.shape == (7,)


class TestSubgradients:
    def test_order_stat_tied_hull(self):
        s = OrderStat(rank=1).subgradients([2.0, 2.0, 0.0])
        assert s.kind == "hull"
        assert sorted(map(tuple, s.vertices)) == [
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        ]
        assert s.contains([0.5, 0.5, 0.0])
        assert not s.contains([0.0, 0.0, 1.0])
        # the sums fit within tol, but no weight can be 0.05-close to -0.1
        tied = OrderStat(rank=1).subgradients([2.0, 2.0, 2.0])
        assert not tied.contains([0.55, 0.5, -0.1], tol=0.05)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unit_vector_hull_membership_matches_lp(self, seed):
        # the closed-form simplex test against the sup-norm hull LP run with
        # HiGHS feasibility tolerances of 1e-10: at its defaults the LP blurs
        # residuals near tol = 1e-6 (seeds 6900 and 8675 disagree)
        pytest.importorskip("scipy")  # the LP reference
        from hull_lp import TIGHT, _hull_fit

        rng = key_rng(41, seed)
        n = int(rng.integers(2, 6))
        idx = np.sort(rng.choice(n, int(rng.integers(2, n + 1)), replace=False))
        verts = np.eye(n)[idx]
        tol = float(rng.choice([1e-6, 1e-3, 0.05]))
        y = np.zeros(n)
        y[idx] = rng.dirichlet(np.ones(idx.size))
        y += rng.uniform(-3.0, 3.0, n) * tol * float(rng.choice([0.0, 0.5, 0.9, 1.1, 2.0]))
        _, resid = _hull_fit(verts, y, TIGHT)
        assert SubgradientSet(kind="hull", active=idx, n=n).contains(y, tol) == (resid <= tol)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_gap_hull_membership_matches_lp(self, seed):
        # the closed-form prefix-sum test against the sup-norm hull LP run
        # with HiGHS feasibility tolerances of 1e-10
        pytest.importorskip("scipy")  # the LP reference
        from hull_lp import TIGHT, _hull_fit

        rng = key_rng(43, seed)
        n = int(rng.integers(2, 9))
        idx = np.sort(rng.choice(n - 1, int(rng.integers(1, n)), replace=False))
        verts = np.eye(n)[idx] - np.eye(n)[idx + 1]
        tol = float(rng.choice([1e-6, 1e-3, 0.05]))
        y = rng.dirichlet(np.ones(idx.size)) @ verts
        y += rng.uniform(-3.0, 3.0, n) * tol * float(rng.choice([0.0, 0.5, 0.9, 1.1, 2.0]))
        _, resid = _hull_fit(verts, y, TIGHT)
        assert SubgradientSet(kind="hull", active=idx, gaps=True, n=n).contains(y, tol) == (resid <= tol)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_support_and_canonical_vertex_match_dense_rows(self, seed, gaps):
        # the active-set formulas against the vertex matrix they describe
        rng = key_rng(45, seed)
        n = int(rng.integers(2, 8))
        m = n - 1 if gaps else n
        idx = np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
        s = SubgradientSet(kind="hull", active=idx, gaps=gaps, n=n)
        verts = s.vertices
        assert np.array_equal(verts, np.eye(n)[idx] - (np.eye(n)[idx + 1] if gaps else 0.0))
        for _ in range(5):
            w = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            w[rng.random(n) < 0.3] = 0.0
            assert s.support(w) == np.max(verts @ w)
        smallest = sorted(map(tuple, verts))[0]
        assert s.canonical_vertex().tobytes() == np.array(smallest).tobytes()

    def test_gap_hull_tolerance_is_sup_norm(self):
        s = EigGapMax().subgradients([4.0, 2.0, 0.0])  # conv{(1,-1,0), (0,1,-1)}
        assert s.contains([0.5, 0.0, -0.5])
        # the hull point nearest (0.5, -0.5, 0) is (0.75, -0.5, -0.25)
        assert s.contains([0.5, -0.5, 0.0], tol=0.25)
        assert not s.contains([0.5, -0.5, 0.0], tol=0.24)
        assert not s.contains([0.0, 0.0, 0.0], tol=0.49)

    def test_order_stat_leading_hypothesis(self):
        # rank 2 needs a strict gap above; (2,2,0) ties ranks 1 and 2
        with pytest.raises(UnsupportedPointError):
            OrderStat(rank=2).subgradients([2.0, 2.0, 0.0])
        s = OrderStat(rank=2).subgradients([3.0, 2.0, 2.0])
        assert s.contains([0.0, 0.5, 0.5])

    def test_mcp_box(self):
        s = McpSum(a=2.0, c=1.0).subgradients(np.zeros(3))
        assert s.kind == "box"
        assert np.allclose(s.lower, -1.0)
        assert np.allclose(s.upper, 1.0)
        assert s.contains([0.3, -1.0, 0.0])
        assert not s.contains([1.5, 0.0, 0.0])

    def test_mcp_smooth_coordinates_pin_the_box(self):
        f = McpSum(a=2.0, c=1.0)
        s = f.subgradients([1.0, 0.0])
        g = 1.0 - 1.0 / 2.0  # phi'(1) = c - t/a
        assert s.lower[0] == pytest.approx(g)
        assert s.upper[0] == pytest.approx(g)

    def test_smooth_sep_singleton(self):
        s = SmoothSep(coeff=2.0).subgradients([1.0, -3.0])
        assert s.kind == "point"
        assert np.allclose(s.point, [2.0, -6.0])

    def test_eig_gap_vertices(self):
        s = EigGapMax().subgradients([4.0, 1.0, 0.0])
        assert s.kind == "hull"
        assert np.allclose(s.vertices, [[1.0, -1.0, 0.0]])

    def test_eig_gap_tied_gaps_enumerate_vertices(self):
        s = EigGapMax().subgradients([4.0, 2.0, 0.0])
        assert len(s.vertices) == 2

    def test_check_subgradient_raises(self):
        with pytest.raises(InvalidSubgradientError):
            OrderStat(rank=1).check_subgradient([2.0, 1.0], [0.0, 1.0])


class TestSubderivative:
    def test_pinned(self):
        assert OrderStat(rank=1).subderivative([2.0, 2.0, 0.0], [1.0, -1.0, 5.0]) == 1.0
        assert McpSum(a=2.0, c=1.0).subderivative([0.0], [-3.0]) == pytest.approx(3.0)
        for f in ALL_KINDS:
            assert f.subderivative([1.0, 0.5, 0.0], np.zeros(3)) == pytest.approx(0.0)

    def test_smooth_sep_is_linear(self):
        f = SmoothSep(coeff=1.5)
        x = np.array([1.0, -2.0])
        w = np.array([0.4, 0.3])
        assert f.subderivative(x, w) == pytest.approx(1.5 * float(x @ w))

    def test_eig_gap_active_max(self):
        f = EigGapMax()
        # gaps (2, 2) both active: derivative is the best active gap movement
        assert f.subderivative([4.0, 2.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert f.subderivative([4.0, 2.0, 0.0], [0.0, 0.0, -1.0]) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lower_bounds_forward_quotients(self, seed):
        rng = key_rng(32, seed)
        n = int(rng.integers(1, 5))
        x = np.round(rng.uniform(-2.0, 2.0, size=n), 1)  # encourage ties and zeros
        w = rng.standard_normal(n)
        t = 1e-6
        for f in ALL_KINDS:
            if isinstance(f, EigGapMax):
                if x.size < 2:
                    continue
                x = np.sort(x)[::-1]
            try:
                d = f.subderivative(x, w)
            except UnsupportedPointError:
                continue
            q = (f.value(x + t * w) - f.value(x)) / t
            # concave pieces push the quotient below the limit by O(t ||w||^2)
            assert d <= q + t * (1.0 + float(w @ w))


@st.composite
def cone_instances(draw):
    """A penalty, a sorted point with ties and zeros, a subgradient y there
    (a vertex, an interior point, or a kink weight 1e-9 to 1e-6 inside the
    box end), and a direction that is critical for y about half the time."""
    f = draw(st.sampled_from([OrderStat(1), OrderStat(2), EigGapMax(), McpSum(2.0, 1.0), SmoothSep(1.5)]))
    n = draw(st.integers(2, 5))
    levels = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 4.0])
    x = np.sort(draw(st.lists(levels, min_size=n, max_size=n)))[::-1]
    rng = key_rng(35, draw(st.integers(0, 10_000)))
    try:
        s = f.subgradients(x)
    except UnsupportedPointError:  # gaps of 1 and 2, often several maximal
        g = rng.choice([1.0, 2.0], n - 1)
        f, x = EigGapMax(), np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
        s = f.subgradients(x)
    w = rng.standard_normal(n)
    w[rng.random(n) < 0.3] = 0.0
    if s.kind == "point":
        return f, x, s.point, w
    if s.kind == "box":
        kink = s.lower < s.upper
        end = rng.choice([-1.0, 1.0], n) * (1.0 - rng.choice([0.0, 1e-9, 1.5e-7, 1e-6, 0.5], n))
        y = np.where(kink, end * s.upper, s.lower)
        if rng.random() < 0.5:  # critical: w_i y_i = c |w_i| on the kinks
            w = np.where(kink, np.where(np.abs(end) == 1.0, np.sign(end) * np.abs(w), 0.0), w)
        return f, x, y, w
    coef = rng.dirichlet(np.ones(s.active.size)) * (rng.random(s.active.size) < 0.7)
    coef = coef / coef.sum() if coef.any() else np.eye(s.active.size)[0]
    y = coef @ s.vertices
    if rng.random() < 0.5:  # critical: every weighted vertex attains max <v, w>
        rates = w[s.active] - w[s.active + 1] if s.gaps else w[s.active]
        top = rates.max()
        if s.gaps:  # rewrite the gaps of w, keeping w_(n-1)
            d = w[:-1] - w[1:]
            d[s.active[coef > 0]] = top
            w = np.concatenate([np.cumsum(d[::-1])[::-1] + w[-1], w[-1:]])
        else:
            w[s.active[coef > 0]] = top
    return f, x, y, w


class TestSecondSubderivative:
    def test_mcp_pinned(self):
        f = McpSum(a=2.0, c=1.0)
        assert f.second_subderivative([0.0], [0.3], [1.0]).tag == "pos_inf"
        assert float(f.second_subderivative([0.0], [1.0], [2.0])) == pytest.approx(-2.0)

    def test_order_stat_pinned(self):
        f = OrderStat(rank=1)
        assert float(f.second_subderivative([2.0, 2.0], [1.0, 0.0], [1.0, 1.0])) == 0.0
        assert f.second_subderivative([2.0, 2.0], [1.0, 0.0], [0.0, 1.0]).tag == "pos_inf"

    def test_mcp_mixed_coordinates(self):
        f = McpSum(a=2.0, c=1.0)
        # x = (1, 0): inner smooth coordinate contributes -w^2/a, the kink
        # coordinate needs c|w| = y w
        x = [1.0, 0.0]
        y = [0.5, 1.0]
        v = f.second_subderivative(x, y, [1.0, 3.0])
        assert float(v) == pytest.approx(-(1.0 + 9.0) / 2.0)
        assert f.second_subderivative(x, y, [1.0, -3.0]).tag == "pos_inf"

    def test_mcp_outer_region_is_flat(self):
        f = McpSum(a=2.0, c=1.0)
        v = f.second_subderivative([5.0], [0.0], [2.0])
        assert float(v) == 0.0

    def test_mcp_cap_boundary_unsupported(self):
        f = McpSum(a=2.0, c=1.0)
        with pytest.raises(UnsupportedPointError):
            f.second_subderivative([2.0], [0.0], [1.0])

    def test_rejects_non_subgradient(self):
        with pytest.raises(InvalidSubgradientError):
            McpSum(a=2.0, c=1.0).second_subderivative([0.0], [2.0], [1.0])

    def test_smooth_sep_quadratic(self):
        f = SmoothSep(coeff=2.0)
        v = f.second_subderivative([1.0, 1.0], [2.0, 2.0], [3.0, 1.0])
        assert float(v) == pytest.approx(2.0 * 10.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 7.0))
    def test_degree_two_homogeneity(self, seed, s):
        rng = key_rng(33, seed)
        f = McpSum(a=2.0, c=1.0)
        x = np.array([1.2, 0.0, -0.4])
        y = f.subgradients(x).canonical_vertex()
        w = rng.standard_normal(3)
        base = f.second_subderivative(x, y, w)
        scaled = f.second_subderivative(x, y, s * w)
        if base.is_finite:
            assert float(scaled) == pytest.approx(s * s * float(base), rel=1e-12)
        else:
            assert not scaled.is_finite

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_finite_implies_critical(self, seed):
        rng = key_rng(34, seed)
        n = int(rng.integers(1, 5))
        x = np.round(rng.uniform(-1.5, 1.5, size=n), 1)
        w = rng.standard_normal(n)
        for f in ALL_KINDS:
            if isinstance(f, EigGapMax):
                if x.size < 2:
                    continue
                x = np.sort(x)[::-1]
            try:
                y = f.subgradients(x).canonical_vertex()
                v = f.second_subderivative(x, y, w)
            except UnsupportedPointError:
                continue
            if v.is_finite:
                assert f.critical_cone_member(x, y, w)

    @settings(max_examples=150, deadline=None)
    @given(cone_instances())
    @example(inst=(McpSum(2.0, 1.0), np.array([1.0, 0.0]), np.array([0.5, 1 - 1.5e-7]), np.array([1.0, 0.1])))
    def test_finite_exactly_on_the_cone(self, inst):
        # one cone test serves both: McpSum's own per-coordinate test read
        # the example as off the cone while critical_cone_member read it on
        f, x, y, w = inst
        assert f.second_subderivative(x, y, w).is_finite == f.critical_cone_member(x, y, w)

    def test_mcp_cone_edge(self):
        # the kink coordinate misses c|w| = y w by 1e-8, inside the cone
        # tolerance 1e-8 ||w||_2 + 1e-9 ||w||_1 = 1.1e-8
        f = McpSum(a=2.0, c=1.0)
        x, y, w = [1.0, 0.0], [0.5, 1.0 - 1e-7], [1.0, 0.1]
        assert f.critical_cone_member(x, y, w)
        assert float(f.second_subderivative(x, y, w)) == pytest.approx(-0.505, rel=1e-12)

    def test_mcp_at_kink_with_extreme_weight(self):
        f = McpSum(a=2.0, c=1.0)
        assert float(f.second_subderivative([0.0], [1.0], [2.0])) == pytest.approx(-2.0)
        assert f.critical_cone_member([0.0], [1.0], [2.0])
        assert not f.critical_cone_member([0.0], [1.0], [-2.0])


class TestCriticalCone:
    def test_pinned(self):
        assert OrderStat(rank=1).critical_cone_member([2.0, 2.0], [1.0, 0.0], [0.0, 0.0])
        assert not OrderStat(rank=1).critical_cone_member(
            [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]
        )
        assert McpSum(a=2.0, c=1.0).critical_cone_member([0.0], [1.0], [1.0])

    def test_membership_slack_stays_inside_the_cone(self):
        # y within the membership tolerance of the gradient moves <y, w> by
        # up to 1e-9 ||w||_1, 1.8e-7 here, which the old bound 1e-8 (1 +
        # ||w||_2) = 1.5e-7 read as off the cone
        rng = key_rng(33)
        x = rng.standard_normal(200)
        w = rng.choice([-1.0, 1.0], size=200)
        y = x + 0.9e-9 * w
        f = SmoothSep(coeff=1.0)
        f.check_subgradient(x, y)
        assert abs(f.subderivative(x, w) - y @ w) > 1e-8 * (1.0 + np.linalg.norm(w))
        assert f.critical_cone_member(x, y, w)
        assert float(f.second_subderivative(x, y, w)) == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize("c", [1e8, 1e9, 1e12])
    def test_smooth_mcp_with_a_large_coefficient(self, c):
        # a box with lower == upper is the gradient: every direction is
        # critical.  The box support and y @ w differed by about eps c
        # ||w||_1, past the bound, so 85 of 200 draws read off the cone at c = 1e9
        f = McpSum(a=2.0, c=c)
        x = c * np.array([0.3, 0.1, -0.5])
        y = f.gradient(x)
        assert f.subgradients(x).singleton
        rng = key_rng(34)
        for w in [np.array([0.3, -0.2, 0.1])] + list(rng.standard_normal((200, 3))):
            assert f.critical_cone_member(x, y, w)
            assert f.second_subderivative(x, y, w).is_finite


class TestProx:
    def test_mcp_three_branches(self):
        f = McpSum(a=2.0, c=1.0)
        assert f.prox(0.5, [0.4]).point[0] == pytest.approx(0.0)
        assert f.prox(0.5, [0.8]).point[0] == pytest.approx(0.4)
        assert f.prox(0.5, [3.0]).point[0] == pytest.approx(3.0)
        assert f.prox(0.5, [-0.8]).point[0] == pytest.approx(-0.4)
        assert f.prox(0.5, [0.4]).closed_form

    def test_mcp_near_the_float_maximum(self):
        # the shrunk branch overflowed where it is not taken, with a warning
        f = McpSum(a=2.0, c=1.0)
        x = np.array([1.7e308, -1.7e308, 0.8, -1.5, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = f.prox(0.5, x).point
        assert p[:2].tolist() == x[:2].tolist()
        assert p[2:] == pytest.approx([0.4, -4.0 / 3.0 * 1.0, 0.0])

    def test_mcp_gamma_range(self):
        f = McpSum(a=2.0, c=1.0)
        with pytest.raises(ValueError):
            f.prox(2.0, [1.0])
        with pytest.raises(ValueError):
            f.prox(0.0, [1.0])

    def test_smooth_sep_shrinkage(self):
        f = SmoothSep(coeff=2.0)
        r = f.prox(0.5, [4.0, -2.0])
        assert np.allclose(r.point, [2.0, -1.0])
        assert r.closed_form

    def test_polyhedral_kinds_fall_back_to_search(self):
        r = OrderStat(rank=2).prox(0.5, [2.0, 0.0])
        assert not r.closed_form
        # prox of the second largest (here the min) moves the low coordinate down
        assert r.point[1] < 0.0
        obj = lambda p: OrderStat(rank=2).value(p) + np.sum((p - [2.0, 0.0]) ** 2)
        assert obj(r.point) <= obj(np.array([2.0, 0.0])) + 1e-9

    def test_largest_coordinate_is_closed_form(self):
        r = OrderStat(rank=1).prox(0.5, [2.0, 0.0])
        assert r.closed_form
        # prox of the max function moves the top coordinate down
        assert r.point.tolist() == [1.5, 0.0]

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(0.1, 1.8))
    def test_mcp_prox_beats_dense_grid(self, x, gamma):
        f = McpSum(a=2.0, c=1.0)
        p = float(f.prox(gamma, [x]).point[0])
        grid = np.linspace(-4.0, 4.0, 10_001)
        obj = f.phi(grid) + (grid - x) ** 2 / (2.0 * gamma)
        pobj = f.phi(np.array([p]))[0] + (p - x) ** 2 / (2.0 * gamma)
        assert pobj <= float(obj.min()) + 1e-9


def prox_objective(theta, gamma, x, z):
    return theta.value(z) + float((z - x) @ (z - x)) / (2.0 * gamma)


class TestLargestProx:
    """OrderStat(1).prox: z = min(x, c) with sum (x - c)_+ = gamma."""

    def test_never_above_numeric_prox(self):
        # the closed form may be lower than the best Powell search, never higher
        theta, rng = OrderStat(rank=1), key_rng(61)
        lower = 0
        # Powell takes up to 2 s where several coordinates move, so few draws
        for _ in range(12):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal(n)
            if n > 1 and rng.random() < 0.4:
                x[rng.integers(n)] = x.max()  # a tied top
            gamma = float(10.0 ** rng.uniform(-1.5, 0.5))
            got = prox_objective(theta, gamma, x, theta.prox(gamma, x).point)
            want = numeric_prox(theta.value, gamma, x).objective
            assert got <= want + 1e-12 * (1.0 + abs(want)), (x, gamma)
            lower += got < want - 1e-12 * (1.0 + abs(want))
        assert lower > 0

    @settings(max_examples=200, deadline=None)
    @given(vectors(n_max=8, scale=1e3), st.floats(1e-3, 1e3))
    @example(np.array([1.0, 1.0, 1.0]), 0.6)
    @example(np.array([-2.0, 5.0, 5.0, 4.9]), 0.3)
    def test_optimality_conditions(self, x, gamma):
        # 0 in dmax(z) + (z - x) / gamma: z <= x, the moved mass is gamma,
        # and every moved coordinate ends at the max of z
        z = OrderStat(rank=1).prox(gamma, x).point
        assert np.all(z <= x)
        moved = z < x
        assert np.all(z[moved] == z.max())
        slack = 1e-12 * x.size * (np.abs(x).max() + gamma)
        assert abs(float(np.sum(x - z)) - gamma) <= slack

    def test_one_and_two_coordinates(self):
        theta = OrderStat(rank=1)
        assert theta.prox(0.25, [3.0]).point.tolist() == [2.75]
        assert theta.prox(0.5, [1.0, 0.2]).point.tolist() == [0.5, 0.2]
        # both above c = (1 + 0.8 - 0.5) / 2
        assert theta.prox(0.5, [1.0, 0.8]).point.tolist() == [0.65, 0.65]

    def test_tied_tops_share_the_move(self):
        z = OrderStat(rank=1).prox(0.5, [2.0, 0.0, 2.0]).point
        assert z.tolist() == [1.75, 0.0, 1.75]

    def test_permutation_equivariant(self):
        rng = key_rng(62)
        for n in (2, 5, 8):
            x = np.round(rng.standard_normal(n), 1)  # ties among the tops
            perm = rng.permutation(n)
            z = OrderStat(rank=1).prox(0.4, x).point
            assert OrderStat(rank=1).prox(0.4, x[perm]).point.tobytes() == z[perm].tobytes()

    @pytest.mark.parametrize(
        "x, gamma", [([1.0, 0.5], 1e-20), ([1e20, 0.0], 1.0), ([1e20, 1e20, 3.0], 1.0)]
    )
    def test_gamma_below_the_float_spacing(self, x, gamma):
        # x[0] - gamma rounds to x[0]: no coordinate can move in floats, and
        # the last index passing the prefix test is still the first
        assert OrderStat(rank=1).prox(gamma, x).point.tolist() == x

    @pytest.mark.parametrize(
        "x",
        [
            [1.7e308, 1.7e308, 1.6e308],
            [1e308, -1e308, 1.7e308, -1.7e308],
            [-1.7e308, -1.7e308, -1.6e308],
        ],
    )
    @pytest.mark.parametrize("gamma", [0.5, 1e300, 1e307])
    def test_extreme_scales_stay_finite(self, x, gamma):
        # absolute prefix sums of these overflow; sums relative to the top do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = OrderStat(rank=1).prox(gamma, x).point
        assert np.all(np.isfinite(z)) and np.all(z <= np.array(x))
        assert np.sum(np.array(x) - z) <= 2.0 * gamma

    def test_gamma_near_the_float_maximum(self):
        # the sums fall below -1e308 here; c = (1e308 - 1e308 - 1.7e308) / 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = OrderStat(rank=1).prox(1.7e308, [1e308, -5e307, -5e307]).point
        np.testing.assert_allclose(z, np.full(3, -1.7e308 / 3.0), rtol=1e-15)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize(
        "gamma, message",
        [
            (math.nan, "gamma must be finite, got nan"),
            (math.inf, "gamma must be finite, got inf"),
            (-math.inf, "gamma must be finite, got -inf"),
            (0.0, "gamma must be positive"),
            (-1e-3, "gamma must be positive"),
        ],
    )
    def test_gamma_messages_match_numeric_prox(self, rank, gamma, message):
        with pytest.raises(ValueError) as closed:
            OrderStat(rank=rank).prox(gamma, [2.0, 0.0])
        with pytest.raises(ValueError) as numeric:
            numeric_prox(OrderStat(rank=rank).value, gamma, np.array([2.0, 0.0]))
        assert str(closed.value) == str(numeric.value) == message


class TestGqfCertificate:
    def test_relative_interior_gives_subspace(self):
        cert = OrderStat(rank=1).gqf_certificate([2.0, 2.0], [0.5, 0.5])
        assert cert.is_gqf
        basis = cert.subspace_basis
        assert basis.shape[1] == 1
        v = basis[:, 0]
        assert abs(abs(v @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) <= 1e-9

    def test_vertex_is_not_gqf(self):
        cert = OrderStat(rank=1).gqf_certificate([2.0, 2.0], [1.0, 0.0])
        assert not cert.is_gqf

    def test_singleton_subdifferential_gives_full_space(self):
        cert = OrderStat(rank=1).gqf_certificate([2.0, 0.0], [1.0, 0.0])
        assert cert.is_gqf
        assert cert.subspace_basis.shape == (2, 2)

    def test_non_polyhedral_rejected(self):
        with pytest.raises(UnsupportedPointError):
            McpSum(a=2.0, c=1.0).gqf_certificate([0.0], [0.5])


def gqf_instance(rng, gaps):
    """A polyhedral penalty, a point whose subdifferential has 1 to n - 1
    (gaps) or 1 to n (unit vectors) vertices, and a convex combination y
    of them whose coefficients are either exactly 0 or at least 1e-6."""
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n if gaps else n + 1))
    idx = np.sort(rng.choice(n - 1 if gaps else n, k, replace=False))
    if gaps:
        g = rng.uniform(0.1, 0.5, n - 1)
        g[idx] = 1.0
        f, x = EigGapMax(), np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
    else:
        x = -rng.uniform(1.0, 2.0, n)
        x[idx] = 0.0
        f = OrderStat(rank=1)
    c = 1e-6 + (1.0 - k * 1e-6) * rng.dirichlet(np.ones(k))
    if rng.random() < 0.5:
        c[rng.random(k) < 0.4] = 0.0
        if not c.any():
            c[0] = 1.0
        c /= c.sum()
    verts = f.subgradients(x).vertices
    assert len(verts) == k
    return f, x, verts, c @ verts


class TestGqfClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_matches_lp_certificate(self, seed, gaps):
        pytest.importorskip("scipy")  # the LP reference
        from hull_lp import TIGHT, lp_gqf_certificate

        f, x, verts, y = gqf_instance(key_rng(44, seed), gaps)
        cert = f.gqf_certificate(x, y)
        ref = lp_gqf_certificate(verts, y, TIGHT)
        assert cert.is_gqf == ref.is_gqf
        if cert.is_gqf:
            b, r = cert.subspace_basis, ref.subspace_basis
            assert b.shape == r.shape
            assert np.max(np.abs(b.T @ b - np.eye(b.shape[1])), initial=0.0) <= 1e-12
            assert np.max(np.abs(b @ b.T - r @ r.T), initial=0.0) <= 1e-12

    def test_gap_vertex_is_not_gqf(self):
        f = EigGapMax()
        assert not f.gqf_certificate([4.0, 2.0, 0.0], [1.0, -1.0, 0.0]).is_gqf
        cert = f.gqf_certificate([4.0, 2.0, 0.0], [0.5, 0.0, -0.5])
        assert cert.is_gqf
        # the complement of the vertex difference (-1, 2, -1)
        assert cert.subspace_basis.shape == (3, 2)
        assert np.allclose(np.array([-1.0, 2.0, -1.0]) @ cert.subspace_basis, 0.0)


class TestVectorLengths:
    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.name)
    def test_unequal_lengths_raise(self, f):
        x = np.array([3.0, 1.0, 0.0])
        y = f.subgradients(x).canonical_vertex()
        w = np.array([0.5, -1.0, 2.0])
        for bad in (np.ones(2), np.ones(4)):
            with pytest.raises(ValueError, match="unequal lengths"):
                f.subgradients(x).contains(bad)
            with pytest.raises(ValueError, match="unequal lengths"):
                f.subderivative(x, bad)
            for args in ((bad, w), (y, bad)):
                with pytest.raises(ValueError, match="unequal lengths"):
                    f.critical_cone_member(x, *args)
                with pytest.raises(ValueError, match="unequal lengths"):
                    f.second_subderivative(x, *args)


class TestUnsupportedPoints:
    def test_eig_gap_requires_sorted_input(self):
        with pytest.raises(UnsupportedPointError):
            EigGapMax().subgradients([1.0, 3.0, 0.0])

    def test_eig_gap_tied_upper_endpoint(self):
        # max gap sits below a tie: locally a concave kink, no subgradients
        with pytest.raises(UnsupportedPointError):
            EigGapMax().subgradients([3.0, 3.0, 1.0])

    def test_eig_gap_tied_lower_endpoint(self):
        with pytest.raises(UnsupportedPointError):
            EigGapMax().subgradients([5.0, 2.0, 2.0, 0.0])

    def test_eig_gap_all_tied(self):
        with pytest.raises(UnsupportedPointError):
            EigGapMax().subgradients([1.0, 1.0, 1.0])

    def test_eig_gap_tie_touching_max_gap_from_below(self):
        # the tied pair is the lower endpoint of the (unique) max gap
        with pytest.raises(UnsupportedPointError):
            EigGapMax().subgradients([5.0, 2.0, 2.0])

    def test_eig_gap_clean_point_with_remote_ties(self):
        # ties exist but touch no maximal gap: calculus still applies
        s = EigGapMax().subgradients([9.0, 6.0, 6.0, 5.0, 0.0])
        assert np.allclose(s.vertices, [[0.0, 0.0, 0.0, 1.0, -1.0]])

    def test_mcp_gradient_needs_nonzero(self):
        with pytest.raises(UnsupportedPointError):
            McpSum(a=2.0, c=1.0).gradient([0.0, 1.0])

    def test_order_stat_gradient_needs_unique_active(self):
        f = OrderStat(rank=1)
        assert np.allclose(f.gradient([2.0, 0.0]), [1.0, 0.0])
        with pytest.raises(UnsupportedPointError):
            f.gradient([2.0, 2.0])

    def test_eig_gap_gradient_needs_one_maximal_gap(self):
        f = EigGapMax()
        assert np.array_equal(f.gradient([4.0, 1.0, 0.0]), [1.0, -1.0, 0.0])
        with pytest.raises(UnsupportedPointError):
            f.gradient([4.0, 2.0, 0.0])

    @pytest.mark.parametrize(
        "f, x, grad",
        [
            (SmoothSep(coeff=-0.5), [2.0, 0.0, -1.0], [-1.0, 0.0, 0.5]),
            (McpSum(a=2.0, c=1.0), [0.5, 2.5, -1.0], [0.75, 0.0, -0.5]),
            (OrderStat(rank=2), [3.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
        ],
    )
    def test_gradient_is_the_singleton_subdifferential(self, f, x, grad):
        assert f.subgradients(x).singleton
        assert np.array_equal(f.gradient(x), grad)

    def test_singleton_by_kind(self):
        assert SubgradientSet(kind="point", point=np.zeros(2)).singleton
        assert not McpSum(a=2.0, c=1.0).subgradients([0.0, 1.0]).singleton
        assert not OrderStat(rank=1).subgradients([2.0, 2.0]).singleton


class TestSerialization:
    def test_round_trip(self):
        for f in ALL_KINDS:
            back = spec_from_json(spec_to_json(f))
            assert type(back) is type(f)
            assert spec_to_json(back) == spec_to_json(f)

    def test_known_payloads(self):
        assert spec_to_json(OrderStat(rank=2)) == {"name": "order_stat", "i": 2}
        assert spec_to_json(McpSum(a=2.0, c=1.0)) == {"name": "mcp", "a": 2.0, "c": 1.0}
        assert spec_to_json(EigGapMax()) == {"name": "eig_gap"}
        f = spec_from_json('{"name": "order_stat", "i": 3}')
        assert f.rank == 3

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError):
            spec_from_json({"name": "scad"})
        with pytest.raises(ValueError):
            spec_from_json({"name": "mcp", "a": 0.5, "c": 1.0})

    @pytest.mark.parametrize(
        "payload",
        [
            {"name": "order_stat"},
            {"name": "order_stat", "i": 1.5},
            {"name": "order_stat", "i": "1"},
            {"name": "order_stat", "i": math.inf},
            {"name": "mcp", "a": 2.0},
            {"name": "mcp", "a": {"x": 1}, "c": 1.0},
            {"name": "smooth_sep", "coeffs": {"x": 1}},
            # these loaded as McpSum(2, 1) or with an infinite parameter
            {"name": "mcp", "a": "2", "c": True},
            {"name": "mcp", "a": 2.0, "c": math.inf},
            {"name": "mcp", "a": 10**400, "c": 1.0},
            {"name": "smooth_sep", "coeff": math.nan},
            {"name": "smooth_sep", "coeffs": ["1", 1.0]},
            {"name": "smooth_sep", "coeffs": [True]},
            # this loaded as SmoothSep(1), from a second, undocumented form
            {"name": "smooth_sep"},
        ],
    )
    def test_rejects_missing_and_mistyped_fields(self, payload):
        # these used to truncate (i = 1.5 gave rank 1) or raise KeyError/TypeError
        with pytest.raises(ValueError):
            spec_from_json(payload)
