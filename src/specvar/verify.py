"""Self-check suite behind the VERIFY command.

Each check is a reduced-count mirror of an invariant the test suite pins
down at full strength: closed forms against brute-force quotients, the two
critical cone characterizations against each other, the specialized
eigenvalue route against the general one, prox optimality against random
probes, and exact structural identities (orthogonal invariance, degree-2
homogeneity, determinism).  The point of shipping them inside the package
is that a user can re-run the cross-validation on their own machine in a
few seconds without the test harness.
"""
from __future__ import annotations

import numpy as np

from .oracle import (
    QuotientProbe,
    numeric_second_subderivative,
    numeric_subderivative,
)
from .rand import gapped_spectrum, matrix_with_spectrum, random_symmetric
from .spectral import (
    DEFINITIONAL_CONE_TOL,
    _cone_tests,
    leading_eig_second_subderivative,
    lifted,
    prox_directional_derivative,
    second_semiderivative,
    spectral_prox,
    spectral_second_subderivative,
    spectral_subderivative,
    spectral_subgradient,
    spectral_value,
)
from .symfun import EigGapMax, McpSum, OrderStat, SmoothSep, SymmetricFunction
from .rand import random_orthogonal
from .record import Value


class CheckResult(Value):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._init(name, passed, detail)


def _theta_zoo() -> list[SymmetricFunction]:
    return [OrderStat(1), McpSum(a=2.0, c=1.0), EigGapMax(), SmoothSep(1.0)]


def _distinct_instance(rng, n: int = 5):
    lam = gapped_spectrum(rng, (1,) * n, gap=1.0, top=float(rng.uniform(1.5, 2.5)))
    x, _ = matrix_with_spectrum(rng, lam)
    return x


def _check_orthogonal_invariance(rng) -> CheckResult:
    worst = 0.0
    for _ in range(8):
        x = _distinct_instance(rng, 5)
        q = random_orthogonal(rng, 5)
        for theta in _theta_zoo():
            a = spectral_value(theta, x)
            b = spectral_value(theta, q.T @ x @ q)
            worst = max(worst, abs(a - b))
    return CheckResult(
        "value_orthogonal_invariance", worst <= 1e-10, f"worst drift {worst:.2e}"
    )


def _check_chain_rule(rng) -> CheckResult:
    worst = 0.0
    for theta in _theta_zoo():
        for _ in range(2):
            x = _distinct_instance(rng, 5)
            h = random_symmetric(rng, 5, frob=0.5)
            closed = spectral_subderivative(theta, x, h)
            est = numeric_subderivative(lifted(theta), x, h, samples=24)
            worst = max(worst, abs(closed - float(est)))
    return CheckResult("chain_rule_vs_quotients", worst <= 1e-4, f"worst gap {worst:.2e}")


def _check_second_order_oracle(rng) -> CheckResult:
    probe = QuotientProbe(samples=24)
    worst = 0.0
    lower_ok = True
    for theta in [OrderStat(1), McpSum(a=2.0, c=1.0), SmoothSep(1.0)]:
        for _ in range(2):
            x = _distinct_instance(rng, 4)
            triple = spectral_subgradient(theta, x)
            h = random_symmetric(rng, 4, frob=0.5)
            rep = spectral_second_subderivative(theta, x, triple, h, probe=probe)
            if not rep.d2.is_finite or rep.oracle_gap is None:
                return CheckResult(
                    "second_order_vs_oracle", False, "expected a finite d2 instance"
                )
            worst = max(worst, rep.oracle_gap)
            lower_ok = lower_ok and float(rep.oracle_d2) >= float(rep.d2) - 5e-3
    passed = worst <= 1e-2 and lower_ok
    return CheckResult(
        "second_order_vs_oracle",
        passed,
        f"worst oracle gap {worst:.2e}, lower estimate {'held' if lower_ok else 'VIOLATED'}",
    )


def _check_cone_equivalence(rng) -> CheckResult:
    theta = OrderStat(1)
    agree = 0
    total = 0
    for k in range(12):
        lam = gapped_spectrum(rng, (2, 1, 1), gap=1.0)
        x, u = matrix_with_spectrum(rng, lam)
        triple = spectral_subgradient(theta, x, np.array([1.0, 0.0, 0.0, 0.0]))
        if k % 2 == 0:
            h = random_symmetric(rng, 4)
        else:
            core = np.diag(np.array([2.0, -1.0, 0.5, -0.5]) * rng.uniform(0.5, 1.5))
            h = u @ core @ u.T
        structural, gap = _cone_tests(theta, x, triple, h)
        definitional = abs(gap) <= DEFINITIONAL_CONE_TOL
        total += 1
        agree += structural == definitional
    return CheckResult(
        "critical_cone_equivalence", agree == total, f"{agree}/{total} agreements"
    )


def _check_leading_route(rng) -> CheckResult:
    worst = 0.0
    agree = True
    for k in range(8):
        lam = gapped_spectrum(rng, (1, 2), gap=1.0)
        x, u = matrix_with_spectrum(rng, lam)
        i = 1 if k % 2 == 0 else 2
        if i == 1:
            y = np.array([1.0, 0.0, 0.0])
        else:
            y = np.array([0.0, 1.0, 0.0])
        theta = OrderStat(1 if i == 1 else 2)
        triple = spectral_subgradient(theta, x, y)
        if k % 3 == 0:
            h = random_symmetric(rng, 3)
        else:
            core = np.diag([0.7, 0.3, 0.3]) if i == 2 else np.diag([0.7, 0.3, -0.1])
            h = u @ core @ u.T
        direct = leading_eig_second_subderivative(x, i, triple, h)
        general = spectral_second_subderivative(theta, x, triple, h).d2
        if direct.is_finite != general.is_finite:
            agree = False
        elif direct.is_finite:
            worst = max(worst, abs(float(direct) - float(general)))
    passed = agree and worst <= 1e-10
    return CheckResult(
        "leading_eig_vs_order_stat", passed, f"worst finite gap {worst:.2e}"
    )


def _row_dots(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in an (S, n, n) stack."""
    flat = a.reshape(len(a), -1)
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def _check_prox(rng) -> CheckResult:
    failures = 0
    for theta, gamma in [(McpSum(a=2.0, c=1.0), 0.25), (SmoothSep(1.0), 1.0)]:
        f = lifted(theta)
        for _ in range(3):
            x = random_symmetric(rng, 4, frob=2.0)
            res = spectral_prox(theta, gamma, x)
            p = res.matrix.entries
            base = f(p) + float(np.vdot(p - x, p - x)) / (2.0 * gamma)
            # 200 unit-norm symmetric probes: random_symmetric's draws and
            # arithmetic, stacked (the matmul norms give ddot's bits)
            a = rng.standard_normal((200, 4, 4))
            a = (a + a.transpose(0, 2, 1)) / 2.0
            a *= 1.0 / np.sqrt(_row_dots(a))[:, None, None]
            w = p + 0.1 * a
            cand = f(w) + _row_dots(w - x) / (2.0 * gamma)
            failures += int(np.count_nonzero(cand < base - 1e-10))
    dirres = prox_directional_derivative(
        SmoothSep(1.0), 1.0, random_symmetric(rng, 3), random_symmetric(rng, 3)
    )
    passed = failures == 0 and dirres.converged
    return CheckResult(
        "prox_optimality_and_direction",
        passed,
        f"{failures} probe improvements; directional flag {dirres.converged}",
    )


def _check_homogeneity(rng) -> CheckResult:
    theta = OrderStat(1)
    worst = 0.0
    for _ in range(5):
        x = _distinct_instance(rng, 4)
        triple = spectral_subgradient(theta, x)
        h = random_symmetric(rng, 4)
        base = spectral_second_subderivative(theta, x, triple, h).d2
        for s in (0.5, 2.0, 3.0):
            scaled = spectral_second_subderivative(theta, x, triple, s * h).d2
            worst = max(
                worst,
                abs(float(scaled) - s * s * float(base)) / (1.0 + abs(float(base))),
            )
    return CheckResult("d2_degree_two_homogeneity", worst <= 1e-10, f"worst {worst:.2e}")


def _check_determinism(rng) -> CheckResult:
    theta = McpSum(a=2.0, c=1.0)
    x = _distinct_instance(rng, 4)
    triple = spectral_subgradient(theta, x)
    h = random_symmetric(rng, 4)
    probe = QuotientProbe(samples=16)
    f = lifted(theta)
    r1 = numeric_second_subderivative(f, x, triple.matrix.entries, h, probe)
    r2 = numeric_second_subderivative(f, x, triple.matrix.entries, h, probe)
    same = float(r1.estimate) == float(r2.estimate) and all(
        float(a.minimum) == float(b.minimum) for a, b in zip(r1.levels, r2.levels)
    )
    return CheckResult("probe_determinism", same, "bit-identical reruns" if same else "drift")


def _check_semiderivative(rng) -> CheckResult:
    worst_smooth = 0.0
    for _ in range(3):
        x = random_symmetric(rng, 4, frob=1.5)
        h = random_symmetric(rng, 4)
        semi = second_semiderivative(SmoothSep(1.0), x, h)
        worst_smooth = max(worst_smooth, abs(semi - float(np.vdot(h, h))))
    theta = McpSum(a=2.0, c=1.0)
    worst_mcp = 0.0
    f = lifted(theta)
    for _ in range(3):
        lam = np.array([1.2, 0.5, -0.7, -1.4]) + rng.uniform(-0.05, 0.05, size=4)
        x, _ = matrix_with_spectrum(rng, lam)
        h = random_symmetric(rng, 4)
        semi = second_semiderivative(theta, x, h)
        t = 1e-4
        central = (f(x + t * h) - 2.0 * f(x) + f(x - t * h)) / (t * t)
        worst_mcp = max(worst_mcp, abs(semi - central))
    passed = worst_smooth <= 1e-6 and worst_mcp <= 1e-3
    return CheckResult(
        "second_semiderivative",
        passed,
        f"smooth drift {worst_smooth:.2e}, kink-free drift {worst_mcp:.2e}",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check with a deterministic stream per check name."""
    checks = [
        _check_orthogonal_invariance,
        _check_chain_rule,
        _check_second_order_oracle,
        _check_cone_equivalence,
        _check_leading_route,
        _check_prox,
        _check_homogeneity,
        _check_determinism,
        _check_semiderivative,
    ]
    results = []
    for k, fn in enumerate(checks):
        rng = np.random.default_rng([seed, k])
        results.append(fn(rng))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
