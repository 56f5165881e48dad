"""The benchmark's trace hooks: every name perfbench/spans.py patches still
resolves in the package, the wrappers count what they should, and removing
the tracer puts every original object back."""
import importlib.util
from pathlib import Path

import numpy as np

import specvar
from specvar import EigGapMax, McpSum, OrderStat, SmoothSep, symfun

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PENALTIES = [
    OrderStat(rank=1), OrderStat(rank=2), EigGapMax(), McpSum(a=2.0, c=1.0), SmoothSep(coeff=1.5)
]

X = np.diag([3.0, 1.5, 0.5, -1.0])
H = np.array(
    [[0.3, 1.0, 0.0, 0.2], [1.0, -0.2, 0.5, 0.0], [0.0, 0.5, 0.1, 0.4], [0.2, 0.0, 0.4, 0.6]]
)


def load_spans():
    """perfbench/spans.py as a module, loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_hooks_resolve_count_and_restore():
    spans = load_spans()
    # the penalty spans are installed only where a class defines the method
    for meth in spans.PENALTY_METHODS:
        assert meth in vars(symfun.SymmetricFunction), meth
    owners = [*spans._namespaces(), np.linalg, *spans.PENALTY_CLASSES]
    before = [(owner, dict(vars(owner))) for owner in owners]
    d2 = symfun.SymmetricFunction.second_subderivative
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert symfun.SymmetricFunction.second_subderivative is not d2
        tracer.job = 0
        for theta in PENALTIES:
            es = specvar.eig(X)
            triple = specvar.spectral_subgradient(theta, es)
            specvar.spectral_second_subderivative(theta, es, triple, H)
        specvar.spectral_prox(McpSum(a=2.0, c=1.0), 0.5, X)
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.remove()
    calls = {k.removesuffix(".calls"): v for k, (v, _) in metrics.items() if k.endswith(".calls")}
    d2s = len(PENALTIES)
    assert calls["symmat.eig"] == d2s + 1
    assert calls["spectral.spectral_subgradient"] == d2s
    assert calls["spectral.spectral_second_subderivative"] == d2s
    # the triple checks the set it took its vertex from and carries it, so
    # d2 reads dg and the penalty d2 off that set without checking again
    assert calls["symfun.second_subderivative"] == 0
    assert calls["symfun.check_subgradient"] == 0
    assert calls["symfun.critical_cone_member"] == 0
    assert calls["spectral.spectral_prox"] == 1
    assert calls["symfun.prox"] == 1
    assert calls["oracle.numeric_prox"] == 0 and calls["linalg.eigvalsh"] == 0
    for owner, attrs in before:
        after = vars(owner)
        assert all(after[key] is val for key, val in attrs.items()), owner


def test_d2_at_a_raw_matrix_decomposes_once():
    # the triple carries the EigenSystem spectral_subgradient computed, so
    # a d2 at the same raw matrix reuses it
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.job = 0
        for theta in PENALTIES:
            triple = specvar.spectral_subgradient(theta, X)
            specvar.spectral_second_subderivative(theta, X, triple, H)
        metrics = tracer.layer_metrics(len(PENALTIES))
    finally:
        tracer.remove()
    assert metrics["symmat.eig.calls"][0] == 1.0
    assert metrics["spectral.spectral_second_subderivative.calls"][0] == 1.0
