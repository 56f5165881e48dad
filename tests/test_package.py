"""The package namespace: what ``from specvar import *`` exports."""
import specvar

EXPORTS = {
    "__version__",
    "EigenSolveError", "InvalidSubgradientError", "OracleError", "UnsupportedPointError",
    "ExtReal", "POS_INF",
    "SymMatrix", "EigenSystem", "as_sym_array", "eig", "block_sort_permutation",
    "eig_dir_derivative", "eig_second_prediction",
    "SymmetricFunction", "OrderStat", "McpSum", "EigGapMax", "SmoothSep", "SubgradientSet",
    "GqfCertificate", "ProxResult", "spec_from_json", "spec_to_json",
    "QuotientProbe", "ProbeLevel", "ProbeResult", "AttainmentResult", "NumericProxResult",
    "diff_quotient2", "numeric_second_subderivative", "numeric_subderivative",
    "epi_attainment_search", "numeric_prox",
    "SubgradientTriple", "SecondOrderReport", "SpectralProxResult", "ProxDirectional",
    "spectral_value", "spectral_subgradient", "spectral_subderivative", "subderivative_gap",
    "curvature_correction", "fan_block_gaps", "critical_cone_member",
    "spectral_second_subderivative", "leading_eig_second_subderivative",
    "second_semiderivative", "spectral_prox", "prox_directional_derivative", "lifted",
    "random_orthogonal", "random_symmetric", "gapped_spectrum", "matrix_with_spectrum",
    "CheckResult", "run_all", "all_passed",
}


def test_star_import_exports_the_public_api():
    # __all__ is derived from the imports, so a submodule or a helper name
    # must not slip in, and no public name may drop out
    assert len(EXPORTS) == 58
    namespace = {}
    exec("from specvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert len(specvar.__all__) == len(EXPORTS)
