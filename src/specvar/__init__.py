"""Variational calculus of spectral functions of real symmetric matrices.

A spectral function applies a symmetric penalty to the ordered eigenvalues
of a symmetric matrix.  This package computes its values, subgradients,
subderivatives, second subderivatives with the cluster curvature
correction, critical cones, second semiderivatives, and proximal mappings
in closed form, and ships brute-force difference-quotient oracles that
independently approximate each of those objects for cross-validation.
"""

__version__ = "0.1.0"

from .errors import EigenSolveError, InvalidSubgradientError, OracleError, UnsupportedPointError
from .extreal import POS_INF, ExtReal
from .symmat import (
    EigenSystem,
    SymMatrix,
    as_sym_array,
    block_sort_permutation,
    eig,
    fan_gap,
    pinv_shift,
)
from .perturb import eig_dir_derivative, eig_second_prediction
from .symfun import (
    EigGapMax,
    GqfCertificate,
    McpSum,
    OrderStat,
    ProxResult,
    SmoothSep,
    SubgradientSet,
    SymmetricFunction,
    spec_from_json,
    spec_to_json,
)
from .oracle import (
    AttainmentResult,
    NumericProxResult,
    ProbeLevel,
    ProbeResult,
    QuotientProbe,
    diff_quotient2,
    epi_attainment_search,
    numeric_prox,
    numeric_second_subderivative,
    numeric_subderivative,
)
from .spectral import (
    ProxDirectional,
    SecondOrderReport,
    SpectralProxResult,
    SubgradientTriple,
    critical_cone_member,
    curvature_correction,
    fan_block_gaps,
    leading_eig_second_subderivative,
    lifted,
    prox_directional_derivative,
    second_semiderivative,
    spectral_prox,
    spectral_second_subderivative,
    spectral_subderivative,
    spectral_subgradient,
    spectral_value,
    subderivative_gap,
)
from .rand import (
    gapped_spectrum,
    matrix_with_spectrum,
    random_orthogonal,
    random_symmetric,
)
from .verify import CheckResult, all_passed, run_all

__all__ = [
    "__version__",
    "EigenSolveError",
    "InvalidSubgradientError",
    "OracleError",
    "UnsupportedPointError",
    "ExtReal",
    "POS_INF",
    "SymMatrix",
    "EigenSystem",
    "as_sym_array",
    "eig",
    "pinv_shift",
    "fan_gap",
    "block_sort_permutation",
    "eig_dir_derivative",
    "eig_second_prediction",
    "SymmetricFunction",
    "OrderStat",
    "McpSum",
    "EigGapMax",
    "SmoothSep",
    "SubgradientSet",
    "GqfCertificate",
    "ProxResult",
    "spec_from_json",
    "spec_to_json",
    "QuotientProbe",
    "ProbeLevel",
    "ProbeResult",
    "AttainmentResult",
    "NumericProxResult",
    "diff_quotient2",
    "numeric_second_subderivative",
    "numeric_subderivative",
    "epi_attainment_search",
    "numeric_prox",
    "SubgradientTriple",
    "SecondOrderReport",
    "SpectralProxResult",
    "ProxDirectional",
    "spectral_value",
    "spectral_subgradient",
    "spectral_subderivative",
    "subderivative_gap",
    "curvature_correction",
    "fan_block_gaps",
    "critical_cone_member",
    "spectral_second_subderivative",
    "leading_eig_second_subderivative",
    "second_semiderivative",
    "spectral_prox",
    "prox_directional_derivative",
    "lifted",
    "random_orthogonal",
    "random_symmetric",
    "gapped_spectrum",
    "matrix_with_spectrum",
    "CheckResult",
    "run_all",
    "all_passed",
]
