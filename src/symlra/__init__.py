"""Low-rank approximation and Waring decomposition of complex symmetric
tensors by the generating-polynomial pipeline: least-squares coefficient
recovery, commuting multiplication matrices, Schur-based zero extraction,
and joint nonlinear refinement."""

from .tensors import (SymTensor, Decomposition, exponents, multinomial,
                      compact_size, table, compact_from_full,
                      full_from_compact, transform,
                      random_low_rank, perturb)
from .catalecticant import (catalecticant, catalecticant_spectrum,
                            estimate_rank, RankEstimate)
from .genfit import (monomial_basis, generating_system, fit_generating,
                     optimize_generating, companion_matrices,
                     commutator_residuals, MonomialBasis, GeneratingFit)
from .zerosolve import (commutation_gram, select_mixing, extract_zeros,
                        MixingSelection, ZeroExtraction)
from .pipeline import (approximate, decompose, refine, fit_coefficients,
                       terms_from_zeros, match_distance, ApproxResult,
                       DecomposeResult, RefineResult)
from .numerics import (LMConfig, LMResult, levenberg_marquardt,
                       minnorm_lstsq, hermitian_smallest)
from .bench import (STOCK_NLS_CONFIG,
                    run_table, run_nls_comparison, run_decomposition_table,
                    BenchStats)

__version__ = "0.1.0"

__all__ = [
    "SymTensor", "Decomposition", "exponents", "multinomial", "compact_size",
    "table", "compact_from_full", "full_from_compact",
    "transform", "random_low_rank", "perturb",
    "catalecticant", "catalecticant_spectrum", "estimate_rank", "RankEstimate",
    "monomial_basis", "generating_system", "fit_generating",
    "optimize_generating", "companion_matrices", "commutator_residuals",
    "MonomialBasis", "GeneratingFit",
    "commutation_gram", "select_mixing", "extract_zeros", "MixingSelection",
    "ZeroExtraction",
    "approximate", "decompose", "refine", "fit_coefficients",
    "terms_from_zeros", "match_distance", "ApproxResult", "DecomposeResult",
    "RefineResult",
    "LMConfig", "LMResult", "levenberg_marquardt", "minnorm_lstsq",
    "hermitian_smallest",
    "STOCK_NLS_CONFIG",
    "run_table", "run_nls_comparison", "run_decomposition_table",
    "BenchStats",
    "__version__",
]
