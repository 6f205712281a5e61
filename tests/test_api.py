"""The public API is pinned: adding a name to `symlra.__all__` or removing
one is a deliberate edit of this list, recorded in CHANGES.md."""

import symlra

PUBLIC = [
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


def test_all_is_pinned():
    assert symlra.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in symlra.__all__:
        assert hasattr(symlra, name), name
