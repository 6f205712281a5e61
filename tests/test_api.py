"""The public API is pinned: adding a name to `symlra.__all__` or removing
one is a deliberate edit of this list, recorded in CHANGES.md."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symlra

PUBLIC = [
    "SymTensor", "Decomposition", "exponents", "multinomial", "compact_size",
    "table", "compact_from_full", "full_from_compact",
    "transform", "random_low_rank", "perturb",
    "catalecticant", "catalecticant_spectrum", "estimate_rank", "RankEstimate",
    "monomial_basis", "generating_system", "fit_generating",
    "optimize_generating", "companion_matrices", "commutator_residuals",
    "MonomialBasis", "GeneratingFit",
    "commutation_gram", "select_mixing", "extract_zeros", "poly_residual",
    "MixingSelection", "ZeroExtraction",
    "approximate", "decompose", "refine", "fit_coefficients",
    "terms_from_zeros", "match_distance", "ApproxResult", "DecomposeResult",
    "RefineResult",
    "LMConfig", "LMResult", "levenberg_marquardt", "minnorm_lstsq",
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


OCTET_SEARCH = """
from symlra import decompose
from symlra.families import octet_tensor
decompose(octet_tensor(), 8, restarts=5, distinct=True)
"""
OCTET_CLI = """
import contextlib, io
from symlra import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["gen", "--family", "octet", "--output", "octet.json"],
             standalone_mode=False)
    cli.main(["decompose", "octet.json", "--rank", "8", "--restarts", "5",
              "--distinct"], standalone_mode=False)
"""


@pytest.mark.parametrize("code", ["import symlra", OCTET_SEARCH, OCTET_CLI],
                         ids=["import", "decompose-distinct", "cli-distinct"])
def test_import_leaves_scipy_optimize_out(code, tmp_path):
    # scipy.optimize is slow to import; a distinct-mode search reaches the
    # vector matching, scipy.sparse.csgraph's bipartite matching, which
    # `import symlra` alone leaves unloaded
    plain = code == "import symlra"
    code = (f"import sys\n{code}\nprint('scipy.sparse.csgraph' in sys.modules)\n"
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(symlra.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    *_, csgraph, optimize = proc.stdout.strip().splitlines()
    assert optimize == "False"
    if plain:
        assert csgraph == "False"
