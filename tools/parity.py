"""Result parity between two checkouts of symlra.

Run a fixed, seeded set of library calls and command-line runs on one BLAS
thread and write one JSON line per call, then compare two such files:

    python3 tools/parity.py --root DIR --seed N --out FILE
    python3 tools/parity.py --compare A B

`--root` imports symlra from DIR/src and refuses any other copy, so two
checkouts (say a parent commit and a change) can be run one after the
other on the same seed.  Each line holds the call's name, a sha256 over
every returned vector array, error, status, count, diagnostic and
warning, the library's `wall_time` excepted, and the readable scalars.
A command-line entry hashes the command's exit code and every line of its
stdout and stderr.
`--compare` lists the entries whose hashes differ, with both sides'
scalars that differ and the largest relative move among them, and exits
1 if any entry differs (or is missing on one side).
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import sys
import warnings
from functools import partial
from pathlib import Path

# BLAS reads its thread count when numpy loads, so set it first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SKIPPED = {"wall_time"}   # timings differ between any two runs


def import_symlra(root):
    """symlra from root/src, and no other copy."""
    src = (Path(root) / "src").resolve()
    if not (src / "symlra" / "__init__.py").is_file():
        raise SystemExit(f"no symlra package under {src}")
    if "symlra" in sys.modules:
        raise SystemExit("symlra is already imported; run parity.py as a script")
    sys.path.insert(0, str(src))
    symlra = importlib.import_module("symlra")
    found = Path(symlra.__file__).resolve()
    if src not in found.parents:
        raise SystemExit(f"imported symlra from {found}, not from {src}")
    return symlra


def leaves(obj, path=""):
    """(path, value) for every array and scalar in a result, in a fixed
    order: dataclass fields and dict keys in their own order, a
    Decomposition as its vectors, keys in SKIPPED left out."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif hasattr(obj, "vectors") and hasattr(obj, "m"):     # a Decomposition
        obj = {"m": obj.m, "vectors": obj.vectors}
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in SKIPPED:
                yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _bytes(value):
    # the exact bits of a value, tagged with its kind
    if isinstance(value, np.ndarray):
        return f"array {value.dtype.str} {value.shape} ".encode() + \
            np.ascontiguousarray(value).tobytes()
    if isinstance(value, (bool, np.bool_)):
        return f"bool {bool(value)}".encode()
    if isinstance(value, (int, np.integer)):
        return f"int {int(value)}".encode()
    if isinstance(value, (float, np.floating)):
        return f"float {float(value).hex()}".encode()
    if isinstance(value, (complex, np.complexfloating)):
        return f"complex {value.real.hex()} {value.imag.hex()}".encode()
    return f"{type(value).__name__} {value!r}".encode()


def _readable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if np.isfinite(f) else repr(f)
    if value is None or isinstance(value, str):
        return value
    return None     # arrays and the rest are in the hash only


def record(name, call):
    """Run `call` and summarize what it returned (or raised) and warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as e:  # a raised error is a result to compare too
            out = {"raised": f"{type(e).__name__}: {e}"}
    out = {"result": out,
           "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
    digest = hashlib.sha256()
    scalars = {}
    for path, value in leaves(out):
        digest.update(path.encode() + b"\0" + _bytes(value) + b"\0")
        if not isinstance(value, np.ndarray):
            scalars[path] = _readable(value)
    return {"name": name, "sha256": digest.hexdigest(), "scalars": scalars}


def calls(symlra, seed):
    """(name, thunk) for each call of the set; every instance and start
    is derived from `seed`."""
    from symlra import families
    from symlra.bench import STOCK_NLS_CONFIG
    approximate, decompose, Decomposition, random_low_rank, perturb = (
        symlra.approximate, symlra.decompose, symlra.Decomposition,
        symlra.random_low_rank, symlra.perturb)

    def perturbed(n, m, r, k, eps=1e-3):
        F0, _ = random_low_rank(n, m, r, seed=[seed, k, 0])
        return perturb(F0, eps * F0.norm(), seed=[seed, k, 1])

    def refine(F, r, key):
        # from a complex Gaussian start, under the stock least-squares budget
        rng = np.random.default_rng(key)
        U = rng.standard_normal((r, F.n)) + 1j * rng.standard_normal((r, F.n))
        return partial(symlra.refine, F, Decomposition(F.m, U), STOCK_NLS_CONFIG)

    def commutator_lm(F, r, key, start):
        # the commutator LM alone: its status and work counts are scalars
        def call():
            fit = symlra.fit_generating(F, symlra.monomial_basis(F.n, F.m, r))
            return symlra.optimize_generating(fit, seed=key, start=start)
        return call

    out = []
    for k, (n, m, r) in enumerate([(3, 4, 5), (3, 5, 8), (4, 4, 6), (10, 3, 4)]):
        name = f"approximate/perturbed-{n}-{m}-{r}"
        F = perturbed(n, m, r, 10 + k)
        out.append((f"{name}/restarts-2",
                    partial(approximate, F, r, restarts=2, seed=[seed, k])))
        # a tolerance above the 1e-6 perturbation, so the estimate finds r
        F = perturbed(n, m, r, 20 + k, eps=1e-6)
        out.append((f"{name}/estimated-rank",
                    partial(approximate, F, rank_tol=1e-4, seed=[seed, k])))
    U = np.array([[1e-9, 1.0, 1.0], [1.0, -0.7, 0.3]], dtype=complex)
    for name, F, r in [("auto-shuffle", Decomposition(3, U).tensor(), 2),
                       ("sin", families.sin_tensor(), 2),
                       ("rootsum", families.rootsum_tensor(), None),
                       ("linear", families.linear_tensor(), 2),
                       ("ternary", families.ternary_tensor(), 4)]:
        out.append((f"approximate/{name}/restarts-2",
                    partial(approximate, F, r, restarts=2, seed=seed)))
    for k, (n, m, r) in enumerate([(6, 3, 4), (4, 5, 10), (3, 4, 5), (3, 5, 8)]):
        exact = random_low_rank(n, m, r, seed=[seed, 30 + k])[0]
        for kind, F in [("exact", exact), ("perturbed", perturbed(n, m, r, 40 + k))]:
            for mode in ("first", "distinct"):
                out.append((f"decompose/{kind}-{n}-{m}-{r}/{mode}",
                            partial(decompose, F, r, restarts=3, seed=[seed, k],
                                    distinct=mode == "distinct")))
    out.append(("decompose/octet/distinct",
                partial(decompose, families.octet_tensor(), 8, restarts=5, seed=seed,
                        distinct=True)))
    # criterion 6's scaled instance: term i weighs tau^i, noise of norm 1e-4
    F0, _ = random_low_rank(10, 3, 12, seed=[seed, 50], tau=1000.0 ** (1 / 12))
    F = perturb(F0, 1e-4, seed=[seed, 51])
    out += [(f"refine/scaled-10-3-12/start-{t}", refine(F, 12, [seed, 52, t]))
            for t in range(2)]
    F = perturbed(10, 6, 20, 60, eps=1e-4)
    out.append(("approximate/perturbed-10-6-20", partial(approximate, F, 20, seed=seed)))
    for k, (n, m, r, start) in enumerate([(3, 5, 8, 1), (5, 3, 7, 0)]):
        out.append((f"optimize_generating/perturbed-{n}-{m}-{r}/start-{start}",
                    commutator_lm(perturbed(n, m, r, 70 + k), r, [seed, 70 + k], start)))
    # the bottleneck matching: a permuted, phase-rotated and slightly moved
    # copy, and an unrelated decomposition of the same shape
    a, b = (random_low_rank(3, 4, 6, seed=[seed, 80 + k])[1] for k in range(2))
    rng = np.random.default_rng([seed, 82])
    zeta = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, 6)]    # 4th roots of unity
    moved = zeta[:, None] * a.vectors[rng.permutation(6)] \
        + 1e-3 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    out += [("match_distance/moved-copy-3-4-6",
             partial(symlra.match_distance, a, Decomposition(4, moved))),
            ("match_distance/unrelated-3-4-6", partial(symlra.match_distance, a, b))]
    # a full matching test that must fail: at the third distance every row
    # and column has a candidate, but rows 0 and 1 share their only partner
    x, y = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    out.append(("match_distance/shared-partner-3-4-3",
                partial(symlra.match_distance, Decomposition(4, np.array([x, x + 1e-6, y])),
                        Decomposition(4, np.array([x, y + 1e-3, y - 1e-3])))))
    return out + cli_calls(seed)


def cli_calls(seed):
    """(name, thunk) for each command-line entry: the exit code, stdout and
    stderr of one `symlra` command on a tiny input that `gen` writes, run in
    a scratch directory through click's CliRunner."""
    from click.testing import CliRunner
    from symlra.cli import main

    def cli(args, family=None):
        def call():
            runner = CliRunner()
            with runner.isolated_filesystem():
                if family:
                    runner.invoke(main, ["gen", *family, "--output", "in.json"],
                                  catch_exceptions=False)
                done = runner.invoke(main, args + ["in.json"] * bool(family),
                                     catch_exceptions=False)
            # line by line, so that --compare prints only the lines that differ
            return {"exit_code": done.exit_code,
                    "stdout": done.stdout.splitlines(keepends=True),
                    "stderr": done.stderr.splitlines(keepends=True)}
        return call

    def random(n, m, r, *extra):
        return ["--family", "random", "--n", str(n), "--m", str(m), "--r", str(r),
                "--seed", str(seed), *extra]

    s = str(seed)
    inputs = {"rankest": (["rankest"], random(4, 3, 2, "--eps", "1e-3")),
              "approx": (["approx", "--restarts", "1", "--seed", s],
                         random(3, 4, 5, "--eps", "1e-4")),
              "decompose": (["decompose", "--rank", "5", "--restarts", "2",
                             "--seed", s, "--distinct"], random(3, 4, 5))}
    # each command on one input as JSON and as a text table; the bench
    # tables carry wall times, so only their JSON is compared
    return [
        ("cli/gen", cli(["gen", *random(4, 3, 2, "--eps", "1e-3")])),
        *((f"cli/{name}", cli(args, family)) for name, (args, family) in inputs.items()),
        *((f"cli/{name}-table", cli([*args, "--format", "table"], family))
          for name, (args, family) in inputs.items()),
        ("cli/bench-table", cli(["bench", "table", "--n", "3", "--m", "3", "--r", "1,2",
                                 "--eps", "1e-2", "--trials", "2", "--seed", s])),
        ("cli/bench-nls", cli(["bench", "nls", "--n", "3", "--m", "3", "--r", "2",
                               "--eps", "1e-2", "--trials", "1", "--nls-restarts", "2",
                               "--seed", s])),
        ("cli/bench-decomp", cli(["bench", "decomp", "--cases", "3,3,2;3,4,5",
                                  "--trials", "2", "--restarts", "1", "--seed", s])),
    ]


def run(root, seed, out):
    symlra = import_symlra(root)
    with open(out, "w") as fh:
        for name, call in calls(symlra, seed):
            fh.write(json.dumps(record(name, call)) + "\n")
            fh.flush()


def _load(path):
    with open(path) as fh:
        return {rec["name"]: rec for rec in map(json.loads, fh)}


def _relative_move(a, b):
    # |a - b| / max(|a|, |b|) for two numbers (flags and strings excluded)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return None
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(path_a, path_b):
    """Print the entries of two output files that differ; 1 if any do."""
    a, b = _load(path_a), _load(path_b)
    differ = 0
    for name in [*a, *(n for n in b if n not in a)]:
        ra, rb = a.get(name), b.get(name)
        if ra is not None and rb is not None and ra["sha256"] == rb["sha256"]:
            continue
        differ += 1
        if ra is None or rb is None:
            print(f"{name}: only in {path_a if rb is None else path_b}")
            continue
        print(f"{name}:")
        sa, sb = ra["scalars"], rb["scalars"]
        moves = []
        for key in [*sa, *(k for k in sb if k not in sa)]:
            va, vb = sa.get(key, "<absent>"), sb.get(key, "<absent>")
            if va != vb:
                print(f"  {key}: {va!r} | {vb!r}")
                move = _relative_move(va, vb)
                if move is not None:
                    moves.append(move)
        print(f"  largest relative move: {max(moves):.3e}" if moves else
              "  largest relative move: none among the scalars (arrays differ)")
    print(f"{len(set(a) | set(b))} entries, {differ} differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", help="checkout whose src/symlra to run")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output file, one JSON line per call")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two output files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.root is None or args.seed is None or args.out is None:
        parser.error("--root, --seed and --out are required unless --compare is given")
    run(args.root, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
