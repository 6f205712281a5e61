"""Command-line interface.

Exit codes: 0 on success, 1 on numerical failure (a decomposition search
that misses its tolerance, or a linear-algebra breakdown), 2 on input
errors (bad files, bad flags, invalid parameters).

JSON output is byte-identical for identical flags and seed; wall-clock
timings are therefore omitted unless --timing is passed, which for the
bench commands also adds the environment of the run (BLAS thread counts
inside symlra calls, usable cores, numpy and scipy versions).  Library
warnings go to stderr as `warning: <message>` lines.
"""

import functools
import sys
import warnings

import click
import numpy as np

from . import bench as benchmod
from .catalecticant import catalecticant_spectrum, estimate_rank
from .families import FAMILIES, make_family
from .jsonio import decomposition_to_dict, dumps, read_tensor, tensor_to_dict
from .numerics import LMConfig
from .pipeline import approximate, decompose as decompose_fn
from .tensors import perturb


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


def _guarded(fn):
    # library warnings are recorded under the active filters and printed
    # to stderr as the CLI's own messages, on every exit path
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            try:
                return fn(*args, **kwargs)
            except np.linalg.LinAlgError as e:
                click.echo(f"numerical failure: {e}", err=True)
                sys.exit(1)
            except (ValueError, OSError) as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
            finally:
                for w in caught:
                    click.echo(f"warning: {w.message}", err=True)
    return wrapper


def _lm_config(max_iter, max_fev):
    base = LMConfig()
    return LMConfig(
        max_iterations=max_iter if max_iter is not None else base.max_iterations,
        max_residual_evaluations=max_fev if max_fev is not None else base.max_residual_evaluations)


def _emit(payload):
    click.echo(dumps(_jsonable(payload)), nl=False)


def _echo_vectors(decomposition, indent=""):
    for i, row in enumerate(decomposition.vectors):
        entries = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        click.echo(f"{indent}u[{i}] = {entries}")


def _emit_bench(stats, formatter, fmt, timing, rows=True):
    if fmt == "table":
        click.echo(formatter(stats))
        return
    dicts = [st.to_dict(include_timing=timing) for st in stats]
    payload = {"rows": dicts} if rows else dicts[0]
    if timing:
        payload["environment"] = benchmod.environment()
    _emit(payload)


INPUT = click.argument("input", type=click.Path(exists=True, dir_okay=False))
FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                      default="json", show_default=True, help="Output format.")
COUNT = click.IntRange(min=0)
POSITIVE = click.IntRange(min=1)
TIMING = click.option("--timing", is_flag=True,
                      help="Include wall-clock timings in the output "
                           "(breaks byte-for-byte reproducibility).")


@click.group()
def main():
    """Low-rank approximation and Waring decomposition of complex
    symmetric tensors."""


@main.command()
@INPUT
@click.option("--rank-tol", default=1e-6, show_default=True,
              help="Relative singular-value cutoff for the rank estimate.")
@FORMAT
@_guarded
def rankest(input, rank_tol, fmt):
    """Estimate the rank of a tensor from its flattening spectrum."""
    F = read_tensor(input)
    sv = catalecticant_spectrum(F)
    est = estimate_rank(sv, rank_tol)
    if fmt == "table":
        click.echo(f"{'k':>4} {'singular value':>16} {'gap to next':>12}")
        ratios = list(est.gap_ratios) + [float("nan")]
        for k, (s, g) in enumerate(zip(sv, ratios), start=1):
            click.echo(f"{k:>4} {s:>16.6e} {g:>12.4g}")
        click.echo(f"estimated rank: {est.rank}")
        return
    _emit({"n": F.n, "m": F.m, "rank": est.rank, "rel_tol": rank_tol,
           "singular_values": [float(s) for s in sv],
           "gap_ratios": [float(g) for g in est.gap_ratios]})


def _approx_options(fn):
    for opt in reversed([
        click.option("--rank", type=int, default=None,
                     help="Target rank (default: estimate from the spectrum)."),
        click.option("--rank-tol", default=1e-6, show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--restarts", type=COUNT, default=0, show_default=True,
                     help="Extra random starts for the commutator minimization; "
                          "each runs the whole pipeline, and the smallest "
                          "error wins."),
        click.option("--max-iter", type=COUNT, default=None,
                     help="Iteration budget per least-squares minimization."),
        click.option("--max-fev", type=COUNT, default=None,
                     help="Residual-evaluation budget per minimization."),
    ]):
        fn = opt(fn)
    return fn


@main.command()
@INPUT
@_approx_options
@click.option("--coordinate-shuffle/--no-coordinate-shuffle", default=None,
              help="Force (or forbid) the random unitary change of "
                   "coordinates; default decides automatically.")
@click.option("--skip-refine", is_flag=True,
              help="Stop after the algebraic stage.")
@FORMAT
@TIMING
@_guarded
def approx(input, rank, rank_tol, seed, restarts, max_iter, max_fev,
           coordinate_shuffle, skip_refine, fmt, timing):
    """Low-rank approximation of a tensor; prints the refined
    decomposition, both errors, and diagnostics."""
    F = read_tensor(input)
    res = approximate(F, rank, rank_tol=rank_tol, seed=seed, restarts=restarts,
                      lm_config=_lm_config(max_iter, max_fev),
                      skip_refine=skip_refine,
                      coordinate_shuffle=coordinate_shuffle)
    diag = dict(res.diagnostics)
    if not timing:
        diag.pop("wall_time", None)
    if fmt == "table":
        click.echo(f"n={F.n} m={F.m} rank={diag['rank']}")
        click.echo(f"err-gp  = {res.err_gp:.6e}")
        click.echo(f"err-opt = {res.err_opt:.6e}")
        _echo_vectors(res.refined)
        return
    _emit({"n": F.n, "m": F.m, "rank": diag["rank"],
           "err_gp": res.err_gp, "err_opt": res.err_opt,
           "relative_residual": res.err_opt / (1.0 + F.norm()),
           "decomposition": decomposition_to_dict(res.refined),
           "diagnostics": diag})


@main.command()
@INPUT
@_approx_options
@click.option("--residual-tol", default=1e-6, show_default=True,
              help="Success threshold on err / (1 + ||F||).")
@click.option("--distinct", is_flag=True,
              help="Run every start that can differ; keep all distinct decompositions.")
@FORMAT
@TIMING
@_guarded
def decompose(input, rank, rank_tol, seed, restarts, max_iter, max_fev,
              residual_tol, distinct, fmt, timing):
    """Search for an exact rank-r decomposition; exits 1 when no start
    reaches the tolerance.  The JSON carries the search's diagnostics:
    rank, attempts, norm scale, per-start records and (--timing) wall time."""
    F = read_tensor(input)
    res = decompose_fn(F, rank, residual_tol=residual_tol, restarts=restarts,
                       seed=seed, distinct=distinct,
                       lm_config=_lm_config(max_iter, max_fev),
                       rank_tol=rank_tol)
    if not res.success:
        click.echo(f"no decomposition reached relative residual "
                   f"{residual_tol:.1e} (best: {res.relative_residual:.3e} "
                   f"over {res.attempts} starts)", err=True)
        sys.exit(1)
    if fmt == "table":
        for d in (res.decompositions if distinct else [res.decomposition]):
            click.echo(f"decomposition (rank {d.rank}):")
            _echo_vectors(d, indent="  ")
        return
    diag = {**res.diagnostics, "attempts": res.attempts}
    if not timing:
        diag.pop("wall_time")
    if distinct:
        _emit({"count": len(res.decompositions),
               "relative_residual": res.relative_residual,
               "decompositions": [decomposition_to_dict(d)
                                  for d in res.decompositions],
               "diagnostics": diag})
    else:
        _emit({**decomposition_to_dict(res.decomposition), "diagnostics": diag})


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--r", type=int, default=None, help="Rank (random family).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tau", type=float, default=None,
              help="Scale term i by tau^i (random family).")
@click.option("--eps", type=float, default=0.0, show_default=True,
              help="Perturb the instance to this noise norm.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write here instead of stdout.")
@_guarded
def gen(family, n, m, r, seed, tau, eps, output):
    """Emit a built-in tensor instance as JSON."""
    F = make_family(family, n=n, m=m, r=r, seed=seed, tau=tau)
    if eps:
        F = perturb(F, eps, seed=[seed, 99])
    text = dumps(_jsonable(tensor_to_dict(F)))
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.group()
def bench():
    """Batch experiments over random instances; --threads runs that many
    trials at once, each with single-threaded BLAS."""


def _numbers(text, kind):
    try:
        values = [kind(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        what = "integer" if kind is int else "number"
        raise ValueError(f"expected a comma-separated {what} list, got {text!r}")
    return values


def _bench_options(fn):
    for opt in reversed([
        click.option("--trials", type=POSITIVE, default=20, show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--threads", type=POSITIVE, default=1, show_default=True),
        click.option("--max-iter", type=COUNT, default=None),
        click.option("--max-fev", type=COUNT, default=None),
        FORMAT, TIMING,
    ]):
        fn = opt(fn)
    return fn


@bench.command("table")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--r", "ranks", default="3", show_default=True,
              help="Comma-separated list of ranks.")
@click.option("--eps", "epss", default="1e-2", show_default=True,
              help="Comma-separated list of noise norms.")
@click.option("--tau", type=float, default=None)
@_bench_options
@_guarded
def bench_table(n, m, ranks, epss, tau, trials, seed, threads, max_iter,
                max_fev, fmt, timing):
    """Error distribution of the pipeline on perturbed random instances."""
    cfg = _lm_config(max_iter, max_fev)
    stats = [benchmod.run_table(n, m, r, eps, trials, seed=seed, tau=tau,
                                threads=threads, lm_config=cfg)
             for r in _numbers(ranks, int) for eps in _numbers(epss, float)]
    _emit_bench(stats, benchmod.format_trial_table, fmt, timing)


@bench.command("nls")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--tau", type=float, default=None,
              help="Term scaling base; default 1000^(1/r).")
@click.option("--nls-restarts", type=POSITIVE, default=10, show_default=True)
@_bench_options
@_guarded
def bench_nls(n, m, r, eps, tau, nls_restarts, trials, seed, threads,
              max_iter, max_fev, fmt, timing):
    """Paired comparison against random-start nonlinear least squares."""
    cfg = _lm_config(max_iter, max_fev)
    st = benchmod.run_nls_comparison(n, m, r, eps, trials,
                                     nls_restarts=nls_restarts, seed=seed,
                                     tau=tau, threads=threads, lm_config=cfg)
    _emit_bench([st], benchmod.format_nls_table, fmt, timing, rows=False)


@bench.command("decomp")
@click.option("--cases", required=True,
              help="Semicolon-separated n,m,r triples, e.g. '6,3,4;4,5,10'.")
@click.option("--restarts", type=COUNT, default=0, show_default=True)
@click.option("--residual-tol", default=1e-6, show_default=True)
@_bench_options
@_guarded
def bench_decomp(cases, restarts, residual_tol, trials, seed, threads,
                 max_iter, max_fev, fmt, timing):
    """Decomposition success rates on exact-rank instances."""
    parsed = []
    for part in cases.split(";"):
        triple = _numbers(part, int)
        if len(triple) != 3:
            raise ValueError(f"expected n,m,r in {part!r}")
        parsed.append(tuple(triple))
    cfg = _lm_config(max_iter, max_fev)
    stats = benchmod.run_decomposition_table(
        parsed, trials=trials, seed=seed, restarts=restarts,
        residual_tol=residual_tol, threads=threads, lm_config=cfg)
    _emit_bench(stats, benchmod.format_decomp_table, fmt, timing)


if __name__ == "__main__":
    main()
