"""Cost of one Levenberg-Marquardt iteration, split by closure.

    python3 tools/lmcost.py [--root DIR] [--seed N]

Runs 20 decomposition-search rounds on one BLAS thread, importing symlra
from DIR/src only (default: this checkout).  A round calls `decompose`
once on each of four exact random instances, seeded by (N, case, round):
(6,3,4), (4,5,10) and (3,4,5) with 0, 0 and 5 restarts, and (3,5,8) in
distinct mode with 5 restarts, the cases of the benchmark's
decomp-search workload.  One round with another seed runs first and is
not counted, so tables and caches are warm.

The tool wraps the `residual` and `normal` closures that the commutator
LM (`optimize_generating`) and `refine` pass to `levenberg_marquardt`
and times every call.  For each case and each LM it prints the runs,
iterations, residual evaluations and normal systems, and the cost per
normal system in microseconds: the residual's time, the normal system's
time and the loop's own share (the LM's wall time less both), summed
over the runs and divided by the normal systems.  The 20 rounds run 3
times, and each line shows the pass whose LM wall time was least, as
other load on the machine only adds time; the counts are the same in
every pass.  The timers add about a microsecond per closure call, which
lands in the loop's share.
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import import_symlra  # noqa: E402  (sets one BLAS thread first)

ROOT = Path(__file__).resolve().parents[1]
# (n, m, r, restarts, distinct), as decomp-search runs them
CASES = [(6, 3, 4, 0, False), (4, 5, 10, 0, False), (3, 4, 5, 5, False), (3, 5, 8, 5, True)]
LMS = [("genfit", "commutator"), ("pipeline", "refine")]
ROUNDS = 20     # counted rounds per pass
REPEAT = 3      # passes; each line shows the least LM wall time
FIELDS = ("runs", "iterations", "evaluations", "normals", "lm_s", "residual_s", "normal_s")


def timed_lm(lm, totals):
    """`lm` with its closures timed, adding to the `totals` counters."""
    def timed(fn, key, count=None):
        def wrapped(*args):
            if count:
                totals[count] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                totals[key] += time.perf_counter() - t0
        return wrapped

    def run(residual, normal, *rest, **kwargs):
        t0 = time.perf_counter()
        out = lm(timed(residual, "residual_s"), timed(normal, "normal_s", "normals"),
                 *rest, **kwargs)
        totals["lm_s"] += time.perf_counter() - t0
        totals["runs"] += 1
        totals["iterations"] += out.iterations
        totals["evaluations"] += out.residual_evaluations
        return out
    return run


def measure(symlra, seed, rounds):
    """{(case, LM name): totals} over `rounds` counted rounds."""
    from symlra import genfit, pipeline
    modules = {"genfit": genfit, "pipeline": pipeline}
    original = {mod: modules[mod].levenberg_marquardt for mod, _ in LMS}
    results = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    sink = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    try:
        for i in range(-1, rounds):
            for c, (n, m, r, restarts, distinct) in enumerate(CASES):
                case = f"({n},{m},{r})"
                for mod, name in LMS:
                    totals = results[case, name] if i >= 0 else sink[case, name]
                    modules[mod].levenberg_marquardt = timed_lm(original[mod], totals)
                key = [seed, c, i, 0] if i >= 0 else [seed + 1, c, 0, 0]
                F = symlra.random_low_rank(n, m, r, seed=key)[0]
                symlra.decompose(F, r, residual_tol=1e-6, restarts=restarts,
                                 seed=key[:3] + [1], distinct=distinct)
    finally:
        for mod, _ in LMS:
            modules[mod].levenberg_marquardt = original[mod]
    return dict(results)


def report(results):
    head = (f"{'case':<10} {'lm':<10} {'runs':>5} {'iters':>6} {'evals':>6} "
            f"{'normals':>7}   us/normal: {'residual':>8} {'normal':>7} {'loop':>7} {'total':>7}")
    lines = [head]
    for (case, name), t in results.items():
        if not t["normals"]:
            lines.append(f"{case:<10} {name:<10} {t['runs']:>5} {t['iterations']:>6} "
                         f"{t['evaluations']:>6} {0:>7}")
            continue
        per = 1e6 / t["normals"]
        res, nor = t["residual_s"] * per, t["normal_s"] * per
        loop = t["lm_s"] * per - res - nor
        lines.append(f"{case:<10} {name:<10} {t['runs']:>5} {t['iterations']:>6} "
                     f"{t['evaluations']:>6} {t['normals']:>7}   {'':>10} "
                     f"{res:>8.1f} {nor:>7.1f} {loop:>7.1f} {res + nor + loop:>7.1f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(ROOT), help="checkout whose src/symlra to run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    symlra = import_symlra(args.root)
    passes = [measure(symlra, args.seed, ROUNDS) for _ in range(REPEAT)]
    print(report({key: min((p[key] for p in passes), key=lambda t: t["lm_s"])
                  for key in passes[0]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
