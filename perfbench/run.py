"""symlra benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/reasons.json) as a
closed loop with one client: each operation is a direct call into the
library, started when the previous one has returned.  Workloads run one
at a time, each in fresh child processes started without the BLAS
thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS), so the library's own thread policy applies.

--trace 0: six set-up-only children, then a child that runs operations
for S seconds.  setup_s is the median of the seven set-up times.
--trace 1: a traced child runs operations for S seconds, then an
untraced child runs the same operations.  Their accuracy metrics must
agree bit for bit; trace.overhead.s is the difference of their op_s.p50.

Every operation's output is checked.  The report goes to standard output,
ending in one JSON line with the metrics BENCHMARK.json lists for the
mode; the full record, environment included, goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json, and the traced run's
spans beside it.  Exits 1 when an output check fails or the traced run
changes a result, and 2 when the checkout holds no library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0   # the whole invocation must end within 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(deadline, **spec):
    """Run child.py with `spec` and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    spec = {"root": str(ROOT), "mode": "run", "seconds": None, "max_ops": None,
            "trace": False, "spans_path": None, **spec,
            "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded the time limit ({spec['mode']})") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline):
    """End-to-end metrics (untraced)."""
    setups = [spawn(deadline, workload=args.workload, seed=args.seed, mode="setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = spawn(deadline, workload=args.workload, seed=args.seed, seconds=args.seconds)
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = (statistics.median(setups), "s")
    res["setup_samples"] = setups
    return res


def measure_traced(args, deadline):
    """Per-layer metrics from a traced run, checked against an untraced
    run of the same operations."""
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    traced = spawn(deadline, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=True, spans_path=str(spans))
    plain = spawn(deadline, workload=args.workload, seed=args.seed, max_ops=traced["ops"])
    same = traced["accuracy"] == plain["accuracy"]
    overhead = traced["metrics"]["op_s.p50"][0] - plain["metrics"]["op_s.p50"][0]
    traced["layers"]["trace.overhead.s"] = overhead
    traced["untraced"] = {"accuracy": plain["accuracy"], "metrics": plain["metrics"],
                          "failed": plain["failed"]}
    traced["accuracy_identical"] = same and plain["failed"] == 0
    traced["spans_file"] = spans.name
    return traced


def report(args, res, wanted):
    env = res["env"]
    print(f"symlra benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, openblas threads {env['openblas_threads']}, "
          f"commit {env['git_commit']}")
    print(f"operations: {res['ops']} attempted, {res['failed']} failed, "
          f"{res['elapsed_s']:.3f} s timed")
    for err in res["errors"]:
        print(f"  error: {err}")
    for name, (value, unit) in sorted(res["metrics"].items()):
        print(f"  {name:<16} {value:.6g} {unit}")
    if "op_s.p90" not in res["metrics"]:
        print(f"  op_s.p90 not reported: {res['ops']} operations, fewer than 100")
    identical = res.get("accuracy_identical", True)
    if args.trace:
        print(f"traced vs untraced accuracy: {'identical' if identical else 'DIFFERENT'} "
              f"({res['untraced']['accuracy']})")
        for name, value in sorted(res["layers"].items()):
            print(f"  {name:<32} {value:.6g}")
        if res["unpatched"]:
            print(f"  not traced (missing in the library): {res['unpatched']}")
    source = res["layers"] if args.trace else {k: v for k, (v, _) in res["metrics"].items()}
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and identical
    print(json.dumps({"correct": correct, "attempted": res["ops"],
                      "failed": res["failed"], "metrics": metrics}))
    return correct


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # reasons.json lists every workload, BENCHMARK.json the ones it gates
    known = json.loads((HERE / "reasons.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(known))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symlra" / "__init__.py").is_file():
        print(f"no symlra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        res = (measure_traced if args.trace else measure)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return 0 if report(args, res, wanted) else 1


if __name__ == "__main__":
    sys.exit(main())
