"""One benchmark process: set up a workload, run its closed loop, report.

Started by run.py as `python3 child.py SPEC`, where SPEC is a JSON object:
  root        checkout root; the library is imported from root/src
  workload    workload name
  seed        input seed
  spawned_at  time.monotonic() when the parent started this process
  mode        "setup": set up, report set-up time, exit;
              "run": set up, then run operations
  seconds     run operations until this much time has passed (or None)
  max_ops     stop after this many operations (or None)
  trace       install the tracer and report per-layer metrics
  spans_path  where the traced run writes its spans
Prints one JSON object as its last line of standard output.
"""

import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main(spec):
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS for the record)
    import symlra
    if not Path(symlra.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"symlra imported from {symlra.__file__}, not from the checkout")

    import envinfo
    import tracing
    import workloads

    # library warnings (repeated Schur values, complex output) are counted by
    # the traced run; printing them only slows the loop
    warnings.simplefilter("ignore")
    tracer = tracing.Tracer().install() if spec["trace"] else None
    wl = workloads.WORKLOADS[spec["workload"]]
    instances = wl.inputs(spec["seed"])
    for inst in wl.inputs(spec["seed"], tiny=True):   # warm-up, same code path
        wl.run(inst)
    setup_s = time.monotonic() - spec["spawned_at"]
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    op_s, cpu_s, records = [], [], []
    start = time.perf_counter()
    while True:
        k = len(records)
        if tracer is not None:
            tracer.op = k
        try:
            wall, cpu, rec = wl.run(instances[k % len(instances)])
        except Exception as exc:   # counted as a failed operation
            wall, cpu, rec = 0.0, 0.0, {"ok": False, "error": repr(exc)}
        op_s.append(wall)
        cpu_s.append(cpu)
        records.append(rec)
        if spec["max_ops"] is not None and len(records) >= spec["max_ops"]:
            break
        if spec["seconds"] is not None and time.perf_counter() - start >= spec["seconds"]:
            break
    elapsed = time.perf_counter() - start

    good = [rec for rec in records if rec["ok"]]
    ok_times = [t for t, rec in zip(op_s, records) if rec["ok"]]
    n = len(records)
    metrics = {
        "op_s.p50": (float(np.median(ok_times)) if ok_times else float("nan"), "s"),
        # library time only: the output checks between operations are excluded
        "ops_per_s": (len(good) / sum(op_s) if good else 0.0, "1/s"),
        "cpu_per_op_s": (float(np.median(cpu_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_rate": ((n - len(good)) / n, "ratio"),
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(ok_times) >= 100:
        metrics["op_s.p90"] = (float(np.quantile(ok_times, 0.9)), "s")
    if good:
        metrics.update(wl.accuracy(good))
    out = {
        "setup_s": setup_s,
        "ops": n,
        "failed": n - len(good),
        "errors": sorted({rec["error"] for rec in records if "error" in rec}),
        "elapsed_s": elapsed,
        "op_s": op_s,
        "cpu_s": cpu_s,
        "metrics": metrics,
        "accuracy": {k: metrics[k][0] for k in wl.accuracy_names if k in metrics},
        "env": envinfo.record(root),
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(spec["spans_path"])
        out["layers"] = tracing.layer_metrics(tracer.spans, n)
        out["unpatched"] = tracer.missing
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
