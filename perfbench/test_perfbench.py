"""Tests of the benchmark itself, on tiny instances of every workload's code
path.  Run with `python3 -m pytest perfbench`."""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import envinfo    # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402
from symlra import approximate, decompose, random_low_rank, perturb  # noqa: E402

pipeline = importlib.import_module("symlra.pipeline")


def test_hs_error_matches_library_norm():
    F0, d = random_low_rank(5, 4, 3, seed=1)
    F = perturb(F0, 1e-3, seed=2)
    assert workloads.hs_error(d.vectors, F) == pytest.approx((d.tensor() - F).norm(), rel=1e-9)
    assert workloads.hs_error(np.zeros((0, 5)), F) == pytest.approx(F.norm(), rel=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]
    runs = [wl.run(inst) for inst in wl.inputs(3, tiny=True)]
    assert all(rec["ok"] for _, _, rec in runs)
    assert all(wall > 0 and cpu >= 0 for wall, cpu, _ in runs)
    acc = wl.accuracy([rec for _, _, rec in runs])
    assert set(wl.accuracy_names) <= set(acc)


def test_inputs_depend_only_on_seed():
    a, b, c = (workloads.table_inputs(s, tiny=True)[0][0][0].values for s in (5, 5, 6))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_approx_check_rejects_wrong_outputs():
    F0, _ = random_low_rank(4, 3, 2, seed=0)
    F = perturb(F0, 1e-3, seed=1)
    res = approximate(F, 2, seed=0)
    assert workloads.check_approx(F, res)
    assert not workloads.check_approx(F, replace(res, err_opt=res.err_opt * 1.01))
    assert not workloads.check_approx(F, replace(res, err_gp=res.err_opt * 0.5))
    assert not workloads.check_approx(F, replace(res, err_opt=float("nan")))


def test_decompose_check_reverifies_success():
    F, _ = random_low_rank(3, 4, 5, seed=0)
    res = decompose(F, 5, restarts=1, seed=0)
    assert res.success and workloads.check_decompose(F, res)
    off = res.decomposition.vectors * 1.001
    fake = replace(res, decomposition=type(res.decomposition)(4, off))
    assert not workloads.check_decompose(F, fake)


def _tiny_results(name):
    wl = workloads.WORKLOADS[name]
    return [rec for _, _, rec in (wl.run(i) for i in wl.inputs(7, tiny=True))]


def test_tracing_changes_no_result_and_restores():
    original = pipeline.approximate
    plain = {name: _tiny_results(name) for name in workloads.WORKLOADS}
    tracer = tracing.Tracer().install()
    try:
        tracer.op = 0
        traced = {name: _tiny_results(name) for name in workloads.WORKLOADS}
    finally:
        tracer.restore()
    assert pipeline.approximate is original
    assert tracer.missing == []
    for name in plain:
        for a, b in zip(plain[name], traced[name]):
            assert {k: v for k, v in a.items() if not k.endswith("_s")} == \
                   {k: v for k, v in b.items() if not k.endswith("_s")}
    names = {s[0] for s in tracer.spans}
    assert {"pipeline.approx", "pipeline.decompose", "genfit.gather", "genfit.lm",
            "genfit.lm.jacobian", "pipeline.lm.residual", "catalecticant.spectrum",
            "pipeline.lstsq"} <= names
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["genfit.lm.runs"] > 0 and 0 < layers["pipeline.refine.accept_ratio"] <= 1


def test_layer_metrics_self_time_and_counts():
    spans = [
        ["pipeline.approx", 0.0, 10.0, -1, 0, {"shuffle": 1}],
        ["genfit.fit", 1.0, 4.0, 0, 0, None],
        ["genfit.gather", 1.0, 2.0, 1, 0, None],
        ["pipeline.refine", 5.0, 9.0, 0, 0, None],
        ["pipeline.lm", 5.0, 9.0, 3, 0,
         {"iterations": 3, "evaluations": 5, "trials": 4, "accepted": 3, "dim": 8}],
        ["pipeline.lm.residual", 5.0, 6.0, 4, 0, None],
        ["pipeline.lm.jacobian", 6.0, 8.0, 4, 0, None],
        ["tensors.table", 0.0, 0.5, -1, None, None],
    ]
    m = tracing.layer_metrics(spans, 2)
    assert m["pipeline.approx.self.s"] == pytest.approx(3.0 / 2)
    assert m["genfit.fit.s"] == pytest.approx(1.5) and m["genfit.gather.calls"] == 0.5
    assert m["pipeline.refine.solve.s"] == pytest.approx(0.5)
    assert m["pipeline.refine.accept_ratio"] == 0.75 and m["pipeline.refine.dim"] == 8
    assert m["pipeline.shuffle"] == 0.5 and m["tensors.table.s"] == 0.5


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reasons = json.loads((HERE / "reasons.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS) \
        == set(reasons["workloads"])
    assert per_layer == set(reasons["per_layer"])
    assert per_layer == set(tracing.layer_metrics([], 1)) | {"trace.overhead.s"}
    assert {m["name"] for m in spec["end_to_end"]} <= set(reasons["end_to_end"])


def test_openblas_thread_counts_are_read():
    import scipy.linalg  # noqa: F401
    threads = envinfo.openblas_threads()
    assert threads and all(isinstance(v, int) and v >= 1 for v in threads.values())


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table-small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
