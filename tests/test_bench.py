import numpy as np
import numpy.testing as npt
import pytest

from symlra.bench import (_order_stats, run_table, format_trial_table,
                          run_nls_comparison, format_nls_table,
                          run_decomposition_table, format_decomp_table,
                          STOCK_NLS_CONFIG, environment)


def test_order_stats_are_exact_order_statistics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    s = np.sort(x)
    # 1st, 5th, 10th, 15th and 20th values of 20
    assert _order_stats(x) == [s[0], s[4], s[9], s[14], s[19]]


def test_run_table_deterministic_and_thread_invariant():
    a = run_table(4, 3, 2, 1e-2, trials=4, seed=3)
    b = run_table(4, 3, 2, 1e-2, trials=4, seed=3)
    c = run_table(4, 3, 2, 1e-2, trials=4, seed=3, threads=3)
    npt.assert_array_equal(a.samples["err_gp"], b.samples["err_gp"])
    npt.assert_array_equal(a.samples["err_opt"], b.samples["err_opt"])
    npt.assert_array_equal(a.samples["err_opt"], c.samples["err_opt"])
    assert not np.array_equal(
        a.samples["err_opt"],
        run_table(4, 3, 2, 1e-2, trials=4, seed=4).samples["err_opt"])


def test_run_table_relative_errors():
    st = run_table(4, 3, 2, 1e-2, trials=4, seed=0)
    assert st.row["relative"]
    # refined error cannot beat the noise floor by much, nor exceed it
    assert np.all(st.samples["err_opt"] <= 1.05)
    assert np.all(st.samples["err_opt"] > 1e-4)


def test_run_table_eps_zero_absolute():
    st = run_table(4, 3, 2, 0.0, trials=3, seed=1)
    assert not st.row["relative"]
    assert np.all(st.samples["err_opt"] <= 1e-10)  # exact instances, absolute errors


def test_trial_stats_serialization():
    st = run_table(4, 3, 2, 1e-2, trials=3, seed=2)
    d = st.to_dict()
    assert "mean_time" not in d
    assert len(d["err_opt"]) == 5
    assert "mean_time" in st.to_dict(include_timing=True)
    table = format_trial_table([st])
    assert table.splitlines()[0].lstrip().startswith("n")
    assert len(table.splitlines()) == 2


def test_nls_comparison_paired_and_deterministic():
    a = run_nls_comparison(4, 3, 2, 1e-2, trials=2, nls_restarts=2, seed=5)
    b = run_nls_comparison(4, 3, 2, 1e-2, trials=2, nls_restarts=2, seed=5)
    c = run_nls_comparison(4, 3, 2, 1e-2, trials=2, nls_restarts=2, seed=5,
                           threads=2)
    for other in (b, c):
        for name in ("ratio", "err_opt", "err_nls"):
            npt.assert_array_equal(a.samples[name], other.samples[name])
    assert a.row["tau"] == 1000.0 ** 0.5
    assert np.all(a.samples["ratio"] > 0)
    assert np.all(np.isfinite(a.samples["ratio"]))
    # the pipeline leg lands at the noise floor on these easy instances
    assert np.all(a.samples["err_opt"] <= 1.05)
    text = format_nls_table([a])
    assert "ratio-med" in text.splitlines()[0]


def test_stock_nls_config_is_a_bounded_budget():
    assert STOCK_NLS_CONFIG.max_iterations == 400
    assert STOCK_NLS_CONFIG.function_tolerance > 0


def test_decomposition_table():
    st = run_decomposition_table(4, 3, 2, trials=3, seed=0)
    assert (st.row["n"], st.row["m"], st.row["r"]) == (4, 3, 2)
    assert st.row["successes"] == 3
    assert st.row["success_rate"] == 1.0
    assert np.all(st.samples["residual"] <= 1e-6)
    d = st.to_dict()
    assert d["success_rate"] == 1.0 and "mean_time" not in d
    assert "rate" in format_decomp_table([st]).splitlines()[0]


def test_decomposition_table_deterministic():
    a = run_decomposition_table(4, 3, 2, trials=3, seed=7)
    b = run_decomposition_table(4, 3, 2, trials=3, seed=7, threads=2)
    npt.assert_array_equal(a.samples["residual"], b.samples["residual"])


def test_decomposition_table_threads_match_serial_bytes():
    # cases with free parameters, so trials on two threads run commutator
    # LMs at the same time; each LM run keeps its buffers to itself
    cases = [(3, 5, 8), (3, 4, 5)]
    for case in cases:
        a = run_decomposition_table(*case, trials=4, seed=11, restarts=2)
        b = run_decomposition_table(*case, trials=4, seed=11, restarts=2, threads=2)
        assert a.row == b.row
        for name in ("success", "residual"):
            assert a.samples[name].tobytes() == b.samples[name].tobytes()


@pytest.mark.parametrize("run, match", [
    (lambda: run_table(3, 3, 1, 1e-2, trials=0), "trials"),
    (lambda: run_nls_comparison(3, 3, 1, 1e-2, trials=0), "trials"),
    (lambda: run_nls_comparison(3, 3, 1, 1e-2, trials=1, nls_restarts=0),
     "nls_restarts"),
    (lambda: run_decomposition_table(3, 3, 2, trials=0), "trials"),
    (lambda: run_table(3, 3, 1, 1e-2, trials=1, threads=0), "threads"),
    (lambda: run_nls_comparison(3, 3, 1, 1e-2, trials=1, threads=-4), "threads"),
    (lambda: run_decomposition_table(3, 3, 2, trials=1, threads=-4), "threads"),
    (lambda: run_table(3, 3, 1, 1e-2, trials=1, tau=-1.0), "tau must be positive"),
])
def test_counts_below_one_raise(run, match):
    with pytest.raises(ValueError, match=match):
        run()


def test_environment_record():
    env = environment()
    assert set(env) == {"blas_threads", "nproc", "numpy", "scipy"}
    assert env["nproc"] >= 1
    assert all(n == 1 for n in env["blas_threads"].values())
    assert env["numpy"] == np.__version__
