import numpy as np
import numpy.testing as npt
import pytest

from symlra.bench import (_order_stats, run_table, format_trial_table,
                          run_nls_comparison, format_nls_table,
                          run_decomposition_table, format_decomp_table,
                          BenchStats, STOCK_NLS_CONFIG, environment)


def test_order_stats_are_exact_order_statistics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    s = np.sort(x)
    # 1st, 5th, 10th, 15th and 20th values of 20
    assert _order_stats(x) == [s[0], s[4], s[9], s[14], s[19]]


def test_run_table_deterministic_and_thread_invariant():
    a = run_table(4, 3, 2, 1e-2, trials=4, seed=3)
    b = run_table(4, 3, 2, 1e-2, trials=4, seed=3)
    c = run_table(4, 3, 2, 1e-2, trials=4, seed=3)
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
    c = run_nls_comparison(4, 3, 2, 1e-2, trials=2, nls_restarts=2, seed=5)
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
    b = run_decomposition_table(4, 3, 2, trials=3, seed=7)
    npt.assert_array_equal(a.samples["residual"], b.samples["residual"])


@pytest.mark.parametrize("run, match", [
    (lambda: run_table(3, 3, 1, 1e-2, trials=0), "trials"),
    (lambda: run_nls_comparison(3, 3, 1, 1e-2, trials=0), "trials"),
    (lambda: run_nls_comparison(3, 3, 1, 1e-2, trials=1, nls_restarts=0),
     "nls_restarts"),
    (lambda: run_decomposition_table(3, 3, 2, trials=0), "trials"),
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


NAN, INF = float("nan"), float("inf")
TINY = 5e-324   # the smallest subnormal


@pytest.mark.parametrize("formatter, stats, text", [
    (format_trial_table, [
        BenchStats({"n": 4, "m": 3, "r": 2, "eps": 1e-2,
                    "err_gp": [0.125, 0.5, 1.0, 2.75, 1e300],
                    "err_opt": [TINY, 0.25, 0.75, 0.9, 1.0]},
                   {"mean_time": 0.0625}, {}),
        BenchStats({"n": 10, "m": 6, "r": 20, "eps": 0.0,
                    "err_gp": [NAN, INF, -INF, 123456.0, 1e-5],
                    "err_opt": [1e-13, 3.3e-12, NAN, 0.0, INF]},
                   {"mean_time": 123.456}, {})],
     "  n   m   r       eps     gp-min     gp-25%     gp-med     gp-75%     gp-max"
     "    opt-min    opt-med    opt-max     time\n"
     "  4   3   2   1.0e-02      0.125        0.5          1       2.75     1e+300"
     " 4.941e-324       0.75          1     0.06\n"
     " 10   6  20   0.0e+00        nan        inf       -inf  1.235e+05      1e-05"
     "      1e-13        nan        inf   123.46"),
    (format_nls_table, [
        BenchStats({"n": 10, "m": 3, "r": 12, "eps": 1e-4,
                    "ratio": [1.0, 1.5, 2.0, INF, 1e300]},
                   {}, {"gp_time": np.array([0.5, 1.5, 2.5]),
                        "nls_time": np.array([3.0, 4.0])}),
        BenchStats({"n": 3, "m": 3, "r": 1, "eps": 0.0,
                    "ratio": [TINY, NAN, 0.333333333, 7.0, -INF]},
                   {}, {"gp_time": np.array([0.001]),
                        "nls_time": np.array([NAN, 1.0])})],
     "  n   m   r       eps  ratio-min  ratio-25%  ratio-med  ratio-75%  ratio-max"
     "     t-gp    t-nls\n"
     " 10   3  12   1.0e-04          1        1.5          2        inf     1e+300"
     "     1.50     3.50\n"
     "  3   3   1   0.0e+00 4.941e-324        nan     0.3333          7       -inf"
     "     0.00      nan"),
    (format_decomp_table, [
        BenchStats({"n": 6, "m": 3, "r": 4, "trials": 40, "restarts": 0,
                    "successes": 39, "success_rate": 0.975},
                   {"mean_time": 0.0125}, {}),
        BenchStats({"n": 1234, "m": 5, "r": 8, "trials": 3, "restarts": 12,
                    "successes": 0, "success_rate": 0.0},
                   {"mean_time": INF}, {})],
     "  n   m   r  trials  restarts  success    rate     time\n"
     "  6   3   4      40         0       39    0.97     0.01\n"
     "1234   5   8       3        12        0    0.00      inf"),
], ids=["trial", "nls", "decomp"])
def test_text_tables_are_pinned(formatter, stats, text):
    # fixed rows, timings and samples, so every byte of the layout is
    # checked: non-finite, huge and subnormal values, and a cell wider
    # than its column, which widens its line rather than being cut
    assert formatter(stats) == text
