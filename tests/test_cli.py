"""End-to-end tests of the command-line interface.

Everything runs through click's CliRunner, except inputs too large to
run in-process, which go through a child process with a timeout; files go
through tmp_path so the `gen --output` / positional-input plumbing is
exercised for real.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import symlra
from symlra.cli import main
from symlra.families import make_family, sin_tensor
from symlra.jsonio import dumps, tensor_to_dict


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, ok=True):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    if ok:
        assert result.exit_code == 0, result.output
    return result


def assert_input_error(result):
    # exit 2 with exactly one `error:` line and no traceback
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result.output


def gen_file(runner, tmp_path, name, *args):
    path = tmp_path / name
    invoke(runner, "gen", *args, "--output", str(path))
    return str(path)


# ---------------------------------------------------------------- gen

def test_gen_emits_valid_tensor_json(runner):
    result = invoke(runner, "gen", "--family", "sin")
    doc = json.loads(result.output)
    assert doc["format"] == "compact"
    assert (doc["n"], doc["m"]) == (6, 3)


def test_gen_output_file_matches_stdout(runner, tmp_path):
    stdout = invoke(runner, "gen", "--family", "ternary").output
    path = gen_file(runner, tmp_path, "t.json", "--family", "ternary")
    with open(path) as fh:
        assert fh.read() == stdout


def test_gen_unknown_family_is_a_usage_error(runner):
    result = runner.invoke(main, ["gen", "--family", "nope"])
    assert result.exit_code == 2


def test_make_family_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        make_family("bogus")


def test_gen_random_requires_rank(runner):
    result = runner.invoke(main, ["gen", "--family", "random", "--n", "3",
                                  "--m", "3"])
    assert result.exit_code == 2
    assert "--r" in result.output


def test_gen_fixed_family_rejects_other_sizes(runner):
    result = runner.invoke(main, ["gen", "--family", "ternary", "--n", "4"])
    assert result.exit_code == 2


def test_gen_eps_perturbs_off_the_clean_instance(runner):
    clean = json.loads(invoke(runner, "gen", "--family", "sin").output)
    noisy = json.loads(invoke(runner, "gen", "--family", "sin",
                              "--eps", "1e-3").output)
    assert clean["entries"] != noisy["entries"]


@pytest.mark.parametrize("args", [
    ("--family", "sin"),
    ("--family", "rootsum"),
    ("--family", "linear"),
    ("--family", "ternary"),
    ("--family", "octet"),
    ("--family", "random", "--n", "4", "--m", "3", "--r", "2"),
])
def test_gen_round_trips_into_rankest(runner, tmp_path, args):
    path = tmp_path / "f.json"
    invoke(runner, "gen", *args, "--output", str(path))
    result = invoke(runner, "rankest", str(path))
    doc = json.loads(result.output)
    assert doc["rank"] >= 1
    assert doc["singular_values"] == sorted(doc["singular_values"],
                                            reverse=True)


# ------------------------------------------------------------ rankest

def test_rankest_sin_is_rank_two(runner, tmp_path):
    path = tmp_path / "sin.json"
    invoke(runner, "gen", "--family", "sin", "--output", str(path))
    doc = json.loads(invoke(runner, "rankest", str(path)).output)
    assert doc["rank"] == 2
    assert doc["singular_values"][2] < 1e-10


def test_rankest_table_format(runner, tmp_path):
    path = tmp_path / "sin.json"
    invoke(runner, "gen", "--family", "sin", "--output", str(path))
    result = invoke(runner, "rankest", str(path), "--format", "table")
    assert "estimated rank: 2" in result.output
    assert "singular value" in result.output


def test_rankest_missing_file_exits_2(runner):
    result = runner.invoke(main, ["rankest", "no-such-file.json"])
    assert result.exit_code == 2


def test_rankest_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json {")
    result = runner.invoke(main, ["rankest", str(path)])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_rankest_wrong_schema_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "symmetric-compact", "n": 2}))
    result = runner.invoke(main, ["rankest", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("entries", [[5], ["alpha"], [{"alpha": [[1]]}],
                                     [{"alpha": [1], "re": True}]])
def test_rankest_malformed_entries_exit_2(runner, tmp_path, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "entries": entries}))
    assert_input_error(runner.invoke(main, ["rankest", str(path)]))


# a child process under a 2 GiB address-space limit, so that a layout the
# CLI fails to reject stops at the timeout or a failed allocation, never by
# exhausting the machine's memory
CHILD = ("import resource; "
         "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
         "from symlra.cli import main; main()")


@pytest.mark.parametrize("args", [
    ["rankest", {"n": 200, "m": 200, "entries": []}],
    ["rankest", {"n": 30, "m": 10, "entries": []}],
    ["rankest", {"n": 10, "m": 10, "format": "full", "entries": []}],
    ["gen", "--family", "sin", "--n", "30", "--m", "10"],
])
def test_oversized_layout_exits_2(tmp_path, args):
    if isinstance(args[-1], dict):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(args[-1]))
        args = args[:-1] + [str(path)]
    src = str(Path(symlra.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert [line[:6] for line in proc.stderr.splitlines()] == ["error:"]
    assert "more than 1048576" in proc.stderr


@pytest.mark.parametrize("m", [40, 80])
def test_shuffle_of_a_long_binary_form_stays_compact(runner, tmp_path, m):
    # 2^m dense entries (2^40 int64 positions, or more than numpy's 64
    # axes) for m + 1 compact ones: the shuffle never expands F
    path = gen_file(runner, tmp_path, "sin.json", "--family", "sin",
                    "--n", "2", "--m", str(m))
    src = str(Path(symlra.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, "approx", path, "--rank", "2",
                           "--coordinate-shuffle"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["diagnostics"]["coordinate_shuffle"]
    assert doc["relative_residual"] < 1e-8


@pytest.mark.parametrize("doc", [{"n": 2, "m": 1100, "entries": []},
                                 {"n": 3, "m": 700, "entries": []}])
def test_weights_beyond_float_range_exit_2(runner, tmp_path, doc):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rankest", str(path)])
    assert_input_error(result)
    assert "float range" in result.output


@pytest.mark.parametrize("args", [
    ("--family", f, flag, "0") for f in ("sin", "rootsum", "linear", "ternary", "octet")
    for flag in ("--n", "--m")
] + [("--family", "random", "--n", "0", "--m", "3", "--r", "2"),
     ("--family", "random", "--n", "3", "--m", "0", "--r", "2")])
def test_gen_zero_size_exits_2(runner, args):
    assert_input_error(runner.invoke(main, ["gen", *args]))


@pytest.mark.parametrize("args", [
    ["rankest", "--rank-tol", "nan"],
    ["rankest", "--rank-tol", "-1"],
    ["approx", "--rank-tol", "-1"],
    ["approx", "--rank-tol", "nan"],
    ["decompose", "--rank-tol", "-1"],
    ["decompose", "--rank", "2", "--residual-tol", "-1"],
    ["decompose", "--rank", "2", "--residual-tol", "nan"],
    ["approx", "--rank", "2", "--rank-tol", "nan"],
    ["approx", "--rank", "2", "--rank-tol", "-1"],
    ["decompose", "--rank", "2", "--rank-tol", "nan"],
    ["decompose", "--rank", "2", "--rank-tol", "-1"],
])
def test_bad_tolerances_exit_2(runner, tmp_path, args):
    path = gen_file(runner, tmp_path, "t.json", "--family", "sin")
    assert_input_error(runner.invoke(main, [*args, path]))


# -------------------------------------------------------------- approx

@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_approx_sin_reaches_machine_precision(runner, tmp_path):
    path = tmp_path / "sin.json"
    invoke(runner, "gen", "--family", "sin", "--output", str(path))
    doc = json.loads(invoke(runner, "approx", str(path)).output)
    assert doc["rank"] == 2
    assert doc["err_opt"] <= doc["err_gp"] + 1e-12
    assert doc["err_opt"] < 1e-8
    assert len(doc["decomposition"]["vectors"]) == 2
    assert "wall_time" not in doc["diagnostics"]


def test_approx_output_is_byte_identical_across_runs(runner, tmp_path):
    path = tmp_path / "r.json"
    invoke(runner, "gen", "--family", "random", "--n", "5", "--m", "3",
           "--r", "2", "--eps", "1e-4", "--output", str(path))
    first = invoke(runner, "approx", str(path), "--restarts", "2").output
    second = invoke(runner, "approx", str(path), "--restarts", "2").output
    assert first == second


@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_approx_timing_flag_adds_wall_time(runner, tmp_path):
    path = tmp_path / "sin.json"
    invoke(runner, "gen", "--family", "sin", "--output", str(path))
    doc = json.loads(invoke(runner, "approx", str(path), "--timing").output)
    assert doc["diagnostics"]["wall_time"] > 0


@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_approx_skip_refine_and_rank_flag(runner, tmp_path):
    path = tmp_path / "root.json"
    invoke(runner, "gen", "--family", "rootsum", "--output", str(path))
    doc = json.loads(invoke(runner, "approx", str(path), "--rank", "2",
                            "--skip-refine").output)
    assert doc["rank"] == 2
    assert doc["err_opt"] == doc["err_gp"]


def test_approx_library_warning_goes_to_stderr(runner, tmp_path):
    path = gen_file(runner, tmp_path, "sin.json", "--family", "sin")
    result = invoke(runner, "approx", path, "--rank", "2")
    assert "warning: input tensor is real" in result.stderr
    assert "click" not in result.stderr
    assert json.loads(result.stdout)["rank"] == 2


def test_approx_without_commutator_pairs_leaves_stderr_empty(runner, tmp_path, capfd):
    # n = 2 at rank 4: one free parameter and no variable pair, so the
    # commutator Jacobian has no rows, which BLAS zherk would report on fd 2
    path = gen_file(runner, tmp_path, "binary.json", "--family", "random", "--n", "2",
                    "--m", "6", "--r", "4", "--eps", "1e-4")
    result = invoke(runner, "approx", path, "--rank", "4")
    assert result.stderr == ""
    assert json.loads(result.stdout)["rank"] == 4
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_approx_table_format(runner, tmp_path):
    path = tmp_path / "sin.json"
    invoke(runner, "gen", "--family", "sin", "--output", str(path))
    result = invoke(runner, "approx", str(path), "--format", "table")
    assert "err-gp" in result.output and "err-opt" in result.output
    assert "u[0]" in result.output


# ----------------------------------------------------------- decompose

@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_decompose_ternary_succeeds(runner, tmp_path):
    # the 3x6 flattening caps the estimate at 3, so rank 4 must be explicit
    path = tmp_path / "ternary.json"
    invoke(runner, "gen", "--family", "ternary", "--output", str(path))
    doc = json.loads(invoke(runner, "decompose", str(path),
                            "--rank", "4").output)
    assert doc["rank"] == 4
    assert len(doc["vectors"]) == 4


def test_decompose_failure_exits_1(runner, tmp_path):
    path = tmp_path / "r.json"
    invoke(runner, "gen", "--family", "random", "--n", "4", "--m", "3",
           "--r", "3", "--output", str(path))
    result = runner.invoke(main, ["decompose", str(path), "--rank", "1"])
    assert result.exit_code == 1
    assert "no decomposition" in result.output


@pytest.mark.parametrize("mode", [[], ["--distinct"]])
def test_decompose_table_format(runner, tmp_path, mode):
    path = gen_file(runner, tmp_path, "sin.json", "--family", "sin")
    lines = invoke(runner, "decompose", path, "--rank", "2", "--format", "table",
                   *mode).stdout.splitlines()
    assert lines[0] == "decomposition (rank 2):"
    assert [line.split(" = ")[0] for line in lines[1:]] == ["  u[0]", "  u[1]"]


@pytest.mark.parametrize("command", ["approx", "decompose"])
def test_numerical_breakdown_exits_1(runner, tmp_path, command):
    # the LM overflows on a tensor scaled by 1e200: a numerical failure,
    # not an input error
    path = tmp_path / "big.json"
    path.write_text(dumps(tensor_to_dict(sin_tensor() * 1e200)))
    result = runner.invoke(main, [command, str(path), "--rank", "2"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: the normal system is not finite" in result.stderr
    assert "error:" not in result.stderr and "Traceback" not in result.output
    # numpy's overflow RuntimeWarnings are not the library's warnings
    assert "warning:" not in result.stderr


@pytest.mark.parametrize("mode", [[], ["--distinct"]])
def test_decompose_diagnostics_byte_identical(runner, tmp_path, mode):
    path = gen_file(runner, tmp_path, "r.json", "--family", "random", "--n", "3",
                    "--m", "4", "--r", "5", "--seed", "3")
    args = ["decompose", path, "--rank", "5", "--restarts", "2", *mode]
    first = invoke(runner, *args).output
    assert invoke(runner, *args).output == first
    diag = json.loads(first)["diagnostics"]
    assert set(diag) == {"rank", "attempts", "norm_scale", "starts"}
    assert diag["rank"] == 5
    assert len(diag["starts"]) == diag["attempts"] >= 1
    assert any(start["success"] for start in diag["starts"])
    assert diag["norm_scale"] > 1.0


@pytest.mark.parametrize("mode", [[], ["--distinct"]])
def test_decompose_timing_flag_adds_wall_time(runner, tmp_path, mode):
    path = gen_file(runner, tmp_path, "r.json", "--family", "random", "--n", "3",
                    "--m", "4", "--r", "5", "--seed", "3")
    args = ["decompose", path, "--rank", "5", "--restarts", "2", *mode]
    plain = json.loads(invoke(runner, *args).output)
    timed = json.loads(invoke(runner, *args, "--timing").output)
    wall = timed["diagnostics"].pop("wall_time")
    assert isinstance(wall, float) and wall >= 0
    # the flag adds the wall time and changes nothing else
    assert timed == plain


@pytest.mark.filterwarnings("ignore:input tensor is real")
def test_decompose_distinct_octet(runner, tmp_path):
    path = tmp_path / "octet.json"
    invoke(runner, "gen", "--family", "octet", "--output", str(path))
    doc = json.loads(invoke(runner, "decompose", str(path), "--distinct",
                            "--restarts", "5").output)
    assert doc["count"] >= 2
    assert doc["relative_residual"] <= 1e-6
    assert all(len(d["vectors"]) == 8 for d in doc["decompositions"])


# --------------------------------------------------------------- bench

def test_bench_table_json_and_table(runner):
    args = ["bench", "table", "--n", "3", "--m", "3", "--r", "1",
            "--eps", "1e-2", "--trials", "2"]
    doc = json.loads(invoke(runner, *args).output)
    row = doc["rows"][0]
    assert (row["n"], row["m"], row["r"]) == (3, 3, 1)
    assert row["trials"] == 2
    assert len(row["err_opt"]) == len(row["quantiles"]) == 5
    assert "mean_time" not in row
    timed = json.loads(invoke(runner, *args, "--timing").output)
    assert timed["rows"][0]["mean_time"] >= 0
    text = invoke(runner, *args, "--format", "table").output
    assert "gp-med" in text and "opt-med" in text


def test_bench_table_bad_eps_list_exits_2(runner):
    # a malformed or empty number list, or an eps no perturbation can have
    for args, message in [(["--eps", "1e-2,zap"], "comma-separated"),
                          (["--r", ""], "comma-separated"),
                          (["--r", ","], "comma-separated"),
                          (["--eps", "nan"], "eps must be finite"),
                          (["--eps", "inf"], "eps must be finite")]:
        result = runner.invoke(main, ["bench", "table", "--n", "3", "--m", "3",
                                      "--r", "1", "--trials", "1", *args])
        assert result.exit_code == 2, args
        assert message in result.output, args


def test_bench_table_nonpositive_tau_exits_2(runner):
    result = runner.invoke(main, ["bench", "table", "--n", "3", "--m", "3",
                                  "--r", "1", "--trials", "1", "--tau", "-1"])
    assert result.exit_code == 2
    assert "tau must be positive" in result.output


def test_bench_nls_smoke(runner):
    doc = json.loads(invoke(
        runner, "bench", "nls", "--n", "3", "--m", "3", "--r", "1",
        "--eps", "1e-2", "--trials", "1", "--nls-restarts", "1").output)
    assert doc["trials"] == 1
    median_ratio = doc["ratio"][2]
    assert np.isfinite(median_ratio) and median_ratio > 0


def test_bench_nls_rank_zero_exits_2(runner):
    result = runner.invoke(main, ["bench", "nls", "--n", "3", "--m", "3",
                                  "--r", "0", "--eps", "1e-2", "--trials", "1"])
    assert_input_error(result)
    assert "r must be at least 1" in result.output


def test_bench_decomp_smoke_and_bad_cases(runner):
    doc = json.loads(invoke(runner, "bench", "decomp", "--cases", "3,3,2",
                            "--trials", "2").output)
    row = doc["rows"][0]
    assert (row["n"], row["m"], row["r"]) == (3, 3, 2)
    assert row["successes"] == 2
    result = runner.invoke(main, ["bench", "decomp", "--cases", "3,3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["bench", "table", "--n", "3", "--m", "3", "--r", "1", "--trials", "2"],
    ["bench", "nls", "--n", "3", "--m", "3", "--r", "1", "--eps", "1e-2",
     "--trials", "1", "--nls-restarts", "1"],
    ["bench", "decomp", "--cases", "3,3,2", "--trials", "2"],
])
def test_bench_timing_records_the_environment(runner, args):
    plain = invoke(runner, *args).output
    assert plain == invoke(runner, *args).output
    assert "environment" not in json.loads(plain)
    env = json.loads(invoke(runner, *args, "--timing").output)["environment"]
    assert env["nproc"] >= 1 and env["numpy"] == np.__version__
    assert all(n == 1 for n in env["blas_threads"].values())


TABLE_ROW = ["n", "m", "r", "eps", "trials", "relative", "err_gp", "err_opt",
             "quantiles"]
NLS_KEYS = ["n", "m", "r", "eps", "tau", "trials", "nls_restarts", "ratio",
            "err_opt", "err_nls", "quantiles"]
DECOMP_ROW = ["n", "m", "r", "trials", "restarts", "successes", "success_rate"]


@pytest.mark.parametrize("args, rows, keys, timing_keys", [
    (["bench", "table", "--n", "3", "--m", "3", "--r", "1", "--trials", "2"],
     True, TABLE_ROW, ["mean_time"]),
    (["bench", "nls", "--n", "3", "--m", "3", "--r", "1", "--eps", "1e-2",
      "--trials", "1", "--nls-restarts", "1"],
     False, NLS_KEYS, ["gp_time", "nls_time"]),
    (["bench", "decomp", "--cases", "3,3,2", "--trials", "2"],
     True, DECOMP_ROW, ["mean_time"]),
])
def test_bench_json_key_order(runner, args, rows, keys, timing_keys):
    plain = json.loads(invoke(runner, *args).output)
    timed = json.loads(invoke(runner, *args, "--timing").output)
    assert list(timed)[-1] == "environment"
    del timed["environment"]
    if rows:
        assert list(plain) == list(timed) == ["rows"]
        plain, timed = plain["rows"][0], timed["rows"][0]
    assert list(plain) == keys
    assert list(timed) == keys + timing_keys


@pytest.mark.parametrize("args", [
    ["approx", "--restarts", "-1"],
    ["decompose", "--restarts", "-1"],
    ["approx", "--max-iter", "-1"],
    ["decompose", "--max-fev", "-1"],
    ["bench", "decomp", "--cases", "3,3,2", "--restarts", "-1"],
    ["bench", "decomp", "--cases", "3,3,2", "--trials", "0"],
    ["bench", "table", "--n", "3", "--m", "3", "--trials", "0"],
    ["bench", "nls", "--n", "3", "--m", "3", "--r", "1", "--eps", "1e-2",
     "--nls-restarts", "0"],
    ["bench", "table", "--n", "3", "--m", "3", "--threads", "-4"],
    ["bench", "decomp", "--cases", "3,3,2", "--threads", "0"],
])
def test_bad_counts_exit_2_without_traceback(runner, tmp_path, args):
    if args[0] != "bench":
        args = args + [gen_file(runner, tmp_path, "t.json", "--family", "sin")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and "range" in result.output
