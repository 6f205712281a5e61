"""End-to-end tests of the command-line interface.

Everything runs through click's CliRunner; files go through tmp_path so
the `gen --output` / positional-input plumbing is exercised for real.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from symlra.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, ok=True):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    if ok:
        assert result.exit_code == 0, result.output
    return result


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
    result = runner.invoke(main, ["bench", "table", "--n", "3", "--m", "3",
                                  "--eps", "1e-2,zap"])
    assert result.exit_code == 2
    assert "comma-separated" in result.output


def test_bench_nls_smoke(runner):
    doc = json.loads(invoke(
        runner, "bench", "nls", "--n", "3", "--m", "3", "--r", "1",
        "--eps", "1e-2", "--trials", "1", "--nls-restarts", "1").output)
    assert doc["trials"] == 1
    median_ratio = doc["ratio"][2]
    assert np.isfinite(median_ratio) and median_ratio > 0


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
])
def test_bad_counts_exit_2_without_traceback(runner, tmp_path, args):
    if args[0] != "bench":
        args = args + [gen_file(runner, tmp_path, "t.json", "--family", "sin")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and "range" in result.output
