"""The result-parity tool, tools/parity.py: its call set, command-line
entries included, reproduces byte for byte, `--compare` flags a changed
entry, and `--root` runs only the checkout it names."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"


def _parity(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_set_reproduces_and_compare_flags_a_doctored_entry(tmp_path):
    a, b, doctored = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    for out in (a, b):
        done = _parity("--root", ROOT, "--seed", 5, "--out", out)
        assert done.returncode == 0, done.stderr
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(records) == 48
    cli = {r["name"]: r["scalars"] for r in records if r["name"].startswith("cli/")}
    tables = {f"cli/{c}-table" for c in ("rankest", "approx", "decompose")}
    assert sorted(cli) == sorted({*tables, *(f"cli/{c}" for c in (
        "gen", "rankest", "approx", "decompose", "bench-table", "bench-nls",
        "bench-decomp"))})
    assert all(sc["result.exit_code"] == 0 for sc in cli.values())
    # a text table where asked for, a JSON document everywhere else
    assert all((sc["result.stdout[0]"] == "{\n") == (name not in tables)
               for name, sc in cli.items())
    same = _parity("--compare", a, b)
    assert same.returncode == 0 and same.stdout.endswith("48 entries, 0 differ\n")

    # as if the first call's error had moved by one part in a million
    rec = records[0]
    rec["sha256"] = format(int(rec["sha256"], 16) ^ 1, "064x")
    rec["scalars"]["result.err_opt"] *= 1 + 1e-6
    doctored.write_text("".join(json.dumps(r) + "\n" for r in records))
    differ = _parity("--compare", a, doctored)
    assert differ.returncode == 1
    assert f"{rec['name']}:\n  result.err_opt: " in differ.stdout
    assert "largest relative move: 1.000e-06" in differ.stdout
    assert differ.stdout.endswith("48 entries, 1 differ\n")


def test_root_without_the_package_is_refused(tmp_path):
    done = _parity("--root", tmp_path, "--seed", 5, "--out", tmp_path / "out.jsonl")
    assert done.returncode != 0 and "no symlra package under" in done.stderr
    assert not (tmp_path / "out.jsonl").exists()
