"""The result-parity tool, tools/parity.py: its smoke set reproduces
byte for byte, `--compare` flags a changed entry, and `--root` runs only
the checkout it names."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"


def _parity(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_tiny_set_reproduces_and_compare_flags_a_doctored_entry(tmp_path):
    a, b, doctored = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    for out in (a, b):
        done = _parity("--root", ROOT, "--seed", 5, "--out", out, "--tiny")
        assert done.returncode == 0, done.stderr
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(records) == 3
    same = _parity("--compare", a, b)
    assert same.returncode == 0 and same.stdout.endswith("3 entries, 0 differ\n")

    # as if the first call's error had moved by one part in a million
    rec = records[0]
    rec["sha256"] = format(int(rec["sha256"], 16) ^ 1, "064x")
    rec["scalars"]["result.err_opt"] *= 1 + 1e-6
    doctored.write_text("".join(json.dumps(r) + "\n" for r in records))
    differ = _parity("--compare", a, doctored)
    assert differ.returncode == 1
    assert f"{rec['name']}:\n  result.err_opt: " in differ.stdout
    assert "largest relative move: 1.000e-06" in differ.stdout
    assert differ.stdout.endswith("3 entries, 1 differ\n")


def test_root_without_the_package_is_refused(tmp_path):
    done = _parity("--root", tmp_path, "--seed", 5, "--out", tmp_path / "out.jsonl", "--tiny")
    assert done.returncode != 0 and "no symlra package under" in done.stderr
    assert not (tmp_path / "out.jsonl").exists()
