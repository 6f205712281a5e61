"""The LM cost tool, tools/lmcost.py: a default run prints a line per case and
LM, with work counts that agree with each other and costs that add up."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lmcost.py"


def _lmcost(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_reports_every_case_and_lm():
    done = _lmcost("--root", ROOT, "--seed", 3)
    assert done.returncode == 0, done.stderr
    head, *lines = done.stdout.splitlines()
    assert head.split()[:6] == ["case", "lm", "runs", "iters", "evals", "normals"]
    rows = {(cols[0], cols[1]): cols[2:] for cols in map(str.split, lines)}
    assert set(rows) == {(case, lm) for case in ("(6,3,4)", "(4,5,10)", "(3,4,5)", "(3,5,8)")
                         for lm in ("commutator", "refine")}
    # (6,3,4) and (4,5,10) have no free parameters: no commutator LM
    assert rows["(6,3,4)", "commutator"] == ["0", "0", "0", "0"]
    runs, iters, evals, normals, res, nor, loop, total = rows["(3,5,8)", "commutator"]
    assert int(runs) == 6 * 20  # start 0 and 5 restarts, in distinct mode, 20 rounds
    # a normal system per iteration, plus one where the gradient test stops
    assert int(iters) <= int(normals) <= int(iters) + int(runs)
    assert int(evals) >= int(runs)
    assert all(float(v) > 0 for v in (res, nor, loop))
    assert abs(float(res) + float(nor) + float(loop) - float(total)) <= 0.2

