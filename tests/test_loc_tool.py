"""The line counter, tools/loc.py: what counts as a code line, and its
table of per-module changes against a git revision."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

MODULE = '''"""Module docstring,
over two lines."""

import numpy as np   # a trailing comment keeps its code line


# a comment line
def f(x,
      y):
    """One-line docstring."""
    z = "a string that is no docstring"
    return np.add(x,
                  y) + len(z)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # 13 lines: code on lines 4, 8-9 (the def), 11 and 12-13 (the return)
    assert loc.count(MODULE) == (13, 6)
    assert loc.count("") == (0, 0)
    assert loc.count('x = """two\nlines"""\n') == (2, 2)   # an assigned string is code


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def test_against_a_revision(tmp_path):
    package = tmp_path / "src" / "symlra"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "gone.py").write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (package / "a.py").write_text(MODULE + "\n\nw = 2\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("# only a comment\n")
    done = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path),
                           "--against", "HEAD"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()[1:]}
    assert rows == {"a.py": ["16", "7", "+3", "+1"], "gone.py": ["0", "0", "-1", "-1"],
                    "new.py": ["1", "0", "+1", "+0"], "total": ["17", "7", "+3", "+0"]}
