"""Line counts of the symlra sources, per module of src/symlra.

    python3 tools/loc.py [--root DIR] [--against REV]

For each module it prints the total lines and the code lines: the lines
that hold a token other than a comment or a docstring, so blank lines,
comment lines and docstring lines do not count, and a statement split
over several lines counts each line.  `--against REV` also reads the
modules at git revision REV of DIR (with `git show`) and prints each
count's change from REV; a module missing on one side counts as empty.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

PACKAGE = "src/symlra"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree):
    """(start, end) positions of the module, class and function docstrings."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source):
    """(total lines, code lines) of one module's source text."""
    spans = docstrings(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def working_tree(root):
    """{module name: source} of root's package as it is on disk."""
    if not (root / PACKAGE).is_dir():
        raise SystemExit(f"no {PACKAGE} under {root}")
    return {path.name: path.read_text() for path in sorted((root / PACKAGE).glob("*.py"))}


def revision(root, rev):
    """{module name: source} of root's package at git revision rev."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(done.stderr.strip())
        return done.stdout
    names = git("ls-tree", "--name-only", rev, PACKAGE + "/").split()
    return {Path(name).name: git("show", f"{rev}:{name}")
            for name in names if name.endswith(".py")}


def table(now, before=None):
    """The printed table: one row per module and a total row."""
    counts = {name: count(source) for name, source in now.items()}
    old = {name: count(source) for name, source in (before or {}).items()}
    rows = [(name, *counts.get(name, (0, 0)), *old.get(name, (0, 0)))
            for name in sorted(counts.keys() | old.keys())]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    lines = [f"{'module':<16}{'total':>8}{'code':>8}" + (
        f"{'d total':>10}{'d code':>9}" if before is not None else "")]
    for name, total, code, old_total, old_code in rows:
        line = f"{name:<16}{total:>8}{code:>8}"
        if before is not None:
            line += f"{total - old_total:>+10}{code - old_code:>+9}"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/symlra is counted (default: this one)")
    parser.add_argument("--against", metavar="REV",
                        help="git revision to print each count's change from")
    args = parser.parse_args(argv)
    before = revision(args.root, args.against) if args.against else None
    print(table(working_tree(args.root), before))


if __name__ == "__main__":
    main()
