"""Count the code lines of each module of `src/casecast`.

A code line is a line that holds part of a statement: docstrings, comments
and blank lines are left out. The count comes from the module's AST, so a
statement that spans several lines counts each of them once.

    python3 tools/code_lines.py        # the working tree
    python3 tools/code_lines.py REV    # git revision REV, the working tree
                                       # and the difference, per module

A module missing on one side counts 0 lines there. Exit 2 when REV is not
a commit.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_PATH = "src/casecast"  # in a revision's tree
PACKAGE = ROOT / PACKAGE_PATH


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of a statement,
    outside every docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def tree_counts() -> dict[str, int]:
    """{module file name: code lines} of the working tree's package."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          text=True, encoding="utf-8").stdout


def revision_counts(rev: str) -> dict[str, int]:
    """{module file name: code lines} of the package at git revision `rev`,
    read with `git show`. A `rev` that is no commit is a CalledProcessError."""
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE_PATH}").splitlines()
    return {name: code_lines(_git("show", f"{rev}:{PACKAGE_PATH}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of each module.")
    parser.add_argument("rev", nargs="?", help="a git revision to compare the working tree with")
    rev = parser.parse_args(argv).rev
    after = tree_counts()
    if rev is None:
        for name, count in after.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    try:
        before = revision_counts(rev)
    except subprocess.CalledProcessError as exc:
        print(f"code_lines: {rev!r} is not a commit: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"{rev:>8}  {'tree':>6}  {'diff':>5}")
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in sorted(before | after)]
    rows.append(("total", sum(before.values()), sum(after.values())))
    for name, old, new in rows:
        print(f"{old:8d}  {new:6d}  {new - old:+5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
