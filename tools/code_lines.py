"""Code lines per module of src/cssdyn.

A code line is a line that holds a Python token, with comments and
docstrings left out: the measure ROADMAP.md's size figures use.  Run from
anywhere:

    python tools/code_lines.py [package directory]
    python tools/code_lines.py --against REV

It prints one row per module, largest first, and the package total.  With
--against it compares src/cssdyn with the same directory at the git
revision REV (read through `git show`, nothing is written): each row holds
REV's count, the tree's count and the difference, largest tree first.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token outside comments and docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _BLANK:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def revision_counts(rev: str) -> dict:
    """Code lines per module of src/cssdyn at git revision rev."""
    names = _git("ls-tree", "--name-only", f"{rev}:src/cssdyn").split()
    return {Path(name).stem: code_lines(_git("show", f"{rev}:src/cssdyn/{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="Code lines per module of src/cssdyn.")
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "cssdyn")
    parser.add_argument("--against", metavar="REV", help="compare with src/cssdyn at this revision")
    args = parser.parse_args(argv)
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    try:
        old = revision_counts(args.against) if args.against else {}
    except subprocess.CalledProcessError as exc:
        parser.error(f"cannot read src/cssdyn at {args.against}: {exc.stderr.strip()}")
    width = max(map(len, [*counts, *old, "module"]))
    largest_first = sorted({*counts, *old}, key=lambda name: (-counts.get(name, 0), name))
    if not args.against:
        for name in largest_first:
            print(f"{name:<{width}}  {counts[name]:5d}")
        print(f"{'total':<{width}}  {sum(counts.values()):5d}")
        return 0
    print(f"{'module':<{width}}  {args.against[:12]:>12}  {'tree':>5}  {'diff':>5}")
    for name, was, now in [*((name, old.get(name, 0), counts.get(name, 0)) for name in largest_first),
                           ("total", sum(old.values()), sum(counts.values()))]:
        print(f"{name:<{width}}  {was:12d}  {now:5d}  {now - was:+5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
