"""Code lines per module of src/cssdyn.

A code line is a line that holds a Python token, with comments and
docstrings left out: the measure ROADMAP.md's size figures use.  Run from
anywhere:

    python tools/code_lines.py [package directory]

It prints one row per module, largest first, and the package total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

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


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cssdyn"
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
