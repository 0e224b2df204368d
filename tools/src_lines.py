"""Count the code lines of delaycert's source, per module and in total.

A code line is a line that holds part of a Python token, leaving out
docstrings, comments and blank lines.  A token that spans several lines
(a multi-line string or a bracketed expression continued on the next line)
counts every line it touches.  Docstrings are found with ast: the first
statement of a module, class or function when it is a string constant.

    python tools/src_lines.py            # this checkout's src/
    python tools/src_lines.py ../parent/src
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(REPO / "src"), help="source tree (default: src/)")
    args = parser.parse_args(argv)
    root = Path(args.src)
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6,d}  {path.relative_to(root)}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
