"""Count the code lines of the fedssl package, per module and in total.

Run:
    python3 scripts/count_code_lines.py [--src DIR]

A code line is a physical line that holds part of a token other than a
comment, and that lies outside every docstring: blank lines, comment-only
lines and the lines of module, class and function docstrings are not
counted. A multi-line string that is not a docstring counts each of its
lines. The sources are read with ast and tokenize only; no module of the
package is imported. DIR defaults to this checkout's src/fedssl.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedssl"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count(src: Path) -> dict[str, int]:
    """Code lines of every module under src, by file name, in name order."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="package directory to count")
    args = parser.parse_args()
    per_module = count(args.src)
    width = max(map(len, per_module))
    for name, n in per_module.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(per_module.values()):>5}")


if __name__ == "__main__":
    main()
