"""Count the code lines of the Python sources under src/.

Run from the repository root:  python3 tools/loc.py [--per-file]

A code line is a physical line that holds part of a statement.  Blank lines,
comment-only lines and docstrings (the leading string of a module, class or
function) are not code.  Prints the total, or one "count path" line per file
and then the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.AST) -> set[int]:
    """The physical lines taken by docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines with a token other than a comment or a line break, less docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if "--per-file" in argv:
            print(f"{count:6d} {path.relative_to(ROOT)}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
