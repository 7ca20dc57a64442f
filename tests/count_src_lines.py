"""Code, docstring and physical lines of every module under `src/`.

Run from the repository root:

    python tests/count_src_lines.py [ROOT]

ROOT defaults to the `src/` directory next to `tests/`. A docstring line is
a line of a module, class or function docstring. A code line is any other
line that holds a token other than a comment: blank lines, comment-only
lines and docstring lines are not code. The physical lines are the figure `wc -l`
prints, which counts all three, so it moves when a change only rewords or
deletes documentation.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple:
    """(code lines, docstring lines, physical lines) of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc), source.count("\n")


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    totals = [0, 0, 0]
    print(f"{'module':<40} {'code':>6} {'doc':>6} {'lines':>6}")
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.relative_to(root).as_posix():<40}" + "".join(f" {c:>6}" for c in counts))
    print(f"{'total':<40}" + "".join(f" {t:>6}" for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
