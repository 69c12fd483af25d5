"""Print the code lines of each module of src/cfdens and their total.

A code line holds at least one token that is neither a comment nor part of a
docstring; blank lines, comment lines and docstring lines do not count.

    python tests/code_lines.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(src=Path(__file__).resolve().parents[1] / "src" / "cfdens"):
    counts = {path.name: code_lines(path.read_text()) for path in sorted(Path(src).glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
