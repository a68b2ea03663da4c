"""Count the code lines of each module of the package.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines, comment lines and docstring lines do not count.
`ast` finds the docstrings (the leading string of a module, class or
function body) and `tokenize` the rest.

Usage: python .github/code_lines.py [package directory]

The directory defaults to src/dynblotto.  The counts are printed as a
Markdown table, one row per module and a total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED:
                continue
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in docstrings)
    return len(lines)


def main(package: str) -> int:
    counts = {path.stem: code_lines(path) for path in sorted(Path(package).glob("*.py"))}
    print(f"Code lines of `{package}`\n\n| module | code lines |\n| --- | ---: |")
    for name, count in counts.items():
        print(f"| `{name}` | {count:,d} |")
    print(f"| total | {sum(counts.values()):,d} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "src/dynblotto"))
