"""Count the code lines of Python modules.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of a module, class or function docstring do not
count.  The script prints the count of each module, then the total::

    python scripts/code_lines.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py`` files; the
default is ``src/realearn``.  It prints only and always exits 0 on
readable Python.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["src/realearn"])
    args = parser.parse_args(argv)
    total = 0
    for root in map(Path, args.paths):
        modules = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for module in modules:
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d} {module}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
