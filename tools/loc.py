"""Count the code lines of Python files: lines that hold a token of code,
not counting docstrings, comments or blank lines.

    python3 tools/loc.py src/kvprune/cli.py
    python3 tools/loc.py src/kvprune

A directory counts every .py file under it. Prints one line per file,
its count then its path, and a last line with the total. A line that
holds a statement and a trailing comment counts; a line of a string that
spans several lines counts, unless the string is a docstring (the first
statement of a module, class or function, when it is a string).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

# Tokens that are not code: a comment, the end of a blank or code line,
# indentation, and the stream's own markers.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[str]:
    """paths, with each directory replaced by the .py files under it, sorted."""
    found = []
    for path in paths:
        if not os.path.isdir(path):
            found.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            found += [os.path.join(root, name) for name in sorted(files) if name.endswith(".py")]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH", help="a .py file or a directory")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
