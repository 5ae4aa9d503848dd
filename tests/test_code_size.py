"""The package's code lines stay at or under a pinned count.

A code line is a line of `src/basts` that holds a token other than a
comment, a line break or an indent, and is not part of a docstring: a
string statement that opens a module, class or function. Raising the pin
needs a reason stated in CHANGES.md, as the tape op-count pins do.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basts"

CODE_LINES_PIN = 2394

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_counter_skips_blanks_comments_and_docstrings():
    source = ('"""Module docstring,\n'
              'two lines."""\n'
              "\n"
              "# a comment\n"
              "def f(a,\n"
              "      b):  # trailing comment\n"
              '    """Function docstring."""\n'
              '    text = """a string\n'
              'that is code"""\n'
              "    return text\n"
              "class C:\n"
              "    'class docstring'\n"
              "    x = 1\n")
    assert code_lines(source) == 7


def test_package_code_lines_stay_under_the_pin():
    total = sum(code_lines(path.read_text(encoding="utf-8"))
                for path in PACKAGE.glob("*.py"))
    assert total <= CODE_LINES_PIN, f"{total} code lines, pinned at {CODE_LINES_PIN}"
