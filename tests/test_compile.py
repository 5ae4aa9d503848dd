"""Every `basts` module compiles with no warning.

Python warns about some slips only while it compiles a module, such as
the `SyntaxWarning` of `kind is "for"`, which compares a string by
identity. Once a cached `.pyc` exists the module is not compiled again,
so pytest's `filterwarnings = ["error"]` never sees that warning. These
tests compile each source afresh with every warning an error.
"""

import warnings
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basts"
MODULES = sorted(PACKAGE.glob("*.py"))


def compile_strictly(source: str, filename: str):
    """Compile `source`; a compile-time warning raises instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, filename, "exec")


def test_a_string_compared_by_identity_fails_to_compile():
    with pytest.raises(SyntaxError, match='"is" with a literal'):
        compile_strictly('kind = "if"\nloop = kind is "for"\n', "slip.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    compile_strictly(path.read_text(encoding="utf-8"), str(path))
