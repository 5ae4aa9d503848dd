"""Every public function of `basts.autodiff` has a caller in another `basts` module.

A tape op that only tests use belongs with them, in `tests/oracles.py`.
A module counts as a caller when it imports the function by name or reads
it as an attribute of the module, as `ad.matmul`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basts"

# function name -> why it has no caller in the package
EXEMPT = {
    "grad_check": "the package's check of a backward against central differences; "
                  "tests call it, on every op",
}


def public_functions(source: str) -> list[str]:
    """Names of the module-level functions that do not start with `_`."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def autodiff_names_read(source: str) -> set[str]:
    """Names a module takes from `basts.autodiff`: imported from it, or read
    as attributes of a name bound to the module."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "basts.autodiff":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "basts":
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "autodiff")
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == "basts.autodiff" and alias.asname)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return names


def test_reader_sees_imports_and_module_attributes():
    source = ("from basts import autodiff as ad\n"
              "import basts.autodiff as ops\n"
              "from basts.autodiff import Tensor, matmul as mm\n"
              "ad.relu(ops.concat([]))\n"
              "other.sigmoid(1)\n")
    assert autodiff_names_read(source) == {"Tensor", "matmul", "relu", "concat"}


def test_every_public_autodiff_function_has_a_package_caller():
    defined = public_functions((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("autodiff.py", "__init__.py"):
            read |= autodiff_names_read(path.read_text(encoding="utf-8"))
    assert set(EXEMPT) <= set(defined)
    assert [name for name in defined if name not in read and name not in EXEMPT] == []
