"""Every public module-level name of `basts` is read somewhere in the package.

A function, class or constant that only tests use belongs with them, in
`tests/oracles.py`. A name counts as read when code in `src/basts` other
than its own definition loads it, imports it by name from its module, or
reads it as an attribute of its module, as `ad.matmul`. An import marked
`# noqa: F401` is a re-export and reads nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basts"

# (module, name) -> why it has no reader in the package
EXEMPT = {
    ("frontend", "build_ast"): "the bench's `build_ast_s` wraps it; it goes once "
                               "the bench drops that span",
    ("syntax_encoder", "encode_tree"): "the bench's `encode_tree_s` and `trees_folded` "
                                       "wrap it; it goes once the bench wraps "
                                       "`encode_trees` instead",
    ("dominators", "brute_force_dominators"): "the bench checks every workload's "
                                              "dominator trees against it; it moves "
                                              "to the oracles with the bench's import",
}


def defined_names(stmt: ast.stmt) -> list[str]:
    """The public names a module-level statement defines: a function, a
    class, or the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def names_read(source: str, module: str) -> set[tuple[str, str]]:
    """The (module, name) pairs a `basts` module reads.

    A load of a bare name inside the module-level statement that defines
    it, as a recursive call does, is not a read.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read, aliases = set(), {}
    for stmt in tree.body:
        own = set(defined_names(stmt))
        read.update((module, node.id) for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in own)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("basts"):
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if node.module == "basts":  # a module, bound to a name
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    read.add((node.module.removeprefix("basts."), alias.name))
        elif isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name.removeprefix("basts."))
                           for alias in node.names
                           if alias.name.startswith("basts.") and alias.asname)
    read.update((aliases[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases)
    return read


def unread_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Public module-level names of `sources` (module -> text) that none reads."""
    read = set()
    for module, source in sources.items():
        read |= names_read(source, module)
    return [(module, name) for module, source in sorted(sources.items())
            for stmt in ast.parse(source).body for name in defined_names(stmt)
            if (module, name) not in read]


def test_reader_sees_imports_and_module_attributes():
    source = ("from basts import autodiff as ad\n"
              "import basts.cfg as graphs\n"
              "from basts.frontend import Token, tokenize as lex\n"
              "from basts.splitter import build_ast  # noqa: F401\n"
              "LIMIT = 3\n"
              "def walk():\n"
              "    return walk() + LIMIT\n"
              "ad.relu(graphs.build_cfg(lex))\n"
              "other.sigmoid(1)\n")
    assert names_read(source, "m") == {
        ("autodiff", "relu"), ("cfg", "build_cfg"), ("frontend", "Token"),
        ("frontend", "tokenize"), ("m", "LIMIT"), ("m", "ad"), ("m", "graphs"),
        ("m", "lex"), ("m", "other")}


def test_unread_names_are_found_in_every_form():
    sources = {"a": "X, _Y = 1, 2\nclass Used: pass\ndef alone(): return alone()\n"
                    "def _private(): pass\n",
               "b": "from basts.a import Used\nZ: int = 0\nprint(Used)\n"}
    assert unread_names(sources) == [("a", "X"), ("a", "alone"), ("b", "Z")]


def test_every_public_name_has_a_package_reader():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    unread = unread_names(sources)
    assert set(EXEMPT) <= set(unread)  # every exemption is still needed
    assert [key for key in unread if key not in EXEMPT] == []
