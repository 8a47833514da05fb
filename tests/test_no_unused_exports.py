"""Every name the package exports has a reader besides the tests' own
helpers: package code outside the name's own definition, the acceptance
suite, or the README, which documents the public API."""

import ast
import re
from pathlib import Path

import dominotab

PACKAGE_DIR = Path(dominotab.__file__).parent
TESTS_DIR = Path(__file__).parent
README = TESTS_DIR.parent / "README.md"


def _referenced(tree: ast.AST) -> set[str]:
    """The names a tree reads as a Name or an Attribute, each outside any
    function or class definition of the same name."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_export_has_a_reader():
    used = set().union(*(_referenced(_parse(p)) for p in PACKAGE_DIR.glob("*.py")))
    used |= _referenced(_parse(TESTS_DIR / "test_acceptance.py"))
    readme = README.read_text()
    unused = [
        name
        for name in dominotab.__all__
        if name not in used and not re.search(rf"`{name}\b|\b{name}\(", readme)
    ]
    assert unused == []
