"""Runtime checks in the package raise ValueError or report FAIL; none is an
``assert``, which ``python -O`` would strip."""

import ast
from pathlib import Path

import dominotab

PACKAGE_DIR = Path(dominotab.__file__).parent


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
