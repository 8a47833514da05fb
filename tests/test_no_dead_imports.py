"""Every name a package module imports is used in that module, except the
four that ``benchmarks/tracing.py`` looks up there by name.  ``__init__``
imports to re-export, so it is not checked."""

import ast
from pathlib import Path

import dominotab

PACKAGE_DIR = Path(dominotab.__file__).parent

# (module, name): imported only so that the tracer can patch it there.
KEPT_FOR_THE_TRACER = {
    ("bijections", "tableau_from_reading_word"),
    ("domino_tableaux", "enumerate_pavings"),
    ("polyring", "enumerate_tableaux"),
    ("polyring", "enumerate_domino_tableaux"),
}


def _unused_imports(path: Path) -> set[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_every_import_is_used_or_kept_for_the_tracer():
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = set().union(*map(_unused_imports, modules))
    assert found == KEPT_FOR_THE_TRACER
