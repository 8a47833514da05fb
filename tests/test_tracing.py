"""The benchmark tracer still fits the program: every layer it wraps is found
under the name it patches, and uninstalling restores every attribute."""

import importlib
import importlib.util
from pathlib import Path

from dominotab.domino_tableaux import FillState
from dominotab.polyring import Polynomial

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    targets = [
        (importlib.import_module(module), attr) for module, attr, _ in tracing.PATCHES
    ]
    targets += [(Polynomial, "__mul__"), (FillState, "check")]
    before = [getattr(owner, attr) for owner, attr in targets]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = [getattr(owner, attr) for owner, attr in targets]
    finally:
        tracer.uninstall()

    for (owner, attr), old, new in zip(targets, before, patched):
        assert new is not old, f"{owner.__name__}.{attr} was not patched"
    after = [getattr(owner, attr) for owner, attr in targets]
    for (owner, attr), old, now in zip(targets, before, after):
        assert now is old, f"{owner.__name__}.{attr} was not restored"
