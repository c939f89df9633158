"""The layer trace of the benchmark (``perfbench/layertrace.py``) looks its
targets up by name; every one must still resolve in the package, so a
deleted or renamed traced function fails here and not only in a trace run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
_spec = importlib.util.spec_from_file_location("layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


@pytest.mark.parametrize("layer", sorted(layertrace.LAYERS))
def test_every_traced_target_resolves(layer):
    for target in layertrace.LAYERS[layer]:
        found = layertrace._resolve(target)
        assert found and all(callable(getattr(obj, "__func__", obj)) for _, _, obj in found), target
