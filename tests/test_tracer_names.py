"""The benchmark tracer wraps library entry points by name: every name it
lists must exist, so a rename fails here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()
# imported at collection, as the other test modules import theirs
MODULES = {layer: importlib.import_module(f"orbitforge.{layer}") for layer in LAYERS}


@pytest.mark.parametrize("layer, target", [
    (layer, target) for layer, targets in LAYERS.items() for target in targets])
def test_traced_name_resolves(layer, target):
    mod = MODULES[layer]
    if "." in target:
        cls_name, meth = target.split(".")
        assert meth in vars(getattr(mod, cls_name)), f"{layer}.{target}"
    else:
        assert callable(getattr(mod, target, None)), f"{layer}.{target}"
