"""The benchmark tracer wraps library functions by name; each name must exist.

`benchmarks/layers.py` reports a layer whose function is gone as absent and
drops its metrics, so a rename in the library would go unnoticed there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    layers = _load_layers(monkeypatch)
    assert layers.LAYERS
    for name, (module_name, path, _) in layers.LAYERS.items():
        owner = importlib.import_module(module_name)
        # looked up as the tracer does: defined on the module or class itself
        for attr in path.split("."):
            assert attr in vars(owner), f"layer {name}: {module_name}.{path} not found"
            owner = vars(owner)[attr]
        assert callable(owner), f"layer {name}: {module_name}.{path} is not callable"
