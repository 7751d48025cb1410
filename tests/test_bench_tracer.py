"""The benchmark's tracer looks up aukit names with getattr; keep them alive.

``bench/spans.py`` is loaded read-only (no bytecode written beside it), so
renaming or deleting a traced function fails here, not only under
``python3 bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from aukit import rng, tensor

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("aukit_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def aukit_attributes():
    """Every attribute of every loaded aukit module and the patched classes."""
    owners = [m for n, m in sys.modules.items() if n == "aukit" or n.startswith("aukit.")]
    snapshot = {(mod.__name__, attr): value for mod in owners for attr, value in vars(mod).items()}
    for cls in (rng.Xoshiro256pp, tensor.Tape):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_every_traced_tensor_op_exists(spans):
    for op in spans.TENSOR_OPS:
        assert inspect.isfunction(getattr(tensor, op, None)), op


def test_every_traced_function_exists(spans):
    for module, name in spans.FUNCTIONS:
        mod = importlib.import_module(f"aukit.{module}")
        assert inspect.isfunction(getattr(mod, name, None)), f"{module}.{name}"


def test_install_then_uninstall_restores_everything(spans):
    importlib.import_module("aukit.cli")  # install imports it; snapshot after
    before = aukit_attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = {key for key, value in aukit_attributes().items() if before.get(key) is not value}
        assert ("aukit.tensor", "conv2d_per_patch") in patched
        assert ("aukit.stgcn", "gst_layer_forward") in patched
        assert ("Tape", "backward") in patched
    finally:
        tracer.uninstall()
    after = aukit_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
