"""The public surface: the names ``bornlab`` exports, and the functions the
benchmark tracer looks up by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import bornlab

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # the benchmark directory is read, never written: no bytecode cache there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_exported_name_resolves():
    missing = [name for name in bornlab.__all__ if not hasattr(bornlab, name)]
    assert not missing
    assert len(set(bornlab.__all__)) == len(bornlab.__all__)
    namespace = {}
    exec("from bornlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bornlab.__all__)


tracing = load_tracing()


@pytest.mark.parametrize(
    "module,path",
    [target for targets in tracing.SPANS.values() for target in targets],
)
def test_every_traced_span_resolves(module, path):
    # Tracer.install reads a span's callable from the owner's own namespace
    importlib.import_module(module)
    owner, attr = tracing._resolve(module, path)
    assert callable(vars(owner).get(attr)), f"{module}.{path}"


@pytest.mark.parametrize(
    "module,path",
    [target for targets in tracing.COUNT_ONLY.values() for target in targets],
)
def test_every_counted_call_resolves(module, path):
    importlib.import_module(module)
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr, None)), f"{module}.{path}"
