"""The public surface: the names ``bornlab`` exports, the functions the
benchmark tracer looks up by name and the names the per-layer harness
imports, and one traced pass of each benchmark workload."""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bornlab
from bornlab.linalg import StateVector
from bornlab.steering import Ensemble
from conftest import load_module

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    # the benchmark directory is read, never written: no bytecode cache there
    return load_module("perfbench_tracing", TRACING)


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


def test_every_name_the_layer_harness_imports_resolves():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("bornlab")
        for alias in node.names
    ]
    assert names
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert not missing
    # the harness builds its ensembles from (weight, StateVector) pairs
    ensemble = Ensemble(members=[(0.5, StateVector.basis(2, 0)), (0.5, StateVector.basis(2, 1))])
    assert ensemble.weights.tolist() == [0.5, 0.5]


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    """src/ and perfbench/ copied, so that the runner's work directory is
    made outside this tree."""
    root = tmp_path_factory.mktemp("tree")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_one_traced_pass_of_each_workload(tree_copy, workload):
    cmd = [sys.executable, "-W", "error", "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=tree_copy, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    missing = {f"{name}_ms" for name in tracing.SPANS} - set(result["metrics"])
    assert not missing
