import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab.linalg import BipartiteState, haar_random_state, make_rng
from bornlab.steering import Ensemble


def load_module(name: str, path: Path):
    """Import the file at ``path`` as module ``name``, writing no bytecode
    cache beside it. The module is registered in ``sys.modules`` before it
    runs: a dataclass looks its module up by name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture
def random_ensemble():
    """Factory for seeded random pure-state ensembles.

    Members span the barycenter's support by construction, so any ensemble
    from this factory is a valid steering target for its own marginal.
    """

    def make(dim: int, n_members: int, seed: int) -> Ensemble:
        rng = make_rng(seed, stream=77)
        weights = rng.dirichlet(np.ones(n_members))
        return Ensemble(weights, [haar_random_state(dim, seed * 1009 + i).amplitudes for i in range(n_members)])

    return make


@pytest.fixture
def random_bipartite():
    """Factory for seeded Haar-random bipartite pure states."""

    def make(dim_a: int, dim_b: int, seed: int) -> BipartiteState:
        rng = make_rng(seed, stream=33)
        m = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
        return BipartiteState(m / np.linalg.norm(m))

    return make


@pytest.fixture(scope="session")
def fuzz_cli():
    """``tools/fuzz_cli.py``, the CLI fuzz gate."""
    return load_module("fuzz_cli", Path(__file__).resolve().parent.parent / "tools" / "fuzz_cli.py")


@pytest.fixture(scope="session")
def benchmark_workloads(fuzz_cli):
    """``perfbench/workloads.py``: the benchmark's configs and checks."""
    return fuzz_cli.load_workloads()
